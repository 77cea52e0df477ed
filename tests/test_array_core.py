"""The array-backed mass function against the frozenset references.

``MassFunction`` keeps its focal sets as uint64 bitmasks and masses in
arrays, and every transform works on its incidence matrix. These tests
check that representation against ``tests/oracles.py`` and a direct
frozenset split, over frames of up to 64 labels.
"""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pignistic import (
    FocalSet,
    Frame,
    MassFunction,
    MassOutOfRangeError,
    ParseError,
    ProbabilityDistribution,
    SolverConfig,
    bet_p,
    pr_bl,
    pr_pl,
    pr_sc_p,
    pra_pl,
    prscp_residual,
)
from pignistic.cli import EXIT_INVALID_INPUT, main
from pignistic.io import parse_bba_document, parse_distribution_document

from .oracles import (
    bel_oracle,
    betp_oracle,
    pl_oracle,
    self_consistency_residual_oracle,
)

ORACLE_MAX_LABELS = 10


def frozen_masses(m):
    return {frozenset(s.labels): mass for s, mass in m.focal_sets()}


def split_reference(masses, labels, weights):
    """Each focal set's mass shared among its members in proportion to
    ``weights``, equally where they all weigh zero (frozenset loop)."""
    shares = {label: [] for label in labels}
    for members, mass in masses.items():
        total = math.fsum(weights[label] for label in members)
        for label in members:
            shares[label].append(
                mass * weights[label] / total if total > 0.0 else mass / len(members)
            )
    return [math.fsum(shares[label]) for label in labels]


@st.composite
def wide_mass_functions(draw):
    n = draw(st.integers(1, 64))
    frame = Frame([f"h{i}" for i in range(n)])
    bits = draw(
        st.lists(
            st.integers(1, (1 << n) - 1),
            min_size=1, max_size=min((1 << n) - 1, 40), unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(1e-3, 1.0), min_size=len(bits), max_size=len(bits)
        )
    )
    total = math.fsum(weights)
    return MassFunction(
        frame, {FocalSet(frame, b): w / total for b, w in zip(bits, weights)}
    )


@given(wide_mass_functions())
@settings(max_examples=150, deadline=None)
def test_array_core_matches_frozenset_references(m):
    labels = m.frame.labels
    masses = frozen_masses(m)
    bel = [bel_oracle(masses, {label}) for label in labels]
    pl = [pl_oracle(masses, {label}) for label in labels]
    assert list(m.singleton_beliefs().values) == bel
    assert np.abs(m.singleton_plausibilities().values - pl).max() <= 1e-12

    betp = bet_p(m).distribution.probabilities.tolist()
    if len(labels) <= ORACLE_MAX_LABELS:
        expected = betp_oracle(masses, labels)
        assert betp == [expected[label] for label in labels]
    else:
        assert betp == split_reference(masses, labels, dict.fromkeys(labels, 1.0))

    for transform, weights in ((pr_pl, pl), (pr_bl, bel)):
        got = transform(m).distribution.probabilities
        want = split_reference(masses, labels, dict(zip(labels, weights)))
        assert np.abs(got - want).max() <= 1e-12

    p = pr_pl(m).distribution
    assert prscp_residual(m, p) == pytest.approx(
        self_consistency_residual_oracle(masses, labels, dict(zip(labels, p.probabilities))),
        abs=1e-12,
    )


def test_full_frame_top_bit_round_trips():
    frame = Frame([f"h{i}" for i in range(64)])
    top = 1 << 63
    m = MassFunction.from_labels(
        frame,
        [(["h63"], 0.25), (["h0", "h63"], 0.25), (frame.labels, 0.5)],
    )
    assert m.bits.dtype == np.uint64
    assert m.bits.tolist() == [top, top | 1, (1 << 64) - 1]
    assert [s.bits for s, _ in m.focal_sets()] == m.bits.tolist()
    assert m.mass(frame.singleton("h63")) == 0.25
    assert m.mass(frame.full_set) == 0.5
    assert m.incidence[:, 63].tolist() == [True, True, True]
    assert m.cardinality.tolist() == [1.0, 2.0, 64.0]
    assert m.singleton_beliefs()["h63"] == 0.25
    assert m.singleton_plausibilities()["h63"] == 1.0
    assert m.belief(frame.subset(["h0", "h63"])) == 0.5
    assert m.plausibility(frame.singleton("h0")) == 0.75
    betp = bet_p(m).distribution
    assert betp["h63"] == math.fsum([0.25, 0.125, 0.5 / 64])
    assert betp["h1"] == 0.5 / 64


def test_compound_only_prbl_is_equal_split():
    frame = Frame(["a", "b", "c", "d"])
    m = MassFunction.from_labels(frame, [(["a", "b"], 0.6), (["b", "c", "d"], 0.4)])
    assert m.sum_bel() == 0.0
    out = pr_bl(m).distribution.probabilities
    assert list(out) == pytest.approx([0.3, 0.3 + 0.4 / 3, 0.4 / 3, 0.4 / 3], abs=1e-15)
    assert list(out) == pytest.approx(list(bet_p(m).distribution.probabilities), abs=1e-15)


def test_masses_near_underflow():
    frame = Frame(["a", "b", "c"])
    tiny = 1e-300
    m = MassFunction.from_labels(
        frame,
        [(["a"], 1.0 - 3 * tiny), (["b"], tiny), (["b", "c"], tiny), (["a", "b", "c"], tiny)],
    )
    masses = frozen_masses(m)
    expected = betp_oracle(masses, frame.labels)
    assert bet_p(m).distribution.probabilities.tolist() == [
        expected[label] for label in frame.labels
    ]
    assert m.singleton_plausibilities()["c"] == pytest.approx(2 * tiny, rel=1e-12)
    for transform in (pra_pl, pr_pl, pr_bl):
        probs = transform(m).distribution.probabilities
        assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) <= 1e-12
    result = pr_sc_p(m, SolverConfig(tolerance=1e-12, max_iterations=100_000))
    assert prscp_residual(m, result.distribution) < 1e-11


def test_focal_set_order_and_repr_unchanged():
    frame = Frame(["a", "b", "c"])
    m = MassFunction.from_labels(
        frame,
        [(["b", "c"], 0.5), (["a"], 0.25), (["c"], 0.0), (["b", "b"], 0.25)],
    )
    assert [(s.labels, mass) for s, mass in m.focal_sets()] == [
        (("b", "c"), 0.5), (("a",), 0.25), (("b",), 0.25),
    ]
    assert repr(m) == "MassFunction({a}: 0.25, {b}: 0.25, {b,c}: 0.5)"
    assert len(m) == 3


def test_lazy_tables_are_safe_to_share_between_threads():
    labels, rng = [f"h{i}" for i in range(32)], random.Random(3)
    frame = Frame(labels)
    bits = rng.sample(range(1, 1 << 32), 300)
    reference = MassFunction(frame, {FocalSet(frame, b): 1 / 300 for b in bits})
    expected = (
        reference.singleton_plausibilities().values.tolist(),
        bet_p(reference).distribution.probabilities.tolist(),
        pr_bl(reference).distribution.probabilities.tolist(),
    )
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = MassFunction(frame, {FocalSet(frame, b): 1 / 300 for b in bits})
            results = []

            def work():
                results.append((
                    shared.singleton_plausibilities().values.tolist(),
                    bet_p(shared).distribution.probabilities.tolist(),
                    pr_bl(shared).distribution.probabilities.tolist(),
                ))

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(old)


class TestNonFiniteInput:
    def test_mass_function_rejects_nan_and_infinity(self):
        frame = Frame(["a", "b"])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(MassOutOfRangeError):
                MassFunction.from_labels(frame, [(["a"], 1.0), (["b"], bad)])

    def test_distribution_rejects_nan(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(Frame(["a", "b"]), [1.0, math.nan])

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_json_loader_rejects_non_finite_constants(self, constant):
        with pytest.raises(ParseError):
            parse_bba_document(
                f'{{"frame": ["a"], "masses": [{{"elements": ["a"], "mass": {constant}}}]}}'
            )
        with pytest.raises(ParseError):
            parse_distribution_document(
                f'{{"frame": ["a"], "probabilities": [{constant}]}}'
            )

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1.0])
    def test_solver_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=tolerance)


class TestNonFiniteCli:
    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_bba_with_non_finite_mass(self, capsys, tmp_path, constant):
        doc = tmp_path / "bba.json"
        doc.write_text(
            '{"frame": ["a", "b"], "masses": ['
            '{"elements": ["a"], "mass": 1.0}, '
            f'{{"elements": ["b"], "mass": {constant}}}]}}'
        )
        code, out, err = self.run(
            capsys, ["transform", "--method", "prscp", "--input", str(doc)]
        )
        assert code == EXIT_INVALID_INPUT and out == "" and "error" in err

    def test_distribution_with_nan(self, capsys, tmp_path):
        doc = tmp_path / "dist.json"
        doc.write_text('{"frame": ["a", "b"], "probabilities": [1.0, NaN]}')
        code, out, err = self.run(capsys, ["pic", "--input", str(doc)])
        assert code == EXIT_INVALID_INPUT and out == "" and "error" in err

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance(self, capsys, data_dir, tolerance):
        code, out, err = self.run(capsys, [
            "decide", "--input", str(data_dir / "combat_id.json"),
            "--thresholds", str(data_dir / "thresholds_standard.json"),
            "--risk", "0.0455", "--tolerance", tolerance,
        ])
        assert code == EXIT_INVALID_INPUT and out == "" and "tolerance" in err

    def test_nan_risk(self, capsys, data_dir):
        code, out, _ = self.run(capsys, [
            "transform", "--method", "betp",
            "--input", str(data_dir / "combat_id.json"), "--risk", "nan",
        ])
        assert code == EXIT_INVALID_INPUT and out == ""
