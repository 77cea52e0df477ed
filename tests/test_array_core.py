"""The array-backed mass function against the frozenset references.

``MassFunction`` keeps its focal sets as uint64 bitmasks and masses in
arrays, and every transform works on its incidence matrix. These tests
check that representation against ``tests/oracles.py`` and a direct
frozenset split, over frames of up to 64 labels.
"""

import itertools
import math
import random
from fractions import Fraction
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pignistic import (
    ConvergenceError,
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
from pignistic import transforms
from pignistic.cli import EXIT_INVALID_INPUT, main
from pignistic.io import parse_bba_document, parse_distribution_document

from .oracles import (
    bel_oracle,
    betp_oracle,
    kkt_gap_oracle,
    pl_oracle,
    pr_bl_oracle,
    pr_pl_oracle,
    pra_pl_oracle,
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


def compound_only_bba(rng, n, k):
    """``k`` distinct focal sets of at least two labels each, random masses."""
    bits = set()
    while len(bits) < k:
        b = rng.getrandbits(n)
        if b.bit_count() > 1:
            bits.add(b)
    weights = [rng.random() for _ in bits]
    total = math.fsum(weights)
    frame = Frame([f"h{i}" for i in range(n)])
    return MassFunction(frame, {FocalSet(frame, b): w / total for b, w in zip(bits, weights)})


@pytest.mark.parametrize("n, k", [(2, 1), (5, 20), (16, 200), (32, 1000), (64, 2000)])
def test_prbl_without_singleton_mass_is_the_split_in_one_product(n, k):
    m = compound_only_bba(random.Random(n), n, k)
    assert m.sum_bel() == 0.0
    got = pr_bl(m).distribution.probabilities
    assert np.array_equal(got, transforms._split(m, m._bel, m._floats()))
    labels = m.frame.labels
    want = split_reference(frozen_masses(m), labels, dict.fromkeys(labels, 0.0))
    assert np.abs(got - want).max() <= 1e-12


def test_prbl_with_singleton_mass_on_some_labels_splits_proportionally():
    m = compound_only_bba(random.Random(7), 16, 200)
    rng = random.Random(8)
    singles = {1 << i: rng.random() for i in range(0, 16, 3)}
    scale = 0.5 / math.fsum(singles.values())
    assignments = {FocalSet(m.frame, b): mass * 0.5 for b, mass in zip(m.bits.tolist(), m.masses)}
    assignments.update({FocalSet(m.frame, b): w * scale for b, w in singles.items()})
    m = MassFunction(m.frame, assignments)
    assert 0.0 < m.sum_bel() < 1.0
    labels, masses = m.frame.labels, frozen_masses(m)
    bel = dict(zip(labels, m.singleton_beliefs().values.tolist()))
    got = pr_bl(m).distribution.probabilities
    assert np.abs(got - split_reference(masses, labels, bel)).max() <= 1e-12
    equal = split_reference(masses, labels, dict.fromkeys(labels, 0.0))
    assert np.abs(got - equal).max() > 1e-3


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tiny", [5e-324, 1e-320, 1e-310])
def test_subnormal_singleton_mass_is_split_without_overflow(tiny):
    # {a, c}'s members weigh tiny in PrBl, so 0.5 / tiny would overflow;
    # that row is split as 0.5 * (tiny / tiny) instead
    m = MassFunction.from_labels(
        Frame(["a", "b", "c"]), [(["a"], tiny), (["b"], 0.5), (["a", "c"], 0.5)]
    )
    assert pr_bl(m).distribution.values.tolist() == [0.5, 0.5, 0.0]
    assert pr_sc_p(m).distribution.values.tolist() == [0.5, 0.5, 0.0]


@pytest.fixture(scope="module")
def wide_magnitude_bbas():
    """500 BBAs per lower bound lo: 2-8 labels, 2 to min(20, 2^n - 1) distinct
    focal sets, weights 10^U(lo, 0) normalised by fsum, so masses span up to
    330 decades and include subnormals and exact zeros."""
    rng = random.Random(7)
    bbas = []
    for lo in (-300, -315, -330):
        for _ in range(500):
            n = rng.randint(2, 8)
            frame = Frame([f"h{i}" for i in range(n)])
            sets = rng.sample(range(1, 2**n), rng.randint(2, min(20, 2**n - 1)))
            weights = [10.0 ** rng.uniform(lo, 0) for _ in sets]
            total = math.fsum(weights)
            masses = {FocalSet(frame, b): w / total for b, w in zip(sets, weights)}
            bbas.append(MassFunction(frame, masses))
    return bbas


@pytest.mark.filterwarnings("error")
def test_proportional_transforms_match_exact_rationals_over_wide_magnitudes(wide_magnitude_bbas):
    for m in wide_magnitude_bbas:
        masses, labels = frozen_masses(m), m.frame.labels
        for transform, oracle in (
            (pra_pl, pra_pl_oracle), (pr_pl, pr_pl_oracle), (pr_bl, pr_bl_oracle)
        ):
            expected = oracle(masses, labels)
            got = transform(m).distribution
            assert max(abs(got[label] - expected[label]) for label in labels) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_prscp_over_wide_magnitudes_is_certified_or_raises(wide_magnitude_bbas):
    answers = 0
    for m in wide_magnitude_bbas:
        try:
            p = pr_sc_p(m).distribution
        except ConvergenceError:
            continue
        answers += 1
        labels = m.frame.labels
        assert kkt_gap_oracle(frozen_masses(m), labels, {l: p[l] for l in labels}) <= 1e-6
    assert answers > 0


def exactly_rounded_betp(m):
    """Each label's equal shares summed exactly in rationals, rounded once."""
    totals = dict.fromkeys(m.frame.labels, Fraction(0))
    for subset, mass in m.focal_sets():
        share = Fraction(mass / subset.cardinality)
        for label in subset.labels:
            totals[label] += share
    return [float(totals[label]) for label in m.frame.labels]


def test_betp_matches_fsum_reference_on_a_wide_frame():
    rng = random.Random(9)
    frame = Frame([f"h{i}" for i in range(64)])
    bits = set()
    while len(bits) < 2000:
        bits.add(rng.getrandbits(64) or 1)
    weights = [rng.random() for _ in bits]
    total = math.fsum(weights)
    m = MassFunction(frame, {FocalSet(frame, b): w / total for b, w in zip(bits, weights)})
    expected = split_reference(frozen_masses(m), frame.labels, dict.fromkeys(frame.labels, 1.0))
    assert bet_p(m).distribution.probabilities.tolist() == expected


def test_betp_label_outside_every_focal_set_is_exactly_zero():
    frame = Frame(["a", "b", "c", *(f"h{i}" for i in range(61))])
    m = MassFunction.from_labels(frame, [(["a"], 0.25), (["a", "b"], 0.5), (["b", "h60"], 0.25)])
    probs = bet_p(m).distribution.probabilities
    assert probs[frame.index("c")] == 0.0
    assert math.copysign(1.0, probs[frame.index("c")]) == 1.0
    assert (probs[3:-1] == 0.0).all()


def test_betp_subnormal_shares_are_summed_exactly():
    frame = Frame(["a", "b", "c", "d"])
    m = MassFunction.from_labels(
        frame,
        [
            (["a"], 1.0),
            (["b", "c", "d"], 3e-310),
            (["c", "d"], 7e-320),
            (["a", "b", "c", "d"], 5 * 5e-324),
        ],
    )
    probs = bet_p(m).distribution.probabilities.tolist()
    assert all(0.0 < p < sys.float_info.min for p in probs[1:])  # subnormal
    assert probs == exactly_rounded_betp(m)


def test_betp_column_sum_is_exactly_rounded_not_left_to_right():
    # a's shares are 0.5, 2^-54, 2^-54: each half-ulp addition ties back to
    # 0.5 from left to right, while the exact sum 0.5 + 2^-53 is a float
    half_ulp = 2.0**-54
    frame = Frame(["a", "b", "c"])
    m = MassFunction.from_labels(
        frame,
        [
            (["a"], 0.5),
            (["a", "b"], 2 * half_ulp),
            (["a", "c"], 2 * half_ulp),
            (["b"], 0.5 - 4 * half_ulp),
        ],
    )
    shares_of_a = [0.5, half_ulp, half_ulp]
    assert sum(shares_of_a) == 0.5 != math.fsum(shares_of_a)
    probs = bet_p(m).distribution.probabilities.tolist()
    assert probs[0] == 0.5 + 2 * half_ulp
    assert probs == exactly_rounded_betp(m)


@pytest.fixture
def fsum_calls(monkeypatch):
    """The ``math.fsum`` calls of ``pignistic.transforms``: BetP makes them
    only on its per-label fallback."""
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def fsum(self, values):
            calls.append(values)
            return math.fsum(values)

    monkeypatch.setattr(transforms, "math", CountingMath())
    return calls


def test_betp_split_is_exact_where_every_summation_order_misses(fsum_calls):
    # found by a seeded search over these six sets: c's three shares round
    # away from their exact sum whichever order they are added in
    rng = random.Random(22)
    weights = [rng.random() for _ in range(6)]
    total = math.fsum(weights)
    sets = [["a"], ["a", "b"], ["a", "c"], ["a", "b", "c"], ["b"], ["c"]]
    m = MassFunction.from_labels(
        Frame(["a", "b", "c"]), [(s, w / total) for s, w in zip(sets, weights)]
    )
    shares = m.masses / m.cardinality
    exact_c = exactly_rounded_betp(m)[2]
    shares_of_c = shares[m.incidence[:, 2]].tolist()
    assert sum(shares_of_c) != exact_c
    assert all(sum(order) != exact_c for order in itertools.permutations(shares_of_c))
    assert (shares @ m.incidence.astype(float))[2] != exact_c
    assert bet_p(m).distribution.probabilities.tolist() == exactly_rounded_betp(m)
    assert fsum_calls == []  # the split path


@pytest.mark.parametrize(
    "smallest, fallback",
    [(2.0**-51, False), (math.nextafter(2.0**-51, 0.0), True)],
    ids=["at 2^-51", "one ulp below"],
)
def test_betp_takes_the_fallback_just_past_the_certificate(fsum_calls, smallest, fallback):
    # five focal sets: the split is certified while 5 <= 2^106 ulp(smallest
    # share), which holds at 2^-51 (ulp 2^-103) and fails one ulp below it
    frame = Frame(["a", "b", "c", "d"])
    m = MassFunction.from_labels(
        frame,
        [(["a"], smallest), (["b"], 0.25), (["c"], 0.25), (["d"], 0.25),
         (frame.labels, 0.25 - smallest)],
    )
    assert min((m.masses / m.cardinality).tolist()) == smallest
    assert bet_p(m).distribution.probabilities.tolist() == exactly_rounded_betp(m)
    assert len(fsum_calls) == (frame.size if fallback else 0)


@st.composite
def wide_range_mass_functions(draw):
    """Up to 12 labels, weights 10^U(-300, 0): mostly past the certificate."""
    n = draw(st.integers(1, 12))
    frame = Frame([f"h{i}" for i in range(n)])
    bits = draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=30, unique=True)
    )
    weights = [10.0**e for e in draw(
        st.lists(st.floats(-300.0, 0.0), min_size=len(bits), max_size=len(bits))
    )]
    total = math.fsum(weights)
    return MassFunction(
        frame, {FocalSet(frame, b): w / total for b, w in zip(bits, weights)}
    )


@given(wide_range_mass_functions())
@settings(max_examples=150, deadline=None)
def test_betp_is_exactly_rounded_over_300_decades(m):
    assert bet_p(m).distribution.probabilities.tolist() == exactly_rounded_betp(m)


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


class NoRecast(np.ndarray):
    """A boolean incidence that fails the test if anything casts it again."""

    def astype(self, *args, **kwargs):
        raise AssertionError("incidence cast to floats a second time")


def test_float_incidence_is_cast_by_the_first_product_and_kept():
    frame = Frame(["a", "b", "c"])
    m = MassFunction.from_labels(
        frame, [(["a"], 0.25), (["a", "b"], 0.25), (["b", "c"], 0.5)]
    )
    assert m._float_incidence is None
    for query in (
        pra_pl, MassFunction.sum_pl, MassFunction.sum_bel,
        MassFunction.singleton_beliefs, MassFunction.singleton_plausibilities,
    ):
        query(m)
    assert m._float_incidence is None  # none of these needs a product

    bet_p(m)
    table = m._float_incidence
    assert table.dtype == np.float64 and not table.flags.writeable
    assert np.array_equal(table, m.incidence.astype(float))
    m.incidence = m.incidence.view(NoRecast)
    p = pr_pl(m).distribution
    pr_bl(m)
    pr_sc_p(m)
    prscp_residual(m, p)
    assert m._float_incidence is table


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

    @pytest.mark.parametrize("bad", ["1.0", b"1", True, [1.0], 1 + 0j])
    def test_mass_function_rejects_non_numbers(self, bad):
        frame = Frame(["a", "b"])
        with pytest.raises(MassOutOfRangeError):
            MassFunction.from_labels(frame, [(["a"], bad)])
        with pytest.raises(MassOutOfRangeError):
            MassFunction(frame, {frame.singleton("a"): bad})

    def test_mass_function_accepts_real_numbers(self):
        frame = Frame(["a", "b"])
        m = MassFunction.from_labels(
            frame, [(["a"], np.float64(0.5)), (["b"], Fraction(1, 4)), (["a", "b"], 1 / 4)]
        )
        assert m.masses.tolist() == [0.5, 0.25, 0.25]

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
