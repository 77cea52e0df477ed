"""Randomized invariants for the transform and metric layers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pignistic import (
    FocalSet,
    Frame,
    MassFunction,
    ProbabilityDistribution,
    SingletonVector,
    SolverConfig,
    ValidationError,
    bet_p,
    kl_divergence,
    pic,
    pr_bl,
    pr_pl,
    pr_sc_p,
    pra_pl,
)

# near-degenerate random BBAs converge geometrically with ratio close to 1,
# so the randomized suites run the solver with a larger iteration budget
ROBUST_SOLVER = SolverConfig(tolerance=1e-12, max_iterations=200_000)


def pr_sc_p_robust(m):
    return pr_sc_p(m, ROBUST_SOLVER)


BOUNDED_TRANSFORMS = [bet_p, pr_pl, pr_bl, pr_sc_p_robust]
ALL_TRANSFORMS = BOUNDED_TRANSFORMS + [pra_pl]


@st.composite
def mass_functions(draw, min_size=2, max_size=6):
    n = draw(st.integers(min_size, max_size))
    frame = Frame([f"h{i}" for i in range(n)])
    n_subsets = 2**n - 1
    bits = draw(
        st.lists(
            st.integers(1, n_subsets), min_size=1, max_size=min(n_subsets, 10),
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False),
            min_size=len(bits), max_size=len(bits),
        )
    )
    total = sum(weights)
    return MassFunction(
        frame, {FocalSet(frame, b): w / total for b, w in zip(bits, weights)}
    )


@st.composite
def bayesian_mass_functions(draw, min_size=2, max_size=6):
    n = draw(st.integers(min_size, max_size))
    frame = Frame([f"h{i}" for i in range(n)])
    weights = draw(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
    )
    total = sum(weights)
    return MassFunction(
        frame,
        {FocalSet(frame, 1 << i): w / total for i, w in enumerate(weights)},
    )


@given(mass_functions())
@settings(deadline=None)
def test_outputs_are_normalized(m):
    for transform in ALL_TRANSFORMS:
        probs = transform(m).distribution.probabilities
        assert abs(probs.sum() - 1.0) <= 1e-9


@given(mass_functions())
@settings(deadline=None)
def test_outputs_bounded_by_bel_and_pl(m):
    bel = m.singleton_beliefs().values
    pl = m.singleton_plausibilities().values
    for transform in BOUNDED_TRANSFORMS:
        probs = transform(m).distribution.probabilities
        assert (probs >= bel - 1e-9).all()
        assert (probs <= pl + 1e-9).all()


@given(mass_functions())
def test_prapl_lower_bound(m):
    # only the lower bound holds universally for PraPl
    bel = m.singleton_beliefs().values
    probs = pra_pl(m).distribution.probabilities
    assert (probs >= bel - 1e-12).all()


@given(mass_functions())
def test_sum_bel_and_sum_pl_bracket_one(m):
    assert m.sum_bel() <= 1.0 + 1e-9
    assert m.sum_pl() >= 1.0 - 1e-9


@given(mass_functions())
def test_stored_sums_are_fsum_of_the_vectors(m):
    # bit for bit: the selector compares these sums against its thresholds
    assert m.sum_bel() == math.fsum(m.singleton_beliefs().values.tolist())
    assert m.sum_pl() == math.fsum(m.singleton_plausibilities().values.tolist())


@given(bayesian_mass_functions())
@settings(deadline=None)
def test_bayesian_fixed_points(m):
    expected = m.singleton_masses().values
    for transform in ALL_TRANSFORMS:
        probs = transform(m).distribution.probabilities
        assert np.abs(probs - expected).max() <= 1e-12


@given(mass_functions())
@settings(deadline=None)
def test_pic_in_unit_interval(m):
    for transform in ALL_TRANSFORMS:
        assert 0.0 <= pic(transform(m).distribution).value <= 1.0


@given(mass_functions())
def test_pic_kl_identity(m):
    p = bet_p(m).distribution
    n = p.frame.size
    uniform = ProbabilityDistribution(p.frame, np.full(n, 1.0 / n))
    assert pic(p).value == pytest.approx(
        kl_divergence(p, uniform) / math.log(n), abs=1e-12
    )


@given(mass_functions(max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_permutation_equivariance(m, rng):
    labels = list(m.frame.labels)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    permuted_frame = Frame(shuffled)
    permuted = MassFunction.from_labels(
        permuted_frame, [(s.labels, mass) for s, mass in m.focal_sets()]
    )
    for transform in ALL_TRANSFORMS:
        original = transform(m).distribution
        relabeled = transform(permuted).distribution
        for label in labels:
            assert relabeled[label] == pytest.approx(original[label], abs=1e-9)


@st.composite
def single_pair_mass_functions(draw):
    """Singleton masses plus exactly one two-element compound focal set."""
    n = draw(st.integers(2, 5))
    frame = Frame([f"h{i}" for i in range(n)])
    weights = draw(st.lists(st.floats(1e-2, 1.0), min_size=n + 1, max_size=n + 1))
    total = sum(weights)
    assignments = {
        FocalSet(frame, 1 << i): w / total for i, w in enumerate(weights[:n])
    }
    assignments[FocalSet(frame, 0b11)] = weights[n] / total
    return MassFunction(frame, assignments)


@given(single_pair_mass_functions())
def test_pair_allocation_fractions(m):
    """The compound's mass splits by the documented per-transform fraction."""
    frame = m.frame
    m_pair = m.mass(FocalSet(frame, 0b11))
    bel = m.singleton_beliefs().values
    pl = m.singleton_plausibilities().values

    def measured(dist):
        return (dist.probabilities[0] - bel[0]) / m_pair

    assert measured(bet_p(m).distribution) == pytest.approx(0.5, abs=1e-9)
    assert measured(pr_pl(m).distribution) == pytest.approx(
        pl[0] / (pl[0] + pl[1]), abs=1e-9
    )
    singles = m.singleton_masses().values
    assert measured(pr_bl(m).distribution) == pytest.approx(
        singles[0] / (singles[0] + singles[1]), abs=1e-9
    )
    # tight solver so the measured fraction is limited by 1e-9, not the iterate
    prscp = pr_sc_p(m, SolverConfig(tolerance=1e-15, max_iterations=10000)).distribution
    assert measured(prscp) == pytest.approx(
        prscp.probabilities[0] / (prscp.probabilities[0] + prscp.probabilities[1]),
        abs=1e-9,
    )


@given(st.lists(st.floats(0.0, sys.float_info.max), min_size=1, max_size=5))
@settings(max_examples=300)
def test_a_kept_vector_sums_without_overflow(values):
    """Every vector is refused whose exact sum overflows, and on one that is kept
    ``total`` and ``sum_over`` every subset are finite: neither raises."""
    frame = Frame([f"h{i}" for i in range(len(values))])
    try:
        vector = SingletonVector(frame, values)
    except ValidationError:
        with pytest.raises(OverflowError):
            math.fsum(values)
        return
    assert vector.total == math.fsum(values) < math.inf
    for bits in range(1, 1 << frame.size):
        assert vector.sum_over(FocalSet(frame, bits)) <= vector.total
