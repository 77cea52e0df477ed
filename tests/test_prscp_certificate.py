"""PrScP as the maximiser of L(p) = sum_A m(A) log P(A) on PrBl's support.

Every answer must carry the optimality certificate: g_i - 1 <= 1e-6 on
PrBl's support, where g_i = sum over focal sets A containing i of
m(A) / P(A). The gaps here are computed from frozenset focal sets by the
oracles, independently of the package's incidence matrix.
"""

import math
import random

import numpy as np
import pytest

from pignistic import (
    ConvergenceError,
    FocalSet,
    Frame,
    MassFunction,
    ProbabilityDistribution,
    SolverConfig,
    pr_bl,
    pr_sc_p,
    prscp_residual,
)
from pignistic import transforms
from pignistic.cli import EXIT_NO_CONVERGENCE, main

from .oracles import kkt_gap_oracle
from .test_acceptance import ROBUST, grid_mass_functions_n2, grid_mass_functions_n3

GAP_BOUND = 1e-6

#: A seeded 12-label, 24-focal-set BBA with no singleton mass, given by
#: label indices. A solver that drives a label to about 1e-20 while its
#: g_i is above 1 returns a point with gap 1.05e-2 here.
N12_K24 = [
    ([0, 1, 2, 7, 10, 11], 0.06539556545142065),
    ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.0021930018648755193),
    ([1, 2, 3, 9, 11], 0.017241846153653487),
    ([2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.08580575949458046),
    ([0, 3, 5, 8, 10, 11], 0.04578080882840704),
    ([2, 7, 11], 0.05286349051029222),
    ([0, 1, 2, 6, 7, 8, 11], 0.04426568181113051),
    ([0, 1, 5, 7, 9], 0.001687757530246516),
    ([1, 4, 6, 8, 10, 11], 0.00012080121658810109),
    ([0, 2, 4, 5, 7, 9, 11], 0.0058013168693384675),
    ([2, 5, 7], 0.01456414482924019),
    ([2, 3, 6, 7, 8, 9, 10, 11], 0.06096306147510102),
    ([1, 2, 3, 6, 8], 0.08514676755574005),
    ([0, 1, 7], 0.06916975206166867),
    ([1, 2, 3, 4, 5, 8, 9, 10], 0.08879916660278833),
    ([2, 3, 4, 6, 10, 11], 0.07384536395337173),
    ([1, 2, 3, 4, 8, 9, 10], 0.015232619408311299),
    ([0, 1, 2, 5, 6, 7, 8, 9], 0.029931546569766057),
    ([0, 3, 7], 0.0600212422698968),
    ([0, 2, 3, 4, 6, 11], 0.042127928590036424),
    ([0, 2, 3, 4, 6, 8, 10], 0.07091082110301164),
    ([0, 1, 7, 8, 9, 11], 0.01894030440155076),
    ([1, 6, 7, 9, 10], 0.048740427069346184),
    ([0, 3, 4, 6, 9, 10], 0.0004508243796376369),
]


def frozen_masses(m):
    return {frozenset(s.labels): mass for s, mass in m.focal_sets()}


def gap_of(m, distribution):
    labels = m.frame.labels
    return kkt_gap_oracle(
        frozen_masses(m), labels, {l: distribution[l] for l in labels}
    )


def seeded_bba(seed, n, k):
    """k distinct nonempty subsets of n labels with U(0,1) weights summing to 1."""
    rng = random.Random(seed)
    frame = Frame([f"h{i}" for i in range(n)])
    chosen = []
    while len(chosen) < k:
        bits = rng.getrandbits(n)
        if bits and bits not in chosen:
            chosen.append(bits)
    weights = [rng.random() for _ in chosen]
    total = sum(weights)
    return MassFunction(
        frame, {FocalSet(frame, b): w / total for b, w in zip(chosen, weights)}
    )


def test_labels_prbl_sends_to_zero_stay_zero():
    # PrBl = (0.5, 0, 0.5). The maximiser of L over all three labels is
    # (0.2, 0.6, 0.2) and g_b = 1.6 at the answer, but b is off PrBl's
    # support, so the fixed point reached from PrBl is returned.
    frame = Frame(["a", "b", "c"])
    m = MassFunction.from_labels(
        frame, [(["a"], 0.1), (["c"], 0.1), (["a", "b"], 0.4), (["b", "c"], 0.4)]
    )
    result = pr_sc_p(m)
    assert result.distribution.probabilities.tolist() == pytest.approx(
        [0.5, 0.0, 0.5], abs=1e-12
    )
    assert gap_of(m, result.distribution) <= GAP_BOUND


# Rank-deficient incidences: a and b lie in the same focal sets, so their
# incidence columns are equal and L has a ridge of maximisers.

def test_point_prbl_already_certifies_is_returned_unmoved():
    m = MassFunction.from_labels(Frame(["a", "b", "c"]), [(["a", "b"], 0.6), (["c"], 0.4)])
    result = pr_sc_p(m)
    answer = result.distribution.probabilities.tolist()
    assert answer == pr_bl(m).distribution.probabilities.tolist() == [0.3, 0.3, 0.4]
    assert result.iterations == 1


def test_labels_no_focal_set_separates_keep_an_equal_split():
    m = MassFunction.from_labels(
        Frame(["a", "b", "c"]), [(["a", "b"], 0.3), (["a", "b", "c"], 0.3), (["c"], 0.4)]
    )
    result = pr_sc_p(m)
    assert result.distribution["a"] == result.distribution["b"] == 0.21428571428571425
    assert gap_of(m, result.distribution) <= GAP_BOUND


def test_label_driven_towards_zero_is_recovered():
    frame = Frame([f"h{i}" for i in range(12)])
    m = MassFunction.from_labels(
        frame, [([f"h{i}" for i in members], mass) for members, mass in N12_K24]
    )
    assert gap_of(m, pr_sc_p(m).distribution) <= GAP_BOUND


def test_n64_k2000_converges_within_default_budget():
    m = seeded_bba(0, 64, 2000)
    result = pr_sc_p(m)
    assert result.iterations <= SolverConfig().max_iterations
    assert gap_of(m, result.distribution) <= GAP_BOUND


def test_criterion_7_grid_is_certified():
    rng = np.random.default_rng(42)
    cases = list(grid_mass_functions_n2()) + list(grid_mass_functions_n3(rng, 2000))
    worst = max(gap_of(m, pr_sc_p(m, ROBUST).distribution) for m in cases)
    assert worst <= GAP_BOUND


# A budget of 1 runs out right after the first EM pair; one of 5 runs out
# at the second cycle's extrapolation, with no room for its stabilising step.
@pytest.mark.parametrize("budget", [1, 5])
def test_convergence_error_reports_gap_and_budget(combat_bba, budget):
    with pytest.raises(ConvergenceError) as err:
        pr_sc_p(combat_bba, SolverConfig(tolerance=1e-15, max_iterations=budget))
    assert err.value.iterations == budget
    assert 0.0 <= err.value.gap < float("inf")
    message = str(err.value)
    assert f"gap {err.value.gap:.3g}" in message
    assert f"{budget} of {budget} iterations" in message


# Budgets 1 to 12 run out at every position in the cycle: after an EM pair,
# at an extrapolation with no room for its stabilising step, after that step.
@pytest.mark.parametrize("budget", range(1, 13))
def test_budget_is_exact_at_every_position_in_the_cycle(combat_bba, budget):
    with pytest.raises(ConvergenceError) as err:
        pr_sc_p(combat_bba, SolverConfig(tolerance=1e-15, max_iterations=budget))
    x = err.value.last_iterate
    assert err.value.iterations == budget
    assert x.min() >= 0.0
    assert math.fsum(x) == pytest.approx(1.0, abs=1e-12)
    residual = prscp_residual(combat_bba, ProbabilityDistribution(combat_bba.frame, x))
    assert err.value.residual == residual


def test_default_budget_answers_are_certified():
    # callers solve under the default budget; a ConvergenceError is allowed,
    # an answer without the certificate is not
    answers = 0
    for n in range(4, 13):
        for seed in range(5):
            m = seeded_bba(seed, n, 2 * n)
            try:
                result = pr_sc_p(m)
            except ConvergenceError:
                continue
            answers += 1
            assert gap_of(m, result.distribution) <= GAP_BOUND
            assert prscp_residual(m, result.distribution) < 1e-11
    assert answers > 0


def test_cli_convergence_error_names_gap(capsys, data_dir):
    code = main(
        ["transform", "--method", "prscp", "--input", str(data_dir / "combat_id.json"),
         "--tolerance", "1e-15", "--max-iter", "3"]
    )
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "gap" in err and "3 of 3 iterations" in err


def test_gap_is_infinite_where_a_focal_set_has_zero_probability():
    # p = (1, 0) puts nothing on {b}, so L(p) = -inf and no gap is finite
    m = MassFunction.from_labels(Frame(["a", "b"]), [(["a"], 0.5), (["b"], 0.5)])
    support = np.array([True, True])
    assert transforms._gap(m, np.array([1.0, 0.0]), support, m._floats()) == math.inf


@pytest.fixture
def em_calls(monkeypatch):
    """The number of ``transforms._split`` calls so far: PrBl, EM maps and residuals."""
    calls = [0]
    split = transforms._split

    def counted(m, weights, M):
        calls[0] += 1
        return split(m, weights, M)

    monkeypatch.setattr(transforms, "_split", counted)
    return calls


def solve_counted(m, config, em_calls):
    """Solve, requiring that ``iterations`` is exactly the EM evaluations after
    PrBl and that an answer carries both facts of the return test itself."""
    em_calls[0] = 0
    try:
        result = pr_sc_p(m, config)
    except ConvergenceError as err:
        assert err.iterations == em_calls[0] - 2  # the PrBl start and the error's residual
        return None
    assert result.iterations == em_calls[0] - 1  # the PrBl start
    assert prscp_residual(m, result.distribution) < config.tolerance
    assert gap_of(m, result.distribution) <= GAP_BOUND
    return result


def test_combat_answer_is_the_point_whose_step_was_checked(combat_bba, em_calls):
    assert solve_counted(combat_bba, SolverConfig(), em_calls) is not None


@pytest.mark.parametrize("tolerance", [1e-6, 1e-9, 1e-12])
def test_seeded_answers_count_every_em_evaluation(em_calls, tolerance):
    config = SolverConfig(tolerance=tolerance)
    answers = [
        solve_counted(seeded_bba(seed, n, 2 * n), config, em_calls)
        for n in range(4, 13)
        for seed in range(5)
    ]
    assert any(answer is not None for answer in answers)


@pytest.mark.parametrize("budget", range(1, 13))
def test_budget_errors_count_every_em_evaluation(combat_bba, em_calls, budget):
    solve_counted(combat_bba, SolverConfig(max_iterations=budget), em_calls)
