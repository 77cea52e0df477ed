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


def indexed_bba(n, assignments):
    """The BBA over labels h0..h{n-1} that puts each mass on its label indices."""
    frame = Frame([f"h{i}" for i in range(n)])
    return MassFunction.from_labels(
        frame, [([f"h{i}" for i in members], mass) for members, mass in assignments]
    )


#: ``benchmarks/corpus.py``'s decide document 11 of seed 11.
DECIDE_11_11 = [
    ([0], 0.0007705234729987908), ([1], 0.002331135991282611),
    ([2], 0.0006788921593863498), ([3], 0.00016608858144947993),
    ([4], 0.0013773902863307083), ([5], 0.0009823434198443556),
    ([6], 0.0014975630327288551), ([4, 5, 6], 0.0683080207017653),
    ([3, 4, 5, 6], 0.003436251235194501), ([0, 4], 0.9204517911190191),
]
#: Three of ``benchmarks/corpus.py``'s seed-1 prscp-solve BBAs: n4-k8-0, n4-k8-2 and n7-k14-2.
N4_K8_0 = [
    ([1], 0.09917423634547327), ([0, 3], 0.06062778236958644),
    ([1, 2], 0.259331377615245), ([3], 0.21540163829292658),
    ([0, 1, 2, 3], 0.06072303089610989), ([0], 0.07495558931987217),
    ([0, 2, 3], 0.19746276974349886), ([0, 1, 3], 0.032323575417287684),
]
N4_K8_2 = [
    ([0, 1, 3], 0.1894335706526229), ([0], 0.029200037508753177),
    ([0, 1, 2, 3], 0.1680191543738075), ([1, 2, 3], 0.2198902933085234),
    ([1], 0.15731876352194263), ([3], 0.01591880738153877),
    ([0, 2, 3], 0.07851616831982111), ([0, 3], 0.14170320493299055),
]
N7_K14_2 = [
    ([0, 4, 6], 0.09916812451590655), ([2, 4, 5], 0.06470341138427067),
    ([0, 4], 0.11924011647316471), ([0, 3, 4, 6], 0.01552883480771558),
    ([0, 1, 5, 6], 0.00672162200397235), ([1, 2, 4], 0.11917588518408676),
    ([6], 0.019961087298827236), ([0, 1, 4, 5, 6], 0.04527576881141976),
    ([0, 1, 2, 5, 6], 0.04550645011259394), ([0, 1, 2, 4, 5, 6], 0.12564233095085853),
    ([0, 2, 6], 0.0890481570402661), ([0, 1, 4], 0.0980689449723011),
    ([1, 2], 0.0736352533666548), ([0, 2, 3, 6], 0.0783240130779618),
]
#: The wide-magnitude BBAs 173 and 197 of ``tests/test_array_core.py``.
WIDE_173 = [
    ([2, 3], 8.892623536385667e-60), ([1, 2, 3, 4], 8.5624896339212e-259),
    ([0], 3.123670156800402e-76), ([2], 1.521218209917374e-166),
    ([0, 1, 3, 4], 2.291872661918689e-60), ([0, 3, 4], 5.17840427391043e-36),
    ([1, 3, 4], 2.7621991584925886e-200), ([0, 2, 4], 1.1792946171035512e-257),
    ([1, 3], 0.9999857391306791), ([1], 1.9242526595337474e-157),
    ([0, 1, 4], 1.42608693208142e-05), ([2, 4], 3.7818715563324204e-77),
    ([1, 2, 4], 4.7289067122933613e-63), ([3], 1.225615700277184e-35),
    ([2, 3, 4], 3.3257912673260727e-96), ([3, 4], 8.42705527321207e-149),
    ([0, 2, 3], 2.4083976419343054e-268), ([1, 2], 3.699149598512856e-75),
    ([0, 4], 3.950619896484015e-156), ([1, 2, 3], 4.527567851523251e-131),
]
WIDE_197 = [
    ([0, 1, 2, 4], 3.293601891582684e-211), ([0, 2, 5], 5.191051106994487e-180),
    ([1, 2, 3, 4, 5], 6.571389796025916e-112), ([1, 5], 2.9720524232578704e-68),
    ([1, 2, 5], 4.363497092393902e-210), ([0, 3], 0.032564902113911366),
    ([0, 2, 3, 5], 0.07156325838594589), ([0, 1], 2.256343124313855e-168),
    ([2, 5], 0.8958718395001428), ([1, 4, 5], 1.928230629227241e-197),
]


# Each bound lies between the EM evaluations SQUAREM takes on the BBA and what
# it takes with one of two safeguards removed. With the step length alpha allowed
# below 1, decide-11-11 and wide-173 take 24 and 379 (21 and 240 here). With the
# positivity check also covering labels the EM pair sent to zero, the three
# prscp-solve BBAs take 11, 99 and 187 (4, 25 and 44 here), and wide-173 has no
# answer within 1,000. Both BLAS kernels in CI fall on the same side of each bound.
@pytest.mark.parametrize(
    "n, assignments, bound",
    [(7, DECIDE_11_11, 23), (5, WIDE_173, 300),
     (4, N4_K8_0, 8), (4, N4_K8_2, 50), (7, N7_K14_2, 90)],
    ids=["decide-11-11", "wide-173", "n4-k8-0", "n4-k8-2", "n7-k14-2"],
)
def test_acceleration_certifies_within_a_bound_on_em_evaluations(n, assignments, bound):
    m = indexed_bba(n, assignments)
    result = pr_sc_p(m)
    assert result.iterations <= bound
    assert gap_of(m, result.distribution) <= GAP_BOUND


def test_label_the_em_path_underflows_stays_at_zero():
    # PrBl gives h4 1.3e-112; the EM pair underflows it to 0, and zero is
    # absorbing, so the extrapolated point must not bring it back
    m = indexed_bba(6, WIDE_197)
    assert pr_bl(m).distribution["h4"] > 0.0
    result = pr_sc_p(m)
    assert result.distribution["h4"] == 0.0
    assert gap_of(m, result.distribution) <= GAP_BOUND


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
