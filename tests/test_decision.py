import itertools
import re

import pytest

from pignistic import (
    Frame,
    PicScore,
    ProbabilityDistribution,
    SingletonVector,
    SolverConfig,
    ThresholdSet,
    TransformKind,
    ValidationError,
    apply_transform,
    decision_set,
    evaluate,
    make_mass_function,
    pr_bl,
    pr_sc_p,
    report_for,
    select_transform,
)
from pignistic.io import (
    parse_threshold_document,
    render_comparison,
    render_report,
    serialize_threshold_set,
)

STANDARD = ThresholdSet((0.3, 0.5, 0.7), (1.2, 1.5, 1.8), "standard")


class TestThresholdSet:
    def test_valid(self):
        assert STANDARD.profile_name == "standard"

    @pytest.mark.parametrize(
        "bel,pl",
        [
            ((0.5, 0.3, 0.7), (1.2, 1.5, 1.8)),
            ((0.3, 0.5, 0.7), (1.5, 1.2, 1.8)),
            ((0.3, 0.3, 0.7), (1.2, 1.5, 1.8)),
            ((0.3, 0.5), (1.2, 1.5, 1.8)),
        ],
    )
    def test_ordering_enforced(self, bel, pl):
        with pytest.raises(ValidationError):
            ThresholdSet(bel, pl)


class TestDecisionSet:
    def test_combat_prscp(self, combat_bba):
        selected = decision_set(pr_sc_p(combat_bba).distribution, 0.0455)
        assert selected == ["F", "N"]

    def test_combat_prbl(self, combat_bba):
        selected = decision_set(pr_bl(combat_bba).distribution, 0.0455)
        assert selected == ["F", "N", "H"]

    def test_threshold_one_selects_nothing(self):
        p = ProbabilityDistribution(Frame(["a", "b"]), [0.75, 0.25])
        assert decision_set(p, 1.0) == []

    def test_strict_inequality(self):
        p = ProbabilityDistribution(Frame(["a", "b"]), [0.75, 0.25])
        assert decision_set(p, 0.25) == ["a"]

    def test_monotone_in_threshold(self, combat_bba):
        p = pr_sc_p(combat_bba).distribution
        previous = None
        for threshold in [0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0]:
            current = set(decision_set(p, threshold))
            if previous is not None:
                assert current <= previous
            previous = current

    def test_threshold_out_of_range(self):
        p = ProbabilityDistribution(Frame(["a", "b"]), [0.75, 0.25])
        with pytest.raises(ValueError):
            decision_set(p, 1.5)


class TestSelectTransform:
    def test_mature_information(self):
        assert select_transform(0.9, 1.05, STANDARD) == TransformKind.PR_SC_P

    def test_immature_information(self):
        assert select_transform(0.1, 2.5, STANDARD) == TransformKind.BET_P

    def test_middle_rule(self):
        assert select_transform(0.6, 1.4, STANDARD) == TransformKind.PR_BL

    def test_third_rule(self):
        assert select_transform(0.4, 1.7, STANDARD) == TransformKind.PR_PL

    def test_sum_bel_on_bel3_is_not_above_it(self):
        # the strict > at bel3: a tie falls through to the next rule
        assert select_transform(0.7, 1.1, STANDARD) == TransformKind.PR_BL

    def test_prapl_never_selected(self):
        for sum_bel in [x / 20 for x in range(21)]:
            for sum_pl in [1 + x / 10 for x in range(21)]:
                assert select_transform(sum_bel, sum_pl, STANDARD) != TransformKind.PRA_PL

    def test_truth_table(self):
        """Every achievable condition pattern maps to the documented rule."""

        def reference(sum_bel, sum_pl):
            c1 = sum_bel > 0.7 and sum_pl < 1.2
            c2 = sum_bel > 0.5 and sum_pl < 1.5
            c3 = sum_bel > 0.3 and sum_pl < 1.8
            if c1:
                return TransformKind.PR_SC_P
            if c2:
                return TransformKind.PR_BL
            if c3:
                return TransformKind.PR_PL
            return TransformKind.BET_P

        patterns_seen = set()
        grid_bel = [0.1, 0.31, 0.4, 0.51, 0.6, 0.71, 0.9, 1.0]
        grid_pl = [1.0, 1.1, 1.19, 1.3, 1.49, 1.6, 1.79, 2.0, 2.5]
        for sum_bel, sum_pl in itertools.product(grid_bel, grid_pl):
            kind = select_transform(sum_bel, sum_pl, STANDARD)
            assert kind == reference(sum_bel, sum_pl)
            c1 = sum_bel > 0.7 and sum_pl < 1.2
            c2 = sum_bel > 0.5 and sum_pl < 1.5
            c3 = sum_bel > 0.3 and sum_pl < 1.8
            patterns_seen.add((c1, c2, c3))
        # with ordered thresholds, rule 1 implies rule 2 implies rule 3
        assert patterns_seen == {
            (True, True, True),
            (False, True, True),
            (False, False, True),
            (False, False, False),
        }


class TestEvaluate:
    def test_combat_forced_prscp(self, combat_bba):
        # thresholds chosen so SumBel=0.33 > 0.1 and SumPl=2.02 < 2.5
        t = ThresholdSet((0.01, 0.05, 0.1), (2.5, 2.6, 2.7), "permissive")
        report = evaluate(combat_bba, t, 0.0455)
        assert report.method == TransformKind.PR_SC_P
        assert report.selected == ("F", "N")
        assert report.iterations is not None

    def test_bayesian_selects_prscp(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a"], 0.75), (["b"], 0.25)])
        report = evaluate(m, STANDARD, 0.5)
        assert report.method == TransformKind.PR_SC_P
        assert list(report.distribution.probabilities) == [0.75, 0.25]
        assert report.selected == ("a",)

    def test_vacuous_selects_betp(self):
        frame = Frame(["F", "N", "U", "H"])
        m = make_mass_function(frame, [(["F", "N", "U", "H"], 1.0)])
        report = evaluate(m, STANDARD, 0.1)
        assert report.method == TransformKind.BET_P
        assert list(report.distribution.probabilities) == [0.25] * 4
        assert report.pic.value == pytest.approx(0.0, abs=1e-12)

    def test_sum_bel_on_bel1_selects_betp(self):
        # m{a} = 0.3 has SumBel exactly 0.3: the strict > at bel1 leaves BetP
        m = make_mass_function(Frame(["a", "b"]), [(["a"], 0.3), (["a", "b"], 0.7)])
        assert (m.sum_bel(), m.sum_pl()) == (0.3, 1.7)
        assert evaluate(m, STANDARD, 0.1).method == TransformKind.BET_P

    def test_report_self_consistent(self, combat_bba):
        report = evaluate(combat_bba, STANDARD, 0.0455, SolverConfig())
        recomputed = decision_set(report.distribution, report.decision_threshold)
        assert tuple(recomputed) == report.selected


class TestReportFor:
    @pytest.mark.parametrize("name", ["BetP", "betp", "BETP"])
    def test_takes_a_transform_name_in_any_case(self, combat_bba, name):
        by_name = report_for(combat_bba, name, 0.0455)
        assert by_name == report_for(combat_bba, TransformKind.BET_P, 0.0455)
        assert by_name.method is TransformKind.BET_P

    @pytest.mark.parametrize("kind", ["nope", ["x"], None, 3], ids=["name", "list", "None", "int"])
    def test_unknown_kind_raises_validation_error(self, combat_bba, kind):
        with pytest.raises(ValidationError, match=re.escape(f"unknown transform {kind!r}")):
            report_for(combat_bba, kind, 0.0455)

    def test_threshold_is_checked_before_the_kind(self, combat_bba):
        with pytest.raises(ValidationError, match="threshold must lie in"):
            report_for(combat_bba, ["x"], 2.0)

    def test_the_kind_is_checked_before_the_solver(self, combat_bba):
        with pytest.raises(ValidationError, match="threshold must lie in"):
            report_for(combat_bba, "nope", 2.0, None)
        with pytest.raises(ValidationError, match="unknown transform 'nope'"):
            report_for(combat_bba, "nope", 0.1, None)
        with pytest.raises(ValidationError, match="^solver config must be a SolverConfig, got None$"):
            report_for(combat_bba, "BetP", 0.1, None)


class TestThresholdSetFinite:
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(ValidationError):
            ThresholdSet((0.1, 0.2, bad), (1.2, 1.5, 1.8))
        with pytest.raises(ValidationError):
            ThresholdSet((0.1, 0.2, 0.3), (1.2, 1.5, bad))

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_integer_too_large_for_a_float_rejected(self, big):
        with pytest.raises(ValidationError, match="finite"):
            ThresholdSet(tuple(sorted((0.1, 0.2, big))), (1.2, 1.5, 1.8))


class TestThresholdSetTriples:
    """Each triple is converted once with ``tuple()`` and kept as that tuple."""

    def test_lists_are_kept_as_tuples(self):
        t = ThresholdSet([0.3, 0.5, 0.7], [1.2, 1.5, 1.8], "standard")
        assert t.bel_thresholds == (0.3, 0.5, 0.7)
        assert t.pl_thresholds == (1.2, 1.5, 1.8)
        assert t == STANDARD
        assert hash(t) == hash(STANDARD)

    def test_a_generator_is_read_once(self):
        t = ThresholdSet((x for x in (0.3, 0.5, 0.7)), iter([1.2, 1.5, 1.8]), "standard")
        assert t == STANDARD

    @pytest.mark.parametrize(
        "given", [None, 5, {0.3: 0, 0.5: 0, 0.7: 0}, b"\x01\x02\x03", "123"], ids=repr
    )
    def test_a_triple_that_is_not_a_collection_of_numbers_is_named(self, given):
        with pytest.raises(ValidationError) as err:
            ThresholdSet((0.3, 0.5, 0.7), given)
        assert type(err.value) is ValidationError
        assert str(err.value) == f"pl thresholds must be a collection of numbers, got {given!r}"

    def test_messages_show_the_kept_tuple(self):
        with pytest.raises(ValidationError) as err:
            ThresholdSet([0.5, 0.3, 0.7], [1.2, 1.5, 1.8])
        assert str(err.value) == "bel thresholds must be strictly ascending, got (0.5, 0.3, 0.7)"

    def test_profile_name_must_be_a_string(self):
        with pytest.raises(ValidationError) as err:
            ThresholdSet((0.3, 0.5, 0.7), (1.2, 1.5, 1.8), 5)
        assert str(err.value) == "profile_name must be a string, got 5"

    def test_round_trip_through_a_document(self):
        t = ThresholdSet([0.1, 0.2, 0.3], [2.1, 2.3, 2.5], "wartime")
        assert parse_threshold_document(serialize_threshold_set(t)) == t


# Each library check that rejects a value, with a value it rejects.
LIBRARY_CHECKS = {
    "SingletonVector shape": lambda r: SingletonVector(Frame(["a", "b"]), [1.0]),
    "SingletonVector negative": lambda r: SingletonVector(Frame(["a"]), [-1.0]),
    "ProbabilityDistribution sum": lambda r: ProbabilityDistribution(Frame(["a"]), [0.5]),
    "SolverConfig tolerance": lambda r: SolverConfig(tolerance=0.0),
    "SolverConfig max_iterations": lambda r: SolverConfig(max_iterations=0),
    "PicScore": lambda r: PicScore(1.5),
    "decision threshold": lambda r: decision_set(r.distribution, 2.0),
    "TransformKind": lambda r: TransformKind("nope"),
    "render_report format": lambda r: render_report(r, "yaml"),
    "render_comparison format": lambda r: render_comparison([r], "yaml"),
    # non-numbers, and numbers of the wrong kind
    "SingletonVector string": lambda r: SingletonVector(Frame(["a"]), ["x"]),
    "SingletonVector dict": lambda r: SingletonVector(Frame(["a"]), [{}]),
    "SingletonVector numeric string": lambda r: SingletonVector(Frame(["a"]), ["1"]),
    "SingletonVector bool": lambda r: SingletonVector(Frame(["a"]), [True]),
    "SingletonVector bytes": lambda r: SingletonVector(Frame(["a"]), [b"1"]),
    "ProbabilityDistribution ragged": lambda r: ProbabilityDistribution(
        Frame(["a", "b"]), [[0.5, 0.5], 0.0]
    ),
    # a buffer iterates as its byte values
    "ProbabilityDistribution bytearray": lambda r: ProbabilityDistribution(
        Frame(["a", "b"]), bytearray(b"\x00\x01")
    ),
    "ProbabilityDistribution memoryview": lambda r: ProbabilityDistribution(
        Frame(["a", "b"]), memoryview(b"\x00\x01")
    ),
    "ThresholdSet bytearray": lambda r: ThresholdSet(bytearray(b"\x01\x02\x03"), (4, 5, 6)),
    "ThresholdSet memoryview": lambda r: ThresholdSet(memoryview(b"\x01\x02\x03"), (4, 5, 6)),
    "ThresholdSet strings": lambda r: ThresholdSet(("a", "b", "c"), (1, 2, 3)),
    "ThresholdSet None": lambda r: ThresholdSet((0.1, 0.2, 0.3), (1.2, None, 1.8)),
    "ThresholdSet bool": lambda r: ThresholdSet((False, True, 2), (1.2, 1.5, 1.8)),
    "SolverConfig tolerance string": lambda r: SolverConfig(tolerance="x"),
    "SolverConfig tolerance None": lambda r: SolverConfig(tolerance=None),
    "SolverConfig max_iterations float": lambda r: SolverConfig(max_iterations=1.5),
    "SolverConfig max_iterations bool": lambda r: SolverConfig(max_iterations=True),
    "SolverConfig max_iterations string": lambda r: SolverConfig(max_iterations="5"),
    "PicScore string": lambda r: PicScore("x"),
    "PicScore None": lambda r: PicScore(None),
    "decision threshold string": lambda r: decision_set(r.distribution, "x"),
    "report_for threshold None": lambda r: report_for(
        make_mass_function(Frame(["a"]), [(["a"], 1.0)]), TransformKind.BET_P, None
    ),
    # a solver or a threshold profile of the wrong type, whatever the kind
    "report_for solver None BetP": lambda r: report_for(
        make_mass_function(Frame(["a"]), [(["a"], 1.0)]), "BetP", 0.1, None
    ),
    "report_for solver None PrScP": lambda r: report_for(
        make_mass_function(Frame(["a"]), [(["a"], 1.0)]), "PrScP", 0.1, None
    ),
    "apply_transform config string": lambda r: apply_transform(
        "prscp", make_mass_function(Frame(["a"]), [(["a"], 1.0)]), "x"
    ),
    "pr_sc_p config string": lambda r: pr_sc_p(
        make_mass_function(Frame(["a"]), [(["a"], 1.0)]), "x"
    ),
    "evaluate thresholds None": lambda r: evaluate(
        make_mass_function(Frame(["a"]), [(["a"], 1.0)]), None, 0.1
    ),
    "select_transform thresholds tuple": lambda r: select_transform(0.5, 1.5, (1, 2, 3)),
}


@pytest.mark.parametrize("check", LIBRARY_CHECKS.values(), ids=LIBRARY_CHECKS.keys())
def test_library_checks_raise_validation_error(combat_bba, check):
    report = report_for(combat_bba, TransformKind.BET_P, 0.0)
    with pytest.raises(ValidationError):
        check(report)
