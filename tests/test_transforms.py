import math

import numpy as np
import pytest

from pignistic import (
    ConvergenceError,
    Frame,
    FrameMismatchError,
    ProbabilityDistribution,
    SingletonVector,
    SolverConfig,
    TransformKind,
    ValidationError,
    apply_transform,
    bet_p,
    make_mass_function,
    pr_bl,
    pr_pl,
    pr_sc_p,
    pra_pl,
    prscp_residual,
)
from pignistic.transforms import PROBABILITY_SUM_TOLERANCE

# Paper-reported combat-ID outputs, six decimals.
COMBAT_EXPECTED = {
    "BetP": [0.398333, 0.343333, 0.153333, 0.105000],
    "PraPl": [0.402129, 0.352277, 0.139356, 0.106238],
    "PrPl": [0.454418, 0.360880, 0.117638, 0.067064],
    "PrBl": [0.517592, 0.405098, 0.030288, 0.047022],
    "PrScP": [0.542030, 0.386953, 0.032397, 0.038620],
}


@pytest.fixture
def two_frame():
    return Frame(["a", "b"])


@pytest.fixture
def half_compound(two_frame):
    """m(a)=0.5, m(ab)=0.5: small but fully worked-out by hand."""
    return make_mass_function(two_frame, [(["a"], 0.5), (["a", "b"], 0.5)])


@pytest.fixture
def bayesian(two_frame):
    return make_mass_function(two_frame, [(["a"], 0.75), (["b"], 0.25)])


@pytest.fixture
def vacuous4():
    frame = Frame(["F", "N", "U", "H"])
    return make_mass_function(frame, [(["F", "N", "U", "H"], 1.0)])


class TestBetP:
    def test_combat(self, combat_bba):
        out = bet_p(combat_bba).distribution.probabilities
        assert list(out) == pytest.approx(COMBAT_EXPECTED["BetP"], abs=1e-6)

    def test_vacuous_uniform(self, vacuous4):
        out = bet_p(vacuous4).distribution.probabilities
        assert list(out) == [0.25, 0.25, 0.25, 0.25]

    def test_half_compound(self, half_compound):
        out = bet_p(half_compound).distribution.probabilities
        assert list(out) == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_bayesian_identity(self, bayesian):
        assert list(bet_p(bayesian).distribution.probabilities) == [0.75, 0.25]


class TestPraPl:
    def test_combat(self, combat_bba):
        result = pra_pl(combat_bba)
        assert result.epsilon == pytest.approx(0.331683, abs=1e-6)
        assert list(result.distribution.probabilities) == pytest.approx(
            COMBAT_EXPECTED["PraPl"], abs=1e-6
        )

    def test_bayesian_epsilon_zero(self, bayesian):
        result = pra_pl(bayesian)
        assert result.epsilon == 0.0
        assert list(result.distribution.probabilities) == [0.75, 0.25]

    def test_half_compound(self, half_compound):
        result = pra_pl(half_compound)
        # epsilon = (1 - 0.5) / (1.0 + 0.5) = 1/3
        assert result.epsilon == pytest.approx(1 / 3, abs=1e-12)
        assert list(result.distribution.probabilities) == pytest.approx(
            [0.833333, 0.166667], abs=1e-6
        )

    def test_upper_bound_can_fail(self):
        # The Pl upper bound does not hold universally for PraPl.
        frame = Frame(["a", "b", "c"])
        m = make_mass_function(frame, [(["a"], 0.8), (["b", "c"], 0.2)])
        result = pra_pl(m)
        assert result.distribution["a"] > m.plausibility(frame.singleton("a"))
        assert result.distribution["a"] == pytest.approx(0.933333, abs=1e-6)


class TestPrPl:
    def test_combat(self, combat_bba):
        out = pr_pl(combat_bba).distribution.probabilities
        assert list(out) == pytest.approx(COMBAT_EXPECTED["PrPl"], abs=1e-6)

    def test_vacuous_uniform(self, vacuous4):
        out = pr_pl(vacuous4).distribution.probabilities
        assert list(out) == pytest.approx([0.25] * 4, abs=1e-12)

    def test_half_compound(self, half_compound):
        # Pl = (1.0, 0.5); a gets 0.5 + 0.5 * (1 / 1.5)
        out = pr_pl(half_compound).distribution.probabilities
        assert list(out) == pytest.approx([0.833333, 0.166667], abs=1e-6)


class TestPrBl:
    def test_combat(self, combat_bba):
        out = pr_bl(combat_bba).distribution.probabilities
        assert list(out) == pytest.approx(COMBAT_EXPECTED["PrBl"], abs=1e-6)

    def test_vacuous_fallback_equal_split(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a", "b"], 1.0)])
        assert list(pr_bl(m).distribution.probabilities) == [0.5, 0.5]

    def test_half_compound_degenerate(self, half_compound):
        out = pr_bl(half_compound).distribution.probabilities
        assert list(out) == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_partial_fallback(self):
        # {b,c} has no singleton mass: split equally; {a,b} follows masses.
        frame = Frame(["a", "b", "c"])
        m = make_mass_function(
            frame, [(["a"], 0.4), (["a", "b"], 0.4), (["b", "c"], 0.2)]
        )
        out = pr_bl(m).distribution.probabilities
        assert list(out) == pytest.approx([0.8, 0.1, 0.1], abs=1e-12)


class TestPrScP:
    def test_combat(self, combat_bba):
        result = pr_sc_p(combat_bba)
        assert list(result.distribution.probabilities) == pytest.approx(
            COMBAT_EXPECTED["PrScP"], abs=1e-4
        )
        assert result.iterations is not None and result.iterations <= 1000
        assert prscp_residual(combat_bba, result.distribution) < 1e-9

    @pytest.mark.parametrize(
        "labels, values", [(["x", "y"], [0.5, 0.5]), (["a", "b", "c"], [0.5, 0.25, 0.25])]
    )
    def test_residual_rejects_another_frame(self, half_compound, labels, values):
        with pytest.raises(FrameMismatchError):
            prscp_residual(half_compound, ProbabilityDistribution(Frame(labels), values))

    def test_bayesian_one_iteration(self, bayesian):
        result = pr_sc_p(bayesian)
        assert list(result.distribution.probabilities) == [0.75, 0.25]
        assert result.iterations == 1

    def test_half_compound_degenerate_fixed_point(self, half_compound):
        # p = 0.5 + 0.5 p has the fixed point p = 1; PrBl already starts there.
        result = pr_sc_p(half_compound)
        assert list(result.distribution.probabilities) == [1.0, 0.0]

    def test_custom_config(self, combat_bba):
        result = pr_sc_p(combat_bba, SolverConfig(tolerance=1e-6, max_iterations=500))
        assert list(result.distribution.probabilities) == pytest.approx(
            COMBAT_EXPECTED["PrScP"], abs=1e-4
        )

    def test_iteration_budget_exhausted(self, combat_bba):
        with pytest.raises(ConvergenceError) as err:
            pr_sc_p(combat_bba, SolverConfig(tolerance=1e-15, max_iterations=2))
        assert err.value.last_iterate is not None
        assert err.value.residual is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)


class TestResultMetadata:
    def test_epsilon_only_on_prapl(self, combat_bba):
        assert bet_p(combat_bba).epsilon is None
        assert pra_pl(combat_bba).epsilon is not None
        assert pr_pl(combat_bba).epsilon is None

    def test_iterations_only_on_prscp(self, combat_bba):
        assert pr_bl(combat_bba).iterations is None
        assert pr_sc_p(combat_bba).iterations is not None


class TestApplyTransform:
    @pytest.mark.parametrize("name", ["BetP", "PraPl", "PrPl", "PrBl", "PrScP"])
    def test_dispatch(self, combat_bba, name):
        result = apply_transform(name, combat_bba)
        assert result.method == name
        assert list(result.distribution.probabilities) == pytest.approx(
            COMBAT_EXPECTED[name], abs=1e-4
        )

    def test_case_insensitive(self, combat_bba):
        assert apply_transform("betp", combat_bba).method == "BetP"

    def test_unknown_method(self, combat_bba):
        with pytest.raises(ValueError):
            apply_transform("nope", combat_bba)


class TestProbabilityDistribution:
    def test_must_sum_to_one(self, two_frame):
        with pytest.raises(ValueError):
            ProbabilityDistribution(two_frame, [0.6, 0.6])

    def test_non_negative(self, two_frame):
        with pytest.raises(ValueError):
            ProbabilityDistribution(two_frame, [1.2, -0.2])

    def test_wrong_shape_rejected(self, two_frame):
        with pytest.raises(ValueError, match="expected 2 probabilities"):
            ProbabilityDistribution(two_frame, [1.0])

    def test_label_access(self, two_frame):
        p = ProbabilityDistribution(two_frame, [0.75, 0.25])
        assert p["a"] == 0.75

    def test_never_equals_a_singleton_vector(self, two_frame):
        p = ProbabilityDistribution(two_frame, [0.75, 0.25])
        vector = SingletonVector(two_frame, [0.75, 0.25])
        assert p != vector and vector != p
        assert p == ProbabilityDistribution(two_frame, [0.75, 0.25])
        assert p != ProbabilityDistribution(two_frame, [0.25, 0.75])

    def test_input_array_is_copied(self, two_frame):
        values = np.array([0.5, 0.5])
        p = ProbabilityDistribution(two_frame, values)
        values[0] = 1.0
        assert p.probabilities.tolist() == [0.5, 0.5]

    # Eight values whose fsum is 1 + 0.99999986e-9 and eight whose fsum is
    # 1 + 1.00000008e-9; numpy's sum reads the opposite way on each.
    JUST_INSIDE = [
        0.16859792172655302, 0.09924856142623904, 0.06205964464675677, 0.12150688305697921,
        0.13660425089852604, 0.17094556441884348, 0.1663251456711702, 0.07471202915493211,
    ]
    JUST_OUTSIDE = [
        0.08299681785300891, 0.023327359978654164, 0.1856797663449241, 0.1598742150436967,
        0.14941839197545703, 0.059996990025689645, 0.20372723296565762, 0.1349792268129118,
    ]

    def test_sum_tolerance_is_on_fsum(self):
        frame = Frame([f"h{i}" for i in range(8)])
        assert abs(math.fsum(self.JUST_INSIDE) - 1.0) <= PROBABILITY_SUM_TOLERANCE
        assert abs(math.fsum(self.JUST_OUTSIDE) - 1.0) > PROBABILITY_SUM_TOLERANCE
        ProbabilityDistribution(frame, self.JUST_INSIDE)
        with pytest.raises(ValueError):
            ProbabilityDistribution(frame, self.JUST_OUTSIDE)

    def test_immutable(self, two_frame):
        p = ProbabilityDistribution(two_frame, [0.75, 0.25])
        with pytest.raises(ValueError):
            p.probabilities[0] = 0.5
        assert isinstance(np.asarray(p.probabilities), np.ndarray)


class TestRangeCheck:
    """The finiteness and sign check of the public constructors and of the
    private one that adopts a transform's output."""

    @staticmethod
    def constructors(cls):
        return (cls, lambda frame, values: cls._owned(frame, np.array(values, dtype=float)))

    @pytest.mark.parametrize("cls", [SingletonVector, ProbabilityDistribution])
    @pytest.mark.parametrize("n", [3, 64])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_bad_value_rejected_at_every_position(self, cls, n, bad):
        frame = Frame([f"h{i}" for i in range(n)])
        for position in (0, n // 2, n - 1):
            values = np.full(n, 1.0 / n)
            values[position] = bad
            for construct in self.constructors(cls):
                with pytest.raises(ValidationError, match="finite and non-negative"):
                    construct(frame, values)

    @pytest.mark.parametrize("cls", [SingletonVector, ProbabilityDistribution])
    def test_nan_after_a_smaller_value_rejected(self, cls):
        # min() and max() over a list compare NaN as false and keep 0.1
        values = [0.1, math.nan, 0.9]
        assert min(values) == 0.1 and max(values) == 0.9
        for construct in self.constructors(cls):
            with pytest.raises(ValidationError, match="finite and non-negative"):
                construct(Frame(["a", "b", "c"]), values)

    @pytest.mark.parametrize("cls", [SingletonVector, ProbabilityDistribution])
    @pytest.mark.parametrize("n", [3, 64])
    def test_negative_zero_accepted_and_caller_array_copied(self, cls, n):
        frame = Frame([f"h{i}" for i in range(n)])
        values = np.full(n, 1.0 / n)
        values[-1] += values[0]
        values[0] = -0.0
        for construct in self.constructors(cls):
            vector = construct(frame, values)
            assert vector.values[0] == 0.0 and not vector.values.flags.writeable
        public = cls(frame, values)
        values[1] = 7.0
        assert public.values[1] == 1.0 / n

    def test_every_transform_output_is_read_only(self, combat_bba):
        frame = Frame(["a", "b", "c", "d"])
        compound_only = make_mass_function(frame, [(["a", "b"], 0.5), (["b", "c", "d"], 0.5)])
        past_certificate = make_mass_function(  # BetP's per-label fsum fallback
            frame, [(["a"], 2.0**-60), (["b"], 0.5), (frame.labels, 0.5 - 2.0**-60)]
        )
        for m in (combat_bba, compound_only, past_certificate):
            for kind in TransformKind:
                probabilities = apply_transform(kind.value, m).distribution.probabilities
                assert type(probabilities) is np.ndarray and probabilities.dtype == float
                assert not probabilities.flags.writeable
                with pytest.raises(ValueError):
                    probabilities[0] = 0.0
