import math

import numpy as np
import pytest

from pignistic import (
    Frame,
    FrameMismatchError,
    PicScore,
    ProbabilityDistribution,
    UnsupportedDivergenceError,
    bet_p,
    kl_divergence,
    pic,
)


def dist(labels, probs):
    return ProbabilityDistribution(Frame(labels), probs)


class TestPic:
    def test_degenerate_is_one(self):
        assert pic(dist("abcd", [1, 0, 0, 0])).value == 1.0

    def test_uniform_is_zero(self):
        assert pic(dist("abcd", [0.25] * 4)).value == pytest.approx(0.0, abs=1e-12)

    def test_quarter_split(self):
        # 1 + (0.75 log 0.75 + 0.25 log 0.25) / log 2
        assert pic(dist("ab", [0.75, 0.25])).value == pytest.approx(
            0.188722, abs=1e-6
        )

    def test_combat_betp(self, combat_bba):
        score = pic(bet_p(combat_bba).distribution)
        assert score.value == pytest.approx(0.092643, abs=1e-3)

    def test_single_hypothesis(self):
        assert pic(dist("a", [1.0])).value == 1.0

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            assert 0.0 <= pic(dist("abcde", p)).value <= 1.0

    def test_permutation_invariant(self):
        p = [0.5, 0.3, 0.15, 0.05]
        assert pic(dist("abcd", p)).value == pytest.approx(
            pic(dist("abcd", p[::-1])).value, abs=1e-15
        )

    def test_score_validation(self):
        with pytest.raises(ValueError):
            PicScore(1.5)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = dist("abc", [0.5, 0.3, 0.2])
        assert kl_divergence(p, p) == 0.0

    def test_degenerate_vs_uniform(self):
        p = dist("ab", [1.0, 0.0])
        u = dist("ab", [0.5, 0.5])
        assert kl_divergence(p, u) == pytest.approx(math.log(2), abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_divergence(dist("abcd", p), dist("abcd", q)) >= 0.0

    def test_positive_when_different(self):
        p = dist("ab", [0.9, 0.1])
        q = dist("ab", [0.5, 0.5])
        assert kl_divergence(p, q) > 0.01

    def test_asymmetric_in_general(self):
        p = dist("ab", [0.9, 0.1])
        q = dist("ab", [0.4, 0.6])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), abs=1e-6)

    def test_unsupported(self):
        p = dist("ab", [0.9, 0.1])
        q = dist("ab", [1.0, 0.0])
        with pytest.raises(UnsupportedDivergenceError):
            kl_divergence(p, q)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            kl_divergence(dist("ab", [0.5, 0.5]), dist("xy", [0.5, 0.5]))

    def test_frame_mismatch_is_the_shared_frame_rule(self):
        with pytest.raises(FrameMismatchError, match="frames differ"):
            kl_divergence(dist("ab", [0.5, 0.5]), dist("abc", [0.5, 0.25, 0.25]))

    def test_zero_p_terms_ignored(self):
        p = dist("abc", [0.7, 0.3, 0.0])
        q = dist("abc", [0.4, 0.3, 0.3])
        expected = 0.7 * math.log(0.7 / 0.4)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)

    def test_float_sum_below_zero_is_clamped(self):
        # q_b is p_b plus a few ulps: the rounded terms sum to -3.6e-17
        p = dist("ab", [0.9671787439810325, 0.032821256018967425])
        q = dist("ab", [0.9671787439810325, 0.03282125601896746])
        assert math.fsum(a * math.log(a / b) for a, b in zip(p._tuple, q._tuple)) < 0.0
        assert kl_divergence(p, q) == 0.0

    def test_ratio_that_overflows_is_a_difference_of_logs(self):
        # 0.5 / 5e-324 overflows to inf, but the divergence is finite
        p = dist("ab", [0.5, 0.5])
        q = dist("ab", [1.0, 5e-324])
        expected = math.fsum(
            pi * (math.log(pi) - math.log(qi)) for pi, qi in [(0.5, 1.0), (0.5, 5e-324)]
        )
        assert kl_divergence(p, q) == expected == 371.5268887801307

    def test_finite_ratios_keep_the_log_of_the_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            expected = max(0.0, math.fsum(a * math.log(a / b) for a, b in zip(p, q)))
            assert kl_divergence(dist("abcd", p), dist("abcd", q)) == expected


class TestPicKlIdentity:
    def test_combat_betp(self, combat_bba):
        p = bet_p(combat_bba).distribution
        n = p.frame.size
        uniform = ProbabilityDistribution(p.frame, np.full(n, 1.0 / n))
        assert pic(p).value == pytest.approx(
            kl_divergence(p, uniform) / math.log(n), abs=1e-12
        )

    def test_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            frame = Frame([f"h{i}" for i in range(n)])
            p = ProbabilityDistribution(frame, rng.dirichlet(np.ones(n)))
            uniform = ProbabilityDistribution(frame, np.full(n, 1.0 / n))
            assert pic(p).value == pytest.approx(
                kl_divergence(p, uniform) / math.log(n), abs=1e-12
            )
