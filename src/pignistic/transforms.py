"""Pignistic probability transforms: BetP, PraPl, PrPl, PrBl, and PrScP.

Each transform maps a validated mass function to a point probability
distribution over the singletons, suitable for betting/decision use.
They differ in how the mass of a compound focal set is split among its
members:

* BetP   - equally (insufficient-reason principle),
* PraPl  - Belief plus a share of the normalization deficit proportional
           to Plausibility,
* PrPl   - proportionally to singleton Plausibilities,
* PrBl   - proportionally to singleton masses,
* PrScP  - proportionally to the resulting probabilities themselves,
           solved as a fixed point by iteration from the PrBl start.
"""

from __future__ import annotations

__all__ = [
    "ProbabilityDistribution",
    "SolverConfig",
    "TransformKind",
    "TransformResult",
    "apply_transform",
    "bet_p",
    "pr_bl",
    "pr_pl",
    "pr_sc_p",
    "pra_pl",
    "prscp_residual",
]

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError
from .frame import Frame, MassFunction, SingletonVector, _check_same_frame, _is_real

PROBABILITY_SUM_TOLERANCE = 1e-9


class TransformKind(enum.Enum):
    """The five transforms; ``TransformKind("prscp")`` ignores case."""

    BET_P = "BetP"
    PRA_PL = "PraPl"
    PR_PL = "PrPl"
    PR_BL = "PrBl"
    PR_SC_P = "PrScP"

    @classmethod
    def _missing_(cls, value):
        for kind in cls:
            if isinstance(value, str) and kind.value.lower() == value.lower():
                return kind
        raise ValidationError(
            f"unknown transform {value!r}; expected one of {[k.value for k in cls]}"
        )


class ProbabilityDistribution(SingletonVector):
    """Per-singleton probabilities over a frame, summing to one."""

    _noun = "probabilities"

    def __init__(self, frame: Frame, probabilities: Sequence[float] | np.ndarray):
        super().__init__(frame, probabilities)

    def _keep(self, frame: Frame, arr: np.ndarray) -> None:
        super()._keep(frame, arr)
        if abs(self.total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise ValidationError(f"probabilities sum to {self.total!r}, not 1")

    @property
    def probabilities(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class SolverConfig:
    """Convergence control for the self-consistent (PrScP) iteration.

    ``tolerance`` is the max-norm step threshold; the defaults reproduce
    the reference combat-ID values to six decimals in a few dozen
    iterations.
    """

    tolerance: float = 1e-12
    max_iterations: int = 1000

    def __post_init__(self):
        if not (_is_real(self.tolerance) and 0.0 < self.tolerance < math.inf):
            raise ValidationError(f"tolerance must be positive and finite, not {self.tolerance}")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValidationError(f"max_iterations {self.max_iterations!r} is not an int >= 1")


@dataclass(frozen=True)
class TransformResult:
    """A transform's output plus per-method diagnostics.

    ``epsilon`` is set only for PraPl (its deficit scale), ``iterations``
    only for PrScP.
    """

    distribution: ProbabilityDistribution
    method: str
    epsilon: float | None = None
    iterations: int | None = None


def _result(kind: TransformKind, m: MassFunction, p, **diagnostics) -> TransformResult:
    return TransformResult(ProbabilityDistribution._owned(m.frame, p), kind.value, **diagnostics)


def _split(m: MassFunction, weights: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Singleton masses plus each compound focal set's mass shared among its
    members proportionally to ``weights`` (equally where all weigh zero):
    ``single + w * M^T (m_c / M w)``, where ``m_c`` is zero on the singleton
    rows and ``M`` is ``m._floats()``, fetched once by the caller, once per
    PrScP solve. Adding singleton mass as it is keeps Bayesian inputs exact
    fixed points (no w/w rounding). The masses sum to one, so no ``m_c / denom``
    overflows where every denominator is normal; a row with a subnormal one
    takes ``m_c * (w / denom)`` instead, whose ratios are at most 1."""
    denom = M @ weights
    single = m._bel
    if denom[denom.argmin()] >= 2.0**-1022:  # argmin finds a NaN, which fails; cheaper than .min()
        return single + weights * ((m.compound_masses / denom) @ M)
    normal = denom >= 2.0**-1022
    per_weight = np.divide(m.compound_masses, denom, out=np.zeros_like(denom), where=normal)
    out = single + weights * (per_weight @ M)
    tiny = ~normal & (denom > 0.0)
    out += m.compound_masses[tiny] @ (M[tiny] * weights / denom[tiny, None])
    return out + np.where(denom > 0.0, 0.0, m.compound_masses / m.cardinality) @ M


def bet_p(m: MassFunction) -> TransformResult:
    """Smets pignistic transform: equal split of each focal set's mass.

    Each probability is the exactly rounded sum of its shares, so the
    result does not depend on the order of the focal sets. The masses sum to
    one, so no label's shares add up to more than 1 + 1e-9. Rounding each
    share to a multiple of 2^-52 (``hi``) leaves sums below 2, exact in any
    summation order; each remainder ``lo`` is a multiple of u = ulp(smallest
    share) of at most 2^-53, so a label's remainders from the k focal sets
    also sum exactly in any order when ``k <= 2^106 u``. Then adding the two
    rows of ``(hi, lo) @ M`` rounds the exact sum once, as ``math.fsum`` does
    (Rump, Ogita & Oishi 2008, SIAM J. Sci. Comput. 31:189). A BBA past that
    certificate takes one ``fsum`` per label.
    """
    shares = m.masses / m.cardinality
    if len(shares) <= 2.0**106 * math.ulp(shares[shares.argmin()]):
        hi = (1.0 + shares) - 1.0
        rows = np.array((hi, shares - hi)) @ m._floats()
        out = rows[0] + rows[1]
    else:
        out = np.array([math.fsum(memoryview(shares.compress(c))) for c in m.incidence.T])
    return _result(TransformKind.BET_P, m, out)


def pra_pl(m: MassFunction) -> TransformResult:
    """Belief plus a Plausibility-proportional share of the deficit.

    epsilon = (1 - SumBel) / SumPl, with the sums the selector compares,
    so the output sums to one by construction. Unlike the other transforms,
    the per-singleton upper bound Pl can be exceeded for some inputs.
    """
    epsilon = (1.0 - m._sum_bel) / m._sum_pl
    out = m._bel + epsilon * m._pl
    return _result(TransformKind.PRA_PL, m, out, epsilon=epsilon)


def pr_pl(m: MassFunction) -> TransformResult:
    """Split each focal set's mass proportionally to singleton Plausibilities."""
    out = _split(m, m._pl, m._floats())
    return _result(TransformKind.PR_PL, m, out)


def pr_bl(m: MassFunction) -> TransformResult:
    """Split each focal set's mass proportionally to singleton masses.

    Focal sets none of whose members carry singleton mass are split
    equally (the same insufficient-reason fallback as BetP). With no singleton
    mass at all that is one product; ``_split``'s other two would add exact zeros.
    """
    if m._sum_bel == 0.0:
        return _result(TransformKind.PR_BL, m, (m.compound_masses / m.cardinality) @ m._floats())
    return _result(TransformKind.PR_BL, m, _split(m, m._bel, m._floats()))


def prscp_residual(m: MassFunction, p: ProbabilityDistribution) -> float:
    """Max-norm defect of the self-consistency equation at ``p``."""
    _check_same_frame(m.frame, p.frame)
    return float(np.max(np.abs(_split(m, p.values, m._floats()) - p.values)))


#: A returned PrScP point's optimality gap is at most this.
GAP_TOLERANCE = 1e-6


def _gap(m: MassFunction, p: np.ndarray, support: np.ndarray, M: np.ndarray) -> float:
    """Optimality gap ``max g_i - 1`` over ``support``, where
    ``g_i = sum_{A ∋ i} m(A) / P(A)`` is L's gradient. As L is concave and
    ``p . g = 1``, it bounds how far L(p) lies below L's maximum on ``support``."""
    focal = M @ p
    if not focal[focal.argmin()] > 0.0:  # p underflowed to 0 on every member of a focal set
        return math.inf
    g = ((m.masses / focal) @ M)[support]
    return float(g[g.argmax()]) - 1.0


def pr_sc_p(m: MassFunction, config: SolverConfig = SolverConfig()) -> TransformResult:
    """Self-consistent pignistic transform.

    Splitting the mass proportionally to the current probabilities is the EM
    map for the concave ``L(p) = sum_A m(A) log P(A)`` (Turnbull 1976). Zero
    is absorbing and the map starts from PrBl, so the result is the maximiser
    of L over the labels PrBl gives positive probability; the others stay 0.

    SQUAREM (Varadhan & Roland 2008) accelerates it. Each cycle takes two EM
    steps and extrapolates along them; a stabilising EM step pulls that point
    back towards the EM path; a point not positive wherever the plain iterate
    ``x2`` is falls back to ``x2``. A cycle returns its start ``x`` when the EM
    step from ``x`` is below ``config.tolerance`` and ``x``'s optimality gap at
    most ``GAP_TOLERANCE``; ``iterations`` counts every EM evaluation after PrBl.
    """
    if not isinstance(config, SolverConfig):
        raise ValidationError(f"solver config must be a SolverConfig, got {config!r}")
    M = m._floats()
    x = _split(m, m._bel, M)  # PrBl
    support = x > 0.0
    iterations = 0
    while iterations < config.max_iterations:
        x1 = _split(m, x, M)
        iterations += 1
        r = x1 - x
        step = np.abs(r)
        if step[step.argmax()] < config.tolerance and _gap(m, x, support, M) <= GAP_TOLERANCE:
            return _result(TransformKind.PR_SC_P, m, x, iterations=iterations)
        if iterations == config.max_iterations:
            x = x1
            break
        x2 = _split(m, x1, M)
        iterations += 1
        v = x2 - 2.0 * x1 + x
        norm_v = math.sqrt(v @ v)
        alpha = max(math.sqrt(r @ r) / norm_v, 1.0) if norm_v else 1.0
        y = x + 2.0 * alpha * r + alpha * alpha * v
        # components that underflowed to zero in x2 stay there
        kept = (y > 0.0) | (x2 == 0.0)
        if iterations < config.max_iterations and kept[kept.argmin()]:
            x = _split(m, np.where(x2 > 0.0, y, 0.0), M)
            iterations += 1
        else:
            x = x2
    residual = float(np.max(np.abs(_split(m, x, M) - x)))
    gap = _gap(m, x, support, M)
    raise ConvergenceError(
        f"no certified fixed point after {iterations} of {config.max_iterations} "
        f"iterations (residual {residual:.3g}, gap {gap:.3g})",
        last_iterate=x,
        residual=residual,
        iterations=iterations,
        gap=gap,
    )


#: Every transform, called as ``fn(m, config)``; only PrScP reads ``config``.
TRANSFORMS: dict[TransformKind, Callable[[MassFunction, SolverConfig], TransformResult]] = {
    TransformKind.BET_P: lambda m, config: bet_p(m),
    TransformKind.PRA_PL: lambda m, config: pra_pl(m),
    TransformKind.PR_PL: lambda m, config: pr_pl(m),
    TransformKind.PR_BL: lambda m, config: pr_bl(m),
    TransformKind.PR_SC_P: pr_sc_p,
}


def apply_transform(
    method: str, m: MassFunction, config: SolverConfig = SolverConfig()
) -> TransformResult:
    """Dispatch by method name (case-insensitive) or ``TransformKind``."""
    if not isinstance(config, SolverConfig):
        raise ValidationError(f"solver config must be a SolverConfig, got {config!r}")
    return TRANSFORMS[TransformKind(method)](m, config)
