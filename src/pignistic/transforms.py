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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConvergenceError
from .frame import Frame, MassFunction

PROBABILITY_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Per-singleton probabilities over a frame, summing to one."""

    frame: Frame
    probabilities: np.ndarray = field(compare=False)

    def __init__(self, frame: Frame, probabilities: Sequence[float] | np.ndarray):
        arr = np.asarray(probabilities, dtype=float)
        if arr.shape != (frame.size,):
            raise ValueError(f"expected {frame.size} probabilities, got {arr.shape}")
        if not (np.isfinite(arr) & (arr >= 0.0)).all():
            raise ValueError("probabilities must be finite and non-negative")
        if abs(arr.sum() - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {arr.sum()!r}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "probabilities", arr)

    def __getitem__(self, label: str) -> float:
        return float(self.probabilities[self.frame.index(label)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbabilityDistribution):
            return NotImplemented
        return self.frame == other.frame and np.array_equal(
            self.probabilities, other.probabilities
        )


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
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, not {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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


def _split(m: MassFunction, weights: np.ndarray) -> np.ndarray:
    """Singleton masses plus each compound focal set's mass shared among its
    members proportionally to ``weights`` (equally where all weigh zero):
    ``single + w * M^T (m_c / M_c w)``. Adding singleton mass as it is keeps
    Bayesian inputs exact fixed points (no w/w rounding)."""
    M = m.incidence
    compound = m.cardinality > 1.0
    denom = M @ weights
    proportional = compound & (denom > 0.0)
    per_weight = np.divide(
        m.masses, denom, out=np.zeros_like(denom), where=proportional
    )
    out = m.singleton_masses().values + weights * (per_weight @ M)
    equal = compound & ~proportional
    if equal.any():
        out += np.where(equal, m.masses / m.cardinality, 0.0) @ M
    return out


def bet_p(m: MassFunction) -> TransformResult:
    """Smets pignistic transform: equal split of each focal set's mass.

    Each probability is the exactly rounded sum of its shares, so the
    result does not depend on the order of the focal sets.
    """
    shares = m.masses / m.cardinality
    out = [math.fsum(shares[column].tolist()) for column in m.incidence.T]
    return TransformResult(ProbabilityDistribution(m.frame, out), "BetP")


def pra_pl(m: MassFunction) -> TransformResult:
    """Belief plus a Plausibility-proportional share of the deficit.

    epsilon = (1 - SumBel) / SumPl, so the output sums to one by
    construction. Unlike the other transforms, the per-singleton upper
    bound Pl can be exceeded for some inputs.
    """
    bel = m.singleton_beliefs().values
    pl = m.singleton_plausibilities().values
    epsilon = (1.0 - bel.sum()) / pl.sum()
    out = bel + epsilon * pl
    return TransformResult(
        ProbabilityDistribution(m.frame, out), "PraPl", epsilon=epsilon
    )


def pr_pl(m: MassFunction) -> TransformResult:
    """Split each focal set's mass proportionally to singleton Plausibilities."""
    out = _split(m, m.singleton_plausibilities().values)
    return TransformResult(ProbabilityDistribution(m.frame, out), "PrPl")


def pr_bl(m: MassFunction) -> TransformResult:
    """Split each focal set's mass proportionally to singleton masses.

    Focal sets none of whose members carry singleton mass are split
    equally (the same insufficient-reason fallback as BetP).
    """
    out = _split(m, m.singleton_masses().values)
    return TransformResult(ProbabilityDistribution(m.frame, out), "PrBl")


def prscp_residual(m: MassFunction, p: ProbabilityDistribution) -> float:
    """Max-norm defect of the self-consistency equation at ``p``."""
    return float(np.max(np.abs(_split(m, p.probabilities) - p.probabilities)))


def pr_sc_p(m: MassFunction, config: SolverConfig = SolverConfig()) -> TransformResult:
    """Self-consistent pignistic transform.

    Iterates "split mass proportionally to the current probabilities"
    from the PrBl initialization until the max-norm step drops below
    ``config.tolerance``. A small step alone does not prove a fixed
    point, so the residual of the self-consistency equation is verified
    as well (< 10x tolerance).

    Components heading to zero can decay sublinearly (roughly 1/k) or
    geometrically with ratio near one, making plain iteration arbitrarily
    slow. Every few iterations two accelerated candidates are therefore
    tried: an Aitken extrapolation, and a "collapse" that sends every
    still-decaying component to (almost) zero and lets the rest
    re-equilibrate with plain steps. A candidate is kept only when it
    clearly shrinks the fixed-point residual and any collapsed component
    is locally attracted to zero (linearized mass-income growth factor at
    most one). The convergence criteria are unchanged; acceleration only
    shortens the path to them. When the self-consistency equation has
    several fixed points, the accelerated path may settle on a different
    one than unaccelerated iteration would; every returned point satisfies
    the residual bound either way.
    """

    def residual_of(p: np.ndarray) -> float:
        return float(np.max(np.abs(_split(m, p) - p)))

    def collapse_is_stable(candidate: np.ndarray, reference: np.ndarray) -> bool:
        """Zero is a fixed point for any component, so a candidate that
        sends a component (near) zero must be checked: the collapse is
        only legitimate when zero attracts it, i.e. when the linearized
        growth factor of the component's mass income,
        ``sum over compound A containing i of m(A) / (c(A) - c_i)``,
        is at most one."""
        dropped = (candidate < 1e-3 * reference) & (reference > 0.0)
        if not bool(dropped.any()):
            return True
        # singleton mass keeps the component positive
        if (m.singleton_masses().values[dropped] > 0.0).any():
            return False
        member = m.incidence[:, dropped] & (m.cardinality > 1.0)[:, None]
        others = (m.incidence @ candidate)[:, None] - candidate[dropped]
        if (others[member] <= 0.0).any():
            return False
        growth = np.divide(
            m.masses[:, None], others, out=np.zeros_like(others), where=member
        ).sum(axis=0)
        return bool((growth <= 1.0 + 1e-6).all())

    prev: np.ndarray | None = None
    current = pr_bl(m).distribution.probabilities.copy()
    polish_after = 0
    polish_backoff = 8
    for iteration in range(1, config.max_iterations + 1):
        updated = _split(m, current)
        step = float(np.max(np.abs(updated - current)))
        if step < config.tolerance:
            residual = residual_of(updated)
            if residual < 10.0 * config.tolerance:
                return TransformResult(
                    ProbabilityDistribution(m.frame, updated),
                    "PrScP",
                    iterations=iteration,
                )
        if prev is not None and iteration % 4 == 0:
            denom = updated - 2.0 * current + prev
            safe = np.abs(denom) > 1e-300
            accel = np.where(
                safe,
                prev - np.square(current - prev) / np.where(safe, denom, 1.0),
                updated,
            )
            # zero is absorbing for this map, so a component must never be
            # extrapolated to (or past) zero; fall back to the plain
            # iterate where Aitken lands there
            accel = np.where(accel > 0.0, accel, updated)
            accel /= accel.sum()
            ru = residual_of(updated)
            ra = residual_of(accel)
            # accept any clear improvement; sublinearly decaying components
            # are often only halved per extrapolation, so the bar must sit
            # safely above one half
            bar = 0.75 * ru
            if ra >= bar and iteration >= polish_after:
                # second candidate: components still decaying this late are
                # heading to zero (slow geometric or sublinear modes), so
                # send them there outright, then let the rest re-equilibrate
                # with plain steps before judging. Back off exponentially
                # after a failed attempt so wasted polishing cannot dominate
                # the run.
                vanishing = (current - updated) > 0.25 * step
                candidate = np.where(
                    vanishing & (updated > 0.0),
                    np.maximum(updated * 1e-20, 1e-300),
                    updated,
                )
                candidate /= candidate.sum()
                for _ in range(48):
                    for _ in range(8):
                        candidate = _split(m, candidate)
                    polished = residual_of(candidate)
                    if polished < bar:
                        break
                if polished < ra and collapse_is_stable(candidate, updated):
                    accel, ra = candidate, polished
                if ra >= bar:
                    polish_after = iteration + polish_backoff
                    polish_backoff = min(2 * polish_backoff, 512)
            if ra < bar and collapse_is_stable(accel, updated):
                polish_backoff = 8
                updated = accel
        prev, current = current, updated
    residual = residual_of(current)
    raise ConvergenceError(
        f"no fixed point within {config.max_iterations} iterations "
        f"(residual {residual:.3g})",
        last_iterate=current,
        residual=residual,
        iterations=config.max_iterations,
    )


TRANSFORMS = {
    "BetP": bet_p,
    "PraPl": pra_pl,
    "PrPl": pr_pl,
    "PrBl": pr_bl,
    "PrScP": pr_sc_p,
}

_BY_LOWER_NAME = {name.lower(): fn for name, fn in TRANSFORMS.items()}


def apply_transform(
    method: str, m: MassFunction, config: SolverConfig = SolverConfig()
) -> TransformResult:
    """Dispatch by method name (case-insensitive)."""
    try:
        fn = _BY_LOWER_NAME[method.lower()]
    except KeyError:
        raise ValueError(
            f"unknown transform {method!r}; expected one of {sorted(TRANSFORMS)}"
        ) from None
    if fn is pr_sc_p:
        return fn(m, config)
    return fn(m)
