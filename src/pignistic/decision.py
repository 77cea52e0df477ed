"""Risk-threshold decision sets and the information-maturity transform selector.

The selector compares the Belief and Plausibility sums of a mass function
against an ordered threshold profile: the more mature the information set
(high SumBel, low SumPl), the more aggressive the transform. Rules are
evaluated top-down with short-circuit; PraPl is never selected
automatically and remains available only by explicit request.
"""

from __future__ import annotations

__all__ = [
    "DecisionReport",
    "ThresholdSet",
    "decision_set",
    "evaluate",
    "report_for",
    "select_transform",
]

from dataclasses import dataclass
from sys import float_info

from .errors import ValidationError
from .frame import _NOT_COLLECTIONS, MassFunction, _is_real, _shown
from .metrics import PicScore, pic
from .transforms import ProbabilityDistribution, SolverConfig, TransformKind, apply_transform


@dataclass(frozen=True)
class ThresholdSet:
    """Ascending Belief and Plausibility trigger levels for the selector, kept as tuples."""

    bel_thresholds: tuple[float, float, float]
    pl_thresholds: tuple[float, float, float]
    profile_name: str = ""

    def __post_init__(self):
        for name in ("bel", "pl"):
            given = getattr(self, f"{name}_thresholds")
            try:
                if isinstance(given, _NOT_COLLECTIONS):
                    raise TypeError
                triple = tuple(given)
            except TypeError:
                raise ValidationError(
                    f"{name} thresholds must be a collection of numbers, got {_shown(given)}"
                ) from None
            object.__setattr__(self, f"{name}_thresholds", triple)
            if len(triple) != 3:
                raise ValidationError(f"{name} thresholds need exactly 3 values")
            if not all(_is_real(x) and -float_info.max <= x <= float_info.max for x in triple):
                raise ValidationError(f"{name} thresholds must be finite numbers, got {triple}")
            if not triple[0] < triple[1] < triple[2]:
                raise ValidationError(
                    f"{name} thresholds must be strictly ascending, got {triple}"
                )
        if not isinstance(self.profile_name, str):
            raise ValidationError(f"profile_name must be a string, got {self.profile_name!r}")


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of the full select-transform-score-decide pipeline."""

    method: TransformKind
    distribution: ProbabilityDistribution
    pic: PicScore
    decision_threshold: float
    selected: tuple[str, ...]
    epsilon: float | None = None
    iterations: int | None = None


def _check_threshold(threshold: float) -> None:
    if not (_is_real(threshold) and 0.0 <= threshold <= 1.0):
        raise ValidationError(f"threshold must lie in [0, 1], got {threshold}")


def decision_set(p: ProbabilityDistribution, threshold: float) -> list[str]:
    """Labels whose probability strictly exceeds the threshold, in frame order."""
    _check_threshold(threshold)
    return [label for label, prob in zip(p.frame.labels, p._tuple) if prob > threshold]


def select_transform(sum_bel: float, sum_pl: float, t: ThresholdSet) -> TransformKind:
    """Pick the transform matching the information maturity of the inputs.

    First matching rule wins; the fall-through default is BetP.
    """
    if not isinstance(t, ThresholdSet):
        raise ValidationError(f"expected a ThresholdSet, got {t!r}")
    bel1, bel2, bel3 = t.bel_thresholds
    pl1, pl2, pl3 = t.pl_thresholds
    if sum_bel > bel3 and sum_pl < pl1:
        return TransformKind.PR_SC_P
    if sum_bel > bel2 and sum_pl < pl2:
        return TransformKind.PR_BL
    if sum_bel > bel1 and sum_pl < pl3:
        return TransformKind.PR_PL
    return TransformKind.BET_P


def evaluate(
    m: MassFunction,
    t: ThresholdSet,
    decision_threshold: float,
    solver: SolverConfig = SolverConfig(),
) -> DecisionReport:
    """Run the full pipeline: select, transform, score, decide."""
    kind = select_transform(m.sum_bel(), m.sum_pl(), t)
    return report_for(m, kind, decision_threshold, solver)


def report_for(
    m: MassFunction,
    kind: TransformKind | str,
    decision_threshold: float,
    solver: SolverConfig = SolverConfig(),
) -> DecisionReport:
    """Build a DecisionReport for a ``TransformKind`` or its name in any
    case; the threshold is checked before the kind, the solver and the transform."""
    _check_threshold(decision_threshold)
    kind = TransformKind(kind)
    result = apply_transform(kind, m, solver)
    return DecisionReport(
        method=kind,
        distribution=result.distribution,
        pic=pic(result.distribution),
        decision_threshold=decision_threshold,
        selected=tuple(decision_set(result.distribution, decision_threshold)),
        epsilon=result.epsilon,
        iterations=result.iterations,
    )
