"""Belief-function pignistic probability transforms and decision support.

Builds point probability distributions from basic belief assignments via
five transforms (BetP, PraPl, PrPl, PrBl, PrScP), scores them with the
probability information content metric, and supports risk-threshold
decision sets with an information-maturity transform selector.
"""

from .decision import (
    DecisionReport,
    ThresholdSet,
    decision_set,
    evaluate,
    report_for,
    select_transform,
)
from .errors import (
    ConvergenceError,
    DuplicateFocalSetError,
    DuplicateLabelError,
    EmptyFrameError,
    EmptySetMassError,
    FrameMismatchError,
    FrameTooLargeError,
    MassOutOfRangeError,
    MassSumMismatchError,
    ParseError,
    PignisticError,
    UnknownLabelError,
    UnsupportedDivergenceError,
    ValidationError,
)
from .frame import (
    FocalSet,
    Frame,
    MassFunction,
    SingletonVector,
    make_frame,
    make_mass_function,
)
from .metrics import PicScore, kl_divergence, pic
from .transforms import (
    ProbabilityDistribution,
    SolverConfig,
    TransformKind,
    TransformResult,
    apply_transform,
    bet_p,
    pr_bl,
    pr_pl,
    pr_sc_p,
    pra_pl,
    prscp_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DecisionReport",
    "DuplicateFocalSetError",
    "DuplicateLabelError",
    "EmptyFrameError",
    "EmptySetMassError",
    "FocalSet",
    "Frame",
    "FrameMismatchError",
    "FrameTooLargeError",
    "MassFunction",
    "MassOutOfRangeError",
    "MassSumMismatchError",
    "ParseError",
    "PicScore",
    "PignisticError",
    "ProbabilityDistribution",
    "SingletonVector",
    "SolverConfig",
    "ThresholdSet",
    "TransformKind",
    "TransformResult",
    "UnknownLabelError",
    "UnsupportedDivergenceError",
    "ValidationError",
    "apply_transform",
    "bet_p",
    "decision_set",
    "evaluate",
    "kl_divergence",
    "make_frame",
    "make_mass_function",
    "pic",
    "pr_bl",
    "pr_pl",
    "pr_sc_p",
    "pra_pl",
    "prscp_residual",
    "report_for",
    "select_transform",
]
