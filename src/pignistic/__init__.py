"""Belief-function pignistic probability transforms and decision support.

Builds point probability distributions from basic belief assignments via
five transforms (BetP, PraPl, PrPl, PrBl, PrScP), scores them with the
probability information content metric, and supports risk-threshold
decision sets with an information-maturity transform selector.
"""

from . import decision, errors, frame, metrics, transforms
from .decision import *
from .errors import *
from .frame import *
from .metrics import *
from .transforms import *

__version__ = "0.1.0"

__all__ = [
    *decision.__all__, *errors.__all__, *frame.__all__, *metrics.__all__, *transforms.__all__
]
