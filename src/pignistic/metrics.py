"""Information-content scoring of probability distributions.

PIC (probability information content) rescales the divergence from the
uniform distribution into [0, 1]: 0 means uniform (no decision
information), 1 means degenerate (total knowledge). Logarithms are
natural; PIC is a ratio of same-base logs, so the base cancels.
"""

from __future__ import annotations

__all__ = [
    "PicScore",
    "kl_divergence",
    "pic",
]

import math
from dataclasses import dataclass

from .errors import UnsupportedDivergenceError, ValidationError
from .frame import _check_same_frame, _is_real
from .transforms import ProbabilityDistribution


@dataclass(frozen=True)
class PicScore:
    value: float

    def __post_init__(self):
        if not (_is_real(self.value) and 0.0 <= self.value <= 1.0):
            raise ValidationError(f"PIC must lie in [0, 1], got {self.value}")


def pic(p: ProbabilityDistribution) -> PicScore:
    """PIC(p) = 1 + (sum p_i log p_i) / log N, with 0 log 0 := 0.

    A one-element frame carries total knowledge by definition, so N = 1
    returns 1 rather than evaluating the indeterminate 0/0.
    """
    n = p.frame.size
    if n == 1:
        return PicScore(1.0)
    # libm's log, not np.log, whose SIMD loops may round differently by host
    entropy = math.fsum([q * math.log(q) for q in p._tuple if q > 0.0])
    value = 1.0 + entropy / math.log(n)
    # negligible negative drift from float summation near the uniform case
    return PicScore(min(1.0, max(0.0, value)))


def kl_divergence(p: ProbabilityDistribution, q: ProbabilityDistribution) -> float:
    """Kullback-Leibler divergence D(p || q) in nats.

    Terms with p_i = 0 contribute nothing; p_i > 0 with q_i = 0 makes the
    divergence infinite and is rejected.
    """
    _check_same_frame(p.frame, q.frame)
    terms = []
    for pi, qi in zip(p._tuple, q._tuple):
        if pi == 0.0:
            continue
        if qi == 0.0:
            raise UnsupportedDivergenceError(
                "p has mass where q has none; divergence is infinite"
            )
        ratio = pi / qi  # overflows to inf only where q_i is subnormal
        terms.append(pi * (math.log(ratio) if ratio < math.inf else math.log(pi) - math.log(qi)))
    return max(0.0, math.fsum(terms))
