"""Brute-force reference implementations used only by the tests.

Everything here works on plain dicts of frozensets and enumerates the full
power set, independent of the bitmask-based package internals.
"""

from itertools import chain, combinations
from math import fsum


def powerset(labels):
    """All nonempty subsets of ``labels`` as frozensets, smallest first."""
    labels = list(labels)
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(labels, r) for r in range(1, len(labels) + 1)
        )
    ]


def bel_oracle(masses, subset):
    subset = frozenset(subset)
    return fsum(m for s, m in masses.items() if s <= subset)


def pl_oracle(masses, subset):
    subset = frozenset(subset)
    return fsum(m for s, m in masses.items() if s & subset)


def betp_oracle(masses, labels):
    """Per-singleton equal-split sums over every subset of the power set."""
    out = {}
    for label in labels:
        out[label] = fsum(
            masses.get(s, 0.0) / len(s) for s in powerset(labels) if label in s
        )
    return out


def self_consistency_residual_oracle(masses, labels, probabilities):
    """Max defect of the self-consistent equation at ``probabilities``.

    Focal sets whose members all have zero probability fall back to an
    equal split, mirroring the documented solver behavior.
    """
    residual = 0.0
    for label in labels:
        total = 0.0
        for s, m in masses.items():
            if label not in s:
                continue
            denom = fsum(probabilities[x] for x in s)
            if denom > 0.0:
                total += m * probabilities[label] / denom
            else:
                total += m / len(s)
        residual = max(residual, abs(total - probabilities[label]))
    return residual


def prbl_support_oracle(masses):
    """Labels PrBl gives positive probability: those with singleton mass,
    plus every member of a focal set with no such label (split equally)."""
    singles = {label for s, m in masses.items() if len(s) == 1 and m > 0.0 for label in s}
    support = set(singles)
    for s, m in masses.items():
        if m > 0.0 and not s & singles:
            support |= s
    return support


def kkt_gap_oracle(masses, labels, probabilities):
    """max over PrBl's support of g_i - 1, g_i = sum over focal sets A
    containing i of m(A) / P(A): the optimality gap of PrScP's answer."""
    g = {label: [] for label in labels}
    for s, m in masses.items():
        if m <= 0.0:
            continue
        denom = fsum(probabilities[x] for x in s)
        for x in s:
            g[x].append(m / denom if denom > 0.0 else float("inf"))
    return max(fsum(g[label]) for label in prbl_support_oracle(masses)) - 1.0
