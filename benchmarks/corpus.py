"""Seeded input generator shared by every workload.

Only :mod:`random` and :mod:`json` are used, so the same seed gives
byte-identical inputs on any machine and with any numpy version. Each
workload draws from its own stream (``random.Random(f"{seed}/{stream}")``),
so adding draws to one workload never shifts another's inputs. The
program receives only what these functions return: JSON document text or
``(labels, [(members, mass), ...])`` pairs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RISK = 0.0455

#: (n labels, k focal sets) for ``compare-wide``: the sizes of the baseline
#: table in ROADMAP.md.
COMPARE_SIZES = ((16, 200), (32, 1000), (64, 2000))
COMPARE_BBAS_PER_SIZE = 2

DECIDE_DOCS = 2000

#: ``prscp-solve`` cycles through n = 4..12 so every pass holds each frame
#: size once; k = 2n keeps one solve near 0.1 s on average, which gives
#: enough solves per run for a steady median while the slow and
#: non-converging draws of today's solver still occur at a few percent.
PRSCP_SIZES = tuple(range(4, 13))
PRSCP_PASSES = 40


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}/{stream}")


def _labels(n: int) -> list[str]:
    return [f"h{i}" for i in range(n)]


def _members(labels: list[str], bits: int) -> list[str]:
    return [label for i, label in enumerate(labels) if bits >> i & 1]


def bba_document(labels: list[str], assignments) -> str:
    """The JSON BBA document format read by ``pignistic.io``."""
    return json.dumps(
        {
            "frame": labels,
            "masses": [
                {"elements": members, "mass": mass} for members, mass in assignments
            ],
        }
    )


def _normalised(weights: list[float], total: float) -> list[float]:
    scale = total / sum(weights)
    return [w * scale for w in weights]


def random_bba(rng: random.Random, n: int, k: int):
    """k distinct nonempty subsets of n labels with U(0,1) weights summing to 1."""
    labels = _labels(n)
    chosen: set[int] = set()
    order: list[int] = []
    while len(order) < k:
        bits = rng.getrandbits(n)
        if bits and bits not in chosen:
            chosen.add(bits)
            order.append(bits)
    masses = _normalised([rng.random() for _ in order], 1.0)
    return labels, [(_members(labels, b), m) for b, m in zip(order, masses)]


def decide_bba(rng: random.Random):
    """A 3-8 label BBA with every singleton plus 1-12 compound focal sets.

    The singleton share of the mass is drawn from U(0,1), which spreads
    SumBel over the whole selector range, so all four automatically
    selected transforms are picked.
    """
    n = rng.randint(3, 8)
    labels = _labels(n)
    compounds = [b for b in range(1, 1 << n) if b & (b - 1)]
    chosen = rng.sample(compounds, rng.randint(1, min(12, len(compounds))))
    share = rng.random()
    singles = _normalised([rng.random() for _ in range(n)], share)
    rest = _normalised([rng.random() for _ in chosen], 1.0 - share)
    return labels, [([label], m) for label, m in zip(labels, singles)] + [
        (_members(labels, b), m) for b, m in zip(chosen, rest)
    ]


def decide_documents(seed: int, count: int = DECIDE_DOCS) -> list[str]:
    rng = _rng(seed, "decide")
    return [bba_document(*decide_bba(rng)) for _ in range(count)]


def compare_bbas(seed: int):
    """``COMPARE_BBAS_PER_SIZE`` random BBAs for each (n, k), sizes interleaved."""
    rng = _rng(seed, "compare")
    return [
        random_bba(rng, n, k)
        for _ in range(COMPARE_BBAS_PER_SIZE)
        for n, k in COMPARE_SIZES
    ]


def combat_id(root: Path):
    """The combat-identification BBA of the reference fixture."""
    doc = json.loads((root / "tests" / "data" / "combat_id.json").read_text())
    return doc["frame"], [(r["elements"], r["mass"]) for r in doc["masses"]]


#: m{a} = m{c} = 0.1, m{a,b} = m{b,c} = 0.4: PrBl gives b zero probability,
#: so today's solver stays on a fixed point that is not the likelihood
#: maximiser (ROADMAP item 3).
PRBL_ZERO = (
    ["a", "b", "c"],
    [(["a"], 0.1), (["c"], 0.1), (["a", "b"], 0.4), (["b", "c"], 0.4)],
)


def prscp_corpus(seed: int, root: Path):
    """Named BBAs for ``prscp-solve``: two fixed cases, then seeded passes
    over n = 4..12 with k = 2n (capped at 2^n - 1)."""
    rng = _rng(seed, "prscp")
    corpus = [("combat-id", *combat_id(root)), ("prbl-zero", *PRBL_ZERO)]
    for p in range(PRSCP_PASSES):
        for n in PRSCP_SIZES:
            k = min(2 * n, (1 << n) - 1)
            corpus.append((f"n{n}-k{k}-{p}", *random_bba(rng, n, k)))
    return corpus
