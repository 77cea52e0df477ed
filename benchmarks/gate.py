"""Correctness gate: every output a workload produced is checked after the
timed region, against references that do not share the program's code.

* combat-ID: all five transforms against the reference values that
  ``tests/test_acceptance.py`` checks the CLI against (to 1e-6);
* BetP equals the power-set oracle of ``tests/oracles.py`` bit for bit
  where n <= 10; BetP on larger frames, PraPl, PrPl and PrBl agree to 1e-9
  with a direct split of each focal set's mass written here over frozensets;
* Bel <= p <= Pl with Bel and Pl from the oracles (PraPl may exceed Pl,
  as its docstring documents), and p sums to 1;
* every PrScP result has ``prscp_residual < 10 x tolerance``;
* every decision set equals {labels: p > risk};
* the transform picked matches the selector applied to oracle SumBel/SumPl.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from program import ROOT, import_program, load_oracles

pg = import_program()
from pignistic.io import parse_bba_document  # noqa: E402

oracles = load_oracles()

BOUND_SLACK = 1e-9
SPLIT_TOLERANCE = 1e-9
REFERENCE_TOLERANCE = 1e-6
ORACLE_MAX_LABELS = 10
SOLVER = pg.SolverConfig()


def reference_values(path: Path = ROOT / "tests" / "test_acceptance.py"):
    """{method: [p per label]} from the ``paper_values`` list of the CLI
    acceptance test, which lists the combat-ID results of all five
    transforms in ``TransformKind`` order."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "paper_values"
        ):
            values = [float(v) for v in ast.literal_eval(node.value)]
            kinds = [kind.value for kind in pg.TransformKind]
            width = len(values) // len(kinds)
            return {
                kind: values[i * width : (i + 1) * width]
                for i, kind in enumerate(kinds)
            }
    raise LookupError(f"no paper_values list in {path}")


@dataclass
class Case:
    """One input BBA with its oracle Bel/Pl, built once per input."""

    labels: list[str]
    assignments: list
    masses: dict = field(init=False)
    bel: list[float] = field(init=False)
    pl: list[float] = field(init=False)

    def __post_init__(self):
        self.masses = {}
        for members, mass in self.assignments:
            if mass > 0.0:
                self.masses[frozenset(members)] = mass
        self.bel = [oracles.bel_oracle(self.masses, {l}) for l in self.labels]
        self.pl = [oracles.pl_oracle(self.masses, {l}) for l in self.labels]

    @classmethod
    def from_document(cls, text: str) -> Case:
        doc = json.loads(text)
        return cls(doc["frame"], [(r["elements"], r["mass"]) for r in doc["masses"]])

    @cached_property
    def mass_function(self):
        return pg.MassFunction.from_labels(pg.Frame(self.labels), self.assignments)


def split_reference(case: Case, weights: dict) -> list[float]:
    """Each focal set's mass shared among its members in proportion to
    ``weights``, equally where they all weigh zero."""
    shares: dict[str, list[float]] = {label: [] for label in case.labels}
    for members, mass in case.masses.items():
        total = math.fsum(weights[label] for label in members)
        for label in members:
            shares[label].append(
                mass * weights[label] / total if total > 0.0 else mass / len(members)
            )
    return [math.fsum(shares[label]) for label in case.labels]


def closed_form_reference(case: Case, method: str) -> list[float]:
    if method == "BetP":
        return split_reference(case, dict.fromkeys(case.labels, 1.0))
    if method == "PrPl":
        return split_reference(case, dict(zip(case.labels, case.pl)))
    if method == "PrBl":
        return split_reference(case, dict(zip(case.labels, case.bel)))
    epsilon = (1.0 - math.fsum(case.bel)) / math.fsum(case.pl)
    return [bel + epsilon * pl for bel, pl in zip(case.bel, case.pl)]


class Gate:
    def __init__(self, risk: float):
        self.risk = risk
        self.errors: list[str] = []
        self.checked = 0

    @property
    def correct(self) -> bool:
        return not self.errors

    def fail(self, where: str, message: str) -> None:
        self.errors.append(f"{where}: {message}")

    def check_combat_reference(self) -> None:
        text = (ROOT / "tests" / "data" / "combat_id.json").read_text()
        m = parse_bba_document(text)
        for method, expected in reference_values().items():
            got = pg.apply_transform(method, m).distribution.probabilities
            worst = max(abs(g - e) for g, e in zip(got, expected))
            if worst > REFERENCE_TOLERANCE:
                self.fail("combat-id", f"{method} off the reference by {worst:.3g}")
        self.checked += 1

    def check_distribution(self, where: str, case: Case, method: str, probs) -> None:
        self.checked += 1
        probs = [float(p) for p in probs]
        if len(probs) != len(case.labels):
            return self.fail(where, f"{len(probs)} probabilities for {len(case.labels)} labels")
        if abs(math.fsum(probs) - 1.0) > BOUND_SLACK:
            self.fail(where, f"{method} sums to {math.fsum(probs)!r}")
        for label, p, bel, pl in zip(case.labels, probs, case.bel, case.pl):
            if p < bel - BOUND_SLACK or (method != "PraPl" and p > pl + BOUND_SLACK):
                self.fail(where, f"{method} p[{label}]={p!r} outside [{bel!r}, {pl!r}]")
        if method == "BetP" and len(case.labels) <= ORACLE_MAX_LABELS:
            expected = oracles.betp_oracle(case.masses, case.labels)
            if probs != [expected[label] for label in case.labels]:
                self.fail(where, "BetP differs from the power-set oracle")
        elif method in ("BetP", "PraPl", "PrPl", "PrBl"):
            expected = closed_form_reference(case, method)
            worst = max(abs(p - e) for p, e in zip(probs, expected))
            if worst > SPLIT_TOLERANCE:
                self.fail(where, f"{method} off the direct split by {worst:.3g}")
        elif method == "PrScP":
            dist = pg.ProbabilityDistribution(case.mass_function.frame, probs)
            residual = pg.prscp_residual(case.mass_function, dist)
            if not residual < 10.0 * SOLVER.tolerance:
                self.fail(where, f"PrScP residual {residual:.3g}")
        else:
            self.fail(where, f"unknown method {method!r}")

    def check_record(self, where: str, case: Case, record: dict) -> None:
        """A ``--format record`` report: distribution, decision set, method."""
        if record["frame"] != case.labels:
            return self.fail(where, f"frame {record['frame']} != {case.labels}")
        self.check_distribution(where, case, record["method"], record["probabilities"])
        expected = [l for l, p in zip(case.labels, record["probabilities"]) if p > self.risk]
        if record["selected"] != expected or record["decision_threshold"] != self.risk:
            self.fail(where, f"decision set {record['selected']} != {expected}")

    def check_selection(self, where: str, case: Case, method: str, thresholds) -> None:
        kind = pg.select_transform(math.fsum(case.bel), math.fsum(case.pl), thresholds)
        if kind.value != method:
            self.fail(where, f"picked {method}, selector on oracle sums gives {kind.value}")
