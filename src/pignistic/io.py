"""Document formats and report rendering.

Mass functions, threshold profiles, and distributions travel as JSON.
Focal sets are lists of labels (never joined strings), so labels may
contain any printable characters. Human-readable tables print
probabilities to six decimal places; machine records keep full precision
so downstream pipelines never compound rounding.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .decision import DecisionReport, ThresholdSet, TransformKind
from .errors import MassFunctionError, ParseError, ValidationError
from .frame import Frame, MassFunction
from .transforms import ProbabilityDistribution


def _reject_constant(name: str) -> None:
    raise ParseError(f"non-finite number {name} is not allowed")


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _require(doc: dict, key: str, kind: type, where: str) -> Any:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseError(
            f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_frame(doc: dict, where: str) -> Frame:
    labels = _require(doc, "frame", list, where)
    if not all(isinstance(l, str) for l in labels):
        raise ParseError(f"{where}: frame labels must be strings")
    return Frame(labels)


def parse_bba_document(text: str) -> MassFunction:
    """Parse a BBA document into a validated mass function.

    Validation failures name the offending mass record by index.
    """
    doc = _load_json(text)
    frame = _parse_frame(doc, "bba document")
    records = _require(doc, "masses", list, "bba document")
    assignments = []
    for i, record in enumerate(records):
        where = f"masses[{i}]"
        elements = _require(record, "elements", list, where)
        if not all(isinstance(l, str) for l in elements):
            raise ParseError(f"{where}: elements must be strings")
        mass = record.get("mass")
        if not isinstance(mass, (int, float)) or isinstance(mass, bool):
            raise ParseError(f"{where}: field 'mass' must be a number")
        assignments.append((elements, float(mass)))
    try:
        return MassFunction.from_labels(frame, assignments)
    except MassFunctionError as exc:
        raise type(exc)(f"bba document: {exc}") from exc


def serialize_mass_function(m: MassFunction) -> str:
    doc = {
        "frame": list(m.frame.labels),
        "masses": [
            {"elements": list(subset.labels), "mass": mass}
            for subset, mass in m.focal_sets()
        ],
    }
    return json.dumps(doc, indent=2)


def parse_threshold_document(text: str) -> ThresholdSet:
    doc = _load_json(text)
    bel = _require(doc, "bel", list, "threshold document")
    pl = _require(doc, "pl", list, "threshold document")
    for name, triple in (("bel", bel), ("pl", pl)):
        if len(triple) != 3 or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in triple
        ):
            raise ParseError(
                f"threshold document: {name!r} must be a list of 3 numbers"
            )
    profile = doc.get("profile_name", "")
    if not isinstance(profile, str):
        raise ParseError("threshold document: 'profile_name' must be a string")
    return ThresholdSet(tuple(bel), tuple(pl), profile)


def serialize_threshold_set(t: ThresholdSet) -> str:
    return json.dumps(
        {
            "profile_name": t.profile_name,
            "bel": list(t.bel_thresholds),
            "pl": list(t.pl_thresholds),
        },
        indent=2,
    )


def parse_distribution_document(text: str) -> ProbabilityDistribution:
    """Parse {"frame": [...], "probabilities": [...]} into a distribution."""
    doc = _load_json(text)
    frame = _parse_frame(doc, "distribution document")
    probs = _require(doc, "probabilities", list, "distribution document")
    if len(probs) != frame.size:
        raise ValidationError(
            f"distribution document: {frame.size} labels but {len(probs)} probabilities"
        )
    try:
        return ProbabilityDistribution(frame, probs)
    except ValueError as exc:
        raise ValidationError(f"distribution document: {exc}") from exc


def is_distribution_document(text: str) -> bool:
    """Cheap sniff: does the document carry probabilities rather than masses?"""
    doc = _load_json(text)
    return isinstance(doc, dict) and "probabilities" in doc


HUMAN = "table"
MACHINE = "record"


def _report_record(report: DecisionReport) -> dict:
    record = {
        "method": report.method.value,
        "frame": list(report.distribution.frame.labels),
        "probabilities": [float(p) for p in report.distribution.probabilities],
        "pic": report.pic.value,
        "decision_threshold": report.decision_threshold,
        "selected": list(report.selected),
    }
    if report.epsilon is not None:
        record["epsilon"] = report.epsilon
    if report.iterations is not None:
        record["iterations"] = report.iterations
    return record


def render_report(report: DecisionReport, fmt: str = HUMAN) -> str:
    if fmt == MACHINE:
        return json.dumps(_report_record(report), indent=2)
    if fmt != HUMAN:
        raise ValueError(f"unknown format {fmt!r}")
    frame = report.distribution.frame
    width = max(len(label) for label in frame.labels)
    lines = [f"method: {report.method.value}"]
    if report.epsilon is not None:
        lines.append(f"epsilon: {report.epsilon:.6f}")
    if report.iterations is not None:
        lines.append(f"iterations: {report.iterations}")
    for label, prob in zip(frame.labels, report.distribution.probabilities):
        marker = " *" if label in report.selected else ""
        lines.append(f"  {label:<{width}}  {prob:.6f}{marker}")
    lines.append(f"PIC: {report.pic.value:.6f}")
    lines.append(
        f"above threshold {report.decision_threshold:g}: "
        + (", ".join(report.selected) if report.selected else "(none)")
    )
    return "\n".join(lines)


def render_comparison(reports: Sequence[DecisionReport], fmt: str = HUMAN) -> str:
    """Side-by-side table of several transforms over the same frame."""
    if fmt == MACHINE:
        return json.dumps([_report_record(r) for r in reports], indent=2)
    if fmt != HUMAN:
        raise ValueError(f"unknown format {fmt!r}")
    frame = reports[0].distribution.frame
    label_width = max(len("hypothesis"), *(len(l) for l in frame.labels))
    col = 10
    header = f"{'hypothesis':<{label_width}}" + "".join(
        f"{r.method.value:>{col}}" for r in reports
    )
    lines = [header]
    for i, label in enumerate(frame.labels):
        row = f"{label:<{label_width}}" + "".join(
            f"{r.distribution.probabilities[i]:>{col}.6f}" for r in reports
        )
        lines.append(row)
    lines.append(
        f"{'PIC':<{label_width}}"
        + "".join(f"{r.pic.value:>{col}.6f}" for r in reports)
    )
    lines.append(
        f"{'selected':<{label_width}}"
        + "".join(f"{len(r.selected):>{col}d}" for r in reports)
    )
    return "\n".join(lines)


def parse_report_record(text: str) -> DecisionReport:
    """Inverse of the machine format; round-trips distributions bit-exactly."""
    from .metrics import PicScore

    doc = _load_json(text)
    frame = _parse_frame(doc, "report record")
    probs = _require(doc, "probabilities", list, "report record")
    method = TransformKind(_require(doc, "method", str, "report record"))
    return DecisionReport(
        method=method,
        distribution=ProbabilityDistribution(frame, probs),
        pic=PicScore(doc["pic"]),
        decision_threshold=doc["decision_threshold"],
        selected=tuple(doc["selected"]),
        epsilon=doc.get("epsilon"),
        iterations=doc.get("iterations"),
    )
