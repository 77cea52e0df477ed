"""Document formats and report rendering.

Mass functions, threshold profiles, and distributions travel as JSON.
Focal sets are lists of labels (never joined strings), so labels may
contain any printable characters. Human-readable tables print
probabilities to six decimal places; machine records keep full precision
so downstream pipelines never compound rounding.
"""

from __future__ import annotations

import json
import math
from sys import float_info
from typing import Any, Sequence

from .decision import DecisionReport, ThresholdSet, decision_set
from .errors import FrameError, MassFunctionError, ParseError, ValidationError
from .frame import Frame, MassFunction, _check_same_frame
from .metrics import PicScore, pic
from .transforms import ProbabilityDistribution, TransformKind


def _reject_constant(name: str) -> None:
    raise ParseError(f"non-finite number {name} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _load_json(text: str) -> Any:
    try:
        if text.startswith("\ufeff"):  # as json.loads reports it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer too long or nesting too deep
        raise ParseError(f"malformed JSON: {exc}") from exc


#: ``kind`` for a field that holds a number, and for one that holds a label.
_NUMBER = (int, float)
_STRING = (str,)


def _require(doc: dict, key: str, kind: type | tuple[type, ...], where: str) -> Any:
    """``doc[key]``, which must be an instance of ``kind`` and not a bool."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "number" if kind is _NUMBER else kind.__name__
        raise ParseError(
            f"{where}: field {key!r} must be {what}, got {type(value).__name__}"
        )
    return value


def _list_of(doc: dict, key: str, kind: tuple[type, ...], where: str) -> list:
    """``doc[key]``, a list of ``kind``: ``_NUMBER`` (bools excluded) or ``_STRING``."""
    values = _require(doc, key, list, where)
    if not all(type(x) in kind for x in values):
        what = "numbers" if kind is _NUMBER else "strings"
        raise ParseError(f"{where}: field {key!r} must be a list of {what}")
    return values


def parse_bba_document(text: str) -> MassFunction:
    """Parse a BBA document into a validated mass function.

    Validation failures name the offending mass record by index.
    """
    return _mass_function_from(_load_json(text))


def _mass_function_from(doc: Any) -> MassFunction:
    """One walk builds the mass function, ``from_labels`` checking each record; only if it
    fails are the records walked again, to rank the errors: a malformed record, an unknown
    label, the empty set, the rest. Frame and mass errors leave named ``bba document:``."""
    try:
        frame = Frame(_list_of(doc, "frame", _STRING, "bba document"))
        records = _require(doc, "masses", list, "bba document")
        try:
            return MassFunction.from_labels(frame, ((r["elements"], r["mass"]) for r in records))
        except (KeyError, TypeError, ValidationError, MassFunctionError):
            for i, record in enumerate(records):
                _list_of(record, "elements", _STRING, f"masses[{i}]")
                _require(record, "mass", _NUMBER, f"masses[{i}]")
            for record in sorted(records, key=lambda r: not r["elements"]):
                frame.subset(record["elements"])  # an unknown label, then the empty set
            raise
    except (FrameError, MassFunctionError) as exc:
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
    where = "threshold document"
    bel = _list_of(doc, "bel", _NUMBER, where)
    pl = _list_of(doc, "pl", _NUMBER, where)
    profile = _require(doc, "profile_name", str, where) if "profile_name" in doc else ""
    return ThresholdSet(bel, pl, profile)


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
    return _distribution_from(_load_json(text))


def _distribution_from(doc: Any) -> ProbabilityDistribution:
    frame = Frame(_list_of(doc, "frame", _STRING, "distribution document"))
    probs = _list_of(doc, "probabilities", _NUMBER, "distribution document")
    return ProbabilityDistribution(frame, probs)


def parse_bba_or_distribution(text: str) -> MassFunction | ProbabilityDistribution:
    """A distribution document if it has "probabilities", else a BBA document."""
    doc = _load_json(text)
    if isinstance(doc, dict) and "probabilities" in doc:
        return _distribution_from(doc)
    return _mass_function_from(doc)


HUMAN = "table"
MACHINE = "record"


def _report_record(report: DecisionReport) -> dict:
    record = {
        "method": report.method.value,
        "frame": list(report.distribution.frame.labels),
        "probabilities": list(report.distribution._tuple),
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
        return json.dumps(_report_record(report))
    if fmt != HUMAN:
        raise ValidationError(f"unknown format {fmt!r}")
    frame = report.distribution.frame
    width = max(len(label) for label in frame.labels)
    lines = [f"method: {report.method.value}"]
    if report.epsilon is not None:
        lines.append(f"epsilon: {report.epsilon:.6f}")
    if report.iterations is not None:
        lines.append(f"iterations: {report.iterations}")
    for label, prob in zip(frame.labels, report.distribution._tuple):
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
    if not reports:
        raise ValidationError("a comparison needs at least one report")
    frame = reports[0].distribution.frame
    for r in reports:
        _check_same_frame(frame, r.distribution.frame)
    if fmt == MACHINE:
        return json.dumps([_report_record(r) for r in reports])
    if fmt != HUMAN:
        raise ValidationError(f"unknown format {fmt!r}")
    names = ["hypothesis", *frame.labels, "PIC", "selected"]
    columns = [
        [r.method.value, *(f"{p:.6f}" for p in r.distribution._tuple), f"{r.pic.value:.6f}",
         str(len(r.selected))]
        for r in reports
    ]
    width = max(map(len, names))
    return "\n".join(
        f"{name:<{width}}" + "".join(f"{cell:>10}" for cell in cells)
        for name, *cells in zip(names, *columns)
    )


def parse_report_record(text: str) -> DecisionReport:
    """Inverse of the machine format; round-trips distributions bit-exactly."""
    doc = _load_json(text)
    where = "report record"
    frame = Frame(_list_of(doc, "frame", _STRING, where))
    probs = _list_of(doc, "probabilities", _NUMBER, where)
    method = TransformKind(_require(doc, "method", str, where))
    report = DecisionReport(
        method=method,
        distribution=ProbabilityDistribution(frame, probs),
        pic=PicScore(_require(doc, "pic", _NUMBER, where)),
        decision_threshold=_require(doc, "decision_threshold", _NUMBER, where),
        selected=tuple(_list_of(doc, "selected", _STRING, where)),
        epsilon=_require(doc, "epsilon", _NUMBER, where) if "epsilon" in doc else None,
        iterations=_require(doc, "iterations", int, where) if "iterations" in doc else None,
    )
    # decision_set also range-checks the threshold
    if list(report.selected) != decision_set(report.distribution, report.decision_threshold):
        raise ValidationError(f"{where}: 'selected' is not the labels above 'decision_threshold'")
    # within 1e-12: libm's log may differ in its last bit between hosts
    if not math.isclose(report.pic.value, pic(report.distribution).value, rel_tol=0, abs_tol=1e-12):
        raise ValidationError(f"{where}: 'pic' is not the PIC of 'probabilities'")
    # the diagnostics the program writes, each present exactly on its method
    pra_pl, pr_sc_p = method is TransformKind.PRA_PL, method is TransformKind.PR_SC_P
    if (report.epsilon is not None) != pra_pl or (pra_pl and not abs(report.epsilon) <= float_info.max):
        raise ValidationError(f"{where}: 'epsilon' must be finite on PraPl, absent elsewhere")
    if (report.iterations is not None) != pr_sc_p or (pr_sc_p and report.iterations < 1):
        raise ValidationError(f"{where}: 'iterations' must be >= 1 on PrScP, absent elsewhere")
    return report
