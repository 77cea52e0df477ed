"""Command-line interface.

Exit codes: 0 on success, 1 on validation or parse errors, 2 when the
self-consistent solver fails to converge, so shell pipelines can tell bad
input apart from numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .decision import TransformKind, evaluate, report_for
from .errors import ConvergenceError, PignisticError
from .io import (
    HUMAN,
    MACHINE,
    is_distribution_document,
    parse_bba_document,
    parse_distribution_document,
    parse_threshold_document,
    render_comparison,
    render_report,
)
from .metrics import pic as pic_score
from .transforms import TRANSFORMS, SolverConfig

_METHOD_FLAGS = {name.lower(): TransformKind(name) for name in TRANSFORMS}

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NO_CONVERGENCE = 2


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tolerance", type=float, default=1e-12,
        help="max-norm step threshold for the self-consistent solver",
    )
    parser.add_argument(
        "--max-iter", type=int, default=1000,
        help="iteration budget for the self-consistent solver",
    )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=[HUMAN, MACHINE], default=HUMAN,
        help="table for humans, record (JSON) for machines",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pignistic",
        description="Pignistic probability transforms and risk-threshold decisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="apply one transform to a BBA file")
    p_tr.add_argument("--method", required=True, choices=sorted(_METHOD_FLAGS))
    p_tr.add_argument("--input", required=True, type=Path, help="BBA document")
    p_tr.add_argument("--risk", type=float, default=0.0,
                      help="decision threshold annotated on the output")
    _add_solver_flags(p_tr)
    _add_format_flag(p_tr)

    p_pic = sub.add_parser(
        "pic", help="information content of a distribution or transformed BBA"
    )
    p_pic.add_argument("--input", required=True, type=Path,
                       help="distribution document, or BBA document with --method")
    p_pic.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="betp",
                       help="transform applied first when the input is a BBA")
    _add_solver_flags(p_pic)

    p_dec = sub.add_parser(
        "decide", help="select a transform by information maturity and decide"
    )
    p_dec.add_argument("--input", required=True, type=Path, help="BBA document")
    p_dec.add_argument("--thresholds", required=True, type=Path,
                       help="threshold profile document")
    p_dec.add_argument("--risk", required=True, type=float,
                       help="decision threshold on singleton probabilities")
    _add_solver_flags(p_dec)
    _add_format_flag(p_dec)

    p_cmp = sub.add_parser(
        "compare", help="all five transforms side by side with PIC and decision sets"
    )
    p_cmp.add_argument("--input", required=True, type=Path, help="BBA document")
    p_cmp.add_argument("--risk", type=float, default=0.0)
    _add_solver_flags(p_cmp)
    _add_format_flag(p_cmp)

    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise PignisticError(f"cannot read {path}: {exc.strerror}") from exc


def _run(args: argparse.Namespace, out) -> None:
    solver = SolverConfig(tolerance=args.tolerance, max_iterations=args.max_iter)
    if args.command == "transform":
        m = parse_bba_document(_read(args.input))
        report = report_for(m, _METHOD_FLAGS[args.method], args.risk, solver)
        print(render_report(report, args.format), file=out)
    elif args.command == "pic":
        text = _read(args.input)
        if is_distribution_document(text):
            dist = parse_distribution_document(text)
        else:
            m = parse_bba_document(text)
            report = report_for(m, _METHOD_FLAGS[args.method], 0.0, solver)
            dist = report.distribution
        print(f"{pic_score(dist).value:.6f}", file=out)
    elif args.command == "decide":
        m = parse_bba_document(_read(args.input))
        thresholds = parse_threshold_document(_read(args.thresholds))
        report = evaluate(m, thresholds, args.risk, solver)
        print(render_report(report, args.format), file=out)
    elif args.command == "compare":
        m = parse_bba_document(_read(args.input))
        reports = [
            report_for(m, kind, args.risk, solver) for kind in TransformKind
        ]
        print(render_comparison(reports, args.format), file=out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args, sys.stdout)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (PignisticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
