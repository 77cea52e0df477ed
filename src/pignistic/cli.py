"""Command-line interface.

Exit codes: 0 on success, 1 on usage, validation or parse errors and on
output that cannot be encoded or written, 2 when the self-consistent solver
fails to converge, so shell pipelines can tell bad input from numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .decision import evaluate, report_for
from .errors import ConvergenceError, PignisticError
from .frame import MassFunction
from .io import (
    HUMAN,
    MACHINE,
    parse_bba_document,
    parse_bba_or_distribution,
    parse_threshold_document,
    render_comparison,
    render_report,
)
from .metrics import pic as pic_score
from .transforms import SolverConfig, TransformKind, apply_transform

_METHODS = sorted(kind.value.lower() for kind in TransformKind)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NO_CONVERGENCE = 2


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, type=Path,
                        help="BBA document; pic also takes a distribution document")
    shared.add_argument("--tolerance", type=float, default=SolverConfig.tolerance,
                        help="max-norm step threshold for the self-consistent solver")
    shared.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations,
                        help="iteration budget for the self-consistent solver")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=[HUMAN, MACHINE], default=HUMAN,
                     help="table for humans, record (JSON) for machines")

    parser = argparse.ArgumentParser(
        prog="pignistic",
        description="Pignistic probability transforms and risk-threshold decisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", parents=[shared, fmt],
                          help="apply one transform to a BBA file")
    p_tr.add_argument("--method", required=True, choices=_METHODS)
    p_tr.add_argument("--risk", type=float, default=0.0,
                      help="decision threshold annotated on the output")

    p_pic = sub.add_parser("pic", parents=[shared],
                           help="information content of a distribution or transformed BBA")
    p_pic.add_argument("--method", choices=_METHODS, default="betp",
                       help="transform applied first when the input is a BBA")

    p_dec = sub.add_parser("decide", parents=[shared, fmt],
                           help="select a transform by information maturity and decide")
    p_dec.add_argument("--thresholds", required=True, type=Path,
                       help="threshold profile document")
    p_dec.add_argument("--risk", required=True, type=float,
                       help="decision threshold on singleton probabilities")

    p_cmp = sub.add_parser("compare", parents=[shared, fmt],
                           help="all five transforms side by side with PIC and decision sets")
    p_cmp.add_argument("--risk", type=float, default=0.0)

    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # not every one has a strerror
        raise PignisticError(f"cannot read {path}: {getattr(exc, 'strerror', '') or exc}") from exc


def _run(args: argparse.Namespace) -> str:
    solver = SolverConfig(tolerance=args.tolerance, max_iterations=args.max_iter)
    text = _read(args.input)
    if args.command == "pic":
        dist = parse_bba_or_distribution(text)
        if isinstance(dist, MassFunction):
            dist = apply_transform(args.method, dist, solver).distribution
        return f"{pic_score(dist).value:.6f}"
    m = parse_bba_document(text)
    if args.command == "compare":
        reports = [report_for(m, kind, args.risk, solver) for kind in TransformKind]
        return render_comparison(reports, args.format)
    if args.command == "decide":
        report = evaluate(m, parse_threshold_document(_read(args.thresholds)), args.risk, solver)
    else:
        report = report_for(m, TransformKind(args.method), args.risk, solver)
    return render_report(report, args.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1, as 2 means no convergence; --help 0
        return EXIT_INVALID_INPUT if exc.code else EXIT_OK
    try:
        text = _run(args)
    except PignisticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_INVALID_INPUT
    try:
        if sys.stdout is None:  # started with descriptor 1 closed
            raise OSError("standard output is closed")
        print(text, flush=True)
    except (OSError, UnicodeEncodeError) as exc:  # not every one has a strerror
        # devnull takes the exit flush ("Note on SIGPIPE", signal docs) if stdout has a descriptor
        with open(os.devnull, "wb") as devnull, contextlib.suppress(AttributeError, ValueError):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: cannot write output:", getattr(exc, "strerror", None) or exc, file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
