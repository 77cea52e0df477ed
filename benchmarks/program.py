"""Locates the checkout and imports the program under test from its ``src``.

The package is never taken from site-packages: the benchmark measures the
tree it sits in, and fails when that tree holds no ``src/pignistic``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pignistic"
THRESHOLDS = ROOT / "tests" / "data" / "thresholds_standard.json"


class MissingProgram(RuntimeError):
    """The checkout has no importable ``src/pignistic``."""


def import_program():
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no package at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pignistic

    if Path(pignistic.__file__).resolve().parent != PACKAGE:
        raise MissingProgram(f"pignistic imported from {pignistic.__file__}")
    return pignistic


def load_oracles():
    """``tests/oracles.py``, the brute-force references the tests use."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("pignistic_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
