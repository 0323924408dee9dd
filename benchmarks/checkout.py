"""Locate the checkout the benchmark measures and import sqfn from its src/.

Importing this module puts ``<checkout>/src`` first on ``sys.path``, so
the benchmark always measures the source tree it ships with, never an
installed copy.  Without that tree it stops with a non-zero exit.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "benchmarks"
OUT = ROOT / ".bench_out"

if not (SRC / "sqfn" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no sqfn source tree at {SRC / 'sqfn'}; "
                     "run it from a full checkout")
if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))

import sqfn  # noqa: E402

if Path(sqfn.__file__).resolve().parent != SRC / "sqfn":
    raise SystemExit(f"benchmark: sqfn was imported from {sqfn.__file__}, "
                     f"not from {SRC / 'sqfn'}")
