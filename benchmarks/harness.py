"""Running passes, judging their outputs and describing the machine.

An operation is one record a check reports (a check that raises counts
as one failed operation).  It fails if it raises, if its value drifts
more than 1e-12 relative from the stored reference, or if its passed
verdict flips.  FAIL verdicts stored in the reference are results, not
failures.  At a seed with no stored reference only raises count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from checkout import BENCH_DIR, OUT, ROOT, SRC  # imports sqfn from the checkout
from sqfn import cli, verify
from tracer import patch_everywhere
from workloads import Workload

DRIFT_RTOL = 1e-12
REFERENCE_DIR = BENCH_DIR / "reference"


@dataclass
class Outcome:
    """One operation of a pass: a CLI check or an API call."""

    name: str
    seconds: float
    records: list | None  # [{"tag", "value", "passed"}], None if it raised
    error: str | None = None


# ---------------------------------------------------------------------------
# Configs and passes
# ---------------------------------------------------------------------------


def cli_config(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """The sqfn config of the workload with every check enabled.

    Its config_hash is what ``sqfn run`` would stamp on the whole suite
    with the default output directory.
    """
    overrides = dict(workload.settings_for(tiny))
    overrides["family.seed"] = str(seed)
    overrides["checks.enabled"] = ",".join(workload.checks)
    return cli.parse_config(None, overrides)


@contextlib.contextmanager
def cli_output_dir():
    """A private directory for sqfn's output files, removed afterwards."""
    os.environ.pop("SQFN_OUT", None)  # it would override output.directory
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="sqfn-", dir=OUT) as path:
        yield Path(path)


def _run_cli_check(workload: Workload, check: str, seed: int, out_dir: Path,
                   tiny: bool) -> Outcome:
    report = out_dir / "report.jsonl"
    report.unlink(missing_ok=True)
    argv = ["run", "--check", check, "--set", f"family.seed={seed}",
            "--set", f"output.directory={out_dir}"]
    for key, value in workload.settings_for(tiny).items():
        argv += ["--set", f"{key}={value}"]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main(argv)
    except Exception:  # a raised check is one failed operation; keep going
        return Outcome(check, time.perf_counter() - start, None, traceback.format_exc())
    seconds = time.perf_counter() - start
    if status not in (0, 1) or not report.is_file():
        return Outcome(check, seconds, None, f"exit {status}: {sink.getvalue().strip()}")
    with open(report) as fh:
        lines = [json.loads(line) for line in fh][1:]  # first line is the header
    records = [{"tag": r["tag"], "value": r["value"], "passed": r["passed"]} for r in lines]
    return Outcome(check, seconds, records)


def _run_api(name: str, fn, cfg: dict, seed: int) -> Outcome:
    start = time.perf_counter()
    try:
        records = fn(cfg, seed)
    except Exception:
        return Outcome(name, time.perf_counter() - start, None, traceback.format_exc())
    return Outcome(name, time.perf_counter() - start, records)


def run_pass(workload: Workload, seed: int, out_dir: Path, tiny: bool = False) -> list:
    """One pass of the workload, with sqfn writing to out_dir; its Outcomes in order."""
    outcomes = [_run_cli_check(workload, check, seed, out_dir, tiny)
                for check in workload.checks]
    cfg = cli_config(workload, seed, tiny)
    outcomes += [_run_api(name, fn, cfg, seed) for name, fn in workload.api]
    return outcomes


class CallTimer:
    """Seconds spent inside one sqfn function, wherever it is bound."""

    def __init__(self, owner, attr: str):
        self.seconds = 0.0
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        patch_everywhere(owner, attr, timed)


def sharp_composite_timer() -> CallTimer:
    """Times check_sharp_composite, which runs inside the sharp_maximal check."""
    return CallTimer(verify, "check_sharp_composite")


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_path(workload: Workload):
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload, seed: int):
    """Stored records for the seed as {check: [record]}, or None."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    with open(path) as fh:
        stored = json.load(fh)
    if stored["settings"] != workload.settings or list(stored["checks"]) != list(workload.checks):
        raise SystemExit(f"benchmark: {path} was made for another definition of "
                         f"{workload.name}; make the reference again")
    return stored["seeds"].get(str(seed))


def _drifted(value, ref) -> bool:
    return abs(value - ref) > DRIFT_RTOL * abs(ref)


def judge(outcomes: list, reference) -> tuple:
    """(attempted, failed, problems) for one pass against the reference."""
    attempted, failed, problems = 0, 0, []
    for o in outcomes:
        if o.records is None:
            attempted += 1
            failed += 1
            problems.append(f"{o.name} raised: {o.error.strip().splitlines()[-1]}")
            continue
        expected = (reference or {}).get(o.name)
        if expected is None:
            attempted += max(1, len(o.records))
            continue
        got = {r["tag"]: r for r in o.records}
        want = {r["tag"]: r for r in expected}
        for tag in dict.fromkeys([*want, *got]):
            attempted += 1
            g, w = got.get(tag), want.get(tag)
            if g is None or w is None:
                problem = "missing" if g is None else "not in the reference"
            elif g["passed"] != w["passed"]:
                problem = f"verdict flipped to passed={g['passed']}"
            elif _drifted(g["value"], w["value"]):
                problem = f"value {g['value']!r} drifted from {w['value']!r}"
            else:
                continue
            failed += 1
            problems.append(f"{o.name}/{tag}: {problem}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Set-up time and provenance
# ---------------------------------------------------------------------------

_SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import sqfn
from sqfn.grid import Grid
from sqfn.verify import default_operator
name, dim, n, r, k = sys.argv[1:]
default_operator(name, Grid(int(dim), int(n), float(r)), int(k))
print(repr(time.perf_counter() - start))
"""


def setup_seconds(workload: Workload) -> float:
    """Import sqfn and build the workload's operator in a fresh interpreter."""
    cfg = cli_config(workload, 0)
    r = cfg["operator.r"]
    if r == "auto":  # the CLI's rule
        r = "1.0" if cfg["operator.name"] == "laplacian" else "22.5"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, cfg["operator.name"],
         cfg["operator.dim"], cfg["operator.n"], r, cfg["operator.truncation"]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/sqfn/*.py, which names the code even without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqfn").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "workload": workload.name,
        "seed": seed,
        "config_hash": cli.config_hash(cli_config(workload, seed)),
    }
