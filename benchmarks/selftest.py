"""Self-test of the benchmark's tracer on a tiny config of every workload.

    python3 benchmarks/selftest.py [--seed 7] [--workload NAME ...]

For each workload it runs one pass under cProfile without the tracer and
one pass with it, then checks that

* every wrapped function records exactly as many calls as cProfile
  counted for it, so no binding escapes the wrapper and every function
  the workload reaches records at least one call;
* the traced pass reports the same record values and verdicts as the
  untraced pass, bit for bit.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import cProfile
import inspect
import pstats
import sys

import checkout  # noqa: F401  (imports sqfn from the checkout)
import harness
from tracer import TARGETS, Tracer
from workloads import WORKLOADS


def _code_key(target) -> tuple:
    code = inspect.unwrap(getattr(target.owner, target.attr)).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _outputs(outcomes: list) -> list:
    return [(o.name, o.records, o.records is None) for o in outcomes]


def check_workload(workload, seed: int) -> list:
    """Problems found on the tiny config of one workload."""
    with harness.cli_output_dir() as out_dir:
        profile = cProfile.Profile()
        profile.enable()
        plain = harness.run_pass(workload, seed, out_dir, tiny=True)
        profile.disable()
    profiled = {key: row[1] for key, row in pstats.Stats(profile).stats.items()}

    tracer = Tracer()
    tracer.install()
    try:
        with harness.cli_output_dir() as out_dir:
            traced = harness.run_pass(workload, seed, out_dir, tiny=True)
    finally:
        tracer.uninstall()

    problems = [f"{o.name} raised:\n{o.error}" for o in plain if o.records is None]
    if _outputs(plain) != _outputs(traced):
        problems.append("traced records differ from untraced records")
    reached = 0
    for target, calls in zip(TARGETS, tracer.target_calls()):
        expected = profiled.get(_code_key(target), 0)
        reached += expected > 0
        if calls != expected:
            problems.append(f"{target.metric} ({target.attr}): traced {calls} "
                            f"calls, cProfile counted {expected}")
    print(f"{workload.name}: {reached} of {len(TARGETS)} wrapped functions reached, "
          f"{len(tracer.spans)} spans, {len(problems)} problems", flush=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="test only this workload (repeatable)")
    args = parser.parse_args(argv)
    harness.sharp_composite_timer()  # installed as in a benchmark run
    problems = []
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        problems += [f"{workload.name}: {p}" for p in check_workload(workload, args.seed)]
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
