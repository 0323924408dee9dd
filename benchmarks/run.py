"""sqfn benchmark: time to verdict on three workloads, with a traced layer split.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload torus1d-suite --seed 7 --seconds 25 --trace 0

Load model: a closed loop in one process.  Passes of the workload (see
workloads.py) run back to back until the next pass would end more than
half a pass past ``--seconds``; at least one pass always runs.  BLAS
keeps its default thread count.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of three fresh interpreters that import sqfn and
build the workload's operator), ``peak_rss_mb`` and ``check_s.<check>``
(median time to verdict of one check, measured at the check boundary).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracer.py, medians over the traced passes, plus
``trace.overhead_s``: traced minus untraced median pass time.

Every output is checked against benchmarks/reference/<workload>.json
(see harness.py).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A result file
with a provenance line, all samples and every check's time goes to
.bench_out/BENCH_<workload>_seed<n>_trace<t>.json; a traced run also
writes its spans to .bench_out/spans_<workload>_seed<n>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

from checkout import OUT, ROOT  # imports sqfn from the checkout
import harness
from tracer import LAYERS, Tracer, metric_units
from workloads import NAMED_CHECKS, WORKLOADS

SETUP_REPEATS = 3

# The machine line carries these on every workload.  check_s.<check>
# is printed and kept in the result file but not gated: one check is too
# short a measurement to be steady on a small shared machine.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _tail(samples: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 1),
            "value": sorted(samples)[n - 11]}


def _check_times(outcomes: list, composite_s: float) -> dict:
    """check_s.<name> of one pass; unnamed checks add to check_s.light."""
    times = {"check_s.light": 0.0}
    for o in outcomes:
        if o.name in NAMED_CHECKS:
            times[f"check_s.{o.name}"] = o.seconds
        else:
            times["check_s.light"] += o.seconds
    # on every workload: the time inside check_sharp_composite, which the
    # 1-D workloads reach through the sharp_maximal check
    times["check_s.sharp_composite"] = composite_s
    return times


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    reference = harness.load_reference(workload, seed)
    timer = harness.sharp_composite_timer()
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    with harness.cli_output_dir() as out_dir:
        while True:
            traced = trace and len(passes) % 2 == 1
            gc.collect()
            if traced:
                tracer.reset()
                tracer.install()
            timer.seconds = 0.0
            t0 = time.perf_counter()
            try:
                outcomes = harness.run_pass(workload, seed, out_dir)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            record = {"traced": traced, "wall_s": wall,
                      "times": _check_times(outcomes, timer.seconds),
                      "judged": harness.judge(outcomes, reference)}
            if traced:
                record["layers"] = tracer.metrics()
                record["spans"] = tracer.span_rows()
            passes.append(record)
            elapsed = time.perf_counter() - start
            enough = not trace or len(passes) >= 2
            if enough and elapsed + 0.5 * elapsed / len(passes) >= seconds:
                break
    return {"passes": passes, "has_reference": reference is not None}


def _summary(samples: list, unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
            "samples": samples, "tail": _tail(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    prov = harness.provenance(workload, args.seed)
    print(f"provenance: {json.dumps(prov, sort_keys=True)}", flush=True)

    setup = [harness.setup_seconds(workload) for _ in range(SETUP_REPEATS)]
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["judged"][0] for p in passes)
    failed = sum(p["judged"][1] for p in passes)
    problems = sorted({msg for p in passes for msg in p["judged"][2]})

    checks = {name: _summary([p["times"][name] for p in plain], "s")
              for name in plain[0]["times"]}
    detail = {"wall_s": _summary([p["wall_s"] for p in plain], "s"),
              "setup_s": _summary(setup, "s"),
              "peak_rss_mb": _summary(
                  [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
              **checks}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        reported = {name: _summary([p["layers"][name] for p in traced], unit)
                    for name, unit in metric_units().items()}
        reported["trace.wall_s"] = _summary([p["wall_s"] for p in traced], "s")
        reported["trace.overhead_s"] = {
            "value": reported["trace.wall_s"]["value"] - detail["wall_s"]["value"],
            "unit": "s"}
    else:
        reported = {name: detail[name] for name in END_TO_END}
    shown = {**detail, **reported}

    print(f"workload {workload.name}: seed {args.seed}, {len(passes)} passes "
          f"({len(plain)} untraced), reference {'yes' if run['has_reference'] else 'no'}")
    for name, m in shown.items():
        extra = f", n={m['n']}" if "n" in m else ""
        print(f"  {name}: {m['value']:.6g} {m['unit']}{extra}")
    if args.trace:
        total = reported["trace.wall_s"]["value"]
        split = ", ".join(f"{layer} {reported[f'{layer}.self_s']['value'] / total:.1%}"
                          for layer in LAYERS)
        print(f"  layer self-time shares of a traced pass: {split}")
    print(f"  failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for msg in problems:
        print(f"  FAILED {msg}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}"
    result = OUT / f"BENCH_{stem}_trace{args.trace}.json"
    with open(result, "w") as fh:
        json.dump({"provenance": prov, "workload": workload.name, "why": workload.why,
                   "seconds": args.seconds, "trace": args.trace,
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "metrics": shown},
                  fh, indent=1, sort_keys=True)
    if args.trace:
        with open(OUT / f"spans_{stem}.jsonl", "w") as fh:
            for i, p in enumerate(passes):
                for name, start, end, parent in p.get("spans", ()):
                    fh.write(json.dumps([i, name, start, end, parent]) + "\n")
    print(f"  result file: {result.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
