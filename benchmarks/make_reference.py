"""Store a workload's record values and verdicts as its reference outputs.

    python3 benchmarks/make_reference.py --workload torus1d-suite --seeds 0-20,42

Runs one untraced pass per seed and writes
benchmarks/reference/<workload>.json, keeping the seeds already stored
for the same workload definition.  Run it only on a commit whose outputs
are the reference; it refuses to store a seed at which any check raises.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout  # noqa: F401  (imports sqfn from the checkout)
import harness
from workloads import WORKLOADS


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-20,42")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    path = harness.reference_path(workload)
    stored = {"workload": workload.name, "settings": workload.settings,
              "checks": list(workload.checks), "seeds": {}}
    if path.is_file():
        with open(path) as fh:
            old = json.load(fh)
        if old["settings"] == workload.settings and old["checks"] == list(workload.checks):
            stored["seeds"] = old["seeds"]
    stored["source_sha256"] = harness.source_digest()
    refused = 0
    for seed in _seeds(args.seeds):
        with harness.cli_output_dir() as out_dir:
            outcomes = harness.run_pass(workload, seed, out_dir)
        raised = [o for o in outcomes if o.records is None]
        for o in raised:
            print(f"seed {seed}: {o.name} raised\n{o.error}", file=sys.stderr)
        if raised:
            refused += 1
            continue
        stored["seeds"][str(seed)] = {o.name: o.records for o in outcomes}
        print(f"seed {seed}: {sum(len(o.records) for o in outcomes)} records", flush=True)
    stored["seeds"] = dict(sorted(stored["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}; refused {refused} seeds")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
