"""The benchmark's stored records hold: one pass of each workload at seeds
0, 7, 16 and 42, full settings, drifts from benchmarks/reference/ in no
operation.  The benchmark's own copies of the auto operator.r rule build
the grid that ``sqfn run`` builds."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from sqfn.cli import _Plan

_BENCH = str(Path(__file__).resolve().parent.parent / "benchmarks")
sys.path.insert(0, _BENCH)
try:
    import harness
    import workloads
finally:
    sys.path.remove(_BENCH)


@pytest.mark.parametrize("seed", [0, 7, 16, 42])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_pass_matches_the_stored_records(tmp_path, monkeypatch, name, seed):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    workload = workloads.WORKLOADS[name]
    reference = harness.load_reference(workload, seed)
    assert reference is not None, f"no stored records at seed {seed}"
    outcomes = harness.run_pass(workload, seed, tmp_path)
    attempted, failed, problems = harness.judge(outcomes, reference)
    assert attempted > 0 and failed == 0, problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_benchmark_builds_the_grid_sqfn_run_builds(monkeypatch, name):
    """setup_seconds times the operator on the plan's grid, and every
    workload with API operations builds them on that grid too."""
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout="0.0\n", stderr="")

    monkeypatch.setattr(harness, "subprocess", SimpleNamespace(run=run))
    workload = workloads.WORKLOADS[name]
    harness.setup_seconds(workload)
    cfg = harness.cli_config(workload, 0)
    grid = _Plan(cfg).op.grid
    ((*_, op_name, dim, n, r, _truncation),) = argvs
    assert (op_name, int(dim), int(n), float(r)) == (
        cfg["operator.name"], grid.dim, grid.points_per_axis, grid.half_width)
    if workload.api:
        assert workloads._grid(cfg) == grid
