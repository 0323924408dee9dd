"""The benchmark's stored records hold: one pass of each workload at seed 7,
full settings, drifts from benchmarks/reference/ in no operation."""

import sys
from pathlib import Path

import pytest

_BENCH = str(Path(__file__).resolve().parent.parent / "benchmarks")
sys.path.insert(0, _BENCH)
try:
    import harness
    import workloads
finally:
    sys.path.remove(_BENCH)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_pass_at_seed_7_matches_the_stored_records(tmp_path, monkeypatch, name):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    workload = workloads.WORKLOADS[name]
    outcomes = harness.run_pass(workload, 7, tmp_path)
    attempted, failed, problems = harness.judge(outcomes, harness.load_reference(workload, 7))
    assert attempted > 0 and failed == 0, problems
