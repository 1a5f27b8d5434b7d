"""One untimed operation of every benchmark workload matches golden.json.

Runs the benchmark's own check (``workloads.execute``) on one pool input per
workload, twice, so a change that moves a run's outcome or makes its output
bytes differ between repeats fails here too.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("name", ["sweep-heol", "sweep-mfpc", "cli-run"])
def test_workload_matches_golden(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    workload = workloads.make(name, 0, tmp_path, indices=[0])
    golden = workloads.load_golden(name)
    digests = {}
    for _ in range(2):
        result = workloads.execute(workload, workload.inputs[0], golden, digests)
        assert result.problems == []
        assert result.samples > 0
