"""Tests of the benchmark itself: span coverage, exact counts, checks.

    python3 -m pytest benchmarks
"""

import json

import pytest

import run
import tracing
import workloads

SEED = 7


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced_twice(request, tmp_path_factory):
    """Two independent traced runs of one workload on the same seed."""
    name = request.param
    golden = workloads.load_golden(name)
    runs = []
    for _ in range(2):
        workdir = tmp_path_factory.mktemp(name)
        wl = workloads.make(name, SEED, workdir)
        metrics, ops, problems, _spans = run.trace(wl, golden, 0.0, {})
        runs.append((metrics, [p for op in ops for p in op.problems] + problems))
    return name, runs


def test_traced_runs_are_correct(traced_twice):
    _, runs = traced_twice
    for _, problems in runs:
        assert problems == []


def test_span_coverage(traced_twice):
    name, runs = traced_twice
    metrics = runs[0][0]
    for span in tracing.SPANS:
        calls = metrics[f"{span.name}.calls"]
        if name in span.active_on:
            assert calls > 0, f"{span.name} predicted active on {name}"
        else:
            assert calls == 0, f"{span.name} predicted idle on {name}"


def test_exact_counts_repeat(traced_twice):
    _, ((first, _), (second, _)) = traced_twice
    exact = [k for k in first if k.endswith(".calls")] + [
        "reference.build_reference.calls_per_run", "avoidance.path_crosses_zone.hit_ratio"]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_stale_binding_fails_at_install():
    stale = tracing.Span("model.measure", (("dubinsim.harness", "measure"),
                                           ("dubinsim.harness", "no_such_name")),
                         tracing.ALL, True)
    original = workloads.harness.measure
    with pytest.raises(KeyError):
        with tracing.Tracer(spans=(stale,)):
            pass
    assert workloads.harness.measure is original


def test_compare_tolerance():
    run_record = {"aborted": False, "sides": ["right"], "rms_tracking": 0.05,
                  "min_clearance": [1.0]}
    outcome = workloads.Outcome(runs=[dict(run_record)], safety_violations=0,
                                samples=2001, digest="")
    near = dict(run_record, rms_tracking=0.05 * (1 + 1e-10))
    far = dict(run_record, rms_tracking=0.05 * (1 + 1e-8))
    assert workloads.compare(outcome, [near]) == []
    assert workloads.compare(outcome, [far])
    assert workloads.compare(outcome, [dict(run_record, sides=["left"])])
    assert workloads.compare(outcome, [run_record, run_record])
    unsafe = workloads.Outcome(runs=[run_record], safety_violations=1, samples=2001, digest="")
    assert workloads.compare(unsafe, [run_record])


def test_inputs_follow_the_seed(tmp_path):
    for name in workloads.NAMES:
        a = workloads.make(name, SEED, tmp_path)
        b = workloads.make(name, SEED, tmp_path)
        assert [i.key for i in a.inputs] == [i.key for i in b.inputs]
        assert [i.key for i in a.inputs] != [i.key for i in
                                             workloads.make(name, SEED + 1, tmp_path).inputs]
    assert workloads.cli_scenario(3) == workloads.cli_scenario(3)


def test_benchmark_json_lists_the_reported_metrics():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
