"""dubinsim benchmark: seeded HEOL/MFPC sweeps and a single CLI run.

    python3 benchmarks/run.py --workload sweep-heol --seed 1 --seconds 30 --trace 0

Workloads: sweep-heol, sweep-mfpc, cli-run (see workloads.py).  The load is
one closed loop in a single process and thread: the next operation starts
when the previous one returns.  Every operation is checked against
golden.json and against the first repeat of the same input.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics, including the tracing overhead.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics; the
full result, with the environment and the traced spans, is also written to
.bench_work/ at the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported; set-up probes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_OPS = 100        # op_s.p90 needs at least ten samples beyond it
MAX_SECONDS = 120.0  # stop measuring here even below MIN_OPS

END_TO_END_UNITS = {"steps_per_s.p10": "1/s", "op_s.p90": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
# Printed with the result but not gated: they follow the host's load.
UNGATED_UNITS = {"steps_per_s": "1/s", "op_s.p50": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in tracing.SPANS:
        units[f"{span.name}.calls"] = "count"
        units[f"{span.name}.self_s"] = "s"
        units[f"{span.name}.self_share"] = "ratio"
    units["reference.build_reference.calls_per_run"] = "calls/run"
    units["avoidance.path_crosses_zone.hit_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    units["failed_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": workloads.np.__version__, "git_commit": _git_commit(),
            "seed": seed, "blas_threads": os.environ["OMP_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# Measurement


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports dubinsim, builds
    the workload's inputs and makes one untimed warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds times up to 50 ms.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(wl, golden, seconds: float, digests: dict) -> tuple[dict, list]:
    """Untraced closed loop over the inputs for ``seconds`` (and MIN_OPS ops).

    Outside load on a shared host slows the CPU by up to half in stretches of
    a few seconds, so operation times are bimodal.  The mean throughput and
    the median follow the share of fast stretches in a run and moved by more
    than 25% between seeds; the loaded level is steady.  The gated metrics
    therefore read the slow end of the distribution: the throughput that 90%
    of operations reach, and the 90th-percentile operation time.
    """
    ops = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(ops) >= MIN_OPS):
            break
        ops.append(workloads.execute(wl, wl.inputs[len(ops) % len(wl.inputs)],
                                     golden, digests))
    times = [op.seconds for op in ops]
    metrics = {
        "steps_per_s.p10": statistics.quantiles([op.samples / op.seconds for op in ops],
                                                n=10)[0],
        "op_s.p90": statistics.quantiles(times, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_per_s": sum(op.samples for op in ops) / sum(times),
        "op_s.p50": statistics.median(times),
    }
    return metrics, ops


def trace(wl, golden, seconds: float, digests: dict) -> tuple[dict, list, list, list]:
    """Pairs of an untraced and a traced pass over all inputs, for
    ``seconds`` and at least two pairs, so exact counts can be compared."""
    ops, passes, problems = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start < min(seconds, MAX_SECONDS)):
        plain = [workloads.execute(wl, inp, golden, digests) for inp in wl.inputs]
        tracer = tracing.Tracer()
        traced = []
        with tracer:
            for i, inp in enumerate(wl.inputs):
                tracer.op = i
                traced.append(workloads.execute(wl, inp, golden, digests))
        ops += plain + traced
        passes.append((sum(op.seconds for op in plain), sum(op.seconds for op in traced),
                       tracer))

    totals = [tracer.by_name() for _, _, tracer in passes]
    for i, other in enumerate(totals[1:], start=2):
        for name, rec in other.items():
            if (rec[0], rec[3]) != (totals[0][name][0], totals[0][name][3]):
                problems.append(f"{name}: traced pass {i} counts {rec[0]} calls "
                                f"({rec[3]} returning), pass 1 counts {totals[0][name][0]} "
                                f"({totals[0][name][3]})")
    traced_wall = statistics.median(t for _, t, _ in passes)
    metrics = {}
    for span in tracing.SPANS:
        self_s = statistics.median(t[span.name][2] for t in totals)
        metrics[f"{span.name}.calls"] = totals[0][span.name][0]
        metrics[f"{span.name}.self_s"] = self_s
        metrics[f"{span.name}.self_share"] = self_s / traced_wall
    first = totals[0]
    metrics["reference.build_reference.calls_per_run"] = (
        first["reference.build_reference"][0] / first["harness.run_scenario"][0])
    scans, hits = first["avoidance.path_crosses_zone"][0], first["avoidance.path_crosses_zone"][3]
    metrics["avoidance.path_crosses_zone.hit_ratio"] = hits / scans if scans else 0.0
    metrics["trace.overhead_s"] = statistics.median(
        (t - p) / len(wl.inputs) for p, t, _ in passes)
    metrics["trace.overhead_share"] = statistics.median((t - p) / p for p, t, _ in passes)
    spans = [{"pass": k, "op": op, "name": name, "parent": parent,
              "start_s": s, "duration_s": d}
             for k, (_, _, tracer) in enumerate(passes, start=1)
             for op, name, parent, s, d in tracer.spans]
    aggregated = [{"pass": k, "name": name, "parent": parent, "calls": rec[0],
                   "total_s": rec[1], "self_s": rec[2]}
                  for k, (_, _, tracer) in enumerate(passes, start=1)
                  for (name, parent), rec in sorted(tracer.totals.items())]
    return metrics, ops, problems, spans + aggregated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        golden = workloads.load_golden(args.workload)
        digests = {}
        warm = workloads.execute(wl, wl.inputs[0], golden, digests)
        if args.setup_probe:  # the parent process reports correctness
            return 0
        problems = list(warm.problems)
        if args.trace:
            metrics, ops, count_problems, spans = trace(wl, golden, args.seconds, digests)
            problems += count_problems
        else:
            metrics, ops = measure(wl, golden, args.seconds, digests)
            spans = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)

    for op in ops:
        problems += op.problems
    runs = sum(op.runs for op in ops)
    failed_frac = sum(op.failed_runs for op in ops) / runs
    golden_frac = sum(run["aborted"] for op in ops for run in golden[op.key]) / runs
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    if args.trace:
        metrics["failed_frac"] = failed_frac
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(args.seed)
    record = dict(result, workload=args.workload, trace=args.trace, environment=env,
                  all_metrics=metrics,
                  failed_frac=failed_frac, golden_failed_frac=golden_frac, runs=runs,
                  problems=problems, spans=spans)
    with open(WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    print(f"workload {args.workload}, {len(ops)} operations, "
          f"environment {json.dumps(env, sort_keys=True)}")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:.6g} {unit}")
    if not args.trace:
        for name, unit in UNGATED_UNITS.items():
            print(f"  {name:<48} {metrics[name]:.6g} {unit} (not gated)")
    print(f"  failed_frac {failed_frac:.6g} over {runs} runs (golden {golden_frac:.6g})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
