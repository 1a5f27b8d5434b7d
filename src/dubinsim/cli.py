"""Command-line front end.

    dubinsim run     --config scenario.json [--out DIR] [--name NAME]
    dubinsim sweep   --config scenario.json --runs N [--seed S] [--out DIR]
                     [--randomize obstacles,noise,perturbation]
    dubinsim compare --a a.json --b b.json [--out DIR]

The default output directory comes from $DUBINSIM_OUT (falling back to
./dubinsim-out).  Exit codes: 0 success, 1 at least one aborted run,
2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .errors import ConfigError, DubinsimError
from .harness import emit, emit_sweep, run_scenario, run_sweep
from .scenario import ScenarioConfig, check_file_name, check_name, write_json


def _default_out() -> str:
    return os.environ.get("DUBINSIM_OUT", "dubinsim-out")


@functools.cache   # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dubinsim",
        description="Deterministic Dubins-car tracking and obstacle-avoidance simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario, emit CSV + summary")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--name", default=None, help="override the output file stem")

    p_sweep = sub.add_parser("sweep", help="run seeded variants and aggregate metrics")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--runs", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="base seed (default: config seed)")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--randomize", default="obstacles,noise,perturbation",
                         help="comma list of aspects to vary per run")

    p_cmp = sub.add_parser("compare", help="run two configs and report metric deltas")
    p_cmp.add_argument("--a", required=True)
    p_cmp.add_argument("--b", required=True)
    p_cmp.add_argument("--out", default=None)
    return parser


def _cmd_run(args) -> int:
    if args.name is not None:
        check_name(args.name)
    cfg = ScenarioConfig.from_file(args.config)
    result = run_scenario(cfg)
    out = args.out or _default_out()
    csv_path, summary_path = emit(result, out, name=args.name)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    if result.aborted:
        print(f"run aborted: {result.abort_reason}", file=sys.stderr)
        return 1
    print(f"rms_tracking = {result.metrics['rms_tracking']:.6g} m")
    return 0


def _cmd_sweep(args) -> int:
    cfg = ScenarioConfig.from_file(args.config)
    randomize = tuple(s for s in args.randomize.split(",") if s)
    report = run_sweep(cfg, args.runs, seed=args.seed, randomize=randomize)
    out = args.out or _default_out()
    path = emit_sweep(report, out)
    print(f"wrote {path}")
    print(f"{report.n_runs} runs, {len(report.aborted_runs)} aborted, "
          f"{report.safety_violations} safety violations")
    return 1 if report.aborted_runs else 0


def _cmd_compare(args) -> int:
    cfg_a = ScenarioConfig.from_file(args.a)
    cfg_b = ScenarioConfig.from_file(args.b)
    file_name = f"compare_{cfg_a.name}_vs_{cfg_b.name}.json"
    check_file_name(file_name)
    res_a = run_scenario(cfg_a)
    res_b = run_scenario(cfg_b)
    deltas = {}
    for key, va in res_a.metrics.items():
        vb = res_b.metrics.get(key)
        if isinstance(va, float) and isinstance(vb, float) \
                and math.isfinite(va) and math.isfinite(vb):
            deltas[key] = vb - va
    doc = {
        "a": {"name": cfg_a.name, "metrics": res_a.metrics,
              "aborted": res_a.aborted},
        "b": {"name": cfg_b.name, "metrics": res_b.metrics,
              "aborted": res_b.aborted},
        "delta_b_minus_a": deltas,
    }
    out = args.out or _default_out()
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, file_name)
    write_json(path, doc)
    print(f"wrote {path}")
    for key, dv in sorted(deltas.items()):
        print(f"  {key}: {dv:+.6g}")
    return 1 if (res_a.aborted or res_b.aborted) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except DubinsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
