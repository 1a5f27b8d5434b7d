"""Record the golden outcome of every pool input into golden.json.

    python3 benchmarks/record_golden.py

Run it only on a commit whose outputs are known good: the benchmark checks
every later commit against these values.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    work_root = workloads.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=work_root))
    golden = {}
    try:
        for name in workloads.NAMES:
            wl = workloads.make(name, 0, workdir, indices=range(workloads.POOL_SIZE))
            golden[name] = {inp.key: wl.outcome(inp, wl.run(inp)).runs for inp in wl.inputs}
            aborted = sum(r["aborted"] for runs in golden[name].values() for r in runs)
            print(f"{name}: {len(golden[name])} inputs, {aborted} aborted runs")
    finally:
        shutil.rmtree(workdir)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
