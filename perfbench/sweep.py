#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Each run is ``perfbench/run.py`` in its own process, with ``run_seconds`` from
BENCHMARK.json. For every workload and metric the summary gives the median,
the quartiles and the spread (quartile distance over the median, the figure
compared with the metric's bound). The summary is printed and written as JSON
(default ``.perfbench_out/sweep.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out" / "sweep.json")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= done.returncode == 0 and result["correct"]
            runs.append(result)
        summary[workload] = {"seeds": args.seeds, "failed": sum(r["failed"] for r in runs), "metrics": {}}
        print(f"{workload}: failed {summary[workload]['failed']} of {sum(r['attempted'] for r in runs)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            summary[workload]["metrics"][name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": values,
            }
            bound = bounds.get(name)
            note = f"  (bound {bound})" if bound is not None else ""
            print(f"  {name:48s} {median:12.6g} {first['unit']:6s} spread {spread:6.3f}{note}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
