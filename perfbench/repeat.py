#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Runs ``perfbench/run.py`` once per seed and workload, one after another,
with the run length from BENCHMARK.json. For each workload and metric it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median next to the metric's bound, plus the share of failed work
items. With ``--trace 1`` it prints the median of each per-layer metric.
The raw results are written to ``.perfbench_runs/repeat-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    results: dict[str, list[dict]] = {}
    for name in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            doc = json.loads(proc.stdout.splitlines()[-1])
            doc["seed"] = seed
            doc["stderr"] = proc.stderr
            doc["elapsed_s"] = time.monotonic() - t0
            results.setdefault(name, []).append(doc)
            print(f"{name} seed {seed} ({doc['elapsed_s']:.1f} s): "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()
                              if args.trace == 0), flush=True)
    out = ROOT / ".perfbench_runs" / f"repeat-{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if not args.trace:
        for docs in results.values():
            for d in docs:
                raw = d["stderr"].split("wall-clock items_per_s ")[-1].split(",")[0]
                d["metrics"]["wall_items_per_s"] = {"value": float(raw), "unit": "1/s"}
    for name, docs in results.items():
        failed = sorted({d["failed"] / d["attempted"] for d in docs})
        print(f"\n{name}: {len(docs)} runs, failed share {failed}, "
              f"attempted {[d['attempted'] for d in docs]}, "
              f"longest run {max(d['elapsed_s'] for d in docs):.1f} s")
        for metric in docs[0]["metrics"]:
            values = [d["metrics"][metric]["value"] for d in docs]
            unit = docs[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            if args.trace or len(values) < 2:
                print(f"  {metric:34s} {med:12.6g} {unit}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:14s} median {med:10.5g} {unit:4s} q1 {q1:10.5g} q3 {q3:10.5g}"
                  f"  spread {spread:6.2%} (bound {bounds.get(metric, 0):.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
