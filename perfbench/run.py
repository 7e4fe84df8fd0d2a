#!/usr/bin/env python3
"""Benchmark of the tryonlab sampler (with the CSC correction) and of VTID scoring.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in fresh
single-threaded interpreters (``worker.py``): a few that only set up,
to time set-up, then one that sets up, checks the outputs of a first
pass and times passes for S seconds. The last line printed is one JSON
object: ``correct``, ``attempted`` and ``failed`` work items, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), each with its unit. Inputs are written under
``.perfbench_runs/`` in the checkout and removed at the end; a traced
run keeps its span file there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("paired_48x36", "inner_repel_full_mask", "ablation_24x18", "vtid_random_48x36")
REQUIRED = (ROOT / "src" / "tryonlab" / "cli.py", ROOT / "scripts" / "reproduce_ablations.py")
# Fresh set-ups per run: the first, untimed, compiles the bytecode and warms
# the file cache; setup_s is the median of the others and of the measuring
# worker's own set-up. Set-up time is not calibrated: it is mostly imports,
# whose time follows the calibration loop less closely than the passes do.
SETUPS = 6
DEADLINE_S = 170.0
ONE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Run worker.py; returns (seconds until its 'ready' line, rest of its stdout)."""
    env = {**os.environ, **ONE_THREAD}
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} passed the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode} during set-up")
    return ready, rest


def _result_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"worker result is not JSON: {e}") from e


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a tryonlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        for k in range(SETUPS):
            probe_dir = run_dir / f"setup{k}"
            ready, _ = _worker([*common, "--dir", str(probe_dir), "--setup-only"], deadline)
            if k:
                setups.append(ready)
            shutil.rmtree(probe_dir, ignore_errors=True)
        spans = RUNS / f"spans-{args.workload}-seed{args.seed}.csv"
        ready, stdout = _worker(
            [*common, "--dir", str(run_dir / "measured"), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--spans", str(spans)], deadline)
        setups.append(ready)
        result = _result_line(stdout)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = result["untraced_passes"]
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1
    items = result["items_per_pass"]
    wall = statistics.median(dt for dt, _ in passes)
    print(f"{args.workload}: wall-clock items_per_s {items / wall!r}", file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "items_per_s": {"value": items / statistics.median(ref for _, ref in passes),
                            "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
