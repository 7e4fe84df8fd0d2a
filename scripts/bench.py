#!/usr/bin/env python3
"""Run the benchmark over seeds and write the next BENCH_<n>.json.

    python3 scripts/bench.py [--seeds 1-7]
    python3 scripts/bench.py --parent DIR [--seeds 1-10]

Runs ``perfbench/run.py --workload W --seed s --seconds S`` of this
checkout for every BENCHMARK.json workload and seed, one run at a time,
with S the ``run_seconds`` of BENCHMARK.json. It writes ``BENCH_<n>.json``
at the root of this repository, n one above the highest BENCH file there.
The file records the machine, the Python, numpy and BLAS versions, the
measured commit and whether its tree was dirty, every run, and per
workload the median and quartiles of each end-to-end metric, whether
every run was correct, the failed share, and the signed change of each
median against the highest-numbered BENCH file before it. A run that
exits non-zero does not stop the others: it is recorded as incorrect,
with its exit code and the last lines of its stderr.

With ``--parent DIR`` it measures the checkout at DIR and this one in
alternating order, each (workload, seed) pair starting with the other
side than the pair before, and writes two files: the parent's, then this
checkout's, whose deltas also count the pairs that each side won and
record, per workload and metric, whether a gain claim's rule is met: this
checkout won at least nine tenths of the pairs, ties counting for neither,
and its median beats the parent's by more than the parent's quartile
spread. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles with n = 4) of one metric."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def signed_change(before: float, after: float, better: str) -> float:
    """after / before - 1, positive when the metric moved in its better
    direction ("higher" or "lower")."""
    change = after / before - 1.0
    return change if better == "higher" else -change


def pair_wins(before: list[float], after: list[float], better: str) -> dict:
    """How many pairs (before[i], after[i]) after won, lost and tied."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (a - b) for b, a in zip(before, after)]
    return {"won": sum(d > 0 for d in diffs), "lost": sum(d < 0 for d in diffs),
            "tied": sum(d == 0 for d in diffs)}


def claim_rule(wins: dict, parent: dict, head: dict, better: str) -> dict:
    """Whether a gain claim holds on one metric: the head won at least
    nine tenths of the pairs run (ties count for neither), and the gap
    between the medians, signed by the better direction, exceeds the
    parent's quartile spread. parent and head are summarise() results."""
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (head["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    run = wins["won"] + wins["lost"] + wins["tied"]
    won = run > 0 and 10 * wins["won"] >= 9 * run
    return {"won_nine_tenths": won, "gap": gap, "parent_iqr": spread,
            "gap_exceeds_iqr": gap > spread, "claim": "met" if won and gap > spread else "not met"}


def summarise_runs(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload: the summary of each metric over the runs that report
    it, whether every run was correct, and the failed share of attempted
    items (None when no run attempted any)."""
    out = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        attempted = sum(r["attempted"] for r in mine)
        values = {m: [r["metrics"][m]["value"] for r in mine if m in r["metrics"]]
                  for m in metrics}
        out[name] = {
            "runs": len(mine),
            "correct": all(r["correct"] for r in mine),
            "failed_share": sum(r["failed"] for r in mine) / attempted if attempted else None,
            "metrics": {m: summarise(v) for m, v in values.items() if v},
        }
    return out


def deltas(before: dict, after: dict, metrics: dict[str, str]) -> dict:
    """The signed change of each workload's medians from one summary to the next."""
    out = {}
    for name, now in after.items():
        if name not in before:
            continue
        out[name] = {
            m: {"from": before[name]["metrics"][m]["median"], "to": s["median"],
                "gain": signed_change(before[name]["metrics"][m]["median"], s["median"],
                                      metrics[m])}
            for m, s in now["metrics"].items() if m in before[name]["metrics"]
        }
    return out


def paired_deltas(before_runs: list[dict], after_runs: list[dict], metrics: dict) -> dict:
    """Per workload and metric, the pairs that the later side won, by seed."""
    out = {}
    for name in dict.fromkeys(r["workload"] for r in after_runs):
        seeds = {r["seed"]: r for r in before_runs if r["workload"] == name}
        pairs = [(seeds[r["seed"]], r) for r in after_runs
                 if r["workload"] == name and r["seed"] in seeds]
        out[name] = {}
        for m, better in metrics.items():
            both = [(b, a) for b, a in pairs if m in b["metrics"] and m in a["metrics"]]
            out[name][m] = pair_wins([b["metrics"][m]["value"] for b, _ in both],
                                     [a["metrics"][m]["value"] for _, a in both], better)
    return out


def next_index(root: Path) -> tuple[int, Path | None]:
    """The next BENCH number at root and the highest-numbered file, if any."""
    found = {int(m.group(1)): p for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    if not found:
        return 1, None
    top = max(found)
    return top + 1, found[top]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _environment(checkout: Path) -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), "")
    try:  # the build's name, version and configuration, not its install paths
        blas = {k: v for k, v in numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
                .items() if "directory" not in k}
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            numpy.show_config()
        blas = [line.strip() for line in buf.getvalue().splitlines() if "dir" not in line]
    return {
        "machine": {"cores": os.cpu_count(), "cpu": cpu, "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
    }


# The stderr lines that a run which exits non-zero keeps in its record.
_STDERR_LINES = 20


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's result line. A run that exits non-zero is recorded, not
    raised: it is incorrect, keeps its exit code and the tail of its
    stderr, and keeps whatever result line it printed (perfbench/run.py
    prints one, then exits 1, when a pass is incorrect)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    try:
        doc = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        doc.update(correct=False, exit=proc.returncode,
                   stderr=proc.stderr.splitlines()[-_STDERR_LINES:])
    doc.update(workload=workload, seed=seed)
    line = ", ".join(f"{k} {v['value']:.6g}" for k, v in doc["metrics"].items())
    bad = f" (exit {proc.returncode}, correct: false)" if proc.returncode != 0 else ""
    print(f"{checkout.name}: {workload} seed {seed}: {line}{bad}", flush=True)
    return doc


def _write(path: Path, checkout: Path, runs: list[dict], bench: dict, metrics: dict,
           previous: Path | None, paired: list[dict] | None = None) -> None:
    summary = summarise_runs(runs, metrics)
    doc = {
        **_environment(checkout),
        "run_seconds": bench["run_seconds"],
        "workloads": summary,
        "previous": previous.name if previous else None,
        "delta": {},
        "runs": runs,
    }
    if previous:
        before = json.loads(previous.read_text(encoding="utf-8"))
        doc["delta"] = deltas(before["workloads"], summary, metrics)
        if paired is not None:
            pairs = paired_deltas(paired, runs, metrics)
            parent = summarise_runs(paired, metrics)
            for name, per_metric in pairs.items():
                for m, wins in per_metric.items():
                    entry = doc["delta"].setdefault(name, {}).setdefault(m, {})
                    entry["pairs"] = wins
                    before = parent.get(name, {"metrics": {}})["metrics"].get(m)
                    if before and m in summary[name]["metrics"]:
                        entry["rule"] = claim_rule(wins, before, summary[name]["metrics"][m],
                                                   metrics[m])
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-7", help="inclusive range, e.g. 1-10")
    ap.add_argument("--parent", default=None,
                    help="also measure this checkout, alternating, and write its file first")
    args = ap.parse_args()

    parent = Path(args.parent).resolve() if args.parent else None
    seconds = bench["run_seconds"]
    runs: dict[Path, list[dict]] = {ROOT: []} if parent is None else {parent: [], ROOT: []}
    k = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in _seeds(args.seeds):
            order = list(runs) if k % 2 == 0 else list(runs)[::-1]
            for side in order:
                runs[side].append(_run(side, workload, seed, seconds))
            k += 1

    index, previous = next_index(ROOT)
    if parent is not None:
        path = ROOT / f"BENCH_{index}.json"
        _write(path, parent, runs[parent], bench, metrics, previous)
        index, previous = index + 1, path
    _write(ROOT / f"BENCH_{index}.json", ROOT, runs[ROOT], bench, metrics, previous,
           runs[parent] if parent is not None else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
