"""scripts/bench.py's summaries, against statistics and by hand."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

METRICS = {"items_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}
RATES = [80.9, 72.2, 84.2, 79.9, 86.0, 78.4, 81.1]


def run(workload, seed, rate, rss, setup, correct=True, failed=0):
    return {
        "workload": workload, "seed": seed, "correct": correct, "attempted": 16,
        "failed": failed,
        "metrics": {"items_per_s": {"value": rate, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"},
                    "setup_s": {"value": setup, "unit": "s"}},
    }


def test_summary_matches_statistics():
    q1, _, q3 = statistics.quantiles(RATES, n=4)
    assert bench.summarise(RATES) == {
        "median": statistics.median(RATES), "q1": q1, "q3": q3, "n": len(RATES)}
    assert bench.summarise([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}


def test_runs_summarise_per_workload():
    runs = [run("a", s, r, 38.0 + s, 0.2) for s, r in enumerate(RATES, 1)]
    runs += [run("b", 1, 10.0, 40.0, 0.3, correct=False, failed=4), run("b", 2, 12.0, 41.0, 0.3)]
    got = bench.summarise_runs(runs, METRICS)
    assert list(got) == ["a", "b"]
    assert got["a"]["metrics"]["items_per_s"] == bench.summarise(RATES)
    assert got["a"]["metrics"]["peak_rss_mb"]["median"] == statistics.median(
        [38.0 + s for s in range(1, 8)])
    assert got["a"]["correct"] and got["a"]["failed_share"] == 0.0
    assert not got["b"]["correct"] and got["b"]["failed_share"] == 4 / 32


@pytest.mark.parametrize(
    "better, before, after, gain",
    [("higher", 100.0, 110.0, 0.1), ("higher", 100.0, 90.0, -0.1),
     ("lower", 40.0, 38.0, 0.05), ("lower", 40.0, 42.0, -0.05)],
)
def test_the_change_is_signed_by_the_better_direction(better, before, after, gain):
    assert bench.signed_change(before, after, better) == pytest.approx(gain)


def test_deltas_against_the_previous_summary():
    before = bench.summarise_runs([run("a", s, 100.0, 40.0, 0.2) for s in (1, 2)], METRICS)
    after = bench.summarise_runs([run("a", s, 125.0, 41.0, 0.1) for s in (1, 2)]
                                 + [run("new", 1, 1.0, 1.0, 1.0)], METRICS)
    got = bench.deltas(before, after, METRICS)
    assert list(got) == ["a"]  # a workload the previous file lacks has no delta
    assert got["a"]["items_per_s"] == {"from": 100.0, "to": 125.0, "gain": 0.25}
    assert got["a"]["peak_rss_mb"]["gain"] == pytest.approx(-0.025)
    assert got["a"]["setup_s"]["gain"] == pytest.approx(0.5)


def test_pairs_are_counted_by_seed_and_direction():
    parent = [run("a", s, r, 40.0, 0.2) for s, r in zip((1, 2, 3), (100.0, 100.0, 100.0))]
    head = [run("a", s, r, rss, 0.2) for s, r, rss in zip((3, 1, 2), (90.0, 110.0, 100.0),
                                                          (39.0, 41.0, 40.0))]
    got = bench.paired_deltas(parent, head, METRICS)["a"]
    assert got["items_per_s"] == {"won": 1, "lost": 1, "tied": 1}
    assert got["peak_rss_mb"] == {"won": 1, "lost": 1, "tied": 1}
    assert got["setup_s"] == {"won": 0, "lost": 0, "tied": 3}


def test_next_index_follows_the_highest_file(tmp_path):
    assert bench.next_index(tmp_path) == (1, None)
    for name in ("BENCH_1.json", "BENCH_10.json", "BENCH_2.json", "BENCH_x.json"):
        (tmp_path / name).write_text(json.dumps({}), encoding="utf-8")
    assert bench.next_index(tmp_path) == (11, tmp_path / "BENCH_10.json")


def bad_run(workload, seed, exit_code=2):
    """What _run records for a run that printed no result line."""
    return {"workload": workload, "seed": seed, "correct": False, "attempted": 0, "failed": 0,
            "metrics": {}, "exit": exit_code, "stderr": ["error: no pass completed"]}


def test_a_run_without_a_result_is_summarised_from_the_others():
    lacks_rss = run("a", 3, RATES[2], 0.0, 0.2)
    del lacks_rss["metrics"]["peak_rss_mb"]
    runs = [run("a", 1, RATES[0], 39.0, 0.2), bad_run("a", 2), lacks_rss,
            bad_run("only-bad", 1)]
    got = bench.summarise_runs(runs, METRICS)
    assert not got["a"]["correct"] and got["a"]["runs"] == 3
    assert got["a"]["failed_share"] == 0.0
    assert got["a"]["metrics"]["items_per_s"] == bench.summarise(RATES[:1] + RATES[2:3])
    assert got["a"]["metrics"]["peak_rss_mb"] == bench.summarise([39.0])
    assert got["only-bad"] == {"runs": 1, "correct": False, "failed_share": None, "metrics": {}}
    parent = [run("a", s, 100.0, 40.0, 0.2) for s in (1, 2, 3)]
    pairs = bench.paired_deltas(parent, runs, METRICS)["a"]
    assert pairs["items_per_s"] == {"won": 0, "lost": 2, "tied": 0}
    assert pairs["peak_rss_mb"] == {"won": 1, "lost": 0, "tied": 0}


@pytest.mark.parametrize(
    "code, stdout, metrics",
    [(2, "", {}),
     (1, json.dumps({"correct": False, "attempted": 16, "failed": 0,
                     "metrics": {"items_per_s": {"value": 1.5, "unit": "1/s"}}}),
      {"items_per_s": {"value": 1.5, "unit": "1/s"}})],
    ids=["no-result", "incorrect-result"],
)
def test_a_run_that_exits_non_zero_is_recorded(monkeypatch, tmp_path, code, stdout, metrics):
    stderr = "\n".join(f"line {i}" for i in range(30))
    monkeypatch.setattr(bench.subprocess, "run", lambda argv, **kw: subprocess.CompletedProcess(
        argv, code, stdout=stdout, stderr=stderr))
    got = bench._run(tmp_path, "a", 4, 1.0)
    assert got["correct"] is False and got["exit"] == code
    assert got["stderr"] == [f"line {i}" for i in range(10, 30)]
    assert got["metrics"] == metrics
    assert (got["workload"], got["seed"]) == ("a", 4)


def test_a_bad_run_does_not_throw_the_others_away(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": m, "better": b} for m, b in METRICS.items()]}),
        encoding="utf-8")
    seen = []

    def stub(checkout, workload, seed, seconds):
        seen.append((workload, seed))
        if (workload, seed) == ("a", 2):
            return bad_run(workload, seed)
        return run(workload, seed, 10.0 * seed, 40.0, 0.2)

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_run", stub)
    monkeypatch.setattr("sys.argv", ["bench.py", "--seeds", "1-3"])
    assert bench.main() == 0
    assert seen == [(w, s) for w in ("a", "b") for s in (1, 2, 3)]
    doc = json.loads((tmp_path / "BENCH_1.json").read_text(encoding="utf-8"))
    assert len(doc["runs"]) == 6 and doc["runs"][1]["exit"] == 2
    assert not doc["workloads"]["a"]["correct"] and doc["workloads"]["b"]["correct"]
    assert doc["workloads"]["a"]["metrics"]["items_per_s"] == bench.summarise([10.0, 30.0])


# Parent runs whose quartile spread (q3 - q1) is 11.5 items per second.
SPREAD = [95.0, 90.0, 110.0, 100.0, 105.0, 92.0, 108.0, 98.0, 102.0, 100.0]


def rule(parent_rates, head_rates, better="higher"):
    parent = [run("a", s, r, 40.0, 0.2) for s, r in enumerate(parent_rates, 1)]
    head = [run("a", s, r, 40.0, 0.2) for s, r in enumerate(head_rates, 1)]
    wins = bench.paired_deltas(parent, head, METRICS)["a"]["items_per_s"]
    return bench.claim_rule(wins, bench.summarise(parent_rates), bench.summarise(head_rates),
                            better)


def test_a_win_in_every_pair_inside_the_parents_spread_is_not_met():
    got = rule(SPREAD, [r + 1.0 for r in SPREAD])
    assert got == {"won_nine_tenths": True, "gap": 1.0, "parent_iqr": 11.5,
                   "gap_exceeds_iqr": False, "claim": "not met"}


@pytest.mark.parametrize(
    "lost, gap, won, met",
    [(0, 20.0, True, True), (1, 20.0, True, True), (2, 20.0, False, False),
     (0, 11.0, True, False)],
    ids=["10-of-10", "9-of-10", "8-of-10", "inside-spread"],
)
def test_the_rule_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread(lost, gap, won, met):
    head = [r + gap for r in SPREAD]
    for i in range(lost):  # each lost pair stays below its parent run
        head[i] = SPREAD[i] - 1.0
    got = rule(SPREAD, head)
    assert got["won_nine_tenths"] is won and got["gap_exceeds_iqr"] is (gap > 11.5)
    assert got["claim"] == ("met" if met else "not met")


def test_a_tie_counts_for_neither_side_and_lower_is_better_is_signed():
    wins = {"won": 9, "lost": 0, "tied": 1}
    parent, head = bench.summarise([40.0, 41.0, 42.0]), bench.summarise([30.0, 30.5, 31.0])
    got = bench.claim_rule(wins, parent, head, "lower")
    q1, _, q3 = statistics.quantiles([40.0, 41.0, 42.0], n=4)
    assert got["gap"] == 10.5 and got["parent_iqr"] == q3 - q1 == 2.0 and got["claim"] == "met"
    assert bench.claim_rule({"won": 8, "lost": 0, "tied": 2}, parent, head, "lower")[
        "claim"] == "not met"
    assert bench.claim_rule({"won": 0, "lost": 0, "tied": 0}, parent, head, "lower")[
        "claim"] == "not met"
    assert bench.claim_rule(wins, parent, head, "higher")["gap"] == -10.5


def test_the_head_file_records_the_rule_per_workload_and_metric(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "a"}],
        "end_to_end": [{"name": m, "better": b} for m, b in METRICS.items()]}),
        encoding="utf-8")
    parent_dir = tmp_path / "parent"

    def stub(checkout, workload, seed, seconds):
        rate = SPREAD[seed - 1] + (0.0 if checkout == parent_dir else 1.0)
        return run(workload, seed, rate, 40.0 if checkout == parent_dir else 30.0, 0.2)

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_run", stub)
    monkeypatch.setattr("sys.argv", ["bench.py", "--parent", str(parent_dir), "--seeds", "1-10"])
    assert bench.main() == 0
    assert json.loads((tmp_path / "BENCH_1.json").read_text(encoding="utf-8"))["delta"] == {}
    delta = json.loads((tmp_path / "BENCH_2.json").read_text(encoding="utf-8"))["delta"]["a"]
    assert delta["items_per_s"]["pairs"] == {"won": 10, "lost": 0, "tied": 0}
    assert delta["items_per_s"]["rule"]["claim"] == "not met"
    assert delta["items_per_s"]["rule"]["won_nine_tenths"] is True
    assert delta["peak_rss_mb"]["rule"] == {"won_nine_tenths": True, "gap": 10.0,
                                            "parent_iqr": 0.0, "gap_exceeds_iqr": True,
                                            "claim": "met"}
    assert delta["setup_s"]["rule"]["claim"] == "not met"
