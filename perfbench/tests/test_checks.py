"""Each benchmark check accepts the program's real output and rejects a wrong one.

    python3 -m pytest perfbench/tests -q

The outputs come from small real runs of the workloads (smaller canvases
and fewer trials than the benchmark uses); every rejection test changes
one value the way a faulty program could.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class SmallPaired(workloads.PairedRun):
    H, W, SCENES, TRIALS = 16, 12, 2, 2
    items = 2 * TRIALS


class SmallInner(workloads.InnerRepelFullMask):
    H, W, SCENES, TRIALS = 12, 8, 1, 1
    items = 2 * TRIALS


class SmallAblation(workloads.AblationPipeline):
    TRIALS = 1
    items = 2 * TRIALS + 16 * TRIALS


class SmallVtid(workloads.VtidRandom):
    H, W, SCENES = 24, 18, 3
    items = SCENES * len(workloads.VtidRandom.LEVELS)
    RECOMPUTED_SCENES = 1


def _first_pass(cls, tmp_path, seed=3):
    work = cls(seed, tmp_path)
    with workloads.quiet():
        work.setup()
        capture = workloads.EnergyCapture(keep_maps=work.keep_maps)
        with capture:
            work.run_pass()
    return work, capture


@pytest.fixture(scope="module")
def paired(tmp_path_factory):
    return _first_pass(SmallPaired, tmp_path_factory.mktemp("paired"))


@pytest.fixture(scope="module")
def inner(tmp_path_factory):
    return _first_pass(SmallInner, tmp_path_factory.mktemp("inner"))


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    return _first_pass(SmallAblation, tmp_path_factory.mktemp("ablation"))


@pytest.fixture(scope="module")
def vtid_run(tmp_path_factory):
    return _first_pass(SmallVtid, tmp_path_factory.mktemp("vtid"))


def _scaled(text: str, factor: float) -> str:
    return repr(float(text) * factor)


# -- paired runs ---------------------------------------------------------------


def _check_paired(rows):
    e = workloads.SAMPLER_CONFIG["energy"]
    checks.check_trajectory_rows(rows, SmallPaired.TRIALS, 20, e["lam"])
    checks.check_energies_from_fractions(rows, e["epsilon_den"])


def test_paired_rows_pass(paired):
    work, _ = paired
    _check_paired(work._rows())


@pytest.mark.parametrize("column", ["e_repel", "e_attract", "e_total"])
def test_paired_rejects_perturbed_energy(paired, column):
    rows = copy.deepcopy(paired[0]._rows())
    rows[7][column] = _scaled(rows[7][column], 1.0 + 1e-9)
    with pytest.raises(checks.CheckError, match=r"row 7"):
        _check_paired(rows)


def test_paired_rejects_reordered_rows(paired):
    rows = copy.deepcopy(paired[0]._rows())
    rows[3], rows[4] = rows[4], rows[3]
    with pytest.raises(checks.CheckError, match="order"):
        _check_paired(rows)


def test_paired_rejects_nonfinite_value(paired):
    rows = copy.deepcopy(paired[0]._rows())
    rows[5]["in_mask_fraction_half"] = "nan"
    with pytest.raises(checks.CheckError, match="non-finite"):
        _check_paired(rows)


def test_paired_rejects_gradient_in_baseline_arm(paired):
    rows = copy.deepcopy(paired[0]._rows())
    i = next(n for n, r in enumerate(rows) if r["arm"] == "baseline")
    rows[i]["grad_norm"] = "1e-300"
    with pytest.raises(checks.CheckError, match="baseline grad_norm"):
        _check_paired(rows)


def test_paired_rejects_missing_gradient_in_csc_arm(paired):
    rows = copy.deepcopy(paired[0]._rows())
    i = next(n for n, r in enumerate(rows) if r["arm"] == "csc")
    rows[i]["grad_norm"] = "0.0"
    with pytest.raises(checks.CheckError, match="csc grad_norm"):
        _check_paired(rows)


def test_summary_direction_rejects_wrong_signs():
    good = {"delta": {"final_in_mask_fraction_full": 0.01, "final_e_attract": -0.5}}
    checks.check_summary_direction(good)
    for key, value in (("final_in_mask_fraction_full", 0.0), ("final_e_attract", 0.0)):
        bad = copy.deepcopy(good)
        bad["delta"][key] = value
        with pytest.raises(checks.CheckError):
            checks.check_summary_direction(bad)


# -- full-mask runs ----------------------------------------------------------


def test_inner_run_passes(inner):
    work, capture = inner
    work.check(capture)


def test_inner_rejects_perturbed_repel(inner):
    work, capture = inner
    rows = copy.deepcopy(work._rows())
    rows[2]["e_repel"] = _scaled(rows[2]["e_repel"], 1.0 + 1e-10)
    recomputed = {
        key: [checks.inner_repel_of_call(maps, masks, 0.01, 0.02) for maps, masks, _ in calls]
        for key, calls in zip([(0, "csc"), (0, "baseline")], capture.trajectories)
    }
    checks.check_recorded_repel(work._rows(), recomputed)
    with pytest.raises(checks.CheckError, match="recomputed hinge"):
        checks.check_recorded_repel(rows, recomputed)


@pytest.mark.parametrize("column,value,message", [
    ("branch", "inner|outer", "not inner"),
    ("e_attract", "1e-300", "is not 0"),
    ("in_mask_fraction_full", "0.9999999", "is not 1"),
])
def test_inner_rejects_non_full_mask_rows(inner, column, value, message):
    rows = copy.deepcopy(inner[0]._rows())
    checks.check_inner_rows(rows)
    rows[1][column] = value
    with pytest.raises(checks.CheckError, match=message):
        checks.check_inner_rows(rows)


def test_hinge_mean_matches_dense_definition_with_ties():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 40):
        values = rng.choice([0.0, 0.01, 0.015, 0.03, 0.0301], size=n) + (rng.random(n) < 0.3) * 0.005
        dense = sum(max(0.0, 0.02 - abs(a - b))
                    for (p, a), (q, b) in itertools.product(enumerate(values), repeat=2)
                    if p != q) / n
        assert math.isclose(checks.hinge_mean(values, 0.02), dense, rel_tol=1e-13, abs_tol=0)


# -- ablation pipeline ----------------------------------------------------------


def _sweeps(work):
    return {kind: checks.read_csv(work.out / "sweeps" / f"sweep_{kind}.csv")
            for kind in checks.SWEEP_GRIDS}


def _summary(work):
    return checks.read_json(work.out / "run" / "summary.json")


def test_ablation_outputs_pass(ablation):
    work, capture = ablation
    work.check(capture)


def test_ablation_rejects_reordered_sweep_row(ablation):
    sweeps = _sweeps(ablation[0])
    rows = sweeps["guidance"]
    rows[1], rows[2] = rows[2], rows[1]
    with pytest.raises(checks.CheckError, match="grid"):
        checks.check_sweeps(sweeps, _summary(ablation[0]))


@pytest.mark.parametrize("kind,index", [("scale_factor", 0), ("scale_factor", 4),
                                         ("guidance", 2), ("layers", 0)])
def test_ablation_rejects_sweep_row_off_by_one_ulp(ablation, kind, index):
    sweeps = _sweeps(ablation[0])
    row = sweeps[kind][index]
    row["mean_final_in_mask_fraction_full"] = repr(
        math.nextafter(float(row["mean_final_in_mask_fraction_full"]), 1.0))
    with pytest.raises(checks.CheckError, match="bit-equal"):
        checks.check_sweeps(sweeps, _summary(ablation[0]))


def test_ablation_rejects_nonzero_composite_score(ablation):
    doc = checks.read_json(ablation[0].out / "bench" / "vtid.json")
    checks.check_zero_vtid(doc)
    doc["samples"][1]["vtid"] = 5e-324
    with pytest.raises(checks.CheckError, match="sample 1"):
        checks.check_zero_vtid(doc)


# -- VTID scoring ----------------------------------------------------------------


def test_vtid_outputs_pass(vtid_run):
    work, capture = vtid_run
    work.check(capture)


def test_vtid_rejects_nonzero_composite_score(vtid_run):
    work, _ = vtid_run
    doc = checks.read_json(work.out / "vtid.json")
    doc["samples"][0]["vtid"] = 1e-12
    with pytest.raises(checks.CheckError, match="uncorrupted"):
        checks.check_vtid_levels(doc, work.levels)


def test_vtid_rejects_scores_unordered_by_level(vtid_run):
    work, _ = vtid_run
    doc = checks.read_json(work.out / "vtid.json")
    scores = [s["vtid"] for s in doc["samples"]]
    positive = sorted((s for s in scores if s > 0), reverse=True)
    it = iter(positive)
    for s in doc["samples"]:
        if s["vtid"] > 0:
            s["vtid"] = next(it)
    with pytest.raises(checks.CheckError, match="Spearman"):
        checks.check_vtid_levels(doc, work.levels)


@pytest.mark.parametrize("field", ["human_dist", "clothing_dist"])
def test_vtid_rejects_score_off_from_recomputation(vtid_run, field):
    work, _ = vtid_run
    doc = checks.read_json(work.out / "vtid.json")
    doc["samples"][3][field] *= 1.0 + 1e-10
    banks = _banks(work)
    with pytest.raises(checks.CheckError, match=f"sample 3: {field}"):
        checks.check_vtid_recomputed(doc, work.manifest, [3], banks)


def _banks(work):
    from tryonlab.rng import RandomStream

    root = RandomStream(work.FEATURE_SEED).child("vtid-features")
    return [root.child(f"scale-{s}").normals(work.FEATURE_CHANNELS * 27)
            .reshape(work.FEATURE_CHANNELS, 3, 3, 3) / 3.0
            for s in range(1, work.FEATURE_SCALES + 1)]


def test_spearman_known_values():
    assert checks.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert checks.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert checks.spearman([0, 0, 1, 1], [0, 0, 5, 5]) == pytest.approx(1.0)


# -- byte identity and tracing -------------------------------------------------


def test_tree_digest_sees_one_changed_byte(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "f.csv").write_bytes(b"1.0,2.0\n")
    before = checks.tree_digest(tmp_path)
    (tmp_path / "a" / "f.csv").write_bytes(b"1.0,2.1\n")
    assert checks.tree_digest(tmp_path) != before


def test_tracer_restores_every_binding_and_keeps_outputs(tmp_path):
    import tryonlab.cli as cli
    import tryonlab.grids as grids
    import tryonlab.sampler as sampler

    originals = (cli.build_model, sampler.ancestral_step, grids.Grid.__init__)
    work = SmallPaired(4, tmp_path)
    with workloads.quiet():
        work.setup()
        work.run_pass()
        untraced = work.digest()
        tracer = Tracer()
        tracer.install()
        try:
            items = tracer.run_pass(work.run_pass)
        finally:
            tracer.uninstall()
    assert (cli.build_model, sampler.ancestral_step, grids.Grid.__init__) == originals
    assert work.digest() == untraced
    layers = tracer.metrics(items, [1.0], [1.0], tracer.counts, 0.0)
    assert layers["sampler.steps"]["value"] == 20
    assert layers["denoiser.predict_null.calls"]["value"] == 20
    assert layers["denoiser.attention_vjp.calls"]["value"] == 10  # csc arm only
    assert layers["energy.inner_share"]["value"] < 1.0


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.spans = [
        ("pass", -1, 0, 1000),
        ("cli.run", 0, 100, 900),
        ("kernels.softplus", 1, 200, 300),
        ("kernels.softplus", 1, 400, 450),
    ]
    layers = tracer.metrics(1, [1e-6], [1e-6], tracer.counts, 0.0)
    assert layers["kernels.softplus.us"]["value"] == pytest.approx(0.075)
    assert layers["kernels.softplus.calls"]["value"] == 2
    assert layers["cli.run.s"]["value"] == pytest.approx(800e-9)
    assert layers["trace.layer_sum_pct"]["value"] == pytest.approx(80.0)
