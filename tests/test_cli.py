"""Command-line verbs, config parsing, and batch experiment drivers."""

import csv
import gc
import importlib.util
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tryonlab
import tryonlab.cli as cli
import tryonlab.experiments as experiments
import tryonlab.kernels as kernels
import tryonlab.vtid as vtid
from tryonlab import Grid, RandomStream, SceneImage, grid_write, scene_read, scene_write
from tryonlab.cli import main
from tryonlab.experiments import (
    ConfigError,
    ExperimentConfig,
    config_to_dict,
    load_dataset,
    parse_config,
    read_config,
    resolve_paths,
)
from tryonlab.plotting import METRIC_COLUMNS, escape
from tryonlab.sampler import CSV_HEADER
from tryonlab.scenes import DATASET_ROLES


class TestParseConfig:
    def test_empty_object_gives_defaults(self):
        cfg = parse_config({})
        assert (cfg.model.seed, cfg.model.h, cfg.model.w, cfg.model.channels) == (7, 48, 36, 4)
        assert (cfg.schedule.T, cfg.schedule.beta_1, cfg.schedule.beta_T) == (20, 0.05, 0.3)
        assert cfg.sampler.rho == 0.2
        assert cfg.sampler.guidance_scale == 2.0
        assert cfg.sampler.steps == 20
        assert cfg.sampler.energy_cfg.lam == 0.01
        assert cfg.sampler.energy_cfg.delta == 0.02
        assert cfg.dataset is None
        assert cfg.trials == 8
        assert cfg.out == "out"
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"model": {"seed": "x"}}, "model.seed"),
            ({"model": {"sed": 3}}, "model.sed: unknown field"),
            ({"schedule": {"T": 2.5}}, "schedule.T"),
            ({"sampler": {"rho": "big"}}, "sampler.rho"),
            ({"sampler": {"rho": -1}}, "sampler:"),
            ({"sampler": {"csc_step_range": "0-3"}}, "sampler.csc_step_range"),
            ({"energy": {"lam": -0.5}}, "energy:"),
            ({"energy": {"layer_select": "full"}}, "energy.layer_select"),
            ({"trials": 0}, "config.trials"),
            ({"trials": "many"}, "config.trials"),
            ({"dataset": 7}, "dataset"),
            ({"out": 3}, "config.out"),
            ({"wat": 1}, "config.wat: unknown field"),
            ({"model": []}, "model: expected an object"),
            ({"model": {"h": 4.0}}, "model.h: expected an integer"),
            ({"model": {"w": "36"}}, "model.w: expected an integer"),
            ({"model": {"channels": None}}, "model.channels: expected an integer"),
            ({"schedule": {"beta_1": "0.05"}}, "schedule.beta_1: expected a number"),
            ({"schedule": {"beta_T": True}}, "schedule.beta_T: expected a number"),
            ({"sampler": {"guidance_scale": [2]}}, "sampler.guidance_scale: expected a number"),
            ({"sampler": {"steps": 20.0}}, "sampler.steps: expected an integer"),
            ({"sampler": {"csc_enabled": True}}, "sampler.csc_enabled: unknown field"),
            ({"sampler": {"record_snapshots": False}}, "sampler.record_snapshots: unknown field"),
            ({"energy": {"lam": "small"}}, "energy.lam: expected a number"),
            ({"energy": {"delta": None}}, "energy.delta: expected a number"),
            ({"energy": {"support_tau": False}}, "energy.support_tau: expected a number"),
            ({"energy": {"epsilon_den": "1e-8"}}, "energy.epsilon_den: expected a number"),
            ({"seed": 1.5}, "config.seed: expected an integer"),
            ({"sampler": {"csc_step_range": [2, 6]}}, "sampler.csc_step_range: unknown field"),
        ],
    )
    def test_errors_name_the_field(self, doc, needle):
        with pytest.raises(ConfigError, match=needle.replace("[", "\\[")):
            parse_config(doc)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="model.seed"):
            parse_config({"model": {"seed": True}})

    def test_layer_select_list_accepted(self):
        cfg = parse_config({"energy": {"layer_select": ["full"]}})
        assert cfg.sampler.energy_cfg.layer_select == frozenset({"full"})

    def test_roundtrips_through_dict_echo(self):
        cfg = parse_config(
            {
                "model": {"seed": 3, "h": 16, "w": 12, "channels": 3},
                "schedule": {"T": 8, "beta_1": 0.01, "beta_T": 0.2},
                "sampler": {
                    "rho": 0.5,
                    "guidance_scale": 1.5,
                    "steps": 6,
                },
                "energy": {
                    "lam": 0.1,
                    "delta": 0.05,
                    "support_tau": 0.2,
                    "epsilon_den": 1e-6,
                    "layer_select": ["full", "half"],
                },
                "dataset": "data/manifest.json",
                "trials": 2,
                "out": "somewhere",
                "seed": 5,
            }
        )
        assert parse_config(config_to_dict(cfg)) == cfg
        echo, default = config_to_dict(cfg), config_to_dict(parse_config({}))
        for name, value in echo.items():
            if isinstance(value, dict):
                for key, v in value.items():
                    assert v != default[name][key], f"{name}.{key} left at its default"
            else:
                assert value != default[name], f"{name} left at its default"

    def test_readme_config_block_shows_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        shown, default = json.loads(block), config_to_dict(parse_config({}))
        del shown["dataset"], default["dataset"]
        assert shown == default


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            read_config(p)

    def test_dataset_resolves_relative_to_config(self, tmp_path):
        sub = tmp_path / "cfg"
        sub.mkdir()
        p = sub / "config.json"
        p.write_text(json.dumps({"dataset": "data/manifest.json"}), encoding="utf-8")
        cfg = resolve_paths(read_config(p), p)
        assert cfg.dataset == str(sub / "data" / "manifest.json")

    def test_absolute_dataset_untouched(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"dataset": "/abs/manifest.json"}), encoding="utf-8")
        assert resolve_paths(read_config(p), p).dataset == "/abs/manifest.json"

    def test_out_resolves_relative_to_config(self, tmp_path):
        sub = tmp_path / "cfg"
        sub.mkdir()
        p = sub / "config.json"
        p.write_text(json.dumps({"out": "run"}), encoding="utf-8")
        assert read_config(p).out == "run"
        assert resolve_paths(read_config(p), p).out == str(sub / "run")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = main(
        ["gen", "--seed", "3", "--n", "3", "--out", str(d), "--height", "16", "--width", "12"]
    )
    assert rc == 0
    return d


def write_config(path, dataset_dir, **overrides):
    doc = {
        "model": {"seed": 3, "h": 16, "w": 12, "channels": 3},
        "schedule": {"T": 8, "beta_1": 0.05, "beta_T": 0.3},
        "sampler": {"steps": 6, "rho": 0.2, "guidance_scale": 2.0},
        "dataset": str(dataset_dir / "manifest.json"),
        "trials": 2,
        "seed": 5,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def copy_roles(dataset_dir, d: Path, roles) -> Path:
    """A copy of the dataset in d/data holding only its manifest and the
    files of roles."""
    manifest = json.loads((dataset_dir / "manifest.json").read_text(encoding="utf-8"))
    for role in roles:
        for rel in manifest[role]:
            (d / "data" / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(dataset_dir / rel, d / "data" / rel)
    shutil.copyfile(dataset_dir / "manifest.json", d / "data" / "manifest.json")
    return d / "data"


class TestGenCommand:
    def test_writes_manifest_and_samples(self, dataset_dir):
        with open(dataset_dir / "manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        assert manifest["n"] == 3
        assert manifest["split"] == "paired"
        for i in range(3):
            assert (dataset_dir / "dataset" / "paired" / f"{i:04d}" / "person.f64grid").is_file()

    def test_byte_identical_across_invocations(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(
                [
                    "gen", "--seed", "9", "--n", "3", "--unpaired",
                    "--out", str(tmp_path / sub),
                    "--height", "16", "--width", "16",
                ]
            )
            assert rc == 0
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.relative_to(tmp_path / "a") for p in files_a] == [
            p.relative_to(tmp_path / "b") for p in files_b
        ]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_unpaired_needs_two(self, tmp_path, capsys):
        rc = main(["gen", "--seed", "1", "--n", "1", "--unpaired", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_trajectories_and_summary(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", dataset_dir)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "trajectories.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["trial", "arm"] + list(CSV_HEADER)
        assert len(rows) == 1 + 2 * 2 * 6  # trials x arms x steps
        assert rows[1][:2] == ["0", "baseline"]
        assert rows[7][:2] == ["0", "csc"]
        assert rows[13][:2] == ["1", "baseline"]
        for row in rows[1:]:
            float(row[2 + CSV_HEADER.index("e_total")])
        with open(out / "summary.json", encoding="utf-8") as f:
            summary = json.load(f)
        assert summary["trials"] == 2
        assert set(summary["arms"]) == {"csc", "baseline"}
        assert set(summary["delta"]) == set(summary["effect_size"])
        assert summary["config"]["model"]["h"] == 16
        assert summary["config"]["out"] == str(out)  # the --out override is echoed

    def test_zero_rho_gives_zero_deltas(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "config.json",
            dataset_dir,
            sampler={"steps": 6, "rho": 0.0, "guidance_scale": 2.0},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "summary.json", encoding="utf-8") as f:
            summary = json.load(f)
        assert all(v == 0.0 for v in summary["delta"].values())
        assert all(v == 0.0 for v in summary["effect_size"].values())

    def test_zero_rho_arms_write_equal_rows(self, dataset_dir, tmp_path):
        """At rho = 0 neither arm takes a gradient: the rows differ only in
        their arm cell, and grad_norm reads 0."""
        cfg = write_config(tmp_path / "config.json", dataset_dir, sampler={"steps": 6, "rho": 0.0})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "trajectories.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        arms = {arm: [{k: v for k, v in r.items() if k != "arm"} for r in rows if r["arm"] == arm]
                for arm in ("csc", "baseline")}
        assert arms["csc"] == arms["baseline"]
        assert {r["grad_norm"] for r in rows} == {"0.0"}

    def test_seed_override_changes_output(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", dataset_dir)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "99"]) == 0
        assert (a / "trajectories.csv").read_bytes() != (b / "trajectories.csv").read_bytes()

    def test_missing_dataset_field(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"trials": 1}), encoding="utf-8")
        assert main(["run", "--config", str(p)]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_error_names_field(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", dataset_dir, trials=0)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config.trials" in capsys.readouterr().err

    def test_steps_longer_than_schedule(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "config.json",
            dataset_dir,
            sampler={"steps": 9},
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "schedule.T" in capsys.readouterr().err


    def test_mask_vanishing_at_a_layer(self, tmp_path, capsys):
        data = tmp_path / "data"
        gen = ["gen", "--seed", "3", "--n", "2", "--out", str(data)]
        assert main(gen + ["--height", "16", "--width", "12"]) == 0
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        dot = np.zeros((16, 12))
        dot[5, 5] = 1.0
        for rel in manifest["mask"]:
            grid_write(data / rel, Grid(dot))
        cfg = write_config(tmp_path / "config.json", data)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "mask is empty at attention layer 'half' (8x6)" in capsys.readouterr().err


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize(
        "verb, named",
        [
            (["run"], ""),
            # a sweep names every grid point that diverged by its value column
            (["sweep", "--kind", "layers"], "layers=both, layers=full_only, layers=half_only: "),
        ],
        ids=["run", "sweep"],
    )
    @pytest.mark.parametrize("corrected", [True, False])
    def test_non_finite_latent(self, dataset_dir, tmp_path, capsys, verb, named, corrected):
        sampler = {"steps": 6, "guidance_scale": 1e300, "rho": 0.2 if corrected else 0.0}
        cfg = write_config(tmp_path / "config.json", dataset_dir, sampler=sampler)
        assert main(verb + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        want = r"error: " + re.escape(named) + r"step \d+ \(t=\d+\): the latent is no longer finite"
        assert re.search(want, err)

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"rho": math.nan}, "rho"),
            ({"rho": math.inf}, "rho"),
            ({"guidance_scale": math.nan}, "guidance_scale"),
            ({"guidance_scale": -math.inf}, "guidance_scale"),
        ],
    )
    def test_non_finite_sampler_field(self, dataset_dir, tmp_path, capsys, bad, field):
        cfg = write_config(tmp_path / "config.json", dataset_dir, sampler={"steps": 6, **bad})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: sampler: {field} must be finite")

    def test_epsilon_den_whose_square_is_zero(self, dataset_dir, tmp_path, capsys):
        # 1e-300 squares to 0; 1e-160 squares to a subnormal whose reciprocal overflows
        for eps in (1e-300, 1e-160):
            cfg = write_config(tmp_path / "config.json", dataset_dir, energy={"epsilon_den": eps})
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: energy: epsilon_den {eps!r} is so small that 2 / epsilon_den^2 overflows"
            )

    @pytest.mark.parametrize(
        "select", [["full", "hlaf"], ["hlaf"], []], ids=["misspelt-second", "misspelt", "empty"]
    )
    def test_layer_select_names_only_model_layers(self, dataset_dir, tmp_path, capsys, select):
        cfg = write_config(tmp_path / "config.json", dataset_dir, energy={"layer_select": select})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: energy.layer_select: expected null or a non-empty list")
        assert repr(select) in err
        assert not (tmp_path / "out").exists()

    def test_summary_bytes_do_not_depend_on_the_directory(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        summaries = []
        for sub in ("a1", "a2"):
            d = tmp_path / sub
            shutil.copytree(dataset_dir, d / "data")
            cfg = write_config(d / "config.json", dataset_dir, dataset="data/manifest.json", out="run")
            assert main(["run", "--config", str(cfg)]) == 0
            summaries.append((d / "run" / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        echo = json.loads(summaries[0])["config"]
        assert (echo["dataset"], echo["out"]) == ("data/manifest.json", "run")

    def test_reads_only_the_masks(self, dataset_dir, tmp_path):
        full, masks = tmp_path / "full", tmp_path / "masks"
        shutil.copytree(dataset_dir, full / "data")
        copy_roles(dataset_dir, masks, ("mask",))
        outputs = []
        for d in (full, masks):
            cfg = write_config(d / "config.json", d, dataset="data/manifest.json", out="run")
            assert main(["run", "--config", str(cfg)]) == 0
            outputs.append({name: (d / "run" / name).read_bytes()
                            for name in ("trajectories.csv", "summary.json")})
        assert outputs[0] == outputs[1]

    def test_a_missing_mask_names_its_sample_and_path(self, dataset_dir, tmp_path, capsys):
        data = copy_roles(dataset_dir, tmp_path, ("mask",))
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        (data / manifest["mask"][1]).unlink()
        cfg = write_config(tmp_path / "config.json", data)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        want = f"error: dataset: sample 1: file not found: {data / manifest['mask'][1]}"
        assert capsys.readouterr().err.startswith(want)

    def test_redrawn_blocks_write_the_bytes_of_held_ones(self, dataset_dir, tmp_path, monkeypatch):
        """Trajectories of a run whose baseline trials each redraw their
        noise block equal those of the default run, which shares them."""
        cfg = write_config(tmp_path / "config.json", dataset_dir, trials=3)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "held")]) == 0
        monkeypatch.setattr(experiments, "_HELD_NOISE_BYTES", 0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "redrawn")]) == 0
        held, redrawn = (tmp_path / d / "trajectories.csv" for d in ("held", "redrawn"))
        assert held.read_bytes() == redrawn.read_bytes()

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """Convolutions run through BLAS matmuls, so the run is repeated in
        fresh interpreters with one and with two OpenBLAS threads."""
        data = tmp_path / "data"
        gen = ["gen", "--seed", "3", "--n", "3", "--height", "24", "--width", "18"]
        assert main(gen + ["--out", str(data)]) == 0
        model = {"seed": 3, "h": 24, "w": 18, "channels": 4}
        cfg = write_config(tmp_path / "config.json", data, model=model, out="run")
        src = str(Path(tryonlab.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "tryonlab.cli", "run", "--config", str(cfg)],
                           env=env, check=True, capture_output=True)
            outputs.append({name: (tmp_path / "run" / name).read_bytes()
                            for name in ("trajectories.csv", "summary.json")})
        assert outputs[0] == outputs[1]


class TestSweepCommand:
    def run_sweep(self, kind, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", dataset_dir, trials=2)
        out = tmp_path / "out"
        rc = main(["sweep", "--kind", kind, "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        with open(out / f"sweep_{kind}.csv", newline="", encoding="utf-8") as f:
            return list(csv.reader(f))

    def test_scale_factor_grid(self, dataset_dir, tmp_path):
        rows = self.run_sweep("scale_factor", dataset_dir, tmp_path)
        assert rows[0] == [
            "rho",
            "mean_final_e_attract",
            "mean_final_in_mask_fraction_full",
            "mean_final_in_mask_fraction_half",
            "mean_toy_vtid_vs_reference",
        ]
        assert [r[0] for r in rows[1:]] == ["0.0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3"]
        for row in rows[1:]:
            for cell in row[1:]:
                assert np.isfinite(float(cell))

    def test_leaves_the_vtid_memo_empty(self, dataset_dir, tmp_path):
        self.run_sweep("layers", dataset_dir, tmp_path)
        assert vtid._last_reference == ((), ())

    def test_guidance_grid(self, dataset_dir, tmp_path):
        rows = self.run_sweep("guidance", dataset_dir, tmp_path)
        assert rows[0][0] == "guidance_scale"
        assert [r[0] for r in rows[1:]] == ["1.0", "1.5", "2.0", "2.5", "3.0", "5.0"]

    def test_layers_grid(self, dataset_dir, tmp_path):
        rows = self.run_sweep("layers", dataset_dir, tmp_path)
        assert rows[0][0] == "layers"
        assert [r[0] for r in rows[1:]] == ["both", "full_only", "half_only"]

    def test_reads_no_generated_files(self, dataset_dir, tmp_path):
        """sweep scores final latents, not the generated images: a copy of
        the dataset without its generated and gen_mask files gives the
        same CSV."""
        roles = [r for r in DATASET_ROLES if r not in ("generated", "gen_mask")]
        data = copy_roles(dataset_dir, tmp_path / "part", roles)
        full = self.run_sweep("layers", dataset_dir, tmp_path)
        assert self.run_sweep("layers", data, tmp_path / "part") == full

    def test_one_call_of_three_kinds_writes_each_kind_alone(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", dataset_dir, trials=2)
        kinds = ["scale_factor", "guidance", "layers"]
        rc = main(["sweep", "--kind", *kinds, "--config", str(cfg), "--out", str(tmp_path / "all")])
        assert rc == 0
        for kind in kinds:
            alone = tmp_path / kind
            assert main(["sweep", "--kind", kind, "--config", str(cfg), "--out", str(alone)]) == 0
            assert [p.name for p in alone.iterdir()] == [f"sweep_{kind}.csv"]
            name = f"sweep_{kind}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (alone / name).read_bytes(), kind

    def test_a_repeated_kind_is_a_user_error(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", dataset_dir)
        out = tmp_path / "out"
        rc = main(["sweep", "--kind", "layers", "layers", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "error: sweep kind 'layers' given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_rejected_by_parser(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", dataset_dir)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "nonsense", "--config", str(cfg)])
        assert exc.value.code == 2


class TestVtidCommand:
    def test_ground_truth_scores_zero(self, dataset_dir, tmp_path):
        out = tmp_path / "scores"
        rc = main(["vtid", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out)])
        assert rc == 0
        with open(out / "vtid.json", encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["n"] == 3
        assert doc["features"] == "pixel"
        assert doc["mean"]["vtid"] == 0.0
        assert all(s["vtid"] == 0.0 for s in doc["samples"])
        with open(out / "vtid.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["sample", "human_dist", "clothing_dist", "vtid"]
        assert len(rows) == 1 + 3 + 1
        assert rows[-1][0] == "mean"

    def test_random_features_on_ground_truth(self, dataset_dir, tmp_path):
        out = tmp_path / "scores"
        rc = main(
            [
                "vtid", "--manifest", str(dataset_dir / "manifest.json"),
                "--out", str(out), "--features", "random",
                "--feature-channels", "4",
            ]
        )
        assert rc == 0
        with open(out / "vtid.json", encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["features"] == "random"
        assert doc["mean"]["vtid"] < 1e-6

    def test_corrupted_sample_scores_positive(self, tmp_path):
        d = tmp_path / "data"
        assert main(
            ["gen", "--seed", "4", "--n", "2", "--out", str(d), "--height", "16", "--width", "12"]
        ) == 0
        with open(d / "manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        victim = d / manifest["generated"][0]
        scene = scene_read(victim)
        rng = RandomStream(0).child("corrupt")
        noisy = SceneImage(
            np.clip(scene.stack() + 0.2 * rng.normals(3 * 16 * 12).reshape(3, 16, 12), 0, 1)
        )
        scene_write(victim, noisy)
        out = tmp_path / "scores"
        assert main(["vtid", "--manifest", str(d / "manifest.json"), "--out", str(out)]) == 0
        with open(out / "vtid.json", encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["samples"][0]["vtid"] > 0.01
        assert doc["samples"][1]["vtid"] == 0.0
        assert doc["mean"]["vtid"] > 0.0

    def test_a_repeated_sample_scores_as_its_first_copy(self, tmp_path):
        d = tmp_path / "data"
        assert main(
            ["gen", "--seed", "5", "--n", "2", "--out", str(d), "--height", "16", "--width", "12"]
        ) == 0
        manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        for i, path in enumerate(manifest["generated"]):
            rng = RandomStream(i).child("corrupt")
            noisy = scene_read(d / path).stack() + 0.1 * rng.normals(3 * 16 * 12).reshape(3, 16, 12)
            scene_write(d / path, SceneImage(noisy))
        doubled = {role: [q for q in manifest[role] for _ in "ab"] for role in DATASET_ROLES}
        (d / "doubled.json").write_text(json.dumps(doubled), encoding="utf-8")
        rows = {}
        for name in ("manifest", "doubled"):
            argv = ["vtid", "--manifest", str(d / f"{name}.json"), "--features", "random",
                    "--out", str(tmp_path / name)]
            assert main(argv) == 0
            with open(tmp_path / name / "vtid.csv", newline="", encoding="utf-8") as f:
                rows[name] = list(csv.reader(f))[1:-1]
        assert len(rows["doubled"]) == 4
        for j, row in enumerate(rows["doubled"]):
            assert row[1:] == rows["manifest"][j // 2][1:]
            assert float(row[3]) > 0.0

    def test_empty_manifest(self, tmp_path, capsys):
        p = tmp_path / "manifest.json"
        p.write_text(
            json.dumps({role: [] for role in (
                "person", "garment", "flow_x", "flow_y", "generated", "mask", "gen_mask"
            )}),
            encoding="utf-8",
        )
        assert main(["vtid", "--manifest", str(p)]) == 2
        assert "no samples" in capsys.readouterr().err

    def test_manifest_not_an_object(self, tmp_path, capsys):
        p = tmp_path / "manifest.json"
        p.write_text("[]", encoding="utf-8")
        assert main(["vtid", "--manifest", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: dataset: {p}: expected a JSON object")

    def test_missing_referenced_file(self, dataset_dir, tmp_path, capsys):
        with open(dataset_dir / "manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        manifest["person"][0] = "dataset/paired/0000/ghost.f64grid"
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(manifest), encoding="utf-8")
        # paths resolve against the manifest's own directory
        assert main(["vtid", "--manifest", str(p)]) == 2
        assert "ghost.f64grid" in capsys.readouterr().err

    def test_defaults_to_manifest_directory(self, tmp_path):
        d = tmp_path / "data"
        assert main(
            ["gen", "--seed", "5", "--n", "2", "--out", str(d), "--height", "16", "--width", "12"]
        ) == 0
        assert main(["vtid", "--manifest", str(d / "manifest.json")]) == 0
        assert (d / "vtid.json").is_file()
        assert (d / "vtid.csv").is_file()


@pytest.fixture(scope="module")
def scored_dir(tmp_path_factory):
    """A 3-sample 16x12 dataset with corrupted generated images, so that
    each sample has its own positive scores."""
    d = tmp_path_factory.mktemp("scored")
    assert main(
        ["gen", "--seed", "6", "--n", "3", "--out", str(d), "--height", "16", "--width", "12"]
    ) == 0
    manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
    for i, path in enumerate(manifest["generated"]):
        rng = RandomStream(i).child("corrupt")
        noisy = scene_read(d / path).stack() + 0.1 * rng.normals(3 * 16 * 12).reshape(3, 16, 12)
        scene_write(d / path, SceneImage(noisy))
    return d


def relisted(d: Path, order, name: str, edit=lambda doc: None) -> Path:
    """d/name: a manifest listing the samples of d/manifest.json in
    `order`, after edit(doc) has changed its role lists."""
    manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
    doc = {role: [manifest[role][k] for k in order] for role in DATASET_ROLES}
    edit(doc)
    (d / name).write_text(json.dumps(doc), encoding="utf-8")
    return d / name


def read_rows(path: Path) -> list[list[str]]:
    """The per-sample rows of a vtid.csv."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:-1]


class TestVtidStreaming:
    """vtid reads its manifest in chunks of consecutive samples and lets a
    file go after the chunk that lists it last."""

    TWICE = [0, 1, 2, 0, 1, 2]
    # kernels._IM2COL_BYTES -> samples per chunk; a 16x12 sample is 20 KB
    BUDGETS = {"one-sample": 1, "every-sample": 1 << 40, "default": None}

    def vtid(self, monkeypatch, manifest, out, budget) -> int:
        with monkeypatch.context() as m:
            if budget is not None:
                m.setattr(kernels, "_IM2COL_BYTES", budget)
            argv = ["vtid", "--manifest", str(manifest), "--features", "random"]
            return main(argv + ["--out", str(out)])

    def test_every_budget_reads_each_file_once_and_writes_the_plain_rows(
        self, scored_dir, tmp_path, monkeypatch
    ):
        plain = tmp_path / "plain"
        assert self.vtid(monkeypatch, scored_dir / "manifest.json", plain, None) == 0
        twice = relisted(scored_dir, self.TWICE, "twice.json")
        reads, scored = [], []
        for name in ("scene_read", "mask_read", "grid_read"):
            read = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda p, _r=read: reads.append(p) or _r(p))
        score = cli.vtid_score
        monkeypatch.setattr(cli, "vtid_score", lambda **kw: scored.append(kw) or score(**kw))
        outputs = set()
        for label, budget in self.BUDGETS.items():
            reads.clear()
            scored.clear()
            assert self.vtid(monkeypatch, twice, tmp_path / label, budget) == 0
            assert len(reads) == len(set(reads)) == 3 * len(DATASET_ROLES), label
            for k in range(3):
                for arg, value in scored[k].items():
                    assert value is scored[k + 3][arg], (label, k, arg)
            outputs.add(tuple((tmp_path / label / n).read_bytes() for n in ("vtid.json", "vtid.csv")))
            rows = read_rows(tmp_path / label / "vtid.csv")
            want = read_rows(plain / "vtid.csv")
            assert [r[1:] for r in rows] == [want[j % 3][1:] for j in range(6)], label
            assert all(float(r[3]) > 0.0 for r in rows)
        assert len(outputs) == 1

    @pytest.mark.parametrize("order", [TWICE, [0, 1, 2]], ids=["abcabc", "abc"])
    @pytest.mark.parametrize("label", list(BUDGETS))
    def test_live_scenes_stay_within_a_chunk_and_the_files_listed_again(
        self, scored_dir, tmp_path, monkeypatch, label, order
    ):
        """While sample k is scored, the live SceneImages are the chunk's
        plus those of earlier chunks that a later sample lists again;
        three scene files per distinct sample. SceneImage has no
        __weakref__ slot, so the garbage collector counts them."""
        manifest = relisted(scored_dir, order, f"live-{len(order)}.json")
        per_chunk = 1 if label == "one-sample" else len(order)
        bound = []
        for k in range(len(order)):
            start = k - k % per_chunk
            end = min(start + per_chunk, len(order))
            kept = {s for s in order[:start] if s in order[end:]}
            bound.append(3 * len(set(order[start:end]) | kept))

        def scenes() -> int:
            gc.collect()
            return sum(isinstance(o, SceneImage) for o in gc.get_objects())

        live = []
        score = cli.vtid_score

        def counting(**kw):
            report = score(**kw)
            live.append(scenes() - before)
            return report

        monkeypatch.setattr(cli, "vtid_score", counting)
        before = scenes()
        assert self.vtid(monkeypatch, manifest, tmp_path / "out", self.BUDGETS[label]) == 0
        assert len(live) == len(order)
        assert all(n <= b for n, b in zip(live, bound)), (live, bound)
        assert scenes() == before

    def test_a_missing_file_in_the_last_sample_exits_before_any_score(
        self, scored_dir, tmp_path, monkeypatch, capsys
    ):
        manifest = relisted(
            scored_dir, self.TWICE, "ghost.json", lambda doc: doc["gen_mask"].__setitem__(-1, "ghost")
        )
        calls = []
        monkeypatch.setattr(cli, "vtid_score", lambda **kw: calls.append(kw))
        out = tmp_path / "out"
        assert self.vtid(monkeypatch, manifest, out, 1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset: sample 5: file not found: ")
        assert err.rstrip().endswith("ghost")
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("label", list(BUDGETS))
    def test_a_malformed_file_names_the_first_sample_that_lists_it(
        self, scored_dir, tmp_path, monkeypatch, capsys, label
    ):
        bad = tmp_path / "bad.f64grid"
        bad.write_bytes(b"F64X" + bytes(8))

        def edit(doc):
            doc["garment"][4] = doc["garment"][5] = str(bad)

        manifest = relisted(scored_dir, self.TWICE, f"bad-{label}.json", edit)
        out = tmp_path / "out"
        assert self.vtid(monkeypatch, manifest, out, self.BUDGETS[label]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset: sample 4: {bad}: bad magic")
        assert not out.exists()
        assert vtid._last_reference == ((), ())

    def test_the_memo_is_empty_after_a_clean_run_and_after_a_failing_sample(
        self, scored_dir, tmp_path, monkeypatch, capsys
    ):
        manifest = scored_dir / "manifest.json"
        assert self.vtid(monkeypatch, manifest, tmp_path / "clean", None) == 0
        assert vtid._last_reference == ((), ())
        small = tmp_path / "small.f64grid"
        scene_write(small, SceneImage(np.zeros((3, 8, 6))))

        def edit(doc):
            doc["generated"][1] = str(small)

        manifest = relisted(scored_dir, [0, 1, 2], "small.json", edit)
        scored = []
        score = cli.vtid_score
        monkeypatch.setattr(cli, "vtid_score", lambda **kw: scored.append(1) or score(**kw))
        out = tmp_path / "failing"
        assert self.vtid(monkeypatch, manifest, out, None) == 2
        assert "error: sample 1: image shapes differ" in capsys.readouterr().err
        assert len(scored) == 2  # sample 0 filled the memo
        assert vtid._last_reference == ((), ())
        assert not out.exists()


@pytest.fixture(scope="module")
def traj_csv(dataset_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("plotrun")
    cfg = write_config(base / "config.json", dataset_dir)
    out = base / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "trajectories.csv"


class TestPlotCommand:
    def test_writes_one_svg_per_metric(self, traj_csv, tmp_path):
        out = tmp_path / "plots"
        assert main(["plot", "--csv", str(traj_csv), "--out", str(out)]) == 0
        for metric in METRIC_COLUMNS:
            p = out / f"{metric}.svg"
            assert p.is_file()
            xml.dom.minidom.parseString(p.read_text(encoding="utf-8"))

    def test_byte_identical_rerender(self, traj_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["plot", "--csv", str(traj_csv), "--out", str(a)]) == 0
        assert main(["plot", "--csv", str(traj_csv), "--out", str(b)]) == 0
        for metric in METRIC_COLUMNS:
            assert (a / f"{metric}.svg").read_bytes() == (b / f"{metric}.svg").read_bytes()

    def test_header_only_csv(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text(",".join(("trial", "arm") + CSV_HEADER) + "\n", encoding="utf-8")
        assert main(["plot", "--csv", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "no data rows" in capsys.readouterr().err

    def test_malformed_cell_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(
            ",".join(("trial", "arm") + CSV_HEADER) + "\n"
            "0,csc,0,8,0.5,0.4,0.1,outer,0.3,0.2,0.0\n"
            "0,csc,1,7,not_a_number,0.4,0.1,outer,0.3,0.2,0.0\n",
            encoding="utf-8",
        )
        assert main(["plot", "--csv", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_trial_and_arm_columns(self, tmp_path, capsys):
        p = tmp_path / "bare.csv"
        p.write_text(",".join(CSV_HEADER) + "\n0,8,0.5,0.4,0.1,outer,0.3,0.2,0.0\n",
                     encoding="utf-8")
        assert main(["plot", "--csv", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "missing column(s) ['arm', 'trial']" in capsys.readouterr().err

    def test_unknown_arm_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(
            ",".join(("trial", "arm") + CSV_HEADER) + "\n"
            "0,csc,0,8,0.5,0.4,0.1,outer,0.3,0.2,0.0\n"
            "0,run,0,8,0.5,0.4,0.1,outer,0.3,0.2,0.0\n",
            encoding="utf-8",
        )
        assert main(["plot", "--csv", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "line 3: unknown arm 'run'" in capsys.readouterr().err

    def test_missing_step_column(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["plot", "--csv", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "step" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["plot", "--csv", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_internal_failure_returns_one(self, traj_csv, tmp_path, capsys, monkeypatch):
        def broken(csv_path, outdir):
            raise RuntimeError("plotting bug")

        monkeypatch.setattr("tryonlab.cli.plot_all", broken)
        assert main(["plot", "--csv", str(traj_csv), "--out", str(tmp_path / "o")]) == 1
        assert "Traceback" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.sampled_from("&<>;amplgt#x\"' ") | st.characters()))
    def test_escape_equals_saxutils(self, text):
        from xml.sax.saxutils import escape as sax_escape

        assert escape(text) == sax_escape(text)

    def test_cli_import_loads_no_network_modules(self):
        """A fresh `import tryonlab.cli` leaves out the modules that
        xml.sax.saxutils would pull in."""
        src = str(Path(tryonlab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, tryonlab.cli; "
                 "print(' '.join(m for m in ('xml.sax', 'urllib.request', 'http.client', 'ssl') "
                 "if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True)
        assert done.stdout.split() == []


def run_ablation_script(monkeypatch, out, jobs="1") -> None:
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_ablations.py"
    spec = importlib.util.spec_from_file_location("reproduce_ablations", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(
        sys, "argv", ["reproduce_ablations.py", "--out", str(out), "--trials", "1", "--jobs", jobs]
    )
    assert script.main() == 0


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestAblationScript:
    def test_relative_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_ablation_script(monkeypatch, "ablations")
        assert (tmp_path / "ablations" / "run" / "summary.json").is_file()

    def test_tree_bytes_do_not_depend_on_the_directory(self, tmp_path, monkeypatch):
        shallow, deep = tmp_path / "a", tmp_path / "b" / "c" / "d"
        for out in (shallow, deep):
            run_ablation_script(monkeypatch, out)
        trees = tree_bytes(shallow), tree_bytes(deep)
        assert len(trees[0]) > 50
        assert trees[0] == trees[1]


def test_jobs_is_only_on_run_and_the_ablation_script_and_only_1(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    cfg = write_config(tmp_path / "config.json", dataset_dir)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "1"]) == 0
    run_ablation_script(monkeypatch, tmp_path / "ablations", jobs="1")
    capsys.readouterr()
    gen = ["gen", "--seed", "1", "--n", "1", "--out", str(tmp_path / "g")]
    for argv, err in (
        (["run", "--config", str(cfg), "--jobs", "2"], "argument --jobs: invalid choice: 2"),
        (gen + ["--jobs", "1"], "unrecognized arguments: --jobs 1"),
        (["sweep", "--config", str(cfg), "--kind", "layers", "--jobs", "1"],
         "unrecognized arguments: --jobs 1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert err in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_ablation_script(monkeypatch, tmp_path / "ablations2", jobs="2")
    assert exc.value.code == 2
    assert "argument --jobs: invalid choice: 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{dir}"],
        ["vtid", "--manifest", "{dir}"],
        ["plot", "--csv", "{dir}", "--out", "{dir}/o"],
        ["gen", "--seed", "1", "--n", "1", "--height", "16", "--width", "12", "--out", "{file}"],
    ],
    ids=["run-config-dir", "vtid-manifest-dir", "plot-csv-dir", "gen-out-file"],
)
def test_os_path_error_exits_2(argv, tmp_path, capsys):
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert main([a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestLoadDataset:
    def test_loads_written_dataset(self, dataset_dir):
        samples = load_dataset(dataset_dir / "manifest.json")
        assert len(samples) == 3
        s = samples[0]
        assert s.person.shape == (16, 12)
        assert s.generated == s.person  # paired ground truth
        assert s.gen_mask == s.mask

    def test_rejects_length_mismatch(self, dataset_dir, tmp_path):
        with open(dataset_dir / "manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        manifest["garment"] = manifest["garment"][:-1]
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ConfigError, match="differing lengths"):
            load_dataset(p)

    def test_rejects_non_list_role(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"person": "x.f64grid"}), encoding="utf-8")
        with pytest.raises(ConfigError, match="person"):
            load_dataset(p)

    def test_reads_only_the_roles_asked_for(self, dataset_dir, monkeypatch):
        reads = []
        for name in ("scene_read", "mask_read", "grid_read"):
            read = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda p, _r=read: reads.append(p) or _r(p))
        samples = load_dataset(dataset_dir / "manifest.json", roles=("mask",))
        assert len(reads) == 3
        full = load_dataset(dataset_dir / "manifest.json")
        for s, want in zip(samples, full):
            assert s.mask == want.mask
            assert all(getattr(s, role) is None for role in DATASET_ROLES if role != "mask")

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda m: m.update(garment=m["garment"][:-1]), "differing lengths"),
            (lambda m: m.update(flow_x="x.f64grid"), "'flow_x' must be a list"),
        ],
        ids=["length-mismatch", "non-list"],
    )
    def test_unread_roles_are_still_checked(self, dataset_dir, tmp_path, edit, needle):
        manifest = json.loads((dataset_dir / "manifest.json").read_text(encoding="utf-8"))
        edit(manifest)
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ConfigError, match=needle):
            load_dataset(p, roles=("mask",))

    def absolute_manifest(self, dataset_dir, path, edit) -> Path:
        """Write to path a copy of the dataset's manifest with absolute paths,
        after edit(role, paths) has replaced each role's list."""
        with open(dataset_dir / "manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        doc = {r: edit(r, [str(dataset_dir / q) for q in manifest[r]]) for r in DATASET_ROLES}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_a_path_listed_twice_is_read_once(self, dataset_dir, tmp_path, monkeypatch):
        reads = []
        for name in ("scene_read", "mask_read", "grid_read"):
            read = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda p, _r=read: reads.append(p) or _r(p))
        doubled = self.absolute_manifest(
            dataset_dir, tmp_path / "m.json", lambda role, paths: [q for q in paths for _ in "ab"]
        )
        samples = load_dataset(doubled)
        assert len(samples) == 6 and len(reads) == 3 * len(DATASET_ROLES)
        once = load_dataset(dataset_dir / "manifest.json")
        for k in range(3):
            first, second = samples[2 * k], samples[2 * k + 1]
            for role in DATASET_ROLES:
                assert getattr(first, role) is getattr(second, role)
                assert getattr(first, role) == getattr(once[k], role)
            assert first.person is not samples[(2 * k + 2) % 6].person

    def test_a_listed_path_is_looked_up_once_per_reader(self, dataset_dir, tmp_path, monkeypatch):
        stats = []
        stat = Path.stat
        monkeypatch.setattr(Path, "stat", lambda p, **k: stats.append(p) or stat(p, **k))
        doubled = self.absolute_manifest(
            dataset_dir, tmp_path / "m.json", lambda role, paths: [q for q in paths for _ in "ab"]
        )
        stats.clear()
        assert len(load_dataset(doubled)) == 6
        files = [p for p in stats if p != doubled]
        assert len(files) == len(set(files)) == 3 * len(DATASET_ROLES)

    def test_a_hard_link_shares_the_read_of_its_file(self, dataset_dir, tmp_path):
        original = dataset_dir / "dataset" / "paired" / "0000" / "person.f64grid"
        link = tmp_path / "person-link.f64grid"
        os.link(original, link)
        p = self.absolute_manifest(
            dataset_dir,
            tmp_path / "m.json",
            lambda role, paths: [str(link)] + paths[1:] if role == "generated" else paths,
        )
        s = load_dataset(p)[0]
        assert s.generated is s.person

    def test_one_reader_shares_a_file_across_roles(self, dataset_dir, tmp_path):
        shared = {"generated": "person", "gen_mask": "mask", "flow_y": "flow_x"}
        p = self.absolute_manifest(
            dataset_dir, tmp_path / "m.json", lambda role, paths: paths
        )
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc.update({role: doc[source] for role, source in shared.items()})
        p.write_text(json.dumps(doc), encoding="utf-8")
        s = load_dataset(p)[0]
        for role, source in shared.items():
            assert getattr(s, role) is getattr(s, source)
        # another reader gives another object: the mask's file read as a flow
        doc["flow_x"] = doc["mask"]
        p.write_text(json.dumps(doc), encoding="utf-8")
        s = load_dataset(p)[0]
        assert type(s.flow_x) is Grid and s.flow_x is not s.mask

    def test_distinct_files_with_equal_bytes_are_distinct_objects(self, dataset_dir, tmp_path):
        copy = tmp_path / "person-copy.f64grid"
        original = dataset_dir / "dataset" / "paired" / "0000" / "person.f64grid"
        shutil.copyfile(original, copy)
        p = self.absolute_manifest(
            dataset_dir,
            tmp_path / "m.json",
            lambda role, paths: [str(copy)] + paths[1:] if role == "person" else paths,
        )
        s = load_dataset(p)[0]
        assert s.person.stack().tobytes() == scene_read(original).stack().tobytes()
        assert s.person is not s.generated and s.person == s.generated
        # written datasets hold each mask twice, as mask and gen_mask
        assert s.mask is not s.gen_mask and s.mask == s.gen_mask

    @pytest.mark.parametrize(
        "role, content, reason",
        [
            ("person", None, "file not found"),
            ("garment", b"F64X" + bytes(8), "bad magic"),
            ("person", struct.pack("<4sII", b"F64G", 3, 1) + np.array([0.5, np.nan, 0.5]).tobytes(),
             "non-finite"),
            ("gen_mask", struct.pack("<4sII", b"F64G", 1, 2) + np.array([0.0, 0.5]).tobytes(),
             "exactly 0 or 1"),
        ],
        ids=["missing", "malformed", "non-finite-scene", "non-binary-mask"],
    )
    def test_a_bad_file_names_its_first_sample_and_path(
        self, dataset_dir, tmp_path, role, content, reason
    ):
        bad = tmp_path / "bad.f64grid"
        if content is not None:
            bad.write_bytes(content)
        p = self.absolute_manifest(
            dataset_dir,
            tmp_path / "m.json",
            lambda r, paths: [paths[0], str(bad), str(bad)] if r == role else paths,
        )
        with pytest.raises(ConfigError) as exc:
            load_dataset(p)
        message = str(exc.value)
        assert message.startswith("dataset: sample 1: ")
        assert str(bad) in message and reason in message
