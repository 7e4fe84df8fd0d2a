"""Noise as data: the sampler runs on a block drawn once per trial,
sweeps share it across their grid points, and a run's baseline arm
reuses the blocks of its corrected arm.

The oracles in helpers.py draw the noise the other way, one field at a
time inside the loop, and sweep with the grid in the outer loop; the
block form must match them bit for bit.
"""

import re

import numpy as np
import pytest

import tryonlab.experiments as experiments
import tryonlab.sampler as sampler
import tryonlab.vtid as vtid
from helpers import rect_mask, sample_per_step, sweep_rows_grid_major
from tryonlab import (
    RandomStream,
    SamplerConfig,
    SamplerError,
    draw_noise,
    gen_dataset,
    make_schedule,
    sample,
    toy_init,
    write_dataset,
)
from tryonlab.experiments import SWEEPS, load_dataset, paired_run, sweep_rows


@pytest.fixture(scope="module")
def schedule():
    return make_schedule(20, 0.05, 0.3)


@pytest.fixture(scope="module")
def toy():
    return toy_init(7, 16, 12, 4)


@pytest.fixture(scope="module")
def mask():
    return rect_mask(16, 12, 4, 3, 8, 5)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    write_dataset(root, gen_dataset(seed=3, n=2, paired=True, h=16, w=12), "paired")
    return load_dataset(root / "manifest.json")


def trajectory_outputs(x, record):
    return x.a.tobytes(), record.csv_rows(), record.final


@pytest.mark.parametrize("corrected", [True, False])
@pytest.mark.parametrize("steps", [1, 7, 20])
def test_sample_on_a_block_equals_per_step_draws(toy, mask, schedule, steps, corrected):
    cfg = SamplerConfig(steps=steps, rho=0.2 if corrected else 0.0)
    noise = draw_noise(RandomStream(5).child("run"), mask, cfg, schedule)
    got = sample(toy, mask, cfg, schedule, noise)
    want = sample_per_step(toy, mask, cfg, schedule, RandomStream(5).child("run"))
    assert trajectory_outputs(*got) == trajectory_outputs(*want)


def test_block_holds_one_field_per_noisy_step(mask, schedule):
    for steps in (1, 7, 20):
        cfg = SamplerConfig(steps=steps)
        # every executed step but the last (t = 1) adds a field; one step runs at T
        fields = 2 if steps == 1 else steps
        assert draw_noise(RandomStream(0), mask, cfg, schedule).shape == (fields, 16, 12)


def test_sample_does_not_write_to_the_block(toy, mask, schedule):
    noise = draw_noise(RandomStream(6), mask, SamplerConfig(steps=7), schedule)
    before = noise.tobytes()
    sample(toy, mask, SamplerConfig(steps=7), schedule, noise)
    assert noise.tobytes() == before


@pytest.mark.parametrize(
    "shape",
    [(6, 16, 12), (8, 16, 12), (7, 12, 16), (16, 12), (7, 16, 12, 1)],
    ids=["too-few-fields", "too-many-fields", "transposed", "one-field", "extra-axis"],
)
def test_wrong_block_shape_names_both_shapes(toy, mask, schedule, shape):
    want = re.escape(f"noise block shape {shape} != expected (7, 16, 12)")
    with pytest.raises(SamplerError, match=want):
        sample(toy, mask, SamplerConfig(steps=7), schedule, np.zeros(shape))


@pytest.mark.parametrize("kind", list(SWEEPS))
def test_trial_major_sweep_equals_grid_major_sweep(toy, bench, kind):
    sched = make_schedule(8, 0.05, 0.3)
    samp = SamplerConfig(steps=6)
    got = sweep_rows(kind, toy, sched, samp, bench, 3, 42)
    want = sweep_rows_grid_major(kind, toy, sched, samp, bench, 3, 42)
    as_hex = lambda rows: [
        {k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows
    ]
    assert as_hex(got) == as_hex(want)


@pytest.mark.parametrize("kind", list(SWEEPS))
def test_a_sweep_trial_warps_its_garment_once(toy, bench, kind, monkeypatch):
    """Each trial's grid points share its sample's reference side. That
    the rows still equal scoring each point on fresh copies of the sample
    is test_trial_major_sweep_equals_grid_major_sweep's oracle."""
    warps = []
    warp = vtid.warp_array
    monkeypatch.setattr(vtid, "warp_array", lambda *a: warps.append(a) or warp(*a))
    sweep_rows(kind, toy, make_schedule(8, 0.05, 0.3), SamplerConfig(steps=6), bench, 3, 42)
    assert len(warps) == 3


class TestDrawCounts:
    """One block per trial in a sweep and in a run: a run's baseline trial
    reuses its corrected twin's block while the held blocks fit the cap."""

    TRIALS = 3
    SHAPE = (6, 16, 12)
    BLOCK = 6 * 16 * 12 * 8  # bytes

    @pytest.fixture
    def draws(self, monkeypatch):
        """(stream seed, block shape) of every draw."""
        draws = []
        draw = sampler.gaussian_field

        def counted(rng, *shape):
            draws.append((rng.seed, shape))
            return draw(rng, *shape)

        monkeypatch.setattr(sampler, "gaussian_field", counted)
        return draws

    def trial(self, i):
        return RandomStream(42).child(f"trial-{i}").seed, self.SHAPE

    @pytest.mark.parametrize("kind", list(SWEEPS))
    def test_sweep_draws_one_block_per_trial(self, toy, bench, draws, kind):
        sweep_rows(kind, toy, make_schedule(8, 0.05, 0.3), SamplerConfig(steps=6), bench,
                   self.TRIALS, 42)
        assert draws == [self.trial(i) for i in range(self.TRIALS)]

    def test_paired_run_draws_one_block_per_trial(self, toy, bench, draws):
        paired_run(toy, make_schedule(8, 0.05, 0.3), SamplerConfig(steps=6), bench,
                   self.TRIALS, 42)
        assert draws == [self.trial(i) for i in range(self.TRIALS)]

    @pytest.mark.parametrize(
        "cap, held",
        [(0, 0), (BLOCK - 1, 0), (BLOCK, 1), (2 * BLOCK, 2)],
        ids=["cap-0", "cap-a-byte-short", "cap-1-block", "cap-2-blocks"],
    )
    def test_baseline_trials_past_the_cap_redraw(self, toy, bench, draws, monkeypatch, cap, held):
        monkeypatch.setattr(experiments, "_HELD_NOISE_BYTES", cap)
        paired_run(toy, make_schedule(8, 0.05, 0.3), SamplerConfig(steps=6), bench,
                   self.TRIALS, 42)
        trials = range(self.TRIALS)
        assert draws == [self.trial(i) for i in [*trials, *trials[held:]]]


@pytest.mark.parametrize("held", [0, 1], ids=["cap-0", "cap-1-block"])
@pytest.mark.parametrize("rho", [0.2, 0.0])
def test_redrawn_blocks_give_the_records_of_held_ones(toy, bench, monkeypatch, held, rho):
    """The oracle for sharing: a run whose baseline trials redraw their
    blocks, every one or all but the first, equals the default run, where
    every baseline trial runs on its corrected twin's block."""
    schedule, cfg = make_schedule(8, 0.05, 0.3), SamplerConfig(steps=6, rho=rho)
    want = paired_run(toy, schedule, cfg, bench, 3, 42)
    monkeypatch.setattr(experiments, "_HELD_NOISE_BYTES", held * TestDrawCounts.BLOCK)
    got = paired_run(toy, schedule, cfg, bench, 3, 42)
    for got_arm, want_arm in zip(got, want):
        assert [r.csv_rows() for r in got_arm] == [r.csv_rows() for r in want_arm]
        assert [r.final for r in got_arm] == [r.final for r in want_arm]


def test_paired_run_calls_the_sampler_per_trial_and_arm_arm_major(toy, bench, monkeypatch):
    """One lone-config call per (trial, arm): every corrected trial in trial
    order, then the same trials uncorrected, on the same samples and blocks.
    The benchmark's checks count the calls in this order; with one trial a
    trial-major order would look the same."""
    schedule, cfg, trials = make_schedule(8, 0.05, 0.3), SamplerConfig(steps=6), 3
    calls = []
    run = experiments.run_sampler

    def recording(model, mask, cfgs, sched, noise):
        calls.append((mask, cfgs, noise))
        return run(model, mask, cfgs, sched, noise)

    monkeypatch.setattr(experiments, "run_sampler", recording)
    paired_run(toy, schedule, cfg, bench, trials, 42)
    assert [len(cfgs) for _, cfgs, _ in calls] == [1] * (2 * trials)
    assert [cfgs[0].rho for _, cfgs, _ in calls] == [0.2] * trials + [0.0] * trials
    masks = [bench[i % len(bench)].mask for i in range(trials)]
    assert [mask for mask, _, _ in calls] == masks * 2
    blocks = [
        draw_noise(RandomStream(42).child(f"trial-{i}"), masks[i], cfg, schedule).tobytes()
        for i in range(trials)
    ]
    assert len(set(blocks)) == trials
    assert [noise.tobytes() for _, _, noise in calls] == blocks * 2
    # each baseline trial runs on its corrected twin's block, not a copy
    assert all(calls[trials + i][2] is calls[i][2] for i in range(trials))


def test_paired_run_at_zero_rho_gives_equal_arms(toy, bench):
    """At rho = 0 neither arm takes a gradient, so the corrected arm is the
    baseline, grad_norm column included."""
    csc, base = paired_run(toy, make_schedule(8, 0.05, 0.3), SamplerConfig(steps=6, rho=0.0),
                           bench, 3, 42)
    assert [r.csv_rows() for r in csc] == [r.csv_rows() for r in base]
    assert [r.final for r in csc] == [r.final for r in base]
    assert {row[-1] for r in csc for row in r.csv_rows()} == {"0.0"}
