"""Schedules, guidance mixing, reverse steps, full loop."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

import tryonlab.denoiser as denoiser
import tryonlab.sampler as sampler
from helpers import layers_of, rect_mask, sample_seeded
from tryonlab.sampler import CSV_HEADER
from tryonlab import (
    BinaryMask,
    Condition,
    LinearGaussianModel,
    RandomStream,
    SamplerConfig,
    SamplerError,
    ScheduleError,
    ancestral_step,
    cfg_mix,
    csc_correct,
    draw_noise,
    e_total,
    eps_to_score,
    gaussian_field,
    make_schedule,
    resample_mask,
    sample,
    sample_points,
    toy_init,
)


@pytest.fixture(scope="module")
def schedule():
    return make_schedule(20, 0.05, 0.3)


@pytest.fixture(scope="module")
def toy():
    return toy_init(seed=5, h=16, w=12, channels=4)


@pytest.fixture(scope="module")
def mask():
    return rect_mask(16, 12, 4, 4, 8, 4)


class TestMakeSchedule:
    def test_single_step(self):
        s = make_schedule(1, 0.1, 0.1)
        assert s.alpha_bar_at(1) == 0.9

    def test_two_step_product(self):
        s = make_schedule(2, 0.1, 0.2)
        assert abs(s.alpha_bar_at(2) - 0.72) < 1e-15
        assert s.beta_at(1) == 0.1
        assert s.beta_at(2) == 0.2

    def test_long_schedule_matches_running_product(self):
        s = make_schedule(1000, 1e-4, 0.02)
        running = 1.0
        for t in range(1, 1001):
            running *= 1.0 - s.beta_at(t)
            assert s.alpha_bar_at(t) == pytest.approx(running, rel=1e-12)
        assert s.alpha_bar_at(1000) < 1e-4

    def test_alpha_bar_strictly_decreasing(self):
        s = make_schedule(1000, 1e-4, 0.02)
        assert np.all(np.diff(s.alpha_bar) < 0)

    def test_alpha_bar_is_cumprod_of_one_minus_beta(self, schedule):
        assert np.array_equal(schedule.alpha_bar, np.cumprod(1.0 - schedule.beta))

    @pytest.mark.parametrize(
        "args",
        [(0, 0.1, 0.2), (10, 0.0, 0.2), (10, 0.2, 0.1), (10, 0.1, 1.0), (10, -0.1, 0.2)],
    )
    def test_rejects_invalid_parameters(self, args):
        with pytest.raises(ScheduleError):
            make_schedule(*args)

    @pytest.mark.parametrize("t", [0, -1, 21])
    def test_rejects_t_out_of_range(self, schedule, t):
        with pytest.raises(ScheduleError):
            schedule.beta_at(t)
        with pytest.raises(ScheduleError):
            schedule.alpha_bar_at(t)


class TestCfgMix:
    def test_unit_scale_returns_conditional_object(self):
        u = np.zeros((3, 3))
        c = np.full((3, 3), 0.5)
        assert cfg_mix(u, c, 1.0) is c

    def test_equal_predictions_fixed_point(self):
        u = gaussian_field(RandomStream(4).child("u"), 4, 4)
        c = u.copy()
        for s in (0.0, 2.0, 5.0):
            assert np.allclose(cfg_mix(u, c, s), c, rtol=0, atol=1e-15)

    def test_extrapolation(self):
        u = np.zeros((2, 2))
        c = np.ones((2, 2))
        assert np.array_equal(cfg_mix(u, c, 2.0), np.full((2, 2), 2.0))

    def test_zero_scale_returns_unconditional_values(self):
        u = gaussian_field(RandomStream(5).child("u"), 4, 4)
        c = gaussian_field(RandomStream(5).child("c"), 4, 4)
        assert np.array_equal(cfg_mix(u, c, 0.0), u)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SamplerError):
            cfg_mix(np.zeros((2, 2)), np.zeros((2, 3)), 2.0)


class TestEpsToScore:
    def test_formula(self, schedule):
        eps = gaussian_field(RandomStream(6).child("eps"), 4, 4)
        for t in (1, 10, 20):
            ab = schedule.alpha_bar_at(t)
            got = eps_to_score(eps, t, schedule)
            assert np.array_equal(got, eps * (-1.0 / math.sqrt(1.0 - ab)))

    def test_zero_noise_zero_score(self, schedule):
        out = eps_to_score(np.zeros((4, 4)), 10, schedule)
        assert not out.any()


class TestAncestralStep:
    def test_final_step_is_deterministic_drift(self, schedule):
        """At t = 1 the noise field is ignored."""
        x = gaussian_field(RandomStream(7).child("x"), 5, 5)
        noise_a = gaussian_field(RandomStream(8), 5, 5)
        noise_b = gaussian_field(RandomStream(999), 5, 5)
        a = ancestral_step(x, 1, np.zeros((5, 5)), schedule, noise_a)
        b = ancestral_step(x, 1, np.zeros((5, 5)), schedule, noise_b)
        beta = schedule.beta_at(1)
        assert np.array_equal(a, (1.0 + 0.5 * beta) * x)
        assert a.tobytes() == b.tobytes()

    def test_reconstructs_from_public_pieces(self, schedule):
        """The update is exactly drift plus sqrt(beta) times the next field."""
        x = gaussian_field(RandomStream(9).child("x"), 5, 5)
        score = gaussian_field(RandomStream(9).child("score"), 5, 5)
        noise = gaussian_field(RandomStream(10).child("step"), 5, 5)
        got = ancestral_step(x, 7, score, schedule, noise)
        beta = schedule.beta_at(7)
        want = (1.0 + 0.5 * beta) * x + beta * score
        want = want + math.sqrt(beta) * noise
        assert got.tobytes() == want.tobytes()

    def test_noise_step_consumes_rng(self, schedule):
        """A step with t > 1 takes a field of the noise block beyond the
        initial one: two steps at T = 5 run at t = 5 and t = 1."""
        rng = RandomStream(11).child("step")
        before = rng.counter
        mask3 = rect_mask(3, 3, 0, 0, 1, 1)
        draw_noise(rng, mask3, SamplerConfig(steps=2), make_schedule(5, 0.05, 0.3))
        assert rng.counter > before + 2 * 3 * 3

    def test_final_step_consumes_no_rng(self, schedule):
        """A step at t = 1 takes no field: one step at T = 1 draws only the
        initial field, and the step itself needs no noise."""
        rng = RandomStream(11).child("step")
        before = rng.counter
        mask3 = rect_mask(3, 3, 0, 0, 1, 1)
        draw_noise(rng, mask3, SamplerConfig(steps=1), make_schedule(1, 0.1, 0.1))
        assert rng.counter == before + 2 * 3 * 3
        out = ancestral_step(np.zeros((3, 3)), 1, np.zeros((3, 3)), schedule, None)
        assert not out.any()

    @pytest.mark.parametrize("noise", [None, np.zeros((3, 4)), np.zeros((1, 3, 3))])
    def test_noise_step_rejects_a_missing_or_misshapen_field(self, schedule, noise):
        got = None if noise is None else noise.shape
        want = re.escape(f"noise shape {got} != latent shape (3, 3)")
        with pytest.raises(SamplerError, match=want):
            ancestral_step(np.zeros((3, 3)), 5, np.zeros((3, 3)), schedule, noise)

    def test_rejects_t_out_of_range(self, schedule):
        with pytest.raises(ScheduleError):
            ancestral_step(np.zeros((3, 3)), 0, np.zeros((3, 3)), schedule, np.zeros((3, 3)))

    def test_rejects_shape_mismatch(self, schedule):
        with pytest.raises(SamplerError):
            ancestral_step(np.zeros((3, 3)), 5, np.zeros((3, 4)), schedule, np.zeros((3, 3)))


class TestCscCorrect:
    def test_zero_rho_returns_same_object(self):
        m = np.ones((3, 3))
        g = np.full((3, 3), 123.0)
        assert csc_correct(m, g, 0.0) is m

    def test_zero_gradient_keeps_values(self):
        m = gaussian_field(RandomStream(12).child("m"), 4, 4)
        assert np.array_equal(csc_correct(m, np.zeros((4, 4)), 0.2), m)

    def test_scalar_example(self):
        out = csc_correct(np.ones((1, 1)), np.full((1, 1), 0.5), 0.2)
        assert out[0, 0] == 0.9

    def test_rejects_negative_rho(self):
        with pytest.raises(SamplerError):
            csc_correct(np.zeros((2, 2)), np.zeros((2, 2)), -0.1)

    def test_rejects_non_finite_gradient(self):
        bad = np.array([[1.0, np.inf], [0.0, 0.0]])
        with pytest.raises(SamplerError):
            csc_correct(np.zeros((2, 2)), bad, 0.2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SamplerError):
            csc_correct(np.zeros((2, 2)), np.zeros((2, 3)), 0.2)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.rho == 0.2
        assert cfg.guidance_scale == 2.0
        assert cfg.steps == 20
        # rho = 0 is the one way to turn the correction off
        assert [f.name for f in fields(cfg)] == ["rho", "guidance_scale", "steps", "energy_cfg"]

    def test_rejects_negative_rho(self):
        with pytest.raises(SamplerError):
            SamplerConfig(rho=-0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_rho(self, bad):
        with pytest.raises(SamplerError, match="rho must be finite"):
            SamplerConfig(rho=bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_guidance_scale(self, bad):
        with pytest.raises(SamplerError, match="guidance_scale must be finite"):
            SamplerConfig(guidance_scale=bad)

    def test_rejects_zero_steps(self):
        with pytest.raises(SamplerError):
            SamplerConfig(steps=0)


def base_cfg(**kw):
    return SamplerConfig(**{"rho": 0.0, **kw})


class TestSampleLoop:
    @pytest.mark.parametrize(
        "region, branch",
        [
            pytest.param(rect_mask(16, 12, 4, 4, 8, 4), "outer|outer", id="rect"),
            pytest.param(BinaryMask(np.ones((16, 12))), "inner|inner", id="full"),
        ],
    )
    def test_disabled_equals_zero_rho(self, toy, schedule, region, branch):
        """A rho = 0 run alone computes no energy gradient; as the rho = 0
        item of a stack that does, it is bit-equal, grad_norm 0 included."""
        noise = draw_noise(RandomStream(42).child("run"), region, base_cfg(), schedule)
        x_off, rec_off = sample(toy, region, base_cfg(), schedule, noise)
        (x_rho0, rec_rho0), (_, rec_on) = sample_points(
            toy, [region] * 2, [base_cfg(), SamplerConfig()], schedule, [noise] * 2
        )
        assert x_off.a.tobytes() == x_rho0.a.tobytes()
        for a, b in zip(rec_off.entries, rec_rho0.entries):
            assert a == b
            assert a.energy.branch_label == branch
            assert a.grad_norm == 0.0
        assert rec_off.final == rec_rho0.final
        assert all(e.grad_norm > 0.0 for e in rec_on.entries)

    def test_same_seed_bit_identical(self, toy, mask, schedule):
        a, _ = sample_seeded(toy, mask, SamplerConfig(), schedule, RandomStream(6).child("run"))
        b, _ = sample_seeded(toy, mask, SamplerConfig(), schedule, RandomStream(6).child("run"))
        assert a.a.tobytes() == b.a.tobytes()

    @pytest.mark.parametrize("steps", [1, 7, 20])
    def test_record_length_equals_steps(self, toy, mask, schedule, steps):
        _, rec = sample_seeded(
            toy, mask, base_cfg(steps=steps), schedule, RandomStream(13).child("run")
        )
        assert len(rec) == steps
        assert [e.step for e in rec.entries] == list(range(steps))

    def test_stride_subsampling_hits_endpoints(self, toy, mask, schedule):
        _, rec = sample_seeded(
            toy, mask, base_cfg(steps=5), schedule, RandomStream(14).child("run")
        )
        assert [e.t for e in rec.entries] == [20, 16, 11, 6, 1]

    def test_full_step_count_walks_every_t(self, toy, mask, schedule):
        _, rec = sample_seeded(
            toy, mask, base_cfg(steps=20), schedule, RandomStream(15).child("run")
        )
        assert [e.t for e in rec.entries] == list(range(20, 0, -1))

    def test_single_step_runs_at_t_max(self, toy, mask, schedule):
        _, rec = sample_seeded(
            toy, mask, base_cfg(steps=1), schedule, RandomStream(16).child("run")
        )
        assert [e.t for e in rec.entries] == [20]

    def test_rejects_more_steps_than_schedule(self, toy, mask):
        short = make_schedule(5, 0.05, 0.3)
        with pytest.raises(SamplerError):
            sample_seeded(toy, mask, base_cfg(steps=6), short, RandomStream(0))

    def test_baseline_records_zero_grad_norm(self, toy, mask, schedule):
        _, rec = sample_seeded(toy, mask, base_cfg(), schedule, RandomStream(17).child("run"))
        assert all(e.grad_norm == 0.0 for e in rec.entries)

    def test_correction_records_positive_grad_norm(self, toy, mask, schedule):
        _, rec = sample_seeded(toy, mask, SamplerConfig(), schedule, RandomStream(17).child("run"))
        assert all(e.grad_norm > 0.0 for e in rec.entries)

    def test_energies_finite_throughout(self, toy, mask, schedule):
        for seed in range(4):
            _, rec = sample_seeded(
                toy, mask, SamplerConfig(), schedule, RandomStream(seed).child("run")
            )
            for e in rec.entries:
                assert math.isfinite(e.energy.total)
                assert math.isfinite(e.energy.e_attract)
                assert math.isfinite(e.energy.e_repel)
            assert math.isfinite(rec.final.total)

    def test_matches_manual_composition_of_public_pieces(self, toy, mask, schedule):
        """The loop is exactly init-field, predict x2, mix, step, measure."""
        cfg = base_cfg(steps=20, guidance_scale=2.0)
        got_x, got_rec = sample_seeded(toy, mask, cfg, schedule, RandomStream(20).child("run"))

        rng = RandomStream(20).child("run")
        x = gaussian_field(rng, mask.height, mask.width)
        half_mask = resample_mask(mask, 8, 6)
        want_totals = []
        for t in range(20, 0, -1):
            eps_u, _, _ = toy.predict(x, t, Condition.NULL)
            eps_c, maps, _ = toy.predict(x, t, Condition.GARMENT)
            eps = cfg_mix(eps_u, eps_c, 2.0)
            z = gaussian_field(rng, *x.shape) if t > 1 else None
            x = ancestral_step(x, t, eps_to_score(eps, t, schedule), schedule, z)
            want_totals.append(e_total(layers_of(maps), [mask, half_mask]).total)
        assert got_x.a.tobytes() == x.tobytes()
        assert [e.energy.total for e in got_rec.entries] == want_totals

    def test_correction_pulls_attention_into_mask(self, toy, mask, schedule):
        deltas = []
        for seed in range(8):
            rng = lambda: RandomStream(100 + seed).child("run")
            _, rec_on = sample_seeded(toy, mask, SamplerConfig(), schedule, rng())
            _, rec_off = sample_seeded(toy, mask, base_cfg(), schedule, rng())
            deltas.append(
                rec_on.final.in_mask_fraction["full"] - rec_off.final.in_mask_fraction["full"]
            )
        assert sum(deltas) / len(deltas) > 0.0

    def test_works_with_uniform_attention_model(self, mask, schedule):
        model = LinearGaussianModel(mu0=0.5, sigma0=1.0, schedule=schedule)
        x, rec = sample_seeded(
            model, mask, SamplerConfig(), schedule, RandomStream(21).child("run")
        )
        assert x.shape == (16, 12)
        assert set(rec.entries[0].energy.in_mask_fraction) == {"full"}
        assert all(e.grad_norm == 0.0 for e in rec.entries)  # zero VJP model


    @pytest.mark.parametrize(
        "empty_at, bad_mask",
        [
            pytest.param("'half' (8x6)", rect_mask(16, 12, 5, 5, 1, 1), id="single-pixel"),
            pytest.param("'full' (16x12)", BinaryMask(np.zeros((16, 12))), id="empty"),
        ],
    )
    def test_mask_vanishing_at_a_layer_raises(self, toy, schedule, empty_at, bad_mask):
        want = re.escape(f"mask is empty at attention layer {empty_at}")
        with pytest.raises(SamplerError, match=want):
            sample_seeded(toy, bad_mask, SamplerConfig(steps=2), schedule, RandomStream(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("corrected", [True, False])
    def test_non_finite_latent_names_the_step(self, toy, mask, schedule, corrected):
        cfg = SamplerConfig(guidance_scale=1e20, rho=0.2 if corrected else 0.0)
        want = re.escape("step 16 (t=4): the latent is no longer finite")
        with pytest.raises(SamplerError, match=want):
            sample_seeded(toy, mask, cfg, schedule, RandomStream(0).child("run"))


class TestKernelCalls:
    """One conv forward per step plus the final one; the VJP reuses it, and
    runs only when some config has rho > 0."""

    STEPS = 7

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"conv": 0, "adjoint": 0, "vjp": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(denoiser, "correlate3x3", counted("conv", denoiser.correlate3x3))
        monkeypatch.setattr(
            denoiser,
            "correlate3x3_adjoint",
            counted("adjoint", denoiser.correlate3x3_adjoint),
        )
        vjp = denoiser.ToyAttentionDenoiser.attention_vjp
        monkeypatch.setattr(denoiser.ToyAttentionDenoiser, "attention_vjp", counted("vjp", vjp))
        return counts

    @pytest.mark.parametrize("corrected, adjoint_calls", [(True, STEPS), (False, 0)])
    def test_one_forward_per_step(
        self, toy, mask, schedule, counts, corrected, adjoint_calls
    ):
        cfg = SamplerConfig(steps=self.STEPS, rho=0.2 if corrected else 0.0)
        sample_seeded(toy, mask, cfg, schedule, RandomStream(24).child("run"))
        assert counts == {"conv": self.STEPS + 1, "adjoint": adjoint_calls, "vjp": adjoint_calls}

    @pytest.mark.parametrize(
        "rhos, vjp_calls",
        [((0.0, 0.0, 0.0), 0), ((0.0, 0.2, 0.0), STEPS), ((0.1, 0.2, 0.3), STEPS)],
        ids=["all-zero", "mixed", "all-positive"],
    )
    def test_a_stack_takes_one_vjp_per_step_iff_a_rho_is_positive(
        self, toy, mask, schedule, counts, rhos, vjp_calls
    ):
        cfgs = [SamplerConfig(steps=self.STEPS, rho=rho) for rho in rhos]
        noise = draw_noise(RandomStream(24).child("run"), mask, cfgs[0], schedule)
        sample_points(toy, [mask] * len(cfgs), cfgs, schedule, [noise] * len(cfgs))
        assert (counts["conv"], counts["vjp"]) == (self.STEPS + 1, vjp_calls)


class _NonFiniteVjpRow:
    """The toy model, except that item `row` of every VJP stack is `value`."""

    def __init__(self, model, row: int, value: float):
        self.model, self.row, self.value = model, row, value

    def predict(self, x, t, cond):
        return self.model.predict(x, t, cond)

    def attention_vjp(self, tape, t, cond, cotangents):
        grad = self.model.attention_vjp(tape, t, cond, cotangents)
        grad[self.row] = self.value
        return grad


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_zero_rho_item_ignores_its_non_finite_vjp_row(toy, mask, schedule, value):
    """The rho = 0 item of a corrected stack takes no gradient, so a
    non-finite VJP row of it neither fails the stack nor reaches it."""
    cfgs = [SamplerConfig(rho=0.2), SamplerConfig(rho=0.0), SamplerConfig(rho=0.5)]
    noise = draw_noise(RandomStream(25).child("run"), mask, cfgs[0], schedule)
    model = _NonFiniteVjpRow(toy, 1, value)
    got = sample_points(model, [mask] * 3, cfgs, schedule, [noise] * 3)
    for cfg, (x, record) in zip(cfgs, got):
        want_x, want = sample(toy, mask, cfg, schedule, noise)
        assert x.a.tobytes() == want_x.a.tobytes()
        assert record.csv_rows() == want.csv_rows()
        assert record.final == want.final
    assert {e.grad_norm for e in got[1][1].entries} == {0.0}


def test_a_non_finite_vjp_row_names_its_config(toy, mask, schedule):
    cfgs = [SamplerConfig(rho=0.2), SamplerConfig(rho=0.0), SamplerConfig(rho=0.5)]
    noise = draw_noise(RandomStream(25).child("run"), mask, cfgs[0], schedule)
    want = re.escape("step 0 (t=20): the energy gradient is no longer finite (config 2)")
    model = _NonFiniteVjpRow(toy, 2, math.nan)
    with pytest.raises(SamplerError, match=want) as err:
        sample_points(model, [mask] * 3, cfgs, schedule, [noise] * 3)
    assert err.value.configs == (2,)


class _CountedPredicts:
    """The toy model, counting its predict calls."""

    def __init__(self, model):
        self.model, self.predicts = model, 0

    def predict(self, x, t, cond):
        self.predicts += 1
        return self.model.predict(x, t, cond)


class TestEnergySeam:
    """A K = 1 call sends every energy, the final one included, through
    sampler._evaluate_layers, which perfbench's capture and tracer patch;
    a stack sends none through it. The layer masks are resampled once
    per call."""

    STEPS = 5

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        evaluate = sampler._evaluate_layers

        def recording(layers, masks, cfg, with_grads):
            result = evaluate(layers, masks, cfg, with_grads)
            calls.append((with_grads, result[0]))
            return result

        monkeypatch.setattr(sampler, "_evaluate_layers", recording)
        return calls

    @pytest.mark.parametrize("rho", [0.2, 0.0])
    def test_k1_sends_steps_plus_one_evaluations(self, toy, mask, schedule, evaluations, rho):
        cfg = SamplerConfig(steps=self.STEPS, rho=rho)
        x, record = sample_seeded(toy, mask, cfg, schedule, RandomStream(26).child("run"))
        assert [g for g, _ in evaluations] == [rho > 0.0] * self.STEPS + [False]
        assert [b for _, b in evaluations[:-1]] == [e.energy for e in record.entries]
        _, final_maps, _ = toy.predict(x.a, 1, Condition.GARMENT)
        final_masks = [mask, resample_mask(mask, 8, 6)]
        want = e_total(layers_of(final_maps), final_masks, cfg.energy_cfg)
        assert evaluations[-1][1] == want == record.final

    def test_a_stack_sends_none(self, toy, mask, schedule, evaluations):
        cfgs = [SamplerConfig(steps=self.STEPS, rho=rho) for rho in (0.1, 0.0, 0.3)]
        noise = draw_noise(RandomStream(26).child("run"), mask, cfgs[0], schedule)
        sample_points(toy, [mask] * len(cfgs), cfgs, schedule, [noise] * len(cfgs))
        assert evaluations == []

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("steps", [1, 2, 7])
    @pytest.mark.parametrize("linear", [False, True], ids=["toy", "linear"])
    def test_resamples_the_mask_once_per_layer(
        self, toy, mask, schedule, monkeypatch, linear, steps, k
    ):
        model = LinearGaussianModel(mu0=0.5, sigma0=1.0, schedule=schedule) if linear else toy
        sizes = []
        resample = sampler.resample_mask
        monkeypatch.setattr(
            sampler, "resample_mask", lambda m, h, w: sizes.append((h, w)) or resample(m, h, w)
        )
        cfgs = [SamplerConfig(steps=steps, rho=0.1 * i) for i in range(k)]
        noise = draw_noise(RandomStream(27).child("run"), mask, cfgs[0], schedule)
        sample_points(model, [mask] * len(cfgs), cfgs, schedule, [noise] * len(cfgs))
        assert sizes == ([(16, 12)] if linear else [(16, 12), (8, 6)])

    def test_an_empty_layer_mask_fails_at_the_first_step(self, toy, schedule):
        model, cfg = _CountedPredicts(toy), SamplerConfig(steps=4)
        bad_mask = rect_mask(16, 12, 5, 5, 1, 1)
        with pytest.raises(SamplerError, match=re.escape("attention layer 'half' (8x6)")):
            sample_seeded(model, bad_mask, cfg, schedule, RandomStream(0))
        assert model.predicts == 2


class TestTrajectoryCsv:
    def test_header_and_roundtrip(self, toy, mask, schedule):
        _, rec = sample_seeded(
            toy, mask, SamplerConfig(steps=4), schedule, RandomStream(22).child("run")
        )
        rows = rec.csv_rows()
        assert len(rows) == 4
        for row, entry in zip(rows, rec.entries):
            assert len(row) == len(CSV_HEADER)
            assert int(row[0]) == entry.step
            assert int(row[1]) == entry.t
            assert float(row[2]) == entry.energy.total  # repr round-trips exactly
            assert float(row[3]) == entry.energy.e_attract
            assert float(row[4]) == entry.energy.e_repel
            assert row[5] == entry.energy.branch_label
            assert float(row[6]) == entry.energy.per_layer["full"].in_mask_mass
            assert float(row[7]) == entry.energy.per_layer["half"].in_mask_mass
            assert float(row[8]) == entry.grad_norm

    def test_missing_layer_leaves_cell_empty(self, mask, schedule, tmp_path):
        model = LinearGaussianModel(mu0=0.5, sigma0=1.0, schedule=schedule)
        _, rec = sample_seeded(
            model, mask, SamplerConfig(steps=3), schedule, RandomStream(23).child("run")
        )
        rows = rec.csv_rows()
        assert all(row[7] == "" for row in rows)
        assert all(row[6] != "" for row in rows)
