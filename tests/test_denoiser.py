"""Toy attention denoiser, linear-Gaussian reference model, and VJP."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import fd_vjp_check
from tryonlab import (
    Condition,
    LinearGaussianModel,
    ModelError,
    RandomStream,
    gaussian_field,
    make_schedule,
    toy_init,
)
from tryonlab.kernels import avg_pool2, correlate3x3, softplus

H, W, C = 16, 12, 4


@pytest.fixture(scope="module")
def toy():
    return toy_init(seed=3, h=H, w=W, channels=C)


@pytest.fixture(scope="module")
def schedule():
    return make_schedule(20, 0.05, 0.3)


def rand_x(seed: int, h: int = H, w: int = W) -> np.ndarray:
    return gaussian_field(RandomStream(seed).child("x"), h, w)


class TestToyInit:
    def test_same_seed_identical_parameters(self):
        a = toy_init(3, H, W, C)
        b = toy_init(3, H, W, C)
        assert np.array_equal(a.kernel, b.kernel)
        assert np.array_equal(a.q_garment, b.q_garment)
        assert (a.u, a.v) == (b.u, b.v)

    def test_different_seeds_differ(self):
        assert not np.array_equal(toy_init(3, H, W, C).kernel, toy_init(4, H, W, C).kernel)

    def test_layer_resolutions(self, toy):
        _, maps, _ = toy.predict(rand_x(0), 5, Condition.GARMENT)
        assert list(maps) == ["full", "half"]
        assert maps["full"].shape == (16, 12)
        assert maps["half"].shape == (8, 6)

    def test_initial_output_scalars(self, toy):
        assert toy.u == 1.0
        assert toy.v == 0.1

    def test_null_query_is_zero(self, toy):
        assert np.array_equal(toy.q_null, np.zeros(C))

    def test_rejects_odd_dims(self):
        with pytest.raises(ModelError):
            toy_init(3, 15, 12, C)
        with pytest.raises(ModelError):
            toy_init(3, 16, 11, C)

    def test_rejects_nonpositive_channels(self):
        with pytest.raises(ModelError):
            toy_init(3, H, W, 0)


class TestToyPredict:
    def test_null_condition_uniform_attention(self, toy):
        _, maps, _ = toy.predict(rand_x(1), 5, Condition.NULL)
        assert np.array_equal(maps["full"], np.full((H, W), 1.0 / (H * W)))
        assert np.array_equal(
            maps["half"], np.full((H // 2, W // 2), 4.0 / (H * W))
        )

    def test_attention_sums_to_one(self, toy):
        for seed in range(10):
            _, maps, _ = toy.predict(rand_x(seed), 5, Condition.GARMENT)
            for a in maps.values():
                assert abs(a.sum() - 1.0) <= 1e-12

    def test_zero_latent_gives_uniform_attention(self, toy):
        # constant features make every logit equal
        _, maps, _ = toy.predict(np.zeros((H, W)), 5, Condition.GARMENT)
        assert np.allclose(maps["full"], 1.0 / (H * W), rtol=1e-12)
        assert np.allclose(maps["half"], 4.0 / (H * W), rtol=1e-12)

    def test_eps_composition(self, toy):
        x = rand_x(2)
        eps, maps, _ = toy.predict(x, 5, Condition.GARMENT)
        want = toy.u * x + toy.v * (H * W) * maps["full"] * x
        assert np.array_equal(eps, want)

    def test_deterministic(self, toy):
        x = rand_x(3)
        a, _, _ = toy.predict(x, 5, Condition.GARMENT)
        b, _, _ = toy.predict(x, 5, Condition.GARMENT)
        assert a.tobytes() == b.tobytes()

    def test_rejects_wrong_shape(self, toy):
        with pytest.raises(ModelError):
            toy.predict(np.zeros((H, W + 2)), 5, Condition.GARMENT)


def explicit_forward(toy, x: np.ndarray, q: np.ndarray):
    """eps and (full, half) maps through conv -> softplus -> softmax, no shortcut."""

    def softmax(logits):
        e = np.exp(logits - logits.max())
        return e / e.sum()

    f = softplus(correlate3x3(x, toy.kernel))
    scale = 1.0 / math.sqrt(toy.channels)
    logits = (q @ f.reshape(toy.channels, -1)).reshape(toy.h, toy.w) * scale
    a_full = softmax(logits)
    a_half = softmax(avg_pool2(logits))
    eps = toy.u * x + toy.v * (toy.h * toy.w) * a_full * x
    return eps, a_full, a_half


class TestZeroQueryShortcut:
    LATENTS = [(seed, scale) for seed in range(4) for scale in (1.0, 1e3)]

    @pytest.mark.parametrize("seed,scale", LATENTS)
    def test_bit_equal_to_explicit_path(self, toy, seed, scale):
        x = scale * rand_x(20 + seed)
        eps, maps, _ = toy.predict(x, 5, Condition.NULL)
        want_eps, want_full, want_half = explicit_forward(toy, x, np.zeros(C))
        assert eps.tobytes() == want_eps.tobytes()
        assert maps["full"].tobytes() == want_full.tobytes()
        assert maps["half"].tobytes() == want_half.tobytes()

    def test_follows_query_values_not_condition(self, toy):
        x = rand_x(30)
        zero_garment = replace(toy, q_garment=np.zeros(C))
        eps, maps, _ = zero_garment.predict(x, 5, Condition.GARMENT)
        want_eps, want_full, _ = explicit_forward(toy, x, np.zeros(C))
        assert eps.tobytes() == want_eps.tobytes()
        assert maps["full"].tobytes() == want_full.tobytes()

        live_null = replace(toy, q_null=toy.q_garment)
        eps, maps, _ = live_null.predict(x, 5, Condition.NULL)
        want_eps, want_full, want_half = explicit_forward(toy, x, toy.q_garment)
        assert eps.tobytes() == want_eps.tobytes()
        assert maps["half"].tobytes() == want_half.tobytes()


class TestToyVjp:
    def test_tape_keeps_the_convolution(self, toy):
        x = rand_x(7)
        _, _, tape = toy.predict(x, 5, Condition.GARMENT)
        want = correlate3x3(x, toy.kernel).tobytes()
        assert tape.z.tobytes() == want
        cots = [rand_x(8), rand_x(9, H // 2, W // 2)]
        toy.attention_vjp(tape, 5, Condition.GARMENT, cots)
        assert tape.z.tobytes() == want  # the VJP left it alone

    def test_zero_cotangents_give_zero_gradient(self, toy):
        zeros = [np.zeros((H, W)), np.zeros((H // 2, W // 2))]
        _, _, tape = toy.predict(rand_x(4), 5, Condition.GARMENT)
        g = toy.attention_vjp(tape, 5, Condition.GARMENT, zeros)
        assert np.array_equal(g, np.zeros((H, W)))

    def test_null_condition_gives_zero_gradient(self, toy):
        rng = RandomStream(5).child("cot")
        cots = [
            gaussian_field(rng, H, W),
            gaussian_field(rng, H // 2, W // 2),
        ]
        for scale in (1.0, 1e3):
            _, _, tape = toy.predict(scale * rand_x(5), 5, Condition.NULL)
            g = toy.attention_vjp(tape, 5, Condition.NULL, cots)
            assert np.array_equal(g, np.zeros((H, W)))

    def test_matches_directional_finite_differences(self, toy):
        rng = RandomStream(11).child("cot")
        cots = [gaussian_field(rng, H, W), gaussian_field(rng, H // 2, W // 2)]
        err = fd_vjp_check(toy, rand_x(11), 5, Condition.GARMENT, cots, h=1e-5)
        assert err < 1e-5

    def test_half_layer_alone_matches_finite_differences(self, toy):
        cots = [
            np.zeros((H, W)),
            gaussian_field(RandomStream(12).child("cot"), H // 2, W // 2),
        ]
        err = fd_vjp_check(toy, rand_x(12), 5, Condition.GARMENT, cots, h=1e-5)
        assert err < 1e-5

    def test_rejects_wrong_cotangent_count(self, toy):
        _, _, tape = toy.predict(rand_x(6), 5, Condition.GARMENT)
        with pytest.raises(ModelError):
            toy.attention_vjp(tape, 5, Condition.GARMENT, [np.zeros((H, W))])

    def test_rejects_wrong_cotangent_shape(self, toy):
        cots = [np.zeros((H, W)), np.zeros((H, W))]
        _, _, tape = toy.predict(rand_x(6), 5, Condition.GARMENT)
        with pytest.raises(ModelError):
            toy.attention_vjp(tape, 5, Condition.GARMENT, cots)


class TestFdVjpCheck:
    def test_zero_cotangents_define_zero_error(self, toy):
        zeros = [np.zeros((H, W)), np.zeros((H // 2, W // 2))]
        assert fd_vjp_check(toy, rand_x(7), 5, Condition.GARMENT, zeros, h=1e-5) == 0.0

    def test_coarse_step_reports_error_without_raising(self, toy):
        rng = RandomStream(13).child("cot")
        cots = [gaussian_field(rng, H, W), gaussian_field(rng, H // 2, W // 2)]
        err = fd_vjp_check(toy, rand_x(13), 5, Condition.GARMENT, cots, h=1e-2)
        assert math.isfinite(err)
        assert err >= 0.0

    def test_rejects_nonpositive_step(self, toy):
        zeros = [np.zeros((H, W)), np.zeros((H // 2, W // 2))]
        with pytest.raises(ModelError):
            fd_vjp_check(toy, rand_x(7), 5, Condition.GARMENT, zeros, h=0.0)


class TestLinearGaussianModel:
    def test_eps_formula(self, schedule):
        model = LinearGaussianModel(mu0=0.5, sigma0=1.0, schedule=schedule)
        x = rand_x(8, 8, 8)
        t = 10
        eps, maps, _ = model.predict(x, t, Condition.GARMENT)
        ab = schedule.alpha_bar_at(t)
        want = (x - math.sqrt(ab) * 0.5) * (math.sqrt(1 - ab) / (ab + 1 - ab))
        assert np.allclose(eps, want, rtol=1e-15, atol=0)
        assert list(maps) == ["full"]
        assert np.array_equal(maps["full"], np.full((8, 8), 1.0 / 64))

    def test_vjp_is_zero(self, schedule):
        model = LinearGaussianModel(mu0=0.5, sigma0=1.0, schedule=schedule)
        _, _, tape = model.predict(rand_x(9, 8, 8), 3, Condition.GARMENT)
        g = model.attention_vjp(tape, 3, Condition.GARMENT, [])
        assert np.array_equal(g, np.zeros((8, 8)))

    def test_rejects_nonpositive_sigma(self, schedule):
        with pytest.raises(ModelError):
            LinearGaussianModel(mu0=0.0, sigma0=0.0, schedule=schedule)

    def test_predicts_posterior_mean_of_noise(self):
        """Regressing true noise on x_t recovers the model's coefficients.

        eps(x, t) = slope * x + intercept with slope = sqrt(1-abar)/D and
        intercept = -sqrt(abar) mu0 sqrt(1-abar)/D, D = abar sigma0^2 +
        1 - abar. A least-squares fit on simulated (x_t, eps) pairs must
        match both coefficients.
        """
        schedule = make_schedule(50, 0.02, 0.2)
        mu0, sigma0 = 2.0, 1.0
        # pick the step whose abar is nearest 1/2 for a well-conditioned fit
        t = int(np.argmin(np.abs(schedule.alpha_bar - 0.5))) + 1
        ab = schedule.alpha_bar_at(t)
        rng = RandomStream(424242).child("lgm-regress")
        n = 100_000
        x0 = mu0 + sigma0 * rng.normals(n)
        eps = rng.normals(n)
        xt = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps
        slope, intercept = np.polyfit(xt, eps, 1)
        denom = ab * sigma0**2 + 1 - ab
        want_slope = math.sqrt(1 - ab) / denom
        want_intercept = -math.sqrt(ab) * mu0 * math.sqrt(1 - ab) / denom
        assert abs(slope - want_slope) < 0.01 * abs(want_slope)
        assert abs(intercept - want_intercept) < 0.01 * abs(want_intercept)
