"""Lockstep sampling: K configs stepped as one (K, h, w) latent stack.

Each config's trajectory must equal, bit for bit, the per-step oracle in
helpers.py run on that config alone; the model and the kernels must give
each item of a stack what a call on that item alone gives.
"""

import re

import numpy as np
import pytest

import tryonlab.experiments as experiments
from helpers import rect_mask, sample_per_step
from tryonlab import (
    Condition,
    EnergyConfig,
    LinearGaussianModel,
    RandomStream,
    SamplerConfig,
    SamplerError,
    cfg_mix,
    csc_correct,
    draw_noise,
    gaussian_field,
    gen_dataset,
    make_schedule,
    sample_points,
    toy_init,
    write_dataset,
)
from tryonlab.experiments import ConfigError, load_dataset, sweep_rows

SIZES = [(24, 18), (48, 36)]
FULL, HALF = frozenset({"full"}), frozenset({"half"})
# rows with rho = 0 and with guidance_scale = 1 need the per-row fix-ups
POINTS = [
    (0.0, 1.0, None),
    (0.2, 2.0, FULL),
    (0.3, 1.0, HALF),
    (0.1, 5.0, None),
    (0.0, 2.5, HALF),
    (0.05, 1.5, FULL),
    (0.15, 3.0, None),
]


@pytest.fixture(scope="module")
def schedule():
    return make_schedule(20, 0.05, 0.3)


def configs(k: int, corrected: bool) -> list[SamplerConfig]:
    """The first k points; uncorrected, every rho is set to 0."""
    return [
        SamplerConfig(
            rho=rho if corrected else 0.0,
            guidance_scale=s,
            energy_cfg=EnergyConfig(layer_select=layers),
        )
        for rho, s, layers in POINTS[:k]
    ]


def outputs(x, record):
    return x.a.tobytes(), record.csv_rows(), record.final


@pytest.mark.parametrize("corrected", [True, False])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("h,w", SIZES)
def test_each_point_equals_the_per_step_oracle(schedule, h, w, k, corrected):
    model = toy_init(7, h, w, 4)
    mask = rect_mask(h, w, h // 4, w // 4, h // 2, w // 2)
    cfgs = configs(k, corrected)
    noise = draw_noise(RandomStream(9).child("trial-0"), mask, cfgs[0], schedule)
    got = sample_points(model, mask, cfgs, schedule, noise)
    assert len(got) == k
    for i, (cfg, point) in enumerate(zip(cfgs, got)):
        want = sample_per_step(model, mask, cfg, schedule, RandomStream(9).child("trial-0"))
        assert outputs(*point) == outputs(*want), f"config {i}"


def test_configs_must_share_steps(schedule):
    model, mask = toy_init(7, 16, 12, 4), rect_mask(16, 12, 4, 3, 8, 5)
    cfgs = [SamplerConfig(), SamplerConfig(steps=7)]
    noise = draw_noise(RandomStream(1), mask, cfgs[0], schedule)
    with pytest.raises(SamplerError, match=re.escape("must share steps, got [7, 20]")):
        sample_points(model, mask, cfgs, schedule, noise)


def test_no_configs_is_an_error(schedule):
    mask = rect_mask(16, 12, 4, 3, 8, 5)
    noise = draw_noise(RandomStream(1), mask, SamplerConfig(), schedule)
    with pytest.raises(SamplerError, match="no configs"):
        sample_points(toy_init(7, 16, 12, 4), mask, [], schedule, noise)


def test_leaves_the_noise_block_unwritten(schedule):
    model, mask = toy_init(7, 16, 12, 4), rect_mask(16, 12, 4, 3, 8, 5)
    cfgs = configs(7, True)
    noise = draw_noise(RandomStream(2), mask, cfgs[0], schedule)
    before = noise.tobytes()
    sample_points(model, mask, cfgs, schedule, noise)
    assert noise.tobytes() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("corrected", [True, False])
def test_a_diverging_config_is_named_alone(schedule, corrected):
    model, mask = toy_init(7, 16, 12, 4), rect_mask(16, 12, 4, 3, 8, 5)
    rho = 0.2 if corrected else 0.0
    cfgs = [
        SamplerConfig(rho=rho, guidance_scale=2.0),
        SamplerConfig(rho=rho, guidance_scale=1e300),
    ]
    noise = draw_noise(RandomStream(3), mask, cfgs[0], schedule)
    want = r"step \d+ \(t=\d+\): the latent is no longer finite \(config 1\)"
    with pytest.raises(SamplerError, match=want) as err:
        sample_points(model, mask, cfgs, schedule, noise)
    assert err.value.configs == (1,)


class TestPerItemParameters:
    """cfg_mix and csc_correct take one value per item of a stack. The
    inputs are chosen so that the general formula misses the bits that a
    scale of 1 or a rho of 0 must keep."""

    def test_unit_scale_items_keep_the_conditional_prediction(self):
        u = np.stack([np.full((2, 2), 1e16), np.full((2, 2), 1e16), np.full((2, 2), 3.0)])
        c = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 1.0), np.full((2, 2), 0.5)])
        assert (u[0] + 1.0 * (c[0] - u[0]) != c[0]).all()  # what the fix-up repairs
        got = cfg_mix(u, c, np.array([1.0, 2.0, 1.0]).reshape(-1, 1, 1))
        assert got[0].tobytes() == c[0].tobytes()
        assert got[1].tobytes() == (u[1] + 2.0 * (c[1] - u[1])).tobytes()
        assert got[2].tobytes() == c[2].tobytes()

    def test_zero_rho_items_keep_the_predicted_step(self):
        m = np.stack([np.full((2, 2), -0.0), np.full((2, 2), -0.0)])
        g = np.full((2, 2, 2), -1.0)
        assert not np.signbit(m[0] - 0.0 * g[0]).any()  # what the fix-up repairs
        got = csc_correct(m, g, np.array([0.0, 0.2]).reshape(-1, 1, 1))
        assert got[0].tobytes() == m[0].tobytes()
        assert got[1].tobytes() == (m[1] - 0.2 * g[1]).tobytes()

    def test_a_negative_item_rho_is_rejected(self):
        with pytest.raises(SamplerError, match="rho must be >= 0"):
            csc_correct(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                        np.array([0.1, -0.1]).reshape(-1, 1, 1))


class TestSweepChecksTheCanvasFirst:
    def test_before_any_trajectory(self, schedule, tmp_path, monkeypatch):
        write_dataset(tmp_path, gen_dataset(seed=3, n=2, paired=True, h=16, w=12), "paired")
        dataset = load_dataset(tmp_path / "manifest.json")
        calls = []
        monkeypatch.setattr(experiments, "run_sampler", lambda *a: calls.append(a))
        want = re.escape("model dims (24, 18) != dataset canvas (16, 12)")
        with pytest.raises(ConfigError, match=want):
            sweep_rows("scale_factor", toy_init(7, 24, 18, 4), schedule, SamplerConfig(),
                       dataset, 2, 0)
        assert calls == []


MODELS = {
    "toy": lambda h, w: toy_init(7, h, w, 4),
    "linear_gaussian": lambda h, w: LinearGaussianModel(
        mu0=0.5, sigma0=1.0, schedule=make_schedule(20, 0.05, 0.3)
    ),
}


# The adjoint of the VJP takes all items in one product at 16x12 and
# 24x18, two per product at 48x36 and one at 128x96 (kernels._adjoint_chunk).
@pytest.mark.parametrize("cond", list(Condition), ids=lambda c: c.value)
@pytest.mark.parametrize("k", [3, 7, 8])
@pytest.mark.parametrize("h,w", [(16, 12)] + SIZES + [(128, 96)])
@pytest.mark.parametrize("name", list(MODELS))
class TestStackEqualsSingleCalls:
    def stack(self, k, h, w):
        return np.stack([gaussian_field(RandomStream(4).child(f"x-{i}"), h, w) for i in range(k)])

    def test_predict(self, name, h, w, k, cond):
        model, xs = MODELS[name](h, w), self.stack(k, h, w)
        eps, maps, _ = model.predict(xs, 5, cond)
        assert eps.shape == xs.shape
        for i, x in enumerate(xs):
            eps_i, maps_i, _ = model.predict(x, 5, cond)
            assert eps[i].tobytes() == eps_i.tobytes(), f"item {i}"
            assert list(maps) == list(maps_i)
            for layer_id, a in maps.items():
                assert a[i].tobytes() == maps_i[layer_id].tobytes(), f"item {i} {layer_id}"

    def test_attention_vjp(self, name, h, w, k, cond):
        model, xs = MODELS[name](h, w), self.stack(k, h, w)
        _, maps, tape = model.predict(xs, 5, cond)
        rng = RandomStream(5).child("cot")
        cotangents = [rng.normals(a.size).reshape(a.shape) for a in maps.values()]
        grad = model.attention_vjp(tape, 5, cond, cotangents)
        assert grad.shape == xs.shape
        for i, x in enumerate(xs):
            _, _, tape_i = model.predict(x, 5, cond)
            grad_i = model.attention_vjp(tape_i, 5, cond, [c[i] for c in cotangents])
            assert grad[i].tobytes() == grad_i.tobytes(), f"item {i}"
