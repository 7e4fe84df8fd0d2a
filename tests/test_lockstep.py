"""Lockstep sampling: K configs stepped as one (K, h, w) latent stack.

Each config's trajectory must equal, bit for bit, the per-step oracle in
helpers.py run on that config alone; the model and the kernels must give
each item of a stack what a call on that item alone gives.
"""

import re
from functools import partial

import numpy as np
import pytest

import tryonlab.experiments as experiments
import tryonlab.kernels as kernels
from helpers import rect_mask, sample_per_step, sweep_rows_grid_major
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
from tryonlab.experiments import ConfigError, load_dataset, paired_run, sweep_rows

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
    got = sample_points(model, [mask] * k, cfgs, schedule, [noise] * k)
    assert len(got) == k
    for i, (cfg, point) in enumerate(zip(cfgs, got)):
        want = sample_per_step(model, mask, cfg, schedule, RandomStream(9).child("trial-0"))
        assert outputs(*point) == outputs(*want), f"config {i}"


# (h, w) -> a distinct mask for each of three trials
def trial_masks(h: int, w: int) -> list:
    return [rect_mask(h, w, h // 8 + t, w // 8 + 2 * t, h // 2 - t, w // 3 + t) for t in range(3)]


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("h,w", SIZES + [(128, 96)])
def test_items_on_their_own_masks_and_blocks_equal_the_per_step_oracle(schedule, h, w, k):
    """Items of three trials, trial-major as a sweep lists them: each
    trial's items pass the same mask and block objects, and the trials'
    masks and blocks differ."""
    model = toy_init(7, h, w, 4)
    masks = trial_masks(h, w)
    cfgs = [configs(7, True)[i % 7] for i in range(k)]
    streams = [RandomStream(9).child(f"trial-{t}") for t in range(3)]
    blocks = [draw_noise(rng, m, cfgs[0], schedule) for rng, m in zip(streams, masks)]
    trial = [i * 3 // k for i in range(k)]
    got = sample_points(
        model, [masks[t] for t in trial], cfgs, schedule, [blocks[t] for t in trial]
    )
    assert len(got) == k
    for i, (cfg, t, point) in enumerate(zip(cfgs, trial, got)):
        rng = RandomStream(9).child(f"trial-{t}")
        want = sample_per_step(model, masks[t], cfg, schedule, rng)
        assert outputs(*point) == outputs(*want), f"item {i} (trial {t})"


def test_items_must_share_their_mask_shape(schedule):
    model, cfgs = toy_init(7, 16, 12, 4), configs(2, True)
    masks = [rect_mask(16, 12, 4, 3, 8, 5), rect_mask(16, 14, 4, 3, 8, 5)]
    noise = draw_noise(RandomStream(1), masks[0], cfgs[0], schedule)
    want = re.escape("masks run in lockstep must share their shape, got [(16, 12), (16, 14)]")
    with pytest.raises(SamplerError, match=want):
        sample_points(model, masks, cfgs, schedule, [noise] * 2)


def test_every_item_needs_a_mask_and_a_block(schedule):
    model, mask, cfgs = toy_init(7, 16, 12, 4), rect_mask(16, 12, 4, 3, 8, 5), configs(3, True)
    noise = draw_noise(RandomStream(1), mask, cfgs[0], schedule)
    with pytest.raises(SamplerError, match="3 configs but 2 masks and 3 noise blocks"):
        sample_points(model, [mask] * 2, cfgs, schedule, [noise] * 3)


def test_a_misshapen_second_block_is_rejected(schedule):
    model, mask, cfgs = toy_init(7, 16, 12, 4), rect_mask(16, 12, 4, 3, 8, 5), configs(2, True)
    noise = draw_noise(RandomStream(1), mask, cfgs[0], schedule)
    want = re.escape("noise block shape (19, 16, 12) != expected (20, 16, 12)")
    with pytest.raises(SamplerError, match=want):
        sample_points(model, [mask] * 2, cfgs, schedule, [noise, noise[1:]])


def test_configs_must_share_steps(schedule):
    model, mask = toy_init(7, 16, 12, 4), rect_mask(16, 12, 4, 3, 8, 5)
    cfgs = [SamplerConfig(), SamplerConfig(steps=7)]
    noise = draw_noise(RandomStream(1), mask, cfgs[0], schedule)
    with pytest.raises(SamplerError, match=re.escape("must share steps, got [7, 20]")):
        sample_points(model, [mask] * len(cfgs), cfgs, schedule, [noise] * len(cfgs))


def test_no_configs_is_an_error(schedule):
    mask = rect_mask(16, 12, 4, 3, 8, 5)
    noise = draw_noise(RandomStream(1), mask, SamplerConfig(), schedule)
    with pytest.raises(SamplerError, match="no configs"):
        sample_points(toy_init(7, 16, 12, 4), [mask], [], schedule, [noise])


def test_leaves_the_noise_block_unwritten(schedule):
    model, mask = toy_init(7, 16, 12, 4), rect_mask(16, 12, 4, 3, 8, 5)
    cfgs = configs(7, True)
    noise = draw_noise(RandomStream(2), mask, cfgs[0], schedule)
    before = noise.tobytes()
    sample_points(model, [mask] * len(cfgs), cfgs, schedule, [noise] * len(cfgs))
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
        sample_points(model, [mask] * len(cfgs), cfgs, schedule, [noise] * len(cfgs))
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
            sweep_rows(["scale_factor"], toy_init(7, 24, 18, 4), schedule, SamplerConfig(),
                       dataset, 2, 0)
        assert calls == []


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize(
    "driver", [paired_run, partial(sweep_rows, ["scale_factor"])], ids=["paired_run", "sweep_rows"]
)
def test_drivers_reject_fewer_than_one_trial(driver, trials, schedule, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_sampler", lambda *a: calls.append(a))
    with pytest.raises(ConfigError, match=f"trials: must be >= 1, got {trials}"):
        driver(toy_init(7, 24, 18, 4), schedule, SamplerConfig(), [], trials, 0)
    assert calls == []


def as_hex(rows: list[dict]) -> list[dict]:
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]


class TestSweepChunks:
    """A sweep's rows, and the grid points that it names when a trial
    diverges, do not depend on how its (trial, grid point) items are cut
    into sampler calls, nor on which other kinds share the call."""

    TRIALS = 3
    KINDS = list(experiments.SWEEPS)
    # the three grids list the default point (rho 0.2, guidance 2, both
    # layers) once each: 7 + 6 + 3 grid points, 14 distinct
    POINTS = 14

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("chunks")
        write_dataset(root, gen_dataset(seed=5, n=2, paired=True, h=24, w=18), "paired")
        return load_dataset(root / "manifest.json")

    @pytest.fixture(scope="class")
    def alone(self, dataset, schedule):
        """float.hex rows of each kind swept alone at the default budget."""
        return {kind: as_hex(sweep_rows([kind], toy_init(7, 24, 18, 4), schedule,
                                        SamplerConfig(steps=6), dataset, self.TRIALS, 11)[kind])
                for kind in self.KINDS}

    @staticmethod
    def budget(monkeypatch, budget_items) -> list[int]:
        """Set the budget to hold budget_items items of a 24x18 step (0:
        less than one) and return the list that each sampler call appends
        its item count to."""
        per_item = experiments._STEP_FIELDS * 24 * 18 * 8
        monkeypatch.setattr(kernels, "_IM2COL_BYTES", budget_items * per_item or 1)
        calls = []

        def counted(model, masks, cfgs, sched, noises):
            calls.append(len(cfgs))
            return sample_points(model, masks, cfgs, sched, noises)

        monkeypatch.setattr(experiments, "run_sampler", counted)
        return calls

    def rows(self, kinds, dataset, schedule, monkeypatch, budget_items):
        """float.hex rows of each kind and the items of each sampler call."""
        calls = self.budget(monkeypatch, budget_items)
        rows = sweep_rows(kinds, toy_init(7, 24, 18, 4), schedule, SamplerConfig(steps=6),
                          dataset, self.TRIALS, 11)
        assert list(rows) == list(kinds)
        return {kind: as_hex(kind_rows) for kind, kind_rows in rows.items()}, calls

    @pytest.mark.parametrize("kind", list(experiments.SWEEPS))
    def test_one_item_one_trial_or_every_item_per_call(self, kind, dataset, schedule,
                                                       monkeypatch):
        points = len(experiments.SWEEPS[kind].grid)
        items = self.TRIALS * points
        by_item, calls_1 = self.rows([kind], dataset, schedule, monkeypatch, 0)
        by_trial, calls_t = self.rows([kind], dataset, schedule, monkeypatch, points)
        at_once, calls_all = self.rows([kind], dataset, schedule, monkeypatch, items)
        assert calls_1 == [1] * items
        assert calls_t == [points] * self.TRIALS
        assert calls_all == [items]
        assert by_item == by_trial == at_once
        want = sweep_rows_grid_major(kind, toy_init(7, 24, 18, 4), schedule,
                                     SamplerConfig(steps=6), dataset, self.TRIALS, 11)
        assert at_once[kind] == as_hex(want)

    def test_calls_split_the_items_evenly(self, dataset, schedule, monkeypatch):
        # 3 trials x 7 points, at most 8 items a call: 3 calls of 7
        _, calls = self.rows(["scale_factor"], dataset, schedule, monkeypatch, 8)
        assert calls == [7, 7, 7]

    @pytest.mark.parametrize("budget_items", [1, 2, 6])
    def test_a_budget_that_holds_an_item_never_cuts_a_trial(self, budget_items, dataset,
                                                             schedule, monkeypatch):
        _, calls = self.rows(["scale_factor"], dataset, schedule, monkeypatch, budget_items)
        assert calls == [7, 7, 7]

    @pytest.mark.parametrize("budget_items", [0, 7, TRIALS * POINTS],
                             ids=["one-item", "one-grid", "every-item"])
    def test_three_kinds_give_each_kind_alone(self, budget_items, dataset, schedule,
                                              monkeypatch, alone):
        got, calls = self.rows(self.KINDS, dataset, schedule, monkeypatch, budget_items)
        assert got == alone
        # the shared default point runs once per trial, and no call holds
        # more items than the budget or the largest grid allows
        assert sum(calls) == self.TRIALS * self.POINTS
        assert calls == {0: [1] * 42, 7: [7] * 6, 42: [42]}[budget_items]

    def test_three_kinds_give_the_grid_major_oracle(self, alone, dataset, schedule):
        for kind in self.KINDS:
            want = sweep_rows_grid_major(kind, toy_init(7, 24, 18, 4), schedule,
                                         SamplerConfig(steps=6), dataset, self.TRIALS, 11)
            assert alone[kind] == as_hex(want), kind

    @pytest.mark.parametrize("kinds", [["layers", "layers"], ["guidance", "layers", "guidance"]])
    def test_a_repeated_kind_is_rejected_before_any_trajectory(self, kinds, dataset, schedule,
                                                               monkeypatch):
        calls = self.budget(monkeypatch, 7)
        with pytest.raises(ConfigError, match=f"sweep kind {kinds[-1]!r} given more than once"):
            sweep_rows(kinds, toy_init(7, 24, 18, 4), schedule, SamplerConfig(steps=6),
                       dataset, self.TRIALS, 11)
        assert calls == []

    def test_configs_merge_only_when_equal_bit_for_bit(self):
        key = experiments._config_key
        assert key(SamplerConfig(rho=0.2)) == key(SamplerConfig(rho=0.2))
        assert key(SamplerConfig(rho=0.0)) != key(SamplerConfig(rho=-0.0))
        assert key(SamplerConfig(guidance_scale=2)) != key(SamplerConfig(guidance_scale=2.0))
        both = EnergyConfig(layer_select=["full", "half"])
        assert key(both) == key(EnergyConfig(layer_select=["half", "full"]))
        assert key(both) != key(EnergyConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("kind, named", [
        # rho = 0 takes no gradient, so only the corrected points diverge
        ("scale_factor", "rho=0.05, rho=0.1, rho=0.15, rho=0.2, rho=0.25, rho=0.3: "),
        ("layers", "layers=both, layers=full_only, layers=half_only: "),
    ])
    def test_a_diverging_trial_is_named_as_one_call_per_trial_names_it(
        self, kind, named, dataset, schedule, monkeypatch
    ):
        sweep = experiments.SWEEPS[kind]
        points = len(sweep.grid)
        cfg = SamplerConfig(guidance_scale=1e30, rho=0.2, energy_cfg=EnergyConfig(lam=1e200))
        raised = {}
        for budget_items in (0, points, self.TRIALS * points):
            self.budget(monkeypatch, budget_items)
            with pytest.raises(SamplerError) as err:
                sweep_rows([kind], toy_init(7, 24, 18, 4), schedule, cfg, dataset,
                           self.TRIALS, 11)
            raised[budget_items] = (str(err.value), err.value.configs)
        message, configs = raised[points]  # one call per trial
        assert message.startswith(named)
        names = named.removesuffix(": ").split(", ")
        assert configs == tuple(j for j, value in enumerate(sweep.grid)
                                if f"{sweep.column}={value}" in names)
        assert set(raised.values()) == {(message, configs)}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_a_diverging_three_kind_sweep_names_a_point_under_every_kind(
        self, dataset, schedule, monkeypatch
    ):
        # the scale grid's points keep guidance 1e30 and diverge, rho = 0
        # aside; rho 0.2 is also layers=both. The guidance grid's points
        # replace 1e30 and stay finite at that step.
        cfg = SamplerConfig(guidance_scale=1e30, rho=0.2, energy_cfg=EnergyConfig(lam=1e200))
        named = ("rho=0.05, rho=0.1, rho=0.15, rho=0.2, rho=0.25, rho=0.3, "
                 "layers=both, layers=full_only, layers=half_only: ")
        points = 7 + 6 + 2
        raised = {}
        for budget_items in (0, 7, self.TRIALS * points):
            self.budget(monkeypatch, budget_items)
            with pytest.raises(SamplerError) as err:
                sweep_rows(self.KINDS, toy_init(7, 24, 18, 4), schedule, cfg, dataset,
                           self.TRIALS, 11)
            raised[budget_items] = (str(err.value), err.value.configs)
        [(message, configs)] = set(raised.values())
        assert message.startswith(named)
        # the points in order of first listing: the scale grid's 7, the
        # guidance grid's 6, then full_only and half_only
        assert configs == (1, 2, 3, 4, 5, 6, 13, 14)


MODELS = {
    "toy": lambda h, w: toy_init(7, h, w, 4),
    "linear_gaussian": lambda h, w: LinearGaussianModel(
        mu0=0.5, sigma0=1.0, schedule=make_schedule(20, 0.05, 0.3)
    ),
}


# kernels._chunk: the adjoint of the VJP takes all items in one product at
# 16x12 and 24x18, two per product at 48x36 and one at 128x96; the forward
# takes all at 24x18, up to eight per product at 48x36 and one at 128x96.
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
