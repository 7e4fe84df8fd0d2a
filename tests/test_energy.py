"""Attract/repel energies, branch selection, aggregation, and gradients.

Every expected value below is either hand arithmetic on a tiny grid or an
independent oracle (double loops over pairs, central finite differences).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tryonlab import (
    AttentionLayer,
    BinaryMask,
    EnergyConfig,
    EnergyError,
    Grid,
    RandomStream,
    e_total,
)
from tryonlab.energy import _evaluate_layers, _evaluate_stack, _support_raw
from helpers import (
    dense_inner_repel,
    energy_of,
    evaluate_layers_per_item,
    fd_rel_err,
    fd_scalar,
    hinge_safe,
    inner_case,
    random_mask,
    softmax_map,
)

CFG = EnergyConfig()


def repel_inner_oracle(values: list[float], delta: float) -> float:
    """Literal double loop over ordered distinct pairs."""
    n = len(values)
    total = 0.0
    for p in range(n):
        for q in range(n):
            if p != q:
                total += max(0.0, delta - abs(values[p] - values[q]))
    return total / n


# ---------------------------------------------------------------- support


class TestSupport:
    def test_all_zero_map_has_empty_support(self):
        assert _support_raw(np.zeros((3, 3)), 0.01).sum() == 0.0

    def test_threshold_is_relative_to_max(self):
        s = _support_raw(np.array([[1.0, 0.005]]), 0.01)
        assert s.tolist() == [[True, False]]

    def test_uniform_map_has_full_support(self):
        s = _support_raw(np.full((2, 2), 0.25), 0.01)
        assert s.sum() == 4.0

    def test_boundary_is_strict(self):
        # exactly tau * max is excluded
        s = _support_raw(np.array([[1.0, 0.01]]), 0.01)
        assert s.tolist() == [[True, False]]


# -------------------------------------------------------------- e_attract


class TestEAttract:
    def test_fully_contained_attention_is_zero(self):
        A = Grid([[0.0, 0.0], [0.7, 0.3]])
        M = BinaryMask(Grid([[0.0, 0.0], [1.0, 1.0]]))
        assert energy_of(A.a, M.a, CFG, False).e_attract == 0.0

    def test_uniform_split(self):
        A = Grid.full(2, 2, 1.0)
        M = BinaryMask(Grid([[1.0, 1.0], [0.0, 0.0]]))
        assert energy_of(A.a, M.a, CFG, False).e_attract == 1.0

    def test_hand_summed_ratio(self):
        A = Grid([[0.2, 0.4], [0.1, 0.3]])
        M = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        # out = 0.4 + 0.1, in = 0.2 + 0.3
        assert energy_of(A.a, M.a, CFG, False).e_attract == pytest.approx(1.0, rel=1e-15)

    def test_clamped_denominator(self):
        A = Grid([[0.0, 1.0]])
        M = BinaryMask(Grid([[1.0, 0.0]]))
        assert energy_of(A.a, M.a, CFG, False).e_attract == pytest.approx(1.0 / CFG.epsilon_den)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(EnergyError):
            energy_of(np.zeros((2, 2)), np.ones((2, 3)), CFG, False)

    @given(seed=st.integers(0, 10_000), c=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=60)
    def test_scale_invariance(self, seed, c):
        rng = RandomStream(seed)
        A = softmax_map(rng, 6, 5)
        M = random_mask(rng, 6, 5)
        if float((A.a * M.a).sum()) < 1e-6:
            return
        base = energy_of(A.a, M.a, CFG, False).e_attract
        scaled = energy_of(c * A.a, M.a, CFG, False).e_attract
        assert abs(scaled - base) <= 1e-12 * abs(base)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_non_negative_and_zero_iff_contained(self, seed):
        rng = RandomStream(seed)
        A = softmax_map(rng, 5, 4)
        M = random_mask(rng, 5, 4)
        value = energy_of(A.a, M.a, CFG, False).e_attract
        assert value >= 0.0
        s_out = float((A.a * (1.0 - M.a)).sum())
        assert (value == 0.0) == (s_out == 0.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_direct_summation(self, seed):
        rng = RandomStream(seed)
        A = softmax_map(rng, 5, 4)
        M = random_mask(rng, 5, 4)
        s_in = sum(
            A.a[i, j] for i in range(5) for j in range(4) if M.a[i, j] == 1.0
        )
        s_out = sum(
            A.a[i, j] for i in range(5) for j in range(4) if M.a[i, j] == 0.0
        )
        want = s_out / max(s_in, CFG.epsilon_den)
        assert energy_of(A.a, M.a, CFG, False).e_attract == pytest.approx(want, rel=1e-12)


class TestGradEAttract:
    def test_hand_values_on_2x2(self):
        A = Grid([[0.2, 0.4], [0.1, 0.3]])
        M = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        g = energy_of(A.a, M.a, CFG, True).grad_attract
        # in-mask: -S_out / S_in^2 = -0.5 / 0.25; out-mask: 1 / S_in
        assert g[0, 0] == pytest.approx(-2.0, rel=1e-12)
        assert g[1, 1] == pytest.approx(-2.0, rel=1e-12)
        assert g[0, 1] == pytest.approx(2.0, rel=1e-12)
        assert g[1, 0] == pytest.approx(2.0, rel=1e-12)

    def test_full_mask_gives_zero_gradient(self):
        g = energy_of(np.array([[0.2, 0.8]]), np.ones((1, 2)), CFG, True).grad_attract
        assert np.array_equal(g, np.zeros((1, 2)))

    def test_matches_central_differences(self):
        h = 1e-6
        worst = 0.0
        for seed in range(10):
            rng = RandomStream(1000 + seed)
            A = softmax_map(rng, 6, 5)
            M = random_mask(rng, 6, 5)
            g = energy_of(A.a, M.a, CFG, True).grad_attract
            for i in range(6):
                for j in range(5):
                    fd = fd_scalar(lambda x: energy_of(x.a, M.a, CFG, False).e_attract, A, i, j, h)
                    worst = max(worst, fd_rel_err(g[i, j], fd))
        assert worst < 1e-5

    def test_clamped_branch_gradient(self):
        # no attention mass in the mask: denominator is the constant clamp
        A = Grid([[0.0, 0.6], [0.0, 0.4]])
        M = BinaryMask(Grid([[1.0, 0.0], [1.0, 0.0]]))
        g = energy_of(A.a, M.a, CFG, True).grad_attract
        assert np.array_equal(g, (1.0 - M.a) / CFG.epsilon_den)
        # out-mask finite difference agrees exactly: energy is linear there
        fd = fd_scalar(lambda x: energy_of(x.a, M.a, CFG, False).e_attract, A, 0, 1, 1e-6)
        assert fd == pytest.approx(1.0 / CFG.epsilon_den, rel=1e-9)


# ---------------------------------------------------------------- e_repel


def repel_on(branch: str, A: Grid, M: BinaryMask) -> float:
    """The repel energy, after checking that (A, M) takes the expected branch."""
    layer = energy_of(A.a, M.a, CFG, False)
    assert layer.branch == branch
    return layer.e_repel


def in_support_in_mask(A: Grid, M: BinaryMask) -> list[float]:
    h, w = A.shape
    return [
        A.a[i, j]
        for i in range(h)
        for j in range(w)
        if M.a[i, j] == 1.0 and A.a[i, j] > CFG.support_tau * A.a.max()
    ]


class TestERepelInner:
    def test_three_equal_values(self):
        A = Grid([[0.5, 0.5, 0.5]])
        M = BinaryMask(np.ones((1, 3)))
        # 6 ordered pairs, each contributing delta, divided by N=3
        assert repel_on("inner", A, M) == pytest.approx(0.04, rel=1e-12)

    def test_wide_gap_is_inactive(self):
        A = Grid([[0.1, 0.5]])
        M = BinaryMask(np.ones((1, 2)))
        assert repel_on("inner", A, M) == 0.0

    def test_single_point_has_no_pairs(self):
        A = Grid([[0.5, 0.0]])
        M = BinaryMask(Grid([[1.0, 0.0]]))
        assert repel_on("inner", A, M) == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_double_loop_oracle(self, seed):
        rng = RandomStream(seed)
        A, M = inner_case(rng, 6, 6)
        want = repel_inner_oracle(in_support_in_mask(A, M), CFG.delta)
        assert repel_on("inner", A, M) == pytest.approx(want, rel=1e-12, abs=1e-18)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_permutation_invariant_in_mask(self, seed):
        rng = RandomStream(seed)
        A, M = inner_case(rng, 6, 6)
        base = repel_on("inner", A, M)
        sel = M.a == 1.0
        vals = A.a[sel]
        perm = vals[np.argsort(rng.uniforms(vals.size))]
        shuffled = A.a.copy()
        shuffled[sel] = perm
        assert repel_on("inner", Grid(shuffled), M) == pytest.approx(base, rel=1e-12)


@st.composite
def inner_values(draw):
    """(points, delta) with ties and with partners at fl(a + delta) and one
    ulp to either side of it, at magnitudes near 1e-3 and near 0.7. On an
    aligned grid a + delta is exact; off it the sum rounds."""
    scale = draw(st.sampled_from([1e-3, 0.7]))
    delta = draw(st.sampled_from([0.0, 0.02]) | st.floats(1e-6, 0.05))
    values = [scale * f for f in draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6))]
    if draw(st.booleans()):
        # fine enough for every value and coarse enough that a + delta is
        # exact for every a on it
        grid = float(np.spacing(scale * 2.0 + delta))
        delta = round(delta / grid) * grid
        values = [round(a / grid) * grid for a in values]
    pts = list(values)
    for a in values:
        for shift in draw(st.lists(st.sampled_from([0, 1, -1, "tie"]), max_size=3)):
            if shift == "tie":
                pts.append(a)
            else:
                pts.append(float(np.nextafter(a + delta, np.inf * shift)) if shift else a + delta)
    size = draw(st.sampled_from([1, 2, len(pts)]))
    order = draw(st.permutations(range(len(pts))))
    return np.array([pts[k] for k in order[:size]]), delta


class TestInnerRepelAgainstDense:
    """_evaluate's sorted inner repel against the dense pairwise pass."""

    @staticmethod
    def check(pts: np.ndarray, delta: float):
        cfg = EnergyConfig(delta=delta, support_tau=1e-12)
        ev = energy_of(pts[None, :], np.ones((1, pts.size)), cfg, True)
        assert ev.branch == "inner"
        want_e, want_g = dense_inner_repel(pts, delta)
        got_g = ev.grad_repel[0]
        assert np.array_equal(got_g, want_g)
        if pts.size > 1:  # a single point keeps the zero-initialised +0.0
            assert got_g.tobytes() == want_g.tobytes()
        # Error bound. _evaluate rounds, for each point i, c_i delta (c_i
        # active partners above i), the window sum w_i and their difference
        # hinge_i once each: at most eps/2 (c_i delta + w_i + hinge_i) =
        # eps c_i delta. The dense pass rounds |d| and delta - |d| once per
        # ordered pair: eps/2 delta. Summed and divided by n, that is
        # (n - 1) eps delta and (n - 1) eps delta / 2 from the exact mean;
        # 2 n eps delta bounds both, and rel covers the final summations.
        tol = 1e-12 * abs(want_e) + 2.0 * pts.size * np.finfo(float).eps * delta
        assert abs(ev.e_repel - want_e) <= tol
        return want_e

    @given(case=inner_values())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_pass(self, case):
        pts, delta = case
        want_e = self.check(pts, delta)
        assert want_e == pytest.approx(repel_inner_oracle(list(pts), delta), rel=1e-12)

    @pytest.mark.parametrize(
        "a, delta, cut_moves",
        [
            (0.7, 0.0202, "up"),
            (0.0010022, 0.02, "up"),
            (0.0008677167253176843, 0.002042339242041758, "down"),
        ],
    )
    def test_cut_fix_ups(self, a, delta, cut_moves):
        x = a + delta
        below, above = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
        if cut_moves == "up":
            # x is not below fl(a + delta) = x, yet the dense test finds it active
            assert x - a < delta
        else:
            # pred(x) is below fl(a + delta), yet the dense test finds it inactive
            assert below - a >= delta
        self.check(np.array([a, below, x, above, x, below, a]), delta)

    def test_full_mask_at_24x18(self):
        self.check(softmax_map(RandomStream(24), 24, 18).a.ravel(), CFG.delta)

    def test_grad_e_total_memory_is_linear(self):
        a = 1.0 + RandomStream(96).uniforms(96 * 72).reshape(96, 72)
        layers = [AttentionLayer("full", Grid(a / a.sum()))]
        masks = [BinaryMask(np.ones((96, 72)))]
        assert e_total(layers, masks, CFG).branch_label == "inner"
        assert _support_raw(layers[0].map.a, CFG.support_tau).sum() == 96 * 72
        tracemalloc.start()
        try:
            _evaluate_layers(layers, masks, CFG, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense pass needs two 6912 x 6912 float arrays at once (~760 MB)
        assert peak < 4e6


class TestERepelOuter:
    def test_hand_summed_mass(self):
        A = Grid([[0.2, 0.4], [0.1, 0.3]])
        M = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        assert repel_on("outer", A, M) == pytest.approx(-0.5, rel=1e-15)

    def test_empty_mask_is_zero(self):
        assert repel_on("outer", Grid.full(2, 2, 0.25), BinaryMask(np.zeros((2, 2)))) == 0.0

    def test_zero_attention_is_zero(self):
        assert repel_on("outer", Grid(np.zeros((2, 2))), BinaryMask(np.ones((2, 2)))) == 0.0


class TestBranchSelection:
    def test_support_inside_mask_selects_inner(self):
        A, M = inner_case(RandomStream(5), 6, 6)
        ev = energy_of(A.a, M.a, CFG, False)
        assert ev.branch == "inner"
        want = repel_inner_oracle(in_support_in_mask(A, M), CFG.delta)
        assert ev.e_repel == pytest.approx(want, rel=1e-12, abs=1e-18)

    def test_supported_point_outside_mask_selects_outer(self):
        A = Grid([[0.5, 0.5]])
        M = BinaryMask(Grid([[1.0, 0.0]]))
        ev = energy_of(A.a, M.a, CFG, False)
        assert ev.branch == "outer"
        assert ev.e_repel == -0.5

    def test_all_zero_attention_is_outer_zero(self):
        ev = energy_of(np.zeros((2, 2)), np.ones((2, 2)), CFG, False)
        assert ev.branch == "outer"
        assert ev.e_repel == 0.0


class TestGradERepel:
    def test_outer_branch_is_negative_mask_bit_exact(self):
        rng = RandomStream(17)
        A = softmax_map(rng, 5, 4)
        M = random_mask(rng, 5, 4)
        ev = energy_of(A.a, M.a, CFG, True)
        assert ev.branch == "outer"
        assert ev.grad_repel.tobytes() == (-M.a).tobytes()

    def test_inner_equal_values_cancel(self):
        A = Grid([[0.25, 0.25], [0.25, 0.25]])
        M = BinaryMask(np.ones((2, 2)))
        g = energy_of(A.a, M.a, CFG, True).grad_repel
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_two_close_values_match_finite_differences(self):
        A = Grid([[0.50, 0.51]])
        M = BinaryMask(np.ones((1, 2)))
        g = energy_of(A.a, M.a, CFG, True).grad_repel
        # both orderings of the single pair are active, so each point gets
        # twice the one-sided 1/N contribution
        assert g[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert g[0, 1] == pytest.approx(-1.0, rel=1e-12)
        for j in range(2):
            fd = fd_scalar(lambda x: energy_of(x.a, M.a, CFG, False).e_repel, A, 0, j, 1e-6)
            assert fd_rel_err(g[0, j], fd) < 1e-7

    def test_inner_branch_matches_finite_differences(self):
        h = 1e-6
        worst = 0.0
        checked = 0
        for seed in range(12):
            rng = RandomStream(4000 + seed)
            A, M = inner_case(rng, 6, 6)
            ev = energy_of(A.a, M.a, CFG, True)
            assert ev.branch == "inner"
            g = ev.grad_repel
            sel = (M.a == 1.0) & (A.a > CFG.support_tau * A.a.max())
            vals = A.a[sel]
            coords = np.argwhere(sel)
            for idx, (i, j) in enumerate(coords):
                if not hinge_safe(vals, idx, CFG.delta, h):
                    continue
                fd = fd_scalar(lambda x: energy_of(x.a, M.a, CFG, False).e_repel, A, i, j, h)
                worst = max(worst, fd_rel_err(g[i, j], fd))
                checked += 1
        assert checked > 100
        assert worst < 1e-5

    def test_out_of_support_points_have_zero_gradient(self):
        A, M = inner_case(RandomStream(77), 6, 6)
        g = energy_of(A.a, M.a, CFG, True).grad_repel
        outside = ~((M.a == 1.0) & (A.a > CFG.support_tau * A.a.max()))
        assert np.array_equal(g[outside], np.zeros(int(outside.sum())))


# ---------------------------------------------------------------- e_total


def _two_layer_fixture():
    rng = RandomStream(31)
    a1 = softmax_map(rng, 4, 4)
    m1 = random_mask(rng, 4, 4)
    a2 = softmax_map(rng, 2, 2)
    m2 = random_mask(rng, 2, 2)
    layers = [AttentionLayer("full", a1), AttentionLayer("half", a2)]
    return layers, [m1, m2]


class TestETotal:
    def test_single_selected_layer(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(layer_select=frozenset({"full"}))
        bd = e_total(layers, masks, cfg)
        ev = energy_of(layers[0].map.a, masks[0].a, cfg, False)
        want = ev.e_attract + cfg.lam * ev.e_repel
        assert bd.total == pytest.approx(want, rel=1e-12)
        assert bd.per_layer["full"].selected
        assert not bd.per_layer["half"].selected

    def test_lambda_zero_keeps_only_attract(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(lam=0.0)
        bd = e_total(layers, masks, cfg)
        want = 0.5 * (
            energy_of(layers[0].map.a, masks[0].a, cfg, False).e_attract
            + energy_of(layers[1].map.a, masks[1].a, cfg, False).e_attract
        )
        assert bd.total == pytest.approx(want, rel=1e-12)

    def test_mean_of_two_hand_computed_layers(self):
        layers, masks = _two_layer_fixture()
        evs = [energy_of(l.map.a, m.a, CFG, False) for l, m in zip(layers, masks)]
        per = [ev.e_attract + CFG.lam * ev.e_repel for ev in evs]
        bd = e_total(layers, masks, CFG)
        assert bd.total == pytest.approx(0.5 * (per[0] + per[1]), rel=1e-12)
        assert bd.e_attract == pytest.approx(0.5 * sum(ev.e_attract for ev in evs), rel=1e-12)

    def test_unselected_layers_still_reported(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(layer_select=frozenset({"half"}))
        bd = e_total(layers, masks, cfg)
        assert set(bd.per_layer) == {"full", "half"}
        ev = energy_of(layers[1].map.a, masks[1].a, cfg, False)
        assert bd.total == pytest.approx(ev.e_attract + cfg.lam * ev.e_repel, rel=1e-12)

    def test_empty_selection_is_an_error(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(layer_select=frozenset({"nonexistent"}))
        with pytest.raises(EnergyError, match="selection is empty"):
            e_total(layers, masks, cfg)

    def test_layer_mask_count_mismatch(self):
        layers, masks = _two_layer_fixture()
        with pytest.raises(EnergyError):
            e_total(layers, masks[:1], CFG)

    def test_in_mask_mass_reported_per_layer(self):
        layers, masks = _two_layer_fixture()
        bd = e_total(layers, masks, CFG)
        for layer, mask in zip(layers, masks):
            want = float((layer.map.a * mask.a).sum())
            assert bd.per_layer[layer.layer_id].in_mask_mass == pytest.approx(want)


class TestGradETotal:
    def test_composes_per_layer_gradients(self):
        layers, masks = _two_layer_fixture()
        _, grads = _evaluate_layers(layers, masks, CFG, True)
        for layer, mask, g in zip(layers, masks, grads):
            ev = energy_of(layer.map.a, mask.a, CFG, True)
            want = (ev.grad_attract + CFG.lam * ev.grad_repel) / 2.0
            assert np.array_equal(g, want)

    def test_unselected_layer_gets_zero_grid(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(layer_select=frozenset({"full"}))
        _, grads = _evaluate_layers(layers, masks, cfg, True)
        assert np.array_equal(grads[1], np.zeros((2, 2)))
        assert grads[0].any()

    def test_matches_finite_differences_of_aggregate(self):
        layers, masks = _two_layer_fixture()
        _, grads = _evaluate_layers(layers, masks, CFG, True)
        h = 1e-6
        worst = 0.0
        for li, layer in enumerate(layers):
            hh, ww = layer.map.shape
            for i in range(hh):
                for j in range(ww):
                    up = [l.map.a.copy() for l in layers]
                    dn = [l.map.a.copy() for l in layers]
                    up[li][i, j] += h
                    dn[li][i, j] -= h
                    e_up = e_total(
                        [AttentionLayer(l.layer_id, Grid(x)) for l, x in zip(layers, up)],
                        masks,
                        CFG,
                    ).total
                    e_dn = e_total(
                        [AttentionLayer(l.layer_id, Grid(x)) for l, x in zip(layers, dn)],
                        masks,
                        CFG,
                    ).total
                    fd = (e_up - e_dn) / (2.0 * h)
                    worst = max(worst, fd_rel_err(grads[li][i, j], fd))
        assert worst < 1e-5


class TestConfigValidation:
    def test_defaults(self):
        cfg = EnergyConfig()
        assert cfg.lam == 0.01
        assert cfg.delta == 0.02
        assert cfg.support_tau == 0.01
        assert cfg.epsilon_den == 1e-8
        assert cfg.layer_select is None

    def test_rejects_bad_values(self):
        with pytest.raises(EnergyError):
            EnergyConfig(lam=-0.1)
        with pytest.raises(EnergyError):
            EnergyConfig(delta=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(EnergyError, match="finite"):
                EnergyConfig(delta=bad)
            with pytest.raises(EnergyError, match="finite"):
                EnergyConfig(lam=bad)
            with pytest.raises(EnergyError, match="finite"):
                EnergyConfig(epsilon_den=bad)
        with pytest.raises(EnergyError):
            EnergyConfig(support_tau=0.0)
        with pytest.raises(EnergyError):
            EnergyConfig(support_tau=1.0)
        with pytest.raises(EnergyError):
            EnergyConfig(epsilon_den=0.0)
        with pytest.raises(EnergyError, match="overflows"):
            EnergyConfig(epsilon_den=1e-300)

    def test_smallest_epsilon_den_keeps_the_attract_gradient_finite(self):
        """At the bound, S_out / S_in^2 with S_out about 1 stays finite."""
        eps = 1.0547686614863001e-154  # the smallest accepted value
        EnergyConfig(epsilon_den=eps)
        for too_small in (np.nextafter(eps, 0.0), 1e-160):
            with pytest.raises(EnergyError, match="2 / epsilon_den\\^2 overflows"):
                EnergyConfig(epsilon_den=too_small)
        # S_in = eps takes the unclamped branch; S_out = 1
        a = np.array([[eps, 0.5], [0.5, 0.0]])
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        got = energy_of(a, m, EnergyConfig(epsilon_den=eps), True)
        assert got.in_mask_mass == eps
        assert np.isfinite(got.grad_attract).all()
        assert got.grad_attract[0, 0] < 0.0 < got.grad_attract[0, 1]

    def test_attention_layer_rejects_negative_map(self):
        with pytest.raises(EnergyError):
            AttentionLayer("full", Grid([[-0.1, 1.1]]))


# ------------------------------------------------------------ stacked pass

FULL_MASK = np.zeros((8, 6))
FULL_MASK[2:6, 1:4] = 1.0
HALF_MASK = np.zeros((4, 3))
HALF_MASK[1:3, 0:2] = 1.0
STACK_MASKS = [BinaryMask(FULL_MASK), BinaryMask(HALF_MASK)]
SHARED_MASKS = [FULL_MASK, HALF_MASK]  # as _evaluate_stack takes a mask every item shares
LAYER_SELECTS = [None, frozenset({"full"}), frozenset({"half"}), frozenset({"full", "half"})]
# outer: support on both sides of the mask; inner: support inside it only;
# clamp: in-mask mass far below epsilon_den; empty: no in-mask mass at all;
# one: a single in-support value, the inner branch with no pair
KINDS = ["outer", "inner", "clamp", "empty", "one"]


def stack_item(rng: RandomStream, kind: str, m: np.ndarray) -> np.ndarray:
    """One map over mask m with the branch or clamp that kind names."""
    inside = m > 0.0
    a = 0.1 + rng.uniforms(m.size).reshape(m.shape)
    if kind == "inner":
        a[~inside] *= 1e-4  # below every support_tau drawn here
    elif kind == "clamp":
        a[inside] *= 1e-12
    elif kind == "empty":
        a[inside] = 0.0
    elif kind == "one":
        a[:] = 0.0
        a.flat[np.argmax(inside)] = 0.5
    return a / a.sum()


def configs_from(draws) -> list[EnergyConfig]:
    return [
        EnergyConfig(lam=lam, delta=delta, support_tau=tau, epsilon_den=eps, layer_select=sel)
        for lam, delta, tau, eps, sel in draws
    ]


def draw_configs(data, k: int) -> list[EnergyConfig]:
    return configs_from(data.draw(st.lists(st.tuples(
        st.sampled_from([0.0, 0.01, 0.5]),
        st.sampled_from([0.0, 0.02, 0.3]),
        st.sampled_from([0.01, 0.05, 0.2]),
        st.sampled_from([1e-8, 1e-3, 0.05]),
        st.sampled_from(LAYER_SELECTS),
    ), min_size=k, max_size=k)))


def breakdown_hex(bd) -> tuple:
    layers = tuple(
        (lid, le.e_attract.hex(), le.e_repel.hex(), le.branch, le.in_mask_mass.hex(), le.selected)
        for lid, le in bd.per_layer.items()
    )
    return bd.total.hex(), bd.e_attract.hex(), bd.e_repel.hex(), layers


def assert_items_match_oracle(maps, cfgs, with_grads, item_masks=None):
    """item_masks holds each item's (full, half) masks; by default every
    item shares STACK_MASKS."""
    if item_masks is None:
        got, grads = _evaluate_stack(maps, SHARED_MASKS, cfgs, with_grads)
        item_masks = [STACK_MASKS] * len(cfgs)
    else:
        stacks = [np.stack([masks[j].a for masks in item_masks]) for j in range(2)]
        got, grads = _evaluate_stack(maps, stacks, cfgs, with_grads)
    assert len(got) == len(cfgs)
    for i, cfg in enumerate(cfgs):
        layers = [AttentionLayer(lid, Grid(a[i])) for lid, a in maps.items()]
        want, want_grads = evaluate_layers_per_item(layers, item_masks[i], cfg, with_grads)
        assert breakdown_hex(got[i]) == breakdown_hex(want), f"item {i}"
        if with_grads:
            for g, w in zip(grads, want_grads):
                assert g[i].tobytes() == w.tobytes(), f"item {i}"
        else:
            assert grads is None


class TestStackedPass:
    """_evaluate_stack against the per-item oracle in helpers.py: every item
    of a stack, bit for bit, under its own config."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 3, 7]),
        data=st.data(),
        with_grads=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_item_equals_the_oracle(self, seed, k, data, with_grads):
        rng = RandomStream(seed)
        kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=2 * k, max_size=2 * k))
        maps = {
            lid: np.stack([stack_item(rng, kinds[2 * i + j], m.a) for i in range(k)])
            for j, (lid, m) in enumerate(zip(("full", "half"), STACK_MASKS))
        }
        assert_items_match_oracle(maps, draw_configs(data, k), with_grads)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 3, 7]),
        data=st.data(),
        with_grads=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_item_under_its_own_mask_equals_the_oracle(self, seed, k, data, with_grads):
        rng = RandomStream(seed)
        item_masks = [[random_mask(rng, 8, 6), random_mask(rng, 4, 3)] for _ in range(k)]
        kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=2 * k, max_size=2 * k))
        maps = {
            lid: np.stack([stack_item(rng, kinds[2 * i + j], item_masks[i][j].a)
                           for i in range(k)])
            for j, lid in enumerate(("full", "half"))
        }
        assert_items_match_oracle(maps, draw_configs(data, k), with_grads, item_masks)

    def test_a_mixed_stack_covers_both_branches_and_the_clamp(self):
        rng = RandomStream(11)
        rows = [("outer", "inner"), ("inner", "outer"), ("clamp", "clamp"), ("empty", "one"),
                ("inner", "inner"), ("outer", "clamp"), ("one", "empty")]
        maps = {
            lid: np.stack([stack_item(rng, row[j], m.a) for row in rows])
            for j, (lid, m) in enumerate(zip(("full", "half"), STACK_MASKS))
        }
        cfgs = configs_from([
            (0.01, 0.02, 0.01, 1e-8, None),
            (0.5, 0.3, 0.05, 1e-3, frozenset({"full"})),
            (0.0, 0.0, 0.2, 0.05, frozenset({"half"})),
            (0.01, 0.02, 0.01, 1e-8, frozenset({"full", "half"})),
            (0.01, 0.3, 0.2, 1e-3, None),
            (0.5, 0.02, 0.01, 0.05, None),
            (0.0, 0.02, 0.05, 1e-8, frozenset({"half"})),
        ])
        got, _ = _evaluate_stack(maps, SHARED_MASKS, cfgs, False)
        branches = {(lid, le.branch) for bd in got for lid, le in bd.per_layer.items()}
        assert branches == {(lid, b) for lid in ("full", "half") for b in ("inner", "outer")}
        clamped = [bd.per_layer[lid].in_mask_mass < cfg.epsilon_den
                   for bd, cfg in zip(got, cfgs) for lid in ("full", "half")]
        assert any(clamped) and not all(clamped)
        for with_grads in (False, True):
            assert_items_match_oracle(maps, cfgs, with_grads)

    def test_an_off_mask_value_at_the_threshold_keeps_the_inner_branch(self):
        """tau * max(a) itself is not support, so the maxima-based branch
        test must compare the largest off-mask value with <=."""
        a = np.array([[[1.0, 0.01], [0.5, 0.0]], [[1.0, 0.0101], [0.5, 0.0]]])
        m = BinaryMask(np.array([[1.0, 0.0], [1.0, 0.0]]))
        got, _ = _evaluate_stack({"full": a}, [m.a], [CFG, CFG], False)
        assert [bd.per_layer["full"].branch for bd in got] == ["inner", "outer"]

    def test_unselected_layer_gets_zero_rows(self):
        rng = RandomStream(12)
        maps = {lid: np.stack([stack_item(rng, "outer", m.a) for _ in range(3)])
                for lid, m in zip(("full", "half"), STACK_MASKS)}
        cfgs = configs_from([(0.01, 0.02, 0.01, 1e-8, s) for s in LAYER_SELECTS[:3]])
        _, (g_full, g_half) = _evaluate_stack(maps, SHARED_MASKS, cfgs, True)
        assert not g_full[2].any() and not g_half[1].any()
        assert g_full[0].any() and g_full[1].any() and g_half[0].any() and g_half[2].any()

    def bad_maps(self, layer_id: str, value: float) -> dict:
        rng = RandomStream(13)
        maps = {lid: np.stack([stack_item(rng, "outer", m.a) for _ in range(3)])
                for lid, m in zip(("full", "half"), STACK_MASKS)}
        maps[layer_id][1, 0, 0] = value
        return maps

    @pytest.mark.parametrize("layer_id", ["full", "half"])
    def test_a_negative_map_is_rejected_naming_the_layer(self, layer_id):
        with pytest.raises(EnergyError, match=f"layer {layer_id}: attention map has negative"):
            _evaluate_stack(self.bad_maps(layer_id, -1e-9), SHARED_MASKS, [CFG] * 3, True)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("layer_id", ["full", "half"])
    def test_a_non_finite_map_is_rejected_naming_the_layer(self, layer_id, value):
        with pytest.raises(EnergyError, match=f"layer {layer_id}: attention map is not finite"):
            _evaluate_stack(self.bad_maps(layer_id, value), SHARED_MASKS, [CFG] * 3, False)

    def test_a_shape_mismatch_is_rejected_naming_the_layer(self):
        maps = self.bad_maps("full", 0.0)
        maps["half"] = maps["half"][:, :, :2]
        with pytest.raises(EnergyError, match="layer half: attention shape"):
            _evaluate_stack(maps, SHARED_MASKS, [CFG] * 3, False)

    def test_an_empty_selection_is_rejected_naming_the_layers(self):
        cfgs = [CFG, EnergyConfig(layer_select=frozenset({"quarter"})), CFG]
        want = "layer selection is empty: config 1 selects none of the layers full, half"
        with pytest.raises(EnergyError, match=want):
            _evaluate_stack(self.bad_maps("full", 0.0), SHARED_MASKS, cfgs, True)

