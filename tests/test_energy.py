"""Attract/repel energies, branch selection, aggregation, and gradients.

Every expected value below is either hand arithmetic on a tiny grid or an
independent oracle (double loops over pairs, central finite differences).
"""

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
    e_attract,
    e_repel,
    e_total,
    grad_e_attract,
    grad_e_repel,
    grad_e_total,
    support,
)
from helpers import (
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
        assert support(Grid.zeros(3, 3), 0.01).a.sum() == 0.0

    def test_threshold_is_relative_to_max(self):
        s = support(Grid([[1.0, 0.005]]), 0.01)
        assert s.a.tolist() == [[1.0, 0.0]]

    def test_uniform_map_has_full_support(self):
        s = support(Grid.full(2, 2, 0.25), 0.01)
        assert s.a.sum() == 4.0

    def test_boundary_is_strict(self):
        # exactly tau * max is excluded
        s = support(Grid([[1.0, 0.01]]), 0.01)
        assert s.a.tolist() == [[1.0, 0.0]]


# -------------------------------------------------------------- e_attract


class TestEAttract:
    def test_fully_contained_attention_is_zero(self):
        A = Grid([[0.0, 0.0], [0.7, 0.3]])
        M = BinaryMask(Grid([[0.0, 0.0], [1.0, 1.0]]))
        assert e_attract(A, M, CFG) == 0.0

    def test_uniform_split(self):
        A = Grid.full(2, 2, 1.0)
        M = BinaryMask(Grid([[1.0, 1.0], [0.0, 0.0]]))
        assert e_attract(A, M, CFG) == 1.0

    def test_hand_summed_ratio(self):
        A = Grid([[0.2, 0.4], [0.1, 0.3]])
        M = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        # out = 0.4 + 0.1, in = 0.2 + 0.3
        assert e_attract(A, M, CFG) == pytest.approx(1.0, rel=1e-15)

    def test_clamped_denominator(self):
        A = Grid([[0.0, 1.0]])
        M = BinaryMask(Grid([[1.0, 0.0]]))
        assert e_attract(A, M, CFG) == pytest.approx(1.0 / CFG.epsilon_den)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(EnergyError):
            e_attract(Grid.zeros(2, 2), BinaryMask.ones(2, 3), CFG)

    @given(seed=st.integers(0, 10_000), c=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=60)
    def test_scale_invariance(self, seed, c):
        rng = RandomStream(seed)
        A = softmax_map(rng, 6, 5)
        M = random_mask(rng, 6, 5)
        if float((A.a * M.a).sum()) < 1e-6:
            return
        base = e_attract(A, M, CFG)
        scaled = e_attract(Grid(c * A.a), M, CFG)
        assert abs(scaled - base) <= 1e-12 * abs(base)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_non_negative_and_zero_iff_contained(self, seed):
        rng = RandomStream(seed)
        A = softmax_map(rng, 5, 4)
        M = random_mask(rng, 5, 4)
        value = e_attract(A, M, CFG)
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
        assert e_attract(A, M, CFG) == pytest.approx(want, rel=1e-12)


class TestGradEAttract:
    def test_hand_values_on_2x2(self):
        A = Grid([[0.2, 0.4], [0.1, 0.3]])
        M = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        g = grad_e_attract(A, M, CFG)
        # in-mask: -S_out / S_in^2 = -0.5 / 0.25; out-mask: 1 / S_in
        assert g.a[0, 0] == pytest.approx(-2.0, rel=1e-12)
        assert g.a[1, 1] == pytest.approx(-2.0, rel=1e-12)
        assert g.a[0, 1] == pytest.approx(2.0, rel=1e-12)
        assert g.a[1, 0] == pytest.approx(2.0, rel=1e-12)

    def test_full_mask_gives_zero_gradient(self):
        A = Grid([[0.2, 0.8]])
        g = grad_e_attract(A, BinaryMask.ones(1, 2), CFG)
        assert np.array_equal(g.a, np.zeros((1, 2)))

    def test_matches_central_differences(self):
        h = 1e-6
        worst = 0.0
        for seed in range(10):
            rng = RandomStream(1000 + seed)
            A = softmax_map(rng, 6, 5)
            M = random_mask(rng, 6, 5)
            g = grad_e_attract(A, M, CFG).a
            for i in range(6):
                for j in range(5):
                    fd = fd_scalar(lambda x: e_attract(x, M, CFG), A, i, j, h)
                    worst = max(worst, fd_rel_err(g[i, j], fd))
        assert worst < 1e-5

    def test_clamped_branch_gradient(self):
        # no attention mass in the mask: denominator is the constant clamp
        A = Grid([[0.0, 0.6], [0.0, 0.4]])
        M = BinaryMask(Grid([[1.0, 0.0], [1.0, 0.0]]))
        g = grad_e_attract(A, M, CFG)
        assert np.array_equal(g.a, (1.0 - M.a) / CFG.epsilon_den)
        # out-mask finite difference agrees exactly: energy is linear there
        fd = fd_scalar(lambda x: e_attract(x, M, CFG), A, 0, 1, 1e-6)
        assert fd == pytest.approx(1.0 / CFG.epsilon_den, rel=1e-9)


# ---------------------------------------------------------------- e_repel


def repel_on(branch: str, A: Grid, M: BinaryMask) -> float:
    """e_repel's value, after checking that (A, M) takes the expected branch."""
    value, got = e_repel(A, M, CFG)
    assert got == branch
    return value


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
        M = BinaryMask.ones(1, 3)
        # 6 ordered pairs, each contributing delta, divided by N=3
        assert repel_on("inner", A, M) == pytest.approx(0.04, rel=1e-12)

    def test_wide_gap_is_inactive(self):
        A = Grid([[0.1, 0.5]])
        M = BinaryMask.ones(1, 2)
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


class TestERepelOuter:
    def test_hand_summed_mass(self):
        A = Grid([[0.2, 0.4], [0.1, 0.3]])
        M = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        assert repel_on("outer", A, M) == pytest.approx(-0.5, rel=1e-15)

    def test_empty_mask_is_zero(self):
        assert repel_on("outer", Grid.full(2, 2, 0.25), BinaryMask.zeros(2, 2)) == 0.0

    def test_zero_attention_is_zero(self):
        assert repel_on("outer", Grid.zeros(2, 2), BinaryMask.ones(2, 2)) == 0.0


class TestBranchSelection:
    def test_support_inside_mask_selects_inner(self):
        A, M = inner_case(RandomStream(5), 6, 6)
        value, branch = e_repel(A, M, CFG)
        assert branch == "inner"
        want = repel_inner_oracle(in_support_in_mask(A, M), CFG.delta)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-18)

    def test_supported_point_outside_mask_selects_outer(self):
        A = Grid([[0.5, 0.5]])
        M = BinaryMask(Grid([[1.0, 0.0]]))
        value, branch = e_repel(A, M, CFG)
        assert branch == "outer"
        assert value == -0.5

    def test_all_zero_attention_is_outer_zero(self):
        value, branch = e_repel(Grid.zeros(2, 2), BinaryMask.ones(2, 2), CFG)
        assert branch == "outer"
        assert value == 0.0

    def test_3x3_binary_patterns_match_literal_oracle(self):
        """Every binary A pattern against a spread of binary masks.

        The full 512 x 512 enumeration runs in the acceptance suite; this
        keeps a fast cross-section for development.
        """
        tau = CFG.support_tau
        patterns = [[(bits >> k) & 1 for k in range(9)] for bits in range(512)]
        grids = [Grid(np.array(p, dtype=np.float64).reshape(3, 3)) for p in patterns]
        mask_bits = list(range(0, 512, 7)) + [0, 511]
        masks = {
            mi: BinaryMask(Grid(np.array(patterns[mi], dtype=np.float64).reshape(3, 3)))
            for mi in mask_bits
        }
        for ai, a_bits in enumerate(patterns):
            mx = max(a_bits)
            sup = [v > tau * mx for v in a_bits]
            for mi in mask_bits:
                m_bits = patterns[mi]
                none_outside = not any(s and not m for s, m in zip(sup, m_bits))
                some_inside = any(s and m for s, m in zip(sup, m_bits))
                want = "inner" if (none_outside and some_inside) else "outer"
                _, got = e_repel(grids[ai], masks[mi], CFG)
                assert got == want, f"A bits {ai:09b}, M bits {mi:09b}"


class TestGradERepel:
    def test_outer_branch_is_negative_mask_bit_exact(self):
        rng = RandomStream(17)
        A = softmax_map(rng, 5, 4)
        M = random_mask(rng, 5, 4)
        assert e_repel(A, M, CFG)[1] == "outer"
        g = grad_e_repel(A, M, CFG)
        assert g.a.tobytes() == (-M.a).tobytes()

    def test_inner_equal_values_cancel(self):
        A = Grid([[0.25, 0.25], [0.25, 0.25]])
        M = BinaryMask.ones(2, 2)
        g = grad_e_repel(A, M, CFG)
        assert np.array_equal(g.a, np.zeros((2, 2)))

    def test_two_close_values_match_finite_differences(self):
        A = Grid([[0.50, 0.51]])
        M = BinaryMask.ones(1, 2)
        g = grad_e_repel(A, M, CFG).a
        # both orderings of the single pair are active, so each point gets
        # twice the one-sided 1/N contribution
        assert g[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert g[0, 1] == pytest.approx(-1.0, rel=1e-12)
        for j in range(2):
            fd = fd_scalar(lambda x: e_repel(x, M, CFG)[0], A, 0, j, 1e-6)
            assert fd_rel_err(g[0, j], fd) < 1e-7

    def test_inner_branch_matches_finite_differences(self):
        h = 1e-6
        worst = 0.0
        checked = 0
        for seed in range(12):
            rng = RandomStream(4000 + seed)
            A, M = inner_case(rng, 6, 6)
            assert e_repel(A, M, CFG)[1] == "inner"
            g = grad_e_repel(A, M, CFG).a
            sel = (M.a == 1.0) & (A.a > CFG.support_tau * A.a.max())
            vals = A.a[sel]
            coords = np.argwhere(sel)
            for idx, (i, j) in enumerate(coords):
                if not hinge_safe(vals, idx, CFG.delta, h):
                    continue
                fd = fd_scalar(lambda x: e_repel(x, M, CFG)[0], A, i, j, h)
                worst = max(worst, fd_rel_err(g[i, j], fd))
                checked += 1
        assert checked > 100
        assert worst < 1e-5

    def test_out_of_support_points_have_zero_gradient(self):
        A, M = inner_case(RandomStream(77), 6, 6)
        g = grad_e_repel(A, M, CFG).a
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
        a, m = layers[0].map, masks[0]
        want = e_attract(a, m, cfg) + cfg.lam * e_repel(a, m, cfg)[0]
        assert bd.total == pytest.approx(want, rel=1e-12)
        assert bd.per_layer["full"].selected
        assert not bd.per_layer["half"].selected

    def test_lambda_zero_keeps_only_attract(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(lam=0.0)
        bd = e_total(layers, masks, cfg)
        want = 0.5 * (
            e_attract(layers[0].map, masks[0], cfg)
            + e_attract(layers[1].map, masks[1], cfg)
        )
        assert bd.total == pytest.approx(want, rel=1e-12)

    def test_mean_of_two_hand_computed_layers(self):
        layers, masks = _two_layer_fixture()
        per = [
            e_attract(l.map, m, CFG) + CFG.lam * e_repel(l.map, m, CFG)[0]
            for l, m in zip(layers, masks)
        ]
        bd = e_total(layers, masks, CFG)
        assert bd.total == pytest.approx(0.5 * (per[0] + per[1]), rel=1e-12)
        assert bd.e_attract == pytest.approx(
            0.5 * sum(e_attract(l.map, m, CFG) for l, m in zip(layers, masks)),
            rel=1e-12,
        )

    def test_unselected_layers_still_reported(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(layer_select=frozenset({"half"}))
        bd = e_total(layers, masks, cfg)
        assert set(bd.per_layer) == {"full", "half"}
        assert bd.total == pytest.approx(
            e_attract(layers[1].map, masks[1], cfg)
            + cfg.lam * e_repel(layers[1].map, masks[1], cfg)[0],
            rel=1e-12,
        )

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
        grads = grad_e_total(layers, masks, CFG)
        for layer, mask, g in zip(layers, masks, grads):
            want = (
                grad_e_attract(layer.map, mask, CFG).a
                + CFG.lam * grad_e_repel(layer.map, mask, CFG).a
            ) / 2.0
            assert np.array_equal(g.a, want)

    def test_unselected_layer_gets_zero_grid(self):
        layers, masks = _two_layer_fixture()
        cfg = EnergyConfig(layer_select=frozenset({"full"}))
        grads = grad_e_total(layers, masks, cfg)
        assert np.array_equal(grads[1].a, np.zeros((2, 2)))
        assert grads[0].a.any()

    def test_matches_finite_differences_of_aggregate(self):
        layers, masks = _two_layer_fixture()
        grads = grad_e_total(layers, masks, CFG)
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
                    worst = max(worst, fd_rel_err(grads[li].a[i, j], fd))
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
        with pytest.raises(EnergyError):
            EnergyConfig(support_tau=0.0)
        with pytest.raises(EnergyError):
            EnergyConfig(support_tau=1.0)
        with pytest.raises(EnergyError):
            EnergyConfig(epsilon_den=0.0)

    def test_attention_layer_rejects_negative_map(self):
        with pytest.raises(EnergyError):
            AttentionLayer("full", Grid([[-0.1, 1.1]]))

    def test_attention_layer_resolution(self):
        layer = AttentionLayer("full", Grid.zeros(4, 6))
        assert layer.resolution == (4, 6)
