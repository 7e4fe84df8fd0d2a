"""Counter-based stream: determinism, splitting, and distributional checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tryonlab.rng as rng_module
from tryonlab import RandomStream, gaussian_field

_M = (1 << 64) - 1


def splitmix64_seq(seed: int, n: int) -> list[int]:
    """Scalar reference: repeated splitmix64 next() on python ints."""
    state = seed & _M
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _M
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
        out.append(z ^ (z >> 31))
    return out


class TestWords:
    @pytest.mark.parametrize("seed", [0, 1, 7, 0xDEADBEEF, _M, _M - 12345])
    def test_matches_scalar_splitmix64(self, seed):
        got = RandomStream(seed).words(100).tolist()
        assert got == splitmix64_seq(seed, 100)

    def test_counter_addressing_splits_cleanly(self):
        s = RandomStream(42)
        first = s.words(3)
        second = s.words(4)
        merged = RandomStream(42).words(7)
        assert np.array_equal(np.concatenate([first, second]), merged)

    def test_same_state_same_sequence(self):
        a = RandomStream(9, counter=5).words(16)
        b = RandomStream(9, counter=5).words(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomStream(7).words(8), RandomStream(8).words(8))


class TestChildren:
    def test_child_is_deterministic(self):
        a = RandomStream(3).child("layer").words(8)
        b = RandomStream(3).child("layer").words(8)
        assert np.array_equal(a, b)

    def test_child_independent_of_parent_draws(self):
        p1 = RandomStream(11)
        c_before = p1.child("x")
        p1.uniforms(100)
        c_after = p1.child("x")
        assert c_before.seed == c_after.seed
        assert np.array_equal(c_before.words(8), c_after.words(8))

    def test_distinct_labels_distinct_streams(self):
        p = RandomStream(11)
        assert p.child("a").seed != p.child("b").seed
        assert p.child("trial-1").seed != p.child("trial-11").seed

    def test_nested_children_diverge(self):
        p = RandomStream(11)
        assert p.child("a").child("b").seed != p.child("b").child("a").seed

    @given(label=st.text(max_size=20), seed=st.integers(0, _M))
    @settings(max_examples=50)
    def test_child_seed_stable_for_any_label(self, label, seed):
        assert (
            RandomStream(seed).child(label).seed == RandomStream(seed).child(label).seed
        )


class TestFloatDraws:
    def test_uniforms_in_unit_interval(self):
        u = RandomStream(13).uniforms(10_000)
        assert (u >= 0.0).all() and (u < 1.0).all()

    def test_normals_match_scalar_box_muller(self):
        s = RandomStream(21)
        got = s.normals(4)
        w = splitmix64_seq(21, 8)
        u1 = [((x >> 11) + 1) * 2.0**-53 for x in w[:4]]
        u2 = [(x >> 11) * 2.0**-53 for x in w[4:]]
        want = [
            math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
            for a, b in zip(u1, u2)
        ]
        # scalar libm and numpy's vectorized transcendentals may differ by
        # an ulp, so pin the transform rather than the final bits
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_normals_consume_two_words_each(self):
        s = RandomStream(33)
        s.normals(5)
        assert s.counter == 10

    def test_normal_moments(self):
        z = RandomStream(99).normals(8192)
        assert abs(z.mean()) < 4.0 / math.sqrt(8192)
        assert abs(z.std() - 1.0) < 0.05

    def test_integers_in_range_and_deterministic(self):
        a = RandomStream(4).integers(1000, -3, 9)
        b = RandomStream(4).integers(1000, -3, 9)
        assert np.array_equal(a, b)
        assert (a >= -3).all() and (a < 9).all()
        assert set(np.unique(a)) == set(range(-3, 9))

    def test_integers_reject_empty_range(self):
        with pytest.raises(ValueError):
            RandomStream(4).integers(1, 5, 5)


class TestGaussianField:
    def test_deterministic_per_state(self):
        a = gaussian_field(RandomStream(7), 6, 4)
        b = gaussian_field(RandomStream(7), 6, 4)
        assert a.tobytes() == b.tobytes()

    def test_seeds_differ(self):
        a = gaussian_field(RandomStream(7), 6, 4)
        b = gaussian_field(RandomStream(8), 6, 4)
        assert not np.array_equal(a, b)

    def test_returns_grid_of_requested_shape(self):
        g = gaussian_field(RandomStream(1), 3, 5)
        assert isinstance(g, np.ndarray) and g.dtype == np.float64
        assert g.shape == (3, 5)

    @pytest.mark.parametrize(
        "fields, h, w", [(1, 3, 5), (4, 6, 4), (20, 8, 8), (3, 1, 1), (7, 6, 4)])
    def test_block_equals_sequential_fields(self, monkeypatch, fields, h, w):
        """A block of F fields is F normals(h w) draws, byte for byte, and
        leaves the stream at the same counter, whatever the fields per
        pass: all of them (the default budget, at these sizes), 1, 2 or 3,
        or a budget below one field. No pass size but 1 divides 7 fields."""
        seq_rng = RandomStream(19).child("b")
        seq = b"".join(seq_rng.normals(h * w).tobytes() for _ in range(fields))
        passes = []
        box_muller = rng_module._box_muller
        monkeypatch.setattr(rng_module, "_box_muller",
                            lambda r, rows: passes.append(len(rows)) or box_muller(r, rows))
        field_bytes = 16 * h * w
        for budget, per_pass in [(rng_module._NOISE_BYTES, fields), (field_bytes, 1),
                                 (2 * field_bytes, 2), (3 * field_bytes, 3),
                                 (field_bytes - 8, 1)]:
            monkeypatch.setattr(rng_module, "_NOISE_BYTES", budget)
            passes.clear()
            block_rng = RandomStream(19).child("b")
            block = gaussian_field(block_rng, fields, h, w)
            assert block.shape == (fields, h, w) and block.dtype == np.float64
            assert block.tobytes() == seq
            assert block_rng.counter == seq_rng.counter == 2 * fields * h * w
            full, rest = divmod(fields, per_pass)
            assert passes == [per_pass] * full + [rest] * (rest > 0)

    def test_an_empty_block_consumes_nothing(self):
        r = RandomStream(19, counter=5)
        block = gaussian_field(r, 0, 6, 4)
        assert block.shape == (0, 6, 4) and block.dtype == np.float64
        assert r.counter == 5

    def test_large_field_moments(self):
        g = gaussian_field(RandomStream(7), 64, 64)
        assert abs(g.mean()) < 4.0 / math.sqrt(64 * 64)
        assert abs(g.std() - 1.0) < 0.05
