"""Grid construction, mask resampling, warping, and the .f64grid format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import warp_array_meshgrid
from tryonlab import (
    BinaryMask,
    Grid,
    GridError,
    GridFormatError,
    RandomStream,
    SceneImage,
    grid_read,
    grid_write,
    mask_read,
    resample_mask,
)
from tryonlab.grids import _overlap_weights, warp_array

# ---------------------------------------------------------------- oracles


def resample_oracle(mask_a: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Scalar-loop area average over each target cell, threshold at 0.5."""
    sh, sw = mask_a.shape
    avg = np.zeros((th, tw))
    for i in range(th):
        for j in range(tw):
            y0, y1 = i * sh / th, (i + 1) * sh / th
            x0, x1 = j * sw / tw, (j + 1) * sw / tw
            acc = 0.0
            for y in range(sh):
                oy = max(0.0, min(y1, y + 1) - max(y0, y))
                if oy == 0.0:
                    continue
                for x in range(sw):
                    ox = max(0.0, min(x1, x + 1) - max(x0, x))
                    acc += oy * ox * mask_a[y, x]
            avg[i, j] = acc / ((y1 - y0) * (x1 - x0))
    return avg


def bilinear_oracle(a: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Per-pixel four-corner interpolation with clamped source coordinates."""
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            sy = min(max(i + fy[i, j], 0.0), h - 1.0)
            sx = min(max(j + fx[i, j], 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            ry, rx = sy - y0, sx - x0
            out[i, j] = (
                a[y0, x0] * (1 - rx) * (1 - ry)
                + a[y0, x1] * rx * (1 - ry)
                + a[y1, x0] * (1 - rx) * ry
                + a[y1, x1] * rx * ry
            )
    return out


# ------------------------------------------------------------------ Grid


class TestGrid:
    def test_holds_values_row_major(self):
        g = Grid([[1.0, 2.0], [3.0, 4.0]])
        assert g.shape == (2, 2)
        assert g.height == 2 and g.width == 2
        assert g.a.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_rejects_non_finite(self):
        with pytest.raises(GridError):
            Grid([[1.0, float("nan")]])
        with pytest.raises(GridError):
            Grid([[float("inf"), 0.0]])

    def test_rejects_wrong_rank_and_empty(self):
        with pytest.raises(GridError):
            Grid([1.0, 2.0])
        with pytest.raises(GridError):
            Grid(np.zeros((0, 3)))
        with pytest.raises(GridError):
            Grid(np.zeros((3, 0)))

    def test_immutable(self):
        g = Grid(np.zeros((2, 3)))
        with pytest.raises(AttributeError):
            g.a = np.ones((2, 3))
        with pytest.raises(ValueError):
            g.a[0, 0] = 1.0

    def test_constructors_copy_and_leave_the_callers_array_writeable(self):
        builds = {
            "Grid": (Grid, np.zeros((2, 3))),
            "BinaryMask": (BinaryMask, np.zeros((2, 3))),
            "BinaryMask of a Grid": (lambda x: BinaryMask(Grid(x)), np.zeros((2, 3))),
            "SceneImage": (SceneImage, np.zeros((3, 2, 3))),
            "SceneImage, clamped": (SceneImage, np.full((3, 2, 3), 2.0)),
        }
        for name, (build, x) in builds.items():
            given_values = x.copy()
            wrapped = build(x)
            values = wrapped.stack() if isinstance(wrapped, SceneImage) else wrapped.a
            held = values.copy()
            assert x.flags.writeable, name
            assert np.array_equal(x, given_values), name
            x[...] = 1.0 - x
            assert np.array_equal(values, held), name

    def test_equality_by_value(self):
        assert Grid.full(2, 2, 0.5) == Grid.full(2, 2, 0.5)
        assert Grid.full(2, 2, 0.5) != Grid.full(2, 2, 0.25)
        assert Grid(np.zeros((2, 2))) != Grid(np.zeros((2, 3)))


class TestBinaryMask:
    def test_accepts_exact_zero_one(self):
        m = BinaryMask(Grid([[0.0, 1.0], [1.0, 0.0]]))
        assert m.shape == (2, 2)
        assert set(np.unique(m.a)) == {0.0, 1.0}

    def test_rejects_other_values(self):
        with pytest.raises(GridError):
            BinaryMask(Grid([[0.5, 1.0]]))
        with pytest.raises(GridError):
            BinaryMask(Grid([[1.0 + 1e-12]]))

    def test_is_a_grid_built_from_a_grid_or_an_array(self):
        x = np.array([[0.0, 1.0], [1.0, 1.0]])
        for values in (Grid(x.copy()), x.copy()):
            m = BinaryMask(values)
            assert isinstance(m, Grid)
            assert np.array_equal(m.a, x)
            assert not m.a.flags.writeable
            assert repr(m) == "BinaryMask(2x2)"

    def test_rejects_half_and_nan_arrays(self):
        for bad in (0.5, float("nan")):
            with pytest.raises(GridError):
                BinaryMask(np.array([[1.0, bad]]))

    def test_never_equals_a_plain_grid(self):
        x = np.array([[0.0, 1.0]])
        assert Grid(x) != BinaryMask(x)
        assert BinaryMask(x) != Grid(x)
        assert not Grid(x) == BinaryMask(x)
        assert not BinaryMask(x) == Grid(x)
        assert BinaryMask(x) == BinaryMask(Grid(x))

    def test_immutable(self):
        m = BinaryMask(np.ones((1, 2)))
        with pytest.raises(AttributeError, match="BinaryMask is immutable"):
            m.a = np.zeros((1, 2))
        with pytest.raises(AttributeError):
            m.grid = Grid(np.ones((1, 2)))

    def test_writes_the_bytes_of_a_grid_with_its_values(self, tmp_path):
        x = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        grid_write(tmp_path / "m.f64grid", BinaryMask(x))
        grid_write(tmp_path / "g.f64grid", Grid(x))
        assert (tmp_path / "m.f64grid").read_bytes() == (tmp_path / "g.f64grid").read_bytes()


# ---------------------------------------------------------- resample_mask


class TestResampleMask:
    def test_all_ones_shrinks_to_all_ones(self):
        out = resample_mask(BinaryMask(np.ones((8, 8))), 4, 4)
        assert out == BinaryMask(np.ones((4, 4)))

    def test_all_zeros_shrinks_to_all_zeros(self):
        out = resample_mask(BinaryMask(np.zeros((8, 8))), 2, 2)
        assert out == BinaryMask(np.zeros((2, 2)))

    def test_checkerboard_tie_maps_to_one(self):
        m = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        out = resample_mask(m, 1, 1)
        assert out.a.tolist() == [[1.0]]

    def test_rejects_zero_target(self):
        with pytest.raises(GridError):
            resample_mask(BinaryMask(np.ones((4, 4))), 0, 2)
        with pytest.raises(GridError):
            resample_mask(BinaryMask(np.ones((4, 4))), 2, 0)

    def test_half_scale_matches_oracle_exactly(self):
        rng = RandomStream(101)
        for _ in range(20):
            m = (rng.uniforms(8 * 8).reshape(8, 8) < 0.5).astype(np.float64)
            out = resample_mask(BinaryMask(Grid(m)), 4, 4)
            avg = resample_oracle(m, 4, 4)
            want = np.where(avg >= 0.5, 1.0, 0.0)
            assert np.array_equal(out.a, want)

    @given(
        sh=st.integers(1, 8),
        sw=st.integers(1, 8),
        th=st.integers(1, 8),
        tw=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60)
    def test_matches_oracle_at_arbitrary_ratios(self, sh, sw, th, tw, seed):
        m = (RandomStream(seed).uniforms(sh * sw).reshape(sh, sw) < 0.5).astype(
            np.float64
        )
        out = resample_mask(BinaryMask(Grid(m)), th, tw).a
        avg = resample_oracle(m, th, tw)
        # cells whose true average sits on the 0.5 tie can round either way
        # in float arithmetic; compare only clearly decided cells
        decided = np.abs(avg - 0.5) > 1e-9
        assert np.array_equal(out[decided], (avg >= 0.5)[decided].astype(np.float64))
        assert set(np.unique(out)) <= {0.0, 1.0}

    @given(
        th=st.integers(1, 8), tw=st.integers(1, 8), value=st.sampled_from([0.0, 1.0])
    )
    @settings(max_examples=30)
    def test_constant_mask_is_resolution_invariant(self, th, tw, value):
        src = BinaryMask(Grid.full(6, 6, value))
        assert resample_mask(src, th, tw) == BinaryMask(Grid.full(th, tw, value))

    def test_identity_when_shapes_match(self):
        m = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        assert resample_mask(m, 2, 2) == m

    def test_overlap_weights_are_built_once_and_read_only(self):
        w = _overlap_weights(48, 24)
        assert _overlap_weights(48, 24) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 2.0
        # what a fresh build gives, after a resample that reused it
        resample_mask(BinaryMask(np.ones((48, 6))), 24, 3)
        assert w.tobytes() == _overlap_weights.__wrapped__(48, 24).tobytes()


# ------------------------------------------------------------- warp_array


class TestBilinearWarp:
    def test_zero_flow_is_bit_exact_identity(self):
        rng = RandomStream(7)
        img = rng.normals(6 * 5).reshape(6, 5)
        zero = np.zeros((6, 5))
        out = warp_array(img, zero, zero)
        assert out.tobytes() == img.tobytes()

    def test_constant_image_is_invariant(self):
        img = np.full((4, 4), 3.25)
        rng = RandomStream(8)
        fx = 4.0 * rng.uniforms(16).reshape(4, 4) - 2.0
        fy = 4.0 * rng.uniforms(16).reshape(4, 4) - 2.0
        out = warp_array(img, fx, fy)
        assert np.allclose(out, 3.25, rtol=0, atol=1e-15)

    def test_half_pixel_sample(self):
        img = np.array([[0.0, 1.0]])
        fx = np.array([[0.5, 0.0]])
        fy = np.zeros((1, 2))
        out = warp_array(img, fx, fy)
        assert out[0, 0] == 0.5

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GridError):
            warp_array(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(GridError):
            warp_array(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)))

    @given(seed=st.integers(0, 10_000), h=st.integers(1, 6), w=st.integers(1, 6))
    @settings(max_examples=60)
    def test_matches_per_pixel_oracle(self, seed, h, w):
        rng = RandomStream(seed)
        a = rng.normals(h * w).reshape(h, w)
        fx = 6.0 * rng.uniforms(h * w).reshape(h, w) - 3.0
        fy = 6.0 * rng.uniforms(h * w).reshape(h, w) - 3.0
        out = warp_array(a, fx, fy)
        want = bilinear_oracle(a, fx, fy)
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

    @given(
        seed=st.integers(0, 10_000),
        shape=st.one_of(
            st.tuples(st.just(1), st.integers(1, 6)),
            st.tuples(st.integers(1, 6), st.just(1)),
            st.tuples(st.integers(2, 6), st.integers(2, 6)),
        ),
        lead=st.lists(st.integers(1, 3), max_size=3),
        reach=st.sampled_from([0.5, 3.0, 1e6]),
    )
    @settings(max_examples=80)
    def test_bit_equal_to_meshgrid_gather(self, seed, shape, lead, reach):
        """Flows of up to reach canvas sizes each way, on stacks with up to
        three leading axes, give the two-index gather's bytes."""
        h, w = shape
        rng = RandomStream(seed)
        a = rng.normals(int(np.prod(lead)) * h * w).reshape(*lead, h, w)
        fx = reach * w * (2.0 * rng.uniforms(h * w).reshape(h, w) - 1.0)
        fy = reach * h * (2.0 * rng.uniforms(h * w).reshape(h, w) - 1.0)
        out = warp_array(a, fx, fy)
        assert out.shape == a.shape
        assert out.tobytes() == warp_array_meshgrid(a, fx, fy).tobytes()

    def test_clamps_out_of_bounds_sources(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        fx = np.full((2, 2), -10.0)
        fy = np.full((2, 2), -10.0)
        out = warp_array(img, fx, fy)
        assert np.array_equal(out, np.full((2, 2), 1.0))


# --------------------------------------------------------------- file IO


class TestGridIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = RandomStream(3)
        g = Grid(rng.normals(5 * 7).reshape(5, 7) * 1e6)
        p = tmp_path / "g.f64grid"
        grid_write(p, g)
        back = grid_read(p)
        assert back.a.tobytes() == g.a.tobytes()

    @given(
        seed=st.integers(0, 10_000),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        scale=st.sampled_from([1e-300, 1e-10, 1.0, 1e10, 1e300]),
    )
    @settings(max_examples=40)
    def test_roundtrip_across_magnitudes(self, tmp_path, seed, h, w, scale):
        g = Grid(RandomStream(seed).normals(h * w).reshape(h, w) * scale)
        p = tmp_path / "g.f64grid"
        grid_write(p, g)
        assert grid_read(p).a.tobytes() == g.a.tobytes()

    def test_single_cell_file_is_20_bytes(self, tmp_path):
        p = tmp_path / "one.f64grid"
        grid_write(p, Grid([[3.5]]))
        raw = p.read_bytes()
        assert len(raw) == 20
        assert raw[:4] == b"F64G"
        assert struct.unpack("<II", raw[4:12]) == (1, 1)
        assert struct.unpack("<d", raw[12:]) == (3.5,)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.f64grid"
        grid_write(p, Grid([[1.0]]))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(GridFormatError, match="bad magic"):
            grid_read(p)

    def test_short_header(self, tmp_path):
        p = tmp_path / "short.f64grid"
        p.write_bytes(b"F64G\x01")
        with pytest.raises(GridFormatError, match="malformed header"):
            grid_read(p)

    def test_zero_dimension(self, tmp_path):
        p = tmp_path / "zero.f64grid"
        p.write_bytes(struct.pack("<4sII", b"F64G", 0, 4))
        with pytest.raises(GridFormatError, match="zero dimension"):
            grid_read(p)

    def test_dimension_overflow(self, tmp_path):
        p = tmp_path / "huge.f64grid"
        p.write_bytes(struct.pack("<4sII", b"F64G", 1 << 16, 1 << 16))
        with pytest.raises(GridFormatError, match="dimension overflow"):
            grid_read(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.f64grid"
        grid_write(p, Grid([[1.0, 2.0]]))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(GridFormatError, match="truncated payload"):
            grid_read(p)

    def test_trailing_data(self, tmp_path):
        p = tmp_path / "trail.f64grid"
        grid_write(p, Grid([[1.0, 2.0]]))
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(GridFormatError, match="trailing data"):
            grid_read(p)

    def test_mask_read_roundtrip_and_validation(self, tmp_path):
        m = BinaryMask(Grid([[1.0, 0.0], [0.0, 1.0]]))
        p = tmp_path / "m.f64grid"
        grid_write(p, m)
        assert mask_read(p) == m
        grid_write(p, Grid([[0.5, 0.0]]))
        with pytest.raises(GridError):
            mask_read(p)
