"""Convolution, adjoint, softplus, sigmoid and pooling kernels against
the sliding-window, logaddexp, boolean-mask and mean oracles, im2col
against the nine-slice layout, and the bit-stability of their outputs
under misaligned inputs and inside a batched product."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    avg_pool2_mean,
    correlate3x3_adjoint_windows,
    correlate3x3_multi_windows,
    correlate3x3_windows,
    im2col_slices,
    sigmoid_masked,
    softplus_logaddexp,
)
import tryonlab.kernels as kernels
from tryonlab import RandomStream
from tryonlab.kernels import (
    _chunk,
    _im2col,
    avg_pool2,
    correlate3x3,
    correlate3x3_adjoint,
    correlate3x3_multi,
    sigmoid,
    softplus,
)

SIZES = [(48, 36), (24, 18), (16, 12), (8, 8), (1, 1)]
STABILITY_SIZES = [(48, 36), (24, 18), (8, 8)]
C, K, BATCH = 4, 3, 16
REL_TOL = 1e-14


def normals(label: str, *shape: int) -> np.ndarray:
    return RandomStream(17).child(label).normals(int(np.prod(shape))).reshape(shape)


def assert_close_to_sum_of_terms(got, want, scale):
    """|got - want| <= REL_TOL * scale elementwise, where scale is the same
    correlation taken over |input| and |bank|: the sum of the terms'
    magnitudes, which bounds the rounding of any summation order."""
    assert got.shape == want.shape
    assert (np.abs(got - want) <= REL_TOL * scale).all()


@pytest.mark.parametrize("h,w", SIZES)
class TestAgainstOracles:
    def test_correlate3x3(self, h, w):
        x, bank = normals("x", h, w), normals("bank", C, 3, 3)
        assert_close_to_sum_of_terms(
            correlate3x3(x, bank),
            correlate3x3_windows(x, bank),
            correlate3x3_windows(np.abs(x), np.abs(bank)),
        )

    def test_correlate3x3_multi(self, h, w):
        x, bank = normals("x", K, h, w), normals("bank", 2 * C, K, 3, 3)
        assert_close_to_sum_of_terms(
            correlate3x3_multi(x, bank),
            correlate3x3_multi_windows(x, bank),
            correlate3x3_multi_windows(np.abs(x), np.abs(bank)),
        )

    def test_adjoint(self, h, w):
        dz, bank = normals("dz", C, h, w), normals("bank", C, 3, 3)
        assert_close_to_sum_of_terms(
            correlate3x3_adjoint(dz, bank),
            correlate3x3_adjoint_windows(dz, bank),
            correlate3x3_adjoint_windows(np.abs(dz), np.abs(bank)),
        )

    def test_adjoint_dot_product_identity(self, h, w):
        x, dz, bank = normals("x", h, w), normals("dz", C, h, w), normals("bank", C, 3, 3)
        lhs = float((correlate3x3(x, bank) * dz).sum())
        rhs = float((x * correlate3x3_adjoint(dz, bank)).sum())
        terms = float((correlate3x3(np.abs(x), np.abs(bank)) * np.abs(dz)).sum())
        assert abs(lhs - rhs) <= 1e-13 * terms


IM2COL_SIZES = SIZES + [(25, 19), (7, 5)]


def assert_im2col_equals_slices(x: np.ndarray) -> None:
    """_im2col(x) equals the nine-slice oracle element for element, is a
    new C-contiguous array, and leaves x as it was."""
    before = x.copy()
    got = _im2col(x)
    want = im2col_slices(x)
    assert got.shape == want.shape == (9 * x.shape[0], x[0].size)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert not np.shares_memory(got, x)
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("h,w", IM2COL_SIZES)
class TestIm2col:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("n", [1, 7])
    def test_stacks(self, k, n, h, w):
        assert_im2col_equals_slices(normals("im2col", k, n, h, w))

    def test_vtid_image(self, h, w):
        assert_im2col_equals_slices(normals("im2col", 3, h, w))

    def test_non_contiguous_input(self, h, w):
        x = normals("im2col", 4, 7, h, w)[..., ::-1]
        assert not x.flags.c_contiguous or w == 1
        assert_im2col_equals_slices(x)

    def test_read_only_input(self, h, w):
        x = normals("im2col", 4, 7, h, w)
        x.flags.writeable = False
        assert_im2col_equals_slices(x)


def test_one_pixel_convolution_keeps_only_the_centre_tap():
    x, bank = np.array([[1.5]]), normals("bank", C, 3, 3)
    assert correlate3x3(x, bank).tobytes() == (1.5 * bank[:, 1:2, 1:2]).tobytes()


EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 800.0, -800.0, 1e300, -1e300]


def test_softplus_within_two_ulp_of_logaddexp():
    z = np.concatenate([EXTREMES, 40.0 * normals("z", 4096)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = softplus(z)
    want = softplus_logaddexp(z)
    assert (np.abs(got - want) <= 2 * np.spacing(np.abs(want))).all()
    assert got[:2].tolist() == [np.log(2.0)] * 2
    assert got[8:10].tolist() == [1e300, 0.0]


def test_sigmoid_bit_equal_to_boolean_mask_form():
    # EXTREMES holds +-0.0 and +-800; e^-|z| is subnormal from |z| = 708.4
    # and 0 past 745.1
    special = EXTREMES + [710.0, -710.0, 745.0, -745.0, 746.0, -746.0]
    special += [np.inf, -np.inf, np.nan, -np.nan]
    z = np.concatenate([special, 40.0 * normals("z", 4096)])
    assert sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()


@pytest.mark.parametrize("kernel", [softplus, sigmoid], ids=lambda kernel: kernel.__name__)
def test_never_writes_its_input(kernel):
    z = np.concatenate([EXTREMES, 40.0 * normals("z", 4096)])
    before = z.tobytes()
    want = kernel(z)
    assert z.tobytes() == before
    z.flags.writeable = False  # a write into z would now raise
    assert kernel(z).tobytes() == want.tobytes()


# How each convolution's matmul sees its bank: one row per output
# channel, columns in _im2col's row order.
BANK_ROWS = {
    correlate3x3: lambda bank: bank.reshape(C, 9),
    correlate3x3_multi: lambda bank: bank.reshape(C, 9 * K),
    correlate3x3_adjoint: lambda bank: bank[None, :, ::-1, ::-1].reshape(1, 9 * C),
}
INPUT_SHAPES = {correlate3x3: (), correlate3x3_multi: (K,)}  # leading axes; else (C,)


def inputs(kernel, label: str, *lead: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Random input of the kernel's shape and a random bank for it."""
    x = normals(label, *lead, *INPUT_SHAPES.get(kernel, (C,)), h, w)
    bank = normals("bank", C, K, 3, 3) if kernel is correlate3x3_multi else normals("bank", C, 3, 3)
    return x, bank


def apply(kernel, x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    return kernel(x, bank) if kernel in BANK_ROWS else kernel(x)


def at_offset(x: np.ndarray, offset: int) -> np.ndarray:
    """Copy of x that starts offset float64 elements into a larger buffer."""
    buf = np.zeros(x.size + 8)
    view = buf[offset : offset + x.size].reshape(x.shape)
    view[...] = x
    return view


@pytest.mark.parametrize("h,w", STABILITY_SIZES)
@pytest.mark.parametrize(
    "kernel",
    [correlate3x3, correlate3x3_multi, correlate3x3_adjoint, softplus, sigmoid],
    ids=lambda kernel: kernel.__name__,
)
class TestBitStability:
    def test_misaligned_input(self, kernel, h, w):
        x, bank = inputs(kernel, "x", h=h, w=w)
        want = apply(kernel, x, bank)
        for offset in range(1, 8):
            got = apply(kernel, at_offset(x, offset), bank)
            assert got.tobytes() == want.tobytes(), f"offset {offset}"

    def test_one_item_of_a_batch_of_16(self, kernel, h, w):
        items, bank = inputs(kernel, "batch", BATCH, h=h, w=w)
        if kernel in BANK_ROWS:
            cols = np.concatenate([im2col_slices(item.reshape(-1, h, w)) for item in items], axis=1)
            blocks = np.split(BANK_ROWS[kernel](bank) @ cols, BATCH, axis=1)
            # the kernel's own batched form: items on the axis after the channels
            batched = apply(kernel, np.moveaxis(items, 0, 1) if items.ndim == 4 else items, bank)
            batched = np.moveaxis(batched, -3, 0)
        else:
            blocks = batched = kernel(items)
        for i, item in enumerate(items):
            want = apply(kernel, item, bank).tobytes()
            assert blocks[i].tobytes() == want, f"item {i}"
            assert batched[i].tobytes() == want, f"item {i} of the batched call"


class TestAdjointChunks:
    """correlate3x3 and its adjoint contract a stack in chunks of _chunk
    items, one product each; every chunking gives each item the bits of a
    call on that item alone."""

    def test_chunks_at_the_lab_canvases(self):
        # the forward's im2col holds 9 rows per item, the adjoint's 9 C
        assert [_chunk(1, h, w) for h, w in [(24, 18), (48, 36), (128, 96)]] == [33, 8, 1]
        assert [_chunk(4, h, w) for h, w in [(24, 18), (48, 36), (128, 96)]] == [8, 2, 1]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 6, 7, 9])
    def test_every_chunking_equals_single_items(self, monkeypatch, chunk):
        h, w, k = 24, 18, 7
        dz, bank = normals("chunk", C, k, h, w), normals("bank", C, 3, 3)
        singles = [correlate3x3_adjoint(dz[:, i], bank).tobytes() for i in range(k)]
        monkeypatch.setattr(kernels, "_IM2COL_BYTES", chunk * 9 * C * h * w * 8)
        assert _chunk(C, h, w) == chunk
        got = correlate3x3_adjoint(dz, bank)
        assert got.shape == (k, h, w)
        for i in range(k):
            assert got[i].tobytes() == singles[i], f"item {i}"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 6, 7, 9])
    def test_every_forward_chunking_equals_single_items(self, monkeypatch, chunk):
        h, w, k = 24, 18, 7
        x, bank = normals("chunk", k, h, w), normals("bank", C, 3, 3)
        singles = [correlate3x3(x[i], bank).tobytes() for i in range(k)]
        monkeypatch.setattr(kernels, "_IM2COL_BYTES", chunk * 9 * h * w * 8)
        assert _chunk(1, h, w) == chunk
        got = correlate3x3(x, bank)
        assert got.shape == (C, k, h, w)
        for i in range(k):
            assert got[:, i].tobytes() == singles[i], f"item {i}"


# Values that stress a 2x2 sum: signed zeros, subnormals, the smallest
# normal, cancelling pairs and magnitudes up to 1e300.
POOL_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -1.0,
                 1e300, -1e300]
POOL_VALUES = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
    st.sampled_from(POOL_SPECIALS),
)


@st.composite
def pool_inputs(draw, widths):
    """An (h, w), (C, h, w) or (3, h, w) array, often a view cut from an
    odd-sized parent the way vtid's pyramid cuts its stacks."""
    lead = draw(st.sampled_from([(), (4,), (3,)]))
    h, w = 2 * draw(st.integers(1, 6)), draw(widths)
    pad_h, pad_w = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    parent = draw(hnp.arrays(np.float64, (*lead, h + pad_h, w + pad_w), elements=POOL_VALUES))
    return parent[..., :h, :w]


def blocks_of(f: np.ndarray) -> np.ndarray:
    """(..., h/2, w/2, 4): the four values each pooled cell sums."""
    *lead, h, w = f.shape
    return f.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2).reshape(*lead, h // 2, w // 2, 4)


class TestAvgPool2:
    @settings(max_examples=250, deadline=None)
    @given(pool_inputs(st.integers(2, 8).map(lambda k: 2 * k)))
    def test_bit_equals_the_mean_from_width_4(self, f):
        """Bit-equal to numpy's mean, save one sign of zero: a block of four
        -0.0 sums to -0.0 in IEEE arithmetic, while the mean starts its
        sum at +0.0 and returns +0.0."""
        neg_zero = (f == 0.0) & np.signbit(f)
        want = np.where(blocks_of(neg_zero).all(axis=-1), -0.0, avg_pool2_mean(f))
        assert avg_pool2(f).tobytes() == want.tobytes()

    @settings(max_examples=250, deadline=None)
    @given(pool_inputs(st.just(2)))
    def test_width_2_within_the_rounding_of_two_summation_orders(self, f):
        """At width 2 the mean sums left to right. Each order rounds three
        times, so each is within 3u of the sum of magnitudes, with u the
        unit roundoff; 7u of the mean magnitude covers both after the
        exact quarter, and 5e-324 the quarter's rounding in the subnormal
        range."""
        got, want = avg_pool2(f), avg_pool2_mean(f)
        bound = 7 * 2.0**-53 * avg_pool2_mean(np.abs(f)) + 5e-324
        assert (np.abs(got - want) <= bound).all()

    def test_width_2_differs_from_the_mean_in_the_last_bit(self):
        """Why the width-2 case has a bound rather than bit equality."""
        f = np.array([[1.0, 1.0], [2.0**-53, 2.0**-52]])
        assert avg_pool2(f)[0, 0] == 0.25 * (2.0 + 2.0**-51)  # 2 + 3 * 2^-53 rounds up
        assert avg_pool2_mean(f)[0, 0] == 0.5  # left to right: 2 + 2^-53 + 2^-52 rounds to 2
