import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemark import BitMatrix, PlanarImage, ber, nc, pearson, psnr
from wavemark.image_io import _to_8bit
from wavemark.metrics import _host_sums, _output_sums, _psnr_pearson


def _img(arr):
    return PlanarImage(np.asarray(arr, dtype=np.float64))


class TestPsnr:
    def test_identical_images_give_infinity(self):
        a = _img(np.random.default_rng(0).random((3, 4, 4)))
        assert psnr(a, a) == math.inf

    def test_one_level_difference_everywhere(self):
        # every 8-bit sample off by one: 10*log10(255^2 / 1)
        a = _img(np.full((1, 8, 8), 100 / 255))
        b = _img(np.full((1, 8, 8), 101 / 255))
        assert abs(psnr(a, b) - 48.13080360867934) < 1e-9

    def test_maximal_error(self):
        a = _img(np.zeros((1, 4, 4)))
        b = _img(np.ones((1, 4, 4)))
        assert psnr(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = _img(rng.random((3, 5, 5))), _img(rng.random((3, 5, 5)))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(_img(np.zeros((1, 2, 2))), _img(np.zeros((1, 2, 3))))


class TestPearson:
    def test_self_correlation(self):
        a = _img(np.random.default_rng(2).random((3, 6, 6)))
        assert abs(pearson(a, a) - 1.0) < 1e-12

    def test_exact_anticorrelation(self):
        a = _img(np.random.default_rng(3).random((1, 6, 6)))
        b = _img(1.0 - a.data)
        assert abs(pearson(a, b) + 1.0) < 1e-12

    def test_affine_invariance(self):
        a = _img(np.random.default_rng(4).random((1, 6, 6)))
        b = _img(0.5 * a.data + 0.1)
        assert abs(pearson(a, b) - 1.0) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = _img(rng.random((3, 5, 5))), _img(rng.random((3, 5, 5)))
        assert abs(pearson(a, b) - pearson(b, a)) < 1e-15

    def test_constant_image_rejected(self):
        a = _img(np.full((1, 4, 4), 0.5))
        b = _img(np.random.default_rng(6).random((1, 4, 4)))
        with pytest.raises(ValueError):
            pearson(a, b)


class TestNc:
    def test_identical_marks(self):
        w = BitMatrix(np.random.default_rng(7).integers(0, 2, (6, 8)))
        assert nc(w, w) == 1.0

    def test_disjoint_supports(self):
        w = BitMatrix(np.array([[1, 1, 0, 0]]))
        w2 = BitMatrix(np.array([[0, 0, 1, 1]]))
        assert nc(w, w2) == 0.0

    def test_direct_evaluation(self):
        w = BitMatrix(np.array([[1, 1, 0, 0]]))
        w2 = BitMatrix(np.array([[1, 0, 0, 0]]))
        assert abs(nc(w, w2) - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_empty_extraction_scores_zero(self):
        w = BitMatrix(np.array([[1, 0, 1]]))
        w2 = BitMatrix(np.array([[0, 0, 0]]))
        assert nc(w, w2) == 0.0

    def test_all_zero_reference_rejected(self):
        z = BitMatrix(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            nc(z, z)

    def test_range_and_consistency_with_ber(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = BitMatrix(rng.integers(0, 2, (5, 7)))
            w2 = BitMatrix(rng.integers(0, 2, (5, 7)))
            if not w.bits.any():
                continue
            score = nc(w, w2)
            assert 0.0 <= score <= 1.0
            if score == 1.0:
                assert ber(w, w2) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nc(BitMatrix(np.ones((2, 2))), BitMatrix(np.ones((2, 3))))


class TestBer:
    def test_identical(self):
        w = BitMatrix(np.random.default_rng(9).integers(0, 2, (4, 4)))
        assert ber(w, w) == 0.0

    def test_complement(self):
        w = BitMatrix(np.random.default_rng(10).integers(0, 2, (4, 4)))
        w2 = BitMatrix(1 - w.bits)
        assert ber(w, w2) == 100.0

    def test_960_bit_mark_with_35_mismatches(self):
        bits = np.zeros((15, 64), dtype=np.uint8)
        flipped = bits.copy()
        flipped.reshape(-1)[:35] = 1
        value = ber(BitMatrix(bits), BitMatrix(flipped))
        assert abs(value - 3500.0 / 960.0) < 1e-12  # 3.6458...

    def test_hamming_metric_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (BitMatrix(rng.integers(0, 2, (3, 5))) for _ in range(3))
            assert ber(a, c) <= ber(a, b) + ber(b, c) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ber(BitMatrix(np.ones((2, 2))), BitMatrix(np.ones((3, 2))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    maxval=st.integers(1, 65535),
    height=st.integers(8, 128),
    width=st.integers(1, 40),
    constant=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_region_sums_match_the_float_metrics(maxval, height, width, constant, seed, data):
    # an 8-bit output that differs from the host's encoding only in a top
    # band and in one zeroed rectangle, summed by region as the CLI does
    rng = np.random.default_rng(seed)
    shape = (height, width, 3)
    if constant:
        host = np.full(shape, rng.integers(0, maxval, endpoint=True))
    else:
        host = rng.integers(0, maxval, shape, endpoint=True)
    band = data.draw(st.integers(0, height), label="band")
    y0 = data.draw(st.integers(0, height), label="y")
    x0 = data.draw(st.integers(0, width), label="x")
    rect = (slice(y0, data.draw(st.integers(y0, height), label="y end")),
            slice(x0, data.draw(st.integers(x0, width), label="x end")))
    out = _to_8bit(host, maxval)
    out[:band] = rng.integers(0, 255, (band, width, 3), endpoint=True)

    below = _host_sums(host[band:])
    rest = _output_sums(host[band:], out[band:])
    if maxval == 255:  # below the band, y is x
        assert rest == (below[0], below[1], below[1])
    top = _output_sums(host[:band], out[:band])
    clean = tuple(t + b for t, b in zip(top, rest))
    assert clean == _output_sums(host, out)
    assert tuple(t + b for t, b in zip(_host_sums(host[:band]), below)) == _host_sums(host)
    cut = _output_sums(host[rect], out[rect])
    out[rect] = 0
    sums = tuple(c - k for c, k in zip(clean, cut))
    assert sums == _output_sums(host, out)

    psnr_db, r = _psnr_pearson(host.size, maxval, _host_sums(host), sums)
    x = _img(host.transpose(2, 0, 1) / maxval)
    y = _img(out.transpose(2, 0, 1) / 255)
    assert f"{psnr_db:.4f}" == f"{psnr(x, y):.4f}"
    try:
        want = f"{pearson(x, y):.6f}"
    except ValueError:  # a constant image has no correlation
        want = "nan"
    assert f"{r:.6f}" == want
