import numpy as np
import pytest

from wavemark import PlanarImage, jpeg_ycbcr_to_rgb, rgb_to_jpeg_ycbcr
from wavemark.colorspace import YCbCrImage, luma


def _one_pixel(r, g, b):
    return PlanarImage(np.array([[[r]], [[g]], [[b]]], dtype=np.float64))


def _ycc_pixel(img):
    ycc = rgb_to_jpeg_ycbcr(img)
    return float(ycc.y[0, 0]), float(ycc.cb[0, 0]), float(ycc.cr[0, 0])


class TestForward:
    def test_black_maps_to_offset(self):
        assert _ycc_pixel(_one_pixel(0, 0, 0)) == (0.0, 0.5, 0.5)

    def test_white_is_achromatic(self):
        y, cb, cr = _ycc_pixel(_one_pixel(1, 1, 1))
        assert abs(y - 1.0) < 1e-12 and abs(cb - 0.5) < 1e-12 and abs(cr - 0.5) < 1e-12

    def test_pure_red_first_column(self):
        # first column of the forward matrix; the luma weight is the
        # standard 0.299 (the consistent value, see the round-trip suite)
        y, cb, cr = _ycc_pixel(_one_pixel(1, 0, 0))
        assert abs(y - 0.299) < 1e-12
        assert abs(cb - 0.33126) < 1e-12
        assert abs(cr - 1.0) < 1e-12

    def test_grayscale_input_rejected(self):
        with pytest.raises(ValueError):
            rgb_to_jpeg_ycbcr(PlanarImage(np.zeros((1, 2, 2))))


class TestLuma:
    def test_matches_forward_transform_bit_for_bit(self):
        img = PlanarImage(np.random.default_rng(11).random((3, 24, 40)))
        assert np.array_equal(luma(img), rgb_to_jpeg_ycbcr(img).y)

    def test_grayscale_input_rejected(self):
        with pytest.raises(ValueError):
            luma(PlanarImage(np.zeros((1, 2, 2))))


class TestBackward:
    def test_offset_cancellation(self):
        rgb = jpeg_ycbcr_to_rgb(
            YCbCrImage(np.array([[0.0]]), np.array([[0.5]]), np.array([[0.5]]))
        )
        assert np.all(rgb.data == 0.0)

    def test_neutral_chroma_passes_luma(self):
        rgb = jpeg_ycbcr_to_rgb(
            YCbCrImage(np.array([[1.0]]), np.array([[0.5]]), np.array([[0.5]]))
        )
        assert np.allclose(rgb.data, 1.0, atol=1e-12)

    def test_inverse_of_pure_red(self):
        rgb = jpeg_ycbcr_to_rgb(
            YCbCrImage(np.array([[0.299]]), np.array([[0.33126]]), np.array([[1.0]]))
        )
        assert np.abs(rgb.data[:, 0, 0] - np.array([1.0, 0.0, 0.0])).max() < 5e-5

    def test_out_of_gamut_chroma_clamped(self):
        rgb = jpeg_ycbcr_to_rgb(
            YCbCrImage(np.array([[0.9]]), np.array([[1.0]]), np.array([[1.0]]))
        )
        assert rgb.data.min() >= 0.0 and rgb.data.max() <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            YCbCrImage(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


class TestRoundTrip:
    def test_lattice_round_trip_below_5e5(self):
        g = np.linspace(0.0, 1.0, 17)
        r, gg, b = np.meshgrid(g, g, g, indexing="ij")
        img = PlanarImage(
            np.stack([r.reshape(1, -1), gg.reshape(1, -1), b.reshape(1, -1)])
        )
        back = jpeg_ycbcr_to_rgb(rgb_to_jpeg_ycbcr(img))
        assert np.abs(back.data - img.data).max() < 5e-5

    def test_gray_axis_fixed_point(self):
        v = np.linspace(0.0, 1.0, 101)
        img = PlanarImage(np.stack([v.reshape(1, -1)] * 3))
        ycc = rgb_to_jpeg_ycbcr(img)
        assert np.abs(ycc.cb - 0.5).max() < 1e-12
        assert np.abs(ycc.cr - 0.5).max() < 1e-12
        back = jpeg_ycbcr_to_rgb(ycc)
        assert np.abs(back.data - img.data).max() < 5e-5
