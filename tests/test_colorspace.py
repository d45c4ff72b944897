import numpy as np
import pytest

from wavemark import PlanarImage, jpeg_ycbcr_to_rgb, read_image, rgb_to_jpeg_ycbcr, write_image
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

    def test_planes_give_the_image_luma(self):
        img = PlanarImage(np.random.default_rng(12).random((3, 16, 24)))
        assert np.array_equal(luma(img.data), luma(img))
        with pytest.raises(ValueError):
            luma(np.zeros((1, 2, 2)))


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


class TestLayout:
    """Results depend on the sample values only, never on the memory layout."""

    @staticmethod
    def _strided(size):
        # (h, w, 3) memory seen as (3, h, w): the layout of an interleaved file
        rgb = np.random.default_rng(size).random((size, size, 3))
        return PlanarImage(rgb.transpose(2, 0, 1))

    @pytest.mark.parametrize("size", [8, 48, 128])
    def test_forward_and_luma_ignore_layout(self, size):
        view = self._strided(size)
        assert not view.data.flags.c_contiguous
        copy = PlanarImage(np.ascontiguousarray(view.data))
        a, b = rgb_to_jpeg_ycbcr(view), rgb_to_jpeg_ycbcr(copy)
        for grid_a, grid_b in ((a.y, b.y), (a.cb, b.cb), (a.cr, b.cr)):
            assert np.array_equal(grid_a, grid_b)
        assert np.array_equal(luma(view), luma(copy))
        assert np.array_equal(luma(view), a.y)

    def test_backward_ignores_layout(self):
        ycc = rgb_to_jpeg_ycbcr(self._strided(48))
        views = YCbCrImage(*(np.asfortranarray(g) for g in (ycc.y, ycc.cb, ycc.cr)))
        assert np.array_equal(jpeg_ycbcr_to_rgb(views).data, jpeg_ycbcr_to_rgb(ycc).data)

    def test_luma_of_a_read_file_is_the_forward_y(self, tmp_path):
        path = tmp_path / "host.ppm"
        write_image(self._strided(64), path)
        img = read_image(path)
        assert np.array_equal(luma(img), rgb_to_jpeg_ycbcr(img).y)


def test_planes_are_summed_left_to_right():
    # left to right, the order np.einsum takes on contiguous planes; the
    # golden outputs in test_golden.py were recorded with it
    img = PlanarImage(np.random.default_rng(7).random((3, 32, 32)))
    r, g, b = img.data
    ycc = rgb_to_jpeg_ycbcr(img)
    assert np.array_equal(ycc.y, r * 0.299 + g * 0.587 + b * 0.114)
    assert np.array_equal(ycc.cb, r * -0.16874 + g * -0.33126 + b * 0.5 + 0.5)
    assert np.array_equal(ycc.cr, r * 0.5 + g * -0.41869 + b * -0.08131 + 0.5)
    y, cb, cr = ycc.y, ycc.cb - 0.5, ycc.cr - 0.5
    rgb = jpeg_ycbcr_to_rgb(ycc).data
    assert np.array_equal(rgb[0], np.clip(y + cr * 1.402, 0.0, 1.0))
    assert np.array_equal(rgb[1], np.clip(y + cb * -0.34414 + cr * -0.71414, 0.0, 1.0))
    assert np.array_equal(rgb[2], np.clip(y + cb * 1.772, 0.0, 1.0))
