"""RGB <-> JPEG-YCbCr conversion, applied per pixel in floating point.

JPEG-YCbCr is the full-range [0, 1] variant used by the JPEG standard:
Y carries luminance, Cb/Cr carry chroma offset by 0.5.  The forward and
backward matrices below are mutual inverses up to their 5-digit
truncation; the backward transform clamps, since watermark perturbation
can push samples marginally out of gamut.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["YCbCrImage", "rgb_to_jpeg_ycbcr", "jpeg_ycbcr_to_rgb", "luma"]

from .image_io import PlanarImage

# fmt: off
_FORWARD = np.array([
    [ 0.29900,  0.58700,  0.11400],
    [-0.16874, -0.33126,  0.50000],
    [ 0.50000, -0.41869, -0.08131],
])
_BACKWARD = np.array([
    [1.0,  0.00000,  1.40200],
    [1.0, -0.34414, -0.71414],
    [1.0,  1.77200,  0.00000],
])
# fmt: on
_OFFSET = np.array([0.0, 0.5, 0.5])


@dataclass(frozen=True)
class YCbCrImage:
    """Luma and chroma grids of one image, each (height, width)."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray

    def __post_init__(self):
        if not (self.y.shape == self.cb.shape == self.cr.shape):
            raise ValueError(
                f"Y/Cb/Cr grids must share dimensions, got "
                f"{self.y.shape}/{self.cb.shape}/{self.cr.shape}"
            )

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def width(self) -> int:
        return self.y.shape[1]


def _check_rgb(img: PlanarImage) -> None:
    if img.channels != 3:
        raise ValueError(f"color transform needs 3 channels, got {img.channels}")


def luma(img: PlanarImage) -> np.ndarray:
    """The Y grid of :func:`rgb_to_jpeg_ycbcr` alone, summed in its order."""
    _check_rgb(img)
    r, g, b = img.data
    return r * _FORWARD[0, 0] + g * _FORWARD[0, 1] + b * _FORWARD[0, 2]


def rgb_to_jpeg_ycbcr(img: PlanarImage) -> YCbCrImage:
    """Forward transform: [Y, Cb, Cr] = offset + M @ [R, G, B]."""
    _check_rgb(img)
    ycc = np.einsum("ij,jhw->ihw", _FORWARD, img.data) + _OFFSET[:, None, None]
    return YCbCrImage(ycc[0], ycc[1], ycc[2])


def jpeg_ycbcr_to_rgb(img: YCbCrImage) -> PlanarImage:
    """Backward transform with clamping: [R, G, B] = N @ ([Y, Cb, Cr] - offset)."""
    ycc = np.stack([img.y, img.cb, img.cr]) - _OFFSET[:, None, None]
    rgb = np.einsum("ij,jhw->ihw", _BACKWARD, ycc)
    return PlanarImage(np.clip(rgb, 0.0, 1.0))
