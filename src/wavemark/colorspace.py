"""RGB <-> JPEG-YCbCr conversion, applied per pixel in floating point.

JPEG-YCbCr is the full-range [0, 1] variant used by the JPEG standard:
Y carries luminance, Cb/Cr carry chroma offset by 0.5.  The forward and
backward matrices below are mutual inverses up to their 5-digit
truncation; the backward transform clamps, since watermark perturbation
can push samples marginally out of gamut.

Each output plane is an explicit weighted sum of input planes, added left
to right as numpy's einsum adds a contiguous input, less its zero terms
(the Y offset among them), which move no value.  It is elementwise, so a
strided view and its contiguous copy give equal bits.
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


def _weighted(planes, weights, out=None) -> np.ndarray:
    """``sum(w * p)`` over the planes, left to right, without zero terms."""
    (p0, w0), *rest = [(p, w) for p, w in zip(planes, weights) if w]
    out = np.multiply(p0, w0, out=out)
    for p, w in rest:
        out += p * w
    return out


def luma(img: PlanarImage | np.ndarray) -> np.ndarray:
    """The Y grid of :func:`rgb_to_jpeg_ycbcr` alone, of an image or of its
    (3, height, width) planes, which are then taken as valid."""
    planes = img.data if isinstance(img, PlanarImage) else img
    if planes.shape[0] != 3:
        raise ValueError(f"color transform needs 3 channels, got {planes.shape[0]}")
    return _weighted(planes, _FORWARD[0])


def rgb_to_jpeg_ycbcr(img: PlanarImage) -> YCbCrImage:
    """Forward transform: [Y, Cb, Cr] = offset + M @ [R, G, B]."""
    y = luma(img)
    cb, cr = (_weighted(img.data, _FORWARD[i]) + _OFFSET[i] for i in (1, 2))
    return YCbCrImage(y, cb, cr)


def jpeg_ycbcr_to_rgb(img: YCbCrImage) -> PlanarImage:
    """Backward transform with clamping: [R, G, B] = N @ ([Y, Cb, Cr] - offset)."""
    planes = (img.y, img.cb - _OFFSET[1], img.cr - _OFFSET[2])
    rgb = np.empty((3,) + img.y.shape)
    for i in range(3):
        _weighted(planes, _BACKWARD[i], out=rgb[i])
    return PlanarImage(np.clip(rgb, 0.0, 1.0, out=rgb))
