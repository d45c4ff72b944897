"""Deterministic attack simulators for robustness benchmarking.

``wavelet_compress`` models wavelet compression as hard thresholding of
detail coefficients; an entropy coding stage is lossless and would not
change the pixels, so none is applied.  ``crop`` blanks a rectangle
while keeping the original geometry, since extraction needs the
full-size raster.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .image_io import PlanarImage
from .watermark import DEFAULT_LEVELS
from .wavelet import _thresholded_inverse, dwt2_forward

__all__ = ["CropRect", "wavelet_compressor", "wavelet_compress", "crop"]


@dataclass(frozen=True)
class CropRect:
    """Axis-aligned rectangle: top-left corner (x, y), extent (w, h)."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"rectangle extent must be >= 0, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rectangle origin must be >= 0, got ({self.x}, {self.y})")


def wavelet_compressor(img: PlanarImage) -> Callable[[float], np.ndarray]:
    """Return ``t255 -> `` the synthesis planes of ``wavelet_compress(img,
    t255)``, shaped (channels, height, width) and not yet clipped to
    [0, 1], for a sweep of thresholds.

    The first call decomposes each channel; every call then only inverts
    those pyramids, zeroing the small detail coefficients inside each
    level's synthesis, and returns a new array that the caller may
    overwrite.
    """
    pyramids = []

    def compress(t255: float) -> np.ndarray:
        if not t255 >= 0.0:
            raise ValueError(f"threshold must be >= 0, got {t255}")
        if not pyramids:
            pyramids[:] = [dwt2_forward(ch, DEFAULT_LEVELS) for ch in img.data]
        out = np.empty_like(img.data)
        for ch, pyr in enumerate(pyramids):
            out[ch] = _thresholded_inverse(pyr, t255 / 255.0)
        return out

    return compress


def wavelet_compress(img: PlanarImage, t255: float) -> PlanarImage:
    """Compress by zeroing detail coefficients below a threshold.

    ``t255`` is expressed on the 0-255 amplitude scale and divided by 255
    internally, since the pipeline works on unit-range samples.  Each
    channel is thresholded independently over a 3-level decomposition,
    and the result is clipped to [0, 1].
    """
    out = wavelet_compressor(img)(t255)
    return PlanarImage(np.clip(out, 0.0, 1.0, out=out))


def crop(img: PlanarImage, rect: CropRect, fill: float = 0.0) -> PlanarImage:
    """Replace the samples inside ``rect`` with ``fill`` in every channel."""
    if rect.x + rect.w > img.width or rect.y + rect.h > img.height:
        raise ValueError(
            f"rectangle ({rect.x}, {rect.y}, {rect.w}, {rect.h}) exceeds "
            f"image bounds {img.width}x{img.height}"
        )
    if not 0.0 <= fill <= 1.0:
        raise ValueError(f"fill must lie in [0, 1], got {fill}")
    data = img.data.copy()
    data[:, rect.y : rect.y + rect.h, rect.x : rect.x + rect.w] = fill
    return PlanarImage(data)
