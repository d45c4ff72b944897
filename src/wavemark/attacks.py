"""Deterministic attack simulators for robustness benchmarking.

``wavelet_compress`` models wavelet compression as hard thresholding of
detail coefficients; an entropy coding stage is lossless and would not
change the pixels, so none is applied.  ``crop`` blanks a rectangle
while keeping the original geometry, since extraction needs the
full-size raster.
"""

from dataclasses import dataclass

import numpy as np

from .image_io import PlanarImage
from .wavelet import _check_threshold, _thresholded_inverse, dwt2_forward

__all__ = ["CropRect", "wavelet_compress", "crop"]


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

    def window(self, width: int, height: int) -> tuple[slice, slice]:
        """The (rows, columns) slices the rectangle covers in a width x
        height raster; raises ValueError where it passes the raster's edge."""
        if self.x + self.w > width or self.y + self.h > height:
            raise ValueError(
                f"rectangle ({self.x}, {self.y}, {self.w}, {self.h}) exceeds "
                f"image bounds {width}x{height}"
            )
        return slice(self.y, self.y + self.h), slice(self.x, self.x + self.w)


def wavelet_compress(img: PlanarImage, t255: float) -> PlanarImage:
    """Compress by zeroing detail coefficients below a threshold.

    ``t255`` is expressed on the 0-255 amplitude scale and divided by 255
    internally, since the pipeline works on unit-range samples.  Each
    channel is thresholded independently over a 3-level decomposition,
    and the result is clipped to [0, 1].
    """
    _check_threshold(t255)
    out = np.empty_like(img.data)
    for ch, plane in enumerate(img.data):
        pyramid = dwt2_forward(plane)
        np.clip(_thresholded_inverse(pyramid, t255 / 255.0), 0.0, 1.0, out=out[ch])
    return PlanarImage(out)


def _check_fill(fill: float) -> None:
    """Raise unless ``fill`` is a sample value in [0, 1], NaN excluded."""
    if not 0.0 <= fill <= 1.0:
        raise ValueError(f"fill must lie in [0, 1], got {fill}")


def crop(img: PlanarImage, rect: CropRect, fill: float = 0.0) -> PlanarImage:
    """Replace the samples inside ``rect`` with ``fill`` in every channel."""
    rows, cols = rect.window(img.width, img.height)
    _check_fill(fill)
    data = img.data.copy()
    data[:, rows, cols] = fill
    return PlanarImage(data)
