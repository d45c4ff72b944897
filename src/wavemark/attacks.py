"""Deterministic attack simulators for robustness benchmarking.

``wavelet_compress`` models wavelet compression as hard thresholding of
detail coefficients; an entropy coding stage is lossless and would not
change the pixels, so none is applied.  ``crop`` blanks a rectangle
while keeping the original geometry, since extraction needs the
full-size raster.
"""

from collections.abc import Callable, Iterable, Iterator
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

    def window(self, width: int, height: int) -> tuple[slice, slice]:
        """The (rows, columns) slices the rectangle covers in a width x
        height raster; raises ValueError where it passes the raster's edge."""
        if self.x + self.w > width or self.y + self.h > height:
            raise ValueError(
                f"rectangle ({self.x}, {self.y}, {self.w}, {self.h}) exceeds "
                f"image bounds {width}x{height}"
            )
        return slice(self.y, self.y + self.h), slice(self.x, self.x + self.w)


def wavelet_compressor(
    planes: Iterable[np.ndarray],
) -> Callable[[float], Iterator[np.ndarray]]:
    """Return ``t255 -> `` the synthesis planes of ``wavelet_compress(img,
    t255)``, not yet clipped to [0, 1], for a sweep of thresholds.

    ``planes`` are the image's channel planes, taken as valid and each
    decomposed as it comes, so a generator may make them one at a time.
    The compressor keeps the pyramids, not the planes, and threads may
    share it.  A call checks the threshold and returns a generator that
    makes each channel's synthesis plane when it is asked for: a new array
    the caller may overwrite.
    """
    pyramids = [dwt2_forward(ch, DEFAULT_LEVELS) for ch in planes]

    def compress(t255: float) -> Iterator[np.ndarray]:
        if not t255 >= 0.0:
            raise ValueError(f"threshold must be >= 0, got {t255}")
        t = t255 / 255.0
        return (_thresholded_inverse(pyramid, t) for pyramid in pyramids)

    return compress


def wavelet_compress(img: PlanarImage, t255: float) -> PlanarImage:
    """Compress by zeroing detail coefficients below a threshold.

    ``t255`` is expressed on the 0-255 amplitude scale and divided by 255
    internally, since the pipeline works on unit-range samples.  Each
    channel is thresholded independently over a 3-level decomposition,
    and the result is clipped to [0, 1].
    """
    out = np.empty_like(img.data)
    for ch, plane in enumerate(wavelet_compressor(img.data)(t255)):
        np.clip(plane, 0.0, 1.0, out=out[ch])
    return PlanarImage(out)


def crop(img: PlanarImage, rect: CropRect, fill: float = 0.0) -> PlanarImage:
    """Replace the samples inside ``rect`` with ``fill`` in every channel."""
    rows, cols = rect.window(img.width, img.height)
    if not 0.0 <= fill <= 1.0:
        raise ValueError(f"fill must lie in [0, 1], got {fill}")
    data = img.data.copy()
    data[:, rows, cols] = fill
    return PlanarImage(data)
