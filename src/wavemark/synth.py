"""Deterministic synthetic host images.

Stand-ins for the classic (non-redistributable) test photographs, so the
whole benchmark runs without external assets.
"""

import numpy as np

from .image_io import PlanarImage
from .wavelet import check_dimensions

__all__ = ["KINDS", "synthesize_host"]

KINDS = ("gradient", "checker", "noise")

_CHECKER_BLOCK = 32


def synthesize_host(kind: str, size: int = 512, seed: int = 0) -> PlanarImage:
    """Build a size x size color host of the requested kind.

    gradient: R = x/(size-1), G = y/(size-1), B = (x+y)/(2*size-2).
    checker:  32x32 blocks alternating 0.25/0.75, equal in all channels.
    noise:    uniform [0, 1) samples from a seeded PCG64 stream.
    """
    check_dimensions(size, size)
    if kind == "gradient":
        x = np.arange(size) / (size - 1)
        y = np.arange(size) / (size - 1)
        r = np.broadcast_to(x, (size, size))
        g = np.broadcast_to(y[:, None], (size, size))
        b = (x[None, :] + y[:, None]) / 2.0
        return PlanarImage(np.stack([r, g, b]))
    if kind == "checker":
        idx = np.arange(size) // _CHECKER_BLOCK
        parity = (idx[:, None] + idx[None, :]) % 2
        plane = np.where(parity == 0, 0.25, 0.75)
        return PlanarImage(np.stack([plane, plane, plane]))
    if kind == "noise":
        rng = np.random.default_rng(seed)
        return PlanarImage(rng.random((3, size, size)))
    raise ValueError(f"unknown host kind {kind!r}, expected one of {KINDS}")
