"""Quality and fidelity measures: PSNR, Pearson correlation, NC, BER."""

import math

import numpy as np

from .image_io import BitMatrix, PlanarImage

__all__ = ["psnr", "pearson", "nc", "ber"]

# samples per block: two float64 blocks fit in a 2 MiB L2 cache, so each
# sample is read from memory once; and 2**15 * 65535**2 < 2**53
_BLOCK = 1 << 15


def _check_same_shape(a: PlanarImage, b: PlanarImage) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"image shapes differ: {a.data.shape} vs {b.data.shape}")


def psnr(a: PlanarImage, b: PlanarImage) -> float:
    """Peak signal-to-noise ratio in dB on the 0-255 amplitude scale.

    Computed over all samples of all channels; +inf when the images are
    identical.
    """
    _check_same_shape(a, b)
    err = np.subtract(a.data, b.data)
    err *= 255.0
    mse = np.mean(np.square(err, out=err))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def pearson(a: PlanarImage, b: PlanarImage) -> float:
    """Pearson correlation over all samples of all channels jointly."""
    _check_same_shape(a, b)
    x = a.data.reshape(-1)
    y = b.data.reshape(-1)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError("correlation undefined for a constant image")
    mx, my = x.mean(), y.mean()
    sxy = sxx = syy = 0.0
    for i in range(0, x.size, _BLOCK):
        xc, yc = x[i : i + _BLOCK] - mx, y[i : i + _BLOCK] - my
        sxy += np.einsum("i,i", xc, yc)
        sxx += np.einsum("i,i", xc, xc)
        syy += np.einsum("i,i", yc, yc)
    r = sxy / math.sqrt(sxx * syy)
    return float(min(max(r, -1.0), 1.0))


def _written_metrics(host: np.ndarray, maxval: int, out: np.ndarray) -> tuple[float, float]:
    """:func:`psnr` and :func:`pearson` of ``host / maxval`` against
    ``out / 255``, two integer sample arrays of one shape, from exact sums;
    the correlation is ``nan`` where :func:`pearson` raises.

    Each block's sums are integers below 2**53, which float64 holds exactly
    in any order of addition, and Python ints add the blocks up.  Pearson
    does not depend on scale, so it reads the integers as they are.
    """
    xs, ys = host.reshape(-1), out.reshape(-1)
    sx = sy = sxx = syy = sxy = 0
    for i in range(0, xs.size, _BLOCK):
        x = xs[i : i + _BLOCK].astype(np.float64)
        y = ys[i : i + _BLOCK].astype(np.float64)
        sx, sy = sx + int(x.sum()), sy + int(y.sum())
        # einsum, not x @ y: OpenBLAS threads busy-wait after each dot, taking bench's CPUs
        sxx += int(np.einsum("i,i", x, x))
        syy += int(np.einsum("i,i", y, y))
        sxy += int(np.einsum("i,i", x, y))
    n = xs.size
    # sum((255 x - maxval y)**2): the squared error on the 255 scale, times maxval**2
    sse = 255**2 * sxx - 2 * 255 * maxval * sxy + maxval**2 * syy
    psnr_db = math.inf if sse == 0 else 10.0 * math.log10(255**2 * n * maxval**2 / sse)
    vx, vy = n * sxx - sx * sx, n * syy - sy * sy
    if vx == 0 or vy == 0:  # a constant image has no correlation
        return psnr_db, math.nan
    r = (n * sxy - sx * sy) / math.sqrt(vx * vy)
    return psnr_db, min(max(r, -1.0), 1.0)


def nc(w: BitMatrix, w2: BitMatrix) -> float:
    """Normalized correlation between two binary marks of equal shape.

    NC = sum(w * w2) / sqrt(sum(w^2) * sum(w2^2)) over raw {0, 1} bits;
    defined as 0 when ``w2`` carries no ink at all.
    """
    if w.bits.shape != w2.bits.shape:
        raise ValueError(f"shapes differ: {w.bits.shape} vs {w2.bits.shape}")
    n1 = int(w.bits.sum())
    n2 = int(w2.bits.sum())
    if n1 == 0:
        raise ValueError("reference watermark must not be all-zero")
    if n2 == 0:
        return 0.0
    overlap = int((w.bits & w2.bits).sum())
    return overlap / math.sqrt(n1 * n2)


def ber(w: BitMatrix, w2: BitMatrix) -> float:
    """Bit error rate in percent: 100 * mismatches / total bits."""
    if w.bits.shape != w2.bits.shape:
        raise ValueError(f"shapes differ: {w.bits.shape} vs {w2.bits.shape}")
    return 100.0 * float(np.count_nonzero(w.bits != w2.bits)) / w.size
