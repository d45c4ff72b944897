"""Quality and fidelity measures: PSNR, Pearson correlation, NC, BER.

:func:`psnr` and :func:`pearson` are the float reference.  The command line
gets them from exact integer sums that add over regions, so it sums only
the samples that differ from the host."""

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


def _blocks(*arrays):
    """Float64 blocks of at most _BLOCK samples, taken in step from integer
    arrays of one shape (one array gives arrays, not 1-tuples).  A block's
    sums are integers below 2**53, exact in float64 in any order, so as
    Python ints they add up exactly over blocks and regions."""
    return np.nditer(arrays, ["external_loop", "buffered", "zerosize_ok"],
                     [["readonly"]] * len(arrays), op_dtypes=["f8"] * len(arrays),
                     buffersize=_BLOCK)


def _host_sums(x: np.ndarray) -> tuple[int, int]:
    """Σx and Σx² of integer samples, exactly."""
    sx = sxx = 0
    for b in _blocks(x):
        # einsum, not b @ b: OpenBLAS threads busy-wait after each dot, taking bench's CPUs
        sx, sxx = sx + int(np.einsum("i->", b)), sxx + int(np.einsum("i,i", b, b))
    return sx, sxx


def _output_sums(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int]:
    """Σy, Σy² and Σxy of host samples ``x`` and output samples ``y``, integer
    arrays of one shape, exactly."""
    sy = syy = sxy = 0
    for xb, yb in _blocks(x, y):
        sy += int(np.einsum("i->", yb))
        syy += int(np.einsum("i,i", yb, yb))
        sxy += int(np.einsum("i,i", xb, yb))
    return sy, syy, sxy


def _psnr_pearson(n: int, maxval: int, host_sums, output_sums) -> tuple[float, float]:
    """:func:`psnr` and :func:`pearson` of n samples ``host / maxval`` and
    ``out / 255`` from their sums; the correlation is ``nan`` where
    :func:`pearson` raises, and reads the integers, as it has no scale."""
    (sx, sxx), (sy, syy, sxy) = host_sums, output_sums
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
