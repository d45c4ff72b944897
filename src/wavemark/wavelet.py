"""Three-level 2-D discrete wavelet transform, CDF 9/7, lifting scheme.

The lifting realization guarantees exact invertibility: the inverse
replays the update/predict steps in reverse order, so forward->inverse
reconstructs to double-precision rounding error regardless of the
constant values.  Boundaries use symmetric whole-sample extension
(x[-1] = x[1], x[N] = x[N-2]), the standard choice for odd-length
biorthogonal filters, which keeps perfect reconstruction exact at the
edges.

Each 1-D pass copies the even and odd samples of its axis, rows or
columns alike, into two contiguous halves and lifts them in place
(Daubechies & Sweldens, "Factoring wavelet transforms into lifting
steps", 1998); nothing is transposed.  A level is one [[LL, HL], [LH,
HH]] grid whose bands the pyramid holds as views.  :func:`dwt2_ll` runs
the same level step on the lowpass half only, for readers of LL3.  One
level loop synthesises every pyramid; :func:`dwt2_ll_inverse`, for
writers of LL3, runs it over 0-d zero detail grids.

Normalization puts gain K on the lowpass and 1/K on the highpass, so one
1-D pass has DC gain sqrt(2) and the 3-level 2-D pyramid satisfies
mean(LL3) = 8 * mean(input).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "LEVELS",
    "SubbandPyramid",
    "DetailBands",
    "check_dimensions",
    "dwt2_forward",
    "dwt2_ll",
    "dwt2_inverse",
    "dwt2_ll_inverse",
    "threshold_details",
    "ll_synthesis_atom",
]

LEVELS = 3  # the depth of the transform, whose LL3 band holds the mark

# CDF 9/7 lifting constants.  ALPHA/BETA/DELTA are the canonical values;
# GAMMA and SCALE are derived from ALPHA and BETA so that the DC
# annihilation identity (1 + 2a) + 2g(1 + 2b(1 + 2a)) = 0 and the
# lowpass DC gain sqrt(2) hold to machine precision rather than to the
# precision of independently rounded literature digits.
ALPHA = -1.5861343420693648
BETA = -0.0529801185718856
DELTA = 0.4435068520511142
_DC = 1.0 + 2.0 * BETA * (1.0 + 2.0 * ALPHA)
GAMMA = -(1.0 + 2.0 * ALPHA) / (2.0 * _DC)
SCALE = math.sqrt(2.0) / _DC


@dataclass(frozen=True)
class DetailBands:
    """The three detail grids of one decomposition level.

    ``hl`` is highpass along x / lowpass along y (vertical edges),
    ``lh`` the transpose orientation, ``hh`` diagonal.
    """

    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.lh, self.hl, self.hh)


@dataclass(frozen=True)
class SubbandPyramid:
    """LL_L plus per-level detail bands of an L-level 2-D DWT.

    ``details[0]`` is level 1 (finest, half resolution); ``details[-1]``
    is level L, matching the LL grid's resolution.
    """

    ll: np.ndarray
    details: tuple[DetailBands, ...]

    def validate(self) -> None:
        """Raise unless LL is 2-D and every detail grid fits the size it gives."""
        if self.ll.ndim != 2:
            raise DimensionError(f"LL grid has shape {self.ll.shape}, expected 2-D")
        h, w = (n << len(self.details) for n in self.ll.shape)
        for lvl, bands in enumerate(self.details, start=1):
            want = (h >> lvl, w >> lvl)
            for name, grid in (("lh", bands.lh), ("hl", bands.hl), ("hh", bands.hh)):
                if grid.shape != want:
                    raise DimensionError(
                        f"level {lvl} {name} grid has shape {grid.shape}, "
                        f"expected {want}"
                    )


# (constant, predict?) in analysis order: predict updates the odd samples
# from their even neighbours, update the even ones from their odd ones
_STEPS = ((ALPHA, True), (BETA, False), (GAMMA, True), (DELTA, False))

# One level's reach along the columns, from _STEPS, whose steps each add to a
# sample its two neighbours of the other parity: analysis row j reads input rows
# 2j-4..2j+4, synthesis rows 2j and 2j+1 read band rows j-2..j+2.  So a change to
# input rows from 2r (above 2r) reaches band rows from r - ANALYSIS_UP (to
# r + ANALYSIS_DOWN), and to band rows from r (above r) output rows from
# 2r - SYNTHESIS_UP (to 2r + SYNTHESIS_DOWN).
ANALYSIS_UP, ANALYSIS_DOWN, SYNTHESIS_UP, SYNTHESIS_DOWN = 2, 1, 3, 3


def _lift(
    s: np.ndarray, d: np.ndarray, free: np.ndarray, inverse: bool = False
) -> None:
    """Lift the even samples ``s`` and odd samples ``d`` in place along
    axis 1 of two C-contiguous (outer, n, inner) arrays.

    Axis-1 neighbours sit ``inner`` apart, so each step is one pass over
    the flat buffers; the end samples, which fold their missing
    neighbour, then overwrite their slice of the scratch sums.  The
    scratch is the head of ``free``, a contiguous buffer whose contents
    are dead: borrowing it saves an allocation and its page faults.
    """
    k = s.shape[2]
    sums = free.reshape(-1)[: s.size]
    scratch = sums.reshape(s.shape)
    s_flat, d_flat = s.reshape(-1), d.reshape(-1)
    apply = np.subtract if inverse else np.add
    if inverse:
        s /= SCALE
        d *= SCALE
    for const, predict in reversed(_STEPS) if inverse else _STEPS:
        if predict:  # d[j] += c * (s[j] + s[j+1]), with s[n] = s[n-1]
            np.add(s_flat[:-k], s_flat[k:], out=sums[:-k])
            np.multiply(s[:, -1], 2.0, out=scratch[:, -1])
            target = d_flat
        else:  # s[j] += c * (d[j-1] + d[j]), with d[-1] = d[0]
            np.add(d_flat[:-k], d_flat[k:], out=sums[k:])
            np.multiply(d[:, 0], 2.0, out=scratch[:, 0])
            target = s_flat
        sums *= const
        apply(target, sums, out=target)
    if not inverse:
        s *= SCALE
        d /= SCALE


def _forward_level(x: np.ndarray, grid: np.ndarray, maxval: int = 1) -> np.ndarray:
    """One level of ``x / maxval``, rows then columns, into ``grid``: (2, 2,
    h/2, w/2) for [[ll, hl], [lh, hh]], or (2, 1, h/2, w/2) to skip the
    x-highpass half.  The division writes straight into the row halves."""
    h, w = x.shape
    rows = np.empty((2, h, w // 2))  # [lowpass, highpass] along x
    if maxval == 1:  # x / 1 is x, and a copy takes half the time
        np.copyto(rows[0], x[:, 0::2])
        np.copyto(rows[1], x[:, 1::2])
    else:
        np.divide(x[:, 0::2], maxval, out=rows[0])
        np.divide(x[:, 1::2], maxval, out=rows[1])
    _lift(rows[0, :, :, None], rows[1, :, :, None], free=grid)
    rows = rows[: grid.shape[1]]
    grid[0] = rows[:, 0::2]
    grid[1] = rows[:, 1::2]
    _lift(grid[0], grid[1], free=rows)
    return grid


def _inverse_level(ll: np.ndarray, bands: DetailBands, t: float = 0.0) -> np.ndarray:
    """Exact reversal of :func:`_forward_level`, columns then rows, after zeroing
    the details with |c| < t in its own grid, as :func:`threshold_details` does."""
    h, w = ll.shape
    grid = np.empty((2, 2, h, w))
    rows = np.empty((2, 2 * h, w))
    grid[0, 0] = ll
    grid[0, 1], grid[1, 0], grid[1, 1] = bands.hl, bands.lh, bands.hh
    if t > 0.0:
        details = grid.reshape(4, h, w)[1:]
        mag = np.abs(details, out=rows.reshape(-1)[: details.size].reshape(details.shape))
        # copyto writes +0.0, as np.where does; a mask product would give -0.0
        np.copyto(details, 0.0, where=mag < t)
    _lift(grid[0], grid[1], free=rows, inverse=True)
    rows[:, 0::2] = grid[0]
    rows[:, 1::2] = grid[1]
    _lift(rows[0, :, :, None], rows[1, :, :, None], free=grid, inverse=True)
    out = grid.reshape(2 * h, 2 * w)  # grid is dead once rows holds it
    out[:, 0::2] = rows[0]
    out[:, 1::2] = rows[1]
    return out


def band_margin() -> int:
    """The LL rows a band of top rows must hold past the last LL row read or
    written for its transforms to equal the whole image's bit for bit: the fold
    at its bottom edge reaches ANALYSIS_UP rows up each analysis level, plus half
    the finer level's reach, 3 in all; a zero-detail synthesis needs only 2."""
    rows = 0
    for _ in range(LEVELS):
        rows = rows // 2 + ANALYSIS_UP
    return rows


def check_dimensions(height: int, width: int) -> None:
    """Raise unless the transform fits a height x width grid: both
    dimensions positive and divisible by 2**LEVELS."""
    mult = 1 << LEVELS
    if height < 1 or width < 1 or height % mult or width % mult:
        raise DimensionError(
            f"grid dimensions {width}x{height} must be divisible by {mult} "
            f"for {LEVELS} levels, and positive"
        )


def _check_grid(channel) -> np.ndarray:
    channel = np.asarray(channel, dtype=np.float64)
    if channel.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {channel.shape}")
    check_dimensions(*channel.shape)
    return channel


def dwt2_forward(channel: np.ndarray) -> SubbandPyramid:
    """Decompose a 2-D grid into a 3-level subband pyramid.

    Each level applies the 1-D lifting to rows then columns and recurses
    on the LL quadrant.  Both dimensions must be divisible by 8.  The
    detail bands are views into one grid per level.
    """
    channel = _check_grid(channel)
    return _analyse(channel, 1, _pyramid_grids(*channel.shape))


def _pyramid_grids(height: int, width: int) -> list[np.ndarray]:
    """Uninitialised grids for :func:`_analyse` to fill, finest level first."""
    return [np.empty((2, 2, height >> lvl, width >> lvl)) for lvl in range(1, LEVELS + 1)]


def _analyse(samples: np.ndarray, maxval: int, grids: list[np.ndarray]) -> SubbandPyramid:
    """:func:`dwt2_forward` of 2-D ``samples / maxval`` bit for bit, into
    ``grids`` from :func:`_pyramid_grids`, with no float copy of ``samples``."""
    for grid in grids:
        samples, maxval = _forward_level(samples, grid, maxval)[0, 0], 1
    details = tuple(DetailBands(lh=g[1, 0], hl=g[0, 1], hh=g[1, 1]) for g in grids)
    return SubbandPyramid(ll=samples, details=details)


def dwt2_ll(channel: np.ndarray) -> np.ndarray:
    """The LL3 grid of :func:`dwt2_forward`, without the detail bands.

    Bit-identical to ``dwt2_forward(channel).ll``: each level runs the
    same row pass and the column pass on the lowpass half alone.
    """
    cur = _check_grid(channel)
    for _ in range(LEVELS):
        cur = _forward_level(cur, np.empty((2, 1, cur.shape[0] // 2, cur.shape[1] // 2)))[0, 0]
    return cur


def dwt2_inverse(pyr: SubbandPyramid) -> np.ndarray:
    """Reconstruct the full-resolution grid from a subband pyramid."""
    pyr.validate()
    return _thresholded_inverse(pyr, 0.0)


def _thresholded_inverse(pyr: SubbandPyramid, t: float) -> np.ndarray:
    """``dwt2_inverse(threshold_details(pyr, t))`` of a valid ``pyr`` bit for
    bit, thresholding each level inside its synthesis, not in a copy.  A 0-d
    detail grid stands for a grid that holds its one value everywhere."""
    cur = np.asarray(pyr.ll, dtype=np.float64)
    for bands in reversed(pyr.details):
        cur = _inverse_level(cur, bands, t)
    return cur


def dwt2_ll_inverse(ll: np.ndarray) -> np.ndarray:
    """:func:`dwt2_inverse` of a 3-level pyramid whose only nonzero band
    is ``ll``, bit for bit: :func:`_thresholded_inverse` over 0-d zero
    detail grids, so no zero band is built.

    Lifting is local: if ``ll`` is zero from row r on and holds at least
    ``r + band_margin()`` rows, the result is the top of the synthesis of
    any taller grid that goes on with zero rows, bit for bit, and that
    synthesis is zero below it.  ``ll`` must be 2-D.
    """
    shape = np.shape(ll)
    if len(shape) != 2:
        raise DimensionError(f"LL grid has shape {shape}, expected 2-D")
    zero = np.zeros(())  # fills each detail grid as a scalar would
    return _thresholded_inverse(SubbandPyramid(ll, (DetailBands(zero, zero, zero),) * LEVELS), 0.0)


def _check_threshold(t: float) -> None:
    """Raise unless ``t >= 0``, written so that NaN is rejected too."""
    if not t >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {t}")


def threshold_details(pyr: SubbandPyramid, t: float) -> SubbandPyramid:
    """Hard-threshold the detail subbands: |c| < t becomes 0, LL untouched."""
    _check_threshold(t)
    new_details = tuple(
        DetailBands(
            lh=np.where(np.abs(b.lh) < t, 0.0, b.lh),
            hl=np.where(np.abs(b.hl) < t, 0.0, b.hl),
            hh=np.where(np.abs(b.hh) < t, 0.0, b.hh),
        )
        for b in pyr.details
    )
    return SubbandPyramid(ll=pyr.ll.copy(), details=new_details)


def ll_synthesis_atom(base_height: int, base_width: int, row: int, col: int) -> np.ndarray:
    """Synthesize a unit impulse at one LL coefficient (the impulse oracle).

    Returns the full-resolution response grid.  Its support is the
    coefficient's synthesis footprint (boundary folding included) and its
    squared sum is the atom energy.
    """
    check_dimensions(base_height, base_width)
    h, w = base_height >> LEVELS, base_width >> LEVELS
    if not (0 <= row < h and 0 <= col < w):
        raise ValueError(f"LL index ({row}, {col}) outside {h}x{w} grid")
    ll = np.zeros((h, w))
    ll[row, col] = 1.0
    return dwt2_ll_inverse(ll)
