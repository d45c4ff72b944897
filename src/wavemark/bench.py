"""The robustness table, and the file pipeline it shares with the subcommands.

Each host stays its file's integer samples: the watermark's band core
turns only the mark's band of rows into floats, ``embed`` writes maxval
255 (below the band, the host's rows, requantized unless its maxval is
255), and ``attack`` and ``bench`` share one compression, which decomposes
each channel's samples with no float copy and encodes each synthesis as a
write would.  ``bench`` runs each scenario on the file ``embed`` writes.
PSNR and Pearson come from exact integer sums of the host, taken once, and of
only the rows or rectangle a step changed; a constant image's Pearson and a
blank mark's NC read ``nan``.  A host's three channel analyses, then its rows,
run on the CPUs the process may use, with the same bytes and order as on one.
"""

import csv
import functools
import io
import os
from typing import NamedTuple

import numpy as np

from .attacks import CropRect
from .errors import FormatError, WavemarkError
from .image_io import _file_samples, _read_samples, _to_8bit
from .metrics import _host_sums, _output_sums, _psnr_pearson, ber, nc
from .watermark import _embed_band, _extract_band
from .wavelet import _analyse, _pyramid_grids, _thresholded_inverse, check_dimensions


class BenchRow(NamedTuple):
    """One (host, scenario) result; its metrics are None where that failed."""

    host: str
    scenario: str
    param: str
    psnr_db: float | None = None
    pearson: float | None = None
    nc: float | None = None
    ber_percent: float | None = None


def _cells(row: BenchRow) -> tuple[str, ...]:
    """A row's cells in both views: each metric at its precision, FAILED for None."""
    specs = (".4f", ".6f", ".6f", ".4f")
    return (*row[:3], *("FAILED" if v is None else format(v, s) for v, s in zip(row[3:], specs)))


def format_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([BenchRow._fields, *map(_cells, rows)])
    return buf.getvalue()


def format_text(rows) -> str:
    table = [BenchRow._fields, *map(_cells, rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in table)


def _read_host(path, band=lambda height, width: height):
    """A colour host's integer samples, shaped (height, width, 3), and its
    maxval: the mark lives in the luma of its JPEG-YCbCr.  Only the rows
    [0, band(height, width)) are returned, read as
    :func:`image_io._decode` reads them."""
    def rows(height, width, channels):
        if channels != 3:
            raise FormatError(f"{path}: host must be a colour PPM (P3/P6), got a grayscale image")
        return band(height, width)

    return _read_samples(path, rows)


def _embed_8bit(host, maxval, wm, seed, delta):
    """The 8-bit samples ``embed`` writes for a host's integer samples, in the
    mark's band and below it, the key, the host's sums and the output's sums."""
    marked, key = _embed_band(host.transpose(2, 0, 1), maxval, wm, seed, delta)
    band = marked.shape[1]
    top = _file_samples(marked, 255, np.empty(host[:band].shape, np.uint8))
    (tx, txx), (bx, bxx) = _host_sums(host[:band], maxval), _host_sums(host[band:], maxval)
    ty, tyy, txy = _output_sums(host[:band], top, maxval)
    if maxval == 255:  # below the band, y is x: no copy and no sums to take
        below, (by, byy, bxy) = host[band:].astype(np.uint8, copy=False), (bx, bxx, bxx)
    else:  # below the band, y is lut[x]
        below = _to_8bit(host[band:], maxval)
        by, byy, bxy = _output_sums(host[band:], below, maxval)
    return top, below, key, (tx + bx, txx + bxx), (ty + by, tyy + byy, txy + bxy)


def _compressor(samples, maxval):
    """``compress(t)``, the 8-bit samples ``write_image(wavelet_compress(img,
    t))`` writes for ``img = samples / maxval``.  Each channel's pyramid is
    analysed first, on every CPU the process may use, into grids allocated
    here; an analysis's error leaves this call, before any ``compress``."""
    # the pool's modules live for the process: loaded above the grids, they
    # would keep the heap from shrinking when the grids are freed
    from concurrent.futures import ThreadPoolExecutor, wait  # noqa: F401
    height, width, channels = samples.shape
    check_dimensions(height, width)
    grids = [_pyramid_grids(height, width) for _ in range(channels)]
    pyramids = _on_every_cpu(channels, lambda c: _analyse(samples[..., c], maxval, grids[c]))

    def compress(t):
        planes = (_thresholded_inverse(pyramid, t / 255.0) for pyramid in pyramids)
        return _file_samples(planes, 255, np.empty(samples.shape, np.uint8))

    return compress


def _default_rects(width: int, height: int) -> list[CropRect]:
    # top-left quarter and centered quarter (half extent per axis)
    return [
        CropRect(0, 0, width // 2, height // 2),
        CropRect(width // 4, height // 4, width // 2, height // 2),
    ]


def _on_every_cpu(n: int, task) -> list:
    """``[task(0), ..., task(n - 1)]``, in index order whichever thread ran
    each task.  The calling thread and one worker thread per extra CPU each
    take the next i when they are free and store ``task(i)`` at index i;
    the calling thread returns the list once every task has ended.  Once a
    task raises, no task starts, and the error leaves when the running ones
    have ended.

    The calling thread does its share: each thread allocates from its own
    glibc heap, which keeps its high-water mark, so a worker in its place
    would only add one more heap's peak.  The workers are kept: a thread
    frees its heap after its join returns, so a new one may make another.
    """
    # imported here: it loads logging, 5 ms and 0.6 MiB that only bench and
    # attack --compress-t need
    from concurrent.futures import wait

    results = [None] * n
    indices = iter(range(n))  # the GIL makes each next() on it atomic

    def drain():
        try:
            for i in indices:
                results[i] = task(i)
        finally:  # after an error, take every index left
            for _ in indices:
                pass

    try:
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    extra = min(cpus, n) - 1
    workers = [_workers(cpus - 1).submit(drain) for _ in range(extra)]
    try:
        drain()
    finally:  # the error leaves when the running tasks have ended
        wait(workers)
    for worker in workers:
        worker.result()
    return results


@functools.cache
def _workers(count: int):
    """A pool of up to ``count`` threads, kept for the process."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(count)


def _bench_host(path, wm, thresholds, rects, host_seed, delta) -> list[BenchRow]:
    """One host's rows, in scenario order: clean, each threshold, each crop.

    A crop row's sums are the clean row's less its rectangle's, which fill
    0 sets to 0.  The channel analyses, then the rows, are computed on
    every CPU the process may use; ``_on_every_cpu`` returns the rows in
    scenario order, so neither the bytes nor the order depend on them.
    """
    try:
        host, maxval = _read_host(path)
        # bench rows describe the file pipeline: the 8-bit file embed writes
        top, below, key, host_sums, clean = _embed_8bit(host, maxval, wm, host_seed, delta)
        marked = np.concatenate((top, below))
    except (WavemarkError, ValueError, OSError):
        return [BenchRow(path, "embed", "-")]
    height, width = host.shape[:2]
    compress = _compressor(marked, 255)

    def compressed(t):
        out = compress(t)
        return out, _output_sums(host, out, maxval)

    def cropped(rect):
        rows, cols = rect.window(width, height)
        # extraction reads the band alone, and the rectangle's samples read 0
        attacked = top.copy()
        attacked[rows, cols] = 0
        cut = _output_sums(host[rows, cols], marked[rows, cols], maxval)
        return attacked, tuple(c - k for c, k in zip(clean, cut))

    # (scenario, param label, attack): the attack gets the parsed value,
    # never its label read back; it returns what extraction reads, and sums
    scenarios = [("clean", "-", lambda: (marked, clean))]
    scenarios += [("compress", f"{t:g}", lambda t=t: compressed(t)) for t in thresholds]
    host_rects = rects if rects is not None else _default_rects(width, height)
    scenarios += [
        ("crop", f"{r.x},{r.y},{r.w},{r.h}", lambda r=r: cropped(r)) for r in host_rects
    ]

    def run(i: int) -> BenchRow:
        scenario, param, attack = scenarios[i]
        try:
            attacked, sums = attack()
            recovered = _extract_band(attacked.transpose(2, 0, 1), 255, key)
            psnr_db, r = _psnr_pearson(host.size, maxval, host_sums, sums)
            nc_ = nc(wm, recovered) if wm.bits.any() else float("nan")  # undefined with no ink
            return BenchRow(path, scenario, param, psnr_db, r, nc_, ber(wm, recovered))
        except (WavemarkError, ValueError, OSError):
            return BenchRow(path, scenario, param)

    return _on_every_cpu(len(scenarios), run)
