"""Command-line front end.

Subcommands wire the pipeline end to end: ``synth`` makes a host,
``embed`` watermarks it, ``attack`` degrades it, ``extract`` recovers the
mark, and ``bench`` runs the whole robustness table (clean, compression
thresholds, crops) over one or more hosts.

Every subcommand but ``synth`` keeps the image as its file's integer
samples and builds no ``PlanarImage``: ``embed``, ``extract`` and
``bench`` hand a (channels, height, width) view of them to the watermark's
band core, which turns only the mark's band of rows into floats.
``embed`` and ``attack`` always write maxval 255; below the band ``embed``
writes the host's rows, or requantizes them when its maxval is not 255.
``attack`` and ``bench`` share one compression, which decomposes each
channel's integer samples with no float copy of them and encodes each
synthesis as a write would; ``bench`` runs each scenario on the file
``embed`` writes.  The report line and every bench row's PSNR and Pearson
come from exact integer sums of the host, taken once, and of only the rows
or rectangle the step changed; a constant image's undefined Pearson reads
``nan``.  A host's three channel analyses, then its rows, are computed on
the CPUs the process may use, with the same bytes and order as on one;
``attack``'s analyses run on them too.

Errors leave via a one-line machine-parsable ``error: <category>:
<detail>`` on stderr, argparse's rejections too: ``main`` returns 2 for
them, not ``SystemExit``.  argparse checks each flag whose rule the
library owns with the library's check.  Exit codes: 0 success, 2 usage,
3 data/format, 4 capacity/dimension.
"""

import argparse
import csv
import functools
import io
import os
import secrets
import sys
from typing import NamedTuple

import numpy as np

from .attacks import CropRect, _check_fill
from .errors import CapacityError, DimensionError, FormatError, UsageError, WavemarkError
from .image_io import (
    _encode_samples,
    _file_samples,
    _read_samples,
    _to_8bit,
    _write_samples,
    read_watermark,
    write_image,
    write_watermark,
)
from .metrics import _host_sums, _output_sums, _psnr_pearson, ber, nc
from .synth import KINDS, synthesize_host
from .watermark import DEFAULT_DELTA, _check_delta, _embed_band, _extract_band, load_key, save_key
from .wavelet import _analyse, _check_threshold, _pyramid_grids, _thresholded_inverse, check_dimensions

__all__ = ["main"]

_FAILED = "FAILED"


class BenchRow(NamedTuple):
    """One (host, scenario) result with formatted metric fields.

    Metric fields hold the string ``FAILED`` when the scenario's module
    error was caught; the text and CSV views carry identical values.
    """

    host: str
    scenario: str
    param: str
    psnr_db: str
    pearson: str
    nc: str
    ber_percent: str


_CSV_HEADER = BenchRow._fields


def _parse_rect(text: str) -> CropRect:
    try:
        x, y, w, h = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"crop rectangle must be four integers x,y,w,h, got {text!r}") from None
    return CropRect(x=x, y=y, w=w, h=h)


def _flag(parse, check=lambda value: None):
    """An argparse ``type=``: ``parse``, then ``check``; a ValueError becomes a
    flag error.  A failed ``float`` reads ``invalid float value: 'x'``, in the
    words argparse gives a failed ``int``."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            message = f"invalid float value: {text!r}" if parse is float else str(exc)
            raise argparse.ArgumentTypeError(message) from None
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return convert


def _items(convert, sep: str):
    """An argparse ``type=`` of one or more nonempty ``sep``-separated ``convert`` items."""
    def convert_all(text: str) -> list:
        items = [convert(part) for part in text.split(sep) if part.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"must name at least one item, got {text!r}")
        return items
    return convert_all


def _read_host(path):
    """A colour host's integer samples, shaped (height, width, 3), and its
    maxval: the mark lives in the luma of its JPEG-YCbCr."""
    samples, maxval = _read_samples(path)
    if samples.shape[2] != 3:
        raise FormatError(f"{path}: host must be a colour PPM (P3/P6), got a grayscale image")
    return samples, maxval


def _check_seed_flag(seed, hosts: int) -> None:
    """Host i embeds with seed + i, which must stay an unsigned 64-bit integer."""
    if seed is not None and not 0 <= seed <= 2**64 - hosts:
        raise UsageError(f"--seed: must lie in [0, {2**64 - hosts}] for {hosts} host(s), got {seed}")


def _embed_8bit(host, maxval, wm, seed, delta):
    """The 8-bit samples ``embed`` writes for a host's integer samples, in the
    mark's band and below it, the key, the host's sums and the output's sums."""
    marked, key = _embed_band(host.transpose(2, 0, 1), maxval, wm, seed, delta)
    band = marked.shape[1]
    top = _file_samples(marked, 255, np.empty(host[:band].shape, np.uint8))
    (tx, txx), (bx, bxx) = _host_sums(host[:band]), _host_sums(host[band:])
    ty, tyy, txy = _output_sums(host[:band], top)
    if maxval == 255:  # below the band, y is x: no copy and no sums to take
        below, (by, byy, bxy) = host[band:].astype(np.uint8, copy=False), (bx, bxx, bxx)
    else:  # below the band, y is lut[x]
        below = _to_8bit(host[band:], maxval)
        by, byy, bxy = _output_sums(host[band:], below)
    return top, below, key, (tx + bx, txx + bxx), (ty + by, tyy + byy, txy + bxy)


def _compressor(samples, maxval):
    """``compress(t)``, the 8-bit samples ``write_image(wavelet_compress(img,
    t))`` writes for ``img = samples / maxval``.  Each channel's pyramid is
    analysed first, on every CPU the process may use, into grids allocated
    here; an analysis's error leaves this call, before any ``compress``."""
    height, width, channels = samples.shape
    check_dimensions(height, width)
    pyramids = [_pyramid_grids(height, width) for _ in range(channels)]  # grids until analysed

    def analyse(c):
        pyramids[c] = _analyse(samples[..., c], maxval, pyramids[c])

    def compress(t):
        planes = (_thresholded_inverse(pyramid, t / 255.0) for pyramid in pyramids)
        return _file_samples(planes, 255, np.empty(samples.shape, np.uint8))

    _on_every_cpu(channels, analyse)
    return compress


# ---------------------------------------------------------------------------
# subcommands


def cmd_embed(args) -> int:
    _check_seed_flag(args.seed, 1)
    host, maxval = _read_host(args.host)
    wm = read_watermark(args.watermark)
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    top, below, key, host_sums, sums = _embed_8bit(host, maxval, wm, seed, args.delta)
    _write_samples(args.out_image, 255, top, below)
    save_key(key, args.out_key)
    psnr_db, r = _psnr_pearson(host.size, maxval, host_sums, sums)
    print(f"psnr_db={psnr_db:.4f} pearson={r:.6f}")
    return 0


def cmd_extract(args) -> int:
    image, maxval = _read_host(args.image)
    key = load_key(args.key)
    write_watermark(_extract_band(image.transpose(2, 0, 1), maxval, key), args.out_watermark)
    return 0


def cmd_attack(args) -> int:
    samples, maxval = _read_samples(args.image)
    if args.crop is None:
        out = _compressor(samples, maxval)(args.compress_t)
    else:  # the bytes write_image(crop(img, rect, fill)) writes
        out = _to_8bit(samples, maxval)
        rows, cols = args.crop.window(samples.shape[1], samples.shape[0])
        out[rows, cols] = _encode_samples(np.array([args.fill]), 255)
    _write_samples(args.out, 255, out)
    return 0


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed: expected an integer >= 0, got {args.seed}")
    host = synthesize_host(args.kind, size=args.size, seed=args.seed)
    write_image(host, args.out)
    return 0


def cmd_bench(args) -> int:
    _check_seed_flag(args.seed, len(args.hosts))
    wm = read_watermark(args.watermark)
    rows: list[BenchRow] = []
    for index, path in enumerate(args.hosts):
        # host i embeds with seed + i, so a pinned seed gives byte-identical runs
        seed = args.seed + index if args.seed is not None else secrets.randbits(64)
        rows.extend(_bench_host(path, wm, args.thresholds, args.crops, seed, args.delta))
    sys.stdout.write((format_csv if args.format == "csv" else format_text)(rows))
    return 0


# ---------------------------------------------------------------------------
# bench


def _default_rects(width: int, height: int) -> list[CropRect]:
    # top-left quarter and centered quarter (half extent per axis)
    return [
        CropRect(0, 0, width // 2, height // 2),
        CropRect(width // 4, height // 4, width // 2, height // 2),
    ]


def _on_every_cpu(n: int, task) -> None:
    """Call ``task(i)`` for every i in range(n) on the calling thread and
    one worker thread per extra CPU, each taking the next i when it is free.
    Once a task raises, no task starts, and the error leaves when the
    running ones have ended.

    The calling thread does its share: each thread allocates from its own
    glibc heap, which keeps its high-water mark, so a worker in its place
    would only add one more heap's peak.  The workers are kept: a thread
    frees its heap after its join returns, so a new one may make another.
    """
    # imported here: it loads logging, 5 ms and 0.6 MiB that only bench and
    # attack --compress-t need
    from concurrent.futures import wait

    indices = iter(range(n))  # the GIL makes each next() on it atomic

    def drain():
        try:
            for i in indices:
                task(i)
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


@functools.cache
def _workers(count: int):
    """A pool of up to ``count`` threads, kept for the process."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(count)


def _bench_host(path, wm, thresholds, rects, host_seed, delta) -> list[BenchRow]:
    """One host's rows, in scenario order: clean, each threshold, each crop.

    A crop row's sums are the clean row's less its rectangle's, which fill
    0 sets to 0.  The channel analyses, then the rows, are computed on
    every CPU the process may use; each row is stored at its own index, so
    neither the bytes nor the order depend on them.
    """
    def failed(scenario: str, param: str) -> BenchRow:
        return BenchRow(path, scenario, param, _FAILED, _FAILED, _FAILED, _FAILED)

    try:
        host, maxval = _read_host(path)
        # bench rows describe the file pipeline: the 8-bit file embed writes
        top, below, key, host_sums, clean = _embed_8bit(host, maxval, wm, host_seed, delta)
        marked = np.concatenate((top, below))
    except (WavemarkError, ValueError, OSError):
        return [failed("embed", "-")]
    height, width = host.shape[:2]
    compress = _compressor(marked, 255)

    def compressed(t):
        out = compress(t)
        return out, _output_sums(host, out)

    def cropped(rect):
        rows, cols = rect.window(width, height)
        # extraction reads the band alone, and the rectangle's samples read 0
        attacked = top.copy()
        attacked[rows, cols] = 0
        cut = _output_sums(host[rows, cols], marked[rows, cols])
        return attacked, tuple(c - k for c, k in zip(clean, cut))

    # (scenario, param label, attack): the attack gets the parsed value,
    # never its label read back; it returns what extraction reads, and sums
    scenarios = [("clean", "-", lambda: (marked, clean))]
    scenarios += [("compress", f"{t:g}", lambda t=t: compressed(t)) for t in thresholds]
    host_rects = rects if rects is not None else _default_rects(width, height)
    scenarios += [
        ("crop", f"{r.x},{r.y},{r.w},{r.h}", lambda r=r: cropped(r)) for r in host_rects
    ]

    rows = [None] * len(scenarios)

    def run(i: int) -> None:
        scenario, param, attack = scenarios[i]
        try:
            attacked, sums = attack()
            recovered = _extract_band(attacked.transpose(2, 0, 1), 255, key)
            psnr_db, r = _psnr_pearson(host.size, maxval, host_sums, sums)
            rows[i] = BenchRow(path, scenario, param, f"{psnr_db:.4f}", f"{r:.6f}",
                               f"{nc(wm, recovered):.6f}", f"{ber(wm, recovered):.4f}")
        except (WavemarkError, ValueError, OSError):
            rows[i] = failed(scenario, param)

    _on_every_cpu(len(scenarios), run)
    return rows


def format_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_CSV_HEADER, *rows])
    return buf.getvalue()


def format_text(rows) -> str:
    table = [_CSV_HEADER, *rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(_CSV_HEADER))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises UsageError for ``main`` to print as one line; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message.removeprefix("argument "))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavemark",
        description="Blind LL3-subband image watermarking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a watermark into a host image")
    p.add_argument("host", help="host image (colour PPM)")
    p.add_argument("watermark", help="watermark (PBM or PGM)")
    p.add_argument("out_image", help="output watermarked image (PPM)")
    p.add_argument("out_key", help="output key file")
    p.add_argument("--seed", type=int, default=None, help="64-bit key seed (default: random)")
    p.add_argument("--delta", type=_flag(float, _check_delta), default=DEFAULT_DELTA, help="quantization step (default 1/16, in [2**-19, 128))")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover a watermark using its key")
    p.add_argument("image", help="watermarked (possibly attacked) image")
    p.add_argument("key", help="key file written by embed")
    p.add_argument("out_watermark", help="output recovered mark (PBM)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("attack", help="apply one attack to an image")
    p.add_argument("image", help="input image")
    p.add_argument("out", help="output attacked image")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--compress-t", type=_flag(float, _check_threshold), metavar="T",
                     help="wavelet-compression threshold on the 0-255 scale")
    one.add_argument("--crop", type=_flag(_parse_rect), metavar="X,Y,W,H",
                     help="blank the given rectangle")
    p.add_argument("--fill", type=_flag(float, _check_fill), default=0.0,
                   help="fill value for --crop (default 0 = black)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="robustness benchmark over hosts")
    p.add_argument("hosts", nargs="+", help="host images")
    p.add_argument("watermark", help="watermark (PBM or PGM)")
    p.add_argument("--thresholds", type=_items(_flag(float, _check_threshold), ","),
                   default="3,5,7",
                   help="comma-separated compression thresholds (default 3,5,7)")
    p.add_argument("--crops", type=_items(_flag(_parse_rect), ";"), metavar="X,Y,W,H;...",
                   help="semicolon-separated crop rectangles "
                        "(default: top-left and centered quarters)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--seed", type=int, default=None,
                   help="pin seeds for reproducible output (host i uses seed+i)")
    p.add_argument("--delta", type=_flag(float, _check_delta), default=DEFAULT_DELTA)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="write a deterministic synthetic host")
    p.add_argument("out", help="output image (PPM)")
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--kind", choices=KINDS, default="gradient")
    p.add_argument("--seed", type=int, default=0, help="seed for --kind noise")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:  # ValueError: an argument a library check rejected
        return _fail("usage", exc, 2)
    except FormatError as exc:
        return _fail("format", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 3)
    except CapacityError as exc:
        return _fail("capacity", exc, 4)
    except DimensionError as exc:
        return _fail("dimension", exc, 4)


def _fail(category: str, exc: Exception, code: int) -> int:
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
