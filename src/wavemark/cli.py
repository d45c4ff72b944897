"""Command-line front end.

Subcommands wire the pipeline end to end: ``synth`` makes a host,
``embed`` watermarks it, ``attack`` degrades it, ``extract`` recovers the
mark, and ``bench`` runs the whole robustness table (clean, compression
thresholds, crops) over one or more hosts.

Every subcommand but ``synth`` keeps the image as its file's integer
samples.  ``embed`` and ``extract`` turn only the mark's band of rows into
floats for the library ``embed`` or ``extract``.  ``embed`` and ``attack``
always write maxval 255; ``embed`` copies the host's rows below the band,
or requantizes them when its maxval is not 255.  ``attack`` and ``bench``
share one compression, which decomposes one float plane at a time and
encodes each synthesis plane as a write would, and one crop, which blanks
its rectangle in the 8-bit samples; ``bench`` runs each scenario on the
file ``embed`` writes.  The report line and every bench row's PSNR and
Pearson come from exact integer sums; a constant image's undefined
Pearson reads ``nan``.  A host's rows are computed on the CPUs the process
may use, with the same bytes and in the same order as on one.

Errors leave via a one-line machine-parsable ``error: <category>:
<detail>`` on stderr.  Exit codes: 0 success, 2 usage, 3 data/format,
4 capacity/dimension.
"""

import argparse
import csv
import io
import os
import secrets
import sys
from typing import NamedTuple

import numpy as np

from .attacks import CropRect, wavelet_compressor
from .errors import CapacityError, DimensionError, FormatError, WavemarkError
from .image_io import (
    _encode_samples,
    _file_samples,
    _read_samples,
    _to_8bit,
    _to_image,
    _write_samples,
    read_watermark,
    write_image,
    write_watermark,
)
from .metrics import _written_metrics, ber, nc
from .synth import KINDS, synthesize_host
from .watermark import (
    DEFAULT_DELTA,
    DEFAULT_LEVELS,
    _check_delta,
    _mark_band,
    embed,
    extract,
    load_key,
    save_key,
)

__all__ = ["main"]

_FAILED = "FAILED"


class UsageError(WavemarkError):
    """Bad command-line input (both attacks selected, malformed rect, ...)."""


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


def _fresh_seed() -> int:
    return secrets.randbits(64)


def _parse_rect(flag: str, text: str) -> CropRect:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"{flag}: crop rectangle must be x,y,w,h, got {text!r}")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"{flag}: crop rectangle must be four integers, got {text!r}") from None
    try:
        return CropRect(x=x, y=y, w=w, h=h)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_thresholds(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        values = []
    # written so that NaN, which fails every comparison, is rejected too
    if not values or not all(v >= 0 for v in values):
        raise UsageError(f"--thresholds: expected comma-separated numbers >= 0, got {text!r}")
    return values


def _read_host(path):
    """A colour host's integer samples, shaped (height, width, 3), and its
    maxval: the mark lives in the luma of its JPEG-YCbCr."""
    samples, maxval = _read_samples(path)
    if samples.shape[2] != 3:
        raise FormatError(f"{path}: host must be a colour PPM (P3/P6), got a grayscale image")
    return samples, maxval


def _check_delta_flag(delta: float) -> None:
    try:
        _check_delta(delta, DEFAULT_LEVELS)
    except ValueError as exc:
        raise UsageError(f"--delta: {exc}") from None


def _check_seed_flag(seed, hosts: int) -> None:
    """Host i embeds with seed + i, which must stay an unsigned 64-bit integer."""
    if seed is not None and not 0 <= seed <= 2**64 - hosts:
        raise UsageError(f"--seed: must lie in [0, {2**64 - hosts}] for {hosts} host(s), got {seed}")


def _embed_8bit(host, maxval, wm, seed, delta):
    """The 8-bit samples ``embed`` writes for a host's integer samples,
    shaped like them, and the key."""
    band = _mark_band(*host.shape[:2], DEFAULT_LEVELS, wm.size)
    # the band is its own mark band, so this is the library embed
    marked, key = embed(_to_image(host[:band], maxval), wm, seed=seed, delta=delta)
    out = _to_8bit(host, maxval)
    out[:band] = _file_samples(marked.data, 255)
    return out, key


def _extract_samples(samples, maxval, key):
    """The library ``extract`` of ``samples / maxval``, from the mark's band
    of rows alone."""
    band = _mark_band(*samples.shape[:2], key.levels, key.offset + key.n)
    return extract(_to_image(samples[:band], maxval), key)


def _compressor(samples, maxval):
    """``t -> `` the 8-bit samples ``write_image(wavelet_compress(img, t))``
    writes for ``img = samples / maxval``, made one float plane at a time."""
    compress = wavelet_compressor(plane / maxval for plane in samples.transpose(2, 0, 1))
    return lambda t: _file_samples(compress(t), 255)


def _cropped(samples, rect, fill):
    """A copy of 8-bit samples with ``rect`` blanked: the bytes
    ``write_image(crop(img, rect, fill))`` writes for ``img = samples / 255``."""
    rows, cols = rect.window(samples.shape[1], samples.shape[0])
    out = samples.copy()
    out[rows, cols] = _encode_samples(np.array([fill]), 255)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_embed(args) -> int:
    _check_delta_flag(args.delta)
    _check_seed_flag(args.seed, 1)
    host, maxval = _read_host(args.host)
    wm = read_watermark(args.watermark)
    seed = args.seed if args.seed is not None else _fresh_seed()
    out, key = _embed_8bit(host, maxval, wm, seed, args.delta)
    _write_samples(args.out_image, out, 255)
    save_key(key, args.out_key)
    psnr_db, r = _written_metrics(host, maxval, out)
    print(f"psnr_db={psnr_db:.4f} pearson={r:.6f}")
    return 0


def cmd_extract(args) -> int:
    image, maxval = _read_host(args.image)
    key = load_key(args.key)
    write_watermark(_extract_samples(image, maxval, key), args.out_watermark)
    return 0


def cmd_attack(args) -> int:
    if (args.compress_t is None) == (args.crop is None):
        raise UsageError("exactly one of --compress-t or --crop is required")
    # written so that NaN, which fails every comparison, is rejected too
    if args.compress_t is not None and not args.compress_t >= 0:
        raise UsageError(f"--compress-t: expected a number >= 0, got {args.compress_t}")
    if not 0 <= args.fill <= 1:
        raise UsageError(f"--fill: expected a number in [0, 1], got {args.fill}")
    rect = None if args.crop is None else _parse_rect("--crop", args.crop)
    samples, maxval = _read_samples(args.image)
    if rect is None:
        out = _compressor(samples, maxval)(args.compress_t)
    else:
        out = _cropped(_to_8bit(samples, maxval), rect, args.fill)
    _write_samples(args.out, out, 255)
    return 0


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed: expected an integer >= 0, got {args.seed}")
    host = synthesize_host(args.kind, size=args.size, seed=args.seed)
    write_image(host, args.out)
    return 0


def cmd_bench(args) -> int:
    thresholds = _parse_thresholds(args.thresholds)
    rects = None
    if args.crops is not None:
        rects = [_parse_rect("--crops", part) for part in args.crops.split(";") if part]
        if not rects:
            raise UsageError("--crops must name at least one rectangle")
    _check_delta_flag(args.delta)
    _check_seed_flag(args.seed, len(args.hosts))
    wm = read_watermark(args.watermark)
    rows: list[BenchRow] = []
    for index, path in enumerate(args.hosts):
        # host i embeds with seed + i, so a pinned seed gives byte-identical runs
        seed = args.seed + index if args.seed is not None else _fresh_seed()
        rows.extend(_bench_host(path, wm, thresholds, rects, seed, args.delta))
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

    The calling thread does its share: each thread allocates from its own
    glibc heap, which keeps its high-water mark, so a worker in its place
    would only add one more heap's peak.
    """
    # imported here: it loads logging, 5 ms and 0.6 MiB that no other
    # subcommand needs
    from concurrent.futures import ThreadPoolExecutor

    indices = iter(range(n))  # the GIL makes each next() on it atomic

    def drain():
        for i in indices:
            task(i)

    try:
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    extra = min(cpus, n) - 1
    # a pool starts a thread per submit, so with one CPU none starts
    with ThreadPoolExecutor(max(extra, 1)) as pool:
        workers = [pool.submit(drain) for _ in range(extra)]
        drain()
    for worker in workers:
        worker.result()


def _bench_host(path, wm, thresholds, rects, host_seed, delta) -> list[BenchRow]:
    """One host's rows, in scenario order: clean, each threshold, each crop.

    The rows are computed on every CPU the process may use; each stores its
    row at its own index, so neither the bytes nor the order depend on them.
    """
    def failed(scenario: str, param: str) -> BenchRow:
        return BenchRow(path, scenario, param, _FAILED, _FAILED, _FAILED, _FAILED)

    try:
        host, maxval = _read_host(path)
        # bench rows describe the file pipeline: the 8-bit file embed writes
        marked, key = _embed_8bit(host, maxval, wm, host_seed, delta)
    except (WavemarkError, ValueError, OSError):
        return [failed("embed", "-")]
    height, width = host.shape[:2]

    # (scenario, param label, attack): the attack gets the parsed value,
    # never its label read back
    compress = _compressor(marked, 255)
    scenarios = [("clean", "-", lambda: marked)]
    scenarios += [("compress", f"{t:g}", lambda t=t: compress(t)) for t in thresholds]
    host_rects = rects if rects is not None else _default_rects(width, height)
    scenarios += [
        ("crop", f"{r.x},{r.y},{r.w},{r.h}", lambda r=r: _cropped(marked, r, 0.0))
        for r in host_rects
    ]

    rows = [None] * len(scenarios)

    def run(i: int) -> None:
        scenario, param, attack = scenarios[i]
        try:
            attacked = attack()
            recovered = _extract_samples(attacked, 255, key)
            psnr_db, r = _written_metrics(host, maxval, attacked)
            rows[i] = BenchRow(path, scenario, param, f"{psnr_db:.4f}", f"{r:.6f}",
                               f"{nc(wm, recovered):.6f}", f"{ber(wm, recovered):.4f}")
        except (WavemarkError, ValueError, OSError):
            rows[i] = failed(scenario, param)

    _on_every_cpu(len(scenarios), run)
    return rows


def format_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for row in rows:
        writer.writerow(row)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="quantization step (default 1/16, in [2**-19, 128))")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover a watermark using its key")
    p.add_argument("image", help="watermarked (possibly attacked) image")
    p.add_argument("key", help="key file written by embed")
    p.add_argument("out_watermark", help="output recovered mark (PBM)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("attack", help="apply one attack to an image")
    p.add_argument("image", help="input image")
    p.add_argument("out", help="output attacked image")
    p.add_argument("--compress-t", type=float, default=None, metavar="T",
                   help="wavelet-compression threshold on the 0-255 scale")
    p.add_argument("--crop", default=None, metavar="X,Y,W,H",
                   help="blank the given rectangle")
    p.add_argument("--fill", type=float, default=0.0,
                   help="fill value for --crop (default 0 = black)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="robustness benchmark over hosts")
    p.add_argument("hosts", nargs="+", help="host images")
    p.add_argument("watermark", help="watermark (PBM or PGM)")
    p.add_argument("--thresholds", default="3,5,7",
                   help="comma-separated compression thresholds (default 3,5,7)")
    p.add_argument("--crops", default=None, metavar="X,Y,W,H;...",
                   help="semicolon-separated crop rectangles "
                        "(default: top-left and centered quarters)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--seed", type=int, default=None,
                   help="pin seeds for reproducible output (host i uses seed+i)")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="write a deterministic synthetic host")
    p.add_argument("out", help="output image (PPM)")
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--kind", choices=KINDS, default="gradient")
    p.add_argument("--seed", type=int, default=0, help="seed for --kind noise")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail("usage", exc, 2)
    except FormatError as exc:
        return _fail("format", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 3)
    except CapacityError as exc:
        return _fail("capacity", exc, 4)
    except DimensionError as exc:
        return _fail("dimension", exc, 4)
    except ValueError as exc:
        return _fail("usage", exc, 2)


def _fail(category: str, exc: Exception, code: int) -> int:
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
