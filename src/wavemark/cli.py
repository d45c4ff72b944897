"""Command-line front end: argv in, an exit code out.

Subcommands wire the pipeline end to end: ``synth`` makes a host,
``embed`` watermarks it, ``attack`` degrades it, ``extract`` recovers the
mark, and ``bench`` prints the robustness table that :mod:`wavemark.bench`
builds.  argparse checks each flag whose rule the library owns with the
library's check.

Errors leave via a one-line machine-parsable ``error: <category>:
<detail>`` on stderr, argparse's rejections too: ``main`` returns 2 for
them, not ``SystemExit``.  Exit codes: 0 success, 2 usage, 3 data/format,
4 capacity/dimension/memory.
"""

import argparse
import secrets
import sys

import numpy as np

from .attacks import CropRect, _check_fill
from .bench import BenchRow, _bench_host, _cells, _compressor, _embed_8bit, _read_host
from .bench import format_csv, format_text
from .errors import CapacityError, DimensionError, FormatError, UsageError
from .image_io import (
    _encode_samples,
    _open_output,
    _read_samples,
    _to_8bit,
    _write_all,
    _write_samples,
    read_watermark,
    write_image,
    write_watermark,
)
from .metrics import _psnr_pearson
from .synth import KINDS, synthesize_host
from .watermark import DEFAULT_DELTA, _check_delta, _extract_band, _key_bytes, _mark_band, load_key
from .wavelet import _check_threshold

__all__ = ["main"]


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


def _check_seed_flag(seed, hosts: int) -> None:
    """Host i embeds with seed + i, which must stay an unsigned 64-bit integer."""
    if seed is not None and not 0 <= seed <= 2**64 - hosts:
        raise UsageError(f"--seed: must lie in [0, {2**64 - hosts}] for {hosts} host(s), got {seed}")


def cmd_embed(args) -> int:
    _check_seed_flag(args.seed, 1)
    host, maxval = _read_host(args.host)
    wm = read_watermark(args.watermark)
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    top, below, key, host_sums, sums = _embed_8bit(host, maxval, wm, seed, args.delta)
    # both outputs are opened, and neither truncated, before either is
    # written: a path that cannot be opened leaves an earlier pair as it was.
    # The image is written and cut to its length before the key, so one path
    # named twice ends up holding the key.
    with _open_output(args.out_image) as image, _open_output(args.out_key) as key_file:
        _write_samples(image, 255, top, below)
        _write_all(key_file, _key_bytes(key))
    row = BenchRow(args.host, "embed", "-", *_psnr_pearson(host.size, maxval, host_sums, sums))
    print("psnr_db={} pearson={}".format(*_cells(row)[3:5]))
    return 0


def cmd_extract(args) -> int:
    key = None

    def band(height, width):  # the key is read once the image has passed its checks
        nonlocal key
        key = load_key(args.key)
        return _mark_band(height, width, key.n)

    image, maxval = _read_host(args.image, band)
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
    with _open_output(args.out) as fh:
        _write_samples(fh, 255, out)
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
    except MemoryError as exc:  # an input too large for the memory there is
        return _fail("memory", exc, 4)


def _fail(category: str, exc: Exception, code: int) -> int:
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
