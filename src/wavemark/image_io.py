"""Netpbm image I/O and the in-memory raster types.

Supported containers are the portable formats only: PGM (P2/P5) for
grayscale, PPM (P3/P6) for color, PBM (P1/P4) for binary watermarks.
The header is ``magic width height maxval`` (PBM has no maxval) in
decimal-digit tokens; ``#`` starts a comment that runs to the end of its
line, allowed between any two tokens of the header or an ASCII raster.
ASCII samples are decimal digits between whitespace, except that P1
digits may run together.  Content after the last sample is ignored.
Exactly one whitespace byte precedes a binary payload.

Samples are held as floats in [0, 1], one C-contiguous (height, width)
plane per channel; a file sample ``v`` with maximum value ``maxval`` maps
to ``v / maxval``.  Writing uses
round-half-away-from-zero (see :func:`round_half_away`), the one rounding
rule used throughout the toolkit.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

__all__ = [
    "PlanarImage",
    "BitMatrix",
    "round_half_away",
    "read_image",
    "write_image",
    "read_watermark",
    "write_watermark",
    "quantize",
]


def round_half_away(x):
    """Round to nearest integer, ties away from zero.

    ``np.round`` rounds half to even, which would make quantizer bin
    edges implementation-dependent; every rounding step in the toolkit
    goes through this helper instead.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class PlanarImage:
    """A width x height raster with 1 or 3 float channels in [0, 1].

    ``data`` has shape (channels, height, width), dtype float64.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] not in (1, 3):
            raise ValueError(
                f"image data must have shape (1|3, height, width), got {arr.shape}"
            )
        # written so that NaN, which fails every comparison, is rejected too
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("image samples must be finite and lie in [0, 1]")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix of {0, 1} bits (the watermark payload)."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValueError(f"bit matrix must be 2-D, got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("bit matrix entries must be 0 or 1")
        object.__setattr__(self, "bits", arr.astype(np.uint8))

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @property
    def size(self) -> int:
        return self.bits.size


# separators and "#" comments, then one header token
_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\r\n]*)*([^ \t\r\n\v\f#]*)")
_COMMENT = re.compile(rb"#[^\r\n]*")
_NOT_DIGIT_OR_SPACE = re.compile(rb"[^0-9 \t\r\n\v\f]")
_WHITESPACE = b" \t\r\n\v\f"
# the largest width or height a file may declare, and a synthesis may make
_MAX_SIDE = 1 << 30


def _header_int(data: bytes, pos: int, path, name: str, hi: int) -> tuple[int, int]:
    """The header integer at ``pos``, in [1, hi], and the offset after it."""
    m = _TOKEN.match(data, pos)
    token = m[1]
    digits = token.lstrip(b"0") or b"0"
    # more than 10 significant digits is out of range for every field
    if not token.isdigit() or len(digits) > 10 or not 1 <= int(digits) <= hi:
        raise FormatError(
            f"{path}: byte {m.start(1)}: expected {name} in [1, {hi}], got {token!r}"
        )
    return int(digits), m.end()


def _decode(path, magics: tuple[bytes, ...]) -> tuple[np.ndarray, int]:
    """Integer samples of a Netpbm file, shaped (height, width, channels), and
    its maxval; PBM reads as maxval 1.

    Every array is sized by the payload bytes, never by the header's
    dimensions, so a file that claims more samples than it holds is rejected
    before anything of that size is allocated.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    m = _TOKEN.match(data)
    magic = m[1]
    if magic not in magics:
        raise FormatError(
            f"{path}: byte {m.start(1)}: unsupported magic {magic!r}, expected one of {magics}"
        )
    width, pos = _header_int(data, m.end(), path, "width", _MAX_SIDE)
    height, pos = _header_int(data, pos, path, "height", _MAX_SIDE)
    maxval = 1
    if magic not in (b"P1", b"P4"):
        maxval, pos = _header_int(data, pos, path, "maxval", 65535)
    channels = 3 if magic in (b"P3", b"P6") else 1
    # P4 pads each row to a whole byte; the pad bits are decoded, then dropped
    padded = (width + 7) // 8 * 8 if magic == b"P4" else width
    count = height * padded * channels

    bad_token = None
    if magic in (b"P1", b"P2", b"P3"):
        body = _COMMENT.sub(b"", data[pos:])
        if magic == b"P1":
            # bits may run together; any byte but 0 or 1 lands above maxval
            samples = np.frombuffer(body.translate(None, _WHITESPACE), np.uint8) - ord("0")
        else:
            # the samples before the first byte that is neither a digit nor
            # whitespace, less the partial token that byte belongs to
            bad = _NOT_DIGIT_OR_SPACE.search(body)
            clean = body if bad is None else body[: bad.start()].rstrip(b"0123456789")
            if bad is not None:
                bad_token = _TOKEN.match(body, len(clean))[1]
            # np.fromstring reads a blank string as one 0
            samples = np.fromstring(b"" if clean.isspace() else clean, np.int64, sep=" ")
    else:
        # exactly one whitespace byte separates the header from raster data
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise FormatError(f"{path}: byte {pos}: expected whitespace before binary payload")
        pos += 1
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")  # 16-bit: MSB first
        fit = (len(data) - pos) // dtype.itemsize
        if magic == b"P4":  # rows packed MSB-first, 8 samples to a byte
            samples = np.unpackbits(np.frombuffer(data, dtype, min(count // 8, fit), pos))
        else:
            samples = np.frombuffer(data, dtype, min(count, fit), pos)

    if samples.size < count:
        where = f"sample {samples.size} of {count}"
        if bad_token is not None:
            raise FormatError(f"{path}: {where}: expected a decimal integer, got {bad_token!r}")
        raise FormatError(f"{path}: truncated payload, file ends before {where}")
    samples = samples[:count]
    if samples.max() > maxval:
        first = int(np.argmax(samples > maxval))
        raise FormatError(f"{path}: sample {first} of {count} exceeds maxval {maxval}")
    # file order is row-major, channels interleaved per pixel
    return samples.reshape(height, padded, channels)[:, :width], maxval


def read_image(path) -> PlanarImage:
    """Read a PGM (P2/P5) or PPM (P3/P6) file into a unit-range raster."""
    return _to_image(*_read_samples(path))


def _read_samples(path) -> tuple[np.ndarray, int]:
    """The integer samples of a PGM or PPM file, shaped (height, width,
    channels), and its maxval."""
    return _decode(path, (b"P2", b"P5", b"P3", b"P6"))


def _to_image(samples: np.ndarray, maxval: int) -> PlanarImage:
    """(height, width, channels) integer samples as a raster of
    ``samples / maxval``."""
    return PlanarImage(np.divide(samples.transpose(2, 0, 1), maxval, order="C"))


def write_image(img: PlanarImage, path, maxval: int = 255) -> PlanarImage:
    """Write a raster as binary PGM (1 channel) or PPM (3 channels), and
    return it as it reads back, which is ``quantize(img, maxval)``.

    Samples are encoded as ``round(s * maxval)`` with ties away from zero,
    clamped to [0, maxval].
    """
    if maxval not in (255, 65535):
        raise ValueError(f"maxval must be 255 or 65535, got {maxval}")
    samples = _file_samples((plane.copy() for plane in img.data), maxval)
    _write_samples(path, samples, maxval)
    return _to_image(samples, maxval)


def _file_samples(planes, maxval: int) -> np.ndarray:
    """The samples :func:`write_image` writes for (height, width) planes,
    one per channel, interleaved to (height, width, channels) in the
    file's sample type.  Each plane is encoded into itself, so the caller
    hands over planes it is done with.  The planes are taken in turn, so a
    generator may make each one after the last is encoded."""
    sample = np.dtype(np.uint8 if maxval == 255 else ">u2")  # 16-bit: MSB first
    ints = []
    for plane in planes:
        ints.append(_encode_samples(plane, maxval, out=plane).astype(sample))
        del plane  # before the next plane is made
    return np.stack(ints, axis=-1, dtype=sample)


def _write_samples(path, samples: np.ndarray, maxval: int) -> None:
    """Write C-contiguous (height, width, channels) samples, already of the
    file's sample type, as binary PGM (1 channel) or PPM (3 channels)."""
    height, width, channels = samples.shape
    magic = b"P5" if channels == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n%d\n" % (magic, width, height, maxval))
        fh.write(samples)


def _encode_samples(arr: np.ndarray, maxval: int, out: np.ndarray | None = None) -> np.ndarray:
    """File samples, as integral floats, written to ``out`` when given.  For
    ``v >= 0``, :func:`round_half_away` is ``floor(v + 0.5)``; below 0 the
    clamp sends both to 0.  The clamp gives what clipping ``arr`` to [0, 1]
    first would."""
    out = np.multiply(arr, float(maxval), out=out)
    out += 0.5
    np.floor(out, out=out)
    return np.clip(out, 0.0, maxval, out=out)


def _to_8bit(samples: np.ndarray, maxval: int) -> np.ndarray:
    """A new uint8 array of the bytes :func:`write_image` writes for
    ``samples / maxval``."""
    if maxval == 255:  # the encoding is the identity on the 255 grid
        return samples.astype(np.uint8)
    # the float path's operations on the same values, once per level
    lut = _encode_samples(np.arange(maxval + 1) / maxval, 255).astype(np.uint8)
    return lut[samples]


def quantize(img: PlanarImage, maxval: int = 255) -> PlanarImage:
    """Snap samples to the ``maxval`` grid, as a write/read cycle would."""
    ints = _encode_samples(img.data, maxval)
    return PlanarImage(np.divide(ints, float(maxval), out=ints))


def read_watermark(path) -> BitMatrix:
    """Read a watermark from a PBM (P1/P4) or PGM (P2/P5) file.

    Samples are binarized at 0.5 after division by maxval, so PBM bits are
    taken directly (1 = ink/black) and near-binary PGM scans work.
    """
    samples, maxval = _decode(path, (b"P1", b"P4", b"P2", b"P5"))
    return BitMatrix(samples[:, :, 0] / maxval >= 0.5)


def write_watermark(wm: BitMatrix, path) -> None:
    """Write a bit matrix as binary PBM (P4), 1 = ink/black."""
    packed = np.packbits(wm.bits, axis=1)
    header = b"P4\n%d %d\n" % (wm.cols, wm.rows)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())
