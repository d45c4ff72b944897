"""Netpbm image I/O and the in-memory raster types.

Supported containers are the portable formats only: PGM (P2/P5) for
grayscale, PPM (P3/P6) for color, PBM (P1/P4) for binary watermarks.
The header is ``magic width height maxval`` (PBM has no maxval) in
decimal-digit tokens; ``#`` starts a comment that runs to the end of its
line, allowed between any two tokens of the header or an ASCII raster.
ASCII samples are decimal digits between whitespace, except that P1
digits may run together.  P2/P3 rasters are parsed by numpy arithmetic in
blocks of whole tokens, exactly: a token of any length above maxval is
rejected.  Content after the last sample is ignored.
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
_NOT_DIGIT = re.compile(rb"[^0-9]")
_WHITESPACE = b" \t\r\n\v\f"
_DIGITS_WS = b"0123456789" + _WHITESPACE
# the largest width or height a file may declare
_MAX_SIDE = 1 << 30
# bytes per ASCII raster block, whose temporaries stay in cache unlike a whole body's
_TEXT_BLOCK = 1 << 16


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

    if magic in (b"P1", b"P2", b"P3"):
        body = memoryview(data)[pos:]
        if data.find(b"#", pos) >= 0:  # the body is copied only to drop comments
            body = _COMMENT.sub(b"", body)
        if magic == b"P1":
            # bits may run together; any byte but 0 or 1 lands above maxval
            samples = np.frombuffer(bytes(body).translate(None, _WHITESPACE), np.uint8) - ord("0")
        else:
            samples = _decimal_samples(body, maxval, count, path)
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
        raise FormatError(f"{path}: truncated payload, file ends before sample {samples.size} of {count}")
    samples = samples[:count]
    if maxval < np.iinfo(samples.dtype).max and samples.max() > maxval:  # else none can exceed it
        first = int(np.argmax(samples > maxval))
        raise FormatError(f"{path}: sample {first} of {count} exceeds maxval {maxval}")
    # file order is row-major, channels interleaved per pixel
    return samples.reshape(height, padded, channels)[:, :width], maxval


def _decimal_samples(body, maxval: int, count: int, path) -> np.ndarray:
    """Up to ``count`` decimal integers of bytes-like ``body`` of ``path``, as
    uint16 (uint32 at a five-digit maxval); a token above maxval reads above it,
    and one with a byte that is neither a digit nor whitespace raises FormatError.
    Blocks of about _TEXT_BLOCK bytes end after a non-digit: no token spans two."""
    width = len(str(maxval))
    dtype = np.uint32 if width == 5 else np.uint16
    data = np.frombuffer(body, np.uint8)
    # sized by the body, whose tokens but the last each end at a separator byte
    out = np.empty(min(count, (len(body) + 1) // 2), dtype)
    n = start = 0
    while start < len(body) and n < len(out):
        cut = _NOT_DIGIT.search(body, start + _TEXT_BLOCK)
        stop = end = cut.end() if cut else len(body)
        text = bytes(body[start:stop])
        if text.translate(None, _DIGITS_WS):  # a tenth of the search's time
            bad = _NOT_DIGIT_OR_SPACE.search(text).start()
            end = start + max(text.rfind(space, 0, bad) + 1 for space in _WHITESPACE)
        samples = _block_samples(data[start:end], width, maxval, dtype)[:len(out) - n]
        out[n:n + len(samples)] = samples
        n += len(samples)
        if end < stop and n < count:  # the bad token comes before the last sample
            token = _TOKEN.match(body, end)[1]
            raise FormatError(f"{path}: sample {n} of {count}: expected a decimal integer, got {token!r}")
        start = stop
    return out[:n]


def _block_samples(block: np.ndarray, width: int, maxval: int, dtype) -> np.ndarray:
    """The tokens of a block that starts at a token's first digit or at whitespace."""
    z = block - np.uint8(ord("0"))
    digit = z < 10
    z *= digit
    # run[i], i >= k: bytes i-k..i are all digits; values[i]: the last k + 1
    # digits of the run that ends at byte i, at their place values
    run, values = digit.copy(), z.astype(dtype)
    for k in range(1, width + 1):
        run[k:] &= digit[:-k]
        if k < width:
            values[k:] += z[:-k] * run[k:] * dtype(10**k)
    ends = np.flatnonzero(digit > np.append(digit[1:], False))
    samples = values[ends]
    # a nonzero digit `width` places or more before its token's end
    above = np.flatnonzero(run[width:] & (z[:-width] != 0)) + width
    if above.size:
        samples[np.searchsorted(ends, above)] = maxval + 1
    return samples


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
    sample = np.uint8 if maxval == 255 else ">u2"  # 16-bit: MSB first
    out = np.empty((img.height, img.width, img.channels), sample)
    samples = _file_samples((plane.copy() for plane in img.data), maxval, out)
    with open(path, "wb") as fh:
        _write_samples(fh, maxval, samples)
    return _to_image(samples, maxval)


def _file_samples(planes, maxval: int, out: np.ndarray) -> np.ndarray:
    """``out``, a (height, width, channels) array of the file's sample type,
    with the samples :func:`write_image` writes for plane c in ``out[..., c]``.
    Each (height, width) plane is encoded into itself, so the caller hands
    over planes it is done with; a generator may make each after the last."""
    # not enumerate: the result tuple it reuses would hold each plane too long
    channels = iter(range(out.shape[2]))
    for plane in planes:
        out[..., next(channels)] = _encode_samples(plane, maxval, out=plane)
        del plane  # before the next plane is made
    return out


def _write_samples(fh, maxval: int, *rows: np.ndarray) -> None:
    """Write C-contiguous (height, width, channels) blocks of the file's sample
    type, top to bottom, to the binary file ``fh`` as one binary PGM (1
    channel) or PPM (3 channels)."""
    _, width, channels = rows[0].shape
    magic = b"P5" if channels == 1 else b"P6"
    fh.write(b"%s\n%d %d\n%d\n" % (magic, width, sum(len(r) for r in rows), maxval))
    fh.writelines(rows)


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
