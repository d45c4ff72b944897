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
Exactly one whitespace byte precedes a binary payload.  A read may ask for
the top rows alone: then a binary file is read for its header, its length
is checked against the header, and only those rows are read and checked.

Every output is opened by :func:`_open_output`, which creates the path
or opens it without truncating it; :func:`_write_all` writes from offset 0,
truncates the file at the end of what it wrote, and writes the header last,
so an existing output is rewritten in the disk blocks it has and one cut
short reads as no Netpbm file.

Samples are held as floats in [0, 1], one C-contiguous (height, width)
plane per channel; a file sample ``v`` with maximum value ``maxval`` maps
to ``v / maxval``.  Writing uses
round-half-away-from-zero (see :func:`round_half_away`), the one rounding
rule used throughout the toolkit.
"""

import os
import re
import stat
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
# bytes first read for a binary header; one that runs past them is decoded whole
_HEAD = 1 << 12
_RASTERS = (b"P2", b"P5", b"P3", b"P6")
# create, never truncate: see _open_output
_OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
# an output's first bytes until the rest of it is written: no magic a reader takes
_UNFINISHED = b"P0"


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


def _header(data: bytes, path, magics: tuple[bytes, ...]) -> tuple[bytes, int, int, int, int]:
    """The magic, width, height and maxval of the Netpbm header at the start
    of ``data``, and the offset after its last token; PBM reads as maxval 1."""
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
    return magic, width, height, maxval, pos


def _binary_payload(data: bytes, pos: int, maxval: int, path) -> tuple[int, np.dtype]:
    """The offset of the binary payload after the header that ends at ``pos``,
    and its sample type."""
    # exactly one whitespace byte separates the header from raster data
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError(f"{path}: byte {pos}: expected whitespace before binary payload")
    return pos + 1, np.dtype(np.uint8 if maxval < 256 else ">u2")  # 16-bit: MSB first


def _truncated(path, samples: int, count: int) -> FormatError:
    return FormatError(f"{path}: truncated payload, file ends before sample {samples} of {count}")


def _check_maxval(samples: np.ndarray, maxval: int, count: int, path) -> None:
    """Raise unless every sample, the first of the file's ``count``, is at
    most maxval."""
    if maxval < np.iinfo(samples.dtype).max and samples.max() > maxval:  # else none can exceed it
        first = int(np.argmax(samples > maxval))
        raise FormatError(f"{path}: sample {first} of {count} exceeds maxval {maxval}")


def _decode(path, magics: tuple[bytes, ...], band=lambda height, width, channels: height):
    """Integer samples of the rows [0, band(height, width, channels)) of a
    Netpbm file, shaped (rows, width, channels), and its maxval; PBM reads as
    maxval 1.

    ``band`` is called once the file has passed every check that reads no
    sample of those rows.  A P5 or P6 regular file is read for its header,
    measured by ``os.fstat`` against the samples the header promises, and
    then read for those rows alone, which alone are checked against maxval.
    Any other file (ASCII, P4, a pipe, or a header that does not end in its
    first _HEAD bytes) is decoded whole by :func:`_decode_bytes`.
    """
    with open(path, "rb", buffering=0) as fh:  # unbuffered: no byte is copied twice
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):  # a pipe, say: no length to check, no seek
            return _decode_bytes(fh.read(), path, magics, band)
        head = fh.read(_HEAD)
        try:
            magic, width, height, maxval, pos = _header(head, path, magics)
        except FormatError:  # raised again by the whole decode
            magic = None
        if magic not in (b"P5", b"P6") or pos >= len(head):
            fh.seek(0)
            return _decode_bytes(fh.read(), path, magics, band)
        start, dtype = _binary_payload(head, pos, maxval, path)
        channels = 3 if magic == b"P6" else 1
        count = height * width * channels
        fit = (st.st_size - start) // dtype.itemsize
        if fit < count:
            raise _truncated(path, fit, count)
        rows = band(height, width, channels)
        fh.seek(start)
        samples = np.fromfile(fh, dtype, rows * width * channels)
    if samples.size < rows * width * channels:  # the file shrank since fstat
        raise _truncated(path, samples.size, count)
    _check_maxval(samples, maxval, count, path)
    return samples.reshape(rows, width, channels), maxval


def _decode_bytes(data: bytes, path, magics: tuple[bytes, ...], band) -> tuple[np.ndarray, int]:
    """:func:`_decode` of all the bytes of the file ``path``.

    Every array is sized by the payload bytes, never by the header's
    dimensions, so a file that claims more samples than it holds is rejected
    before anything of that size is allocated.
    """
    magic, width, height, maxval, pos = _header(data, path, magics)
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
        pos, dtype = _binary_payload(data, pos, maxval, path)
        fit = (len(data) - pos) // dtype.itemsize
        if magic == b"P4":  # rows packed MSB-first, 8 samples to a byte
            samples = np.unpackbits(np.frombuffer(data, dtype, min(count // 8, fit), pos))
        else:
            samples = np.frombuffer(data, dtype, min(count, fit), pos)

    if samples.size < count:
        raise _truncated(path, samples.size, count)
    samples = samples[:count]
    _check_maxval(samples, maxval, count, path)
    # file order is row-major, channels interleaved per pixel
    rows = band(height, width, channels)
    return samples.reshape(height, padded, channels)[:rows, :width], maxval


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


def _read_samples(path, band=lambda height, width, channels: height) -> tuple[np.ndarray, int]:
    """The integer samples of the rows [0, band(height, width, channels)) of a
    PGM or PPM file, shaped (rows, width, channels), and its maxval, read as
    :func:`_decode` reads them."""
    return _decode(path, _RASTERS, band)


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
    with _open_output(path) as fh:
        _write_samples(fh, maxval, samples)
    return _to_image(samples, maxval)


def _open_output(path):
    """``path`` open for binary writing at offset 0, created if it is missing
    but not truncated: the writer ends the file after what it wrote with
    :func:`_write_all`.  An existing output is rewritten in place, in the disk
    blocks it already has, rather than freed and allocated again."""
    return open(os.open(path, _OUTPUT_FLAGS, 0o666), "wb")


def _write_all(fh, head: bytes, *chunks) -> None:
    """Write ``head`` and then bytes-like ``chunks`` to an
    :func:`_open_output` file.  A regular file is cut after them, and its
    first ``len(head)`` bytes read ``P0`` until the rest is written, so a
    write that fails part way leaves a file that no reader takes.  Any other
    file (a pipe, a terminal, /dev/null) can be neither cut nor rewritten,
    and is written straight through."""
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    fh.writelines((_UNFINISHED.ljust(len(head), b"\n") if regular else head, *chunks))
    if regular:
        fh.truncate()  # flushes, then cuts at the position the chunks reached
        fh.seek(0)
        fh.write(head)
    fh.flush()  # before another output open on the same path writes


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
    type, top to bottom, to the :func:`_open_output` file ``fh`` as one binary
    PGM (1 channel) or PPM (3 channels)."""
    _, width, channels = rows[0].shape
    magic = b"P5" if channels == 1 else b"P6"
    _write_all(fh, b"%s\n%d %d\n%d\n" % (magic, width, sum(len(r) for r in rows), maxval), *rows)


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
    with _open_output(path) as fh:
        _write_all(fh, b"P4\n%d %d\n" % (wm.cols, wm.rows), packed)
