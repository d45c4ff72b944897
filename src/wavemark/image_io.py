"""Netpbm image I/O and the in-memory raster types.

Supported containers are the portable formats only: PGM (P2/P5) for
grayscale, PPM (P3/P6) for color, PBM (P1/P4) for binary watermarks.
Headers follow the Netpbm conventions: ASCII ``magic width height
[maxval]`` with ``#`` comments allowed between tokens and a single
whitespace character separating the header from a binary payload.

Samples are held as floats in [0, 1]; a file sample ``v`` with maximum
value ``maxval`` maps to ``v / maxval``.  Writing uses
round-half-away-from-zero (see :func:`round_half_away`), the one rounding
rule used throughout the toolkit.
"""

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


class _Cursor:
    """Byte-level reader for Netpbm headers, tracking the offset for errors."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, detail: str) -> FormatError:
        return FormatError(f"{self.path}: byte {self.pos}: {detail}")

    def _skip_separators(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            b = data[self.pos]
            if b in b" \t\r\n\x0b\x0c":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < n and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self._skip_separators()
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and data[self.pos] not in b" \t\r\n\x0b\x0c#":
            self.pos += 1
        if self.pos == start:
            raise self.fail(f"expected {what}, found end of header")
        return data[start : self.pos]

    def int_token(self, what: str, lo: int, hi: int) -> int:
        tok = self.token(what)
        try:
            val = int(tok)
        except ValueError:
            raise self.fail(f"expected integer {what}, got {tok!r}") from None
        if not lo <= val <= hi:
            raise self.fail(f"{what} {val} out of range [{lo}, {hi}]")
        return val

    def binary_payload(self) -> bytes:
        # exactly one whitespace byte separates the header from raster data
        if self.pos >= len(self.data) or self.data[self.pos] not in b" \t\r\n\x0b\x0c":
            raise self.fail("expected single whitespace before binary payload")
        self.pos += 1
        return self.data[self.pos :]


def _read_header(cur: _Cursor, magics: tuple[bytes, ...]) -> bytes:
    magic = cur.token("magic number")
    if magic not in magics:
        raise cur.fail(f"unsupported magic {magic!r}, expected one of {magics}")
    return magic


def _ascii_samples(cur: _Cursor, count: int, maxval: int) -> np.ndarray:
    vals = np.empty(count, dtype=np.float64)
    for i in range(count):
        try:
            vals[i] = cur.int_token("sample", 0, maxval)
        except FormatError as exc:
            raise FormatError(f"{exc} (sample {i} of {count})") from None
    return vals


def _binary_samples(cur: _Cursor, count: int, maxval: int) -> np.ndarray:
    payload = cur.binary_payload()
    width = 2 if maxval > 255 else 1
    need = count * width
    if len(payload) < need:
        raise FormatError(
            f"{cur.path}: truncated payload, need {need} bytes, have {len(payload)}"
        )
    raw = np.frombuffer(payload[:need], dtype=np.uint8)
    if width == 2:
        vals = raw[0::2].astype(np.float64) * 256.0 + raw[1::2]
    else:
        vals = raw.astype(np.float64)
    if vals.max(initial=0.0) > maxval:
        raise FormatError(f"{cur.path}: sample exceeds maxval {maxval}")
    return vals


def read_image(path) -> PlanarImage:
    """Read a PGM (P2/P5) or PPM (P3/P6) file into a unit-range raster."""
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data, str(path))
    magic = _read_header(cur, (b"P2", b"P5", b"P3", b"P6"))
    width = cur.int_token("width", 1, 1 << 30)
    height = cur.int_token("height", 1, 1 << 30)
    maxval = cur.int_token("maxval", 1, 65535)
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    if magic in (b"P2", b"P3"):
        vals = _ascii_samples(cur, count, maxval)
    else:
        vals = _binary_samples(cur, count, maxval)
    # file order is row-major, channels interleaved per pixel
    planes = vals.reshape(height, width, channels).transpose(2, 0, 1)
    return PlanarImage(planes / float(maxval))


def write_image(img: PlanarImage, path, maxval: int = 255) -> None:
    """Write a raster as binary PGM (1 channel) or PPM (3 channels).

    Samples are encoded as ``round(s * maxval)`` with ties away from zero,
    clamped to [0, maxval].
    """
    if maxval not in (255, 65535):
        raise ValueError(f"maxval must be 255 or 65535, got {maxval}")
    ints = _encode_samples(img.data, maxval)
    magic = b"P5" if img.channels == 1 else b"P6"
    sample = np.uint8 if maxval == 255 else np.dtype(">u2")  # 16-bit: MSB first
    payload = ints.transpose(1, 2, 0).astype(sample).tobytes()  # (h, w, c)
    header = b"%s\n%d %d\n%d\n" % (magic, img.width, img.height, maxval)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _encode_samples(arr: np.ndarray, maxval: int) -> np.ndarray:
    """File samples, as integral floats.  For ``v >= 0``, :func:`round_half_away`
    is ``floor(v + 0.5)``; below 0 the clamp sends both to 0."""
    out = arr * float(maxval)
    out += 0.5
    np.floor(out, out=out)
    return np.clip(out, 0.0, maxval, out=out)


def quantize(img: PlanarImage, maxval: int = 255) -> PlanarImage:
    """Snap samples to the ``maxval`` grid, as a write/read cycle would."""
    ints = _encode_samples(img.data, maxval)
    return PlanarImage(np.divide(ints, float(maxval), out=ints))


def read_watermark(path) -> BitMatrix:
    """Read a watermark from a PBM (P1/P4) or PGM (P2/P5) file.

    PBM bits are taken directly (1 = ink/black).  PGM samples are
    binarized at 0.5 after division by maxval, so near-binary scans work.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data, str(path))
    magic = _read_header(cur, (b"P1", b"P4", b"P2", b"P5"))
    width = cur.int_token("width", 1, 1 << 30)
    height = cur.int_token("height", 1, 1 << 30)
    if magic in (b"P2", b"P5"):
        maxval = cur.int_token("maxval", 1, 65535)
        count = width * height
        if magic == b"P2":
            vals = _ascii_samples(cur, count, maxval)
        else:
            vals = _binary_samples(cur, count, maxval)
        bits = (vals / float(maxval) >= 0.5).astype(np.uint8)
        return BitMatrix(bits.reshape(height, width))
    if magic == b"P1":
        bits = _ascii_bits(cur, width * height)
        return BitMatrix(bits.reshape(height, width))
    # P4: rows packed MSB-first, each row padded to a whole byte
    payload = cur.binary_payload()
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    if len(payload) < need:
        raise FormatError(
            f"{cur.path}: truncated payload, need {need} bytes, have {len(payload)}"
        )
    raw = np.frombuffer(payload[:need], dtype=np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(raw, axis=1)[:, :width]
    return BitMatrix(bits)


def _ascii_bits(cur: _Cursor, count: int) -> np.ndarray:
    # P1 allows digits to run together without separators
    bits = np.empty(count, dtype=np.uint8)
    got = 0
    data, n = cur.data, len(cur.data)
    while got < count:
        cur._skip_separators()
        if cur.pos >= n:
            raise cur.fail(f"expected bit {got} of {count}, found end of file")
        b = data[cur.pos]
        if b not in b"01":
            raise cur.fail(f"expected 0 or 1, got {bytes([b])!r}")
        bits[got] = b - ord("0")
        got += 1
        cur.pos += 1
    return bits


def write_watermark(wm: BitMatrix, path) -> None:
    """Write a bit matrix as binary PBM (P4), 1 = ink/black."""
    packed = np.packbits(wm.bits, axis=1)
    header = b"P4\n%d %d\n" % (wm.cols, wm.rows)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())
