"""Keyed blind watermark embedding and extraction.

The pipeline: convert the host to JPEG-YCbCr, decompose the Y channel
into a 3-level pyramid, XOR-encrypt the watermark bits with a keyed
random sequence, and store each encrypted bit in the parity of a
quantized LL3 coefficient: c -> round(c / delta) forced to the bit's
parity, rewritten as the nearest even/odd multiple of delta.  Extraction
repeats the decomposition on the watermarked image alone and reads the
parities back, so no host image is ever needed.

A recovered bit survives any coefficient perturbation below delta / 2,
the quantizer's decision-region half-width, which is what buys
robustness against compression and 8-bit file round trips.
"""

import math
from dataclasses import dataclass

import numpy as np

from .colorspace import YCbCrImage, jpeg_ycbcr_to_rgb, luma, rgb_to_jpeg_ycbcr
from .errors import CapacityError, FormatError
from .image_io import BitMatrix, PlanarImage, round_half_away
from .wavelet import dwt2_forward, dwt2_inverse, dwt2_ll

__all__ = [
    "DEFAULT_DELTA",
    "DEFAULT_LEVELS",
    "WatermarkKey",
    "generate_r",
    "xor_bits",
    "embed",
    "extract",
    "save_key",
    "load_key",
]

DEFAULT_DELTA = 1.0 / 16.0
DEFAULT_LEVELS = 3

_KEY_MAGIC = "WMKEY1"
_MASK64 = (1 << 64) - 1
_SM64_GOLDEN = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class WatermarkKey:
    """Everything extraction needs: the random sequence R, the subband
    locator, the watermark shape, and the quantization step."""

    r: np.ndarray
    rows: int
    cols: int
    levels: int = DEFAULT_LEVELS
    subband: str = "LL"
    delta: float = DEFAULT_DELTA
    seed: int = 0
    offset: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        r = np.asarray(self.r)
        if r.ndim != 1 or not np.isin(r, (0, 1)).all():
            raise ValueError("R must be a 1-D sequence of bits")
        if r.size != self.rows * self.cols:
            raise FormatError(
                f"R has {r.size} bits, shape {self.rows}x{self.cols} "
                f"needs {self.rows * self.cols}"
            )
        if self.subband != "LL":
            raise ValueError(f"unsupported subband {self.subband!r}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if self.levels < 1 or self.offset < 0:
            raise ValueError("levels must be >= 1 and offset >= 0")
        object.__setattr__(self, "r", r.astype(np.uint8))

    @property
    def n(self) -> int:
        return self.rows * self.cols


def generate_r(n: int, seed: int) -> np.ndarray:
    """Deterministic random bit sequence: top bit of each SplitMix64 word.

    The generator is pinned to SplitMix64 so keys written here are
    reproducible from the seed by any implementation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    with np.errstate(over="ignore"):
        state = np.uint64(seed) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(
            _SM64_GOLDEN
        )
        z = (state ^ (state >> np.uint64(30))) * np.uint64(_SM64_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM64_MIX2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(63)).astype(np.uint8)


def xor_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise XOR of two equal-length bit sequences."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a ^ b


def _embed_parities(c: np.ndarray, bits: np.ndarray, delta: float) -> np.ndarray:
    """Rewrite coefficients to the nearest multiple of delta whose
    quantizer index has the requested parity."""
    q = round_half_away(c / delta)
    return (2.0 * np.floor(q / 2.0) + bits) * delta


def _read_parities(c: np.ndarray, delta: float) -> np.ndarray:
    q = round_half_away(c / delta).astype(np.int64)
    return (q % 2).astype(np.uint8)


def embed(
    host: PlanarImage, wm: BitMatrix, seed: int, delta: float = DEFAULT_DELTA
) -> tuple[PlanarImage, WatermarkKey]:
    """Embed a watermark into the LL3 subband of the host's Y channel.

    Returns the watermarked image and the key required for extraction.
    The watermark must fit: rows*cols <= (width/8) * (height/8).
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    ycc = rgb_to_jpeg_ycbcr(host)
    pyr = dwt2_forward(ycc.y, DEFAULT_LEVELS)
    n = wm.size
    capacity = pyr.ll.size
    if n > capacity:
        raise CapacityError(
            f"watermark has {n} bits but LL{DEFAULT_LEVELS} holds only "
            f"{capacity} coefficients"
        )
    r = generate_r(n, seed)
    encrypted = xor_bits(wm.bits.reshape(-1), r)
    flat = pyr.ll.reshape(-1)
    flat[:n] = _embed_parities(flat[:n], encrypted, delta)
    y2 = dwt2_inverse(pyr)
    out = jpeg_ycbcr_to_rgb(YCbCrImage(y=y2, cb=ycc.cb, cr=ycc.cr))
    key = WatermarkKey(
        r=r,
        rows=wm.rows,
        cols=wm.cols,
        levels=DEFAULT_LEVELS,
        subband="LL",
        delta=delta,
        seed=seed,
        offset=0,
    )
    return out, key


def extract(watermarked: PlanarImage, key: WatermarkKey) -> BitMatrix:
    """Recover the watermark from a (possibly attacked) image and its key.

    Blind: only the watermarked image and the key are consulted, and of
    the image only the LL subband of its luma.
    """
    ll = dwt2_ll(luma(watermarked), key.levels)
    n = key.n
    if key.offset + n > ll.size:
        raise CapacityError(
            f"key addresses {key.offset + n} coefficients but "
            f"LL{key.levels} holds only {ll.size}"
        )
    c = ll.reshape(-1)[key.offset : key.offset + n]
    encrypted = _read_parities(c, key.delta)
    bits = xor_bits(encrypted, key.r)
    return BitMatrix(bits.reshape(key.rows, key.cols))


def save_key(key: WatermarkKey, path) -> None:
    """Write a key file (text, line-oriented; see :func:`load_key`)."""
    r_hex = np.packbits(key.r).tobytes().hex().upper()
    lines = [
        _KEY_MAGIC,
        f"levels={key.levels} subband={key.subband} rows={key.rows} "
        f"cols={key.cols} offset={key.offset}",
        f"delta={key.delta!r}",
        f"seed={key.seed}",
        f"R={r_hex}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_key(path) -> WatermarkKey:
    """Parse a key file.

    Format (all fields mandatory, unknown lines rejected)::

        WMKEY1
        levels=3 subband=LL rows=15 cols=64 offset=0
        delta=0.0625
        seed=<unsigned 64-bit decimal>
        R=<hex, MSB-first, ceil(n/8) bytes, last byte zero-padded>
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: key file is not UTF-8 text: {exc}") from None
    if len(lines) < 5 or any(line.strip() for line in lines[5:]):
        raise FormatError(f"{path}: key file must have exactly 5 lines")
    if lines[0] != _KEY_MAGIC:
        raise FormatError(f"{path}: bad magic {lines[0]!r}, expected {_KEY_MAGIC!r}")

    fields = _parse_fields(
        lines[1], ("levels", "subband", "rows", "cols", "offset"), path
    )
    delta_field = _parse_fields(lines[2], ("delta",), path)
    seed_field = _parse_fields(lines[3], ("seed",), path)
    r_field = _parse_fields(lines[4], ("R",), path)

    try:
        levels = int(fields["levels"])
        rows = int(fields["rows"])
        cols = int(fields["cols"])
        offset = int(fields["offset"])
        delta = float(delta_field["delta"])
        seed = int(seed_field["seed"])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed numeric field: {exc}") from None
    if not 0 <= seed <= _MASK64:
        raise FormatError(f"{path}: seed {seed} is not an unsigned 64-bit integer")

    n = rows * cols
    try:
        raw = bytes.fromhex(r_field["R"])
    except ValueError:
        raise FormatError(f"{path}: R is not valid hex") from None
    if len(raw) != (n + 7) // 8:
        raise FormatError(
            f"{path}: R holds {len(raw)} bytes, shape {rows}x{cols} "
            f"needs {(n + 7) // 8}"
        )
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[n:].any():
        raise FormatError(f"{path}: R padding bits must be zero")

    try:
        return WatermarkKey(
            r=bits[:n],
            rows=rows,
            cols=cols,
            levels=levels,
            subband=fields["subband"],
            delta=delta,
            seed=seed,
            offset=offset,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_fields(line: str, names: tuple[str, ...], path) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in line.split():
        name, sep, value = item.partition("=")
        if not sep or name not in names or name in out:
            raise FormatError(f"{path}: unexpected field {item!r}")
        out[name] = value
    missing = [n for n in names if n not in out]
    if missing:
        raise FormatError(f"{path}: missing field(s) {missing} in {line!r}")
    return out
