"""Keyed blind watermark embedding and extraction.

Each watermark bit, XOR-encrypted with a keyed random sequence, is stored
in the parity of a quantized LL3 coefficient of the host's JPEG-YCbCr
luma, the bits filling LL3 in raster order from its first coefficient:
the quantizer index round(c / delta) of a coefficient c of the wrong
parity moves one step toward c / delta, so c moves to the nearest
multiple of delta whose index has the bit's parity, by at most delta.
Extraction repeats the decomposition on the watermarked image alone and
reads the parities back, so no host image is ever needed.

Only luma changes, and every row of the backward colour matrix gives Y a
weight of one, so the watermarked image is the host plus the luma change
in each channel, clipped to [0, 1].  That change is the synthesis of the
LL coefficient changes alone.  CDF 9/7 lifting is local, so both the
analysis and the synthesis run on the band of top rows that holds the
mark's LL3 rows and the margin :func:`wavelet.band_margin` derives from
the lifting's reach, 3 LL3 rows or 24 image rows (see :func:`_mark_band`);
below the band the host is returned unchanged.  :func:`_embed_band` and
:func:`_extract_band` take a file's integer samples and its maxval: the CLI
calls them directly, and :func:`embed` and :func:`extract` at maxval 1.

A recovered bit survives any coefficient perturbation below delta / 2,
the quantizer's decision-region half-width, which is what buys
robustness against compression and 8-bit file round trips.
"""

from dataclasses import dataclass

import numpy as np

from .colorspace import luma
from .errors import _QUOTE, CapacityError, FormatError, _quote
from .image_io import BitMatrix, PlanarImage, _open_output, _write_all, round_half_away
from .wavelet import LEVELS, band_margin, check_dimensions, dwt2_ll, dwt2_ll_inverse

__all__ = [
    "DEFAULT_DELTA",
    "MIN_DELTA",
    "WatermarkKey",
    "generate_r",
    "xor_bits",
    "embed",
    "extract",
    "save_key",
    "load_key",
]

DEFAULT_DELTA = 1.0 / 16.0
# Luma lies in [0, 1] and one 1-D CDF 9/7 lowpass pass has absolute gain
# below 2, so |LL3| < 4**3.  This floor keeps every quantizer index
# |c / delta| below 2**25, where float64 holds it, its neighbours and
# round_half_away's added half exactly.  From 2 * 4**3 = 128 up, every
# coefficient falls in bin 0, so that bounds delta from above (see
# _check_delta).
MIN_DELTA = 2.0**-19

_KEY_MAGIC = "WMKEY1"
_MASK64 = (1 << 64) - 1
_SM64_GOLDEN = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class WatermarkKey:
    """Everything extraction needs: the random sequence R, the watermark
    shape, and the quantization step."""

    r: np.ndarray
    rows: int
    cols: int
    delta: float = DEFAULT_DELTA
    seed: int = 0

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
        _check_seed(self.seed)
        _check_delta(self.delta)
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
    _check_seed(seed)
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


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} is not an unsigned 64-bit integer")


def _check_delta(delta: float) -> None:
    """Raise unless ``MIN_DELTA <= delta < 128 = 2 * 4**3``: at or above the
    top, every LL3 coefficient lies in bin 0 and no mark survives."""
    if not MIN_DELTA <= delta < 128:
        raise ValueError(f"delta must lie in [2**-19, 128) for 3 levels, got {delta}")


def _embed_parities(c: np.ndarray, bits: np.ndarray, delta: float) -> np.ndarray:
    """Rewrite coefficients to the nearest multiple of delta whose
    quantizer index has the requested parity.

    An index of the wrong parity steps one toward c / delta; on a tie,
    where c / delta is that index exactly, it steps up.
    """
    x = c / delta
    q = round_half_away(x)
    q += np.where(q % 2 != bits, np.where(x >= q, 1.0, -1.0), 0.0)
    return q * delta


def _read_parities(c: np.ndarray, delta: float) -> np.ndarray:
    q = round_half_away(c / delta).astype(np.int64)
    return (q % 2).astype(np.uint8)


def _mark_band(height: int, width: int, end: int) -> int:
    """The rows [0, band) of a height x width image whose analysis yields the
    first ``end`` LL3 coefficients, in raster order, bit-identical to the whole
    image's, and whose synthesis holds every sample changing them moves: their
    LL3 rows and :func:`band_margin` more, or all.  A band is its own band.

    Raises unless the dimensions fit the transform and the LL3 grid holds
    ``end`` coefficients.
    """
    check_dimensions(height, width)
    cols = width >> LEVELS
    capacity = (height >> LEVELS) * cols
    if end > capacity:
        raise CapacityError(f"the mark needs {end} coefficients but LL3 holds only {capacity}")
    return min(height, (-(-end // cols) + band_margin()) << LEVELS)


def _unit_band(planes: np.ndarray, maxval: int, end: int) -> np.ndarray:
    """``planes / maxval`` over the rows of :func:`_mark_band`, a new array."""
    band = _mark_band(planes.shape[1], planes.shape[2], end)
    return np.divide(planes[:, :band], maxval, order="C")


def _embed_band(planes: np.ndarray, maxval: int, wm: BitMatrix, seed: int, delta: float):
    """:func:`embed` of ``planes / maxval``, (3, height, width) samples, as
    the marked rows of :func:`_mark_band`, a new array, and the key."""
    _check_delta(delta)
    n = wm.size
    out = _unit_band(planes, maxval, n)
    ll = dwt2_ll(luma(out))
    r = generate_r(n, seed)
    encrypted = xor_bits(wm.bits.reshape(-1), r)
    c = ll.reshape(-1)[:n]
    change = np.zeros_like(ll)
    change.reshape(-1)[:n] = _embed_parities(c, encrypted, delta) - c
    out += dwt2_ll_inverse(change)
    np.clip(out, 0.0, 1.0, out=out)
    return out, WatermarkKey(r=r, rows=wm.rows, cols=wm.cols, delta=delta, seed=seed)


def _extract_band(planes: np.ndarray, maxval: int, key: WatermarkKey) -> BitMatrix:
    """:func:`extract` of ``planes / maxval``, (3, height, width) samples,
    from the rows of :func:`_mark_band` alone."""
    ll = dwt2_ll(luma(_unit_band(planes, maxval, key.n)))
    encrypted = _read_parities(ll.reshape(-1)[: key.n], key.delta)
    return BitMatrix(xor_bits(encrypted, key.r).reshape(key.rows, key.cols))


def embed(
    host: PlanarImage, wm: BitMatrix, seed: int, delta: float = DEFAULT_DELTA
) -> tuple[PlanarImage, WatermarkKey]:
    """Embed a watermark into the LL3 subband of the host's Y channel.

    Returns the watermarked image and the key required for extraction.
    The watermark must fit: rows*cols <= (width/8) * (height/8).
    """
    band, key = _embed_band(host.data, 1, wm, seed, delta)
    return PlanarImage(np.concatenate((band, host.data[:, band.shape[1]:]), axis=1)), key


def extract(watermarked: PlanarImage, key: WatermarkKey) -> BitMatrix:
    """Recover the watermark from a (possibly attacked) image and its key.

    Blind: only the watermarked image and the key are consulted, and of
    the image only the LL subband of its luma.
    """
    return _extract_band(watermarked.data, 1, key)


def save_key(key: WatermarkKey, path) -> None:
    """Write a key file (text, line-oriented; see :func:`load_key`)."""
    with _open_output(path) as fh:
        _write_all(fh, _key_bytes(key))


def _key_bytes(key: WatermarkKey) -> bytes:
    r_hex = np.packbits(key.r).tobytes().hex().upper()
    lines = [
        _KEY_MAGIC,
        f"levels=3 subband=LL rows={key.rows} cols={key.cols} offset=0",
        f"delta={key.delta!r}",
        f"seed={key.seed}",
        f"R={r_hex}",
    ]
    return ("\n".join(lines) + "\n").encode()


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
        raise FormatError(f"{path}: bad magic {_quote(lines[0])}, expected {_KEY_MAGIC!r}")

    fields = _parse_fields(
        lines[1], ("levels", "subband", "rows", "cols", "offset"), path
    )
    delta_field = _parse_fields(lines[2], ("delta",), path)
    seed_field = _parse_fields(lines[3], ("seed",), path)
    r_field = _parse_fields(lines[4], ("R",), path)

    for name, literal in (("levels", "3"), ("subband", "LL"), ("offset", "0")):
        if fields[name] != literal:
            raise FormatError(f"{path}: unsupported {name} {_quote(fields[name])}, expected {literal!r}")
    rows = _number(int, fields["rows"], path)
    cols = _number(int, fields["cols"], path)
    delta = _number(float, delta_field["delta"], path)
    seed = _number(int, seed_field["seed"], path)

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
        return WatermarkKey(r=bits[:n], rows=rows, cols=cols, delta=delta, seed=seed)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_fields(line: str, names: tuple[str, ...], path) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in line.split():
        name, sep, value = item.partition("=")
        if not sep or name not in names or name in out:
            raise FormatError(f"{path}: unexpected field {_quote(item)}")
        out[name] = value
    missing = [n for n in names if n not in out]
    if missing:
        raise FormatError(f"{path}: missing field(s) {missing} in {_quote(line)}")
    return out


def _number(parse, text: str, path):
    """``parse(text)``; a malformed number is a FormatError in Python's words,
    or quoting the text if it is long: Python's words for a float quote it all."""
    try:
        return parse(text)
    except ValueError as exc:
        detail = exc if len(text) <= _QUOTE else _quote(text)
        raise FormatError(f"{path}: malformed numeric field: {detail}") from None
