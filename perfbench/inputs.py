"""Seeded benchmark inputs and a small, independent Netpbm codec.

The benchmark writes its inputs and checks the program's outputs with this
codec rather than with ``wavemark.image_io``, so a change to the program can
neither change the inputs nor hide a defect in its own reader or writer.
"""

import re

import numpy as np

HOST_KINDS = ("noise", "checker", "gradient")
_CHECKER_BLOCK = 32
_P6 = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+255\s")
_P4 = re.compile(rb"P4\s+(\d+)\s+(\d+)\s")


def host_pixels(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """An 8-bit (size, size, 3) host; only ``noise`` draws from ``rng``."""
    if kind == "noise":
        return rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
    if kind == "checker":
        idx = np.arange(size) // _CHECKER_BLOCK
        plane = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 64, 191)
        return np.repeat(plane[:, :, None], 3, axis=2).astype(np.uint8)
    if kind == "gradient":
        # touches both rails (0 and 255), as the clamp-sensitive case
        x = np.arange(size) / (size - 1)
        r = np.broadcast_to(x[None, :], (size, size))
        g = np.broadcast_to(x[:, None], (size, size))
        b = (x[None, :] + x[:, None]) / 2.0
        return np.rint(np.stack([r, g, b], axis=2) * 255.0).astype(np.uint8)
    raise ValueError(f"unknown host kind {kind!r}")


def mark_bits(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Random {0, 1} bits with at least one 1 (NC needs ink in the reference)."""
    bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    bits[0, 0] = 1
    return bits


def encode_p6(px: np.ndarray) -> bytes:
    h, w, _ = px.shape
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(px).tobytes()


def encode_p3(px: np.ndarray) -> bytes:
    h, w, _ = px.shape
    rows = px.reshape(h, w * 3).tolist()
    body = "\n".join(" ".join(map(str, row)) for row in rows)
    return b"P3\n%d %d\n255\n" % (w, h) + body.encode("ascii") + b"\n"


def encode_p4(bits: np.ndarray) -> bytes:
    rows, cols = bits.shape
    return b"P4\n%d %d\n" % (cols, rows) + np.packbits(bits, axis=1).tobytes()


def encode_p1(bits: np.ndarray) -> bytes:
    rows, cols = bits.shape
    body = "\n".join(" ".join(map(str, row)) for row in bits.tolist())
    return b"P1\n%d %d\n" % (cols, rows) + body.encode("ascii") + b"\n"


def decode_p6(data: bytes) -> np.ndarray:
    """Parse an 8-bit binary PPM as written by ``wavemark`` (no comments)."""
    m = _P6.match(data)
    if m is None:
        raise ValueError("not an 8-bit P6 file")
    w, h = int(m[1]), int(m[2])
    payload = data[m.end():]
    if len(payload) != w * h * 3:
        raise ValueError(f"P6 payload has {len(payload)} bytes, expected {w * h * 3}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


def decode_p4(data: bytes) -> np.ndarray:
    m = _P4.match(data)
    if m is None:
        raise ValueError("not a P4 file")
    w, h = int(m[1]), int(m[2])
    row_bytes = (w + 7) // 8
    payload = data[m.end():]
    if len(payload) != row_bytes * h:
        raise ValueError(f"P4 payload has {len(payload)} bytes, expected {row_bytes * h}")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(h, row_bytes)
    return np.unpackbits(raw, axis=1)[:, :w]


def psnr_8bit(a: np.ndarray, b: np.ndarray) -> float:
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return float("inf") if mse == 0.0 else 10.0 * np.log10(255.0**2 / mse)
