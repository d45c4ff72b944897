"""Golden outputs: the seeded results below must stay byte-identical.

A change that moves any output bit (a reordered sum, a different rounding
rule) fails here; a deliberate behaviour change re-records the digests and
says so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavemark import dwt2_forward, dwt2_inverse, threshold_details, write_watermark
from wavemark.cli import main
from conftest import make_mark

_BENCH_CSV_SHA256 = "7927df7db86daaf9674188a1c82417548899881a8f4781180279c9d51267cce5"
_MARKED_PPM_SHA256 = "2386b903b115bb65f7f93e73600c74fbd1e859830b9e0dabd8d812fd6560d64b"
_EMBED_REPORT = "psnr_db=47.0639 pearson=0.999882\n"
# a 256x256 host whose mark band (3 LL3 rows and the margin) is shorter
# than the image, so that these see the rows below the band too; recorded
# before the band's margin was derived from the lifting's reach
_BAND_CSV_SHA256 = "3fc1b947fe20fa87d0330b0ab27fd1485116252d5487268182635088a14d494a"
_BAND_PPM_SHA256 = "ab40667c382f2dbc62f4037c461ec40d4d676438e936f267d4e0e13862232a0e"
_BAND_REPORT = "psnr_db=58.3540 pearson=0.999991\n"
# 64x64 hosts that print every special cell: constant P6 hosts at 0, 255
# and 128 (nan Pearson, inf and 0 dB PSNR) and a P5 one (FAILED); recorded
# while rows still held their cells as strings
_SPECIAL_TEXT_SHA256 = "fa714a2370801c2d6a1e6cfb1a2d511f6d3d92fce4d5a719f037e8a55c7155f6"
_SPECIAL_CSV_SHA256 = "9b8493d3e3ed53498e0e5e0536019d830e83ac9ba22505e656867e0c6ec3ce5b"
# float64 bytes of a seeded 64x96 pyramid and of its thresholded inverse:
# the lifting is elementwise, so these hold on any IEEE-754 machine
_PYRAMID_SHA256 = "ce2fbcdadca7ac129ef657dcfd72a5663c6691b54b2dc1e841e754da4269f496"
_INVERSE_SHA256 = "93e88f5f131fa66f6818b1a6d60175cc6a91c6a3bf754dfa283c1c9c90471905"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    # relative names keep the host column of the CSV independent of tmp_path
    monkeypatch.chdir(tmp_path)
    for kind in ("noise", "checker", "gradient"):
        assert main(["synth", f"{kind}.ppm", "--size", "64", "--kind", kind, "--seed", "5"]) == 0
    write_watermark(make_mark(4, 16), "wm.pbm")
    return tmp_path


def test_bench_csv_is_byte_identical(inputs, capsys):
    code = main(
        ["bench", "noise.ppm", "checker.ppm", "gradient.ppm", "wm.pbm",
         "--seed", "11", "--thresholds", "3,5,7,40,80", "--format", "csv"]
    )
    assert code == 0
    assert _sha256(capsys.readouterr().out.encode()) == _BENCH_CSV_SHA256


def test_marked_ppm_is_byte_identical(inputs):
    assert main(["embed", "noise.ppm", "wm.pbm", "marked.ppm", "marked.key", "--seed", "11"]) == 0
    assert _sha256((inputs / "marked.ppm").read_bytes()) == _MARKED_PPM_SHA256


def test_embed_report_is_identical(inputs, capsys):
    assert main(["embed", "noise.ppm", "wm.pbm", "marked.ppm", "marked.key", "--seed", "11"]) == 0
    assert capsys.readouterr().out == _EMBED_REPORT


@pytest.fixture
def band_inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "noise.ppm", "--size", "256", "--kind", "noise", "--seed", "5"]) == 0
    write_watermark(make_mark(5, 13), "wm.pbm")  # 65 bits end mid-row: 32 LL3 columns
    return tmp_path


def test_band_limited_outputs_are_byte_identical(band_inputs, capsys):
    assert main(["embed", "noise.ppm", "wm.pbm", "marked.ppm", "marked.key", "--seed", "11"]) == 0
    assert capsys.readouterr().out == _BAND_REPORT
    assert _sha256((band_inputs / "marked.ppm").read_bytes()) == _BAND_PPM_SHA256
    assert main(["bench", "noise.ppm", "wm.pbm", "--seed", "11",
                 "--thresholds", "3,5,7,40,80", "--format", "csv"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == _BAND_CSV_SHA256


@pytest.mark.parametrize("fmt, digest", [("text", _SPECIAL_TEXT_SHA256), ("csv", _SPECIAL_CSV_SHA256)])
def test_bench_special_cells_are_byte_identical(tmp_path, monkeypatch, capsys, fmt, digest):
    monkeypatch.chdir(tmp_path)
    for value in (0, 255, 128):
        Path(f"c{value}.ppm").write_bytes(b"P6\n64 64\n255\n" + bytes([value]) * (64 * 64 * 3))
    Path("gray.pgm").write_bytes(b"P5\n64 64\n255\n" + bytes(range(64)) * 64)
    write_watermark(make_mark(4, 16), "wm.pbm")
    assert main(["bench", "c0.ppm", "c255.ppm", "c128.ppm", "gray.pgm", "wm.pbm", "--seed", "3",
                 "--thresholds", "0,3,inf", "--crops", "0,0,0,0;0,0,64,64", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert all(cell in out for cell in ("FAILED", "nan", "inf", "0.0000"))
    assert _sha256(out.encode()) == digest


def test_wavelet_coefficients_are_bit_identical():
    pyr = dwt2_forward(np.random.default_rng(2024).random((64, 96)))
    digest = hashlib.sha256(pyr.ll.tobytes())
    for bands in pyr.details:
        for grid in bands.grids():
            digest.update(np.ascontiguousarray(grid).tobytes())
    assert digest.hexdigest() == _PYRAMID_SHA256
    inverse = dwt2_inverse(threshold_details(pyr, 0.05))
    assert _sha256(inverse.tobytes()) == _INVERSE_SHA256


def test_golden_bits_do_not_depend_on_simd_dispatch():
    # numpy picks a SIMD kernel per CPU when it loads; rerun this file with
    # every dispatch target this CPU has switched off, so the baseline kernels run
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target on this CPU")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    env.pop("NPY_ENABLE_CPU_FEATURES", None)

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=Path(__file__).parents[1], env=env,
                              capture_output=True, text=True)

    still_on = run("-c", "from numpy._core import _multiarray_umath as m; "
                         "print(*[t for t in m.__cpu_dispatch__ if m.__cpu_features__[t]])")
    assert still_on.returncode == 0 and still_on.stdout.split() == [], still_on.stderr
    name = test_golden_bits_do_not_depend_on_simd_dispatch.__name__
    golden = run("-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", f"not {name}")
    assert golden.returncode == 0, golden.stdout + golden.stderr
