"""The command line's integer path against the library's float path.

``embed``, ``extract``, ``attack`` and ``bench`` keep a host as its
integer file samples and turn only the mark's band of rows, or one
channel plane at a time, into floats.  Every output must equal what the
float path, ``write_image(embed(read_image(host)))``, gives: the written
bytes, the key, the printed report line, the recovered mark, the attacked
file and every cell of the bench table.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavemark import BitMatrix, CropRect, ber, crop, embed, extract, nc, pearson, psnr, quantize
from wavemark import read_image, read_watermark, save_key, wavelet_compress, write_image
from wavemark import DimensionError, SubbandPyramid, dwt2_forward, dwt2_inverse, write_watermark
from wavemark.bench import _bench_host, _cells, _default_rects
from wavemark.cli import main
from wavemark.image_io import _encode_samples, _to_8bit
from wavemark.watermark import DEFAULT_DELTA, _mark_band
from conftest import _report_cpus, make_mark

MAXVALS = [1, 7, 100, 255, 256, 1000, 65535]


def _write_host(path, samples, maxval, magic):
    """A P2, P3, P5 or P6 file of (height, width, channels) integer samples."""
    height, width, _ = samples.shape
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    if magic in (b"P5", b"P6"):
        payload = samples.astype(np.uint8 if maxval < 256 else ">u2").tobytes()
    else:
        payload = " ".join(map(str, samples.reshape(-1).tolist())).encode() + b"\n"
    path.write_bytes(header + payload)


def _host_samples(rng, height, width, maxval):
    samples = rng.integers(0, maxval, (height, width, 3), endpoint=True)
    # both rails inside the band, so the clamp engages at every maxval
    samples[0, :8] = maxval
    samples[1, :8] = 0
    return samples


def _assert_cli_matches_float_path(tmp, capsys, samples, maxval, magic, mark, seed):
    host, mark_path = tmp / "host.ppm", tmp / "mark.pbm"
    out, key_path, rec = tmp / "out.ppm", tmp / "out.key", tmp / "rec.pbm"
    ref, ref_key, ref_rec = tmp / "ref.ppm", tmp / "ref.key", tmp / "ref.pbm"
    _write_host(host, samples, maxval, magic)
    write_watermark(mark, mark_path)

    image = read_image(host)
    marked, key = embed(image, mark, seed=seed)
    produced = write_image(marked, ref)
    save_key(key, ref_key)
    try:
        r = f"{pearson(image, produced):.6f}"
    except ValueError:  # a constant host has no correlation
        r = "nan"
    want = (0, f"psnr_db={psnr(image, produced):.4f} pearson={r}\n", "")

    capsys.readouterr()
    code = main(["embed", str(host), str(mark_path), str(out), str(key_path), "--seed", str(seed)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want
    assert out.read_bytes() == ref.read_bytes()
    assert key_path.read_bytes() == ref_key.read_bytes()

    for source in (out, host):
        assert main(["extract", str(source), str(key_path), str(rec)]) == 0
        write_watermark(extract(read_image(source), key), ref_rec)
        assert rec.read_bytes() == ref_rec.read_bytes()


@pytest.mark.parametrize("height", [128, 32])
@pytest.mark.parametrize("maxval", MAXVALS)
@pytest.mark.parametrize("magic", [b"P6", b"P3"])
def test_cli_matches_float_path(tmp_path, capsys, magic, maxval, height):
    mark = make_mark(2, 8)
    band = _mark_band(height, 64, mark.size)
    # 128 rows leave rows below the band; in 32 rows the band is the image
    assert (band < height) == (height == 128)
    rng = np.random.default_rng([maxval, height])
    samples = _host_samples(rng, height, 64, maxval)
    _assert_cli_matches_float_path(tmp_path, capsys, samples, maxval, magic, mark, seed=maxval)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    maxval=st.integers(1, 65535),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    constant=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_cli_matches_float_path_for_any_host(
    tmp_path, capsys, maxval, rows, cols, constant, seed, data
):
    rng = np.random.default_rng(seed)
    height, width = 8 * rows, 8 * cols
    if constant:
        samples = np.full((height, width, 3), rng.integers(0, maxval, endpoint=True))
    else:
        samples = rng.integers(0, maxval, (height, width, 3), endpoint=True)
    n = data.draw(st.integers(1, rows * cols), label="mark bits")
    mark = BitMatrix(rng.integers(0, 2, (1, n)))
    magic = data.draw(st.sampled_from([b"P6", b"P3"]), label="magic")
    _assert_cli_matches_float_path(tmp_path, capsys, samples, maxval, magic, mark, seed)


@pytest.mark.parametrize("maxval", [1, 7, 255, 1000, 65535])
@pytest.mark.parametrize("magic", [b"P2", b"P3", b"P5", b"P6"])
def test_attack_matches_float_path(tmp_path, monkeypatch, magic, maxval):
    channels = 3 if magic in (b"P3", b"P6") else 1
    samples = np.random.default_rng([maxval, channels]).integers(
        0, maxval, (32, 48, channels), endpoint=True)
    host, out, ref = tmp_path / "host.pnm", tmp_path / "out.ppm", tmp_path / "ref.ppm"
    _write_host(host, samples, maxval, magic)
    image = read_image(host)
    # the analyses on one thread, and on as many as a colour host has channels
    for cpus, t in itertools.product((1, 3), (0.0, 3.0, 80.0, math.inf)):
        _report_cpus(monkeypatch, cpus)
        assert main(["attack", str(host), str(out), "--compress-t", f"{t:g}"]) == 0
        write_image(wavelet_compress(image, t), ref)
        assert out.read_bytes() == ref.read_bytes()
    # a fill of 0.5 is a rounding tie; the last three reach the right and
    # bottom edges
    for rect, fill in [(CropRect(0, 0, 0, 0), 0.0), (CropRect(5, 3, 11, 7), 0.5),
                       (CropRect(40, 20, 8, 12), 0.3), (CropRect(47, 31, 1, 1), 0.7),
                       (CropRect(0, 0, 48, 32), 1.0)]:
        flags = ["--crop", f"{rect.x},{rect.y},{rect.w},{rect.h}", "--fill", str(fill)]
        assert main(["attack", str(host), str(out), *flags]) == 0
        write_image(crop(image, rect, fill), ref)
        assert out.read_bytes() == ref.read_bytes()


def _float_path_rows(path, mark, thresholds, rects, seed):
    """The bench table's cells, computed on unit-range floats throughout."""
    host = read_image(path)
    marked, key = embed(host, mark, seed=seed)
    marked = quantize(marked)
    scenarios = [("clean", "-", lambda: marked)]
    scenarios += [("compress", f"{t:g}", lambda t=t: quantize(wavelet_compress(marked, t)))
                  for t in thresholds]
    scenarios += [("crop", f"{r.x},{r.y},{r.w},{r.h}", lambda r=r: quantize(crop(marked, r)))
                  for r in rects]
    rows = []
    for scenario, param, attack in scenarios:
        try:
            image = attack()
        except ValueError:  # a rectangle outside the image
            rows.append((str(path), scenario, param) + ("FAILED",) * 4)
            continue
        recovered = extract(image, key)
        try:
            r = f"{pearson(host, image):.6f}"
        except ValueError:  # a constant host has no correlation
            r = "nan"
        rows.append((str(path), scenario, param, f"{psnr(host, image):.4f}", r,
                     f"{nc(mark, recovered):.6f}", f"{ber(mark, recovered):.4f}"))
    return rows


@pytest.mark.parametrize("maxval", [255, 1000])
def test_embed_of_a_constant_host_reads_nan_pearson(tmp_path, capsys, maxval):
    mark = make_mark(2, 8)
    # rows below the band keep the host's constant samples
    assert _mark_band(128, 64, mark.size) < 128
    samples = np.full((128, 64, 3), maxval // 3)
    _assert_cli_matches_float_path(tmp_path, capsys, samples, maxval, b"P6", mark, seed=5)
    argv = [str(tmp_path / name) for name in ("host.ppm", "mark.pbm", "out.ppm", "out.key")]
    assert main(["embed", *argv, "--seed", "5"]) == 0
    assert capsys.readouterr().out.endswith(" pearson=nan\n")


@pytest.mark.parametrize("height", [64, 32])
@pytest.mark.parametrize("maxval", [1, 7, 255, 1000, 65535])
@pytest.mark.parametrize("magic", [b"P6", b"P3"])
def test_bench_matches_float_path(tmp_path, magic, maxval, height):
    mark = make_mark(2, 8)
    band = _mark_band(height, 64, mark.size)
    # 64 rows leave rows below the band; in 32 rows the band is the image
    assert (band < height) == (height == 64)
    host, mark_path = tmp_path / "host.ppm", tmp_path / "mark.pbm"
    _write_host(host, _host_samples(np.random.default_rng([maxval, height]), height, 64, maxval),
                maxval, magic)
    write_watermark(mark, mark_path)
    thresholds = [0.0, 3.0, 80.0, math.inf]
    runs = [(None, _default_rects(64, height))]
    if maxval in (255, 1000):
        # crop rows take the clean row's sums less the rectangle's: the whole
        # image, whose Pearson reads nan, and a zero area; where rows lie
        # below the band, a rectangle wholly below it and one across its
        # last row
        regions = [CropRect(0, 0, 64, height), CropRect(9, 5, 0, 0)]
        if band < height:
            regions += [CropRect(3, band, 50, height - band), CropRect(10, band - 5, 30, 10)]
        runs.append((regions, regions))
    # one rectangle reaches the right and bottom edges, one passes them
    edges = [CropRect(40, height - 20, 24, 20), CropRect(40, height - 20, 25, 20)]
    runs.append((edges, edges))
    for rects, want_rects in runs:
        rows = _bench_host(str(host), read_watermark(mark_path), thresholds, rects, maxval,
                           DEFAULT_DELTA)
        got = [_cells(row) for row in rows]
        assert got == _float_path_rows(host, mark, thresholds, want_rects, seed=maxval)
        if rects is not None and rects[0] == CropRect(0, 0, 64, height):
            assert got[-len(rects)][4] == "nan"
    assert got[-1][3:] == ("FAILED",) * 4


def test_synthesis_validates_no_pyramid_it_built(tmp_path, monkeypatch):
    # compress rows synthesise their own analyses; only the public
    # dwt2_inverse checks the pyramid it is given
    host, mark_path = tmp_path / "host.ppm", tmp_path / "mark.pbm"
    _write_host(host, _host_samples(np.random.default_rng(4), 64, 64, 255), 255, b"P6")
    write_watermark(make_mark(2, 8), mark_path)

    def refuse(pyr):
        raise AssertionError("a pyramid built here was validated")

    with monkeypatch.context() as patch:
        patch.setattr(SubbandPyramid, "validate", refuse)
        wavelet_compress(read_image(host), 3.0)
        rows = _bench_host(str(host), read_watermark(mark_path), [3.0], [], 1, DEFAULT_DELTA)
        assert _cells(rows[1])[1:3] == ("compress", "3") and "FAILED" not in _cells(rows[1])
    details = dwt2_forward(np.zeros((64, 32))).details
    with pytest.raises(DimensionError):
        dwt2_inverse(SubbandPyramid(ll=np.zeros((8, 8)), details=details))


@pytest.mark.parametrize("value", [0, 128, 255])
def test_bench_of_a_constant_host_reads_nan_pearson(tmp_path, value):
    mark = make_mark(2, 8)
    host, mark_path = tmp_path / "host.ppm", tmp_path / "mark.pbm"
    _write_host(host, np.full((64, 64, 3), value), 255, b"P6")
    write_watermark(mark, mark_path)
    rects = _default_rects(64, 64)
    rows = _bench_host(str(host), read_watermark(mark_path), [3.0], rects, 7, DEFAULT_DELTA)
    got = [_cells(row) for row in rows]
    assert got == _float_path_rows(host, mark, [3.0], rects, seed=7)
    assert all(row[4] == "nan" and "FAILED" not in row for row in got)


@pytest.mark.parametrize("maxval", MAXVALS)
def test_requantization_is_the_float_encoding(maxval):
    levels = np.arange(maxval + 1)
    want = _encode_samples(levels / maxval, 255)
    assert np.array_equal(_to_8bit(levels, maxval), want)
    if maxval == 255:  # the table skipped there is the identity
        assert np.array_equal(want, levels)


@pytest.mark.parametrize("magic", [b"P6", b"P3"])
class TestFailuresKeepTheirCategory:
    """Capacity and dimension checks run on the whole host's shape, before
    any sample becomes a float."""

    @pytest.fixture
    def files(self, tmp_path, magic):
        def host(name, height, width):
            path = tmp_path / name
            samples = _host_samples(np.random.default_rng(3), height, width, 255)
            _write_host(path, samples, 255, magic)
            return path

        mark = tmp_path / "mark.pbm"
        write_watermark(make_mark(), mark)  # 960 bits
        return tmp_path, mark, host

    def _run(self, capsys, argv):
        capsys.readouterr()
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().err

    def test_embed_dimension(self, files, capsys):
        tmp, mark, host = files
        code, err = self._run(capsys, ["embed", host("h.ppm", 100, 96), mark,
                                       tmp / "o.ppm", tmp / "o.key", "--seed", "1"])
        assert code == 4 and err.startswith("error: dimension:")
        assert not (tmp / "o.ppm").exists()

    def test_embed_capacity(self, files, capsys):
        tmp, mark, host = files
        code, err = self._run(capsys, ["embed", host("h.ppm", 64, 64), mark,
                                       tmp / "o.ppm", tmp / "o.key", "--seed", "1"])
        assert code == 4 and err.startswith("error: capacity:") and "960" in err
        assert not (tmp / "o.ppm").exists()

    @pytest.mark.parametrize("fields, height, width, category, exit_code", [
        # the key format has no other depth
        ("levels=9 subband=LL rows=15 cols=64 offset=0", 256, 256, "format", 3),
        ("levels=3 subband=LL rows=15 cols=64 offset=0", 100, 96, "dimension", 4),
        # 1035 bits, and the 256x256 host's LL3 holds 1024
        ("levels=3 subband=LL rows=15 cols=69 offset=0", 256, 256, "capacity", 4),
    ])
    def test_extract(self, files, capsys, fields, height, width, category, exit_code):
        tmp, mark, host = files
        code, _ = self._run(capsys, ["embed", host("h.ppm", 256, 256), mark, tmp / "o.ppm",
                                     tmp / "o.key", "--seed", "1"])
        assert code == 0
        lines = (tmp / "o.key").read_text().splitlines()
        lines[1] = fields
        rows, cols = (int(field.split("=")[1]) for field in fields.split()[2:4])
        lines[4] = "R=" + "00" * -(-rows * cols // 8)  # an R of matching length
        (tmp / "o.key").write_text("\n".join(lines) + "\n")
        image = host("x.ppm", height, width)
        code, err = self._run(capsys, ["extract", image, tmp / "o.key", tmp / "rec.pbm"])
        assert code == exit_code and err.startswith(f"error: {category}:")
        assert not (tmp / "rec.pbm").exists()
