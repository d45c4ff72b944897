import math
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from wavemark import BitMatrix, PlanarImage, ber, nc, pearson, psnr, read_image, read_watermark
from wavemark import FormatError, write_image, write_watermark
from wavemark.bench import _on_every_cpu
from wavemark.cli import main
from wavemark.image_io import _RASTERS, _decode
from wavemark.watermark import _mark_band
from conftest import _report_cpus, make_mark


@pytest.fixture
def workdir(tmp_path):
    host = tmp_path / "host.ppm"
    wm = tmp_path / "wm.pbm"
    assert main(["synth", str(host), "--size", "256", "--kind", "checker"]) == 0
    write_watermark(make_mark(), wm)
    return tmp_path


def _embed(workdir, *extra):
    out = workdir / "marked.ppm"
    key = workdir / "key.txt"
    code = main(
        ["embed", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
         str(out), str(key), "--seed", "42", *extra]
    )
    return code, out, key


class TestSynth:
    def test_gradient_is_definitional(self, tmp_path):
        p = tmp_path / "g.ppm"
        assert main(["synth", str(p), "--size", "16", "--kind", "gradient"]) == 0
        img = read_image(p)
        # R = x/15 quantized to bytes
        expect = np.round(np.arange(16) / 15 * 255) / 255
        assert np.allclose(img.data[0, 0, :], expect, atol=1e-12)
        assert np.allclose(img.data[1, :, 0], expect, atol=1e-12)

    def test_noise_is_seed_deterministic(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.ppm", "b.ppm", "c.ppm"))
        for p in (a, b):
            assert main(["synth", str(p), "--size", "64", "--kind", "noise", "--seed", "9"]) == 0
        assert main(["synth", str(c), "--size", "64", "--kind", "noise", "--seed", "10"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_checker_blocks(self, tmp_path):
        p = tmp_path / "c.ppm"
        assert main(["synth", str(p), "--size", "128", "--kind", "checker"]) == 0
        img = read_image(p)
        assert img.data[0, 0, 0] == round(0.25 * 255) / 255
        assert img.data[0, 0, 32] == round(0.75 * 255) / 255
        assert img.data[0, 32, 32] == round(0.25 * 255) / 255

    def test_bad_size(self, tmp_path):
        assert main(["synth", str(tmp_path / "x.ppm"), "--size", "100"]) == 4

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x.ppm"
        assert main(["synth", str(out), "--kind", "noise", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: usage: --seed") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-8"])
    def test_non_positive_size(self, tmp_path, capsys, size):
        out = tmp_path / "x.ppm"
        assert main(["synth", str(out), "--size", size]) == 4
        assert capsys.readouterr().err.startswith("error: dimension:")
        assert not out.exists()


class TestEmbedExtract:
    def test_embed_prints_metrics_and_extract_round_trips(self, workdir, capsys):
        code, out, key = _embed(workdir)
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith("psnr_db=")
        rec = workdir / "rec.pbm"
        assert main(["extract", str(out), str(key), str(rec)]) == 0
        assert capsys.readouterr().out == ""
        assert np.array_equal(read_watermark(rec).bits, make_mark().bits)

    def test_no_command_builds_an_image(self, workdir, capsys, monkeypatch):
        # embed, extract and bench hand the file's samples to the band core
        calls = []
        real = PlanarImage.__post_init__
        monkeypatch.setattr(PlanarImage, "__post_init__", lambda self: calls.append(real(self)))
        code, out, key = _embed(workdir)
        assert code == 0 and calls == []
        assert main(["extract", str(out), str(key), str(workdir / "rec.pbm")]) == 0
        assert calls == []
        assert main(["bench", str(workdir / "host.ppm"), str(workdir / "wm.pbm"), "--seed", "7"]) == 0
        assert calls == [] and "FAILED" not in capsys.readouterr().out

    def test_default_embed_on_512_host_clears_47_db(self, tmp_path, capsys):
        host = tmp_path / "host.ppm"
        assert main(["synth", str(host), "--size", "512", "--kind", "noise", "--seed", "1"]) == 0
        wm = tmp_path / "wm.pbm"
        write_watermark(make_mark(), wm)
        capsys.readouterr()
        code = main(["embed", str(host), str(wm), str(tmp_path / "o.ppm"), str(tmp_path / "k.txt")])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        psnr_db = float(printed.split()[0].split("=")[1])
        assert psnr_db >= 47.0

    def test_non_divisible_host_dimension_error(self, tmp_path, capsys):
        host = tmp_path / "bad.ppm"
        rng = np.random.default_rng(0)
        from wavemark import PlanarImage

        wm = tmp_path / "wm.pbm"
        write_watermark(make_mark(), wm)
        # sides of 2 and 4 are smaller than one LL3 coefficient's 8x8 block
        for size in (100, 2, 4):
            write_image(PlanarImage(rng.random((3, size, size))), host)
            code = main(["embed", str(host), str(wm), str(tmp_path / "o.ppm"), str(tmp_path / "k.txt")])
            assert code == 4
            err = capsys.readouterr().err
            assert err.startswith("error: dimension:")
            assert f"{size}x{size} must be divisible by 8" in err

    def test_oversized_watermark_capacity_error(self, tmp_path, capsys):
        host = tmp_path / "host.ppm"
        assert main(["synth", str(host), "--size", "512"]) == 0
        wm = tmp_path / "wm.pbm"
        write_watermark(make_mark(70, 70), wm)  # 4900 bits > 4096
        code = main(["embed", str(host), str(wm), str(tmp_path / "o.ppm"), str(tmp_path / "k.txt")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: capacity:")
        assert "4900" in err and "4096" in err

    def test_corrupted_key_magic(self, workdir, capsys):
        code, out, key = _embed(workdir)
        assert code == 0
        key.write_text("BADKEY\n" + "\n".join(key.read_text().splitlines()[1:]) + "\n")
        code = main(["extract", str(out), str(key), str(workdir / "rec.pbm")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: format:")

    def test_wrong_seed_key_scrambles(self, workdir, capsys):
        code, out, key = _embed(workdir)
        other_key = workdir / "other.txt"
        code = main(
            ["embed", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
             str(workdir / "m2.ppm"), str(other_key), "--seed", "43"]
        )
        assert code == 0
        rec = workdir / "rec.pbm"
        assert main(["extract", str(out), str(other_key), str(rec)]) == 0
        mismatches = (read_watermark(rec).bits != make_mark().bits).mean()
        assert 0.4 <= mismatches <= 0.6

    def test_missing_file_io_error(self, tmp_path, capsys):
        code = main(["extract", str(tmp_path / "nope.ppm"), str(tmp_path / "k"), str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: io:")

    @pytest.mark.parametrize("unopenable", ["image", "key"])
    def test_an_output_that_cannot_open_leaves_both_as_they_were(self, workdir, capsys, unopenable):
        # a new image beside the old key would extract wrong bits, with no error
        code, out, key = _embed(workdir)
        assert code == 0
        before = out.read_bytes(), key.read_bytes()
        paths = {"image": str(out), "key": str(key), unopenable: str(workdir / "missing" / "x")}
        code = main(["embed", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
                     paths["image"], paths["key"], "--seed", "43"])
        assert code == 3 and capsys.readouterr().err.startswith("error: io:")
        assert (out.read_bytes(), key.read_bytes()) == before

    def test_one_path_for_image_and_key_ends_up_holding_the_key(self, workdir):
        code, _, key = _embed(workdir)
        assert code == 0
        both = workdir / "both"
        assert main(["embed", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
                     str(both), str(both), "--seed", "42"]) == 0
        assert both.read_bytes() == key.read_bytes()


@pytest.fixture
def tall(tmp_path):
    """A 512x512 noise host marked by ``embed``, and its key: the 960-bit
    mark's band is the top 144 rows."""
    host, wm = tmp_path / "host.ppm", tmp_path / "wm.pbm"
    assert main(["synth", str(host), "--size", "512", "--kind", "noise", "--seed", "3"]) == 0
    write_watermark(make_mark(), wm)
    out, key = tmp_path / "marked.ppm", tmp_path / "key.txt"
    assert main(["embed", str(host), str(wm), str(out), str(key), "--seed", "5"]) == 0
    assert _mark_band(512, 512, make_mark().size) == 144
    return out, key


def _extract(capsys, image, key):
    """extract's exit code, its error line, and the bits it recovered."""
    capsys.readouterr()
    rec = Path(key).parent / "rec.pbm"
    rec.unlink(missing_ok=True)
    code = main(["extract", str(image), str(key), str(rec)])
    return code, capsys.readouterr().err, read_watermark(rec).bits if code == 0 else None


def _p6_maxval_1000(image):
    """The samples of an 8-bit P6 on the 1000 grid, and the file's header."""
    samples, _ = _decode(image, _RASTERS)
    return np.floor(samples * (1000 / 255) + 0.5).astype(">u2"), b"P6\n512 512\n1000\n"


class TestExtractReadsTheBand:
    """A binary host is read for its header and its mark's band of rows; the
    file's length is checked against the header, its other samples are not."""

    def test_a_short_payload_past_the_band_exits_format(self, tall, capsys):
        out, key = tall
        data = out.read_bytes()
        kept = (144 + 10) * 512 * 3 + 1  # the band whole, and part of a pixel
        out.write_bytes(data[:len(data) - 512 * 512 * 3 + kept])
        with pytest.raises(FormatError) as whole:  # the message of a whole read
            _decode(out, _RASTERS)
        code, err, _ = _extract(capsys, out, key)
        assert code == 3 and err == f"error: format: {whole.value}\n"
        assert err.endswith(f"truncated payload, file ends before sample {kept} of 786432\n")

    def test_bytes_after_the_last_sample_are_ignored(self, tall, capsys):
        out, key = tall
        out.write_bytes(out.read_bytes() + b"P6 # not a sample \xff\x00" * 1000)
        code, _, bits = _extract(capsys, out, key)
        assert code == 0 and np.array_equal(bits, make_mark().bits)

    def test_a_sample_above_maxval_below_the_band_is_not_read(self, tall, capsys):
        out, key = tall
        samples, header = _p6_maxval_1000(out)
        samples[300, 7, 1] = 1001
        out.write_bytes(header + samples.tobytes())
        with pytest.raises(FormatError, match="exceeds maxval 1000"):
            _decode(out, _RASTERS)  # a whole read rejects the file
        code, _, bits = _extract(capsys, out, key)
        assert code == 0 and np.array_equal(bits, make_mark().bits)

    def test_a_sample_above_maxval_in_the_band_exits_format(self, tall, capsys):
        out, key = tall
        samples, header = _p6_maxval_1000(out)
        samples[100, 7, 1] = 1001
        out.write_bytes(header + samples.tobytes())
        code, err, _ = _extract(capsys, out, key)
        first = (100 * 512 + 7) * 3 + 1
        assert code == 3
        assert err == f"error: format: {out}: sample {first} of 786432 exceeds maxval 1000\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
    def test_a_host_through_a_pipe_is_read_whole(self, tall, capsys):
        out, key = tall
        pipe = out.parent / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(out.read_bytes(),), daemon=True)
        writer.start()
        code, _, bits = _extract(capsys, pipe, key)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert code == 0 and np.array_equal(bits, make_mark().bits)

    @pytest.mark.parametrize("image, category, named", [
        (None, "io", "No such file"),
        (b"P6\n512 512\n255\n" + bytes(100), "format", "truncated payload"),
        (b"P6\n512 0\n255\n", "format", "expected height"),
        (b"P5\n512 512\n255\n" + bytes(512 * 512), "format", "P3/P6"),
        (b"P3\n512 512\n255\n" + b"0 " * 10, "format", "truncated payload"),
    ])
    def test_the_image_is_checked_before_the_key(self, tmp_path, capsys, image, category, named):
        path, key = tmp_path / "image.ppm", tmp_path / "key.txt"
        if image is not None:
            path.write_bytes(image)
        key.write_text("not a key\n")
        code, err, _ = _extract(capsys, path, key)
        assert code == 3 and err.startswith(f"error: {category}:")
        assert str(path) in err and named in err


class TestOutputsInPlace:
    """Every output is written from its start and cut where the writing
    ends, in the file that is there: an existing output, longer or shorter,
    ends up holding what a new one would."""

    @staticmethod
    def _argv(workdir, command, outs):
        marked, key = workdir / "marked.ppm", workdir / "key.txt"
        return [str(a) for a in {
            "embed": ["embed", workdir / "host.ppm", workdir / "wm.pbm", *outs, "--seed", "42"],
            "attack": ["attack", marked, outs[0], "--compress-t", "5"],
            "synth": ["synth", outs[0], "--size", "64", "--kind", "noise"],
            "extract": ["extract", marked, key, outs[0]],
        }[command]]

    @pytest.mark.parametrize("command", ["embed", "attack", "synth", "extract"])
    @pytest.mark.parametrize("stale", [b"x" * 300_000, b"P6\n"], ids=["longer", "shorter"])
    def test_an_existing_output_ends_up_as_a_new_one(self, workdir, capsys, command, stale):
        assert _embed(workdir)[0] == 0
        new = [workdir / "new0", workdir / "new1"]
        assert main(self._argv(workdir, command, new)) == 0
        old = [workdir / "old0", workdir / "old1"]
        for path in old:
            path.write_bytes(stale)
        inodes = [path.stat().st_ino for path in old]
        assert main(self._argv(workdir, command, old)) == 0
        written = [path for path in new if path.exists()]
        assert [p.read_bytes() for p in old[:len(written)]] == [p.read_bytes() for p in written]
        assert [path.stat().st_ino for path in old] == inodes  # the same files, rewritten

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
    @pytest.mark.parametrize("command", ["embed", "attack", "synth", "extract"])
    def test_an_output_through_a_pipe_is_written_whole(self, workdir, command):
        # a pipe can be neither cut nor rewritten: its bytes go straight through
        assert _embed(workdir)[0] == 0
        new = workdir / "new"
        assert main(self._argv(workdir, command, [new, workdir / "new.key"])) == 0
        pipe = workdir / "pipe"
        os.mkfifo(pipe)
        read = []
        reader = threading.Thread(target=lambda: read.append(pipe.read_bytes()), daemon=True)
        reader.start()
        assert main(self._argv(workdir, command, [pipe, workdir / "pipe.key"])) == 0
        reader.join(timeout=30)
        assert not reader.is_alive() and read == [new.read_bytes()]

    def test_embed_over_its_own_host_writes_what_it_writes_to_a_new_path(self, workdir):
        code, out, key = _embed(workdir)
        assert code == 0
        host, own_key = workdir / "host.ppm", workdir / "own.key"
        assert main(["embed", str(host), str(workdir / "wm.pbm"), str(host), str(own_key),
                     "--seed", "42"]) == 0
        assert host.read_bytes() == out.read_bytes()
        assert own_key.read_bytes() == key.read_bytes()


class TestHostileInputs:
    """Malformed files leave through their documented category, never a traceback."""

    def test_oversized_p3_header_on_extract(self, workdir, capsys):
        _, _, key = _embed(workdir)
        host = workdir / "huge.ppm"
        host.write_bytes(b"P3\n1073741824 1073741824\n255\n0 0 0\n")
        assert main(["extract", str(host), str(key), str(workdir / "rec.pbm")]) == 3
        assert capsys.readouterr().err.startswith("error: format:")

    def test_oversized_p1_mark_on_embed(self, workdir, capsys):
        mark = workdir / "huge.pbm"
        mark.write_bytes(b"P1\n1073741824 1073741824\n0 1\n")
        code = main(["embed", str(workdir / "host.ppm"), str(mark),
                     str(workdir / "o.ppm"), str(workdir / "k.txt"), "--seed", "1"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: format:")

    def test_non_utf8_key(self, workdir, capsys):
        code, out, key = _embed(workdir)
        key.write_bytes(b"\xff\xfe" + key.read_bytes())
        assert main(["extract", str(out), str(key), str(workdir / "rec.pbm")]) == 3
        assert capsys.readouterr().err.startswith("error: format:")

    def test_infinite_delta_in_key(self, workdir, capsys):
        code, out, key = _embed(workdir)
        lines = key.read_text().splitlines()
        lines[2] = "delta=inf"
        key.write_text("\n".join(lines) + "\n")
        assert main(["extract", str(out), str(key), str(workdir / "rec.pbm")]) == 3
        assert capsys.readouterr().err.startswith("error: format:")

    @pytest.mark.parametrize("t", ["-1", "nan"])
    def test_bad_threshold_flag_before_a_bad_size_host(self, workdir, capsys, t):
        # the flag is checked before the file is read, so a host whose sides
        # do not divide by 8 still gives a usage error
        host = workdir / "odd.ppm"
        write_image(PlanarImage(np.zeros((3, 100, 100))), host)
        assert main(["attack", str(host), str(workdir / "a.ppm"), "--compress-t", t]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "--compress-t" in err
        assert not (workdir / "a.ppm").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--crop", "1,2,3"], "--crop"),
        (["--crop", "0,0,8,-8"], "--crop"),
        (["--crop", "0,0,8,8", "--fill", "2"], "--fill"),
        (["--crop", "0,0,8,8", "--fill", "-0.5"], "--fill"),
        (["--crop", "0,0,8,8", "--fill", "nan"], "--fill"),
        (["--compress-t", "3", "--fill", "7"], "--fill"),
    ])
    def test_bad_crop_flags_before_the_image(self, workdir, capsys, flags, named):
        # a missing image would exit io (3): the flags are checked first
        out = workdir / "a.ppm"
        assert main(["attack", str(workdir / "missing.ppm"), str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: usage:") and named in captured.err
        assert captured.out == "" and not out.exists()

    def test_infinite_delta_flag(self, workdir, capsys):
        code, _, _ = _embed(workdir, "--delta", "inf")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "delta" in err

    @pytest.mark.parametrize("shape, r_hex", [("rows=-1 cols=-1", "00"), ("rows=0 cols=64", "")])
    def test_key_shape_must_be_positive(self, workdir, capsys, shape, r_hex):
        code, out, key = _embed(workdir)
        lines = key.read_text().splitlines()
        lines[1] = f"levels=3 subband=LL {shape} offset=0"
        lines[4] = f"R={r_hex}"
        key.write_text("\n".join(lines) + "\n")
        rec = workdir / "rec.pbm"
        assert main(["extract", str(out), str(key), str(rec)]) == 3
        assert capsys.readouterr().err.startswith("error: format:")
        assert not rec.exists()


    def _extract_with(self, workdir, line, text):
        _, out, key = _embed(workdir)
        lines = key.read_text().splitlines()
        lines[line] = text
        key.write_text("\n".join(lines) + "\n")
        rec = workdir / "rec.pbm"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["extract", str(out), str(key), str(rec)])
        assert not caught, [str(w.message) for w in caught]
        return code, rec

    @pytest.mark.parametrize("levels", [0, 17, 99999999999])
    def test_unbounded_levels_in_key(self, workdir, capsys, levels):
        code, rec = self._extract_with(
            workdir, 1, f"levels={levels} subband=LL rows=15 cols=64 offset=0")
        assert code == 3
        err = capsys.readouterr().err
        # the message, not the key's path, which holds the test's name
        assert err.startswith("error: format:") and f"levels '{levels}'" in err
        assert not rec.exists()

    @pytest.mark.parametrize("line, text, named", [
        (1, "levels=3 subband=HH rows=15 cols=64 offset=0", "'HH'"),
        (1, "levels=2 subband=LL rows=15 cols=64 offset=0", "levels '2'"),
        (1, "levels=16 subband=LL rows=15 cols=64 offset=0", "levels '16'"),
        (1, "levels=3 subband=LL rows=15 cols=64 offset=1", "offset '1'"),
        (1, "levels=3 subband=LL rows=15 cols=64 offset=3000", "offset '3000'"),
        (3, "seed=-1", "seed -1"),
        (3, f"seed={2**64}", f"seed {2**64}"),
    ])
    def test_key_field_outside_the_format(self, workdir, capsys, line, text, named):
        code, rec = self._extract_with(workdir, line, text)
        assert code == 3 and not rec.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: format:") and named in err

    def test_levels_deeper_than_the_image(self, workdir, capsys):
        # the format's 3 levels need sides divisible by 8; a 4-row image
        # is rejected before any band is sized
        _, _, key = _embed(workdir)
        tiny, rec = workdir / "tiny.ppm", workdir / "rec.pbm"
        tiny.write_bytes(b"P6\n8 4\n255\n" + bytes(8 * 4 * 3))
        assert main(["extract", str(tiny), str(key), str(rec)]) == 4
        assert capsys.readouterr().err.startswith("error: dimension:") and not rec.exists()

    @pytest.mark.parametrize("delta", ["1e-320", "1e-300", "1e-06"])
    def test_tiny_delta_in_key(self, workdir, capsys, delta):
        code, rec = self._extract_with(workdir, 2, f"delta={delta}")
        assert code == 3
        err = capsys.readouterr().err
        # the message, not the key's path, which holds the test's name
        assert err.startswith("error: format:") and "delta must lie in" in err
        assert not rec.exists()

    @pytest.mark.parametrize("delta", ["1e-300", "1e-320"])
    def test_tiny_delta_flag(self, workdir, capsys, delta):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = _embed(workdir, "--delta", delta)
        assert not caught, [str(w.message) for w in caught]
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "delta" in err

    @pytest.mark.parametrize("delta", ["128", "1e3", "1e308"])
    def test_huge_delta_flag(self, workdir, capsys, delta):
        # |LL3| < 64, so from 2 * 4**3 = 128 up every coefficient is in bin 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = _embed(workdir, "--delta", delta)
        assert not caught, [str(w.message) for w in caught]
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: usage: --delta")

    @pytest.mark.parametrize("delta", ["128", "1e308", "1e-300"])
    @pytest.mark.parametrize("host", ["host.ppm", "missing.ppm"])
    def test_bench_delta_flag(self, workdir, capsys, delta, host):
        # the flag is checked before any host is read: a missing host would
        # otherwise leave an embed FAILED row and exit 0
        code = main(["bench", str(workdir / host), str(workdir / "wm.pbm"),
                     "--delta", delta, "--seed", "1", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: usage: --delta")

    @pytest.mark.parametrize("delta", ["128", "1e308"])
    @pytest.mark.parametrize("host", ["host.ppm", "missing.ppm"])
    def test_embed_delta_flag_before_host(self, workdir, capsys, delta, host):
        out = workdir / "o.ppm"
        code = main(["embed", str(workdir / host), str(workdir / "wm.pbm"), str(out),
                     str(workdir / "k.txt"), "--delta", delta, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: usage: --delta")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("host", ["host.ppm", "missing.ppm"])
    def test_embed_seed_flag(self, workdir, capsys, seed, host):
        out, key = workdir / "o.ppm", workdir / "k.txt"
        code = main(["embed", str(workdir / host), str(workdir / "wm.pbm"), str(out), str(key),
                     "--seed", str(seed)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert not out.exists() and not key.exists()
        assert captured.err.startswith("error: usage: --seed")

    @pytest.mark.parametrize("seed, hosts", [(-1, 1), (2**64, 1), (2**64 - 1, 2)])
    def test_bench_seed_flag(self, workdir, capsys, seed, hosts):
        # host i embeds with seed + i, so the last host's seed must fit too
        paths = [str(workdir / "host.ppm")] * hosts
        code = main(["bench", *paths, str(workdir / "wm.pbm"), "--seed", str(seed),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: usage: --seed")

    def test_bench_seed_flag_at_the_top(self, workdir, capsys):
        host = str(workdir / "host.ppm")
        code = main(["bench", host, host, str(workdir / "wm.pbm"), "--seed", str(2**64 - 2),
                     "--format", "csv"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert code == 0 and len(rows) == 12
        assert not any("FAILED" in row for row in rows)

    @pytest.mark.parametrize("thresholds", ["nan", "3,nan"])
    def test_bench_nan_threshold(self, workdir, capsys, thresholds):
        code = main(["bench", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
                     "--thresholds", thresholds, "--seed", "1", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: usage: --thresholds")

    @pytest.mark.parametrize("levels, delta, code", [
        (3, "128.0", 3), (3, "1e+300", 3), (1, "16.0", 3), (2, "16.0", 3),
    ])
    def test_huge_delta_in_key(self, workdir, capsys, levels, delta, code):
        # the bound is 2 * 4**3 = 128; a key of another depth, which once
        # had its own bound 2 * 4**levels, is outside the format
        _, out, key = _embed(workdir)
        lines = key.read_text().splitlines()
        lines[1] = f"levels={levels} subband=LL rows=15 cols=64 offset=0"
        lines[2] = f"delta={delta}"
        key.write_text("\n".join(lines) + "\n")
        rec = workdir / "rec.pbm"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["extract", str(out), str(key), str(rec)]) == code
        assert not caught, [str(w.message) for w in caught]
        assert rec.exists() == (code == 0)
        if code:
            err = capsys.readouterr().err
            named = "delta must lie" if levels == 3 else f"levels '{levels}'"
            assert err.startswith("error: format:") and named in err

    def test_delta_at_the_floor(self, workdir):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, key = _embed(workdir, "--delta", repr(2.0**-19))
            assert code == 0
            assert main(["extract", str(out), str(key), str(workdir / "rec.pbm")]) == 0
        assert not caught, [str(w.message) for w in caught]



def _bad_key(key, line: int, text: str) -> None:
    lines = key.read_text().splitlines()
    lines[line] = text
    key.write_text("\n".join(lines) + "\n")


class TestErrorLinesQuoteAPrefix:
    """An error quotes at most 24 bytes of a bad token and marks the cut, so a
    token of any length gives a short line; a shorter token is quoted whole."""

    MIB = 1 << 20

    @pytest.fixture
    def marked(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)  # short paths: the line's length is the message's
        _embed(workdir)
        return Path("marked.ppm"), Path("key.txt")

    def _error(self, capsys, image, key):
        capsys.readouterr()
        assert main(["extract", str(image), str(key), "rec.pbm"]) == 3
        return capsys.readouterr().err

    @pytest.mark.parametrize("data, named", [
        (b"\x80" * MIB, "image.ppm: byte 0: unsupported magic b'\\x80"),
        (b"P6\n" + b"1" * MIB + b" 256\n255\n", "image.ppm: byte 3: expected width"),
        (b"P3\n256 256\n255\n" + b"1" * MIB + b"x 0\n", "image.ppm: sample 0 of 196608:"),
    ], ids=["magic", "width", "sample"])
    def test_a_long_image_token(self, marked, capsys, data, named):
        Path("image.ppm").write_bytes(data)
        err = self._error(capsys, "image.ppm", marked[1])
        assert err.startswith(f"error: format: {named}") and "'..." in err
        assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) < 200

    @pytest.mark.parametrize("line, text, named", [
        (0, "W" * MIB, "bad magic 'WWW"),
        (1, "levels=3 subband=LL rows=15 cols=64 offset=0 x=" + "y" * MIB, "unexpected field 'x=yyy"),
        (1, "levels=" + "3" * MIB, "missing field(s) ['subband', 'rows', 'cols', 'offset'] in"),
        (1, "levels=3 subband=" + "L" * MIB + " rows=15 cols=64 offset=0", "unsupported subband 'LLL"),
        (2, "delta=" + "x" * MIB, "malformed numeric field: 'xxx"),
    ], ids=["magic", "unexpected", "missing", "subband", "delta"])
    def test_a_long_key_field(self, marked, capsys, line, text, named):
        _bad_key(marked[1], line, text)
        err = self._error(capsys, *marked)
        assert err.startswith(f"error: format: key.txt: {named}") and "'..." in err
        assert err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize("data, message", [
        (b"P0\n", "byte 0: unsupported magic b'P0', expected P3/P6"),
        (b"P6\n12x 256\n255\n", "byte 3: expected width in [1, 1073741824], got b'12x'"),
        (b"P3\n8 8\n255\n1 2x 3\n", "sample 1 of 192: expected a decimal integer, got b'2x'"),
        (b"P3\n8 8\n255\n" + b"1" * 23 + b"x\n",
         "sample 0 of 192: expected a decimal integer, got b'11111111111111111111111x'"),
        (b"P3\n8 8\n255\n" + b"1" * 24 + b"x\n",
         "sample 0 of 192: expected a decimal integer, got b'111111111111111111111111'..."),
    ])
    def test_a_short_image_token_is_quoted_whole(self, marked, capsys, data, message):
        Path("image.ppm").write_bytes(data)
        assert self._error(capsys, "image.ppm", marked[1]) == f"error: format: image.ppm: {message}\n"

    @pytest.mark.parametrize("line, text, message", [
        (0, "WMKEY2", "bad magic 'WMKEY2', expected 'WMKEY1'"),
        (1, "levels=3 subband=LL rows=15 cols=64 offset=0 x=y", "unexpected field 'x=y'"),
        (1, "levels=3", "missing field(s) ['subband', 'rows', 'cols', 'offset'] in 'levels=3'"),
        (1, "levels=3 subband=HH rows=15 cols=64 offset=0", "unsupported subband 'HH', expected 'LL'"),
        (2, "delta=x", "malformed numeric field: could not convert string to float: 'x'"),
        (3, "seed=x", "malformed numeric field: invalid literal for int() with base 10: 'x'"),
    ])
    def test_a_short_key_field_is_quoted_whole(self, marked, capsys, line, text, message):
        _bad_key(marked[1], line, text)
        assert self._error(capsys, *marked) == f"error: format: key.txt: {message}\n"

class TestUsagePath:
    """Every command line the parser rejects, argparse's own rejections
    included, leaves as one ``error: usage:`` line naming the flag."""

    @pytest.mark.parametrize("argv, named", [
        (["embed", "{host}", "{wm}", "{out}"], "out_key"),
        (["stamp", "{host}", "{out}"], "'stamp'"),
        (["bench", "{host}", "{wm}", "--format", "xml"], "--format"),
        (["embed", "{host}", "{wm}", "{out}", "{key}", "--delta", "abc"], "--delta"),
        (["embed", "{host}", "{wm}", "{out}", "{key}", "--delta", "128"], "--delta"),
        (["bench", "{host}", "{wm}", "--thresholds", "3,nan"], "--thresholds"),
        (["bench", "{host}", "{wm}", "--thresholds", ","], "--thresholds"),
        (["bench", "{host}", "{wm}", "--crops", ";"], "--crops"),
        (["attack", "{host}", "{out}", "--crop", "1,2,3"], "--crop"),
        (["attack", "{host}", "{out}", "--crop", "0,0,8,8", "--fill", "2"], "--fill"),
        (["attack", "{host}", "{out}"], "--compress-t"),
        (["attack", "{host}", "{out}", "--compress-t", "3", "--crop", "0,0,8,8"], "--crop"),
        # a malformed number reads in argparse's words, for int and float flags
        # alike; a malformed crop rectangle keeps its own
        (["embed", "{host}", "{wm}", "{out}", "{key}", "--delta", "abc"],
         "--delta: invalid float value: 'abc'"),
        (["embed", "{host}", "{wm}", "{out}", "{key}", "--seed", "abc"],
         "--seed: invalid int value: 'abc'"),
        (["attack", "{host}", "{out}", "--compress-t", "x"], "--compress-t: invalid float value: 'x'"),
        (["attack", "{host}", "{out}", "--crop", "0,0,8,8", "--fill", "q"],
         "--fill: invalid float value: 'q'"),
        (["bench", "{host}", "{wm}", "--thresholds", "3,abc"],
         "--thresholds: invalid float value: 'abc'"),
        (["attack", "{host}", "{out}", "--crop", "1,2,3"],
         "--crop: crop rectangle must be four integers x,y,w,h, got '1,2,3'"),
    ])
    def test_one_error_line(self, workdir, capsys, argv, named):
        names = {"host": "host.ppm", "wm": "wm.pbm", "out": "out.ppm", "key": "key.txt"}
        paths = {name: str(workdir / file) for name, file in names.items()}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: usage: ")
        assert named in captured.err
        assert not (workdir / "out.ppm").exists() and not (workdir / "key.txt").exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wavemark attack")

    def test_process_exit_status(self, tmp_path):
        # main's return value is the process's exit status
        import wavemark

        env = {**os.environ, "PYTHONPATH": str(Path(wavemark.__file__).parents[1])}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "wavemark.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True)

        bad = run("attack", "in.ppm", "out.ppm", "--fill", "2")
        assert bad.returncode == 2 and bad.stdout == ""
        assert bad.stderr.count("\n") == 1 and bad.stderr.startswith("error: usage: --fill")
        good = run("synth", "host.ppm", "--size", "16")
        assert good.returncode == 0, good.stderr
        assert (tmp_path / "host.ppm").exists() and not (tmp_path / "out.ppm").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux")
@pytest.mark.parametrize("argv", [
    ["synth", "o.ppm", "--size", "65536", "--kind", "noise"],  # 96 GiB of samples
    ["synth", "o.ppm", "--size", "1099511627776"],  # an 8 TiB axis
])
def test_an_input_too_large_for_memory_exits_memory(tmp_path, argv):
    # the child alone is capped, so the allocation fails at once and fills nothing
    import wavemark

    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from wavemark.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(wavemark.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 4, done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: memory: ")
    assert "Traceback" not in done.stderr and done.stdout == ""


class TestGrayscaleHost:
    """The mark lives in colour luma: a PGM host is a format error, not usage."""

    @pytest.fixture
    def gray(self, workdir):
        path = workdir / "gray.pgm"
        write_image(PlanarImage(read_image(workdir / "host.ppm").data[:1]), path)
        return path

    def test_embed(self, workdir, gray, capsys):
        code = main(["embed", str(gray), str(workdir / "wm.pbm"),
                     str(workdir / "o.ppm"), str(workdir / "k.txt"), "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: format:") and "P3/P6" in err

    def test_extract(self, workdir, gray, capsys):
        _, _, key = _embed(workdir)
        capsys.readouterr()
        assert main(["extract", str(gray), str(key), str(workdir / "rec.pbm")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: format:") and "P3/P6" in err

    def test_bench_keeps_a_failed_row(self, workdir, gray, capsys):
        assert main(["bench", str(gray), str(workdir / "wm.pbm"), "--seed", "1", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows == [f"{gray},embed,-,FAILED,FAILED,FAILED,FAILED"]


class TestAttack:
    def test_compress_zero_threshold_round_trips_bytes(self, workdir, capsys):
        code, out, _ = _embed(workdir)
        attacked = workdir / "att.ppm"
        assert main(["attack", str(out), str(attacked), "--compress-t", "0"]) == 0
        assert attacked.read_bytes() == out.read_bytes()

    def test_empty_crop_round_trips_bytes(self, workdir):
        code, out, _ = _embed(workdir)
        attacked = workdir / "att.ppm"
        assert main(["attack", str(out), str(attacked), "--crop", "0,0,0,0"]) == 0
        assert attacked.read_bytes() == out.read_bytes()

    def test_crop_beyond_bounds(self, workdir, capsys):
        code, out, _ = _embed(workdir)
        code = main(["attack", str(out), str(workdir / "a.ppm"), "--crop", "200,200,100,100"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_both_or_neither_attack_flags(self, workdir, capsys):
        code, out, _ = _embed(workdir)
        assert main(["attack", str(out), str(workdir / "a.ppm")]) == 2
        assert (
            main(["attack", str(out), str(workdir / "a.ppm"),
                  "--compress-t", "3", "--crop", "0,0,8,8"])
            == 2
        )

    def test_crop_with_fill(self, workdir):
        code, out, _ = _embed(workdir)
        attacked = workdir / "att.ppm"
        assert main(["attack", str(out), str(attacked), "--crop", "0,0,16,16", "--fill", "1.0"]) == 0
        img = read_image(attacked)
        assert np.all(img.data[:, :16, :16] == 1.0)


class TestBench:
    def test_clean_row_and_threshold_trend(self, workdir, capsys):
        code = main(
            ["bench", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
             "--seed", "42", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "host,scenario,param,psnr_db,pearson,nc,ber_percent"
        rows = [line.split(",") for line in lines[1:] if line]
        clean = [r for r in rows if r[1] == "clean"][0]
        assert clean[-1] == "0.0000" and clean[-2] == "1.000000"
        compress = [r for r in rows if r[1] == "compress"]
        assert [r[2] for r in compress] == ["3", "5", "7"]
        bers = [float(r[-1]) for r in compress]
        assert bers[0] <= bers[1] <= bers[2]
        crops = [line for line in lines[1:] if ",crop," in line]
        assert len(crops) == 2 and crops[0].count('"') == 2  # rect param quoted

    def test_attacks_receive_parsed_values_not_labels(self, workdir, capsys, monkeypatch):
        from wavemark import bench
        from wavemark.attacks import CropRect

        thresholds, rects = [], []
        real_compressor, real_window = bench._compressor, CropRect.window

        def spy_compressor(samples, maxval):
            compress = real_compressor(samples, maxval)

            def spy(t):
                thresholds.append(t)
                return compress(t)

            return spy

        def spy_window(rect, *args, **kwargs):
            rects.append(rect)
            return real_window(rect, *args, **kwargs)

        monkeypatch.setattr(bench, "_compressor", spy_compressor)
        monkeypatch.setattr(CropRect, "window", spy_window)
        code = main(
            ["bench", str(workdir / "host.ppm"), str(workdir / "wm.pbm"), "--seed", "42",
             "--thresholds", "3.1234567", "--crops", "1,2,30,40", "--format", "csv"]
        )
        assert code == 0
        assert thresholds == [3.1234567]
        assert rects == [CropRect(1, 2, 30, 40)] and type(rects[0]) is CropRect
        import csv as _csv

        rows = [row[1:3] for row in _csv.reader(capsys.readouterr().out.splitlines()[1:])]
        assert rows == [["clean", "-"], ["compress", "3.12346"], ["crop", "1,2,30,40"]]

    def test_csv_runs_are_byte_identical(self, workdir, capsys):
        args = ["bench", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
                "--seed", "42", "--format", "csv"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_csv_does_not_depend_on_the_cpu_count(self, workdir, capsys, monkeypatch):
        noise, bad = workdir / "noise.ppm", workdir / "bad.ppm"
        assert main(["synth", str(noise), "--size", "256", "--kind", "noise"]) == 0
        write_image(PlanarImage(np.random.default_rng(1).random((3, 100, 100))), bad)
        hosts = [str(workdir / "host.ppm"), str(bad), str(noise)]
        # the two default quarters of a 256x256 host, then one past its right edge
        crops = ["0,0,128,128", "64,64,128,128", "200,0,57,10"]
        args = ["bench", *hosts, str(workdir / "wm.pbm"), "--seed", "42", "--format", "csv",
                "--thresholds", "0,3,80,inf", "--crops", ";".join(crops)]
        outputs = []
        for cpus in (1, 2, 4):
            _report_cpus(monkeypatch, cpus)
            assert main(args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        import csv as _csv

        rows = list(_csv.reader(outputs[0].splitlines()[1:]))
        scenarios = [("clean", "-")] + [("compress", t) for t in ("0", "3", "80", "inf")]
        scenarios += [("crop", c) for c in crops]
        assert [tuple(row[:3]) for row in rows] == (
            [(hosts[0], *s) for s in scenarios] + [(hosts[1], "embed", "-")]
            + [(hosts[2], *s) for s in scenarios]
        )
        failed = [i for i, row in enumerate(rows) if row[3:] == ["FAILED"] * 4]
        assert failed == [len(scenarios) - 1, len(scenarios), 2 * len(scenarios)]

    def test_rows_equal_the_cli_pipeline(self, tmp_path, capsys):
        # embed, attack and extract give each row's nc and ber, and the
        # attacked file against the host its psnr and pearson
        host, mark = tmp_path / "host.ppm", tmp_path / "wm.pbm"
        assert main(["synth", str(host), "--size", "256", "--kind", "noise", "--seed", "3"]) == 0
        write_watermark(make_mark(), mark)
        assert main(["bench", str(host), str(mark), "--seed", "42", "--format", "csv"]) == 0
        import csv as _csv

        rows = list(_csv.reader(capsys.readouterr().out.splitlines()[1:]))
        marked, key, rec = tmp_path / "marked.ppm", tmp_path / "key.txt", tmp_path / "rec.pbm"
        assert main(["embed", str(host), str(mark), str(marked), str(key), "--seed", "42"]) == 0
        scenarios = [("clean", "-", []), *(("compress", t, ["--compress-t", t]) for t in "357")]
        scenarios += [("crop", r, ["--crop", r]) for r in ("0,0,128,128", "64,64,128,128")]
        original, bits, want = read_image(host), make_mark(), []
        for scenario, param, flags in scenarios:
            attacked = tmp_path / "attacked.ppm" if flags else marked
            if flags:
                assert main(["attack", str(marked), str(attacked), *flags]) == 0
            assert main(["extract", str(attacked), str(key), str(rec)]) == 0
            image, recovered = read_image(attacked), read_watermark(rec)
            want.append([str(host), scenario, param, f"{psnr(original, image):.4f}",
                         f"{pearson(original, image):.6f}", f"{nc(bits, recovered):.6f}",
                         f"{ber(bits, recovered):.4f}"])
        assert rows == want

    def test_failed_row_continues(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        rng = np.random.default_rng(1)
        from wavemark import PlanarImage

        write_image(PlanarImage(rng.random((3, 100, 100))), bad)
        good = tmp_path / "good.ppm"
        assert main(["synth", str(good), "--size", "256", "--kind", "noise"]) == 0
        wm = tmp_path / "wm.pbm"
        write_watermark(make_mark(), wm)
        code = main(["bench", str(bad), str(good), str(wm), "--seed", "1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if "FAILED" in line]
        assert len(failed) == 1 and failed[0].startswith(str(bad))
        good_rows = [line for line in lines if line.startswith(str(good))]
        assert len(good_rows) == 6  # clean + 3 thresholds + 2 default crops

    def test_a_blank_mark_reads_nan_nc(self, workdir, capsys):
        # NC is undefined with no ink in the reference: its column reads nan,
        # as an undefined Pearson does, and the other columns keep their values
        blank = workdir / "blank.pbm"
        write_watermark(BitMatrix(np.zeros((15, 64), np.uint8)), blank)
        args = ["bench", str(workdir / "host.ppm"), str(blank), "--seed", "1", "--format", "csv"]
        assert main(args) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["clean", *["compress"] * 3, *["crop"] * 2]
        for row in rows:
            psnr_db, r, nc_cell, ber_cell = row[-4:]
            assert nc_cell == "nan"
            assert not any(math.isnan(float(cell)) for cell in (psnr_db, r, ber_cell))
        assert rows[0][-1] == "0.0000"

    def test_text_format_matches_csv_values(self, workdir, capsys):
        args = ["bench", str(workdir / "host.ppm"), str(workdir / "wm.pbm"), "--seed", "7"]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert main(args + ["--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        text_cells = [line.split() for line in text.splitlines()[1:]]
        import csv as _csv

        csv_cells = list(_csv.reader(csv_out.splitlines()[1:]))
        for t_row, c_row in zip(text_cells, csv_cells):
            # text rows split on whitespace; rect params contain no spaces
            assert t_row == [c for c in c_row if c != ""] or t_row == c_row


class TestParallelAnalyses:
    """Each host's channel analyses run on every CPU, and end before its
    rows start."""

    def test_csv_with_more_threads_than_pyramids(self, workdir, capsys, monkeypatch):
        noise = workdir / "noise.ppm"
        assert main(["synth", str(noise), "--size", "256", "--kind", "noise"]) == 0
        args = ["bench", str(workdir / "host.ppm"), str(noise), str(workdir / "wm.pbm"),
                "--seed", "42", "--format", "csv", "--thresholds", "0,1,3,5,7,40,80,inf"]
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # a row that started before the analyses ended would read a half-made pyramid
        try:
            for cpus in (1, 3, 8):
                _report_cpus(monkeypatch, cpus)
                assert main(args) == 0
                outputs.append(capsys.readouterr().out)
        finally:
            sys.setswitchinterval(interval)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert len(outputs[0].splitlines()) == 1 + 2 * 11 and "FAILED" not in outputs[0]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_a_failed_analysis_ends_the_call(self, workdir, capsys, monkeypatch, cpus, error):
        # as when the compressor raised before the rows started: MemoryError
        # exits memory, and ValueError exits usage
        from wavemark import bench

        real = bench._analyse
        extracted = []
        real_extract = bench._extract_band

        def analyse(samples, maxval, grids):
            # channel 1 of the marked samples starts one byte into them
            if samples.ctypes.data - samples.base.ctypes.data == 1:
                raise error("analysis of channel 1")
            return real(samples, maxval, grids)

        monkeypatch.setattr(bench, "_analyse", analyse)
        monkeypatch.setattr(bench, "_extract_band",
                            lambda *args: extracted.append(args) or real_extract(*args))
        _report_cpus(monkeypatch, cpus)
        ended = []

        def bench():
            try:
                ended.append(main(["bench", str(workdir / "host.ppm"), str(workdir / "wm.pbm"),
                                   "--seed", "42", "--format", "csv"]))
            except MemoryError as exc:
                ended.append(exc)

        runner = threading.Thread(target=bench, daemon=True)  # a hang fails the test
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert extracted == []  # no row starts once an analysis has raised
        out, err = capsys.readouterr()
        assert out == ""
        code, category = (4, "memory") if error is MemoryError else (2, "usage")
        assert ended == [code] and err == f"error: {category}: analysis of channel 1\n"


class TestOnEveryCpu:
    """The scheduler under bench: each index runs once, on the caller alone
    when there is one CPU, and a task's error reaches the caller."""

    def test_each_index_runs_once_under_contention(self, monkeypatch):
        _report_cpus(monkeypatch, 8)
        n, seen, threads = 5000, [], set()
        last_ran = threading.Event()

        def task(i):
            seen.append(i)
            threads.add(threading.get_ident())
            if i == 0:  # hold the first thread until others have run the rest
                last_ran.wait(timeout=30)
            elif i == n - 1:
                last_ran.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=_on_every_cpu, args=(n, task))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(seen) == list(range(n))
        assert last_ran.is_set() and len(threads) > 1

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_returns_every_result_in_index_order(self, monkeypatch, cpus):
        _report_cpus(monkeypatch, cpus)
        n, threads = 200, {}
        last_ran = threading.Event()

        def task(i):
            if i == 0 and cpus > 1:  # so task 0 ends last, on its own thread
                last_ran.wait(timeout=30)
            elif i == n - 1:
                last_ran.set()
            threads[i] = threading.get_ident()
            return i, i * i

        assert _on_every_cpu(n, task) == [(i, i * i) for i in range(n)]
        ran_on = len(set(threads.values()))
        assert (ran_on > 1) == (cpus > 1) and ran_on <= cpus and last_ran.is_set()

    def test_no_tasks_return_an_empty_list(self, monkeypatch):
        _report_cpus(monkeypatch, 4)
        assert _on_every_cpu(0, lambda i: pytest.fail("no task runs")) == []

    def test_one_cpu_runs_every_index_on_the_caller(self, monkeypatch):
        _report_cpus(monkeypatch, 1)
        threads = []
        _on_every_cpu(10, lambda i: threads.append(threading.get_ident()))
        assert threads == [threading.get_ident()] * 10

    def test_a_task_error_reaches_the_caller(self, monkeypatch):
        _report_cpus(monkeypatch, 4)

        def task(i):
            if i == 5:
                raise RuntimeError("task 5")

        with pytest.raises(RuntimeError, match="task 5"):
            _on_every_cpu(20, task)

    def test_the_workers_serve_every_call(self, monkeypatch):
        # a host's analyses and its rows are two calls: workers started for
        # the second, as the first call's exit, could each make one more heap
        _report_cpus(monkeypatch, 3)
        calls = []
        for _ in range(2):
            arrived, threads = threading.Barrier(3), set()

            def task(i):
                arrived.wait(timeout=30)  # so each of the three threads takes one index
                threads.add(threading.current_thread())

            _on_every_cpu(3, task)
            calls.append(threads - {threading.current_thread()})
        assert len(calls[0]) == 2 and calls[1] == calls[0]


def test_readme_round_trip(tmp_path, monkeypatch, capsys):
    """The README's command-line round trip runs as written, every step exit 0."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    script = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S)[1]
    monkeypatch.chdir(tmp_path)
    steps = []
    for line in script.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:2] == ["python", "-c"]:
            exec(argv[2], {})
        elif argv:
            assert argv[0] == "wavemark"
            assert main(argv[1:]) == 0, line
        steps.append(argv[:2])
    assert [s for s in steps if s] == [
        ["wavemark", "synth"], ["python", "-c"], ["wavemark", "embed"],
        ["wavemark", "attack"], ["wavemark", "attack"], ["wavemark", "extract"],
        ["wavemark", "bench"],
    ]
    assert read_watermark("recovered.pbm").size == 15 * 64
    assert "FAILED" not in capsys.readouterr().out
