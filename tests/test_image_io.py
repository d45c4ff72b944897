import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemark import BitMatrix, FormatError, PlanarImage, image_io, quantize
from wavemark.image_io import (
    _TEXT_BLOCK,
    _decimal_samples,
    _encode_samples,
    _file_samples,
    _read_samples,
    read_image,
    read_watermark,
    round_half_away,
    write_image,
    write_watermark,
)


def _netpbm(magic: bytes, samples: np.ndarray, maxval: int = 1) -> bytes:
    """Encode integer samples shaped (height, width, channels) as one Netpbm file."""
    height, width, _ = samples.shape
    header = b"%s\n%d %d\n" % (magic, width, height)
    if magic == b"P4":
        return header + np.packbits(samples[:, :, 0], axis=1).tobytes()
    if magic != b"P1":
        header += b"%d\n" % maxval
    if magic in (b"P5", b"P6"):
        return header + samples.astype(np.uint8 if maxval < 256 else ">u2").tobytes()
    sep = b"" if magic == b"P1" else b" "
    rows = (sep.join(b"%d" % v for v in row.ravel()) for row in samples)
    return header + b"\n".join(rows) + b"\n"


def test_round_half_away():
    vals = round_half_away([0.5, 1.5, 2.5, -0.5, -1.5, 127.5, -127.5, 0.49, -0.49])
    assert list(vals) == [1.0, 2.0, 3.0, -1.0, -2.0, 128.0, -128.0, 0.0, -0.0]


class TestPlanarImage:
    def test_shape_and_range_enforced(self):
        with pytest.raises(ValueError):
            PlanarImage(np.zeros((2, 4, 4)))  # 2 channels
        with pytest.raises(ValueError):
            PlanarImage(np.full((1, 2, 2), 1.5))
        with pytest.raises(ValueError):
            PlanarImage(np.full((1, 2, 2), np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_single_non_finite_sample_rejected(self, bad):
        data = np.random.default_rng(0).random((3, 4, 6))
        data[1, 2, 3] = bad
        with pytest.raises(ValueError):
            PlanarImage(data)

    def test_properties(self):
        img = PlanarImage(np.zeros((3, 4, 6)))
        assert (img.channels, img.height, img.width) == (3, 4, 6)


class TestBitMatrix:
    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitMatrix(np.array([[0, 2]]))

    def test_accepts_bool(self):
        bm = BitMatrix(np.array([[True, False]]))
        assert bm.bits.dtype == np.uint8 and bm.size == 2


class TestReadImage:
    def test_pgm_endpoint_mapping(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        img = read_image(p)
        assert img.channels == 1 and (img.width, img.height) == (2, 1)
        assert img.data[0, 0, 0] == 0.0 and img.data[0, 0, 1] == 1.0

    def test_ppm_pure_red_pixel(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = read_image(p)
        assert img.channels == 3
        assert tuple(img.data[:, 0, 0]) == (1.0, 0.0, 0.0)

    def test_ascii_formats_with_comments(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2 # comment\n# another\n2 2\n100\n0 50\n100 25\n")
        img = read_image(p)
        assert np.allclose(img.data[0], [[0.0, 0.5], [1.0, 0.25]])
        q = tmp_path / "a.ppm"
        q.write_bytes(b"P3\n1 1\n255\n255 0 128\n")
        img = read_image(q)
        assert np.allclose(img.data[:, 0, 0], [1.0, 0.0, 128 / 255])

    def test_sixteen_bit_samples(self, tmp_path):
        p = tmp_path / "a.pgm"
        payload = (0).to_bytes(2, "big") + (65535).to_bytes(2, "big")
        p.write_bytes(b"P5\n2 1\n65535\n" + payload)
        img = read_image(p)
        assert img.data[0, 0, 0] == 0.0 and img.data[0, 0, 1] == 1.0

    def test_malformed_header_reports_offset(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n2 x\n255\n" + bytes([0, 0]))
        with pytest.raises(FormatError, match=r"byte \d+"):
            read_image(p)

    def test_unknown_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P7\n2 1\n255\n\x00\x00")
        with pytest.raises(FormatError):
            read_image(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="truncated"):
            read_image(p)

    def test_sample_above_maxval_rejected(self, tmp_path):
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n2 1\n100\n" + bytes([5, 200]))
        with pytest.raises(FormatError):
            read_image(p)

    def test_sample_one_above_a_maxval_of_254_rejected(self, tmp_path):
        # one below the largest uint8, where the scan for samples above
        # maxval must still run
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n3 1\n254\n" + bytes([0, 254, 255]))
        with pytest.raises(FormatError) as info:
            read_image(p)
        assert str(info.value) == f"{p}: sample 2 of 3 exceeds maxval 254"

    def test_valid_files_stay_in_unit_range(self, tmp_path):
        rng = np.random.default_rng(0)
        p = tmp_path / "r.pgm"
        p.write_bytes(b"P5\n8 8\n255\n" + rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
        img = read_image(p)
        assert np.isfinite(img.data).all()
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0


class TestWriteImage:
    def test_endpoint_and_half_encoding(self):
        enc = _encode_samples(np.array([1.0, 0.5, 0.0]), 255)
        assert list(enc) == [255, 128, 0]  # round(127.5) away from zero -> 128

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_encoding_matches_round_half_away_on_every_tie(self, maxval):
        # k / (2 * maxval) for every k: each odd k is a rounding tie
        x = np.arange(2 * maxval + 1) / (2.0 * maxval)
        expect = np.clip(round_half_away(x * maxval), 0, maxval)
        assert np.array_equal(_encode_samples(x, maxval), expect)

    def test_clamp_of_out_of_range_internal_values(self):
        enc = _encode_samples(np.array([-0.2, 1.3]), 255)
        assert list(enc) == [0, 255]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_round_trip_is_byte_exact(self, tmp_path, channels, maxval):
        rng = np.random.default_rng(channels * maxval)
        img = PlanarImage(rng.random((channels, 9, 13)))
        p = tmp_path / "img"
        write_image(img, p, maxval=maxval)
        first = p.read_bytes()
        back = read_image(p)
        write_image(back, p, maxval=maxval)
        assert p.read_bytes() == first
        # quantized samples unchanged by a second cycle
        again = read_image(p)
        assert np.array_equal(back.data, again.data)

    def test_quantize_matches_file_cycle(self, tmp_path):
        rng = np.random.default_rng(3)
        img = PlanarImage(rng.random((3, 8, 8)))
        p = tmp_path / "img.ppm"
        write_image(img, p)
        assert np.array_equal(quantize(img).data, read_image(p).data)

    def test_bad_maxval(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(PlanarImage(np.zeros((1, 2, 2))), tmp_path / "x", maxval=1000)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_image(PlanarImage(np.zeros((1, 2, 2))), tmp_path / "no" / "dir" / "x.pgm")


class TestReadWatermark:
    def test_pbm_all_ink(self, tmp_path):
        p = tmp_path / "wm.pbm"
        bm = BitMatrix(np.ones((15, 64), dtype=np.uint8))
        write_watermark(bm, p)
        back = read_watermark(p)
        assert back.bits.sum() == 960 and (back.rows, back.cols) == (15, 64)

    def test_pgm_threshold_at_half(self, tmp_path):
        p = tmp_path / "wm.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([127, 128]))
        back = read_watermark(p)
        assert list(back.bits[0]) == [0, 1]

    def test_uniform_pgm_fields(self, tmp_path):
        # the binarization rule is "1 iff sample >= 0.5", so black pages
        # are all-zero and white pages all-one
        p = tmp_path / "wm.pgm"
        p.write_bytes(b"P5\n4 2\n255\n" + bytes([0] * 8))
        assert read_watermark(p).bits.sum() == 0
        q = tmp_path / "wm2.pgm"
        q.write_bytes(b"P5\n4 2\n255\n" + bytes([255] * 8))
        assert read_watermark(q).bits.sum() == 8

    def test_p1_packed_digits(self, tmp_path):
        p = tmp_path / "wm.pbm"
        p.write_bytes(b"P1\n4 2\n0110\n1001\n")
        back = read_watermark(p)
        assert back.bits.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1]]

    def test_p4_row_padding(self, tmp_path):
        # width 10 needs 2 bytes per row; trailing pad bits ignored
        p = tmp_path / "wm.pbm"
        rows = bytes([0b10101010, 0b11000000, 0b01010101, 0b01000000])
        p.write_bytes(b"P4\n10 2\n" + rows)
        back = read_watermark(p)
        assert back.bits[0].tolist() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 1]
        assert back.bits[1].tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        bm = BitMatrix(rng.integers(0, 2, (7, 19), dtype=np.uint8))
        p = tmp_path / "wm.pbm"
        write_watermark(bm, p)
        assert np.array_equal(read_watermark(p).bits, bm.bits)

    def test_ppm_rejected(self, tmp_path):
        p = tmp_path / "wm.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FormatError):
            read_watermark(p)


class TestAsciiDecoding:
    """The ASCII formats decode exactly as their binary twins do."""

    @pytest.mark.parametrize(
        "ascii_magic, binary_magic, channels", [(b"P2", b"P5", 1), (b"P3", b"P6", 3)]
    )
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_ascii_equals_binary(self, tmp_path, ascii_magic, binary_magic, channels, maxval):
        rng = np.random.default_rng(maxval + channels)
        samples = rng.integers(0, maxval + 1, (5, 13, channels))
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(_netpbm(ascii_magic, samples, maxval))
        b.write_bytes(_netpbm(binary_magic, samples, maxval))
        img = read_image(a)
        assert np.array_equal(img.data, read_image(b).data)
        assert np.array_equal(img.data, samples.transpose(2, 0, 1) / maxval)

    def test_p1_equals_p4(self, tmp_path):
        bits = np.random.default_rng(7).integers(0, 2, (5, 13, 1))
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        a.write_bytes(_netpbm(b"P1", bits))
        b.write_bytes(_netpbm(b"P4", bits))
        assert np.array_equal(read_watermark(a).bits, bits[:, :, 0])
        assert np.array_equal(read_watermark(b).bits, bits[:, :, 0])

    def test_comment_inside_raster(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n3 1\n9\n1 # one\n2#two\r3\n")
        assert np.array_equal(read_image(p).data[0, 0], [1 / 9, 2 / 9, 3 / 9])
        q = tmp_path / "a.pbm"
        q.write_bytes(b"P1\n3 1\n1#bit\n0 1\n")
        assert read_watermark(q).bits.tolist() == [[1, 0, 1]]

    def test_text_after_last_sample_ignored(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 1\n9\n4 5 trailing 2x junk\n")
        assert np.array_equal(read_image(p).data[0, 0], [4 / 9, 5 / 9])
        q = tmp_path / "a.pbm"
        q.write_bytes(b"P1\n2 1\n10 junk 7")
        assert read_watermark(q).bits.tolist() == [[1, 0]]

    @pytest.mark.parametrize(
        "content, where",
        [
            (b"P2\n3 1\n9\n1 x 3\n", "sample 1 of 3"),
            (b"P3\n2 1\n255\n1 2 3 4 5y 6\n", "sample 4 of 6"),
            (b"P3\n1 1\n255\n1 2 300\n", "sample 2 of 3"),
            (b"P2\n3 1\n255\n0 99999999999999999999 7\n", "sample 1 of 3"),
            (b"P2\n2 1\n255\n000000000255 0256\n", "sample 1 of 2"),
        ],
    )
    def test_bad_sample_is_named(self, tmp_path, content, where):
        p = tmp_path / "bad"
        p.write_bytes(content)
        with pytest.raises(FormatError, match=where):
            read_image(p)

    @pytest.mark.parametrize(
        "content", [b"P2\n2 2\n9\n1 2 3\n", b"P3\n1 1\n255\n1 2", b"P2\n1 1\n9\n  \n"]
    )
    def test_truncated_ascii_image(self, tmp_path, content):
        p = tmp_path / "short"
        p.write_bytes(content)
        with pytest.raises(FormatError):
            read_image(p)

    @pytest.mark.parametrize("content", [b"P1\n4 2\n0110\n100", b"P1\n4 1\n0 1 2 0\n"])
    def test_bad_p1_raster(self, tmp_path, content):
        p = tmp_path / "bad.pbm"
        p.write_bytes(content)
        with pytest.raises(FormatError):
            read_watermark(p)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_p3_of_many_text_blocks_equals_p6(self, tmp_path, maxval):
        samples = np.random.default_rng(maxval).integers(0, maxval + 1, (256, 256, 3))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        a.write_bytes(_netpbm(b"P3", samples, maxval))
        b.write_bytes(_netpbm(b"P6", samples, maxval))
        assert a.stat().st_size > 8 * _TEXT_BLOCK
        assert np.array_equal(read_image(a).data, read_image(b).data)

    def test_a_comment_copies_the_body_once(self, tmp_path):
        # a comment costs one comment-free copy of the body, and no more
        # large enough that the tokenizer's block temporaries are a small part of the peak
        samples = np.random.default_rng(3).integers(0, 256, (768, 768, 3))
        plain = _netpbm(b"P3", samples, 255)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        a.write_bytes(plain)
        b.write_bytes(plain + b"# one trailing comment\n")
        peaks = []
        for p in (a, b):
            _read_samples(p)  # warm: only the read itself is measured
            tracemalloc.start()
            got, maxval = _read_samples(p)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert maxval == 255 and np.array_equal(got, samples)
        body = len(plain) - len(b"P3\n768 768\n255\n")
        assert peaks[1] - peaks[0] < 2 * body, (peaks, body)

    @pytest.mark.parametrize("magic", [b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"])
    def test_every_prefix_reads_or_raises_format_error(self, tmp_path, magic):
        channels = 3 if magic in (b"P3", b"P6") else 1
        maxval = 1 if magic in (b"P1", b"P4") else 200
        samples = np.random.default_rng(1).integers(0, maxval + 1, (2, 3, channels))
        full = _netpbm(magic, samples, maxval)
        read = read_watermark if magic in (b"P1", b"P4") else read_image
        p = tmp_path / "prefix"
        for n in range(len(full) + 1):
            p.write_bytes(full[:n])
            try:
                read(p)
            except FormatError:
                pass
        p.write_bytes(full)
        read(p)


class TestPlanes:
    """Decoded planes are C-contiguous, and write_image returns what reads back."""

    @pytest.mark.parametrize("magic, channels", [(b"P2", 1), (b"P3", 3), (b"P5", 1), (b"P6", 3)])
    def test_read_image_planes_are_contiguous(self, tmp_path, magic, channels):
        samples = np.random.default_rng(3).integers(0, 256, (6, 10, channels))
        path = tmp_path / "img"
        path.write_bytes(_netpbm(magic, samples, 255))
        img = read_image(path)
        assert img.data.flags.c_contiguous
        assert np.array_equal(img.data, samples.transpose(2, 0, 1) / 255)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_write_image_returns_the_image_as_read_back(self, tmp_path, maxval, channels):
        img = PlanarImage(np.random.default_rng(maxval).random((channels, 12, 20)))
        path = tmp_path / "img"
        written = write_image(img, path, maxval)
        assert np.array_equal(written.data, quantize(img, maxval).data)
        assert np.array_equal(written.data, read_image(path).data)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_file_samples_are_the_stacked_encoding(self, maxval, channels):
        # every tie k / (2 * maxval), and samples below 0 and above 1
        x = np.concatenate([[-0.7, -0.5 / maxval, 1 + 0.5 / maxval, 1.6],
                            np.arange(2 * maxval + 1) / (2.0 * maxval)])
        rows = -(-x.size // 64)
        planes = np.random.default_rng(maxval).permutation(np.resize(x, channels * rows * 64))
        planes = planes.reshape(channels, rows, 64)
        sample = np.uint8 if maxval == 255 else np.dtype(">u2")
        want = np.stack(_encode_samples(planes, maxval), axis=-1, dtype=sample, casting="unsafe")
        reference = np.clip(round_half_away(planes * maxval), 0, maxval).transpose(1, 2, 0)
        got = _file_samples(planes, maxval, np.empty((rows, 64, channels), sample))
        assert got.dtype == sample and got.shape == (rows, 64, channels)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, reference)
        # each plane was encoded into itself
        assert np.array_equal(planes, np.moveaxis(want, -1, 0))


@st.composite
def _decimal_body(draw, maxval: int) -> tuple[bytes, list[int]]:
    """A raster body of decimal tokens between whitespace runs, and the
    tokens' values: in and above maxval, with leading zeros, and 20 digits."""
    value = st.integers(0, maxval) | st.integers(maxval + 1, 10**6) | st.integers(10**19, 10**20 - 1)
    values = draw(st.lists(value, max_size=40))
    space = st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\v", b"\f"]), min_size=1,
                     max_size=3).map(b"".join)
    edge = space | st.just(b"")
    tokens = [b"0" * draw(st.integers(0, 12)) + b"%d" % v for v in values]
    gaps = [draw(space) for _ in tokens[1:]] + [b""]
    return draw(edge) + b"".join(t + g for t, g in zip(tokens, gaps)) + draw(edge), values


@pytest.mark.parametrize("maxval", [1, 9, 10, 255, 1000, 9999, 10000, 65535])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_decimal_samples_are_exact(maxval, data):
    # each token is its value up to maxval and above maxval past it, in
    # blocks that cut the body at every position and in whole-file blocks
    body, values = data.draw(_decimal_body(maxval))
    want = np.minimum(values, maxval + 1)
    for block in (_TEXT_BLOCK, 1, 3, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(image_io, "_TEXT_BLOCK", block)
            got = _decimal_samples(body, maxval, len(values), None)
        assert got.dtype == (np.uint32 if maxval >= 10000 else np.uint16)
        assert np.array_equal(np.minimum(got, maxval + 1), want)
