"""Property tests for the three parsers of outside input: ``read_image``,
``read_watermark`` and ``load_key``.

Any bytes, and any mutation of a valid file, either parse or raise
``FormatError``; what the writers write reads back unchanged.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavemark import BitMatrix, FormatError, PlanarImage, WatermarkKey, image_io, load_key, quantize
from wavemark import read_image, read_watermark, save_key, write_image, write_watermark
from wavemark.watermark import MIN_DELTA

# each parser with the magics of the inputs it takes
PARSERS = [
    pytest.param(read_image, (b"P2", b"P3", b"P5", b"P6"), id="read_image"),
    pytest.param(read_watermark, (b"P1", b"P4", b"P2", b"P5"), id="read_watermark"),
    pytest.param(load_key, (b"WMKEY1",), id="load_key"),
]

_KEY = b"WMKEY1\nlevels=3 subband=LL rows=2 cols=5 offset=0\ndelta=0.0625\nseed=7\nR=F0C0\n"

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _netpbm(magic: bytes, samples: np.ndarray, maxval: int) -> bytes:
    """A Netpbm file of (height, width, channels) integer samples."""
    height, width = samples.shape[:2]
    header = b"%s\n%d %d\n" % (magic, width, height)
    if magic not in (b"P1", b"P4"):
        header += b"%d\n" % maxval
    if magic in (b"P1", b"P2", b"P3"):
        return header + " ".join(map(str, samples.reshape(-1))).encode() + b"\n"
    if magic == b"P4":
        return header + np.packbits(samples[:, :, 0].astype(np.uint8), axis=1).tobytes()
    return header + samples.astype(np.uint8 if maxval < 256 else ">u2").tobytes()


def _valid_inputs() -> list[bytes]:
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, (3, 5, 1))
    files = [_netpbm(m, bits, 1) for m in (b"P1", b"P4")]
    for magic, channels, maxval in ((b"P2", 1, 255), (b"P3", 3, 1000), (b"P5", 1, 65535),
                                    (b"P6", 3, 255), (b"P6", 3, 65535)):
        files.append(_netpbm(magic, rng.integers(0, maxval + 1, (3, 5, channels)), maxval))
    return files + [_KEY]


VALID = _valid_inputs()


def _inputs_of(magics) -> list[bytes]:
    return [f for f in VALID if f.split()[0] in magics]


# bytes that reach the branches of a Netpbm header, raster or key line
_TOKENS = [b" ", b"\n", b"#", b"0", b"1", b"9" * 12, b"9" * 5000, b"-", b"=", b"_", b".",
           b"e999", b"nan", b"HH", b"\xff"]
_BYTES = st.integers(0, 255) | st.sampled_from(b"019 \n#-=._e")


@st.composite
def _mutations(draw, magics) -> bytes:
    data = bytearray(draw(st.sampled_from(_inputs_of(magics))))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        # sampled, not st.integers, which leans to the first bytes
        i = draw(st.sampled_from(range(len(data) + 1)))
        if op == "insert":
            data[i:i] = draw(st.sampled_from(_TOKENS) | st.binary(min_size=1, max_size=4))
        elif op == "truncate":
            del data[i:]
        elif i < len(data) and op == "delete":
            del data[i]
        elif i < len(data):
            data[i] = draw(_BYTES)
    return bytes(data)


def _parses_or_rejects(path, parse, data: bytes) -> None:
    path.write_bytes(data)
    try:
        parse(path)
    except FormatError:
        pass


@pytest.mark.parametrize("parse, magics", PARSERS)
def test_unmutated_inputs_parse(tmp_path, parse, magics):
    # the mutations below start from these
    for data in _inputs_of(magics):
        (tmp_path / "input").write_bytes(data)
        parse(tmp_path / "input")


@pytest.mark.parametrize("parse, magics", PARSERS)
@_SETTINGS
@given(data=st.data())
def test_arbitrary_bytes(tmp_path, parse, magics, data):
    # after a magic, random bytes reach past the first check
    head = data.draw(st.sampled_from((b"",) + magics)) + data.draw(st.sampled_from([b"", b" "]))
    _parses_or_rejects(tmp_path / "input", parse, head + data.draw(st.binary(max_size=64)))


@pytest.mark.parametrize("parse, magics", PARSERS)
@_SETTINGS
@given(data=st.data())
def test_mutated_valid_inputs(tmp_path, parse, magics, data):
    _parses_or_rejects(tmp_path / "input", parse, data.draw(_mutations(magics)))


def _outcome(read, path):
    """What ``read(path)`` returns as (samples, maxval), or its FormatError's message."""
    try:
        samples, maxval = read(path)
    except FormatError as exc:
        return str(exc)
    return samples.tolist(), maxval


@pytest.mark.parametrize("head", [1 << 12, 16, 9, 1])
@_SETTINGS
@given(data=st.data())
def test_a_read_is_a_whole_decode_cut_to_the_band(tmp_path, monkeypatch, head, data):
    # the same rows or the same error, wherever the header's first read ends;
    # only a sample above maxval below the band goes unseen
    monkeypatch.setattr(image_io, "_HEAD", head)
    path = tmp_path / "input"
    path.write_bytes(data.draw(_mutations(image_io._RASTERS)))
    rows = data.draw(st.integers(1, 4))
    whole = _outcome(lambda p: image_io._decode_bytes(p.read_bytes(), p, image_io._RASTERS,
                                                      lambda h, w: h), path)
    assert _outcome(lambda p: image_io._decode(p, image_io._RASTERS), path) == whole
    band = _outcome(lambda p: image_io._decode(p, image_io._RASTERS, lambda h, w: min(rows, h)), path)
    if isinstance(whole, tuple):
        assert band == (whole[0][:rows], whole[1])
    elif "exceeds maxval" not in whole:
        assert band == whole


@_SETTINGS
@given(
    field=st.sampled_from(_KEY.split()[1:]),
    value=st.integers().map(str) | st.floats().map(repr)
    | st.text(st.sampled_from("0123456789-+._eEinfaxHLF"), max_size=10),
)
def test_key_with_any_field_value(tmp_path, field, value):
    name = field.split(b"=")[0]
    key = _KEY.replace(field, name + b"=" + value.encode())
    _parses_or_rejects(tmp_path / "key.txt", load_key, key)


@pytest.mark.parametrize("cols", range(1, 21))
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_watermark_round_trip(tmp_path, cols, data):
    # P4 pads every row to a whole byte
    rows = data.draw(st.integers(1, 6))
    raw = data.draw(st.binary(min_size=rows * cols // 8 + 1, max_size=rows * cols // 8 + 1))
    bits = np.unpackbits(np.frombuffer(raw, np.uint8))[: rows * cols]
    wm = BitMatrix(bits.reshape(rows, cols))
    path = tmp_path / "mark.pbm"
    write_watermark(wm, path)
    assert np.array_equal(read_watermark(path).bits, wm.bits)


# whitespace runs and comments between the tokens of an ASCII raster
_GAP = st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b" # note\n", b"#0 1\r"]),
                min_size=1, max_size=3).map(b"".join)


@pytest.mark.parametrize("binary_magic, ascii_magic, channels", [(b"P5", b"P2", 1), (b"P6", b"P3", 3)])
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sixteen_bit_round_trip(tmp_path, binary_magic, ascii_magic, channels, data):
    # write then read is quantize, and the same samples as text read the same
    shape = (channels, data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    img = PlanarImage(data.draw(arrays(np.float64, shape, elements=st.floats(0, 1))))
    path = tmp_path / "binary"
    write_image(img, path, 65535)
    assert path.read_bytes().startswith(binary_magic)
    back = read_image(path)
    assert np.array_equal(back.data, quantize(img, 65535).data)
    samples = np.rint(back.data * 65535).astype(int).transpose(1, 2, 0).ravel()
    text = b"%s\n%d %d\n65535\n" % (ascii_magic, shape[2], shape[1])
    # leading zeros and the gap after each sample
    pads = data.draw(st.lists(st.tuples(st.integers(0, 5), _GAP), min_size=samples.size,
                              max_size=samples.size))
    text += b"".join(b"0" * zeros + b"%d" % v + gap for v, (zeros, gap) in zip(samples, pads))
    (tmp_path / "text").write_bytes(text)
    assert np.array_equal(read_image(tmp_path / "text").data, back.data)


@_SETTINGS
@given(data=st.data())
def test_key_round_trip(tmp_path, data):
    rows, cols = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 64))
    n = rows * cols
    raw = data.draw(st.binary(min_size=n // 8 + 1, max_size=n // 8 + 1))
    key = WatermarkKey(
        r=np.unpackbits(np.frombuffer(raw, np.uint8))[:n],
        rows=rows,
        cols=cols,
        delta=data.draw(st.floats(MIN_DELTA, 128, exclude_max=True)),
        seed=data.draw(st.integers(0, 2**64 - 1)),
    )
    path = tmp_path / "key.txt"
    save_key(key, path)
    back = load_key(path)
    assert np.array_equal(back.r, key.r)
    assert (back.rows, back.cols, back.delta, back.seed) == (rows, cols, key.delta, key.seed)
