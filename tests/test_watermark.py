import functools
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemark import (
    BitMatrix,
    CapacityError,
    FormatError,
    PlanarImage,
    WatermarkKey,
    ber,
    embed,
    extract,
    generate_r,
    load_key,
    psnr,
    save_key,
    synthesize_host,
    xor_bits,
)
from wavemark.colorspace import luma
from wavemark.image_io import _to_image
from wavemark.watermark import (
    MIN_DELTA,
    _embed_band,
    _embed_parities,
    _extract_band,
    _mark_band,
    _read_parities,
    _unit_band,
)
from wavemark.wavelet import (
    DetailBands,
    SubbandPyramid,
    dwt2_inverse,
    dwt2_ll,
    ll_synthesis_atom,
)
from conftest import make_mark

_MASK64 = (1 << 64) - 1


def _splitmix64_bits_reference(seed: int, n: int) -> list[int]:
    """Scalar SplitMix64, written independently of the vectorized path."""
    out = []
    state = seed & _MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
        out.append(z >> 63)
    return out


class TestGenerateR:
    def test_frozen_vectors(self):
        assert list(generate_r(16, 0)) == [1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1]
        assert list(generate_r(16, 42)) == [1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0]
        assert list(generate_r(16, 2**64 - 1)) == [1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("seed", [0, 1, 42, 123456789, 2**64 - 1])
    def test_matches_scalar_reference(self, seed):
        assert list(generate_r(257, seed)) == _splitmix64_bits_reference(seed, 257)

    def test_determinism(self):
        assert np.array_equal(generate_r(1000, 7), generate_r(1000, 7))

    def test_ones_fraction_balanced(self):
        r = generate_r(100_000, 99)
        assert 0.49 <= r.mean() <= 0.51

    def test_seed_independence(self):
        a = generate_r(100_000, 1)
        b = generate_r(100_000, 2)
        assert 0.45 <= (a != b).mean() <= 0.55

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_r(0, 1)

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            generate_r(4, 2**64)
        with pytest.raises(ValueError):
            generate_r(4, -1)

    def test_bit_marginals_uniform_over_seeds(self):
        # for fixed W, every encrypted bit is marginally uniform across
        # seeds; chi-square with 1 dof, p > 0.001 <=> statistic < 10.83
        n_seeds, n_bits = 10_000, 64
        counts = np.zeros(n_bits)
        for s in range(n_seeds):
            counts += generate_r(n_bits, 1_000_000 + s)
        chi2 = (2.0 * counts - n_seeds) ** 2 / n_seeds
        assert chi2.max() < 10.828


class TestXorBits:
    def test_truth_table(self):
        out = xor_bits([1, 0, 1, 0], [0, 1, 1, 0])
        assert list(out) == [1, 1, 0, 0]

    def test_involution(self):
        rng = np.random.default_rng(0)
        w = rng.integers(0, 2, 500, dtype=np.uint8)
        r = rng.integers(0, 2, 500, dtype=np.uint8)
        assert np.array_equal(xor_bits(xor_bits(w, r), r), w)

    def test_self_cancellation(self):
        w = np.array([1, 1, 0, 1], dtype=np.uint8)
        assert not xor_bits(w, w).any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bits([1, 0], [1, 0, 1])


class TestQuantizer:
    def test_embed_rule_worked_example(self):
        # c = 0.3751, delta = 1/16: q = round(6.0016) = 6, q' = 7
        out = _embed_parities(np.array([0.3751]), np.array([1], dtype=np.uint8), 1 / 16)
        assert out[0] == 0.4375
        out = _embed_parities(np.array([0.3751]), np.array([0], dtype=np.uint8), 1 / 16)
        assert out[0] == 0.375

    def test_negative_coefficients(self):
        delta = 1 / 16
        c = np.array([-0.19, -0.22])
        for bit in (0, 1):
            bits = np.full(2, bit, dtype=np.uint8)
            out = _embed_parities(c, bits, delta)
            assert np.array_equal(_read_parities(out, delta), bits)
            assert np.abs(out - c).max() <= 1.5 * delta + 1e-12

    def test_perturbation_below_half_delta_is_harmless(self):
        rng = np.random.default_rng(1)
        delta = 1 / 16
        c = rng.random(4096) * 8.0
        bits = rng.integers(0, 2, 4096, dtype=np.uint8)
        embedded = _embed_parities(c, bits, delta)
        for amp in (0.1, 0.25, 0.49):
            noise = rng.uniform(-amp * delta, amp * delta, 4096)
            assert np.array_equal(_read_parities(embedded + noise, delta), bits)

    def test_distortion_is_at_most_delta_and_nearest(self):
        rng = np.random.default_rng(2)
        delta = 1 / 16
        c = rng.uniform(-8.0, 8.0, 4096)
        for bit in (0, 1):
            bits = np.full(c.size, bit, dtype=np.uint8)
            out = _embed_parities(c, bits, delta)
            assert np.array_equal(_read_parities(out, delta), bits)
            assert np.abs(out - c).max() <= delta
            # brute force: the nearest of the indices with the bit's parity
            base = np.floor(c / delta)
            cands = base[:, None] + np.arange(-2, 4)
            cands = np.where(cands % 2 == bit, cands, np.inf)
            best = cands[np.arange(c.size), np.argmin(np.abs(cands * delta - c[:, None]), axis=1)]
            assert np.array_equal(out, best * delta)

    def test_picks_the_nearer_candidate(self):
        # index 6 (even) has the wrong parity for bit 1: c/delta = 5.8 lies
        # nearer 5 than 7, and 6.2 nearer 7 than 5; mirrored for negatives
        delta = 1 / 16
        c = np.array([5.8, 6.2, -5.8, -6.2]) * delta
        out = _embed_parities(c, np.ones(4, dtype=np.uint8), delta)
        assert list(out / delta) == [5.0, 7.0, -5.0, -7.0]

    def test_tie_steps_up(self):
        delta = 1 / 16
        c = np.array([6.0, -6.0, 0.0]) * delta
        out = _embed_parities(c, np.ones(3, dtype=np.uint8), delta)
        assert list(out / delta) == [7.0, -5.0, 1.0]


def _full_frame_embed(host, wm, seed, delta):
    """The reference embed: the full-frame LL3 change synthesised through
    a whole zero-detail pyramid and added to every channel."""
    ll = dwt2_ll(luma(host))
    n = wm.size
    c = ll.reshape(-1)[:n]
    change = np.zeros_like(ll)
    bits = xor_bits(wm.bits.reshape(-1), generate_r(n, seed))
    change.reshape(-1)[:n] = _embed_parities(c, bits, delta) - c
    h, w = host.height, host.width
    zero = lambda lvl: np.zeros((h >> lvl, w >> lvl))
    details = tuple(DetailBands(zero(lvl), zero(lvl), zero(lvl)) for lvl in (1, 2, 3))
    dy = dwt2_inverse(SubbandPyramid(change, details))
    return np.clip(host.data + dy, 0.0, 1.0)


class TestBandLimited:
    """Embed and extract analyse and synthesise only the mark's top rows;
    each result must equal the full-frame computation bit for bit."""

    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 5, 6])
    def test_extract_matches_full_frame(self, cols):
        rng = np.random.default_rng(cols)
        # LL3 grids 1 to 6 coefficients wide, and heights whose LL3 grid
        # leaves room below the band
        for hm in (24, 20, 16):
            host = PlanarImage(rng.random((3, hm * 8, cols * 8)))
            full = dwt2_ll(luma(host)).reshape(-1)
            for n in (1, 2 * cols + 1, 3 * cols, full.size - 5, full.size):
                got = dwt2_ll(luma(_unit_band(host.data, 1, n))).reshape(-1)[:n]
                assert np.array_equal(got, full[:n]), (hm, cols, n)
                key = WatermarkKey(r=generate_r(n, 9), rows=1, cols=n)
                want = xor_bits(_read_parities(full[:n], key.delta), key.r)
                assert np.array_equal(extract(host, key).bits.reshape(-1), want)
            assert _mark_band(host.height, host.width, cols) < host.height

    @pytest.mark.parametrize(
        "kind, size, shape",
        [("noise", 512, (15, 64)), ("checker", 128, (4, 16)), ("gradient", 256, (3, 32)),
         ("noise", 64, (8, 8))],
    )
    def test_embed_matches_full_frame(self, kind, size, shape):
        host = synthesize_host(kind, size, seed=4)
        wm = make_mark(*shape)
        out, _ = embed(host, wm, seed=21, delta=1 / 16)
        assert np.array_equal(out.data, _full_frame_embed(host, wm, 21, 1 / 16))
        band = _mark_band(host.height, host.width, wm.size)
        assert np.array_equal(out.data[:, band:], host.data[:, band:])
        if size >= 128:
            assert band < size

    def test_rectangular_host(self):
        rng = np.random.default_rng(8)
        host = PlanarImage(rng.random((3, 24 * 8, 13 * 8)))
        wm = make_mark(5, 13)
        out, key = embed(host, wm, seed=5)
        assert np.array_equal(out.data, _full_frame_embed(host, wm, 5, key.delta))
        assert np.array_equal(extract(out, key).bits, wm.bits)


    def test_extract_validates_no_image_again(self, monkeypatch):
        # the band is luma of the caller's planes, not a new PlanarImage
        host = synthesize_host("noise", 64, seed=2)
        marked, key = embed(host, make_mark(2, 8), seed=3)
        calls = []
        real = PlanarImage.__post_init__
        monkeypatch.setattr(PlanarImage, "__post_init__", lambda self: calls.append(real(self)))
        extract(marked, key)
        assert calls == []


@pytest.mark.parametrize("cols", [1, 3, 8])
def test_derived_band_is_exact(cols):
    """At the band the lifting's reach derives, band-limited embed and extract
    equal the full frame bit for bit; one LL row less breaks the analysis."""
    assert (_mark_band(512, 512, 960), _mark_band(1024, 1024, 960)) == (144, 88)
    rng = np.random.default_rng(40 + cols)
    for hm in (4, 7, 12):
        host = PlanarImage(rng.random((3, hm * 8, cols * 8)))
        full = dwt2_ll(luma(host)).reshape(-1)
        # marks that end at a row's end and, for cols > 1, mid-row
        for n in sorted({1, cols, cols + 1, 2 * cols, 2 * cols + 1, full.size - 1, full.size}):
            band = _mark_band(host.height, host.width, n)
            assert band == min(host.height, 8 * (-(-n // cols) + 3))
            got = dwt2_ll(luma(_unit_band(host.data, 1, n))).reshape(-1)[:n]
            assert np.array_equal(got, full[:n]), (hm, n)
            wm = BitMatrix(rng.integers(0, 2, size=(1, n)))
            marked, key = embed(host, wm, seed=n, delta=1 / 16)
            assert np.array_equal(marked.data, _full_frame_embed(host, wm, n, 1 / 16)), (hm, n)
            want = xor_bits(_read_parities(full[:n], key.delta), key.r)
            assert np.array_equal(extract(host, key).bits.reshape(-1), want)
            if band < host.height:
                short = dwt2_ll(luma(host.data[:, : band - 8])).reshape(-1)[:n]
                assert not np.array_equal(short, full[:n]), (hm, n)


@pytest.mark.parametrize("maxval", [1, 255, 1000, 65535])
@pytest.mark.parametrize("whole", [False, True], ids=["part", "whole"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_band_core_is_the_library(maxval, whole, data):
    """The core on a file's integer samples, as a (channels, height, width)
    view, gives the library's band, key and mark for ``samples / maxval``,
    for a band that is part of the image and for one that is all of it."""
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16]))
    top = min(maxval, np.iinfo(dtype).max)
    cols = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 4 * cols))
    ll_rows = -(-n // cols)
    # the band is the mark's LL3 rows and 3 more, or every row
    hm = data.draw(st.integers(ll_rows, ll_rows + 3) if whole else st.integers(ll_rows + 4, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (hm * 8, cols * 8, 3)
    if data.draw(st.booleans()):
        samples = rng.integers(0, top, shape, dtype, endpoint=True)
    else:  # the rails, where the gamut clip acts
        samples = rng.choice(np.array([0, top], dtype), shape)
    wm = BitMatrix(rng.integers(0, 2, size=(1, n)))
    seed = data.draw(st.integers(0, 2**64 - 1))
    delta = data.draw(st.sampled_from([1 / 16, MIN_DELTA, 1.0]))

    image = _to_image(samples, maxval)
    want, want_key = embed(image, wm, seed=seed, delta=delta)
    planes = samples.transpose(2, 0, 1)
    band, key = _embed_band(planes, maxval, wm, seed, delta)
    assert (band.shape[1] == shape[0]) == whole
    assert band.tobytes() == want.data[:, : band.shape[1]].tobytes()
    assert key.r.tobytes() == want_key.r.tobytes()
    assert (key.rows, key.cols, key.delta, key.seed) == (1, n, delta, seed)
    assert (want_key.rows, want_key.cols, want_key.delta, want_key.seed) == (1, n, delta, seed)
    got = _extract_band(planes, maxval, key)
    assert got.bits.tobytes() == extract(image, key).bits.tobytes()


class TestEmbedExtract:
    def test_round_trip_identity_float_pipeline(self, mark):
        # host content away from the gamut rails, so the backward-transform
        # clamp never engages and extract(embed(.)) is exact
        host = synthesize_host("checker", 256)
        for seed in (0, 1, 12345):
            w, key = embed(host, mark, seed=seed)
            rec = extract(w, key)
            assert np.array_equal(rec.bits, mark.bits)
            assert ber(mark, rec) == 0.0

    def test_extract_is_blind(self):
        params = list(inspect.signature(extract).parameters)
        assert params == ["watermarked", "key"]

    def test_key_reports_embedding_parameters(self, mark):
        host = synthesize_host("noise", 128, seed=5)
        small = make_mark(8, 16)
        _, key = embed(host, small, seed=99, delta=1 / 32)
        assert (key.rows, key.cols) == (8, 16)
        assert key.delta == 1 / 32 and key.seed == 99
        assert np.array_equal(key.r, generate_r(small.size, 99))

    def test_capacity_error(self):
        host = synthesize_host("noise", 128, seed=0)  # LL3 is 16x16 = 256
        big = BitMatrix(np.ones((17, 17), dtype=np.uint8))
        with pytest.raises(CapacityError, match="256"):
            embed(host, big, seed=0)

    def test_extract_capacity_error(self):
        host = synthesize_host("noise", 128, seed=1)
        key = WatermarkKey(r=generate_r(512, 3), rows=16, cols=32)
        with pytest.raises(CapacityError):
            extract(host, key)

    def test_extract_from_unrelated_host_is_coin_flipping(self):
        # LSBs of unrelated coefficients XOR a random R: about half the
        # bits disagree, averaged over many hosts
        small = make_mark(16, 16)
        key = WatermarkKey(r=generate_r(256, 4), rows=16, cols=16)
        rates = []
        for i in range(100):
            host = synthesize_host("noise", 128, seed=2_000 + i)
            rates.append(ber(small, extract(host, key)))
        assert 45.0 <= np.mean(rates) <= 55.0

    def test_wrong_key_randomizes(self, mark):
        host = synthesize_host("checker", 256)
        w, key = embed(host, mark, seed=10)
        wrong = WatermarkKey(
            r=generate_r(key.n, 11), rows=key.rows, cols=key.cols,
            delta=key.delta, seed=11,
        )
        assert 40.0 <= ber(mark, extract(w, wrong)) <= 60.0

    def test_imperceptibility_bound(self, mark):
        # per-pixel Y change is bounded by the quantizer step bound
        # (delta per coefficient: _embed_parities moves a coefficient by at
        # most one step) times the worst stack of overlapping synthesis
        # atoms, measured once by the impulse oracle
        host = synthesize_host("checker", 256)
        delta = 1 / 16
        w, key = embed(host, mark, seed=3, delta=delta)
        atom = np.abs(ll_synthesis_atom(256, 256, 16, 16))
        stack = np.zeros((256, 256))
        for i in range(13, 20):  # all atoms overlapping the probe pixel
            for j in range(13, 20):
                stack += np.abs(ll_synthesis_atom(256, 256, i, j))
        bound = delta * stack.max()
        diff = np.abs(w.data - host.data).max()
        assert diff <= bound
        # PSNR lower bound from n, delta, and measured atom energies
        energies = [
            (ll_synthesis_atom(256, 256, i, j) ** 2).sum()
            for i, j in [(0, 0), (0, 16), (16, 16)]
        ]
        e_max = max(energies)
        overlap = math.ceil(np.ptp(atom.nonzero()[0]) / 8 + 1) ** 2
        total_sq = overlap * mark.size * delta**2 * e_max
        psnr_floor = 10.0 * math.log10(256 * 256 / total_sq)
        assert psnr(host, w) >= psnr_floor


@functools.cache
def _atom_stack(band: int, width: int, n: int) -> float:
    """max_p sum_k |atom_k(p)| over the first n LL3 coefficients of a band x
    width grid: the most a sample moves when each of them moves by 1."""
    cols = width >> 3
    atoms = (np.abs(ll_synthesis_atom(band, width, k // cols, k % cols)) for k in range(n))
    return float(sum(atoms).max())


@st.composite
def _fitting_embeds(draw):
    """(host, mark, seed, delta): a float host whose sides are multiples of
    8, a mark that fits its LL3, and every host sample at least the most
    embed can move it from 0 and from 1, so that the gamut clip never acts."""
    h8, w8 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.integers(1, h8 * w8))
    cols = draw(st.integers(1, h8 * w8 // rows))
    delta = draw(st.floats(MIN_DELTA, 1.9))
    seed = draw(st.integers(0, 2**64 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height, width = 8 * h8, 8 * w8
    # embed synthesises the band's LL alone, and moves each of its first
    # rows * cols coefficients by at most delta
    band = _mark_band(height, width, rows * cols)
    margin = delta * _atom_stack(band, width, rows * cols)
    assert margin < 0.5
    u = rng.random((3, height, width))
    # about a tenth of the samples sit on the margin itself
    u[rng.random(u.shape) < 0.05] = 0.0
    u[rng.random(u.shape) < 0.05] = 1.0
    host = np.clip(u, margin, 1.0 - margin)
    mark = BitMatrix(rng.integers(0, 2, size=(rows, cols)))
    return PlanarImage(host), mark, seed, delta


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_fitting_embeds())
def test_extract_inverts_embed_inside_the_gamut(case):
    host, mark, seed, delta = case
    marked, key = embed(host, mark, seed=seed, delta=delta)
    assert np.array_equal(extract(marked, key).bits, mark.bits)


class TestKeyFile:
    def test_round_trip(self, tmp_path, mark):
        key = WatermarkKey(
            r=generate_r(mark.size, 77), rows=15, cols=64,
            delta=1 / 16, seed=77,
        )
        p = tmp_path / "key.txt"
        save_key(key, p)
        back = load_key(p)
        assert back.rows == key.rows and back.cols == key.cols
        assert back.delta == key.delta and back.seed == key.seed
        assert np.array_equal(back.r, key.r)

    def test_file_layout(self, tmp_path):
        key = WatermarkKey(r=np.array([1, 1, 1, 1, 0, 0, 0, 0]), rows=2, cols=4, seed=7)
        p = tmp_path / "key.txt"
        save_key(key, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "WMKEY1"
        assert lines[1] == "levels=3 subband=LL rows=2 cols=4 offset=0"
        assert lines[2] == "delta=0.0625"
        assert lines[3] == "seed=7"
        assert lines[4] == "R=F0"

    def test_hand_built_hex_expansion(self, tmp_path):
        p = tmp_path / "key.txt"
        p.write_text(
            "WMKEY1\nlevels=3 subband=LL rows=2 cols=4 offset=0\n"
            "delta=0.0625\nseed=7\nR=F0\n"
        )
        key = load_key(p)
        assert list(key.r) == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "key.txt"
        p.write_text(
            "WMKEY2\nlevels=3 subband=LL rows=2 cols=4 offset=0\n"
            "delta=0.0625\nseed=7\nR=F0\n"
        )
        with pytest.raises(FormatError, match="magic"):
            load_key(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "key.txt"
        p.write_text(
            "WMKEY1\nlevels=3 subband=LL rows=2 cols=4 offset=0 extra=1\n"
            "delta=0.0625\nseed=7\nR=F0\n"
        )
        with pytest.raises(FormatError):
            load_key(p)

    def test_extra_line_rejected(self, tmp_path):
        p = tmp_path / "key.txt"
        p.write_text(
            "WMKEY1\nlevels=3 subband=LL rows=2 cols=4 offset=0\n"
            "delta=0.0625\nseed=7\nR=F0\nnote=hello\n"
        )
        with pytest.raises(FormatError):
            load_key(p)

    def test_r_length_mismatch_rejected(self, tmp_path):
        p = tmp_path / "key.txt"
        p.write_text(
            "WMKEY1\nlevels=3 subband=LL rows=2 cols=4 offset=0\n"
            "delta=0.0625\nseed=7\nR=F0F0\n"
        )
        with pytest.raises(FormatError, match="R holds"):
            load_key(p)

    def test_nonzero_padding_rejected(self, tmp_path):
        p = tmp_path / "key.txt"
        # n = 6 bits, so the last 2 bits of the byte must be zero
        p.write_text(
            "WMKEY1\nlevels=3 subband=LL rows=2 cols=3 offset=0\n"
            "delta=0.0625\nseed=7\nR=FF\n"
        )
        with pytest.raises(FormatError, match="padding"):
            load_key(p)

    @pytest.mark.parametrize("old, new, named", [
        ("subband=LL", "subband=HH", "'HH'"),
        ("levels=3", "levels=2", "levels '2'"),
        ("levels=3", "levels=16", "levels '16'"),
        ("offset=0", "offset=1", "offset '1'"),
        ("offset=0", "offset=3000", "offset '3000'"),
        ("seed=7", "seed=-1", "seed -1"),
        ("seed=7", f"seed={2**64}", f"seed {2**64}"),
    ])
    def test_field_outside_the_format_rejected(self, tmp_path, old, new, named):
        p = tmp_path / "key.txt"
        p.write_text(
            "WMKEY1\nlevels=3 subband=LL rows=2 cols=4 offset=0\n"
            "delta=0.0625\nseed=7\nR=F0\n".replace(old, new)
        )
        with pytest.raises(FormatError, match=named):
            load_key(p)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_be_unsigned_64_bit(self, seed):
        with pytest.raises(ValueError, match="seed"):
            WatermarkKey(r=np.zeros(4), rows=2, cols=2, seed=seed)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match="delta"):
            WatermarkKey(r=np.zeros(4), rows=2, cols=2, delta=delta)

    @pytest.mark.parametrize("delta", [MIN_DELTA / 2, 1e-300, 1e-320])
    def test_delta_floor(self, delta):
        with pytest.raises(ValueError, match="delta"):
            WatermarkKey(r=np.zeros(4), rows=2, cols=2, delta=delta)
        with pytest.raises(ValueError, match="delta"):
            embed(synthesize_host("noise", 64), make_mark(2, 2), seed=0, delta=delta)

    def test_delta_floor_keeps_indices_exact(self):
        # the largest LL3 any luma in [0, 1] can give, read at the
        # smallest step: no warning, and an exact integer index
        top = 4.0**3
        c = np.array([top, -top, top, -top, top - MIN_DELTA, -top + MIN_DELTA])
        bits = np.array([1, 1, 0, 0, 1, 0], dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _embed_parities(c, bits, MIN_DELTA)
            assert np.array_equal(_read_parities(out, MIN_DELTA), bits)
        assert np.abs(out - c).max() <= MIN_DELTA

    @pytest.mark.parametrize("levels", range(1, 17))
    def test_delta_ceiling(self, tmp_path, levels):
        # |LL3| < 4**3: from 2 * 4**3 = 128 up every index would be 0
        WatermarkKey(r=np.zeros(4), rows=2, cols=2, delta=np.nextafter(128.0, 0))
        with pytest.raises(ValueError, match="delta"):
            WatermarkKey(r=np.zeros(4), rows=2, cols=2, delta=128.0)
        # a key file once had the ceiling 2 * 4**levels of its own depth;
        # the format now has one depth, so only levels=3 loads
        below = float(np.nextafter(2.0 * 4.0**levels, 0))
        p = tmp_path / "key.txt"
        p.write_text(f"WMKEY1\nlevels={levels} subband=LL rows=2 cols=4 offset=0\n"
                     f"delta={below!r}\nseed=7\nR=F0\n")
        if levels == 3:
            assert load_key(p).delta == below
        else:
            with pytest.raises(FormatError, match=f"levels '{levels}'"):
                load_key(p)

    def test_embed_delta_ceiling(self):
        host, wm = synthesize_host("noise", 64), make_mark(2, 2)
        with pytest.raises(ValueError, match="delta"):
            embed(host, wm, seed=0, delta=128.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            embed(host, wm, seed=0, delta=np.nextafter(128.0, 0))

    @pytest.mark.parametrize("levels", [0, 17, 99999999999])
    def test_levels_bounded(self, tmp_path, levels):
        p = tmp_path / "key.txt"
        p.write_text(f"WMKEY1\nlevels={levels} subband=LL rows=2 cols=4 offset=0\n"
                     "delta=0.0625\nseed=7\nR=F0\n")
        with pytest.raises(FormatError, match=f"levels '{levels}'"):
            load_key(p)

    @pytest.mark.parametrize("rows, cols", [(-1, -1), (0, 4), (4, 0), (-2, 3)])
    def test_shape_must_be_positive(self, rows, cols):
        with pytest.raises(ValueError, match="rows and cols"):
            WatermarkKey(r=np.zeros(max(rows * cols, 0)), rows=rows, cols=cols)
