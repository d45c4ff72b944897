import math

import numpy as np
import pytest

from wavemark import DimensionError, dwt2_forward, dwt2_inverse, threshold_details
from wavemark.wavelet import (
    ANALYSIS_DOWN,
    ANALYSIS_UP,
    LEVELS,
    SYNTHESIS_DOWN,
    SYNTHESIS_UP,
    DetailBands,
    SubbandPyramid,
    _analyse,
    _forward_level,
    _inverse_level,
    _lift,
    _pyramid_grids,
    _thresholded_inverse,
    band_margin,
    dwt2_ll,
    dwt2_ll_inverse,
    ll_synthesis_atom,
)

# Independent convolution oracle: published CDF 9/7 analysis taps
# (12-digit literature values), rescaled to this implementation's
# normalization: lowpass DC gain sqrt(2), highpass divided by the same.
_H_LITERATURE = math.sqrt(2.0) * np.array(
    [0.026748757411, -0.016864118443, -0.078223266529, 0.266864118443,
     0.602949018236, 0.266864118443, -0.078223266529, -0.016864118443,
     0.026748757411]
)
_G_LITERATURE = np.array(
    [0.091271763114, -0.057543526229, -0.591271763114, 1.115087052457,
     -0.591271763114, -0.057543526229, 0.091271763114]
) / math.sqrt(2.0)


def _extend_symmetric(x: np.ndarray, pad: int) -> np.ndarray:
    """Whole-sample symmetric extension: x[-k] = x[k], x[N-1+k] = x[N-1-k]."""
    return np.concatenate([x[pad:0:-1], x, x[-2 : -2 - pad : -1]])


def _conv_analyze_1d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct filter-and-downsample analysis (the convolution oracle)."""
    pad = 4
    ext = _extend_symmetric(x, pad)
    lo = np.array(
        [ext[2 * i : 2 * i + 9] @ _H_LITERATURE for i in range(len(x) // 2)]
    )
    hi = np.array(
        [ext[2 * i + 2 : 2 * i + 9] @ _G_LITERATURE for i in range(len(x) // 2)]
    )
    return lo, hi


def _conv_forward_level(grid: np.ndarray):
    h, w = grid.shape
    lo_x = np.empty((h, w // 2))
    hi_x = np.empty((h, w // 2))
    for i in range(h):
        lo_x[i], hi_x[i] = _conv_analyze_1d(grid[i])

    def columns(half):
        lo = np.empty((h // 2, half.shape[1]))
        hi = np.empty((h // 2, half.shape[1]))
        for j in range(half.shape[1]):
            lo[:, j], hi[:, j] = _conv_analyze_1d(half[:, j])
        return lo, hi

    ll, lh = columns(lo_x)  # lh: highpass vertically on the low-x half
    hl, hh = columns(hi_x)
    return ll, lh, hl, hh


def _zero_pyramid(h, w, levels, ll=None):
    zero = lambda lvl: np.zeros((h >> lvl, w >> lvl))
    details = tuple(
        DetailBands(zero(lvl), zero(lvl), zero(lvl)) for lvl in range(1, levels + 1)
    )
    if ll is None:
        ll = np.zeros((h >> levels, w >> levels))
    return SubbandPyramid(ll=ll, details=details)


class TestForward:
    def test_constant_grid_dc_gain(self):
        for v in (0.0, 0.3, 1.0):
            pyr = dwt2_forward(np.full((64, 48), v))
            for bands in pyr.details:
                for grid in bands.grids():
                    assert np.abs(grid).max() <= 1e-12
            assert np.abs(pyr.ll - 8.0 * v).max() < 1e-9

    def test_512_pyramid_has_ten_subbands(self):
        pyr = dwt2_forward(np.zeros((512, 512)))
        grids = [pyr.ll] + [g for b in pyr.details for g in b.grids()]
        assert len(grids) == 10
        assert pyr.ll.shape == (64, 64)
        assert pyr.details[0].lh.shape == (256, 256)
        assert pyr.details[2].hh.shape == (64, 64)

    def test_perfect_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for shape in [(64, 64), (96, 128), (24, 40)]:
            x = rng.random(shape)
            pyr = dwt2_forward(x)
            assert np.abs(dwt2_inverse(pyr) - x).max() < 1e-9

    def test_matches_convolution_oracle_three_levels(self):
        rng = np.random.default_rng(13)
        x = rng.random((64, 64))
        pyr = dwt2_forward(x)
        cur = x
        for lvl in range(3):
            cur, lh, hl, hh = _conv_forward_level(cur)
            assert np.abs(pyr.details[lvl].lh - lh).max() < 1e-8
            assert np.abs(pyr.details[lvl].hl - hl).max() < 1e-8
            assert np.abs(pyr.details[lvl].hh - hh).max() < 1e-8
        assert np.abs(pyr.ll - cur).max() < 1e-8

    def test_non_divisible_dimensions_rejected(self):
        # a 2x2 grid is smaller than one LL3 coefficient's 8x8 block, and a
        # grid with a zero side holds none
        for shape in ((100, 100), (2, 2), (0, 8), (8, 0), (0, 0)):
            for transform in (dwt2_forward, dwt2_ll):
                with pytest.raises(DimensionError, match="divisible by 8"):
                    transform(np.zeros(shape))


class TestInverse:
    def test_all_zero_pyramid(self):
        out = dwt2_inverse(_zero_pyramid(32, 32, 3))
        assert np.abs(out).max() == 0.0

    def test_dc_only_pyramid(self):
        for v in (0.25, 1.0):
            pyr = _zero_pyramid(64, 64, 3, ll=np.full((8, 8), 8.0 * v))
            out = dwt2_inverse(pyr)
            assert np.abs(out - v).max() < 1e-9

    def test_single_coefficient_energy_scaling(self):
        # squared change from an epsilon-perturbed LL coefficient equals
        # eps^2 times the atom energy measured once by the impulse oracle
        atom = ll_synthesis_atom(128, 128, 7, 9)
        energy = float((atom**2).sum())
        rng = np.random.default_rng(14)
        x = rng.random((128, 128))
        pyr = dwt2_forward(x)
        base = dwt2_inverse(pyr)
        eps = 0.125
        pyr.ll[7, 9] += eps
        changed = dwt2_inverse(pyr)
        diff = changed - base
        assert abs((diff**2).sum() - eps**2 * energy) < 1e-9
        assert np.abs(diff - eps * atom).max() < 1e-12

    def test_inconsistent_shapes_rejected(self):
        pyr = _zero_pyramid(32, 32, 2)
        bad = SubbandPyramid(
            ll=pyr.ll,
            details=(pyr.details[0], DetailBands(np.zeros((4, 4)), np.zeros((8, 8)), np.zeros((8, 8)))),
        )
        with pytest.raises(DimensionError):
            dwt2_inverse(bad)

    @pytest.mark.parametrize("ll_shape", [(64,), (4, 4), (8, 16)])
    def test_ll_that_does_not_fit_the_details_rejected(self, ll_shape):
        # LL gives the base size, so a flat or mis-sized LL fails the checks
        pyr = _zero_pyramid(32, 32, 2)
        with pytest.raises(DimensionError):
            dwt2_inverse(SubbandPyramid(ll=np.zeros(ll_shape), details=pyr.details))


class TestProperties:
    def test_linearity(self):
        rng = np.random.default_rng(15)
        x, y = rng.random((64, 64)), rng.random((64, 64))
        a, b = 2.5, -1.25
        p_mix = dwt2_forward(a * x + b * y)
        p_x, p_y = dwt2_forward(x), dwt2_forward(y)
        assert np.abs(p_mix.ll - (a * p_x.ll + b * p_y.ll)).max() < 1e-9
        for lvl in range(3):
            for gm, gx, gy in zip(
                p_mix.details[lvl].grids(),
                p_x.details[lvl].grids(),
                p_y.details[lvl].grids(),
            ):
                assert np.abs(gm - (a * gx + b * gy)).max() < 1e-9

    def test_affine_grid_vanishing_moments_interior(self):
        # the symmetric fold turns a ramp into a tent at the edges, so the
        # moment condition applies away from the boundary
        yy, xx = np.mgrid[0:64, 0:96]
        grid = 0.2 + 0.003 * xx + 0.005 * yy
        pyr = dwt2_forward(grid)
        for g in pyr.details[0].grids():
            assert np.abs(g[4:-4, 4:-4]).max() <= 1e-9

    def test_dc_gain_mean_identity(self):
        # holds when the content near the boundary is flat; the fold
        # redistributes edge weight otherwise
        rng = np.random.default_rng(16)
        x = np.full((128, 128), 0.4)
        x[32:-32, 32:-32] += rng.random((64, 64)) - 0.5
        pyr = dwt2_forward(x)
        assert abs(pyr.ll.mean() - 8.0 * x.mean()) < 1e-9


def _float_copy_forward(x: np.ndarray) -> list[np.ndarray]:
    """The level grids of the analysis that copied a float grid's even and
    odd columns into its row halves, the oracle for dividing samples
    straight into them."""
    cur = np.asarray(x, dtype=np.float64)
    grids = []
    for _ in range(LEVELS):
        h, w = cur.shape
        rows = np.empty((2, h, w // 2))
        grid = np.empty((2, 2, h // 2, w // 2))
        rows[0] = cur[:, 0::2]
        rows[1] = cur[:, 1::2]
        _lift(rows[0, :, :, None], rows[1, :, :, None], free=grid)
        grid[0] = rows[:, 0::2]
        grid[1] = rows[:, 1::2]
        _lift(grid[0], grid[1], free=rows)
        cur = grid[0, 0]
        grids.append(grid)
    return grids


# sides that are odd multiples of 8 make the last level split odd lengths
_ODD_SHAPES = [(8, 8), (24, 40), (40, 8), (8, 56)]
# (shape, seed) pairs
_FITTING = [
    ((8, 8), 1), ((8, 56), 2), ((40, 8), 3),
    ((24, 40), 1), ((64, 32), 2), ((48, 80), 3), ((8, 16), 4),
    ((40, 24), 1), ((56, 72), 2), ((8, 24), 3), ((88, 40), 4),
]


class TestIntegerAnalysis:
    """Dividing samples straight into the first level's halves gives the
    bytes of dividing them first, then copying the halves."""

    @pytest.mark.parametrize("shape, seed", _FITTING)
    def test_float_samples_at_maxval_1(self, shape, seed):
        x = np.random.default_rng(seed).random(shape) * 3 - 1
        want = [g.tobytes() for g in _float_copy_forward(x)]
        grids = _pyramid_grids(*shape)
        pyr = _analyse(x, 1, grids)
        assert [g.tobytes() for g in grids] == want
        assert pyr.ll.tobytes() == grids[-1][0, 0].tobytes()
        public = dwt2_forward(x)
        assert public.ll.tobytes() == pyr.ll.tobytes()
        for got, grid in zip(public.details, grids):
            assert got.hl.tobytes() == grid[0, 1].tobytes()
            assert got.lh.tobytes() == grid[1, 0].tobytes()
            assert got.hh.tobytes() == grid[1, 1].tobytes()

    @pytest.mark.parametrize("shape, seed", _FITTING)
    @pytest.mark.parametrize("dtype, maxval", [
        (np.uint8, 255), (">u2", 255), (">u2", 1000), (">u2", 65535),
        (np.int64, 255), (np.int64, 1000), (np.int64, 65535),
    ])
    def test_integer_samples(self, shape, seed, dtype, maxval):
        rng = np.random.default_rng(maxval + seed)
        samples = rng.integers(0, maxval + 1, (*shape, 3)).astype(dtype)
        plane = samples[..., 1]  # a strided channel view, as the CLI passes
        want = [g.tobytes() for g in _float_copy_forward(plane / maxval)]
        grids = _pyramid_grids(*shape)
        _analyse(plane, maxval, grids)
        assert [g.tobytes() for g in grids] == want


class TestLLOnly:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_full_pyramid_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for shape in _ODD_SHAPES:
            x = rng.random(shape)
            assert np.array_equal(dwt2_ll(x), dwt2_forward(x).ll)

    def test_input_untouched_and_dimensions_checked(self):
        x = np.random.default_rng(9).random((24, 40))
        before = x.copy()
        dwt2_ll(x)
        assert np.array_equal(x, before)
        with pytest.raises(DimensionError):
            dwt2_ll(x[:, :36])


class TestLLInverse:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_zero_detail_inverse_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for h, w in _ODD_SHAPES:  # (8, 8) from a single LL3 coefficient
            ll = rng.standard_normal((h >> LEVELS, w >> LEVELS))
            got = dwt2_ll_inverse(ll)
            assert got.shape == (h, w)
            assert np.array_equal(got, dwt2_inverse(_zero_pyramid(h, w, LEVELS, ll=ll)))

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_band_contract(self, r):
        # LL zero from row r on: band_margin() rows past r give the top of the
        # whole synthesis, which is zero below them; a zero-detail change needs 2
        tall = np.zeros((r + 9, 5))
        tall[:r] = np.random.default_rng(r).standard_normal((r, 5))
        full = dwt2_ll_inverse(tall)
        for rows, exact in ((r + band_margin(), True), (r + 2, True), (r + 1, False)):
            band = dwt2_ll_inverse(tall[:rows])
            assert (np.array_equal(band, full[: len(band)]) and not full[len(band) :].any()) == exact

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4), ()])
    def test_ll_must_be_2d(self, shape):
        with pytest.raises(DimensionError):
            dwt2_ll_inverse(np.zeros(shape))

    def test_atom_checks_dimensions(self):
        with pytest.raises(DimensionError):
            ll_synthesis_atom(100, 96, 0, 0)


def _tainted_rows(grid: np.ndarray) -> list[int]:
    """The rows, along axis -2, of the (..., rows, cols) grids that hold a NaN."""
    return np.flatnonzero(np.isnan(grid).any(axis=-1).reshape(-1, grid.shape[-2]).any(axis=0)).tolist()


class TestReach:
    """NaN taint through one level measures how far lifting carries a change
    along the columns.  Lifting is not symmetric, so each reach is measured
    from below and from above."""

    @pytest.mark.parametrize("r", [2, 5, 9])
    def test_analysis(self, r):
        h = 24
        for rows, want in ((slice(2 * r, None), range(r - ANALYSIS_UP, h // 2)),
                           (slice(0, 2 * r), range(0, r + ANALYSIS_DOWN + 1))):
            x = np.zeros((h, 16))
            x[rows] = np.nan
            with np.errstate(invalid="ignore"):
                grid = _forward_level(x, np.empty((2, 2, h // 2, 8)))
            assert _tainted_rows(grid) == list(want)

    @pytest.mark.parametrize("r", [2, 5, 9])
    def test_synthesis(self, r):
        h = 12
        for rows, want in ((slice(r, None), range(2 * r - SYNTHESIS_UP, 2 * h)),
                           (slice(0, r), range(0, 2 * r + SYNTHESIS_DOWN + 1))):
            bands = np.zeros((4, h, 8))
            bands[:, rows] = np.nan
            with np.errstate(invalid="ignore"):
                out = _inverse_level(bands[0], DetailBands(*bands[1:]))
            assert _tainted_rows(out) == list(want)

    def test_band_margin_is_the_analysis_reach_over_every_level(self):
        x = np.zeros((8 * 12, 16))
        x[8 * 7 :] = np.nan  # a band of 7 LL3 rows ends here
        with np.errstate(invalid="ignore"):
            ll = dwt2_ll(x)
        assert _tainted_rows(ll)[0] == 7 - band_margin() == 4


class TestThreshold:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(17)
        pyr = dwt2_forward(rng.random((32, 32)))
        out = threshold_details(pyr, 0.0)
        assert np.array_equal(out.ll, pyr.ll)
        for b_out, b_in in zip(out.details, pyr.details):
            for g_out, g_in in zip(b_out.grids(), b_in.grids()):
                assert np.array_equal(g_out, g_in)

    def test_infinite_threshold_zeroes_details_only(self):
        rng = np.random.default_rng(18)
        pyr = dwt2_forward(rng.random((32, 32)))
        out = threshold_details(pyr, math.inf)
        assert np.array_equal(out.ll, pyr.ll)
        for bands in out.details:
            for g in bands.grids():
                assert np.abs(g).max() == 0.0

    def test_strict_inequality_at_boundary(self):
        pyr = _zero_pyramid(8, 8, 1)
        pyr.details[0].lh[0, :3] = (-0.5, 0.2, 0.8)
        out = threshold_details(pyr, 0.5)
        assert list(out.details[0].lh[0, :3]) == [-0.5, 0.0, 0.8]

    def test_negative_threshold_rejected(self):
        pyr = _zero_pyramid(8, 8, 1)
        with pytest.raises(ValueError):
            threshold_details(pyr, -1.0)

    @pytest.mark.parametrize("t", [0.0, 0.05, math.inf])
    def test_fused_synthesis_matches_thresholded_inverse(self, t):
        rng = np.random.default_rng(19)
        noisy = dwt2_forward(rng.random((64, 96)))
        # a zero LL under small details of either sign, some exactly +-0.05,
        # which the strict |c| < t keeps
        quiet = _zero_pyramid(64, 96, 3)
        for bands in quiet.details:
            for g in bands.grids():
                g[...] = rng.choice([-0.05, -0.01, 0.0, 0.02, 0.05], g.shape)
        for pyr in (noisy, quiet):
            want = dwt2_inverse(threshold_details(pyr, t))
            assert _thresholded_inverse(pyr, t).tobytes() == want.tobytes()


class TestImpulseOracle:
    def test_interior_atom_support_and_energy(self):
        atom = ll_synthesis_atom(512, 512, 32, 32)
        ys, xs = np.nonzero(np.abs(atom) > 1e-12)
        # 43 = (7-tap synthesis lowpass - 1) * (2^3 - 1) + 1
        assert ys.max() - ys.min() + 1 == 43
        assert xs.max() - xs.min() + 1 == 43
        energy = (atom**2).sum()
        assert 0.5 < energy < 2.0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            ll_synthesis_atom(64, 64, 8, 0)
