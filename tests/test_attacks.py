import math

import numpy as np
import pytest

from wavemark import (
    CropRect,
    PlanarImage,
    ber,
    crop,
    dwt2_forward,
    dwt2_inverse,
    embed,
    extract,
    quantize,
    synthesize_host,
    threshold_details,
    wavelet_compress,
)
from conftest import make_mark


class TestWaveletCompress:
    def test_zero_threshold_is_identity(self):
        img = synthesize_host("noise", 64, seed=0)
        out = wavelet_compress(img, 0.0)
        assert np.abs(out.data - img.data).max() < 1e-9

    def test_infinite_threshold_keeps_ll_only(self):
        img = synthesize_host("noise", 64, seed=1)
        out = wavelet_compress(img, math.inf)
        # oracle: reconstruction from the LL-only pyramid per channel
        for ch in range(3):
            pyr = dwt2_forward(img.data[ch])
            expect = np.clip(dwt2_inverse(threshold_details(pyr, math.inf)), 0.0, 1.0)
            assert np.abs(out.data[ch] - expect).max() < 1e-12

    def test_detail_energy_nonincreasing_in_threshold(self):
        img = synthesize_host("noise", 128, seed=2)
        energies = []
        for t in (0.0, 3.0, 10.0, 30.0, 100.0, 300.0):
            attacked = wavelet_compress(img, t)
            total = 0.0
            for ch in range(3):
                pyr = dwt2_forward(attacked.data[ch])
                total += sum(
                    float((g**2).sum()) for b in pyr.details for g in b.grids()
                )
            energies.append(total)
        assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))

    def test_ber_nondecreasing_at_default_thresholds(self):
        mark = make_mark()
        host = synthesize_host("noise", 512, seed=3)
        watermarked, key = embed(host, mark, seed=50)
        watermarked = quantize(watermarked)
        bers = []
        for t in (3.0, 5.0, 7.0):
            attacked = quantize(wavelet_compress(watermarked, t))
            bers.append(ber(mark, extract(attacked, key)))
        assert bers[0] <= bers[1] <= bers[2]

    def test_negative_threshold_rejected(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError):
                wavelet_compress(synthesize_host("noise", 64), t)

    def test_dimension_requirement(self):
        from wavemark import DimensionError

        for shape in ((1, 20, 20), (3, 0, 8)):
            with pytest.raises(DimensionError):
                wavelet_compress(PlanarImage(np.zeros(shape)), 1.0)


class TestCrop:
    def test_empty_rect_is_identity(self):
        img = synthesize_host("noise", 64, seed=4)
        out = crop(img, CropRect(10, 10, 0, 0))
        assert np.array_equal(out.data, img.data)

    def test_whole_image_black(self):
        img = synthesize_host("noise", 64, seed=5)
        out = crop(img, CropRect(0, 0, 64, 64), fill=0.0)
        assert np.abs(out.data).max() == 0.0

    def test_idempotence(self):
        img = synthesize_host("noise", 64, seed=6)
        rect = CropRect(8, 16, 24, 20)
        once = crop(img, rect, fill=0.3)
        twice = crop(once, rect, fill=0.3)
        assert np.array_equal(once.data, twice.data)

    def test_geometry_preserved_and_region_filled(self):
        img = synthesize_host("noise", 64, seed=7)
        rect = CropRect(4, 8, 16, 12)
        out = crop(img, rect, fill=0.5)
        assert (out.width, out.height) == (img.width, img.height)
        assert np.all(out.data[:, 8:20, 4:20] == 0.5)
        mask = np.ones((64, 64), dtype=bool)
        mask[8:20, 4:20] = False
        assert np.array_equal(out.data[:, mask], img.data[:, mask])

    def test_out_of_bounds_rejected(self):
        img = synthesize_host("noise", 64, seed=8)
        with pytest.raises(ValueError):
            crop(img, CropRect(60, 0, 8, 8))
        with pytest.raises(ValueError):
            CropRect(-1, 0, 8, 8)
        with pytest.raises(ValueError):
            CropRect(0, 0, -2, 8)

    def test_fill_range(self):
        img = synthesize_host("noise", 64, seed=9)
        with pytest.raises(ValueError):
            crop(img, CropRect(0, 0, 8, 8), fill=1.5)

    def test_damage_is_local_to_the_rect(self):
        # blanking a region far from every embedded coefficient's
        # footprint leaves the extraction untouched
        mark = make_mark()
        host = synthesize_host("noise", 512, seed=10)
        watermarked, key = embed(host, mark, seed=60)
        watermarked = quantize(watermarked)
        # embedded bits live in LL3 rows 0..14 -> pixels y < 15*8 + 21
        attacked = quantize(crop(watermarked, CropRect(0, 384, 512, 128)))
        recovered = extract(attacked, key)
        assert ber(mark, recovered) == 0.0
