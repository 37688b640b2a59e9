import math
import tracemalloc

import numpy as np
import pytest

from mwrecon.kspace import MultiCoilKSpace, apply_pattern, make_uniform_pattern
from mwrecon.phantom import _ELLIPSES, CoilMaps, make_coil_maps, shepp_logan, simulate_kspace
from oracles import (
    CoilImage,
    coil_maps_tensordot,
    fft2c,
    fft2c_stacked,
    ifft2c,
    shepp_logan_full_grid,
    shepp_logan_membership,
    simulate_kspace_stacked,
    sos_combine,
)

GRIDS = [(33, 33), (64, 48), (17, 20)]


class TestSheppLogan:
    def test_outside_outer_ellipse_is_zero(self):
        img = shepp_logan(64, 64)
        assert img[0, 0] == 0.0
        assert img[0, 63] == 0.0
        assert img[63, 0] == 0.0

    def test_max_is_one(self):
        img = shepp_logan(64, 64)
        assert img.max() == pytest.approx(1.0)
        assert img.min() >= 0.0

    def test_matches_membership_oracle(self):
        img = shepp_logan(64, 64)
        expected = shepp_logan_membership(64, 64, _ELLIPSES)
        assert np.array_equal(img, expected)

    def test_rectangular_grid(self):
        img = shepp_logan(32, 48)
        assert img.shape == (32, 48)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="16"):
            shepp_logan(8, 64)

    def test_deterministic(self):
        assert np.array_equal(shepp_logan(32, 32), shepp_logan(32, 32))


class TestCoilMaps:
    def test_deterministic_for_seed(self):
        a = make_coil_maps(4, 16, 16, seed=3)
        b = make_coil_maps(4, 16, 16, seed=3)
        assert np.array_equal(a.maps, b.maps)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_sos_bounded(self, seed):
        maps = make_coil_maps(12, 64, 64, seed=seed)
        sos = np.sqrt(np.sum(np.abs(maps.maps) ** 2, axis=0))
        assert sos.min() > 0.2
        assert sos.max() < 5.0

    def test_rejects_zero_coils(self):
        with pytest.raises(ValueError, match="coil"):
            make_coil_maps(0, 16, 16, seed=0)


class TestSimulate:
    def test_noise_free_forward_encoding(self):
        img = shepp_logan(32, 32)
        maps = make_coil_maps(4, 32, 32, seed=1)
        ks = simulate_kspace(img, maps, snr_db=None)
        back = ifft2c(ks)
        assert np.max(np.abs(back.data - img[None] * maps.maps)) < 1e-10

    def test_full_pipeline_sos(self):
        img = shepp_logan(48, 48)
        maps = make_coil_maps(8, 48, 48, seed=2)
        ks = simulate_kspace(img, maps)
        sos = sos_combine(ifft2c(ks))
        expected = np.abs(img) * np.sqrt(np.sum(np.abs(maps.maps) ** 2, axis=0))
        assert np.max(np.abs(sos - expected)) < 1e-9

    def test_zero_image_gives_zero_kspace(self):
        maps = make_coil_maps(2, 16, 16, seed=3)
        ks = simulate_kspace(np.zeros((16, 16)), maps, snr_db=30, seed=0)
        assert np.all(ks.data == 0)

    def test_realized_snr_close_to_target(self):
        img = shepp_logan(64, 64)
        maps = make_coil_maps(4, 64, 64, seed=4)
        clean = simulate_kspace(img, maps)
        noisy = simulate_kspace(img, maps, snr_db=30.0, seed=5)
        realized = 20 * np.log10(
            np.linalg.norm(clean.data) / np.linalg.norm(noisy.data - clean.data)
        )
        assert realized == pytest.approx(30.0, abs=1.0)

    def test_noise_is_deterministic_per_seed(self):
        img = shepp_logan(16, 16)
        maps = make_coil_maps(2, 16, 16, seed=0)
        a = simulate_kspace(img, maps, snr_db=20, seed=9)
        b = simulate_kspace(img, maps, snr_db=20, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_noise_is_zero_mean(self):
        img = shepp_logan(16, 16)
        maps = make_coil_maps(2, 16, 16, seed=0)
        clean = simulate_kspace(img, maps)
        n_avg = 200
        acc = np.zeros_like(clean.data)
        noise_norms = []
        for s in range(n_avg):
            noisy = simulate_kspace(img, maps, snr_db=20, seed=s)
            acc += noisy.data
            noise_norms.append(np.linalg.norm(noisy.data - clean.data))
        residual = np.linalg.norm(acc / n_avg - clean.data)
        expected = np.mean(noise_norms) / np.sqrt(n_avg)
        assert residual < 2.0 * expected
        assert residual > expected / 2.0

    def test_shape_mismatch(self):
        maps = make_coil_maps(2, 16, 16, seed=0)
        with pytest.raises(ValueError, match="shape"):
            simulate_kspace(np.zeros((8, 8)), maps)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_inf_snr_before_any_transform(self, snr_db, monkeypatch):
        from mwrecon import phantom

        def no_transform(*args):
            raise AssertionError("transformed before checking snr_db")

        monkeypatch.setattr(phantom, "_fft2c_into", no_transform)
        maps = make_coil_maps(2, 16, 16, seed=0)
        with pytest.raises(ValueError, match="snr_db"):
            simulate_kspace(shepp_logan(16, 16), maps, snr_db=snr_db)

    def test_plus_inf_snr_is_noise_free(self):
        img = shepp_logan(16, 16)
        maps = make_coil_maps(2, 16, 16, seed=0)
        assert np.array_equal(simulate_kspace(img, maps, snr_db=math.inf, seed=4).data,
                              simulate_kspace(img, maps).data)


@pytest.mark.parametrize("ny, nx", GRIDS)
class TestSynthesisBytes:
    """Each synthesis step equals, bit for bit, its whole-grid composition."""

    def test_shepp_logan(self, ny, nx):
        assert np.array_equal(shepp_logan(ny, nx), shepp_logan_full_grid(ny, nx, _ELLIPSES))

    def test_coil_maps(self, ny, nx):
        for coils, seed in ((1, 0), (4, 7), (8, 3)):
            assert np.array_equal(make_coil_maps(coils, ny, nx, seed=seed).maps,
                                  coil_maps_tensordot(coils, ny, nx, seed=seed))

    def test_fft2c(self, ny, nx):
        stack = shepp_logan(ny, nx)[None] * make_coil_maps(4, ny, nx, seed=7).maps
        assert np.array_equal(fft2c(CoilImage(stack)).data, fft2c_stacked(stack))

    @pytest.mark.parametrize("snr_db, seed", [(None, 0), (40.0, 11), (10.0, 2**31 - 5)])
    def test_simulate_kspace(self, ny, nx, snr_db, seed):
        img = shepp_logan(ny, nx)
        maps = make_coil_maps(4, ny, nx, seed=7)
        got = simulate_kspace(img, maps, snr_db=snr_db, seed=seed).data
        assert np.array_equal(got, simulate_kspace_stacked(img, maps.maps, snr_db, seed))


def traced_peak(fn):
    """(result, peak bytes numpy allocated during ``fn()``)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestSynthesisMemory:
    """Peak allocation of each step on an 8-coil 128 x 128 scene, relative to its output.

    A whole-grid temporary (a coil-image stack, a shifted copy, a noise
    array, a copy made by a container) adds at least one output's size.
    """

    @pytest.fixture(scope="class")
    def scene(self):
        img = shepp_logan(128, 128)
        maps = make_coil_maps(8, 128, 128, seed=7)
        return img, maps, MultiCoilKSpace(img[None] * maps.maps), simulate_kspace(img, maps)

    @pytest.mark.parametrize("step, bound", [
        ("fft2c", 2.0),
        ("simulate_clean", 2.0),
        ("simulate_noisy", 2.0),
        ("apply_pattern", 2.0),
        ("make_coil_maps", 2.5),  # its complex polynomial planes are 6/8 of the output
    ])
    def test_peak_is_bounded_by_the_output(self, scene, step, bound):
        img, maps, stack, clean = scene
        pattern = make_uniform_pattern(128, 4, 32)
        run = {
            "fft2c": lambda: fft2c(stack).data,
            "simulate_clean": lambda: simulate_kspace(img, maps).data,
            "simulate_noisy": lambda: simulate_kspace(img, maps, snr_db=40.0, seed=5).data,
            "apply_pattern": lambda: apply_pattern(clean, pattern).data,
            "make_coil_maps": lambda: make_coil_maps(8, 128, 128, seed=7).maps,
        }[step]
        out, peak = traced_peak(run)
        assert peak <= bound * out.nbytes, f"{step}: peak {peak / out.nbytes:.2f}x its output"
