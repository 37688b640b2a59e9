import numpy as np
import pytest

from mwrecon.phantom import _ELLIPSES, CoilMaps, make_coil_maps, shepp_logan, simulate_kspace
from oracles import CoilImage, ifft2c, shepp_logan_membership, sos_combine


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

    def test_single_constant_coil(self):
        maps = make_coil_maps(1, 16, 16, seed=0, variation=0.0)
        assert np.allclose(np.abs(maps.maps), 1.0, atol=1e-12)
        img = shepp_logan(16, 16)
        sos = sos_combine(CoilImage(img[None] * maps.maps))
        assert np.allclose(sos, np.abs(img), atol=1e-12)

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
