import numpy as np
import pytest

from mwrecon.filters import (
    FilterParams,
    all_pass_filter,
    make_filter,
    remove_filter,
)
from mwrecon.kspace import MultiCoilKSpace
from mwrecon.pipelines import MultiWeightConfig, build_mw_batch
from oracles import filter_gain


def random_kspace(rng, n_coils, ny, nx):
    data = rng.standard_normal((n_coils, ny, nx)) + 1j * rng.standard_normal((n_coils, ny, nx))
    return MultiCoilKSpace(data)


class TestParams:
    @pytest.mark.parametrize("bad", [dict(M=0), dict(D0=-1), dict(P=0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            FilterParams(**bad)

    def test_all_pass_skips_validation(self):
        FilterParams(M=0, D0=0, P=0, all_pass=True)


class TestMakeFilter:
    def test_all_pass_is_ones(self):
        f = make_filter(FilterParams(all_pass=True), 4, 4)
        assert np.array_equal(f.h, np.ones((4, 4)))

    def test_exponent_half_collapses_to_radius(self):
        # P = 0.5 makes the gain equal to r^2*0.5 power -> plain radius
        f = make_filter(FilterParams(M=1, D0=1, P=0.5), 8, 8)
        # location at v = 2/8 = 0.25 above center, u = 0
        assert f.h[8 // 2 + 2, 8 // 2] == pytest.approx(0.25, abs=1e-15)

    def test_corner_value_256(self):
        f = make_filter(FilterParams(M=1, D0=1, P=0.4), 256, 256)
        # r = sqrt(0.5^2 + 0.5^2), h = r**0.8 = 0.5**0.4 (frozen from scalar oracle)
        assert f.h[0, 0] == pytest.approx(0.757858283255199, abs=1e-14)

    def test_center_is_exactly_zero(self):
        for p in (0.2, 0.4, 0.6, 1.3):
            f = make_filter(FilterParams(P=p), 64, 64)
            assert f.h[32, 32] == 0.0

    def test_matches_scalar_oracle_everywhere(self):
        ny, nx = 16, 12
        f = make_filter(FilterParams(M=2.5, D0=0.7, P=0.35), ny, nx)
        for ky in range(ny):
            for kx in range(nx):
                assert f.h[ky, kx] == pytest.approx(
                    filter_gain(2.5, 0.7, 0.35, ny, nx, ky, kx), rel=1e-12
                )

    def test_radially_monotone_along_rays(self):
        f = make_filter(FilterParams(P=0.4), 33, 33)
        c = 16
        for dy, dx in [(0, 1), (1, 0), (1, 1), (2, 1), (-1, 1), (1, -2)]:
            ray = []
            k = 0
            while 0 <= c + k * dy < 33 and 0 <= c + k * dx < 33:
                ray.append(f.h[c + k * dy, c + k * dx])
                k += 1
            assert all(a <= b + 1e-15 for a, b in zip(ray, ray[1:]))

    def test_point_symmetric_about_center(self):
        ny, nx = 16, 16
        f = make_filter(FilterParams(P=0.6), ny, nx)
        # even dims: edge row/col have no mirror partner inside the grid
        inner = f.h[1:, 1:]
        assert np.max(np.abs(inner - inner[::-1, ::-1])) < 1e-14

    def test_doubling_m_doubles_h(self):
        a = make_filter(FilterParams(M=1.0, P=0.4), 32, 32)
        b = make_filter(FilterParams(M=2.0, P=0.4), 32, 32)
        assert np.array_equal(b.h, 2.0 * a.h)


def weighted(ks, f):
    """``ks`` weighted by the high-pass filter ``f``, as the pipelines' branch batch holds it."""
    return build_mw_batch(ks, MultiWeightConfig((all_pass_filter(ks.ny, ks.nx), f)))[1]


class TestApplyFilter:
    """Weighting a measurement, which :func:`build_mw_batch` does for every branch."""

    def test_center_zeroed(self):
        rng = np.random.default_rng(1)
        ks = random_kspace(rng, 3, 8, 8)
        out = weighted(ks, make_filter(FilterParams(P=0.4), 8, 8))
        assert np.all(out[:, 4, 4] == 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        ks = random_kspace(rng, 4, 8, 8)
        f = make_filter(FilterParams(P=0.4), 8, 8)
        expected = np.empty_like(ks.data)
        for c in range(4):
            for ky in range(8):
                for kx in range(8):
                    expected[c, ky, kx] = ks.data[c, ky, kx] * filter_gain(1, 1, 0.4, 8, 8, ky, kx)
        assert np.max(np.abs(weighted(ks, f) - expected)) < 1e-14

    def test_dimension_mismatch(self):
        ks = MultiCoilKSpace(np.zeros((1, 8, 8), dtype=complex))
        with pytest.raises(ValueError, match="grid"):
            build_mw_batch(ks, MultiWeightConfig((all_pass_filter(4, 4),)))


class TestRemoveFilter:
    def test_roundtrip_on_support(self):
        rng = np.random.default_rng(3)
        ks = random_kspace(rng, 2, 16, 16)
        f = make_filter(FilterParams(P=0.4), 16, 16)
        recovered, valid = remove_filter(MultiCoilKSpace(ks.data * f.h), f, eps=1e-8)
        err = np.abs(recovered.data - ks.data)[:, valid]
        assert np.max(err / np.abs(ks.data)[:, valid]) < 1e-10

    def test_all_pass_passthrough(self):
        rng = np.random.default_rng(4)
        ks = random_kspace(rng, 2, 8, 8)
        out, valid = remove_filter(ks, all_pass_filter(8, 8))
        assert valid.all()
        assert np.array_equal(out.data, ks.data)

    def test_mask_thresholds_h(self):
        rng = np.random.default_rng(5)
        ks = random_kspace(rng, 1, 8, 8)
        f = make_filter(FilterParams(P=0.4), 8, 8)
        out, valid = remove_filter(ks, f, eps=1e-3)
        expected_valid = np.empty((8, 8), dtype=bool)
        for ky in range(8):
            for kx in range(8):
                expected_valid[ky, kx] = filter_gain(1, 1, 0.4, 8, 8, ky, kx) >= 1e-3
        assert np.array_equal(valid, expected_valid)
        assert np.all(out.data[:, ~valid] == 0)

    def test_default_eps_masks_center(self):
        rng = np.random.default_rng(6)
        ks = random_kspace(rng, 1, 8, 8)
        f = make_filter(FilterParams(P=0.4), 8, 8)
        _, valid = remove_filter(MultiCoilKSpace(ks.data * f.h), f)
        assert not valid[4, 4]

    def test_rejects_bad_eps(self):
        ks = MultiCoilKSpace(np.zeros((1, 8, 8), dtype=complex))
        with pytest.raises(ValueError, match="eps"):
            remove_filter(ks, all_pass_filter(8, 8), eps=0.0)

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.6])
    def test_roundtrip_property_sweep(self, p):
        rng = np.random.default_rng(int(p * 100))
        ks = random_kspace(rng, 3, 64, 64)
        f = make_filter(FilterParams(P=p), 64, 64)
        recovered, valid = remove_filter(MultiCoilKSpace(ks.data * f.h), f)
        err = np.abs(recovered.data - ks.data)[:, valid]
        assert np.max(err / np.abs(ks.data)[:, valid]) < 1e-10
