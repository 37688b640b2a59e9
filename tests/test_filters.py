import numpy as np
import pytest

from mwrecon.filters import WeightFilter, deweight, remove_filter
from mwrecon.kspace import MultiCoilKSpace
from mwrecon.pipelines import MultiWeightConfig, _weighted
from oracles import filter_gain


def random_kspace(rng, n_coils, ny, nx):
    data = rng.standard_normal((n_coils, ny, nx)) + 1j * rng.standard_normal((n_coils, ny, nx))
    return MultiCoilKSpace(data)


class TestParams:
    """A filter is its exponent P >= 0; a bank's exponents and eps are finite and > 0."""

    @pytest.mark.parametrize("bad", [dict(exponents=(0.6, 0)), dict(exponents=(-0.2,)), dict(eps=0.0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            MultiWeightConfig(8, 8, **bad)

    @pytest.mark.parametrize("bad", [dict(exponents=(float("nan"),)), dict(exponents=(0.4, float("inf"))),
                                     dict(eps=float("nan")), dict(eps=float("inf"))],
                             ids=["nan_exponent", "inf_exponent", "nan_eps", "inf_eps"])
    def test_bank_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            MultiWeightConfig(8, 8, **bad)

    @pytest.mark.parametrize("p", [127.0, 200.0, 2000.0])
    def test_bank_rejects_an_exponent_whose_gain_underflows_in_float32(self, p):
        # the largest gain on an even grid is (0.5**2 + 0.5**2)**P = 0.5**P, and
        # float32's smallest normal number is 2**-126; the networks read float32
        assert MultiWeightConfig(32, 32, (0.6, 126.0)).filters[2].h.max() == 2.0**-126
        with pytest.raises(ValueError, match=rf"filter exponent {p} underflows: .* 32x32 grid"):
            WeightFilter(p, 32, 32)
        with pytest.raises(ValueError, match=rf"filter exponent {p} underflows: .* 32x32 grid"):
            MultiWeightConfig(32, 32, (0.6, p))

    @pytest.mark.parametrize("p", [-0.5, float("nan")], ids=["negative", "nan"])
    def test_filter_rejects_a_negative_or_nan_exponent(self, p):
        with pytest.raises(ValueError, match="must be >= 0"):
            WeightFilter(p, 8, 8)


class TestMakeFilter:
    """A filter's gain ``h``, evaluated from its exponent."""

    def test_all_pass_is_ones(self):
        # 0**0 == 1: the center too
        for ny, nx in ((4, 4), (7, 5)):
            f = WeightFilter(0, ny, nx)
            assert f.is_all_pass
            assert np.array_equal(f.h, np.ones((ny, nx)))

    def test_h_is_read_only_and_computed_once(self):
        f = WeightFilter(0.4, 8, 8)
        assert f.h is f.h
        with pytest.raises(ValueError):
            f.h[0, 0] = 1.0

    def test_exponent_half_collapses_to_radius(self):
        # P = 0.5 makes the gain equal to r^2*0.5 power -> plain radius
        f = WeightFilter(0.5, 8, 8)
        # location at v = 2/8 = 0.25 above center, u = 0
        assert f.h[8 // 2 + 2, 8 // 2] == pytest.approx(0.25, abs=1e-15)

    def test_corner_value_256(self):
        f = WeightFilter(0.4, 256, 256)
        # r = sqrt(0.5^2 + 0.5^2), h = r**0.8 = 0.5**0.4 (frozen from scalar oracle)
        assert f.h[0, 0] == pytest.approx(0.757858283255199, abs=1e-14)

    def test_center_is_exactly_zero(self):
        for p in (0.2, 0.4, 0.6, 1.3):
            f = WeightFilter(p, 64, 64)
            assert f.h[32, 32] == 0.0

    def test_matches_scalar_oracle_everywhere(self):
        ny, nx = 16, 12
        f = WeightFilter(0.35, ny, nx)
        for ky in range(ny):
            for kx in range(nx):
                assert f.h[ky, kx] == pytest.approx(filter_gain(0.35, ny, nx, ky, kx), rel=1e-12)

    def test_radially_monotone_along_rays(self):
        f = WeightFilter(0.4, 33, 33)
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
        f = WeightFilter(0.6, ny, nx)
        # even dims: edge row/col have no mirror partner inside the grid
        inner = f.h[1:, 1:]
        assert np.max(np.abs(inner - inner[::-1, ::-1])) < 1e-14


def weighted(ks, p):
    """``ks`` weighted by the high-pass filter of exponent ``p``, as the pipelines' branch batch holds it."""
    return _weighted(ks.data, MultiWeightConfig(ks.ny, ks.nx, (p,)), np.arange(ks.ny))[1]


class TestApplyFilter:
    """Weighting a measurement, which the pipelines do for every branch."""

    def test_center_zeroed(self):
        rng = np.random.default_rng(1)
        ks = random_kspace(rng, 3, 8, 8)
        out = weighted(ks, 0.4)
        assert np.all(out[:, 4, 4] == 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        ks = random_kspace(rng, 4, 8, 8)
        expected = np.empty_like(ks.data)
        for c in range(4):
            for ky in range(8):
                for kx in range(8):
                    expected[c, ky, kx] = ks.data[c, ky, kx] * filter_gain(0.4, 8, 8, ky, kx)
        assert np.max(np.abs(weighted(ks, 0.4) - expected)) < 1e-14

    def test_dimension_mismatch(self):
        ks = MultiCoilKSpace(np.zeros((1, 8, 8), dtype=complex))
        with pytest.raises(ValueError, match="grid is 8x8 but filters are 4x4"):
            MultiWeightConfig(4, 4).require_grid(ks.ny, ks.nx)


class TestRemoveFilter:
    def test_roundtrip_on_support(self):
        rng = np.random.default_rng(3)
        ks = random_kspace(rng, 2, 16, 16)
        f = WeightFilter(0.4, 16, 16)
        recovered, valid = remove_filter(MultiCoilKSpace(ks.data * f.h), f, eps=1e-8)
        err = np.abs(recovered.data - ks.data)[:, valid]
        assert np.max(err / np.abs(ks.data)[:, valid]) < 1e-10

    def test_all_pass_passthrough(self):
        rng = np.random.default_rng(4)
        ks = random_kspace(rng, 2, 8, 8)
        out, valid = remove_filter(ks, WeightFilter(0, 8, 8))
        assert valid.all()
        assert np.array_equal(out.data, ks.data)

    def test_mask_thresholds_h(self):
        rng = np.random.default_rng(5)
        ks = random_kspace(rng, 1, 8, 8)
        f = WeightFilter(0.4, 8, 8)
        out, valid = remove_filter(ks, f, eps=1e-3)
        expected_valid = np.empty((8, 8), dtype=bool)
        for ky in range(8):
            for kx in range(8):
                expected_valid[ky, kx] = filter_gain(0.4, 8, 8, ky, kx) >= 1e-3
        assert np.array_equal(valid, expected_valid)
        assert np.all(out.data[:, ~valid] == 0)

    def test_default_eps_masks_center(self):
        rng = np.random.default_rng(6)
        ks = random_kspace(rng, 1, 8, 8)
        f = WeightFilter(0.4, 8, 8)
        _, valid = remove_filter(MultiCoilKSpace(ks.data * f.h), f)
        assert not valid[4, 4]

    def test_rejects_bad_eps(self):
        ks = MultiCoilKSpace(np.zeros((1, 8, 8), dtype=complex))
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps must be finite and > 0"):
                remove_filter(ks, WeightFilter(0, 8, 8), eps=eps)

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.6])
    def test_roundtrip_property_sweep(self, p):
        rng = np.random.default_rng(int(p * 100))
        ks = random_kspace(rng, 3, 64, 64)
        f = WeightFilter(p, 64, 64)
        recovered, valid = remove_filter(MultiCoilKSpace(ks.data * f.h), f)
        err = np.abs(recovered.data - ks.data)[:, valid]
        assert np.max(err / np.abs(ks.data)[:, valid]) < 1e-10


class TestDeweight:
    def test_rows_de_weight_as_on_the_whole_grid(self):
        # the filter's maximum lies outside the rows asked for, and the
        # default eps still scales with it: at P = 4 the samples two steps
        # from the center lie between 1e-6 of the rows' maximum and 1e-6 of
        # the whole filter's, so an eps taken over the rows would keep them
        rng = np.random.default_rng(7)
        f = WeightFilter(4, 16, 16)
        ks = MultiCoilKSpace(random_kspace(rng, 2, 16, 16).data * f.h)
        rows = np.arange(4, 12)
        band = (f.h[rows] >= 1e-6 * f.h[rows].max()) & (f.h[rows] < 1e-6 * f.h.max())
        assert band.any()
        full, full_valid = remove_filter(ks, f)
        part, valid = deweight(ks.data[:, rows], f, rows)
        assert full_valid[rows].any() and not full_valid[rows].all()
        assert not valid[band].any()
        assert np.array_equal(valid, full_valid[rows])
        assert np.array_equal(part, full.data[:, rows])

    def test_all_pass_returns_the_values(self):
        values = np.ones((2, 3, 8), dtype=complex)
        out, valid = deweight(values, WeightFilter(0, 8, 8), np.array([1, 2, 5]))
        assert out is values
        assert valid.shape == (3, 8) and valid.all()
