import numpy as np
import pytest

from mwrecon import grappa
from mwrecon.grappa import GrappaKernel, KernelGeometry, calibrate, interpolate
from mwrecon.kspace import MultiCoilKSpace, apply_pattern, make_uniform_pattern
from oracles import (
    grappa_apply_loops,
    grappa_calibration_system as _calibration_system,
    grappa_source_matrix as _source_matrix,
    normal_equations_solve,
    planted_full_grid as _planted,
)


def planted_full_grid(rng, n_coils, ny, nx, geom):
    return _planted(rng, n_coils, ny, nx, geom.R, geom.bx_half, geom.by_taps)


class TestGeometry:
    def test_footprint(self):
        g = KernelGeometry(R=4, bx_half=1, by_taps=2)
        assert g.kx_width == 3
        assert g.footprint_rows == 5
        assert g.n_sources(4) == 24

    @pytest.mark.parametrize("bad", [dict(R=1), dict(R=2, bx_half=-1), dict(R=2, by_taps=1)])
    def test_rejects_bad_geometry(self, bad):
        with pytest.raises(ValueError):
            KernelGeometry(**bad)

    def test_kernel_shape_validation(self):
        g = KernelGeometry(R=2, bx_half=1, by_taps=2)
        with pytest.raises(ValueError, match="shape"):
            GrappaKernel(geometry=g, n_coils=2, weights=np.zeros((2, 1, 2, 2, 2)))


class TestCalibrationSystem:
    def test_dimensions_by_window_enumeration(self):
        # 10x8 ACS, 2 coils, R=2, 2 ky taps, 3 kx taps: anchors must sit on
        # the acquisition lattice, so rows {0,2,4,6} x 6 interior columns.
        rng = np.random.default_rng(0)
        acs = MultiCoilKSpace(
            rng.standard_normal((2, 10, 8)) + 1j * rng.standard_normal((2, 10, 8))
        )
        geom = KernelGeometry(R=2, bx_half=1, by_taps=2)
        anchors = [r for r in range(10 - geom.footprint_rows + 1) if r % 2 == 0]
        A, B = _calibration_system(acs, geom, row0=0)
        assert A.shape == (len(anchors) * 6, 12)
        assert A.shape == (24, 12)
        assert B.shape == (24, 2)  # one column per (coil, offset m)

    def test_minimal_footprint_columns(self):
        rng = np.random.default_rng(1)
        acs = MultiCoilKSpace(rng.standard_normal((1, 6, 4)) + 0j)
        geom = KernelGeometry(R=2, bx_half=0, by_taps=2)
        A, _ = _calibration_system(acs, geom, row0=0)
        assert A.shape[1] == 2  # one coil, two ky taps, one column

    def test_acs_too_small(self):
        acs = MultiCoilKSpace(np.zeros((2, 3, 8), dtype=complex))
        geom = KernelGeometry(R=4, bx_half=1, by_taps=2)  # needs 5 rows
        with pytest.raises(ValueError, match="ACS too small"):
            _calibration_system(acs, geom, row0=0)

    @pytest.mark.parametrize("shape, geom, row0, message", [
        ((2, 16, 32), KernelGeometry(R=4, bx_half=20, by_taps=2), 8,
         "footprint of 41 columns x 5 rows does not fit the scan: 32 columns, 16 ACS rows from row 8 "
         "on the R=4 lattice"),
        ((2, 16, 32), KernelGeometry(R=4, bx_half=1, by_taps=5), 8,
         "footprint of 3 columns x 17 rows does not fit the scan: 32 columns, 16 ACS rows from row 8 "
         "on the R=4 lattice"),
        # 7 rows hold a 7-row footprint only when the first sits on the lattice
        ((1, 7, 8), KernelGeometry(R=3, bx_half=1, by_taps=3), 1,
         "footprint of 3 columns x 7 rows does not fit the scan: 8 columns, 7 ACS rows from row 1 "
         "on the R=3 lattice"),
    ], ids=["too_wide", "too_tall", "off_lattice"])
    def test_footprint_that_does_not_fit_names_columns_and_rows(self, shape, geom, row0, message):
        acs = MultiCoilKSpace(np.ones(shape, dtype=complex))
        with pytest.raises(ValueError) as info:
            calibrate(acs, geom, ridge=1.0, row0=row0)
        assert str(info.value) == message
        with pytest.raises(ValueError, match="does not fit"):
            grappa.check_footprint(geom, shape[2], shape[1], row0)
        # a readout twice the kernel's width and one lattice step more of ACS hold it
        grappa.check_footprint(geom, 2 * geom.kx_width, shape[1] + geom.R, row0)

    def test_entries_match_manual_gather(self):
        rng = np.random.default_rng(2)
        acs_data = rng.standard_normal((2, 8, 6)) + 1j * rng.standard_normal((2, 8, 6))
        acs = MultiCoilKSpace(acs_data)
        geom = KernelGeometry(R=2, bx_half=1, by_taps=2)
        A, B = _calibration_system(acs, geom, row0=0)
        b = B[:, 1 * (geom.R - 1) + 1 - 1]  # target coil 1, offset m = 1
        # first row: anchor 0, leftmost window (target column 1)
        manual = []
        for c in range(2):
            for tap in (0, 2):
                for x in (0, 1, 2):
                    manual.append(acs_data[c, tap, x])
        assert np.array_equal(A[0], np.array(manual))
        assert b[0] == acs_data[1, 1, 1]

    def test_source_matrix_gathers_one_anchor_run(self):
        rng = np.random.default_rng(20)
        grid = rng.standard_normal((30, 9, 3)) + 1j * rng.standard_normal((30, 9, 3))
        geom = KernelGeometry(R=3, bx_half=1, by_taps=2)
        anchors = np.array([4, 7, 10, 13, 16])
        x0 = 9 - 2 * geom.bx_half
        A = _source_matrix(grid, anchors, geom)
        assert A.shape == (anchors.size * x0, 3 * 2 * 3)
        for i, a in enumerate(anchors):
            for x in range(x0):
                patch = grid[[a, a + geom.R], x : x + geom.kx_width]  # [by, bx, coil]
                assert np.array_equal(A[i * x0 + x], patch.transpose(2, 0, 1).reshape(-1))

    def test_row0_shifts_lattice(self):
        rng = np.random.default_rng(3)
        acs = MultiCoilKSpace(rng.standard_normal((1, 9, 5)) + 0j)
        geom = KernelGeometry(R=2, bx_half=1, by_taps=2)
        A0, _ = _calibration_system(acs, geom, row0=0)
        A1, _ = _calibration_system(acs, geom, row0=1)
        # row0=1 moves the lattice to odd ACS rows: anchors {1,3,5} instead of {0,2,4,6}
        assert A0.shape[0] == 4 * 3
        assert A1.shape[0] == 3 * 3


class TestCalibrate:
    def test_recovers_planted_kernel(self):
        rng = np.random.default_rng(4)
        geom = KernelGeometry(R=2, bx_half=1, by_taps=2)
        full, weights = planted_full_grid(rng, 3, 14, 16, geom)
        kernel = calibrate(MultiCoilKSpace(full), geom, ridge=0.0)
        assert np.max(np.abs(kernel.weights - weights)) / np.max(np.abs(weights)) < 1e-8

    def test_zero_acs_with_ridge_gives_zero_kernel(self):
        acs = MultiCoilKSpace(np.zeros((2, 8, 8), dtype=complex))
        kernel = calibrate(acs, KernelGeometry(R=2), ridge=1e-3)
        assert np.all(kernel.weights == 0)

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_rejects_a_negative_or_non_finite_ridge(self, ridge):
        acs = MultiCoilKSpace(np.zeros((2, 8, 8), dtype=complex))
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            calibrate(acs, KernelGeometry(R=2), ridge=ridge)

    def test_zero_acs_without_ridge_is_singular(self):
        acs = MultiCoilKSpace(np.zeros((2, 8, 8), dtype=complex))
        with pytest.raises(np.linalg.LinAlgError):
            calibrate(acs, KernelGeometry(R=2), ridge=0.0)

    def test_large_ridge_shrinks_kernel_norm(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((2, 12, 12)) + 1j * rng.standard_normal((2, 12, 12))
        acs = MultiCoilKSpace(data)
        geom = KernelGeometry(R=2)
        plain = calibrate(acs, geom, ridge=0.0)
        scale = float(np.linalg.norm(data) ** 2)
        damped = calibrate(acs, geom, ridge=1e6 * scale)
        assert np.linalg.norm(damped.weights) < np.linalg.norm(plain.weights)

    def test_too_few_equations_at_ridge_zero_is_rejected_before_any_work(self, monkeypatch):
        # 2 lattice anchors x 29 columns = 58 equations for 4 coils x 3 x 5 = 60 unknowns
        rng = np.random.default_rng(33)
        acs = MultiCoilKSpace(rng.standard_normal((4, 12, 33)) + 1j * rng.standard_normal((4, 12, 33)))
        geom = KernelGeometry(R=3, bx_half=2, by_taps=3)

        def no_work(*args, **kwargs):
            raise AssertionError("calibrate built or checked a system it had already rejected")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_work)
        monkeypatch.setattr(grappa, "_im2col", no_work)
        message = "calibration system has 58 equations for 60 unknowns, so it is singular"
        with pytest.raises(np.linalg.LinAlgError) as info:
            calibrate(acs, geom, ridge=0.0, row0=1)
        assert str(info.value) == message
        with pytest.raises(np.linalg.LinAlgError, match="58 equations for 60 unknowns"):
            grappa.check_footprint(geom, 33, 12, row0=1, n_coils=4)
        grappa.check_footprint(geom, 33, 12, row0=1, n_coils=4, ridge=1e-2)
        grappa.check_footprint(geom, 33, 12, row0=1)  # no coil count, no equation count
        grappa.check_footprint(geom, 33, 12, row0=1, n_coils=3)  # 58 equations for 45 unknowns
        monkeypatch.undo()
        with pytest.warns(UserWarning, match=r"underdetermined \(58 rows, 60 unknowns\)"):
            kernel = calibrate(acs, geom, ridge=1e-2, row0=1)
        assert np.isfinite(kernel.weights).all()

    def test_underdetermined_warns(self):
        rng = np.random.default_rng(6)
        acs = MultiCoilKSpace(
            rng.standard_normal((4, 5, 4)) + 1j * rng.standard_normal((4, 5, 4))
        )
        with pytest.warns(UserWarning, match="underdetermined"):
            calibrate(acs, KernelGeometry(R=2, bx_half=1, by_taps=2), ridge=1e-6)

    def test_matches_normal_equations_oracle(self):
        # system around 500 rows x 100 unknowns
        rng = np.random.default_rng(7)
        acs_data = rng.standard_normal((8, 13, 49)) + 1j * rng.standard_normal((8, 13, 49))
        acs = MultiCoilKSpace(acs_data)
        geom = KernelGeometry(R=2, bx_half=1, by_taps=2)  # 8*2*3 = 48 unknowns
        kernel = calibrate(acs, geom, ridge=0.0)
        A, B = _calibration_system(acs, geom, row0=0)
        b = B[:, 3 * (geom.R - 1) + 1 - 1]  # target coil 3, offset m = 1
        # 6 lattice anchors x 47 interior columns
        assert A.shape == (282, 48)
        expected = normal_equations_solve(A, b)
        got = kernel.weights[3, 0].reshape(-1)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_ridge_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(8)
        acs_data = rng.standard_normal((4, 11, 21)) + 1j * rng.standard_normal((4, 11, 21))
        acs = MultiCoilKSpace(acs_data)
        geom = KernelGeometry(R=3, bx_half=2, by_taps=2)
        kernel = calibrate(acs, geom, ridge=0.5)
        A, B = _calibration_system(acs, geom, row0=0)
        b = B[:, 1 * (geom.R - 1) + 2 - 1]  # target coil 1, offset m = 2
        expected = normal_equations_solve(A, b, ridge=0.5)
        got = kernel.weights[1, 1].reshape(-1)
        assert np.max(np.abs(got - expected)) < 1e-8

    @pytest.mark.parametrize("ridge", [0.0, 0.5], ids=["ridge0", "ridge"])
    @pytest.mark.parametrize("off_lattice", [False, True], ids=["on", "off"])
    @pytest.mark.parametrize("bx_half, by_taps", [(1, 2), (2, 3), (0, 4), (4, 2)],
                             ids=["bx1_by2", "bx2_by3", "bx0_by4", "bx4_by2"])
    @pytest.mark.parametrize("R", [2, 3, 4, 5])
    def test_matches_the_reference_solve(self, R, bx_half, by_taps, off_lattice, ridge):
        rng = np.random.default_rng(40 + R)
        geom = KernelGeometry(R=R, bx_half=bx_half, by_taps=by_taps)
        ny = geom.footprint_rows + 4 * R  # at least 4 anchors wherever the lattice falls
        acs = MultiCoilKSpace(rng.standard_normal((2, ny, 20)) + 1j * rng.standard_normal((2, ny, 20)))
        row0 = 1 if off_lattice else 2 * R
        A, B = _calibration_system(acs, geom, row0=row0)
        W = np.linalg.solve(A.conj().T @ A + ridge * np.eye(A.shape[1]), A.conj().T @ B)
        expected = W.T.reshape(2, R - 1, 2, by_taps, geom.kx_width)
        kernel = calibrate(acs, geom, ridge=ridge, row0=row0)
        assert np.max(np.abs(kernel.weights - expected)) <= 1e-10 * np.max(np.abs(expected))


class TestGramSolve:
    """One solve of the Gram system serves every ridge; ridge 0 checks the rank first."""

    def test_ridge_zero_matches_lstsq(self):
        rng = np.random.default_rng(30)
        acs = MultiCoilKSpace(rng.standard_normal((6, 14, 24)) + 1j * rng.standard_normal((6, 14, 24)))
        geom = KernelGeometry(R=3, bx_half=1, by_taps=2)
        kernel = calibrate(acs, geom, ridge=0.0)
        A, B = _calibration_system(acs, geom, row0=0)
        W = np.linalg.lstsq(A, B, rcond=None)[0]
        expected = W.T.reshape(kernel.weights.shape)
        assert np.max(np.abs(kernel.weights - expected)) < 1e-8 * np.max(np.abs(expected))

    def test_fewer_sources_than_coils_is_singular_without_ridge(self):
        # 5 coils that mix 3 sources: the 5*2*3 = 30 columns span 3*2*3 = 18
        rng = np.random.default_rng(31)
        sources = rng.standard_normal((3, 12, 20)) + 1j * rng.standard_normal((3, 12, 20))
        mix = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        acs = MultiCoilKSpace(np.einsum("cs,syx->cyx", mix, sources))
        geom = KernelGeometry(R=2)
        with pytest.raises(np.linalg.LinAlgError, match=r"rank 18 < 30"):
            calibrate(acs, geom, ridge=0.0)
        kernel = calibrate(acs, geom, ridge=1e-6)
        assert np.isfinite(kernel.weights).all()

    def test_ridge_is_the_gram_diagonal(self):
        rng = np.random.default_rng(32)
        acs = MultiCoilKSpace(rng.standard_normal((4, 11, 31)) + 1j * rng.standard_normal((4, 11, 31)))
        geom = KernelGeometry(R=2, bx_half=2, by_taps=3)
        ridge = 0.25
        A, B = _calibration_system(acs, geom, row0=0)
        # the same operands in calibrate's layout: A's real and imaginary parts as
        # (by, bx, re/im, coil) rows and B's as (re/im, coil, m) rows, one column per equation
        c, by, bx = acs.n_coils, geom.by_taps, geom.kx_width
        At = A.reshape(-1, c, by, bx).transpose(2, 3, 1, 0)  # [by, bx, coil, equation]
        Ar = np.ascontiguousarray(np.concatenate([At.real, At.imag], axis=2)).reshape(2 * A.shape[1], -1)
        Br = np.ascontiguousarray(np.concatenate([B.T.real, B.T.imag]))
        # ZᴴY = Re Zᵀ Re Y + Im Zᵀ Im Y + i (Re Zᵀ Im Y - Im Zᵀ Re Y), from one real product each
        S = (Ar @ Ar.T).reshape(by * bx, 2, c, by * bx, 2, c)
        G = S[:, 0, :, :, 0] + S[:, 1, :, :, 1] + 1j * (S[:, 0, :, :, 1] - S[:, 1, :, :, 0])
        G = G.reshape(A.shape[1], -1)
        G[np.diag_indices(A.shape[1])] += ridge
        P = (Ar @ Br.T).reshape(by * bx, 2, c, 2, -1)
        AHB = (P[:, 0, :, 0] + P[:, 1, :, 1] + 1j * (P[:, 0, :, 1] - P[:, 1, :, 0])).reshape(A.shape[1], -1)
        W = np.linalg.solve(G, AHB)
        kernel = calibrate(acs, geom, ridge=ridge)
        expected = W.T.reshape(c, geom.R - 1, by, bx, c).transpose(0, 1, 4, 2, 3)
        assert np.array_equal(kernel.weights, expected)


class TestInterpolate:
    @pytest.mark.parametrize("R", [2, 4])
    def test_planted_kernel_end_to_end(self, R):
        rng = np.random.default_rng(9 + R)
        geom = KernelGeometry(R=R, bx_half=1, by_taps=2)
        full, _ = planted_full_grid(rng, 3, 8 * R, 16, geom)
        pattern = make_uniform_pattern(ny=8 * R, R=R, acs_count=2 * R + 2)
        measured = apply_pattern(MultiCoilKSpace(full), pattern)
        kernel = calibrate(
            MultiCoilKSpace(full[:, pattern.acs_start : pattern.acs_start + pattern.acs_count]),
            geom,
            row0=pattern.acs_start,
        )
        recon = interpolate(kernel, measured, pattern)
        missing = ~pattern.mask
        err = np.abs(recon.data[:, missing] - full[:, missing])
        rel = err / np.abs(full[:, missing])
        assert np.max(rel) < 1e-7

    def test_nothing_missing_is_identity(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        ks = MultiCoilKSpace(data)
        pattern = make_uniform_pattern(ny=8, R=2, acs_count=8)
        geom = KernelGeometry(R=2)
        kernel = GrappaKernel(geom, 2, np.zeros((2, 1, 2, 2, 3), dtype=complex))
        out = interpolate(kernel, ks, pattern)
        assert np.array_equal(out.data, ks.data)

    def test_zero_kernel_zeroes_missing(self):
        rng = np.random.default_rng(12)
        pattern = make_uniform_pattern(ny=12, R=3, acs_count=4)
        measured = apply_pattern(
            MultiCoilKSpace(rng.standard_normal((2, 12, 6)) + 0j), pattern
        )
        geom = KernelGeometry(R=3)
        kernel = GrappaKernel(geom, 2, np.zeros((2, 2, 2, 2, 3), dtype=complex))
        out = interpolate(kernel, measured, pattern)
        assert np.all(out.data[:, ~pattern.mask] == 0)
        assert np.array_equal(out.data[:, pattern.mask], measured.data[:, pattern.mask])

    @pytest.mark.parametrize("R, acs, on_lattice", [
        (2, 8, True), (2, 7, False), (3, 9, True), (3, 10, False), (5, 13, True), (5, 11, False),
    ], ids=["R2-acs-on", "R2-acs-off", "R3-acs-on", "R3-acs-off", "R5-acs-on", "R5-acs-off"])
    def test_zero_kernel_writes_every_missing_row(self, R, acs, on_lattice):
        # the output starts uninitialised with only the acquired rows copied in; the input's
        # missing rows are nonzero, so a row the fill skips holds neither zero nor its input
        rng = np.random.default_rng(R + acs)
        data = rng.standard_normal((2, 33, 7)) + 1j * rng.standard_normal((2, 33, 7))
        pattern = make_uniform_pattern(ny=33, R=R, acs_count=acs)
        assert (pattern.acs_start % R == 0) == on_lattice
        kernel = GrappaKernel(KernelGeometry(R=R), 2, np.zeros((2, R - 1, 2, 2, 3), dtype=complex))
        out = interpolate(kernel, MultiCoilKSpace(data), pattern)
        assert np.all(out.data[:, ~pattern.mask] == 0)
        assert np.array_equal(out.data[:, pattern.mask], data[:, pattern.mask])

    def test_acquired_rows_bit_exact(self):
        rng = np.random.default_rng(13)
        geom = KernelGeometry(R=4)
        full, _ = planted_full_grid(rng, 2, 32, 12, geom)
        pattern = make_uniform_pattern(ny=32, R=4, acs_count=10)
        measured = apply_pattern(MultiCoilKSpace(full), pattern)
        kernel = calibrate(
            MultiCoilKSpace(full[:, pattern.acs_start : pattern.acs_start + pattern.acs_count]),
            geom,
            row0=pattern.acs_start,
        )
        out = interpolate(kernel, measured, pattern)
        assert np.array_equal(out.data[:, pattern.mask], measured.data[:, pattern.mask])

    def test_linearity_in_data(self):
        rng = np.random.default_rng(14)
        geom = KernelGeometry(R=2)
        pattern = make_uniform_pattern(ny=16, R=2, acs_count=6)
        measured = apply_pattern(
            MultiCoilKSpace(rng.standard_normal((2, 16, 8)) + 1j * rng.standard_normal((2, 16, 8))),
            pattern,
        )
        kernel = GrappaKernel(
            geom, 2, 0.1 * (rng.standard_normal((2, 1, 2, 2, 3)) + 1j * rng.standard_normal((2, 1, 2, 2, 3)))
        )
        alpha = 3.7
        a = interpolate(kernel, MultiCoilKSpace(alpha * measured.data), pattern)
        b = interpolate(kernel, measured, pattern)
        assert np.max(np.abs(a.data - alpha * b.data)) < 1e-12 * np.max(np.abs(a.data)) + 1e-12

    @pytest.mark.parametrize("bx_half, by_taps", [(1, 2), (2, 3), (0, 4)], ids=["bx1_by2", "bx2_by3", "bx0_by4"])
    @pytest.mark.parametrize("R", [2, 3, 4, 5])
    def test_interpolation_matches_loop_oracle(self, R, bx_half, by_taps):
        rng = np.random.default_rng(15 + R)
        geom = KernelGeometry(R=R, bx_half=bx_half, by_taps=by_taps)
        ny = 4 * R + 3  # not a multiple of R: the last lattice rows have partial footprints
        pattern = make_uniform_pattern(ny=ny, R=R, acs_count=R + 2)
        measured = apply_pattern(
            MultiCoilKSpace(rng.standard_normal((2, ny, 7)) + 1j * rng.standard_normal((2, ny, 7))),
            pattern,
        )
        shape = (2, R - 1, 2, by_taps, geom.kx_width)
        weights = 0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        kernel = GrappaKernel(geom, 2, weights)
        out = interpolate(kernel, measured, pattern)
        expected = grappa_apply_loops(
            measured.data, weights, R, bx_half, by_taps, list(np.flatnonzero(~pattern.mask))
        )
        assert np.max(np.abs(out.data - expected)) < 1e-12

    @pytest.mark.parametrize("R", [2, 3, 4])
    def test_row_blocks_fill_what_one_block_fills(self, R, monkeypatch):
        rng = np.random.default_rng(16 + R)
        geom = KernelGeometry(R=R)
        ny, nx = 12 * R + 1, 16
        # the ACS block splits the governing lines into two runs
        pattern = make_uniform_pattern(ny=ny, R=R, acs_count=2 * R + 1)
        measured = apply_pattern(
            MultiCoilKSpace(rng.standard_normal((3, ny, nx)) + 1j * rng.standard_normal((3, ny, nx))),
            pattern,
        )
        shape = (3, R - 1, 3, geom.by_taps, geom.kx_width)
        kernel = GrappaKernel(geom, 3, 0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
        row_bytes = nx * geom.n_sources(3) * 16
        monkeypatch.setattr(grappa, "_PATCH_BLOCK_BYTES", 10**12)
        one_block = interpolate(kernel, measured, pattern)
        # blocks of 3 governing lines: block edges fall inside both runs
        monkeypatch.setattr(grappa, "_PATCH_BLOCK_BYTES", 3 * row_bytes)
        blocked = interpolate(kernel, measured, pattern)
        assert np.array_equal(blocked.data, one_block.data)
        expected = grappa_apply_loops(
            measured.data, kernel.weights, R, geom.bx_half, geom.by_taps, list(pattern.missing_rows)
        )
        assert np.max(np.abs(blocked.data - expected)) < 1e-12

    def test_r_mismatch(self):
        kernel = GrappaKernel(KernelGeometry(R=2), 1, np.zeros((1, 1, 1, 2, 3), dtype=complex))
        pattern = make_uniform_pattern(ny=12, R=3, acs_count=4)
        with pytest.raises(ValueError, match="R="):
            interpolate(kernel, MultiCoilKSpace(np.zeros((1, 12, 6), dtype=complex)), pattern)
