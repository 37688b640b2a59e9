import numpy as np
import pytest

from mwrecon.filters import WeightFilter
from mwrecon import grappa
from mwrecon.grappa import KernelGeometry, check_footprint
from mwrecon.kspace import MultiCoilKSpace, _lattice_anchors, apply_pattern, make_uniform_pattern
from mwrecon.network import (
    LayerSpec,
    NetworkArch,
    OptimizerConfig,
    TrainingDivergedError,
    init_network,
    train,
)
from mwrecon.phantom import CoilMaps, make_coil_maps, shepp_logan, simulate_kspace
from mwrecon import pipelines
from mwrecon.pipelines import (
    DEFAULT_FILTER_EXPONENTS,
    MultiWeightConfig,
    ReconConfig,
    build_training_pairs,
    default_arch,
    make_multiweight_config,
    reconstruct,
    reconstruct_image,
)
from oracles import (
    deepest_gemm_depth,
    dft2c_direct,
    idft2c_direct,
    ifft2c,
    lattice_windows_enumerated,
    planted_full_grid,
    scan_specific_full_grid,
    sos_combine,
    sos_loop,
    virtual_coil_basis_svd,
)


def phantom_scene(ny=48, nx=48, coils=4, R=4, acs=16, snr=None, seed=0):
    img = shepp_logan(ny, nx)
    maps = make_coil_maps(coils, ny, nx, seed=seed)
    full = simulate_kspace(img, maps, snr_db=snr, seed=seed)
    pattern = make_uniform_pattern(ny, R, acs)
    return full, apply_pattern(full, pattern), pattern


def fast_opt(iters=150):
    return OptimizerConfig(lr=0.001, iters=iters)


class TestMultiWeightConfig:
    """A bank is its grid and exponent list: the all-pass branch, then one filter per exponent."""

    def test_requires_all_pass(self):
        # every bank holds exactly one all-pass filter, first; with no
        # exponents it is the one-branch bank of raki and rraki
        for exponents in ((), (0.4,), (0.6, 0.2)):
            mw = MultiWeightConfig(8, 8, exponents)
            assert [f.is_all_pass for f in mw.filters] == [True] + [False] * len(exponents)
        assert MultiWeightConfig(8, 8, ()).filters == (WeightFilter(0, 8, 8),)

    def test_keeps_the_given_exponent_order(self):
        mw = MultiWeightConfig(12, 10, [0.2, 0.6, 0.4])
        assert mw.exponents == (0.2, 0.6, 0.4)
        assert [f.P for f in mw.filters] == [0, 0.2, 0.6, 0.4]
        assert {(f.ny, f.nx) for f in mw.filters} == {(12, 10)}

    def test_factory_default_bank(self):
        mw = make_multiweight_config(16, 16)
        assert mw == MultiWeightConfig(16, 16)
        assert len(mw.filters) - 1 == 2
        assert mw.filters[0].is_all_pass
        assert [f.P for f in mw.filters[1:]] == [0.6, 0.2]


def test_recon_config_rejects_a_negative_seed():
    pattern = make_uniform_pattern(32, 4, 8)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ReconConfig(method="raki", pattern=pattern, seed=-1)
    assert ReconConfig(method="raki", pattern=pattern, seed=0).seed == 0


class TestBuildTrainingPairs:
    def test_r2_five_rows_targets_odd_rows(self):
        # single 2-tap linear layer, R=2: windows anchor on even rows
        rng = np.random.default_rng(0)
        data = rng.standard_normal((1, 5, 6)) + 1j * rng.standard_normal((1, 5, 6))
        acs = MultiCoilKSpace(data)
        arch = NetworkArch(2, (LayerSpec(2, 3, 2),))
        ts = build_training_pairs(acs, R=2, arch=arch, target_coil=0)
        # sources: lattice rows {0, 2, 4}; windows {0,2} and {2,4}; targets rows 1 and 3
        assert ts.sources.shape == (1, 2, 3, 6)
        assert ts.targets.shape == (1, 1, 2, 2, 4)
        assert np.array_equal(ts.targets[0, 0, 0], data[0, [1, 3], 1:5].real)
        assert np.array_equal(ts.targets[0, 0, 1], data[0, [1, 3], 1:5].imag)

    def test_sources_are_lattice_rows_split(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((2, 9, 8)) + 1j * rng.standard_normal((2, 9, 8))
        acs = MultiCoilKSpace(data)
        arch = default_arch("mw_raki", n_coils=2, R=3)
        ts = build_training_pairs(acs, R=3, arch=arch, target_coil=1)
        lattice = data[:, [0, 3, 6], :]
        assert np.array_equal(ts.sources[0, :2], lattice.real)
        assert np.array_equal(ts.sources[0, 2:], lattice.imag)

    def test_absolute_row_alignment(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((1, 8, 8)) + 1j * rng.standard_normal((1, 8, 8))
        acs = MultiCoilKSpace(data)
        arch = NetworkArch(2, (LayerSpec(2, 3, 2),))
        ts = build_training_pairs(acs, R=2, arch=arch, target_coil=0, acs_row0=5)
        # absolute lattice: ACS rows 1, 3, 5, 7
        assert np.array_equal(ts.sources[0, 0], data[0, [1, 3, 5, 7], :].real)

    def test_constant_acs_gives_constant_targets(self):
        consts = np.array([1.5, -2.0])
        data = np.broadcast_to(consts[:, None, None], (2, 7, 8)).astype(complex)
        acs = MultiCoilKSpace(data)
        arch = NetworkArch(4, (LayerSpec(2, 3, 2),))
        ts = build_training_pairs(acs, R=2, arch=arch, target_coil=0)
        assert np.all(ts.targets[0, 0, 0] == 1.5)
        assert np.all(ts.targets[0, 0, 1] == 0.0)
        # a zero-weight linear net starts at the mean of the squared targets
        zero_net = init_network(arch, 0)
        zero_net = type(zero_net)(
            arch, tuple(np.zeros_like(w) for w in zero_net.weights), None
        )
        _, (history,) = train([zero_net], ts, OptimizerConfig(lr=0.0, iters=1))
        assert history[0] == pytest.approx(np.mean(ts.targets**2))

    def test_acs_too_small(self):
        acs = MultiCoilKSpace(np.zeros((1, 3, 8), dtype=complex))
        arch = NetworkArch(2, (LayerSpec(6, 3, 2),))
        with pytest.raises(ValueError, match="at least 5"):
            build_training_pairs(acs, R=4, arch=arch, target_coil=0)

    def test_every_target_is_a_raw_acs_sample(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 20, 12)) + 1j * rng.standard_normal((3, 20, 12))
        acs = MultiCoilKSpace(data)
        arch = default_arch("raki", n_coils=3, R=4)
        ts = build_training_pairs(acs, R=4, arch=arch, target_coil=2, acs_row0=8)
        flat_targets = set(np.round(ts.targets[0, 0, :3].ravel(), 12))
        flat_acs = set(np.round(data[2].real.ravel(), 12))
        assert flat_targets <= flat_acs

    def test_one_pass_over_a_branch_batch_equals_one_coil_at_a_time(self):
        # the pipelines cut every branch's and coil's pairs at once, in float32
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((3, 2, 20, 12)) + 1j * rng.standard_normal((3, 2, 20, 12))
        arch = default_arch("rraki", n_coils=2, R=4)
        ts = pipelines._training_pairs(batch, 4, arch, 8, np.float32)
        assert ts.sources.dtype == ts.targets.dtype == np.float32
        assert ts.sources.shape[0] == 3 and ts.targets.shape[:2] == (2, 3)
        for f in range(3):
            for coil in range(2):
                one = build_training_pairs(MultiCoilKSpace(batch[f]), 4, arch, coil, acs_row0=8)
                assert np.array_equal(ts.sources[f], one.sources[0].astype(np.float32))
                assert np.array_equal(ts.targets[coil, f], one.targets[0, 0].astype(np.float32))


class TestAcsWindowRule:
    """GRAPPA's footprints and the networks' training windows anchor by one rule."""

    CASES = [(R, acs_rows, row0) for R in range(2, 7) for acs_rows in range(1, 25) for row0 in range(2 * R)]

    def test_grappa_footprints_anchor_where_they_fit(self):
        for R, acs_rows, row0 in self.CASES:
            for by_taps in (2, 3, 4, 5):
                geom = KernelGeometry(R, 1, by_taps)
                expected = lattice_windows_enumerated(acs_rows, R, row0, by_taps - 1, geom.gap_index)
                anchors = _lattice_anchors(acs_rows, R, row0, geom.footprint_rows - 1)
                assert anchors.tolist() == expected, (R, acs_rows, row0, by_taps)
                assert np.array_equal(grappa._window_anchor_rows(acs_rows, geom, row0), anchors)
                if expected:
                    assert np.array_equal(check_footprint(geom, 8, acs_rows, row0), anchors)
                else:
                    with pytest.raises(ValueError, match="does not fit the scan"):
                        check_footprint(geom, 8, acs_rows, row0)

    @pytest.mark.parametrize("layers", [
        *(default_arch("raki", 1, 2, depth).layers[:-1] for depth in (1, 2, 3, 5)),
        (LayerSpec(8, 3, 1), LayerSpec(8, 1, 1)),  # 1-tap layers: the targets, not the taps, bound a window
        (LayerSpec(8, 3, 3), LayerSpec(8, 1, 4)),
    ], ids=["depth1", "depth2", "depth3", "depth5", "one_tap", "odd_and_even_taps"])
    def test_network_windows_anchor_where_they_fit(self, layers):
        for R, acs_rows, row0 in self.CASES:
            for final_taps in (1, 2, 3):
                arch = NetworkArch(2, (*layers, LayerSpec(2 * (R - 1), 3, final_taps)))
                expected = lattice_windows_enumerated(acs_rows, R, row0, arch.ky_taps_excess,
                                                      arch.target_row_gap)
                if expected:
                    anchors = pipelines.training_windows(arch, R, acs_rows, row0)
                    assert anchors.tolist() == expected, (R, acs_rows, row0, arch)
                else:
                    with pytest.raises(ValueError, match="ACS too small"):
                        pipelines.training_windows(arch, R, acs_rows, row0)

    def test_one_tap_stack_trains_on_every_window_whose_targets_fit(self):
        # R=4, 9 ACS rows from grid row 0: lattice rows 0, 4, 8, but only 0 and 4 have their
        # three target rows in the block
        rng = np.random.default_rng(5)
        data = rng.standard_normal((1, 9, 6)) + 1j * rng.standard_normal((1, 9, 6))
        arch = NetworkArch(2, (LayerSpec(6, 3, 1),))
        ts = build_training_pairs(MultiCoilKSpace(data), R=4, arch=arch, target_coil=0)
        assert np.array_equal(ts.sources[0, 0], data[0, [0, 4]].real)
        assert np.array_equal(ts.targets[0, 0, :3, 1], data[0, 5:8, 1:5].real)


class TestDefaultArch:
    @pytest.mark.parametrize("method", ["raki", "rraki", "mw_raki", "mw_rraki"])
    @pytest.mark.parametrize(
        "depth, widths, skip_width",
        [(1, [3], 3), (2, [5, 3], 5), (3, [5, 1, 3], 5), (5, [5, 1, 1, 1, 3], 5)],
        ids=["depth1", "depth2", "depth3", "depth5"],
    )
    def test_table_depths(self, method, depth, widths, skip_width):
        arch = default_arch(method, n_coils=4, R=4, depth=depth)
        assert [spec.kx_width for spec in arch.layers] == widths
        assert (arch.in_channels, arch.out_channels) == (8, 6)
        if method in ("rraki", "mw_rraki"):
            assert arch.skip == LayerSpec(6, skip_width, 2)
        else:
            assert arch.skip is None

    @pytest.mark.parametrize("method, depth", [("raki", 3), ("rraki", 3), ("mw_raki", 2), ("mw_rraki", 3)])
    def test_default_depth(self, method, depth):
        assert default_arch(method, 8, 2) == default_arch(method, 8, 2, depth=depth)

    def test_rejects_unsupported_depth(self):
        with pytest.raises(ValueError, match=r"unsupported depth 4; choose from \[1, 2, 3, 5\]"):
            default_arch("rraki", 4, 4, depth=4)


class TestWeightedRows:
    """The weighted branch copies of the rows each pipeline stage reads."""

    def test_degenerate_single_entry(self):
        rng = np.random.default_rng(4)
        ks = MultiCoilKSpace(rng.standard_normal((2, 8, 8)) + 0j)
        mw = MultiWeightConfig(8, 8, ())
        batch = pipelines._weighted(ks.data, mw, np.arange(8))
        assert batch.shape == (1, 2, 8, 8)
        assert np.array_equal(batch[0], ks.data)

    def test_default_bank_entry0_bit_equal(self):
        rng = np.random.default_rng(5)
        ks = MultiCoilKSpace(rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16)))
        batch = pipelines._weighted(ks.data, make_multiweight_config(16, 16), np.arange(16))
        assert batch.shape[0] == 3
        assert np.array_equal(batch[0], ks.data)

    def test_every_entry_is_weighted_by_its_filter(self):
        rng = np.random.default_rng(6)
        ks = MultiCoilKSpace(rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8)))
        mw = make_multiweight_config(8, 8, exponents=(0.4, 0.2))
        for rows in (np.arange(8), np.array([0, 3, 4, 7])):
            batch = pipelines._weighted(ks.data[:, rows], mw, rows)
            assert batch.shape == (3, 3, rows.size, 8)
            for entry, f in zip(batch, mw.filters):
                assert np.max(np.abs(entry - (ks.data * f.h)[:, rows])) < 1e-14


class TestReconstructImage:
    def test_center_impulse_flat_image(self):
        ks = np.zeros((1, 16, 16), dtype=complex)
        ks[0, 8, 8] = 1.0
        img = reconstruct_image(MultiCoilKSpace(ks))
        assert np.allclose(img, 1.0 / 16.0, atol=1e-14)

    def test_fully_sampled_phantom_reference(self):
        full, _, _ = phantom_scene()
        ref = sos_combine(ifft2c(full))
        assert np.max(np.abs(reconstruct_image(full) - ref)) < 1e-10

    @pytest.mark.parametrize("shape", [(3, 16, 12), (3, 15, 9), (2, 7, 10)], ids=["even", "odd", "odd_ky"])
    def test_equals_sos_of_centered_ifft(self, shape):
        rng = np.random.default_rng(11)
        ks = MultiCoilKSpace(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        expected = sos_combine(ifft2c(ks))
        assert np.max(np.abs(reconstruct_image(ks) - expected)) < 1e-12 * np.max(expected)

    def test_matches_composed_oracles(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((4, 16, 16)) + 1j * rng.standard_normal((4, 16, 16))
        images = np.stack([idft2c_direct(c) for c in data])
        expected = sos_loop(images)
        assert np.max(np.abs(reconstruct_image(MultiCoilKSpace(data)) - expected)) < 1e-12

    @pytest.mark.parametrize("shape", [(5, 64, 64), (3, 256, 256), (3, 15, 9), (2, 33, 40), (2, 256, 192)],
                             ids=["5-64", "3-256", "3-15x9", "2-33x40", "2-256x192"])
    def test_one_coil_at_a_time_equals_one_stack_transform(self, shape):
        # the coil-axis sum adds the coils in order, so the per-coil
        # accumulator gives the same bits; another order would not.  The row
        # passes run ifft2's 1-D transforms on the same values, on square,
        # non-square and odd grids alike
        rng = np.random.default_rng(shape[0])
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        images = np.fft.ifft2(data, axes=(-2, -1), norm="ortho")
        expected = np.fft.fftshift(np.sqrt(np.sum(images.real**2 + images.imag**2, axis=0)))
        image = reconstruct_image(MultiCoilKSpace(data))
        assert np.array_equal(image, expected)
        assert image.flags.c_contiguous


class TestGrappaPipeline:
    def test_planted_kernel_recovery(self):
        rng = np.random.default_rng(8)
        full, _ = planted_full_grid(rng, 3, 32, 16, R=4)
        pattern = make_uniform_pattern(32, 4, 10)
        measured = apply_pattern(MultiCoilKSpace(full), pattern)
        cfg = ReconConfig(method="grappa", pattern=pattern)
        result = reconstruct(measured, cfg)
        rel = np.linalg.norm(result.kspace.data - full) / np.linalg.norm(full)
        assert rel < 1e-8
        assert np.array_equal(
            result.kspace.data[:, pattern.mask], measured.data[:, pattern.mask]
        )

    def test_geometry_r_mismatch(self):
        pattern = make_uniform_pattern(16, 2, 6)
        cfg = ReconConfig(method="grappa", pattern=pattern, grappa_geometry=KernelGeometry(R=4))
        with pytest.raises(ValueError, match="R="):
            reconstruct(MultiCoilKSpace(np.zeros((1, 16, 8), dtype=complex)), cfg)

    def test_rejects_data_on_missing_rows(self):
        full, _, pattern = phantom_scene()
        cfg = ReconConfig(method="grappa", pattern=pattern, ridge=1e-3)
        with pytest.raises(ValueError, match="nonzero"):
            reconstruct(full, cfg)  # full grid has data on missing rows


@pytest.mark.parametrize("method", ["grappa", "raki"])
def test_rejects_acquired_rows_that_are_all_zero(method):
    # data undersampled at R=4, reconstructed with an R=2 pattern
    _, measured, _ = phantom_scene(R=4, acs=16)
    pattern = make_uniform_pattern(48, 2, 16)
    cfg = ReconConfig(method=method, pattern=pattern, ridge=1e-3 if method == "grappa" else 0.0)
    with pytest.raises(ValueError, match=r"zero in every coil.*R=2"):
        reconstruct(measured, cfg)


@pytest.mark.parametrize("method, acs, settings, error, match", [
    *((method, 8, {}, ValueError, "ACS too small: 8 rows") for method in pipelines.NETWORKS),
    # a final layer of 4 channels where R=4 needs 2 x 3
    ("raki", 16, {"arch": NetworkArch(8, (LayerSpec(32, 5, 2), LayerSpec(4, 3, 2)))}, ValueError,
     r"the final layer emits 4 channels but R=4 needs 6"),
    ("grappa", 16, {"grappa_geometry": KernelGeometry(4, 1, 5)}, ValueError,
     "footprint of 3 columns x 17 rows does not fit the scan"),
    # 3 lattice anchors x 32 columns = 96 equations for 4 coils x 2 x 17 = 136 unknowns
    ("grappa", 16, {"grappa_geometry": KernelGeometry(4, 8, 2)}, np.linalg.LinAlgError,
     "has 96 equations for 136 unknowns"),
], ids=[*pipelines.NETWORKS, "raki_final_width", "grappa_footprint", "grappa_equations"])
def test_reconstruct_plans_before_it_reads_the_data(monkeypatch, method, acs, settings, error, match):
    checked = []
    monkeypatch.setattr(pipelines, "_require_consistent", lambda *args: checked.append(args))
    _, measured, pattern = phantom_scene(R=4, acs=acs)
    cfg = ReconConfig(method=method, pattern=pattern, optimizer=fast_opt(1), **settings)
    with pytest.raises(error, match=match):
        reconstruct(measured, cfg)
    assert checked == []
    with pytest.raises(error, match=match):
        pipelines.plan(cfg, measured.n_coils, measured.ny, measured.nx)


@pytest.mark.parametrize("method", ["grappa", "raki"])
def test_reconstruct_checks_the_data_and_forms_the_image_once(monkeypatch, method):
    calls = []
    for name in ("_require_consistent", "reconstruct_image"):
        original = getattr(pipelines, name)
        monkeypatch.setattr(pipelines, name, lambda *args, f=original: calls.append(f.__name__) or f(*args))
    _, measured, pattern = phantom_scene()
    cfg = ReconConfig(method, pattern, optimizer=fast_opt(1), ridge=1e-3 if method == "grappa" else 0.0)
    result = reconstruct(measured, cfg)
    assert calls == ["_require_consistent", "reconstruct_image"]
    assert np.array_equal(result.sos, reconstruct_image(result.kspace))
    if method == "grappa":
        assert result.loss_histories == ()
    else:  # one single-iteration history per virtual coil
        assert result.loss_histories and {len(h) for h in result.loss_histories} == {1}


class TestScanSpecificPipeline:
    def test_rejects_fully_sampled(self):
        full, _, _ = phantom_scene()
        pattern = make_uniform_pattern(48, 4, 48)
        cfg = ReconConfig(method="raki", pattern=pattern, optimizer=fast_opt())
        with pytest.raises(ValueError, match="nothing to reconstruct"):
            reconstruct(full, cfg)

    def test_rejects_inconsistent_zeros(self):
        full, _, pattern = phantom_scene()
        cfg = ReconConfig(method="raki", pattern=pattern, optimizer=fast_opt())
        with pytest.raises(ValueError, match="nonzero"):
            reconstruct(full, cfg)  # full grid has data on missing rows

    @pytest.mark.parametrize("method", ["raki", "rraki", "mw_raki", "mw_rraki"])
    def test_data_consistency_and_shapes(self, method):
        full, measured, pattern = phantom_scene(snr=25, seed=11)
        cfg = ReconConfig(method=method, pattern=pattern, seed=5, optimizer=fast_opt(60))
        result = reconstruct(measured, cfg)
        assert np.array_equal(
            result.kspace.data[:, pattern.mask], measured.data[:, pattern.mask]
        )
        assert result.sos.shape == (48, 48)
        assert len(result.loss_histories) == measured.n_coils
        assert all(len(h) == 60 for h in result.loss_histories)
        assert np.isfinite(result.kspace.data).all()

    @pytest.mark.parametrize("method", ["raki", "mw_rraki"])
    def test_networks_get_float32_and_the_result_stays_complex128(self, method, monkeypatch):
        from mwrecon import pipelines

        seen = []

        def spy_train(nets, ts, opt, inputs=()):
            seen.append(("train", ts.sources.dtype, ts.targets.dtype, [x.dtype for x in inputs]))
            return train_inner(nets, ts, opt, inputs)

        train_inner = pipelines.train
        monkeypatch.setattr(pipelines, "train", spy_train)
        _, measured, pattern = phantom_scene(snr=25, seed=12)
        cfg = ReconConfig(method=method, pattern=pattern, seed=5, optimizer=fast_opt(5))
        result = reconstruct(measured, cfg)
        f32 = np.dtype(np.float32)
        # one training call, which infers on one input per run of kept lattice rows:
        # above and below the ACS block
        assert seen == [("train", f32, f32, [f32, f32])]
        assert result.kspace.data.dtype == np.complex128
        assert np.array_equal(result.kspace.data[:, pattern.mask], measured.data[:, pattern.mask])

    def test_training_reduces_acs_loss(self):
        _, measured, pattern = phantom_scene(snr=None, seed=3)
        cfg = ReconConfig(method="raki", pattern=pattern, seed=0, optimizer=fast_opt(300))
        result = reconstruct(measured, cfg)
        for history in result.loss_histories:
            assert history[-1] <= 0.1 * history[0]

    def test_missing_rows_are_filled(self):
        _, measured, pattern = phantom_scene(snr=None, seed=4)
        cfg = ReconConfig(method="mw_raki", pattern=pattern, seed=1, optimizer=fast_opt(60))
        result = reconstruct(measured, cfg)
        missing = result.kspace.data[:, ~pattern.mask]
        assert np.any(missing != 0)

    def test_planted_linear_kernel_subsumption(self):
        # a single linear conv layer contains the planted interpolation kernel
        rng = np.random.default_rng(9)
        full, _ = planted_full_grid(rng, 2, 24, 16, R=2)
        pattern = make_uniform_pattern(24, 2, 10)
        measured = apply_pattern(MultiCoilKSpace(full), pattern)
        arch = NetworkArch(4, (LayerSpec(2, 3, 2),))
        cfg = ReconConfig(
            method="raki",
            pattern=pattern,
            seed=2,
            arch=arch,
            optimizer=OptimizerConfig(lr=0.003, iters=4000),
        )
        result = reconstruct(measured, cfg)
        missing = ~pattern.mask
        rel = np.linalg.norm(result.kspace.data[:, missing] - full[:, missing]) / np.linalg.norm(
            full[:, missing]
        )
        assert rel < 1e-3

    def test_divergence_reports_coil(self):
        _, measured, pattern = phantom_scene(seed=6)
        cfg = ReconConfig(
            method="raki",
            pattern=pattern,
            optimizer=OptimizerConfig(lr=1e12, iters=50),
        )
        with pytest.raises(TrainingDivergedError, match=r"coil \d"):
            reconstruct(measured, cfg)


def virtual_coil_basis(measured, pattern):
    acs = measured.data[:, pattern.acs_start : pattern.acs_start + pattern.acs_count]
    return pipelines._virtual_coil_basis(acs / np.max(np.abs(measured.data)), pattern.R)


def virtual_coil_count(measured, pattern):
    return virtual_coil_basis(measured, pattern).shape[1]


class TestVirtualCoils:
    """The networks run on SVD virtual coils; the result stays in physical coils."""

    @pytest.mark.parametrize("method", ["raki", "rraki", "mw_raki", "mw_rraki"])
    def test_compressed_scene_keeps_acquired_rows_and_coil_count(self, method):
        _, measured, pattern = phantom_scene(coils=8, R=2, snr=30, seed=17)
        cfg = ReconConfig(method=method, pattern=pattern, seed=1, optimizer=fast_opt(20))
        result = reconstruct(measured, cfg)
        nv = virtual_coil_count(measured, pattern)
        assert 2 <= nv < 8
        assert len(result.loss_histories) == nv
        assert result.kspace.data.shape == measured.data.shape
        assert np.array_equal(result.kspace.data[:, pattern.mask], measured.data[:, pattern.mask])

    @pytest.mark.parametrize("coils", [4, 8])
    @pytest.mark.parametrize("R", [2, 3, 4, 6])
    @pytest.mark.parametrize("snr", [None, 30])
    def test_count_lies_between_R_and_the_coils(self, coils, R, snr):
        _, measured, pattern = phantom_scene(coils=coils, R=R, acs=18, snr=snr, seed=18)
        assert min(R, coils) <= virtual_coil_count(measured, pattern) <= coils

    def test_keeps_the_physical_coils_when_compression_would_keep_most(self):
        # 8 coils at R = 6 need at least 6 virtual coils, more than the share
        _, measured, pattern = phantom_scene(coils=8, R=6, acs=18, snr=30, seed=18)
        assert 6 > pipelines.VIRTUAL_COIL_MAX_SHARE * 8
        assert np.array_equal(virtual_coil_basis(measured, pattern), np.eye(8))

    @pytest.mark.parametrize("coils", [4, 8])
    @pytest.mark.parametrize("R", [2, 4])
    def test_full_rank_maps_with_noise_keep_every_coil(self, coils, R):
        rng = np.random.default_rng(19)
        maps = rng.standard_normal((coils, 48, 48)) + 1j * rng.standard_normal((coils, 48, 48))
        full = simulate_kspace(shepp_logan(48, 48), CoilMaps(maps), snr_db=30, seed=19)
        pattern = make_uniform_pattern(48, R, 16)
        assert virtual_coil_count(apply_pattern(full, pattern), pattern) == coils

    @pytest.mark.parametrize("sources", [1, 2, 3])
    @pytest.mark.parametrize("R", [2, 3, 4])
    def test_noise_free_mix_of_few_sources_needs_at_most_that_many(self, sources, R):
        rng = np.random.default_rng(20 + sources)
        mix = rng.standard_normal((8, sources)) + 1j * rng.standard_normal((8, sources))
        src = rng.standard_normal((sources, 24, 16)) + 1j * rng.standard_normal((sources, 24, 16))
        data = np.einsum("cs,syx->cyx", mix, src)
        pattern = make_uniform_pattern(24, R, 12)
        nv = virtual_coil_count(apply_pattern(MultiCoilKSpace(data), pattern), pattern)
        assert R <= nv <= max(R, sources)

    def test_planted_kernel_on_mixed_sources(self):
        # 4 coils mix 2 sources whose missing rows obey a planted linear
        # kernel; the 2 virtual coils span the sources, so one linear layer
        # sized for the 4 physical coils still recovers the missing rows
        rng = np.random.default_rng(21)
        src, _ = planted_full_grid(rng, 2, 24, 16, R=2)
        mix = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        full = np.einsum("cs,syx->cyx", mix, src)
        pattern = make_uniform_pattern(24, 2, 10)
        measured = apply_pattern(MultiCoilKSpace(full), pattern)
        arch = NetworkArch(8, (LayerSpec(2, 3, 2),))
        cfg = ReconConfig(
            method="raki", pattern=pattern, seed=2, arch=arch,
            optimizer=OptimizerConfig(lr=0.003, iters=4000),
        )
        result = reconstruct(measured, cfg)
        assert len(result.loss_histories) == 2
        assert result.kspace.n_coils == 4
        missing = ~pattern.mask
        rel = np.linalg.norm(result.kspace.data[:, missing] - full[:, missing]) / np.linalg.norm(
            full[:, missing]
        )
        assert rel < 1e-3

    def test_custom_arch_must_fit_the_physical_coils(self):
        _, measured, pattern = phantom_scene(coils=8, R=2, snr=30, seed=17)
        arch = default_arch("raki", n_coils=virtual_coil_count(measured, pattern), R=2)
        cfg = ReconConfig(method="raki", pattern=pattern, arch=arch, optimizer=fast_opt(1))
        with pytest.raises(ValueError, match="arch expects .* input channels, data provides 16"):
            reconstruct(measured, cfg)


def mixed_sources(rng, coils, sources, ny, nx):
    """Noise-free k-space of ``coils`` coils that mix ``sources`` random sources."""
    mix = rng.standard_normal((coils, sources)) + 1j * rng.standard_normal((coils, sources))
    src = rng.standard_normal((sources, ny, nx)) + 1j * rng.standard_normal((sources, ny, nx))
    return np.einsum("cs,syx->cyx", mix, src)


def assert_matches_the_full_grid_oracle(got, measured, pattern, mw, method, seed, opt, depth=None):
    """``got`` has the oracle's acquired rows bit for bit and its missing rows to float32 rounding.

    The pipeline runs the oracle's networks on fewer lattice rows, so its
    GEMMs are narrower, and a BLAS may round a GEMM's columns by its width
    (another kernel for the tail columns, another order of the K products).
    Any order of a depth-K float32 dot product lies within
    ``γ_K Σ|a_i b_i|`` of the exact sum, ``γ_K = K u / (1 - K u) ≈ K u``
    with ``u = ε / 2`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.1), so two orders differ by at most
    ``K ε Σ|a_i b_i|``.  Taking ``Σ|a_i b_i|`` at the scale of the largest
    missing sample (the networks are fitted to predict the missing samples
    from inputs of that scale), with K the deepest GEMM's depth, a missing
    sample may differ by ``K ε`` of the largest missing sample.  The float64
    stages around the networks add rounding of order 1e-16 only.  Over every
    host-path case the deviation is at most 0.023 of this bound under
    OpenBLAS 0.3.31's SkylakeX and Haswell sgemm kernels.
    """
    basis = virtual_coil_basis(measured, pattern)
    arch = default_arch(method, basis.shape[1], pattern.R, depth)
    expected = scan_specific_full_grid(measured, pattern, mw.filters, mw.eps, basis, arch, seed, opt)
    assert np.array_equal(got[:, pattern.mask], expected[:, pattern.mask])
    k = deepest_gemm_depth(arch)
    missing = ~pattern.mask
    bound = k * np.finfo(np.float32).eps * np.max(np.abs(expected[:, missing]))
    assert np.max(np.abs(got - expected)[:, missing]) <= bound


def default_bank(method, ny, nx):
    return MultiWeightConfig(ny, nx, () if method in ("raki", "rraki") else DEFAULT_FILTER_EXPONENTS)


def host_path_scene(R, acs):
    rng = np.random.default_rng(30 + R)
    pattern = make_uniform_pattern(35, R, acs)  # odd sizes; for R = 2 and 3 the lattice does not divide ny
    return apply_pattern(MultiCoilKSpace(mixed_sources(rng, 8, 3, 35, 17)), pattern), pattern


# per R, an ACS block off the lattice on the 35 x 17 grid, tall enough for every depth
OFF_LATTICE_ACS = {2: 12, 3: 13, 4: 15, 5: 17, 6: 17}
SCAN_METHODS = ("raki", "rraki", "mw_raki", "mw_rraki")
HOST_PATH_CASES = (
    [pytest.param("mw_rraki", None, R, acs, on_lattice, id=f"{R}-{acs}-{on_lattice}")
     for R, acs, on_lattice in [(2, 11, True), (2, 12, False), (3, 11, True), (3, 13, False), (5, 15, True),
                                (5, 17, False)]]
    + [pytest.param(method, None, R, OFF_LATTICE_ACS[R], False, id=f"{method}-R{R}")
       for method in SCAN_METHODS for R in OFF_LATTICE_ACS]
    + [pytest.param(method, depth, 4, OFF_LATTICE_ACS[4], False, id=f"{method}-depth{depth}")
       for method in SCAN_METHODS for depth in (1, 2, 3, 5)]
)


class TestRowRestrictedHostPath:
    """The pipeline works on only the rows each stage reads, as if on the full grid.

    The oracle infers on every lattice row and de-weights each branch by
    complex division; the pipeline infers on each run of kept lattice rows
    and combines the branches in real arithmetic.  Both run the real
    networks, so the acquired rows match bit for bit and the missing rows to
    float32 rounding (see :func:`assert_matches_the_full_grid_oracle`).
    """

    @pytest.mark.parametrize("method, depth, R, acs, on_lattice", HOST_PATH_CASES)
    def test_equals_the_full_grid_oracle(self, method, depth, R, acs, on_lattice):
        measured, pattern = host_path_scene(R, acs)
        assert (pattern.acs_start % R == 0) == on_lattice
        # a true rotation, up to the share of the coils where the physical ones are kept
        assert virtual_coil_count(measured, pattern) == (max(R, 3) if R < 6 else 8)
        arch = None if depth is None else default_arch(method, 8, R, depth)
        cfg = ReconConfig(method=method, pattern=pattern, seed=4, arch=arch, optimizer=fast_opt(2))
        got = reconstruct(measured, cfg).kspace.data
        assert_matches_the_full_grid_oracle(got, measured, pattern, default_bank(method, 35, 17), method, 4,
                                            fast_opt(2), depth)

    def test_default_eps_is_scaled_to_the_whole_filter(self):
        # at P = 4 on 40 x 16 the filter's maximum lies on row 0, which is
        # acquired, and some missing-row samples lie between 1e-6 of the
        # missing rows' maximum and 1e-6 of the whole filter's: an eps taken
        # over the missing rows only would keep them
        rng = np.random.default_rng(36)
        ny, nx = 40, 16
        pattern = make_uniform_pattern(ny, 3, 11)
        measured = apply_pattern(MultiCoilKSpace(mixed_sources(rng, 6, 3, ny, nx)), pattern)
        mw = MultiWeightConfig(ny, nx, (4,))
        h = mw.filters[1].h
        missing_h = h[pattern.missing_rows]
        whole, missing_only = 1e-6 * h.max(), 1e-6 * missing_h.max()
        assert np.any((missing_h >= missing_only) & (missing_h < whole))
        cfg = ReconConfig(method="mw_raki", pattern=pattern, seed=2, optimizer=fast_opt(2), multiweight=mw)
        got = reconstruct(measured, cfg).kspace.data
        assert_matches_the_full_grid_oracle(got, measured, pattern, mw, "mw_raki", 2, fast_opt(2))

    def test_an_eps_that_leaves_missing_samples_invalid_equals_the_oracle(self):
        measured, pattern = host_path_scene(3, OFF_LATTICE_ACS[3])
        mw = MultiWeightConfig(35, 17, (0.6, 0.2), eps=0.6)
        valid = [f.h[pattern.missing_rows] >= mw.eps for f in mw.filters[1:]]
        # some samples are averaged over 1, some over 2 and some over 3 branches
        assert set(np.unique(1 + valid[0] + valid[1])) == {1, 2, 3}
        cfg = ReconConfig(method="mw_rraki", pattern=pattern, seed=6, optimizer=fast_opt(2), multiweight=mw)
        got = reconstruct(measured, cfg).kspace.data
        assert_matches_the_full_grid_oracle(got, measured, pattern, mw, "mw_rraki", 6, fast_opt(2))

    @pytest.mark.parametrize("method", SCAN_METHODS)
    def test_inference_skips_lattice_rows_that_predict_only_acs_rows(self, method, monkeypatch):
        # the benchmark shape: 32 lattice rows, of which 8 predict only ACS rows
        full = simulate_kspace(shepp_logan(128, 128), make_coil_maps(8, 128, 128, seed=1), seed=2)
        pattern = make_uniform_pattern(128, 4, 32)
        asked = []

        def spy_train(nets, ts, opt, inputs=()):
            nets, histories, *outs = train_inner(nets, ts, opt, inputs)
            assert len(outs) == len(inputs)
            asked.extend(out.shape[3] for out in outs)
            return (nets, histories, *outs)

        train_inner = pipelines.train
        monkeypatch.setattr(pipelines, "train", spy_train)
        reconstruct(apply_pattern(full, pattern), ReconConfig(method=method, pattern=pattern, optimizer=fast_opt(1)))
        assert asked == [12, 12]  # one run above the ACS block, one below
        assert sum(asked) == np.unique(pattern.missing_rows // 4).size

    @pytest.mark.parametrize("R", list(OFF_LATTICE_ACS))
    def test_inference_never_spans_more_than_the_lattice(self, R, monkeypatch):
        # each inference input covers exactly one run of kept lattice rows,
        # in order, and holds those rows plus the receptive-field halo: the
        # all-pass branch's real input row j is lattice row run[0] - gap + j,
        # or zero off the lattice; so the inputs never take the whole lattice
        measured, pattern = host_path_scene(R, OFF_LATTICE_ACS[R])
        calls = []

        def spy_train(nets, ts, opt, inputs=()):
            calls.extend(inputs)
            return train_inner(nets, ts, opt, inputs)

        train_inner = pipelines.train
        monkeypatch.setattr(pipelines, "train", spy_train)
        reconstruct(measured, ReconConfig(method="mw_rraki", pattern=pattern, seed=7, optimizer=fast_opt(2)))
        kept = np.unique(pattern.missing_rows // R)
        runs = np.split(kept, np.flatnonzero(np.diff(kept) > 1) + 1)
        assert len(runs) == 2 and kept.size < len(range(0, 35, R))  # one run above the ACS block, one below
        basis = virtual_coil_basis(measured, pattern)
        nv, arch = basis.shape[1], default_arch("mw_rraki", basis.shape[1], R)
        assert [x.shape[2] for x in calls] == [run.size + arch.ky_taps_excess for run in runs]
        lat, tx = np.arange(0, 35, R), arch.target_col_offset
        virt = (basis.conj().T @ measured.data[:, lat].transpose(1, 0, 2)).real / np.max(np.abs(measured.data))
        for run, x in zip(runs, calls):
            for j, row in enumerate(run[0] - arch.target_row_gap + np.arange(x.shape[2])):
                expected = virt[row] if 0 <= row < lat.size else 0.0
                assert np.allclose(x[0, :nv, j, tx:tx + 17], expected, rtol=0, atol=1e-6)


class TestGramBasis:
    """The virtual-coil basis from the C x C Gram matrix spans what the SVD's does."""

    @staticmethod
    def check(acs, R):
        got = pipelines._virtual_coil_basis(acs, R)
        expected = virtual_coil_basis_svd(
            acs, R, pipelines.VIRTUAL_COIL_TOL, pipelines.VIRTUAL_COIL_MAX_SHARE
        )
        assert got.shape == expected.shape
        assert np.max(np.abs(got @ got.conj().T - expected @ expected.conj().T)) < 1e-10
        return got.shape[1]

    @pytest.mark.parametrize("R", [2, 4])
    def test_random_full_rank_block(self, R):
        rng = np.random.default_rng(40 + R)
        acs = rng.standard_normal((8, 16, 24)) + 1j * rng.standard_normal((8, 16, 24))
        assert self.check(acs, R) == 8

    @pytest.mark.parametrize("R", [2, 3])
    def test_random_block_with_decaying_energies(self, R):
        rng = np.random.default_rng(42 + R)
        coils = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        gains = np.array([1.0, 0.6, 0.3, 0.1, 1e-3, 1e-4, 1e-5, 1e-6])
        acs = np.einsum("cs,s,syx->cyx", coils, gains, rng.standard_normal((8, 16, 24)))
        assert self.check(acs, R) == 4

    @pytest.mark.parametrize("sources", [2, 3])
    def test_rank_deficient_block(self, sources):
        rng = np.random.default_rng(44 + sources)
        acs = mixed_sources(rng, 8, sources, 16, 24)
        assert self.check(acs, 2) == sources

    @pytest.mark.parametrize("coils, R", [(8, 2), (8, 3), (8, 4)])
    def test_noise_free_phantom_scene(self, coils, R):
        _, measured, pattern = phantom_scene(coils=coils, R=R, acs=18, snr=None, seed=18)
        acs = measured.data[:, pattern.acs_start : pattern.acs_start + pattern.acs_count]
        self.check(acs / np.max(np.abs(measured.data)), R)


class TestMultiWeightSemantics:
    def test_degenerate_bank_matches_raki_bit_exact(self):
        _, measured, pattern = phantom_scene(snr=20, seed=12)
        arch = default_arch("mw_raki", n_coils=4, R=4)
        mw = MultiWeightConfig(48, 48, ())
        cfg_mw = ReconConfig(
            method="mw_raki", pattern=pattern, seed=7, arch=arch, optimizer=fast_opt(80), multiweight=mw
        )
        cfg_raki = ReconConfig(
            method="raki", pattern=pattern, seed=7, arch=arch, optimizer=fast_opt(80)
        )
        a = reconstruct(measured, cfg_mw)
        b = reconstruct(measured, cfg_raki)
        assert np.array_equal(a.kspace.data, b.kspace.data)

    def test_near_dc_falls_back_to_all_pass_branch(self):
        # with a huge eps the high-pass branch never contributes, so values
        # where it was already invalid must be identical in both runs
        _, measured, pattern = phantom_scene(snr=20, seed=13)
        f = WeightFilter(0.4, 48, 48)
        eps = 0.5 * float(f.h.max())
        cfg_a = ReconConfig(
            method="mw_raki",
            pattern=pattern,
            seed=3,
            optimizer=fast_opt(40),
            multiweight=MultiWeightConfig(48, 48, (0.4,), eps),
        )
        cfg_b = ReconConfig(
            method="mw_raki",
            pattern=pattern,
            seed=3,
            optimizer=fast_opt(40),
            multiweight=MultiWeightConfig(48, 48, (0.4,), 10.0 * float(f.h.max())),
        )
        a = reconstruct(measured, cfg_a)
        b = reconstruct(measured, cfg_b)
        invalid = f.h < eps
        assert invalid.any() and (~invalid).any()
        assert np.array_equal(a.kspace.data[:, invalid], b.kspace.data[:, invalid])
        changed = a.kspace.data[:, ~pattern.mask, :] != b.kspace.data[:, ~pattern.mask, :]
        assert changed.any()

    def test_rejects_bank_for_another_grid(self):
        _, measured, pattern = phantom_scene()
        cfg = ReconConfig(
            method="mw_raki", pattern=pattern, optimizer=fast_opt(1),
            multiweight=make_multiweight_config(32, 32),
        )
        with pytest.raises(ValueError, match="grid is 48x48 but filters are 32x32"):
            reconstruct(measured, cfg)

    def test_determinism(self):
        _, measured, pattern = phantom_scene(snr=20, seed=14)
        cfg = ReconConfig(method="mw_rraki", pattern=pattern, seed=9, optimizer=fast_opt(40))
        a = reconstruct(measured, cfg)
        b = reconstruct(measured, cfg)
        assert np.array_equal(a.kspace.data, b.kspace.data)

    @pytest.mark.parametrize("method", ["raki", "rraki", "mw_raki", "mw_rraki"])
    def test_scaling_invariance(self, method):
        _, measured, pattern = phantom_scene(snr=25, seed=15)
        cfg = ReconConfig(method=method, pattern=pattern, seed=4, optimizer=fast_opt(60))
        base = reconstruct(measured, cfg)
        alpha = 7.25
        scaled = reconstruct(MultiCoilKSpace(alpha * measured.data), cfg)
        rel = np.abs(scaled.sos - alpha * base.sos) / np.maximum(np.abs(alpha * base.sos), 1e-30)
        assert np.max(rel) < 1e-8

    def test_seed_changes_result(self):
        _, measured, pattern = phantom_scene(snr=20, seed=16)
        a = reconstruct(
            measured, ReconConfig(method="mw_raki", pattern=pattern, seed=0, optimizer=fast_opt(30))
        )
        b = reconstruct(
            measured, ReconConfig(method="mw_raki", pattern=pattern, seed=1, optimizer=fast_opt(30))
        )
        assert not np.array_equal(a.kspace.data, b.kspace.data)


class TestConfigValidation:
    def test_unknown_method(self):
        pattern = make_uniform_pattern(16, 2, 4)
        with pytest.raises(ValueError, match="unknown method"):
            ReconConfig(method="sense", pattern=pattern)

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_rejects_a_negative_or_non_finite_ridge(self, ridge):
        pattern = make_uniform_pattern(16, 2, 4)
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            ReconConfig(method="grappa", pattern=pattern, ridge=ridge)

    @pytest.mark.parametrize("method", ["raki", "rraki", "grappa"])
    def test_reconstruct_rejects_a_bank_for_a_method_without_one(self, method):
        _, measured, pattern = phantom_scene()
        with pytest.raises(ValueError, match=f"multiweight config does not apply to method '{method}'"):
            reconstruct(measured, ReconConfig(method=method, pattern=pattern, multiweight=MultiWeightConfig(48, 48)))

    def test_multiweight_rejected_for_plain_raki(self):
        pattern = make_uniform_pattern(16, 2, 4)
        with pytest.raises(ValueError, match="multiweight"):
            ReconConfig(
                method="raki",
                pattern=pattern,
                multiweight=MultiWeightConfig(16, 8, ()),
            )
