"""End-to-end reconstruction flows for every supported method.

Scan-specific methods train one network per (virtual) coil on training pairs
cut from the ACS block, slide it over the acquired-line lattice of the full
grid, write the predicted missing rows, and finally overwrite every
acquired row with the measured data (data consistency).  Every coil's
network reads the same sources, so one builder cuts the sources of every
weighting branch and the targets of every coil and branch from the ACS
block in one pass, and all coils train and infer together as one list of
networks (see :mod:`mwrecon.network`).

Multi-weight variants run the same flow on a batch of weighted copies of
the measurement (one per weighting matrix, plus the untouched original).
The batch shares one network per coil; at inference each weighted estimate
is divided by its weighting matrix where that is safely invertible, and
the final value of each missing sample is the mean over the valid branches
(the all-pass branch is always valid).  RAKI and rRAKI are the one-branch
case: their bank holds only the all-pass filter.

Networks ride the acquired-line lattice: as in the paper, adjacent ky taps
are ``R`` rows apart on the full grid.  The lattice rows are extracted into
a compacted array, on which those taps are adjacent rows, so every network
runs with unit ky spacing; this computes exactly the sums an ``R``-dilated
convolution evaluated at lattice offsets would.

Virtual coils: the networks run on a projection of the coils.  The
scale-normalised ACS block is factored by an SVD, and all k-space is
projected onto its ``nv`` leading left singular vectors (array compression,
Buehrer et al., MRM 2007; Huang et al., MRI 2008).  One network per virtual
coil trains and infers on that projection, so the first layer reads
``2*nv`` channels instead of ``2*C``; the combined estimate is mapped back
to the physical coils, and data consistency is applied there, so the
result keeps the input's coil count and its acquired rows.  ``nv`` is
derived, not chosen: the fewest components that hold
``1 - VIRTUAL_COIL_TOL`` of the ACS energy, raised to at least ``R``
(unfolding R-fold aliasing needs R coils) and capped at ``C``.  When that
would keep more than ``VIRTUAL_COIL_MAX_SHARE`` of the coils, the networks
run on the physical coils unrotated: on the tuning scenes the rotation
alone (all coils kept) cost MW-rRAKI 0.4-0.8 dB at R = 5-6, more than
dropping a few weak components gains.

Precision: only the networks' inputs are float32.  The training sources
and targets and the inference input are cast to float32 after the data is
divided by its normalisation scale and projected onto the virtual coils,
so the networks train and infer in float32 (see :mod:`mwrecon.network`).
Everything else is complex128: the projections, the branch batch, the
estimates written into it (a float32 value converts exactly),
de-weighting, the branch combine and data consistency, so the acquired
rows of the result are the measured samples bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .filters import WeightFilter, all_pass_filter, make_filter, FilterParams, remove_filter
from .grappa import KernelGeometry, calibrate, interpolate
from .kspace import MultiCoilKSpace, SamplingPattern, extract_acs, ifft2c, sos_combine
from .network import (
    LayerSpec,
    NetworkArch,
    OptimizerConfig,
    TrainingSet,
    forward,
    init_network,
    train,
)

METHODS = ("grappa", "raki", "rraki", "mw_raki", "mw_rraki")

DEFAULT_FILTER_EXPONENTS = (0.6, 0.2)

# ACS energy fraction the virtual coils may leave out, and the largest share
# of the coils they may keep (see the module docstring)
VIRTUAL_COIL_TOL = 1e-3
VIRTUAL_COIL_MAX_SHARE = 2 / 3


@dataclass(frozen=True)
class MultiWeightConfig:
    """An ordered weighting bank: the all-pass identity plus L high-pass filters."""

    filters: tuple[WeightFilter, ...]
    eps: float | None = None

    def __post_init__(self):
        filters = tuple(self.filters)
        if not filters:
            raise ValueError("multi-weight bank needs at least the all-pass filter")
        n_all_pass = sum(f.is_all_pass for f in filters)
        if n_all_pass != 1:
            raise ValueError(f"multi-weight bank needs exactly one all-pass filter, got {n_all_pass}")
        dims = {(f.ny, f.nx) for f in filters}
        if len(dims) != 1:
            raise ValueError(f"filters disagree on grid dims: {sorted(dims)}")
        # canonical order: all-pass first
        filters = tuple(sorted(filters, key=lambda f: not f.is_all_pass))
        object.__setattr__(self, "filters", filters)
        if self.eps is not None and self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


def make_multiweight_config(
    ny: int,
    nx: int,
    exponents=DEFAULT_FILTER_EXPONENTS,
    eps: float | None = None,
) -> MultiWeightConfig:
    """Bank with one high-pass filter per exponent (M = D0 = 1) plus the all-pass branch."""
    filters = [all_pass_filter(ny, nx)]
    filters += [make_filter(FilterParams(P=p), ny, nx) for p in exponents]
    return MultiWeightConfig(filters=tuple(filters), eps=eps)


@dataclass(frozen=True)
class ReconConfig:
    method: str
    pattern: SamplingPattern
    seed: int = 0
    arch: NetworkArch | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    multiweight: MultiWeightConfig | None = None
    grappa_geometry: KernelGeometry | None = None
    ridge: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        if self.multiweight is not None and self.method not in ("mw_raki", "mw_rraki"):
            raise ValueError(f"multiweight config does not apply to method {self.method!r}")


@dataclass
class ReconResult:
    """The filled k-space, its SoS image and one loss history per virtual coil (none for GRAPPA)."""

    kspace: MultiCoilKSpace
    sos: np.ndarray
    loss_histories: tuple


_DEFAULT_DEPTHS = {"raki": 3, "rraki": 3, "mw_raki": 2, "mw_rraki": 3}


def default_arch(method: str, n_coils: int, R: int, depth: int | None = None) -> NetworkArch:
    """Per-method network layout (unit ky spacing; lattice-compacted inputs).

    ``depth`` selects a stack of 1, 2, 3 or 5 layers; without it mw_raki
    gets 2 and the other methods 3.  The residual methods (rraki, mw_rraki)
    add a linear skip path as wide as the stack's receptive field allows,
    up to 5 columns.
    """
    if method not in _DEFAULT_DEPTHS:
        raise ValueError(f"no network architecture for method {method!r}")
    out = 2 * (R - 1)
    wide = LayerSpec(32, 5, 2, "relu")
    bottleneck = LayerSpec(8, 1, 1, "relu")
    final = LayerSpec(out, 3, 2, "identity")
    stacks = {
        1: (final,),
        2: (wide, final),
        3: (wide, bottleneck, final),
        5: (wide, bottleneck, bottleneck, bottleneck, final),
    }
    depth = _DEFAULT_DEPTHS[method] if depth is None else depth
    if depth not in stacks:
        raise ValueError(f"unsupported depth {depth}; choose from {sorted(stacks)}")
    layers = stacks[depth]
    skip = None
    if method in ("rraki", "mw_rraki"):
        rf_cols = sum(spec.kx_width - 1 for spec in layers) + 1
        skip = LayerSpec(out, min(5, rf_cols), 2, "identity")
    return NetworkArch(in_channels=2 * n_coils, layers=layers, skip=skip)


def build_training_pairs(
    acs: MultiCoilKSpace,
    R: int,
    arch: NetworkArch,
    target_coil: int,
    acs_row0: int = 0,
) -> TrainingSet:
    """Cut (source window, missing-row targets) pairs from a fully sampled block.

    Sources are the ACS rows on the acquisition lattice (``acs_row0`` is the
    absolute grid row of the first ACS row), real/imag split into channels.
    Targets are ``target_coil``'s R-1 rows between acquired lines at every
    valid window position, [1, 1, 2*(R-1), oh, ow]; every value is a raw
    ACS sample.  The set trains a one-network list.
    """
    if not 0 <= target_coil < acs.n_coils:
        raise ValueError(f"target_coil {target_coil} out of range for {acs.n_coils} coils")
    ts = _training_pairs(acs.data[None], R, arch, acs_row0, np.float64)
    return TrainingSet(sources=ts.sources, targets=ts.targets[target_coil:target_coil + 1])


def _training_pairs(acs: np.ndarray, R: int, arch: NetworkArch, acs_row0: int, dtype) -> TrainingSet:
    """Training pairs of every branch and coil of an ACS batch [n_f, coils, rows, nx].

    Sources are [n_f, 2*coils, ky, kx] and targets [coils, n_f, 2*(R-1), oh, ow],
    both in ``dtype``; see :func:`build_training_pairs`.
    """
    n_f, n_coils, ny, nx = acs.shape
    if arch.in_channels != 2 * n_coils:
        raise ValueError(
            f"arch expects {arch.in_channels} input channels, data provides {2 * n_coils}"
        )
    if arch.out_channels != 2 * (R - 1):
        raise ValueError(
            f"arch emits {arch.out_channels} channels but R={R} needs {2 * (R - 1)}"
        )
    lat = np.arange(ny)[(acs_row0 + np.arange(ny)) % R == 0]
    taps = arch.ky_taps_excess
    gap = arch.target_row_gap
    min_rows = taps * R + 1
    n_win = lat.size - taps
    while n_win > 0 and lat[n_win - 1 + gap] + (R - 1) > ny - 1:
        n_win -= 1
    if n_win < 1:
        raise ValueError(
            f"ACS too small: {ny} rows; this architecture needs at least "
            f"{min_rows} fully sampled rows (plus shift room for the R-1 targets)"
        )
    compact = acs[:, :, lat[: n_win + taps], :]
    sources = np.concatenate([compact.real, compact.imag], axis=1, dtype=dtype)
    ow = nx - (arch.rf_cols - 1)
    tx = arch.target_col_offset
    targets = np.empty((n_coils, n_f, 2 * (R - 1), n_win, ow), dtype=dtype)
    anchor_rows = lat[gap : gap + n_win]
    for m in range(1, R):
        block = acs[:, :, anchor_rows + m, tx : tx + ow].transpose(1, 0, 2, 3)
        targets[:, :, m - 1] = block.real
        targets[:, :, (R - 1) + m - 1] = block.imag
    return TrainingSet(sources=sources, targets=targets)


def build_mw_batch(kspace: MultiCoilKSpace, mw: MultiWeightConfig) -> np.ndarray:
    """Stack weighted copies along a leading batch axis; entry 0 is the original."""
    if (mw.filters[0].ny, mw.filters[0].nx) != (kspace.ny, kspace.nx):
        raise ValueError(
            f"grid is {kspace.ny}x{kspace.nx} but filters are "
            f"{mw.filters[0].ny}x{mw.filters[0].nx}"
        )
    return np.stack([kspace.data * f.h for f in mw.filters])


def reconstruct_image(kspace: MultiCoilKSpace) -> np.ndarray:
    """Per-coil inverse FFT followed by root-sum-of-squares combination."""
    return sos_combine(ifft2c(kspace))


def _require_consistent(measured: MultiCoilKSpace, pattern: SamplingPattern) -> None:
    if measured.ny != pattern.ny:
        raise ValueError(f"grid has {measured.ny} rows but pattern expects {pattern.ny}")
    if pattern.mask.all():
        raise ValueError("nothing to reconstruct: the pattern acquires every row")
    nonzero = np.any(measured.data, axis=(0, 2))  # per row: any coil has a nonzero sample
    if np.any(nonzero & ~pattern.mask):
        raise ValueError("measured data has nonzero samples on rows the pattern marks missing")
    empty = np.flatnonzero(pattern.mask & ~nonzero)
    if empty.size:
        raise ValueError(
            f"{empty.size} rows the pattern marks acquired (first: {empty[0]}) are zero in "
            f"every coil; was the data undersampled at a higher R than the pattern's R={pattern.R}?"
        )


def _virtual_coil_basis(acs: np.ndarray, R: int) -> np.ndarray:
    """The ``nv`` leading left singular vectors [C, nv] of an ACS block [C, rows, nx].

    ``nv = min(C, max(R, n))``, where ``n`` is the fewest components whose
    squared singular values hold at least ``1 - VIRTUAL_COIL_TOL`` of the
    block's energy.  Above ``VIRTUAL_COIL_MAX_SHARE * C`` the basis is the
    identity: the physical coils, unrotated.
    """
    n_coils = acs.shape[0]
    u, s, _ = np.linalg.svd(acs.reshape(n_coils, -1), full_matrices=False)
    energy = np.cumsum(s**2)
    n_kept = int(np.searchsorted(energy, (1 - VIRTUAL_COIL_TOL) * energy[-1])) + 1
    nv = min(n_coils, max(R, n_kept))
    if nv > VIRTUAL_COIL_MAX_SHARE * n_coils:
        return np.eye(n_coils)
    return u[:, :nv]


def _scan_specific_reconstruct(
    measured: MultiCoilKSpace, cfg: ReconConfig, mw: MultiWeightConfig
) -> ReconResult:
    pattern = cfg.pattern
    _require_consistent(measured, pattern)
    R = pattern.R
    n_coils, ny, nx = measured.n_coils, measured.ny, measured.nx

    scale = float(np.max(np.abs(measured.data)))
    if scale == 0:
        raise ValueError("measured k-space is identically zero")
    normalised = measured.data / scale
    acs_sl = slice(pattern.acs_start, pattern.acs_start + pattern.acs_count)
    basis = _virtual_coil_basis(normalised[:, acs_sl], R)  # [n_coils, nv]
    nv = basis.shape[1]
    virt = (basis.conj().T @ normalised.reshape(n_coils, -1)).reshape(nv, ny, nx)
    if cfg.arch is None:
        arch = default_arch(cfg.method, nv, R)
    elif cfg.arch.in_channels != 2 * n_coils:
        raise ValueError(
            f"arch expects {cfg.arch.in_channels} input channels, data provides {2 * n_coils}"
        )
    else:
        arch = replace(cfg.arch, in_channels=2 * nv)
    batch = build_mw_batch(MultiCoilKSpace(virt), mw)  # [n_f, nv, ny, nx]

    # float32: the networks compute in their input's precision
    ts = _training_pairs(batch[:, :, acs_sl, :], R, arch, pattern.acs_start, np.float32)
    nets0 = [init_network(arch, cfg.seed + coil) for coil in range(nv)]
    nets, histories = train(nets0, ts, cfg.optimizer)

    # inference: slide over the acquired-line lattice of the full grid; output
    # row o of a network predicts original rows o*R + m
    lat = np.arange(0, ny, R)
    compact = batch[:, :, lat, :]  # [n_f, nv, n_lat, nx]
    x = np.concatenate([compact.real, compact.imag], axis=1, dtype=np.float32)
    gap = arch.target_row_gap
    taps = arch.ky_taps_excess
    tx = arch.target_col_offset
    x = np.pad(x, ((0, 0), (0, 0), (gap, taps - gap), (tx, arch.rf_cols - 1 - tx)))
    out = forward(nets, x).transpose(1, 0, 2, 3, 4)  # [n_f, nv, out, n_lat, nx]
    for m in range(1, R):  # estimates overwrite the missing rows of each branch
        rows = lat + m
        keep = rows < ny
        batch[:, :, rows[keep], :] = out[:, :, m - 1, keep] + 1j * out[:, :, (R - 1) + m - 1, keep]

    # de-weight each branch and average the valid ones per location
    acc = np.zeros((nv, ny, nx), dtype=np.complex128)
    count = np.zeros((ny, nx))
    for est, f in zip(batch, mw.filters):
        deweighted, valid = remove_filter(MultiCoilKSpace(est), f, mw.eps)
        acc += deweighted.data * valid
        count += valid
    combined = acc / count  # all-pass branch keeps count >= 1 everywhere

    # back to the physical coils, where the acquired rows are restored
    final = (basis @ combined.reshape(nv, -1)).reshape(n_coils, ny, nx) * scale
    final[:, pattern.mask, :] = measured.data[:, pattern.mask, :]
    result_kspace = MultiCoilKSpace(final)
    return ReconResult(result_kspace, reconstruct_image(result_kspace), tuple(histories))


def raki_reconstruct(measured: MultiCoilKSpace, cfg: ReconConfig) -> ReconResult:
    """Scan-specific reconstruction without weighting (methods raki / rraki)."""
    if cfg.method not in ("raki", "rraki"):
        raise ValueError(f"raki_reconstruct got method {cfg.method!r}")
    mw = MultiWeightConfig(filters=(all_pass_filter(measured.ny, measured.nx),))
    return _scan_specific_reconstruct(measured, cfg, mw)


def mw_reconstruct(measured: MultiCoilKSpace, cfg: ReconConfig) -> ReconResult:
    """Multi-weight scan-specific reconstruction (methods mw_raki / mw_rraki)."""
    if cfg.method not in ("mw_raki", "mw_rraki"):
        raise ValueError(f"mw_reconstruct got method {cfg.method!r}")
    mw = cfg.multiweight
    if mw is None:
        mw = make_multiweight_config(measured.ny, measured.nx)
    return _scan_specific_reconstruct(measured, cfg, mw)


def grappa_reconstruct(measured: MultiCoilKSpace, cfg: ReconConfig) -> ReconResult:
    """Linear kernel calibration and interpolation."""
    if cfg.method != "grappa":
        raise ValueError(f"grappa_reconstruct got method {cfg.method!r}")
    pattern = cfg.pattern
    geom = cfg.grappa_geometry or KernelGeometry(R=pattern.R)
    if geom.R != pattern.R:
        raise ValueError(f"kernel geometry R={geom.R} does not match pattern R={pattern.R}")
    _require_consistent(measured, pattern)
    acs = extract_acs(measured, pattern)
    kernel = calibrate(acs, geom, ridge=cfg.ridge, row0=pattern.acs_start)
    filled = interpolate(kernel, measured, pattern)
    return ReconResult(filled, reconstruct_image(filled), ())


def reconstruct(measured: MultiCoilKSpace, cfg: ReconConfig) -> ReconResult:
    """Dispatch to the configured method."""
    if cfg.method == "grappa":
        return grappa_reconstruct(measured, cfg)
    if cfg.method in ("raki", "rraki"):
        return raki_reconstruct(measured, cfg)
    return mw_reconstruct(measured, cfg)
