"""End-to-end reconstruction flows for every supported method.

Scan-specific methods train one network per (virtual) coil on training pairs
cut from the ACS block, slide it over the acquired-line lattice of the full
grid, and fill the missing rows with its predictions; the acquired rows
keep the measured data (data consistency).  Every coil's network reads the
same sources, so one builder cuts the sources of every weighting branch and
the targets of every coil and branch from the ACS block in one pass, and
all coils train and infer together as one list of networks (see
:mod:`mwrecon.network`).

Planning: :func:`plan` resolves what a run uses, from ``cfg`` or else the
method's default: the network (:func:`default_arch`), the weighting bank
(the all-pass branch plus, for the ``MULTIWEIGHT`` methods,
``DEFAULT_FILTER_EXPONENTS``) and GRAPPA's footprint (``KernelGeometry(R)``).
It runs every check that needs only the scan's shape: the footprint's R and
its fit at ``cfg.ridge``, the network's input and output channels and its
training windows, and the bank's grid.  The CLI plans every run before any
work, and :func:`reconstruct`, the one scan driver, plans before it reads
the data, so both reject the same settings with the same text; it then
checks the data once, runs GRAPPA's fit and fill or :func:`mw_reconstruct`,
and forms the image once.

Multi-weight variants run the same flow on a batch of weighted copies of
the measurement, one per filter of the bank: the all-pass branch (P = 0,
the original) and one gain ``r**(2P)`` per exponent P > 0.  The batch
shares one network per coil; at inference each weighted estimate is
divided by its weighting matrix where that is safely invertible, and the
final value of each missing sample is the mean over the valid branches
(the all-pass branch is always valid).  RAKI and rRAKI have no exponents.

Networks ride the acquired-line lattice: as in the paper, adjacent ky taps
are ``R`` rows apart on the full grid.  The lattice rows are extracted into
a compacted array, on which those taps are adjacent rows, so every network
runs with unit ky spacing; this computes exactly the sums an ``R``-dilated
convolution evaluated at lattice offsets would.

Rows: each stage touches only the rows it uses.  The acquired rows (the
only nonzero ones) are normalised and projected onto the virtual coils;
the branch batch is weighted on the ACS rows for training, on the windows
that ``kspace._lattice_anchors`` gives GRAPPA's footprints too, for a span
of ``max(ky_taps_excess * R, R - 1)`` rows (:func:`training_windows`).
Inference runs only on the lattice rows whose outputs predict a missing
row: one network input per run of such rows, usually one above and one
below the ACS block, holding the run's rows plus the receptive-field halo.
The inputs are built before training and travel with it: one
:func:`mwrecon.network.train` call trains the networks and returns their
predictions on every input, so a coil share trained on a helper process
also infers its coils there.  De-weighting, the branch combine and the
map back to the physical coils run on the missing rows only, which are
then written into a copy of the acquired rows.  The map back is one GEMM
``basis @ combined`` over every missing sample, each one sum over the
``nv`` virtual coils.  A value equals what the same stages give on the
whole grid bit for bit only where it has the same operands in the same
order.  The projections take their coil products one ky row at a time,
so they do.  A run's GEMMs are narrower than the whole lattice's, and a
BLAS may round a GEMM's columns by its width, so the networks'
predictions agree with the whole lattice's to float32 rounding.

Virtual coils: the networks run on a projection of the coils onto the
``nv`` leading left singular vectors of the scale-normalised ACS block
``A`` (array compression, Buehrer et al., MRM 2007; Huang et al., MRI
2008).  They are computed as the leading eigenvectors of the C x C Gram
matrix ``A Aᴴ``, whose eigenvalues are the squared singular values.  One
network per virtual coil trains and infers on that projection, so the
first layer reads ``2*nv`` channels instead of ``2*C``; the combined
estimate is mapped back to the physical coils, so the result keeps the
input's coil count and its acquired rows.  ``nv`` is derived, not chosen:
the fewest components that hold ``1 - VIRTUAL_COIL_TOL`` of the ACS
energy, raised to at least ``R`` (unfolding R-fold aliasing needs R coils)
and capped at ``C``.  When that would keep more than
``VIRTUAL_COIL_MAX_SHARE`` of the coils, the networks run on the physical
coils unrotated: on the tuning scenes the rotation alone (all coils kept)
cost MW-rRAKI 0.4-0.8 dB at R = 5-6, more than dropping a few weak
components gains.

Precision: only the networks' inputs are float32.  The training sources
and targets and the inference input are cast to float32 after the data is
divided by its normalisation scale and projected onto the virtual coils,
so the networks train and infer in float32 (see :mod:`mwrecon.network`).
Everything else is float64 or complex128: the projections, the branch
batch, de-weighting and the branch combine (real gains on the estimates'
real and imaginary parts) and the map back, so the acquired rows of the
result are the measured samples bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .filters import WeightFilter, deweight
from .grappa import KernelGeometry, calibrate, check_footprint, interpolate
from .kspace import MultiCoilKSpace, SamplingPattern, _fft2_rows, _lattice_anchors, _map, extract_acs
from .network import (
    LayerSpec,
    NetworkArch,
    OptimizerConfig,
    TrainingSet,
    init_network,
    train,
)

# Each network method and its default depth (see default_arch).  The mw_
# methods train on a weighting bank, and the rRAKI methods add a linear skip.
NETWORKS = {"raki": 3, "rraki": 3, "mw_raki": 2, "mw_rraki": 3}
MULTIWEIGHT = tuple(m for m in NETWORKS if m.startswith("mw_"))
RESIDUAL = tuple(m for m in NETWORKS if m.endswith("rraki"))
METHODS = ("grappa", *NETWORKS)

DEFAULT_FILTER_EXPONENTS = (0.6, 0.2)

# ACS energy fraction the virtual coils may leave out, and the largest share
# of the coils they may keep (see the module docstring)
VIRTUAL_COIL_TOL = 1e-3
VIRTUAL_COIL_MAX_SHARE = 2 / 3


@dataclass(frozen=True)
class MultiWeightConfig:
    """The ny x nx weighting bank: the all-pass branch, then one filter per exponent in order.

    ``eps`` is the de-weighting floor; see :func:`mwrecon.filters.deweight`.
    """

    ny: int
    nx: int
    exponents: tuple[float, ...] = DEFAULT_FILTER_EXPONENTS
    eps: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if not all(0 < p < math.inf for p in self.exponents):  # NaN too
            raise ValueError(f"filter exponents must be finite and > 0, got {self.exponents}")
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        self.filters  # each filter rejects an exponent whose gain underflows

    @cached_property
    def filters(self) -> tuple[WeightFilter, ...]:
        return tuple(WeightFilter(p, self.ny, self.nx) for p in (0, *self.exponents))

    def require_grid(self, ny: int, nx: int) -> None:
        """Raise unless the bank's filters are sized for an ``ny`` x ``nx`` grid."""
        if (self.ny, self.nx) != (ny, nx):
            raise ValueError(f"grid is {ny}x{nx} but filters are {self.ny}x{self.nx}")


def make_multiweight_config(ny, nx, exponents=DEFAULT_FILTER_EXPONENTS, eps=None) -> MultiWeightConfig:
    """``MultiWeightConfig(ny, nx, exponents, eps)``, under the name the benchmark calls."""
    return MultiWeightConfig(ny, nx, exponents, eps)


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.ridge < math.inf:  # NaN too
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.multiweight is not None and self.method not in MULTIWEIGHT:
            raise ValueError(f"multiweight config does not apply to method {self.method!r}")


@dataclass
class ReconResult:
    """The filled k-space, its SoS image and one loss history per virtual coil (none for GRAPPA)."""

    kspace: MultiCoilKSpace
    sos: np.ndarray
    loss_histories: tuple


def default_arch(method: str, n_coils: int, R: int, depth: int | None = None) -> NetworkArch:
    """Per-method network layout (unit ky spacing; lattice-compacted inputs).

    ``depth`` selects a stack of 1, 2, 3 or 5 layers; without it the
    method's entry of ``NETWORKS``.  The ``RESIDUAL`` methods add a linear
    skip path as wide as the stack's receptive field allows, up to 5 columns.
    """
    if method not in NETWORKS:
        raise ValueError(f"no network architecture for method {method!r}")
    out = 2 * (R - 1)
    wide = LayerSpec(32, 5, 2)
    bottleneck = LayerSpec(8, 1, 1)
    final = LayerSpec(out, 3, 2)
    stacks = {
        1: (final,),
        2: (wide, final),
        3: (wide, bottleneck, final),
        5: (wide, bottleneck, bottleneck, bottleneck, final),
    }
    depth = NETWORKS[method] if depth is None else depth
    if depth not in stacks:
        raise ValueError(f"unsupported depth {depth}; choose from {sorted(stacks)}")
    arch = NetworkArch(in_channels=2 * n_coils, layers=stacks[depth])
    return replace(arch, skip=LayerSpec(out, min(5, arch.rf_cols), 2)) if method in RESIDUAL else arch


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


def training_windows(arch: NetworkArch, R: int, acs_rows: int, acs_row0: int) -> np.ndarray:
    """ACS-internal rows where ``arch``'s training windows anchor, on ``acs_rows`` ACS rows from
    grid row ``acs_row0``: its receptive fields on the lattice with room for the R-1 target rows
    below the target gap.  ``ValueError`` if none fits."""
    taps = arch.ky_taps_excess
    anchors = _lattice_anchors(acs_rows, R, acs_row0, max(taps * R, R - 1))
    if anchors.size == 0:
        raise ValueError(
            f"ACS too small: {acs_rows} rows; this architecture needs at least "
            f"{taps * R + 1} fully sampled rows (plus shift room for the R-1 targets)"
        )
    return anchors


def _require_channels(arch: NetworkArch, n_coils: int, R: int) -> None:
    """Raise unless ``arch`` reads ``n_coils`` coils and emits the R-1 target rows, real and imaginary."""
    if arch.in_channels != 2 * n_coils:
        raise ValueError(f"arch expects {arch.in_channels} input channels, data provides {2 * n_coils}")
    _require_width("final layer", arch.out_channels, R)


def _require_width(part: str, channels: int, R: int) -> None:
    """Raise unless ``part`` (the final layer, or the skip that must match it) emits ``2*(R-1)`` channels."""
    if channels != 2 * (R - 1):
        raise ValueError(f"the {part} emits {channels} channels but R={R} needs {2 * (R - 1)}")


def _training_pairs(acs: np.ndarray, R: int, arch: NetworkArch, acs_row0: int, dtype) -> TrainingSet:
    """Training pairs of every branch and coil of an ACS batch [n_f, coils, rows, nx].

    Sources are [n_f, 2*coils, ky, kx] and targets [coils, n_f, 2*(R-1), oh, ow],
    both in ``dtype``; see :func:`build_training_pairs`.
    """
    n_f, n_coils, ny, nx = acs.shape
    _require_channels(arch, n_coils, R)
    anchors = training_windows(arch, R, ny, acs_row0)
    # the windows' lattice rows, from the first one's top tap to the last one's bottom tap
    compact = acs[:, :, anchors[0] : anchors[-1] + arch.ky_taps_excess * R + 1 : R]
    sources = np.concatenate([compact.real, compact.imag], axis=1, dtype=dtype)
    ow = nx - (arch.rf_cols - 1)
    tx = arch.target_col_offset
    targets = np.empty((n_coils, n_f, 2 * (R - 1), anchors.size, ow), dtype=dtype)
    for m in range(1, R):
        block = acs[:, :, anchors + arch.target_row_gap * R + m, tx : tx + ow].transpose(1, 0, 2, 3)
        targets[:, :, m - 1] = block.real
        targets[:, :, (R - 1) + m - 1] = block.imag
    return TrainingSet(sources=sources, targets=targets)


def _weighted(values: np.ndarray, mw: MultiWeightConfig, rows: np.ndarray) -> np.ndarray:
    """Weighted copies [n_f, ...] of ``values`` [..., rows, nx] that lie on grid ``rows``.

    Entry ``i`` is weighted by ``mw.filters[i]``; entry 0, the all-pass
    branch, is ``values`` bit for bit.
    """
    return np.stack([values * f.h[rows] for f in mw.filters])


def reconstruct_image(kspace: MultiCoilKSpace) -> np.ndarray:
    """Root-sum-of-squares of the per-coil centered inverse FFTs, C-contiguous.

    The coil stack is not shifted: shifting k-space only changes each
    pixel's phase, and shifting the image moves every coil's pixels alike,
    so the one shift is of the real combined image.  Each coil is two row
    passes (see :mod:`mwrecon.kspace`, whose concurrency rule runs them on a
    worker pool at large grids), and its transposed ``re² + im²`` is added
    into a transposed accumulator in coil order, the order a sum over the
    stack's coil axis adds them in: the same 1-D transforms and sums as one
    ``ifft2`` of the stack, so the same bits.
    """
    def power(coil):
        image = _fft2_rows(coil, np.fft.ifft)
        return image.real**2 + image.imag**2

    sos = np.zeros(kspace.data.shape[:0:-1])
    for coil_power in _map(power, kspace.data, kspace.data[0].nbytes):
        sos += coil_power
    return np.fft.fftshift(np.sqrt(sos).T.copy())


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

    They are the leading eigenvectors of the C x C Gram matrix ``A Aᴴ`` of
    the block ``A``, whose eigenvalues, clipped at 0, are the components'
    energies (the squared singular values).  ``nv = min(C, max(R, n))``,
    where ``n`` is the fewest components that hold at least
    ``1 - VIRTUAL_COIL_TOL`` of the block's energy.  Above
    ``VIRTUAL_COIL_MAX_SHARE * C`` the basis is the identity: the physical
    coils, unrotated.
    """
    n_coils = acs.shape[0]
    a = acs.reshape(n_coils, -1)
    w, v = np.linalg.eigh(a @ a.conj().T)  # ascending
    energy = np.cumsum(np.maximum(w[::-1], 0.0))
    n_kept = int(np.searchsorted(energy, (1 - VIRTUAL_COIL_TOL) * energy[-1])) + 1
    nv = min(n_coils, max(R, n_kept))
    if nv > VIRTUAL_COIL_MAX_SHARE * n_coils:
        return np.eye(n_coils)
    return v[:, ::-1][:, :nv]


def plan(cfg: ReconConfig, n_coils: int, ny: int, nx: int):
    """(network, weighting bank, GRAPPA footprint) that :func:`reconstruct` runs ``cfg`` with on
    an ``n_coils``-coil ``ny`` x ``nx`` scan: ``cfg``'s own, else the method's default, and None
    where the method has none.  Raises unless the scan's shape can run them; at ``cfg.ridge == 0``
    a GRAPPA fit with too few equations raises ``LinAlgError``, anything else ``ValueError``."""
    pattern, R = cfg.pattern, cfg.pattern.R
    if cfg.method == "grappa":
        geom = cfg.grappa_geometry or KernelGeometry(R)
        if geom.R != R:
            raise ValueError(f"kernel geometry R={geom.R} does not match pattern R={R}")
        check_footprint(geom, nx, pattern.acs_count, pattern.acs_start, n_coils, cfg.ridge)
        return None, None, geom
    arch = cfg.arch or default_arch(cfg.method, n_coils, R)
    _require_channels(arch, n_coils, R)
    training_windows(arch, R, pattern.acs_count, pattern.acs_start)
    mw = cfg.multiweight or MultiWeightConfig(ny, nx, DEFAULT_FILTER_EXPONENTS if cfg.method in MULTIWEIGHT else ())
    mw.require_grid(ny, nx)
    return arch, mw, None


def mw_reconstruct(measured: MultiCoilKSpace, cfg: ReconConfig, arch: NetworkArch, mw: MultiWeightConfig):
    """(filled k-space, loss histories) of every network method's scan-specific flow, on the
    network and bank that :func:`plan` picks and data that :func:`reconstruct` has checked
    (public only because perfbench's span checks name it)."""
    pattern, R = cfg.pattern, cfg.pattern.R
    ny, nx = measured.ny, measured.nx

    # the networks read only acquired rows, the ACS block and the lattice;
    # reconstruct's _require_consistent has shown that every other row is zero
    acquired = np.flatnonzero(pattern.mask)
    normalised = measured.data[:, acquired]
    scale = float(np.max(np.abs(normalised)))
    normalised /= scale
    acs_rows = np.arange(pattern.acs_start, pattern.acs_start + pattern.acs_count)
    acs_at = np.searchsorted(acquired, acs_rows)
    basis = _virtual_coil_basis(normalised[:, acs_at], R)  # [n_coils, nv]
    nv = basis.shape[1]
    # one product per row: a row's values do not depend on which rows are taken
    virt = np.matmul(basis.conj().T, normalised.transpose(1, 0, 2)).transpose(1, 0, 2)
    arch = replace(arch, in_channels=2 * nv)

    # float32: the networks compute in their input's precision
    acs = _weighted(virt[:, acs_at], mw, acs_rows)  # [n_f, nv, acs_count, nx]
    ts = _training_pairs(acs, R, arch, pattern.acs_start, np.float32)

    # inference inputs: output row o of a network predicts original rows o*R + m;
    # only missing rows keep a prediction, so the networks run once per run
    # of consecutive o those rows fall in (above and below the ACS block),
    # on the run's lattice rows plus the receptive-field halo
    missing = pattern.missing_rows
    o, channels = missing // R, np.stack([missing % R - 1, missing % R + R - 2])  # real, imaginary output
    lat = np.arange(0, ny, R)
    gap, taps, tx = arch.target_row_gap, arch.ky_taps_excess, arch.target_col_offset
    kept = np.unique(o)
    runs = np.split(kept, np.flatnonzero(np.diff(kept) > 1) + 1)
    inputs = []
    for run in runs:
        top = run[0] - gap  # padded input row j holds lattice row top + j, zero off the lattice
        lo, hi = max(top, 0), min(top + run.size + taps, lat.size)
        batch = _weighted(virt[:, np.searchsorted(acquired, lat[lo:hi])], mw, lat[lo:hi])
        x = np.zeros((len(mw.filters), 2 * nv, run.size + taps, nx + arch.rf_cols - 1), dtype=np.float32)
        x[:, :, lo - top:hi - top, tx:tx + nx] = np.concatenate([batch.real, batch.imag], axis=1)
        inputs.append(x)
    nets0 = [init_network(arch, cfg.seed + coil) for coil in range(nv)]
    _, histories, *outs = train(nets0, ts, cfg.optimizer, inputs)  # outs: [nv, n_f, 2*(R-1), run.size, nx]

    # a branch's gain is what de-weighting makes of a 1; the valid branches are de-weighted
    # and averaged in real arithmetic, into the combined estimate's real and imaginary parts
    gains, valid = zip(*(deweight(np.ones((missing.size, nx)), f, missing, mw.eps) for f in mw.filters))
    combined = np.zeros((nv, missing.size, nx), dtype=np.complex128)
    parts = combined.view(np.float64).reshape(nv, missing.size, nx, 2).transpose(0, 3, 1, 2)
    for run, out in zip(runs, outs):
        rows = slice(*np.searchsorted(o, [run[0], run[-1] + 1]))
        for b, gain in enumerate(gains):
            parts[:, :, rows] += out[:, b, channels[:, rows], o[rows] - run[0]] * gain[rows]
    parts *= 1.0 / np.sum(valid, axis=0)  # the all-pass branch is always valid

    # back to the physical coils, into a copy of the measurement's acquired rows
    filled = np.empty_like(measured.data)
    for rows in (slice(None, None, R), slice(pattern.acs_start, pattern.acs_start + pattern.acs_count)):
        filled[:, rows] = measured.data[:, rows]
    back = basis @ combined.reshape(nv, -1)  # one GEMM; each sample a sum over the nv virtual coils
    back *= scale
    filled[:, missing] = back.reshape(-1, missing.size, nx)
    filled.flags.writeable = False
    return MultiCoilKSpace(filled), histories


def reconstruct(measured: MultiCoilKSpace, cfg: ReconConfig) -> ReconResult:
    """Reconstruct ``measured`` with ``cfg.method``, on what :func:`plan` picks for its shape."""
    pattern = cfg.pattern
    arch, mw, geom = plan(cfg, measured.n_coils, measured.ny, measured.nx)
    _require_consistent(measured, pattern)
    if geom is None:
        filled, histories = mw_reconstruct(measured, cfg, arch, mw)
    else:  # GRAPPA: linear kernel calibration and interpolation
        kernel = calibrate(extract_acs(measured, pattern), geom, ridge=cfg.ridge, row0=pattern.acs_start)
        filled, histories = interpolate(kernel, measured, pattern), ()
    return ReconResult(filled, reconstruct_image(filled), tuple(histories))
