"""Linear k-space interpolation: least-squares kernel calibration and fill-in.

Each missing sample is a shift-invariant linear combination of acquired
samples across all coils.  For a target row ``t`` with offset
``m = t % R`` from its governing acquired line ``g = t - m``, the source
rows are ``g + k*R`` for ``by_taps`` values of ``k`` centered on ``g``, and
the source columns span ``2*bx_half + 1`` readout positions centered on the
target column.  Kernels are calibrated from the fully sampled ACS block by
sliding the footprint along the readout axis densely and along ky on the
acquisition lattice, so calibration equations match inference exactly.

Every (target coil, offset) pair shares one source matrix, so calibration
is one solve of its Gram (normal-equations) system, and interpolation is
one product of all kernels with each block of the source patches.  The
fill builds each block's patch matrix channels-first, ``[(by, bx, coil),
lines * nx]``, straight from the coil-first grid: one take of each ky tap's
rows into a small zero-edged buffer, then one slice per kx tap.  No
padded or coil-innermost copy of the whole grid is made, so a block's
work stays in cache.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kspace import MultiCoilKSpace, SamplingPattern


@dataclass(frozen=True)
class KernelGeometry:
    """Footprint of the interpolation kernel.

    ``bx_half`` readout neighbors on each side (kernel spans
    ``2*bx_half + 1`` columns) and ``by_taps`` acquired-line taps spaced
    ``R`` rows apart.
    """

    R: int
    bx_half: int = 1
    by_taps: int = 2

    def __post_init__(self):
        if self.R < 2:
            raise ValueError(f"acceleration must be >= 2, got R={self.R}")
        if self.bx_half < 0:
            raise ValueError(f"bx_half must be >= 0, got {self.bx_half}")
        if self.by_taps < 2:
            raise ValueError(f"by_taps must be >= 2, got {self.by_taps}")

    @property
    def kx_width(self) -> int:
        return 2 * self.bx_half + 1

    @property
    def footprint_rows(self) -> int:
        return (self.by_taps - 1) * self.R + 1

    @property
    def gap_index(self) -> int:
        # which inter-tap gap holds the targets (centered convention)
        return (self.by_taps - 1) // 2

    def n_sources(self, n_coils: int) -> int:
        return n_coils * self.by_taps * self.kx_width


@dataclass(frozen=True)
class GrappaKernel:
    """Calibrated weights, indexed [target_coil, m-1, source_coil, by, bx]."""

    geometry: KernelGeometry
    n_coils: int
    weights: np.ndarray

    def __post_init__(self):
        expected = (
            self.n_coils,
            self.geometry.R - 1,
            self.n_coils,
            self.geometry.by_taps,
            self.geometry.kx_width,
        )
        w = np.array(self.weights, dtype=np.complex128, copy=True)
        if w.shape != expected:
            raise ValueError(f"weights shape {w.shape} does not match geometry {expected}")
        if not np.isfinite(w).all():
            raise ValueError("kernel weights contain non-finite values")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


# interpolate builds and multiplies its patch matrix one block of governing
# rows at a time, each block's matrix within _PATCH_BLOCK_BYTES, so a fill's
# peak memory does not grow with the grid.  On a 256 x 256, 16-coil scan,
# blocks of 2-4 MiB ran 1.3-1.6x faster than one matrix of every row, and
# filled bit-identical rows.
_PATCH_BLOCK_BYTES = 2 << 20


def _window_anchor_rows(acs_rows: int, geom: KernelGeometry, row0: int) -> np.ndarray:
    """ACS-internal rows where a footprint can anchor on the acquisition lattice.

    ``row0`` is the absolute grid row of the first ACS row; anchors must sit
    on the stride-R lattice of the full grid so that calibration sees the
    same relative positions the interpolation step will.
    """
    anchors = np.arange(acs_rows - geom.footprint_rows + 1)
    if anchors.size == 0:
        return anchors
    return anchors[(row0 + anchors) % geom.R == 0]


def _source_matrix(grid: np.ndarray, anchors: np.ndarray, geom: KernelGeometry) -> np.ndarray:
    """Flattened source patches of a ``[ky, kx, coil]`` grid, one row per (anchor, column).

    ``anchors`` are the footprints' top rows: one ascending run ``R`` rows
    apart, as calibration places them.  Columns are coil-major, then by
    tap, then bx tap.  The run is one strided view of ``grid``, copied
    once into the matrix.
    """
    taps = sliding_window_view(grid, (geom.footprint_rows, geom.kx_width), axis=(0, 1))
    taps = taps[anchors[0] :: geom.R, :, :, :: geom.R][: anchors.size]  # [anchor, x0, coil, by, bx]
    return taps.reshape(-1, geom.n_sources(grid.shape[2]))


def _calibration_system(acs: MultiCoilKSpace, geom: KernelGeometry, row0: int):
    """Shared source matrix ``A`` and the stacked targets of every (coil, offset) pair.

    Column ``i * (R - 1) + m - 1`` of the targets holds coil ``i``'s ACS
    values ``m`` rows below each patch's governing acquired line.
    """
    anchors = _window_anchor_rows(acs.ny, geom, row0)
    if anchors.size == 0:
        raise ValueError(
            f"ACS too small for geometry: {acs.ny} rows, footprint needs "
            f"{geom.footprint_rows} rows on the acquisition lattice"
        )
    A = _source_matrix(acs.data.transpose(1, 2, 0), anchors, geom)
    rows = anchors + geom.gap_index * geom.R + np.arange(1, geom.R)[:, None]  # [m, n_anchor]
    targets = acs.data[:, rows, geom.bx_half : acs.nx - geom.bx_half]  # [c, m, n_anchor, x0]
    B = np.ascontiguousarray(targets.reshape(acs.n_coils * (geom.R - 1), -1).T)
    return A, B


def calibrate(
    acs: MultiCoilKSpace,
    geom: KernelGeometry,
    ridge: float = 0.0,
    row0: int = 0,
) -> GrappaKernel:
    """Fit kernels for every (target coil, offset) pair from the ACS block.

    All pairs share one source matrix ``A``, so one solve of
    ``(AᴴA + ridge·I) W = AᴴB`` fits them all.  ``ridge`` adds Tikhonov
    damping.  With ``ridge == 0`` a rank-deficient system raises
    ``numpy.linalg.LinAlgError``; the rank counts the eigenvalues of
    ``AᴴA`` above ``n·eps·λ_max`` for ``n`` unknowns, which calls a system
    singular from about ``cond(A) = 1/sqrt(n·eps)`` on.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    A, B = _calibration_system(acs, geom, row0)
    n_unknowns = A.shape[1]
    if A.shape[0] < n_unknowns:
        warnings.warn(
            f"calibration system is underdetermined ({A.shape[0]} rows, "
            f"{n_unknowns} unknowns)",
            stacklevel=2,
        )
    AH = A.conj().T
    G = AH @ A
    if ridge == 0.0:
        eig = np.linalg.eigvalsh(G)  # ascending
        rank = int(np.count_nonzero(eig > n_unknowns * np.finfo(float).eps * eig[-1]))
        if rank < n_unknowns:
            raise np.linalg.LinAlgError(
                f"singular calibration system (rank {rank} < {n_unknowns}); use ridge > 0"
            )
    else:
        G[np.diag_indices(n_unknowns)] += ridge
    W = np.linalg.solve(G, AH @ B)
    weights = W.T.reshape(acs.n_coils, geom.R - 1, acs.n_coils, geom.by_taps, geom.kx_width)
    return GrappaKernel(geometry=geom, n_coils=acs.n_coils, weights=weights)


def interpolate(
    kernel: GrappaKernel,
    undersampled: MultiCoilKSpace,
    pattern: SamplingPattern,
) -> MultiCoilKSpace:
    """Fill every missing ky row; acquired rows pass through bit-exactly.

    Footprints that exit the grid read zero-padded sources.
    """
    geom = kernel.geometry
    if geom.R != pattern.R:
        raise ValueError(f"kernel was calibrated for R={geom.R} but pattern has R={pattern.R}")
    if undersampled.n_coils != kernel.n_coils:
        raise ValueError(
            f"kernel expects {kernel.n_coils} coils, data has {undersampled.n_coils}"
        )
    if undersampled.ny != pattern.ny:
        raise ValueError(f"grid has {undersampled.ny} rows but pattern expects {pattern.ny}")
    data = undersampled.data
    n_coils, ny, nx = data.shape
    missing = pattern.missing_rows
    offsets = missing % geom.R
    # every offset m of an acquired line g reads the same footprint, whose
    # tap k reads grid row g + (k - gap_index) * R; one patch matrix serves
    # all R - 1 offsets
    governing, which = np.unique(missing - offsets, return_inverse=True)
    # weight columns in the patch matrix's (by, bx, coil) order
    w = kernel.weights.transpose(0, 1, 3, 4, 2).reshape(n_coils * (geom.R - 1), -1)
    block = max(1, _PATCH_BLOCK_BYTES // (nx * w.shape[1] * data.itemsize))
    out = data.copy()
    for lo in range(0, governing.size, block):
        hi = min(lo + block, governing.size)
        a, b = np.searchsorted(which, (lo, hi))  # the missing rows these lines govern
        patches = np.empty((geom.by_taps, geom.kx_width, n_coils, hi - lo, nx), dtype=complex)
        for tap in range(geom.by_taps):
            src = governing[lo:hi] + (tap - geom.gap_index) * geom.R
            inside = (src >= 0) & (src < ny)
            # this tap's rows, zero beyond the grid: [coil, line, nx + 2 bx_half]
            rows = np.zeros((n_coils, hi - lo, nx + 2 * geom.bx_half), dtype=complex)
            rows[:, inside, geom.bx_half : geom.bx_half + nx] = data[:, src[inside]]
            for x in range(geom.kx_width):
                patches[tap, x] = rows[:, :, x : x + nx]
        vals = w @ patches.reshape(w.shape[1], -1)
        vals = vals.reshape(n_coils, geom.R - 1, hi - lo, nx)
        out[:, missing[a:b], :] = vals[:, offsets[a:b] - 1, which[a:b] - lo, :]
    out.flags.writeable = False
    return MultiCoilKSpace(out)
