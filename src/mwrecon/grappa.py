"""Linear k-space interpolation: least-squares kernel calibration and fill-in.

Each missing sample is a shift-invariant linear combination of acquired
samples across all coils.  For a target row ``t`` with offset
``m = t % R`` from its governing acquired line ``g = t - m``, the source
rows are ``g + k*R`` for ``by_taps`` values of ``k`` centered on ``g``, and
the source columns span ``2*bx_half + 1`` readout positions centered on the
target column.

On the acquisition lattice (every R-th row) that footprint is a plain
``by_taps x (2*bx_half + 1)`` window, so both steps build their patches with
the networks' ``_im2col``.  Calibration splits the ACS lattice rows into
[real coils, imaginary coils] channels, as a network's first layer does, so
one symmetric real product yields the complex Gram matrix that every
(target coil, offset) pair shares.  Its footprints anchor on the ACS rows
that :func:`check_footprint` finds by the networks' window rule,
``kspace._lattice_anchors``, for a span of ``footprint_rows - 1`` rows.
The fill multiplies all kernels with the complex patches of one zero-edged
slab of lattice rows per block of governing lines, and writes each
offset's rows through a strided view.
At large grids the blocks, and calibration's two products, run on the
worker pool of :mod:`mwrecon.kspace`, whose concurrency rule keeps the bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kspace import MultiCoilKSpace, SamplingPattern, _lattice_anchors, _map
from .network import _frozen_weight, _im2col


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
        g = self.geometry
        expected = (self.n_coils, g.R - 1, self.n_coils, g.by_taps, g.kx_width)
        object.__setattr__(self, "weights", _frozen_weight(self.weights, expected, np.complex128))


# interpolate fills one block of governing lines at a time, its _im2col
# patch matrix within _PATCH_BLOCK_BYTES, so a fill's peak memory does not
# grow with the grid.  On a 256 x 256, 16-coil scan, blocks of 2-4 MiB ran
# 1.2-1.6x faster than one matrix of every row and filled bit-identical
# rows.
_PATCH_BLOCK_BYTES = 2 << 20


def _window_anchor_rows(acs_rows: int, geom: KernelGeometry, row0: int) -> np.ndarray:
    """``geom``'s anchors in ``acs_rows`` ACS rows from grid row ``row0``; only the benchmark reads it."""
    return _lattice_anchors(acs_rows, geom.R, row0, geom.footprint_rows - 1)


def check_footprint(geom: KernelGeometry, nx: int, acs_rows: int, row0: int = 0,
                    n_coils: int | None = None, ridge: float = 0.0) -> np.ndarray:
    """The ACS-internal rows where ``calibrate`` anchors ``geom``'s footprints; raises unless
    it can fit ``geom`` on the scan.

    ``ValueError`` if ``geom`` is wider than the ``nx``-column readout or has no anchor on
    the lattice in the ``acs_rows`` ACS rows from grid row ``row0``; given ``n_coils``,
    ``LinAlgError`` if a ``ridge == 0`` fit has fewer equations than unknowns (singular).
    """
    anchors = _lattice_anchors(acs_rows, geom.R, row0, geom.footprint_rows - 1)
    if geom.kx_width > nx or anchors.size == 0:
        raise ValueError(
            f"footprint of {geom.kx_width} columns x {geom.footprint_rows} rows does not fit "
            f"the scan: {nx} columns, {acs_rows} ACS rows from row {row0} on the R={geom.R} lattice"
        )
    n_rows, n_unknowns = anchors.size * (nx - 2 * geom.bx_half), geom.n_sources(n_coils or 0)
    if ridge == 0.0 and n_rows < n_unknowns:
        raise np.linalg.LinAlgError(f"calibration system has {n_rows} equations for {n_unknowns} "
                                    "unknowns, so it is singular")
    return anchors


def _conj_product(P: np.ndarray) -> np.ndarray:
    """``ZᴴY`` from ``P = [Re Z; Im Z]ᵀ [Re Y; Im Y]``, Z's part on axis 1 and Y's on axis -2."""
    return P[:, 0, ..., 0, :] + P[:, 1, ..., 1, :] + 1j * (P[:, 0, ..., 1, :] - P[:, 1, ..., 0, :])


def calibrate(acs: MultiCoilKSpace, geom: KernelGeometry, ridge: float = 0.0,
              row0: int = 0) -> GrappaKernel:
    """Fit kernels for every (target coil, offset) pair from the ACS block.

    All pairs share one source matrix ``A``, so one solve of
    ``(AᴴA + ridge·I) W = AᴴB`` fits them all.  The ``_im2col`` patches
    ``Ar`` of the real/imaginary-split lattice rows hold ``A``'s two parts,
    so one symmetric real product ``Ar @ Ar.T`` yields ``AᴴA``.  ``ridge``
    adds Tikhonov damping.  At ``ridge == 0`` too few equations (checked
    first) or a rank-deficient ``AᴴA`` raise ``numpy.linalg.LinAlgError``;
    the rank counts eigenvalues above ``n·eps·λ_max`` for ``n`` unknowns,
    which calls a system singular from about ``cond(A) = 1/sqrt(n·eps)`` on.
    """
    if not 0 <= ridge < math.inf:  # NaN too
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    R, n_coils = geom.R, acs.n_coils
    anchors = check_footprint(geom, acs.nx, acs.ny, row0, n_coils, ridge)
    split = np.concatenate([acs.data.real, acs.data.imag])  # [real coils, imaginary coils]
    # the anchors' lattice rows; one anchor's footprint is by_taps of them
    lattice = split[None, :, anchors[0] :: R][:, :, : anchors.size + geom.by_taps - 1]
    Ar, _ = _im2col(lattice, geom.by_taps, geom.kx_width)  # [(by, bx, re/im, coil), anchor * column]
    # coil i's values m rows below each patch's governing line, row i * (R - 1) + m - 1 of each part
    rows = anchors + geom.gap_index * R + np.arange(1, R)[:, None]  # [m, anchor]
    Br = split[:, rows, geom.bx_half : acs.nx - geom.bx_half].reshape(2 * n_coils * (R - 1), -1)
    taps, n_unknowns, n_rows = geom.by_taps * geom.kx_width, geom.n_sources(n_coils), Ar.shape[1]
    if n_rows < n_unknowns:
        warnings.warn(f"calibration system is underdetermined ({n_rows} rows, {n_unknowns} unknowns)", stacklevel=2)
    ArAr, ArBr = _map(lambda M: Ar @ M.T, (Ar, Br), Ar.nbytes)
    G = _conj_product(ArAr.reshape(taps, 2, n_coils, taps, 2, n_coils)).reshape(n_unknowns, -1)
    AHB = _conj_product(ArBr.reshape(taps, 2, n_coils, 2, -1)).reshape(n_unknowns, -1)
    if ridge == 0.0:
        eig = np.linalg.eigvalsh(G)  # ascending
        rank = int(np.count_nonzero(eig > n_unknowns * np.finfo(float).eps * eig[-1]))
        if rank < n_unknowns:
            raise np.linalg.LinAlgError(f"singular calibration system (rank {rank} < {n_unknowns}); "
                                        "use ridge > 0")
    else:
        G[np.diag_indices(n_unknowns)] += ridge
    W = np.linalg.solve(G, AHB)
    weights = W.T.reshape(n_coils, R - 1, geom.by_taps, geom.kx_width, n_coils)
    return GrappaKernel(geometry=geom, n_coils=n_coils, weights=weights.transpose(0, 1, 4, 2, 3))


def interpolate(kernel: GrappaKernel, undersampled: MultiCoilKSpace,
                pattern: SamplingPattern) -> MultiCoilKSpace:
    """Copy only the acquired rows, bit-exactly, and fill every missing ky row.

    Footprints that exit the grid read zero-padded sources.
    """
    geom = kernel.geometry
    if geom.R != pattern.R:
        raise ValueError(f"kernel was calibrated for R={geom.R} but pattern has R={pattern.R}")
    if undersampled.n_coils != kernel.n_coils:
        raise ValueError(f"kernel expects {kernel.n_coils} coils, data has {undersampled.n_coils}")
    if undersampled.ny != pattern.ny:
        raise ValueError(f"grid has {undersampled.ny} rows but pattern expects {pattern.ny}")
    data = undersampled.data
    n_coils, ny, nx = data.shape
    R, pad = geom.R, geom.bx_half
    missing = pattern.missing_rows
    offsets = missing % R
    # each offset m of a governing line g reads the footprint whose tap k is grid
    # row g + (k - gap_index) * R, so one patch matrix serves all R - 1 offsets
    governing, which = np.unique(missing - offsets, return_inverse=True)
    # weight columns in the patch matrix's (by, bx, coil) order
    w = kernel.weights.transpose(0, 1, 3, 4, 2).reshape(n_coils * (R - 1), -1)
    block = max(1, _PATCH_BLOCK_BYTES // (nx * w.shape[1] * data.itemsize))
    runs = np.flatnonzero(np.diff(governing) != R) + 1  # where a run of lattice lines breaks
    out = np.empty_like(data)  # the lattice and ACS rows; the fill writes every other row
    for rows in (slice(None, None, R), slice(pattern.acs_start, pattern.acs_start + pattern.acs_count)):
        out[:, rows] = data[:, rows]

    def fill(block_lines):  # lines lo..hi-1 of one run; no other block writes their rows
        lo, hi = block_lines
        # lattice rows top + j*R, zero beyond the grid: [1, coil, j, nx + 2 bx_half]
        top = governing[lo] - geom.gap_index * R
        slab = np.zeros((1, n_coils, hi - lo + geom.by_taps - 1, nx + 2 * pad), dtype=data.dtype)
        j0, j1 = max(0, -top // R), min(slab.shape[2], (ny - 1 - top) // R + 1)
        slab[0, :, j0:j1, pad : pad + nx] = data[:, top + j0 * R : top + (j1 - 1) * R + 1 : R]
        vals = w @ _im2col(slab, geom.by_taps, geom.kx_width)[0]
        vals = vals.reshape(n_coils, R - 1, hi - lo, nx)
        a, b = np.searchsorted(which, (lo, hi))  # the missing rows these lines govern
        if b - a == (R - 1) * (hi - lo):  # all missing: offset m's rows are one strided view
            for m in range(1, R):
                out[:, governing[lo] + m : governing[hi - 1] + m + 1 : R] = vals[:, m - 1]
        else:  # an ACS edge or the grid's end: write the missing rows by index
            out[:, missing[a:b], :] = vals[:, offsets[a:b] - 1, which[a:b] - lo, :]

    blocks = [(lo, min(lo + block, stop)) for start, stop in zip((0, *runs), (*runs, governing.size))
              for lo in range(start, stop, block)]
    patch_bytes = max((hi - lo for lo, hi in blocks), default=0) * nx * w.shape[1] * data.itemsize
    for _ in _map(fill, blocks, patch_bytes):
        pass
    out.flags.writeable = False
    return MultiCoilKSpace(out)
