"""Radial high-pass weighting matrices applied elementwise in k-space.

A filter is its exponent ``P``: the gain at a k-space location is
``r**(2*P)``, where ``r`` is the radius from the grid center in normalized
frequency units (each axis spans [-0.5, 0.5) in cycles/sample), so the same
exponent behaves consistently across grid sizes.  ``P = 0`` is the
all-pass branch (``h == 1`` everywhere, the center included), the identity
every multi-weight bank holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kspace import MultiCoilKSpace


@dataclass(frozen=True)
class WeightFilter:
    """The weighting matrix of exponent ``P`` over an ny x nx grid."""

    P: float
    ny: int
    nx: int

    def __post_init__(self):
        if not self.P >= 0:  # NaN too
            raise ValueError(f"filter exponent must be >= 0, got {self.P}")
        peak = ((self.ny // 2 / self.ny) ** 2 + (self.nx // 2 / self.nx) ** 2) ** self.P  # h at a corner
        if self.P > 0 and not np.float32(peak) >= np.finfo(np.float32).tiny:  # the networks read float32
            raise ValueError(f"filter exponent {self.P} underflows: its largest gain on the {self.ny}x{self.nx} "
                             f"grid, {peak:.3g}, is below float32's normal range")

    @cached_property
    def h(self) -> np.ndarray:
        """Read-only [ny, nx] gain ``(r**2)**P`` about ``(ny//2, nx//2)``: exactly 0
        at the center for any P > 0, and exactly 1 everywhere for P = 0."""
        v = (np.arange(self.ny) - self.ny // 2) / self.ny
        u = (np.arange(self.nx) - self.nx // 2) / self.nx
        h = (v[:, None] ** 2 + u[None, :] ** 2) ** self.P
        h.flags.writeable = False
        return h

    @property
    def is_all_pass(self) -> bool:
        return self.P == 0


def deweight(values: np.ndarray, f: WeightFilter, rows=slice(None), eps: float | None = None):
    """Divide ``values`` [..., rows, nx], weighted on grid ``rows``, by the weighting.

    Only entries with ``h >= eps`` are divided; the rest are zeroed and
    flagged invalid instead of being amplified.  ``eps`` defaults to
    ``1e-6 * h.max()`` over the whole filter, whichever rows are asked for.
    Returns the de-weighted values and a boolean [rows, nx] validity mask;
    the all-pass filter returns ``values`` itself, fully valid.
    """
    if eps is None:
        eps = 1e-6 * float(f.h.max())
    if not 0 < eps < math.inf:  # NaN too
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    h = f.h[rows]
    if f.is_all_pass:
        return values, np.ones(h.shape, dtype=bool)
    valid = h >= eps
    return np.where(valid, values / np.where(valid, h, 1.0), 0.0), valid


def remove_filter(kspace: MultiCoilKSpace, f: WeightFilter, eps: float | None = None):
    """Divide out the weighting where it is safely invertible (see :func:`deweight`).

    Returns the de-weighted k-space and a boolean [ny, nx] validity mask.
    """
    if (kspace.ny, kspace.nx) != (f.ny, f.nx):
        raise ValueError(
            f"grid is {kspace.ny}x{kspace.nx} but filter is {f.ny}x{f.nx}"
        )
    out, valid = deweight(kspace.data, f, eps=eps)
    out.flags.writeable = False
    return MultiCoilKSpace(out), valid
