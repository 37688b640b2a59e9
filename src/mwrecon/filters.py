"""Radial high-pass weighting matrices applied elementwise in k-space.

The gain at a k-space location is ``M * r**(2*P) / D0`` where ``r`` is the
radius from the grid center in normalized frequency units (each axis spans
[-0.5, 0.5) in cycles/sample), so the same parameters behave consistently
across grid sizes.  The all-pass case (``h == 1`` everywhere) is the
identity branch every multi-weight bank must contain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kspace import MultiCoilKSpace


@dataclass(frozen=True)
class FilterParams:
    """Parameters of one weighting matrix: gain M, normalizer D0, exponent P."""

    M: float = 1.0
    D0: float = 1.0
    P: float = 0.5
    all_pass: bool = False

    def __post_init__(self):
        if self.all_pass:
            return
        for name in ("M", "D0", "P"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class WeightFilter:
    """A realized weighting matrix over an ny x nx grid."""

    params: FilterParams
    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=np.float64, copy=True)
        if h.ndim != 2:
            raise ValueError(f"h must be 2-D, got shape {h.shape}")
        if (h < 0).any() or not np.isfinite(h).all():
            raise ValueError("h must be finite and nonnegative")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def ny(self) -> int:
        return self.h.shape[0]

    @property
    def nx(self) -> int:
        return self.h.shape[1]

    @property
    def is_all_pass(self) -> bool:
        return self.params.all_pass


def all_pass_filter(ny: int, nx: int) -> WeightFilter:
    """The identity weighting (h == 1 everywhere)."""
    return WeightFilter(FilterParams(all_pass=True), np.ones((ny, nx)))


def make_filter(params: FilterParams, ny: int, nx: int) -> WeightFilter:
    """Evaluate the radial gain on an ny x nx grid centered at (ny//2, nx//2)."""
    if params.all_pass:
        return WeightFilter(params, np.ones((ny, nx)))
    v = (np.arange(ny) - ny // 2) / ny
    u = (np.arange(nx) - nx // 2) / nx
    r2 = v[:, None] ** 2 + u[None, :] ** 2
    # r**(2P) computed as (r^2)**P: exact 0 at the center for any P > 0.
    h = params.M * r2**params.P / params.D0
    return WeightFilter(params, h)


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
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
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
