"""Synthetic multi-coil data: phantom image, smooth coil maps, forward encoding.

Stands in for scanner data at desk scale.  Coil sensitivities are low-order
complex polynomials (smooth by construction); noise is complex white
Gaussian calibrated to a target SNR in dB.

A seed fixes the output bytes: the same grid, coil count, SNR and seeds give
the same maps and k-space on every run (with the same numpy and BLAS
threading).  The noise draws every sample's real part, in C order over
``[coil, ky, kx]``, before any imaginary part, from one
``numpy.random.default_rng(seed)`` stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kspace import MultiCoilKSpace, _fft2c_into, _map, _take_over

# ellipse table: intensity, half-axes a, b, center x0, y0, angle (degrees)
_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)


@dataclass(frozen=True)
class CoilMaps:
    """Complex sensitivity of each coil at each pixel, shape [n_coils, ny, nx]."""

    maps: np.ndarray

    def __post_init__(self):
        arr = _take_over(self.maps)
        if arr.ndim != 3:
            raise ValueError(f"maps must be [coil, y, x], got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "maps", arr)

    @property
    def n_coils(self) -> int:
        return self.maps.shape[0]


def shepp_logan(ny: int, nx: int) -> np.ndarray:
    """Ten-ellipse head phantom rasterized on [-1, 1]^2, values in [0, 1]."""
    if ny < 16 or nx < 16:
        raise ValueError(f"phantom must be at least 16x16, got {ny}x{nx}")
    y = np.linspace(1.0, -1.0, ny)[:, None]
    x = np.linspace(-1.0, 1.0, nx)[None, :]
    img = np.zeros((ny, nx))
    for value, a, b, x0, y0, angle in _ELLIPSES:
        phi = np.deg2rad(angle)
        # the ellipse's bounding box padded by one grid step: outside it the
        # membership test is far above 1, so no rounding lets in a pixel there;
        # inside it each pixel's test is the one the full grid would compute
        rows = _span(y[:, 0], y0, np.hypot(a * np.sin(phi), b * np.cos(phi)) + 2.0 / (ny - 1))
        cols = _span(x[0], x0, np.hypot(a * np.cos(phi), b * np.sin(phi)) + 2.0 / (nx - 1))
        xb, yb = x[:, cols], y[rows]
        xr = (xb - x0) * np.cos(phi) + (yb - y0) * np.sin(phi)
        yr = (yb - y0) * np.cos(phi) - (xb - x0) * np.sin(phi)
        img[rows, cols][(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    # the additive composition leaves -5.6e-17 in the ventricles
    return np.maximum(img, 0.0)


def _span(axis: np.ndarray, center: float, half: float) -> slice:
    """The slice of the monotonic ``axis`` within ``half`` (over one grid step) of ``center``."""
    inside = np.flatnonzero(np.abs(axis - center) <= half)
    return slice(inside[0], inside[-1] + 1)


def make_coil_maps(n_coils: int, ny: int, nx: int, seed: int) -> CoilMaps:
    """Smooth complex sensitivities: per-coil degree-2 polynomials.

    Each coil gets a distinct-phase constant term plus random polynomial
    perturbations of fixed spread.  Maps are rescaled so the mean of their
    root-sum-of-squares is 1.
    """
    if n_coils < 1:
        raise ValueError(f"need at least one coil, got {n_coils}")
    rng = np.random.default_rng(seed)
    y = np.linspace(-1.0, 1.0, ny)[:, None]
    x = np.linspace(-1.0, 1.0, nx)[None, :]
    # the six polynomial planes, complex once; each coil's map is one BLAS
    # product of its coefficient row with them, written in place
    basis = np.empty((6, ny, nx), dtype=np.complex128)
    for plane, term in zip(basis, (1.0, x, y, x * x, x * y, y * y)):
        plane[...] = term
    basis = basis.reshape(6, ny * nx)
    scales = np.array([0.15, 0.2, 0.2, 0.1, 0.1, 0.1])  # spread of each term's coefficient
    maps = np.empty((n_coils, ny, nx), dtype=np.complex128)
    power = np.zeros((ny, nx))  # sum of squares, added in coil order
    for c, coil_map in enumerate(maps):
        coeff = scales * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        coeff[0] += np.exp(2j * np.pi * c / n_coils)
        np.dot(coeff[None, :], basis, out=coil_map.reshape(1, ny * nx))
        power += np.abs(coil_map) ** 2
    maps /= np.sqrt(power).mean()
    maps.flags.writeable = False
    return CoilMaps(maps)


def simulate_kspace(
    image: np.ndarray,
    maps: CoilMaps,
    snr_db: float | None = None,
    seed: int = 0,
) -> MultiCoilKSpace:
    """Forward-encode an image through the coil maps; optionally add noise.

    The noise level is set so the expected ratio
    ``20*log10(||signal|| / ||noise||)`` equals ``snr_db``; ``+inf`` adds
    none, and NaN or ``-inf`` is rejected before any transform.  Each coil is
    encoded into its own slot of the output array, on a worker pool at large
    grids (see :mod:`mwrecon.kspace`), and the noise is added to its real
    parts, then its imaginary parts, through one coil-sized buffer.
    """
    image = np.asarray(image)
    if image.shape != maps.maps.shape[1:]:
        raise ValueError(f"image shape {image.shape} does not match maps {maps.maps.shape[1:]}")
    if snr_db is not None and not snr_db > -math.inf:  # NaN too
        raise ValueError(f"snr_db must be a number of dB or +inf, got {snr_db}")
    data = np.empty(maps.maps.shape, dtype=np.complex128)
    for _ in _map(lambda c: _fft2c_into(image * maps.maps[c], data[c]), range(len(data)), data[0].nbytes):
        pass
    noisy = snr_db is not None and snr_db < math.inf
    signal_norm = np.linalg.norm(data) if noisy else 0.0
    if signal_norm != 0:  # a zero image stays noise-free
        rng = np.random.default_rng(seed)
        sigma = signal_norm * 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0 * data.size)
        draw = np.empty(data.shape[1:])  # drawing in chunks does not change the stream
        for part in (data.real, data.imag):
            for coil in part:
                rng.standard_normal(out=draw)
                draw *= sigma
                coil += draw
    data.flags.writeable = False
    return MultiCoilKSpace(data)
