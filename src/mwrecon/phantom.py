"""Synthetic multi-coil data: phantom image, smooth coil maps, forward encoding.

Stands in for scanner data at desk scale.  Coil sensitivities are low-order
complex polynomials (smooth by construction); noise is complex white
Gaussian calibrated to a target SNR in dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kspace import MultiCoilKSpace, fft2c

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
        arr = np.array(self.maps, dtype=np.complex128, copy=True)
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
        xr = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
        yr = (y - y0) * np.cos(phi) - (x - x0) * np.sin(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    # the additive composition leaves -5.6e-17 in the ventricles
    return np.maximum(img, 0.0)


def make_coil_maps(n_coils: int, ny: int, nx: int, seed: int, variation: float = 0.5) -> CoilMaps:
    """Smooth complex sensitivities: per-coil degree-2 polynomials.

    Each coil gets a distinct-phase constant term plus random polynomial
    perturbations scaled by ``variation`` (0 gives constant unit-magnitude
    maps).  Maps are rescaled so the mean of their root-sum-of-squares is 1.
    """
    if n_coils < 1:
        raise ValueError(f"need at least one coil, got {n_coils}")
    rng = np.random.default_rng(seed)
    y = np.linspace(-1.0, 1.0, ny)[:, None]
    x = np.linspace(-1.0, 1.0, nx)[None, :]
    basis = np.stack(
        [np.broadcast_to(t, (ny, nx)) for t in (np.ones((ny, nx)), x, y, x * x, x * y, y * y)]
    )
    scales = variation * np.array([0.3, 0.4, 0.4, 0.2, 0.2, 0.2])
    maps = np.empty((n_coils, ny, nx), dtype=np.complex128)
    for c in range(n_coils):
        coeff = scales * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        coeff[0] += np.exp(2j * np.pi * c / n_coils)
        maps[c] = np.tensordot(coeff, basis, axes=(0, 0))
    sos = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return CoilMaps(maps / sos.mean())


def simulate_kspace(
    image: np.ndarray,
    maps: CoilMaps,
    snr_db: float | None = None,
    seed: int = 0,
) -> MultiCoilKSpace:
    """Forward-encode an image through the coil maps; optionally add noise.

    The noise level is set so the expected ratio
    ``20*log10(||signal|| / ||noise||)`` equals ``snr_db``.
    """
    image = np.asarray(image)
    if image.shape != maps.maps.shape[1:]:
        raise ValueError(f"image shape {image.shape} does not match maps {maps.maps.shape[1:]}")
    clean = fft2c(MultiCoilKSpace(image[None, :, :] * maps.maps))
    if snr_db is None:
        return clean
    signal_norm = np.linalg.norm(clean.data)
    if signal_norm == 0:
        return clean
    rng = np.random.default_rng(seed)
    n = clean.data.size
    sigma = signal_norm * 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0 * n)
    noise = sigma * (rng.standard_normal(clean.data.shape) + 1j * rng.standard_normal(clean.data.shape))
    return MultiCoilKSpace(clean.data + noise)
