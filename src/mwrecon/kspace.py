"""Multi-coil k-space data model, centered FFTs, sampling patterns, and file I/O.

Conventions used throughout the package:

* arrays are indexed ``[coil, ky, kx]``; ``ky`` is the phase-encode axis
  (the only undersampled one), ``kx`` is the fully sampled readout axis,
* Fourier transforms are centered (DC at ``(ny // 2, nx // 2)``) and
  orthonormal, so Parseval holds,
* a sampling pattern is three numbers, ``(ny, R, acs_count)``; the ACS
  block's first row and the row mask are derived from them,
* one frozen container, :class:`MultiCoilKSpace`, holds a coil array in
  either domain.  Containers are immutable after construction; every
  operation returns a new object and is safe to call concurrently.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import get_scalar, load_config

MWKS_MAGIC = b"MWKS"
MWKS_VERSION = 1
_HEADER = struct.Struct("<4sIIII")


class KSpaceFormatError(ValueError):
    """Raised for malformed .mwks files (bad magic, truncation, bad dims)."""


@dataclass(frozen=True)
class MultiCoilKSpace:
    """Complex samples for all receive coils, shape [n_coils, ny, nx], in either domain."""

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        # a frozen complex128 array that owns its memory is taken over as is
        # (its maker froze it to hand it over); any other input is copied
        fresh = (
            type(arr) is np.ndarray
            and arr.dtype == np.complex128
            and arr.flags.c_contiguous
            and not arr.flags.writeable
            and arr.base is None
        )
        if not fresh:
            arr = np.array(arr, dtype=np.complex128, copy=True, order="C")
        if arr.ndim != 3:
            raise ValueError(f"coil array must be a [coil, ky, kx] array, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"coil array dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr.view(np.float64)).all():  # re and im as one real array
            raise ValueError("coil array contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n_coils(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @property
    def nx(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class SamplingPattern:
    """Uniform ky undersampling with a centered, fully sampled ACS block.

    A row is acquired when it lies on the stride-``R`` lattice
    (``ky % R == 0``) or inside the ACS block of ``acs_count`` contiguous
    rows starting at ``acs_start = (ny - acs_count) // 2``.
    """

    ny: int
    R: int
    acs_count: int

    def __post_init__(self):
        if self.R < 2:
            raise ValueError(f"acceleration must be >= 2, got R={self.R}")
        if not 1 <= self.acs_count <= self.ny:
            raise ValueError(f"acs_count must be in [1, ny], got {self.acs_count} for ny={self.ny}")

    @property
    def acs_start(self) -> int:
        return (self.ny - self.acs_count) // 2

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only [ny] boolean array, True on acquired rows."""
        ky = np.arange(self.ny)
        mask = (ky % self.R == 0) | ((ky >= self.acs_start) & (ky < self.acs_start + self.acs_count))
        mask.flags.writeable = False
        return mask

    @property
    def missing_rows(self) -> np.ndarray:
        return np.flatnonzero(~self.mask)


def make_uniform_pattern(ny: int, R: int, acs_count: int) -> SamplingPattern:
    """Build the uniform-undersampling pattern for an ``ny``-row grid."""
    return SamplingPattern(ny, R, acs_count)


def fft2c(image: MultiCoilKSpace) -> MultiCoilKSpace:
    """Centered orthonormal 2-D FFT of each coil image."""
    d = np.fft.ifftshift(image.data, axes=(-2, -1))
    d = np.fft.fft2(d, axes=(-2, -1), norm="ortho")
    return MultiCoilKSpace(np.fft.fftshift(d, axes=(-2, -1)))


def apply_pattern(full: MultiCoilKSpace, pattern: SamplingPattern) -> MultiCoilKSpace:
    """Zero every non-acquired ky row; acquired rows are copied bit-exactly."""
    if full.ny != pattern.ny:
        raise ValueError(f"grid has {full.ny} rows but pattern expects {pattern.ny}")
    out = np.zeros_like(full.data)
    out[:, pattern.mask, :] = full.data[:, pattern.mask, :]
    return MultiCoilKSpace(out)


def extract_acs(kspace: MultiCoilKSpace, pattern: SamplingPattern) -> MultiCoilKSpace:
    """Return the contiguous fully sampled ACS block (acs_count x nx rows)."""
    if kspace.ny != pattern.ny:
        raise ValueError(f"grid has {kspace.ny} rows but pattern expects {pattern.ny}")
    block = kspace.data[:, pattern.acs_start : pattern.acs_start + pattern.acs_count, :]
    return MultiCoilKSpace(block)


def save_kspace(path, kspace: MultiCoilKSpace) -> None:
    """Write an .mwks file (header + interleaved float32 re/im pairs)."""
    header = _HEADER.pack(MWKS_MAGIC, MWKS_VERSION, kspace.n_coils, kspace.ny, kspace.nx)
    payload = kspace.data.view(np.float64).astype("<f4")  # re, im, re, im, ...
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_kspace(path) -> MultiCoilKSpace:
    """Read an .mwks file written by :func:`save_kspace`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise KSpaceFormatError(f"{path}: file shorter than header")
    magic, version, n_coils, ny, nx = _HEADER.unpack_from(raw)
    if magic != MWKS_MAGIC:
        raise KSpaceFormatError(f"{path}: bad magic bytes {magic!r}")
    if version != MWKS_VERSION:
        raise KSpaceFormatError(f"{path}: unsupported format version {version}")
    if min(n_coils, ny, nx) == 0 or n_coils * ny * nx > 2**40:
        raise KSpaceFormatError(f"{path}: bad dimensions {n_coils}x{ny}x{nx}")
    expected = n_coils * ny * nx * 8
    got = len(raw) - _HEADER.size
    if got != expected:
        raise KSpaceFormatError(f"{path}: payload has {got} bytes, header implies {expected}")
    data = np.empty((n_coils, ny, nx), dtype=np.complex128)
    data.view(np.float64).reshape(-1)[:] = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    data.flags.writeable = False
    return MultiCoilKSpace(data)


def save_pattern(path, pattern: SamplingPattern) -> None:
    """Write a sampling pattern as `key = value` text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ny = {pattern.ny}\n")
        fh.write(f"R = {pattern.R}\n")
        fh.write(f"acs_count = {pattern.acs_count}\n")


def load_pattern(path) -> SamplingPattern:
    """Read a sampling pattern written by :func:`save_pattern`."""
    keys = ("ny", "R", "acs_count")
    entries = load_config(path, keys)
    missing = set(keys) - entries.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    return make_uniform_pattern(*(get_scalar(entries, key, int, source=str(path)) for key in keys))
