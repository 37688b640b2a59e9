"""Multi-coil k-space data model, centered FFTs, sampling patterns, and file I/O.

Conventions used throughout the package:

* arrays are indexed ``[coil, ky, kx]``; ``ky`` is the phase-encode axis
  (the only undersampled one), ``kx`` is the fully sampled readout axis,
* Fourier transforms are centered (DC at ``(ny // 2, nx // 2)``) and
  orthonormal, so Parseval holds,
* a sampling pattern is three numbers, ``(ny, R, acs_count)``; the ACS
  block's first row and the row mask are derived from them,
* GRAPPA's footprints and the networks' training windows anchor by one
  rule (:func:`_lattice_anchors`): a window's top tap sits on an ACS row on
  the grid's stride-``R`` lattice, with the ``span`` rows below it (its
  taps and the R-1 target rows) inside the block,
* one frozen container, :class:`MultiCoilKSpace`, holds a coil array in
  either domain.  Containers are immutable after construction; every
  operation returns a new object and is safe to call concurrently.
  A producer that builds a fresh array freezes it and hands it over, so the
  container takes it without a copy: :func:`apply_pattern` and
  :func:`load_kspace` here, and ``phantom.simulate_kspace``, which
  transforms one coil at a time with :func:`_fft2c_into` (its ``CoilMaps``
  takes over ``make_coil_maps``'s array by the same rule),
* a 2-D transform is ``fft2``'s kx pass, a transposing copy, and its ky
  pass on rows, not strided columns (:func:`_fft2_rows`): same bits.

Concurrency: :func:`_map` runs independent tasks on a thread pool, the
calling thread taking a share.  Four loops go through it, all numpy FFT or
BLAS calls that release the GIL: ``grappa.interpolate``'s blocks of
governing lines, ``grappa.calibrate``'s two products ``Ar @ Ar.T`` and
``Ar @ Br.T``, and the per-coil transforms of
``pipelines.reconstruct_image`` and ``phantom.simulate_kspace``.

* Size rule: a map whose tasks each read fewer than ``_MIN_TASK_BYTES``
  (384 KiB, one 157 x 157 coil plane) runs as the plain serial loop, as
  does every map when :func:`_workers` gives one.  A coil plane
  of the input's grid is the operand of a per-coil transform; a fill
  block's patch matrix (at most 2 MiB) and the patches ``Ar`` are
  GRAPPA's.  One 128 x 128 plane's inverse transform takes 0.15 ms
  against a 0.03 ms hand-off.  On 2 CPUs (medians of 40 alternating calls,
  8 coils, serial against pooled) image formation took 2.26 against
  2.33 ms at 128 x 128 (256 KiB planes), 6.10 against 4.08 ms at
  160 x 160 (400 KiB) and 10.5 against 6.5 ms at 192 x 256; synthesis
  took 3.49 against 3.88 ms at 128 x 128.
* Workers, one budget for this pool and ``network``'s coil shares
  (:func:`_workers`): one per CPU that BLAS leaves free, the CPUs the
  process may run on (``os.sched_getaffinity``, else ``os.cpu_count()``)
  over the BLAS threads per process, at least 1 and at most
  ``_MAX_WORKERS`` = 4, the caller included.  BLAS threads are counted as
  numpy's OpenBLAS counts them: the first of ``OPENBLAS_NUM_THREADS``,
  ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` that is an integer >= 1,
  else one per CPU.  ``MKL_NUM_THREADS`` is not read, so an MKL build
  pinned by it alone runs one worker.  BLAS left unpinned takes every CPU,
  so the maps run serially.  On 2 CPUs, GRAPPA's ``reconstruct`` at
  256 x 256 (16 coils, ACS 48; medians of 30 alternating calls, pooled
  against serial) took 50.9 against 45.0 ms at R=2 and 38.9 against
  39.9 ms at R=4 with BLAS unpinned, and 41.5 against 56.5 ms and 37.2
  against 51.6 ms with ``OPENBLAS_NUM_THREADS=1``.  The per-coil
  transforms call no BLAS, and unpinned they gave up a gain: the same
  scan's ``reconstruct_image`` took 14.4 against 20.6 ms.
  A task holds up to about 4 MiB (a 2 MiB fill block with its filled rows,
  or a 256 x 256 plane's transform with its transposed copy), so four hold
  at most 16 MiB beside the scan, a tenth of a 256 x 256, 16-coil scan's
  peak.  The pool's threads are made on first use and live with the
  process.
* Same bits: a task runs the serial loop's operations on the same operands.
  A fill block writes rows, and a coil's forward transform its coil's slot,
  that no other task writes; the per-coil power maps and the two products
  come back in order, and the caller adds the power maps in coil order.
* Only private functions and numpy run on a worker; every public
  ``mwrecon`` function runs on the caller's thread, so a tracer that wraps
  them sees one call stack.

Network training holds the GIL between its many small numpy calls, so it
shares its coils over processes, not threads (see :mod:`mwrecon.network`),
as many as :func:`_workers` gives.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import at_least, get_scalar, load_config

MWKS_MAGIC = b"MWKS"
MWKS_VERSION = 1
_HEADER = struct.Struct("<4sIIII")


class KSpaceFormatError(ValueError):
    """Raised for malformed .mwks files (bad magic, truncation, bad dims)."""


def _take_over(arr) -> np.ndarray:
    """``arr`` itself if it is a frozen complex128 array that owns its memory
    (its maker froze it to hand it over), else a C-ordered complex128 copy."""
    fresh = (
        type(arr) is np.ndarray
        and arr.dtype == np.complex128
        and arr.flags.c_contiguous
        and not arr.flags.writeable
        and arr.base is None
    )
    return arr if fresh else np.array(arr, dtype=np.complex128, copy=True, order="C")


@dataclass(frozen=True)
class MultiCoilKSpace:
    """Complex samples for all receive coils, shape [n_coils, ny, nx], in either domain."""

    data: np.ndarray

    def __post_init__(self):
        arr = _take_over(self.data)
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


def _lattice_anchors(acs_rows: int, R: int, row0: int, span: int) -> np.ndarray:
    """ACS-internal rows ``a < acs_rows - span`` on the stride-``R`` lattice of a grid whose
    row ``row0`` is the block's first: where a window reaching ``span`` rows below its top can
    anchor (see the conventions above)."""
    return np.arange(-row0 % R, acs_rows - span, R)


_MIN_TASK_BYTES = 384 << 10
_MAX_WORKERS = 4
_pool = None  # a concurrent.futures.ThreadPoolExecutor, made by the first pooled map
_pool_lock = threading.Lock()


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _workers() -> int:
    """Workers one process runs at once: :func:`_cpus` over OpenBLAS's threads, 1 to ``_MAX_WORKERS``."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):  # OpenBLAS's order
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) >= 1:
            return max(1, min(_cpus() // int(value), _MAX_WORKERS))
    return 1  # unpinned, OpenBLAS runs a thread per CPU


def _map(fn, items, task_bytes: int):
    """``map(fn, items)``, on the pool when each task's ``task_bytes`` operand pays for the hand-off.

    Results come back in ``items``' order (see the concurrency rule above).
    Pooled, the items run in rounds of one per worker: the caller runs the
    first and yields it, then yields the pool's in order, so at most one
    round's results are held.  A task must not call ``_map``: its round
    would wait on the pool that runs it.
    """
    workers = _workers() if task_bytes >= _MIN_TASK_BYTES else 1
    items = list(items)
    return map(fn, items) if workers < 2 or len(items) < 2 else _rounds(fn, items, workers)


def _rounds(fn, items, workers):
    # imported here: the module costs a process that never pools 0.6 MB of RSS
    from concurrent import futures

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(workers - 1, thread_name_prefix="mwrecon")
    for lo in range(0, len(items), workers):
        theirs = [_pool.submit(fn, item) for item in items[lo + 1 : lo + workers]]
        try:
            yield fn(items[lo])
            for task in theirs:
                yield task.result()
        finally:  # no task outlives the round, even when one raised
            futures.wait(theirs)


def _fft2_rows(x: np.ndarray, fft=np.fft.fft) -> np.ndarray:
    """Orthonormal 2-D ``fft`` (or ``ifft``) of one coil [ny, nx], transposed to [nx, ny]."""
    return fft(fft(x, norm="ortho").T.copy(), norm="ortho")


def _fft2c_into(image: np.ndarray, out: np.ndarray) -> None:
    """Write one coil's centered FFT into ``out`` by :func:`_fft2_rows`: bit for bit ``fft2``."""
    out[...] = np.fft.fftshift(_fft2_rows(np.fft.ifftshift(image))).T


def apply_pattern(full: MultiCoilKSpace, pattern: SamplingPattern) -> MultiCoilKSpace:
    """Zero every non-acquired ky row; acquired rows are copied bit-exactly."""
    if full.ny != pattern.ny:
        raise ValueError(f"grid has {full.ny} rows but pattern expects {pattern.ny}")
    out = np.zeros_like(full.data)
    np.copyto(out, full.data, where=pattern.mask[:, None])
    out.flags.writeable = False
    return MultiCoilKSpace(out)


def extract_acs(kspace: MultiCoilKSpace, pattern: SamplingPattern) -> MultiCoilKSpace:
    """Return the contiguous fully sampled ACS block (acs_count x nx rows)."""
    if kspace.ny != pattern.ny:
        raise ValueError(f"grid has {kspace.ny} rows but pattern expects {pattern.ny}")
    block = kspace.data[:, pattern.acs_start : pattern.acs_start + pattern.acs_count, :]
    return MultiCoilKSpace(block)


def save_kspace(path, kspace: MultiCoilKSpace) -> None:
    """Write an .mwks file (header + interleaved float32 re/im pairs).

    Each coil is narrowed into one reused float32 buffer and written from
    it, so a write holds one coil's payload beside the array, never a
    float32 copy of the whole array; the bytes are ``astype("<f4")``'s.
    """
    header = _HEADER.pack(MWKS_MAGIC, MWKS_VERSION, kspace.n_coils, kspace.ny, kspace.nx)
    coils = kspace.data.view(np.float64).reshape(kspace.n_coils, -1)  # re, im, re, im, ...
    payload = np.empty(coils.shape[1], dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        for coil in coils:
            payload[:] = coil
            fh.write(payload)


def load_kspace(path) -> MultiCoilKSpace:
    """Read an .mwks file written by :func:`save_kspace`.

    The header is checked against the file size before the coil array is
    allocated; the payload is then read one coil at a time into a reused
    float32 buffer and widened into that coil's slot, so a read holds the
    array plus one coil's payload, never a copy of the whole file.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise KSpaceFormatError(f"{path}: file shorter than header")
        magic, version, n_coils, ny, nx = _HEADER.unpack(header)
        if magic != MWKS_MAGIC:
            raise KSpaceFormatError(f"{path}: bad magic bytes {magic!r}")
        if version != MWKS_VERSION:
            raise KSpaceFormatError(f"{path}: unsupported format version {version}")
        if min(n_coils, ny, nx) == 0 or n_coils * ny * nx > 2**40:
            raise KSpaceFormatError(f"{path}: bad dimensions {n_coils}x{ny}x{nx}")
        expected = n_coils * ny * nx * 8
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got != expected:
            raise KSpaceFormatError(f"{path}: payload has {got} bytes, header implies {expected}")
        data = np.empty((n_coils, ny, nx), dtype=np.complex128)
        payload = np.empty(2 * ny * nx, dtype="<f4")  # one coil: re, im, re, im, ...
        for coil in data.view(np.float64).reshape(n_coils, -1):
            if fh.readinto(payload) != payload.nbytes:
                raise KSpaceFormatError(f"{path}: payload ended early, header implies {expected} bytes")
            coil[:] = payload
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
    ny = get_scalar(entries, "ny", at_least(int, 1))
    R = get_scalar(entries, "R", at_least(int, 2))
    return make_uniform_pattern(ny, R, get_scalar(entries, "acs_count", at_least(int, 1, ny)))
