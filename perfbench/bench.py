"""Workloads, scans, output checks and metrics of the ``mwrecon`` benchmark.

Load model: one client in one process drives a closed loop.  A *scan* (one
operation) starts when the previous one has ended and its outputs have been
checked.  The workload seed draws each scan's noise seed and reconstruction
seed; the library receives only the generated arrays and files.

Every workload images ``shepp_logan`` through ``make_coil_maps(seed=7)`` at
40 dB SNR.  Quality is measured against the noise-free reference image.

Timings are host-speed normalised.  A shared virtual host lends its cores
in phases: on a 2-vCPU VM, for tens of seconds to minutes, a vCPU lost up
to half its wall time to steal or ran 40% slower, and a run's wall times
moved with the phase.  So right before and right after each scan and each
set-up the benchmark times a fixed numpy kernel (:func:`reference`), and
every timing metric uses ``wall_s * REF_S / reference_s`` with the faster
of the two kernel times (an interruption only ever adds time): seconds on
a host that runs the kernel in ``REF_S``.  The kernel never calls
``mwrecon``, so a change to the library moves the figures through
``wall_s`` alone.  Raw wall times go to the notes.

A traced run alternates untraced and traced scans; a traced scan runs with
every layer function wrapped (see ``spans``).  The per-layer numbers are
per-scan means over the traced scans, in raw wall seconds, and the ratio of
the two sets' ``scans_per_s`` is the trace overhead.  Interleaving the two
sets keeps a slow or fast stretch of the host from landing on one of them
only.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mwrecon import filters, grappa, kspace, metrics, network, phantom, pipelines

import spans

SNR_DB = 40.0
COIL_MAP_SEED = 7
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # scan_s.tail: the highest percentile with this many samples above it
MAX_LOGGED_FAILURES = 3
MEASURED_FILE = "measured.mwks"
RESULT_FILE = "result.mwks"
F32_REL = 2.0**-24  # relative rounding error of a float32 store (round to nearest)
REF_S = 0.025  # the reference kernel's wall time on a quiet 2-vCPU host with OpenBLAS


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # the grid is n x n
    coils: int
    acs: int
    Rs: tuple[int, ...]  # scan i uses Rs[i % len(Rs)]
    methods: tuple[str, ...]  # run in this order within one scan
    iters: int = 0  # training iterations per network; 0 means no network
    file_io: bool = False  # the scan reads its input from and writes its result to .mwks


# Iteration counts are sized so that one 36 s run holds enough scans for a
# median and a tail; BENCHMARK.json repeats them in each workload's "why".
WORKLOADS = {
    w.name: w
    for w in (
        Workload("raki128", 128, 8, 32, (4,), ("raki", "rraki"), iters=20),
        Workload("mw128", 128, 8, 32, (4,), ("mw_raki", "mw_rraki"), iters=5),
        Workload("grappa256_io", 256, 16, 48, (2, 4), ("grappa",), file_io=True),
    )
}
METHODS = tuple(dict.fromkeys(m for w in WORKLOADS.values() for m in w.methods))

END_TO_END = {
    "setup_s": "s",
    "scans_per_s": "1/s",
    "scan_s.p50": "s",
    "scan_s.tail": "s",
    "psnr_db": "dB",
    "ssim": "1",
    "rmse_pct": "%",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}
PER_LAYER = {
    "network.busy_s": "s",
    "network.train_s": "s",
    "network.forward_s": "s",
    "network.train_iters": "count",
    "network.step_ms": "ms",
    "network.train_gflop": "GFLOP",
    "network.train_gflop_per_s": "GFLOP/s",
    "network.loss_final": "1",
    "pipelines.reconstruct_s": "s",
    "pipelines.self_s": "s",
    "pipelines.build_training_pairs_s": "s",
    **{f"pipelines.psnr_db.{m}": "dB" for m in METHODS},
    "filters.busy_s": "s",
    "filters.valid_frac": "1",
    "grappa.busy_s": "s",
    "grappa.calibrate_s": "s",
    "grappa.interpolate_s": "s",
    "grappa.calib_rows": "count",
    "grappa.unknowns": "count",
    "kspace.busy_s": "s",
    "kspace.ifft2c_s": "s",
    "kspace.load_s": "s",
    "kspace.save_s": "s",
    "kspace.bytes_read": "B",
    "kspace.bytes_written": "B",
    "metrics.evaluate_s": "s",
    "phantom.busy_s": "s",
    "trace.overhead_frac": "1",
}


class OutputError(Exception):
    """A reconstruction returned, but its output is wrong."""


@dataclass(frozen=True)
class Scene:
    image: np.ndarray
    maps: phantom.CoilMaps
    clean: kspace.MultiCoilKSpace
    reference: np.ndarray  # SOS image of the noise-free k-space
    patterns: dict  # R -> SamplingPattern


@dataclass(frozen=True)
class ScanInput:
    pattern: kspace.SamplingPattern  # what the library is told
    mask: np.ndarray  # rows that were really acquired
    measured: kspace.MultiCoilKSpace | None  # None when the scan reads MEASURED_FILE
    seed: int


@dataclass
class ScanRecord:
    seconds: float  # wall time
    ref_s: float  # the faster reference kernel time of the runs just before and after the scan
    traced: bool = False
    error: str | None = None
    quality: tuple = ()  # (method, psnr_db, ssim, rmse_pct) per reconstruction
    loss_final: tuple = ()  # mean last loss over coils, per network reconstruction
    train_iters: int = 0  # coil-iterations actually run
    bytes_read: int = 0
    bytes_written: int = 0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> {"value", "unit"}
    notes: dict
    spans: list


@functools.cache
def _reference_inputs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    b = rng.standard_normal((128, 512))
    k = rng.standard_normal((8, 128, 128)) + 1j * rng.standard_normal((8, 128, 128))
    return a, b, k


def reference() -> float:
    """Wall seconds of a fixed kernel that mixes the library's kinds of work.

    A GEMM (network training), a batched inverse FFT (k-space, GRAPPA),
    elementwise array work (metrics, filters) and an interpreter loop
    (per-call overhead), four times over.
    """
    a, b, k = _reference_inputs()
    t0 = time.perf_counter()
    for _ in range(4):
        a @ b
        np.abs(np.fft.ifft2(k)) ** 2
        total = 0
        for j in range(3000):
            total += j * j
    return time.perf_counter() - t0


def normalised(seconds: float, ref_s: float) -> float:
    """``seconds`` on a host that runs :func:`reference` in ``REF_S``."""
    return seconds * REF_S / ref_s


def setup(w: Workload) -> Scene:
    """Build the scene: phantom, coil maps, clean k-space, reference, patterns."""
    image = phantom.shepp_logan(w.n, w.n)
    maps = phantom.make_coil_maps(w.coils, w.n, w.n, seed=COIL_MAP_SEED)
    clean = phantom.simulate_kspace(image, maps)
    reference = pipelines.reconstruct_image(clean)
    patterns = {R: kspace.make_uniform_pattern(w.n, R, w.acs) for R in w.Rs}
    return Scene(image, maps, clean, reference, patterns)


def prepare(w: Workload, scene: Scene, rng, index: int, workdir: Path) -> ScanInput:
    """Draw scan ``index``'s noise and seed, and undersample (not timed)."""
    R = w.Rs[index % len(w.Rs)]
    noise_seed, recon_seed = (int(s) for s in rng.integers(2**31, size=2))
    noisy = phantom.simulate_kspace(scene.image, scene.maps, snr_db=SNR_DB, seed=noise_seed)
    pattern = scene.patterns[R]
    measured = kspace.apply_pattern(noisy, pattern)
    if w.file_io:
        kspace.save_kspace(workdir / MEASURED_FILE, measured)
        measured = None
    return ScanInput(pattern, pattern.mask, measured, recon_seed)


def run_scan(w: Workload, scene: Scene, inp: ScanInput, workdir: Path):
    """One scan, the timed unit: (load,) reconstruct, (save,) evaluate per method."""
    measured = inp.measured if inp.measured is not None else kspace.load_kspace(workdir / MEASURED_FILE)
    outputs = []
    for method in w.methods:
        cfg = pipelines.ReconConfig(method=method, pattern=inp.pattern, seed=inp.seed)
        if w.iters:
            cfg = dataclasses.replace(cfg, optimizer=network.OptimizerConfig(iters=w.iters))
        result = pipelines.reconstruct(measured, cfg)
        if w.file_io:
            kspace.save_kspace(workdir / RESULT_FILE, result.kspace)
        outputs.append((method, result, metrics.evaluate(result.sos, scene.reference)))
    return measured, outputs


def check(w: Workload, inp: ScanInput, measured, outputs, workdir: Path) -> None:
    """Raise :class:`OutputError` unless every output of the scan is right."""
    for method, result, _ in outputs:
        got = result.kspace.data
        if got.shape != measured.data.shape:
            raise OutputError(f"{method}: k-space shape {got.shape}, input {measured.data.shape}")
        if not np.isfinite(got).all():
            raise OutputError(f"{method}: non-finite k-space")
        if not np.array_equal(got[:, inp.mask], measured.data[:, inp.mask]):
            raise OutputError(f"{method}: acquired rows differ from the measured rows")
        if w.file_io:
            saved = kspace.load_kspace(workdir / RESULT_FILE).data
            for part in (np.real, np.imag):
                if not np.all(np.abs(part(saved) - part(got)) <= F32_REL * np.abs(part(got))):
                    raise OutputError(f"{method}: saved .mwks does not reload within float32 rounding")


def measure(w, scene, rng, seconds, workdir, tracer, trace=False):
    """Closed loop: run scans until ``seconds`` have passed; one record per scan.

    With ``trace``, every second scan runs with the layer wrappers installed,
    and the loop runs at least one scan of each kind.  A scan that raises, or
    whose outputs fail :func:`check`, is recorded as failed and the loop goes
    on.
    """
    records = []
    least = 2 if trace else 1
    start = time.perf_counter()
    while len(records) < least or time.perf_counter() - start < seconds:
        index = len(records)
        traced = trace and index % 2 == 1
        inp = prepare(w, scene, rng, index, workdir)
        before = reference()
        layers = spans.installed(tracer) if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            try:
                with layers, tracer.span("scan"):
                    measured, outputs = run_scan(w, scene, inp, workdir)
            finally:
                elapsed = time.perf_counter() - t0
                ref_s = min(before, reference())
            check(w, inp, measured, outputs, workdir)
        except Exception as exc:  # the scan boundary: record the failure, keep running
            if sum(r.error is not None for r in records) < MAX_LOGGED_FAILURES:
                traceback.print_exc(file=sys.stderr)
            records.append(ScanRecord(elapsed, ref_s, traced, error=f"{type(exc).__name__}: {exc}"))
            continue
        histories = [r.loss_histories for _, r, _ in outputs]
        records.append(
            ScanRecord(
                seconds=elapsed,
                ref_s=ref_s,
                traced=traced,
                quality=tuple((m, rep.psnr_db, rep.ssim, rep.rmse_pct) for m, _, rep in outputs),
                loss_final=tuple(float(np.mean([losses[-1] for losses in h])) for h in histories if h),
                train_iters=sum(len(losses) for h in histories for losses in h),
                bytes_read=os.path.getsize(workdir / MEASURED_FILE) if w.file_io else 0,
                bytes_written=os.path.getsize(workdir / RESULT_FILE) if w.file_io else 0,
            )
        )
    return records


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# computed work counts (exact; the same on every run of a workload)

def _train_flops(arch: network.NetworkArch, shape) -> int:
    """Math FLOPs of one full-batch training iteration's dense convolutions.

    Forward and weight gradient for every conv; input gradient for every
    conv after the first (the input itself needs none); the skip path adds
    a forward and a weight gradient.
    """
    b, c, h, w = shape
    macs = 0
    for i, spec in enumerate(arch.layers):
        h, w = h - (spec.ky_taps - 1) * arch.dilation, w - (spec.kx_width - 1)
        macs += (3 if i else 2) * b * h * w * spec.out_channels * c * spec.ky_taps * spec.kx_width
        c = spec.out_channels
    if arch.skip is not None:
        s = arch.skip
        sh, sw = shape[2] - (s.ky_taps - 1) * arch.dilation, shape[3] - (s.kx_width - 1)
        macs += 2 * b * sh * sw * s.out_channels * shape[1] * s.ky_taps * s.kx_width
    return 2 * macs


def _valid_frac(n: int) -> float:
    """Share of de-weighted samples the default bank keeps, over its branches.

    The validity mask of ``filters.remove_filter`` depends only on the
    filter and its ``eps``, so zero k-space gives the same mask as a scan.
    """
    mw = pipelines.make_multiweight_config(n, n)
    zero = kspace.MultiCoilKSpace(np.zeros((1, n, n), dtype=complex))
    return _mean(filters.remove_filter(zero, f, mw.eps)[1].mean() for f in mw.filters)


def work_counts(w: Workload, scene: Scene) -> dict:
    """Per-scan work derived from shapes, not timed: means over the R cycle."""
    gflop, calib_rows, unknowns = [], [], []
    for R in w.Rs:
        pattern = scene.patterns[R]
        flops = 0
        for method in w.methods:
            if method == "grappa":
                geom = grappa.KernelGeometry(R=R)
                anchors = grappa._window_anchor_rows(w.acs, geom, pattern.acs_start)
                calib_rows.append(anchors.size * (w.n - 2 * geom.bx_half))
                unknowns.append(geom.n_sources(w.coils))
                continue
            arch = pipelines.default_arch(method, w.coils, R)
            acs = kspace.extract_acs(scene.clean, pattern)
            ts = pipelines.build_training_pairs(acs, R, arch, 0, acs_row0=pattern.acs_start)
            branches = len(pipelines.make_multiweight_config(w.n, w.n).filters) if method.startswith("mw_") else 1
            flops += w.coils * w.iters * _train_flops(arch, (branches,) + ts.sources.shape[1:])
        gflop.append(flops / 1e9)
    mw = any(m.startswith("mw_") for m in w.methods)
    return {
        "network.train_gflop": _mean(gflop),
        "filters.valid_frac": _valid_frac(w.n) if mw else 0.0,
        "grappa.calib_rows": _mean(calib_rows),
        "grappa.unknowns": _mean(unknowns),
    }


# ---------------------------------------------------------------------------
# metrics

def _tail(times):
    """Value, percentile and samples beyond it of the sorted ``times``' tail.

    The tail is the highest nearest-rank percentile with TAIL_BEYOND samples
    above it, or the maximum when there are too few samples for that.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        return (times[-1] if times else 0.0), 100.0, 0
    k = n - TAIL_BEYOND
    return times[k - 1], 100.0 * k / n, TAIL_BEYOND


def _scans_per_s(records) -> float:
    busy = sum(normalised(r.seconds, r.ref_s) for r in records)
    return sum(r.error is None for r in records) / busy if busy else 0.0


def end_to_end(setups, records):
    """End-to-end metrics; ``setups`` holds (wall_s, reference_s) per set-up."""
    ok = [r for r in records if r.error is None]
    times = sorted(normalised(r.seconds, r.ref_s) for r in ok)
    tail, pct, beyond = _tail(times)
    quality = [q for r in ok for q in r.quality]
    values = {
        "setup_s": statistics.median(normalised(*s) for s in setups),
        "scans_per_s": _scans_per_s(records),
        "scan_s.p50": statistics.median(times) if times else 0.0,
        "scan_s.tail": tail,
        "psnr_db": _mean(q[1] for q in quality),
        "ssim": _mean(q[2] for q in quality),
        "rmse_pct": _mean(q[3] for q in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / len(records),
    }
    wall = sorted(r.seconds for r in ok)
    notes = {
        "scan_s.tail": {"percentile": pct, "samples": len(times), "beyond": beyond},
        "wall": {
            "setup_s": statistics.median(s[0] for s in setups),
            "scan_s.p50": statistics.median(wall) if wall else 0.0,
            "scan_s.tail": _tail(wall)[0],
            "reference_s.p50": statistics.median(r.ref_s for r in records),
        },
    }
    return values, notes


def per_layer(tracer, counts, records):
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    summary = spans.summarize(tracer.spans)
    scan, setups = summary.get("scan", {}), summary.get("setup", {})
    n = max(len(traced), 1)

    def total(name):
        return scan.get(name, {}).get("total_s", 0.0) / n

    def prefixed(prefix, key="total_s", tree=scan):
        return sum(e[key] for name, e in tree.items() if name.startswith(prefix))

    def busy(layer):
        return prefixed(layer + ".", "self_s") / n

    ok = [r for r in records if r.error is None]
    train_s = prefixed("network.train") / n
    train_iters = _mean(r.train_iters for r in traced if r.error is None)
    traced_sps, untraced_sps = _scans_per_s(traced), _scans_per_s(untraced)
    values = {
        "network.busy_s": busy("network"),
        "network.train_s": train_s,
        "network.forward_s": prefixed("network.forward") / n,
        "network.train_iters": train_iters,
        "network.step_ms": 1e3 * train_s / train_iters if train_iters else 0.0,
        "network.train_gflop": counts["network.train_gflop"],
        "network.train_gflop_per_s": counts["network.train_gflop"] / train_s if train_s else 0.0,
        "network.loss_final": _mean(x for r in ok for x in r.loss_final),
        "pipelines.reconstruct_s": total("pipelines.reconstruct"),
        "pipelines.self_s": busy("pipelines"),
        "pipelines.build_training_pairs_s": total("pipelines.build_training_pairs"),
        **{
            f"pipelines.psnr_db.{m}": _mean(q[1] for r in ok for q in r.quality if q[0] == m)
            for m in METHODS
        },
        "filters.busy_s": busy("filters"),
        "filters.valid_frac": counts["filters.valid_frac"],
        "grappa.busy_s": busy("grappa"),
        "grappa.calibrate_s": total("grappa.calibrate"),
        "grappa.interpolate_s": total("grappa.interpolate"),
        "grappa.calib_rows": counts["grappa.calib_rows"],
        "grappa.unknowns": counts["grappa.unknowns"],
        "kspace.busy_s": busy("kspace"),
        "kspace.ifft2c_s": total("kspace.ifft2c"),
        "kspace.load_s": total("kspace.load_kspace"),
        "kspace.save_s": total("kspace.save_kspace"),
        "kspace.bytes_read": _mean(r.bytes_read for r in ok),
        "kspace.bytes_written": _mean(r.bytes_written for r in ok),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "phantom.busy_s": prefixed("phantom.", "self_s", setups) / SETUP_REPEATS,
        "trace.overhead_frac": 1.0 - traced_sps / untraced_sps if untraced_sps else 0.0,
    }
    scan_s = _mean(r.seconds for r in traced)
    shares = {layer: busy(layer) / scan_s for layer in spans.LAYERS} if scan_s else {}
    return values, {"traced_scan_s": scan_s, "busy_share": shares, "layers": summary}


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    """Set up, measure and check one workload; ``trace`` selects the metric set."""
    tracer = spans.Tracer()
    rng = np.random.default_rng(seed)
    setups = []
    with spans.installed(tracer) if trace else nullcontext():
        for _ in range(SETUP_REPEATS):
            before = reference()
            t0 = time.perf_counter()
            with tracer.span("setup"):
                scene = setup(w)
            elapsed = time.perf_counter() - t0
            setups.append((elapsed, min(before, reference())))
    counts = work_counts(w, scene)
    records = measure(w, scene, rng, seconds, workdir, tracer, trace)
    values, notes = end_to_end(setups, records)
    if trace:
        values, layer_notes = per_layer(tracer, counts, records)
        notes.update(layer_notes)
        units = PER_LAYER
    else:
        units = END_TO_END
    failed = sum(r.error is not None for r in records)
    notes["errors"] = sorted({r.error for r in records if r.error})
    return Result(
        correct=failed == 0,
        attempted=len(records),
        failed=failed,
        metrics={k: {"value": float(values[k]), "unit": units[k]} for k in units},
        notes=notes,
        spans=tracer.spans,
    )
