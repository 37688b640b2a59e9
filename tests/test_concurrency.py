"""The worker pool of ``mwrecon.kspace._map``: same bits, the caller's thread, the serial fallback.

Each test picks the CPU count by monkeypatching ``kspace._cpus``, so the
pooled path also runs on a one-CPU host, where threads share the CPU.
"""

import concurrent.futures
import functools
import importlib
import inspect
import sys
import threading

import numpy as np
import pytest

from mwrecon import kspace, phantom, pipelines
from mwrecon.grappa import KernelGeometry, calibrate, interpolate
from mwrecon.kspace import apply_pattern, extract_acs, make_uniform_pattern
from mwrecon.phantom import make_coil_maps, shepp_logan, simulate_kspace
from mwrecon.pipelines import ReconConfig, reconstruct_image

# a grid above the size rule: one 192 x 256 coil plane is 768 KiB
NY, NX, COILS = 192, 256, 8
LAYERS = ("pipelines", "network", "filters", "grappa", "kspace", "metrics", "phantom")


@pytest.fixture(scope="module")
def scene():
    image = shepp_logan(NY, NX)
    maps = make_coil_maps(COILS, NY, NX, seed=7)
    return image, maps, simulate_kspace(image, maps, snr_db=30.0, seed=5)


@pytest.fixture
def rounds(monkeypatch):
    """The number of pooled maps run while the test runs."""
    calls = []
    real = kspace._rounds

    def counted(fn, items, workers):
        calls.append(workers)
        return real(fn, items, workers)

    monkeypatch.setattr(kspace, "_rounds", counted)
    return calls


def every_route(image, maps, noisy, R, acs):
    """Synthesis, calibration, fill and image formation; every output array."""
    pattern = make_uniform_pattern(NY, R, acs)
    measured = apply_pattern(noisy, pattern)
    kernel = calibrate(extract_acs(measured, pattern), KernelGeometry(R), ridge=1e-2, row0=pattern.acs_start)
    filled = interpolate(kernel, measured, pattern)
    return [simulate_kspace(image, maps, snr_db=30.0, seed=6).data, kernel.weights, filled.data,
            reconstruct_image(filled)]


@pytest.mark.parametrize("R, acs", [(2, 24), (2, 25), (4, 24), (4, 27)],
                         ids=["R2-on", "R2-off", "R4-on", "R4-off"])
def test_pooled_routes_equal_the_one_worker_path(scene, rounds, monkeypatch, R, acs):
    monkeypatch.setattr(kspace, "_cpus", lambda: 2)
    pooled = every_route(*scene, R, acs)
    assert len(rounds) == 4  # one pooled map per route
    monkeypatch.setattr(kspace, "_cpus", lambda: 1)
    serial = every_route(*scene, R, acs)
    assert len(rounds) == 4
    for got, want in zip(pooled, serial):
        assert np.array_equal(got, want)


def test_public_functions_run_on_the_calling_thread(scene, rounds, monkeypatch):
    # every public layer function wrapped by its origin module, as perfbench's span tracer does
    origins = {f"mwrecon.{name}" for name in LAYERS}
    seen = []

    def recorded(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            seen.append((fn.__qualname__, threading.current_thread()))
            return fn(*args, **kwargs)
        return call

    for name in LAYERS:
        mod = importlib.import_module(f"mwrecon.{name}")
        for attr, fn in list(vars(mod).items()):
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ in origins:
                monkeypatch.setattr(mod, attr, recorded(fn))
    monkeypatch.setattr(kspace, "_cpus", lambda: 2)
    image, maps, noisy = scene
    pattern = make_uniform_pattern(NY, 4, 24)
    # through the module attributes, which the wrappers replaced
    result = pipelines.reconstruct(apply_pattern(noisy, pattern), ReconConfig("grappa", pattern, ridge=1e-2))
    pipelines.reconstruct_image(result.kspace)
    phantom.simulate_kspace(image, maps)
    assert len(rounds) >= 4
    names = {name for name, _ in seen}
    assert {"calibrate", "interpolate", "reconstruct_image", "simulate_kspace"} <= names
    assert all(thread is threading.main_thread() for _, thread in seen)


def test_one_cpu_makes_no_pool_and_runs_the_serial_loops(scene, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made on one CPU")

    monkeypatch.setattr(kspace, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(kspace, "_rounds", no_pool)
    monkeypatch.setattr(kspace.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert kspace._cpus() == 1
    for R, acs in ((2, 24), (4, 27)):
        every_route(*scene, R, acs)
    assert kspace._pool is None


def test_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(kspace.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(kspace.os, "cpu_count", lambda: 3)
    assert kspace._cpus() == 3
    monkeypatch.setattr(kspace.os, "cpu_count", lambda: None)
    assert kspace._cpus() == 1


@pytest.mark.parametrize("task_bytes, workers", [(kspace._MIN_TASK_BYTES - 1, 1), (kspace._MIN_TASK_BYTES, 4)])
def test_small_tasks_stay_serial(monkeypatch, rounds, task_bytes, workers):
    monkeypatch.setattr(kspace, "_cpus", lambda: 64)  # above the worker cap
    assert list(kspace._map(lambda x: 2 * x, range(5), task_bytes)) == [0, 2, 4, 6, 8]
    assert rounds == ([] if workers == 1 else [kspace._MAX_WORKERS])


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool of its own for the test, shut down after it."""
    monkeypatch.setattr(kspace, "_pool", None)
    yield
    if kspace._pool is not None:
        kspace._pool.shutdown(wait=True)


def test_results_come_back_in_order_once_each_under_contention(monkeypatch, fresh_pool):
    # more workers than this host's cores, and thread switches every microsecond
    monkeypatch.setattr(kspace, "_MAX_WORKERS", 8)
    monkeypatch.setattr(kspace, "_cpus", lambda: 8)
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = list(kspace._map(lambda i: ran.append(i) or i * i, range(2001), kspace._MIN_TASK_BYTES))
    finally:
        sys.setswitchinterval(interval)
    assert out == [i * i for i in range(2001)]
    assert sorted(ran) == list(range(2001))


def test_a_task_error_reaches_the_caller_after_its_round(monkeypatch, fresh_pool):
    monkeypatch.setattr(kspace, "_cpus", lambda: 4)
    done = []

    def task(i):
        if i == 5:
            raise ValueError("task 5")
        done.append(i)
        return i

    with pytest.raises(ValueError, match="task 5"):
        list(kspace._map(task, range(12), kspace._MIN_TASK_BYTES))
    assert sorted(done) == [0, 1, 2, 3, 4, 6, 7]  # the rounds [0, 4) and [4, 8) ran out, no later one began
