"""The worker pool of ``mwrecon.kspace._map`` and the coil shares of ``mwrecon.network.train``:
same results, the caller's thread, the one-process fallback.

Each test picks the CPU count by monkeypatching ``kspace._cpus``, so the
pooled path and the helper processes also run on a one-CPU host, where
they share the CPU.
"""

import concurrent.futures
import functools
import importlib
import inspect
import os
import signal
import sys
import threading

import numpy as np
import pytest

import mwrecon
from mwrecon import _helper, kspace, network, phantom, pipelines
from mwrecon.grappa import KernelGeometry, calibrate, interpolate
from mwrecon.kspace import apply_pattern, extract_acs, make_uniform_pattern
from mwrecon.network import OptimizerConfig, TrainingDivergedError, TrainingSet, init_network, train
from mwrecon.phantom import make_coil_maps, shepp_logan, simulate_kspace
from mwrecon.pipelines import MULTIWEIGHT, ReconConfig, default_arch, reconstruct_image

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


@pytest.fixture(scope="module", autouse=True)
def end_helpers():
    yield
    _helper.close()


class Shared:
    """What the helper processes did while one test ran."""

    def __init__(self):
        self.started = []  # helpers started
        self.shares = []  # shares of each call the helpers took
        self.busy = 0  # calls that found the helpers busy


@pytest.fixture
def helpers(monkeypatch):
    """Coil shares on for every training call (4 CPUs, one BLAS thread, no break-even).

    Helpers started by an earlier test serve on; the module's end ends them.
    """
    monkeypatch.setattr(kspace, "_cpus", lambda: kspace._MAX_WORKERS)
    monkeypatch.setattr(network, "_blas_threads", lambda: 1)
    monkeypatch.setattr(network, "_MIN_SHARED_WORK", 0)
    record = Shared()
    real_init, real_run = _helper._Helper.__init__, _helper.run

    def counted_init(self):
        real_init(self)
        record.started.append(self)

    def counted_run(fn, arg_tuples):
        result = real_run(fn, arg_tuples)
        if result is None:
            record.busy += 1
        else:
            record.shares.append(len(arg_tuples))
        return result

    monkeypatch.setattr(_helper._Helper, "__init__", counted_init)
    monkeypatch.setattr(_helper, "run", counted_run)
    return record


def test_public_functions_run_on_the_calling_thread(scene, rounds, helpers, monkeypatch):
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
    # helper processes train a share of the coils
    pipelines.reconstruct(apply_pattern(noisy, pattern), ReconConfig("raki", pattern, optimizer=OptimizerConfig(iters=2)))
    assert len(rounds) >= 4 and helpers.shares
    names = {name for name, _ in seen}
    assert {"calibrate", "interpolate", "reconstruct_image", "simulate_kspace", "train", "forward"} <= names
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


# ---------------------------------------------------------------------------
# coil shares: network.train on helper processes (see mwrecon.network)

def training_case(method, coils, seed=0):
    """Float64 sources and targets for ``coils`` networks of ``method``'s default stack at R = 3."""
    arch = default_arch(method, coils, 3)
    samples = 3 if method in MULTIWEIGHT else 1
    rng = np.random.default_rng(seed)
    h, w = arch.ky_taps_excess + 4, arch.rf_cols + 12
    sources = rng.standard_normal((samples, 2 * coils, h, w))
    targets = 0.1 * rng.standard_normal((coils, samples, arch.out_channels) + arch.output_shape(h, w))
    return [init_network(arch, 10 + c) for c in range(coils)], TrainingSet(sources, targets)


OPT = OptimizerConfig(lr=0.01, iters=10)


def one_process(monkeypatch, nets, ts, opt=OPT):
    """``train`` on one CPU, which never shares."""
    cpus = kspace._cpus
    monkeypatch.setattr(kspace, "_cpus", lambda: 1)
    try:
        return train(nets, ts, opt)
    finally:
        monkeypatch.setattr(kspace, "_cpus", cpus)


def max_relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def assert_same_training(got, want):
    """Equal within test_network.TestCoilBatching's tolerance: shares change only GEMM shapes."""
    (nets, histories), (ref_nets, ref_histories) = got, want
    assert histories.shape == ref_histories.shape
    assert max_relative(histories, ref_histories) <= 1e-10
    for net, ref in zip(nets, ref_nets, strict=True):
        for w, w_ref in zip(net.weights, ref.weights, strict=True):
            assert max_relative(w, w_ref) <= 1e-10
        if ref.skip_weight is not None:
            assert max_relative(net.skip_weight, ref.skip_weight) <= 1e-10


@pytest.mark.parametrize("coils", [2, 3, 5])
@pytest.mark.parametrize("method", ["raki", "rraki", "mw_rraki"])
def test_shared_training_equals_the_one_process_run(helpers, monkeypatch, method, coils):
    nets, ts = training_case(method, coils)
    shared = train(nets, ts, OPT)
    # four CPUs: one share per coil up to four, the caller's and a helper's each
    assert helpers.shares == [min(coils, kspace._MAX_WORKERS)]
    assert_same_training(shared, one_process(monkeypatch, nets, ts))


@pytest.mark.parametrize("bad, named", [((3,), 3), ((1, 3), 1), ((0,), 0)],
                         ids=["helper", "both", "caller"])
def test_divergence_names_the_global_coil_and_iteration(helpers, monkeypatch, bad, named):
    monkeypatch.setattr(kspace, "_cpus", lambda: 2)  # coils 0-1 stay here, 2-3 go to the helper
    nets, ts = training_case("raki", 4, seed=2)
    targets = np.array(ts.targets)
    targets[list(bad)] *= 1e200  # squared error overflows at iteration 1
    ts = TrainingSet(ts.sources, targets)
    # at 1e200 every coil's weights overflow in the first update, so the
    # others diverge at iteration 2; the earliest iteration is named first
    opt = OptimizerConfig(lr=1e200, iters=5)
    message = rf"^coil {named}: non-finite training loss at iteration 1$"
    with pytest.raises(TrainingDivergedError, match=message):
        train(nets, ts, opt)
    assert helpers.shares == [2] and _helper._helpers[0].proc.poll() is None  # the helper serves on
    monkeypatch.setattr(kspace, "_cpus", lambda: 1)
    with pytest.raises(TrainingDivergedError, match=message):
        train(nets, ts, opt)


def in_thread(fn, timeout=60.0):
    """``fn()``'s result or exception; the call must end within ``timeout`` seconds."""
    box = []

    def call():
        try:
            box.append(fn())
        except Exception as exc:
            box.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"the call did not end within {timeout} s"
    return box[0]


def test_a_killed_helper_fails_the_next_call_and_the_one_after_starts_afresh(helpers, monkeypatch):
    _helper.close()
    nets, ts = training_case("raki", 2)
    train(nets, ts, OPT)
    (first,) = helpers.started
    first.proc.kill()
    first.proc.wait(timeout=30)
    error = in_thread(lambda: train(nets, ts, OPT))
    assert isinstance(error, _helper.HelperError)
    assert f"exited with status {-signal.SIGKILL}" in str(error)
    assert _helper._helpers == []
    result = in_thread(lambda: train(nets, ts, OPT))
    assert len(helpers.started) == 2 and helpers.started[1].proc.poll() is None
    assert_same_training(result, one_process(monkeypatch, nets, ts))


def test_a_helper_that_dies_mid_request_names_its_exit_status():
    helper = _helper._Helper()
    try:
        helper.send(os._exit, (7,))
        error = in_thread(helper.receive)
        assert isinstance(error, _helper.HelperError) and "exited with status 7" in str(error)
    finally:
        helper.close(kill=True)


def test_an_error_on_a_helper_comes_back_with_its_traceback(helpers):
    with pytest.raises(_helper.HelperError, match="ValueError: invalid literal"):
        _helper.run(int, [("1",), ("one",)])
    assert _helper._helpers == []  # discarded; the next call starts afresh
    assert _helper.run(int, [("1",), ("2",)]) == [1, 2]


@pytest.mark.parametrize("cpus, min_work", [(1, 0), (2, network._MIN_SHARED_WORK)],
                         ids=["one_cpu", "below_break_even"])
def test_one_cpu_or_small_work_starts_no_helper(helpers, monkeypatch, cpus, min_work):
    monkeypatch.setattr(kspace, "_cpus", lambda: cpus)
    monkeypatch.setattr(network, "_MIN_SHARED_WORK", min_work)  # the real one is far above this case's work
    runs = []
    monkeypatch.setattr(_helper, "run", lambda *args: runs.append(args))
    nets, ts = training_case("rraki", 4)
    opt = OptimizerConfig(lr=0.01, iters=2)
    assert min_work == 0 or network._work(nets[0].arch, ts.sources.shape, 4, opt.iters) < min_work
    train(nets, ts, opt)
    assert runs == [] and helpers.started == []


def test_every_blas_thread_takes_a_cpu(monkeypatch):
    arch = default_arch("raki", 8, 4)
    shape, work = (1, 16, 8, 128), network._MIN_SHARED_WORK
    monkeypatch.setattr(kspace, "_cpus", lambda: 8)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert network._blas_threads() == 8  # unset: BLAS takes every CPU, so nothing is shared
    assert len(network._shares(arch, shape, 8, work)) == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert len(network._shares(arch, shape, 8, work)) == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read before OMP_NUM_THREADS
    assert [s.stop - s.start for s in network._shares(arch, shape, 8, work)] == [2, 2, 2, 2]
    assert len(network._shares(arch, shape, 3, work)) == 3  # at most one share per coil


def test_a_helper_imports_the_callers_mwrecon(helpers, monkeypatch, tmp_path):
    # neither the path nor the working directory leads to this mwrecon
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    where = ("__import__('os').path.realpath(__import__('mwrecon').__file__)",)
    assert _helper.run(eval, [where, where]) == [os.path.realpath(mwrecon.__file__)] * 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_starts_helpers_of_its_own(helpers):
    assert _helper.run(int, [("1",), ("2",)]) == [1, 2]
    started = len(helpers.started)
    pid = os.fork()
    if pid == 0:  # the child: the parent's helpers are not its own
        os._exit(0 if _helper._helpers == [] and _helper._lock.acquire(blocking=False) else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _helper.run(int, [("3",), ("4",)]) == [3, 4] and len(helpers.started) == started


def test_a_caller_that_finds_the_helpers_busy_trains_alone(helpers, monkeypatch):
    nets, ts = training_case("mw_rraki", 3)
    with _helper._lock:  # another caller holds the helpers
        busy = train(nets, ts, OPT)
    assert (helpers.busy, helpers.shares) == (1, [])
    want = one_process(monkeypatch, nets, ts)
    for got, ref in zip(busy[0], want[0]):
        assert all(np.array_equal(w, r) for w, r in zip(got.weights, ref.weights))
        assert np.array_equal(got.skip_weight, ref.skip_weight)
    assert np.array_equal(busy[1], want[1])


def test_concurrent_callers_take_the_helper_in_turn_or_train_alone(helpers, monkeypatch):
    cases = [training_case(method, 3, seed=seed)
             for seed, method in enumerate(("raki", "rraki", "mw_rraki", "raki"))]
    opt = OptimizerConfig(lr=0.01, iters=40)
    want = [one_process(monkeypatch, *case, opt) for case in cases]
    monkeypatch.setattr(kspace, "_cpus", lambda: 2)  # one helper for four callers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            barrier = threading.Barrier(len(cases))
            got = [None] * len(cases)

            def call(i):
                barrier.wait(timeout=30)
                got[i] = train(*cases[i], opt)

            threads = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for result, ref in zip(got, want):
                assert_same_training(result, ref)
    finally:
        sys.setswitchinterval(interval)
    # some calls took the one helper in turn, and some found it busy
    assert set(helpers.shares) == {2} and helpers.busy > 0
