"""Tests of the benchmark itself, on 32x32 versions of its workloads."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import spans  # noqa: E402
from mwrecon import kspace, network, phantom, pipelines  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name):
    w = bench.WORKLOADS[name]
    return dataclasses.replace(w, n=32, coils=4, acs=16, iters=min(w.iters, 2))


def test_contract_names_every_workload_and_metric():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_one_scan_reports_every_metric(name, trace, tmp_path):
    result = bench.run(small(name), seed=3, seconds=0, trace=trace, workdir=tmp_path)
    assert result.correct and result.failed == 0
    assert result.attempted == (2 if trace else 1)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result.metrics.items()} == expected
    assert all(math.isfinite(v["value"]) for v in result.metrics.values())
    if not trace:
        assert all(result.metrics[k]["value"] > 0 for k in bench.END_TO_END)
        return
    values = {k: v["value"] for k, v in result.metrics.items()}
    if name == "grappa256_io":
        assert values["network.busy_s"] == 0
        assert values["grappa.busy_s"] > 0 and values["kspace.load_s"] > 0
        assert values["kspace.bytes_read"] == values["kspace.bytes_written"] > 0
    else:
        assert values["network.busy_s"] > 0 and values["network.train_gflop"] > 0
        assert values["grappa.busy_s"] == 0


def test_spans_nest_under_scans(tmp_path):
    result = bench.run(small("mw128"), seed=3, seconds=0, trace=True, workdir=tmp_path)
    by_id = {s[0]: s for s in result.spans}
    for sid, parent, name, start, end in result.spans:
        if parent is not None:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]
    reconstructs = [s for s in result.spans if s[2] == "pipelines.reconstruct"]
    assert reconstructs and all(by_id[s[1]][2] == "scan" for s in reconstructs)
    trains = [s for s in result.spans if s[2] == "network.train"]
    assert trains and all(by_id[s[1]][2] == "pipelines.mw_reconstruct" for s in trains)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    bench.run(small("raki128"), seed=3, seconds=0, trace=True, workdir=tmp_path)
    assert pipelines.train is network.train
    assert pipelines.reconstruct.__module__ == "mwrecon.pipelines"
    assert not hasattr(kspace.load_kspace, "__wrapped__")


def test_wrappers_are_removed_when_the_block_raises():
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            assert hasattr(pipelines.train, "__wrapped__")
            raise RuntimeError
    assert pipelines.train is network.train


def test_pattern_mismatch_is_a_failed_scan_and_the_run_goes_on(monkeypatch, tmp_path):
    w = small("raki128")
    original = bench.prepare

    def prepare(w, scene, rng, index, workdir):
        inp = original(w, scene, rng, index, workdir)
        if index:
            return inp
        r2 = kspace.make_uniform_pattern(w.n, 2, w.acs)  # data at R=2, pattern says R=4
        noisy = phantom.simulate_kspace(scene.image, scene.maps, snr_db=bench.SNR_DB, seed=0)
        return dataclasses.replace(inp, mask=r2.mask, measured=kspace.apply_pattern(noisy, r2))

    monkeypatch.setattr(bench, "prepare", prepare)
    # a traced loop runs at least two scans: the bad one, then a traced good one
    records = bench.measure(
        w, bench.setup(w), np.random.default_rng(3), 0, tmp_path, spans.Tracer(), trace=True
    )
    assert [(r.traced, r.error is None) for r in records] == [(False, False), (True, True)]
    assert "nonzero samples" in records[0].error
    values, _ = bench.end_to_end([(1.0, bench.REF_S)], records)
    assert values["ok_frac"] == 0.5
    assert values["scans_per_s"] > 0


def test_work_counts_repeat_exactly():
    w = small("mw128")
    counts = bench.work_counts(w, bench.setup(w))
    assert counts == bench.work_counts(w, bench.setup(w))
    assert 0 < counts["filters.valid_frac"] <= 1


def test_train_flops_of_one_layer():
    arch = network.NetworkArch(in_channels=2, layers=(network.LayerSpec(3, 3, 2, "identity"),))
    # output 4x6; forward and weight gradient, 2 FLOPs per multiply-add
    assert bench._train_flops(arch, (1, 2, 5, 8)) == 2 * 2 * (4 * 6) * 3 * 2 * 2 * 3


def test_timings_are_scaled_to_the_reference_speed():
    assert bench.normalised(2.0, bench.REF_S) == 2.0
    assert bench.normalised(2.0, 2 * bench.REF_S) == 1.0
    assert bench.reference() > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 31)]
    assert bench._tail(times) == (20.0, 100.0 * 20 / 30, 10)
    assert bench._tail(times[:5]) == (5.0, 100.0, 0)


def test_run_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raki128", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
