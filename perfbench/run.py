"""Benchmark of the ``mwrecon`` package, run from the root of a source checkout.

    python3 perfbench/run.py --workload raki128 --seed 1 --seconds 36 --trace 0

Imports ``mwrecon`` from ``src/`` of the checkout and exits with code 2,
printing no result, when that source is missing.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  Timing metrics are normalised
to a reference host speed (see ``bench``); the first line gives the raw wall
times beside them.  The line before the JSON records the environment.  The
whole record, spans included, is also written to
``perfbench/out/<workload>-trace<0|1>.json``.
"""

import os

# BLAS threads are pinned before numpy loads, so that every commit is
# measured alike; one thread was the faster setting on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None  # do not report the commit of an enclosing repository
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mwrecon").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mwrecon" / "__init__.py").is_file():
        print(f"perfbench: no mwrecon source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from mwrecon import pipelines

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = bench.run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    env["workload"] = vars(workload)
    env["grappa_ridge"] = pipelines.ReconConfig.__dataclass_fields__["ridge"].default
    tail, wall = result.notes["scan_s.tail"], result.notes["wall"]
    record = {
        "env": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
        "notes": result.notes,
        "spans": result.spans,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, default=str))
    print(
        f"perfbench {args.workload}: {result.attempted} scans, {result.failed} failed; "
        f"scan_s.tail is p{tail['percentile']:.1f} of {tail['samples']} scans "
        f"({tail['beyond']} beyond); wall scan_s.p50 {wall['scan_s.p50']:.4f} s, "
        f"reference kernel p50 {wall['reference_s.p50']:.4f} s (nominal {bench.REF_S} s)"
    )
    print("env " + json.dumps(env, default=str))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
