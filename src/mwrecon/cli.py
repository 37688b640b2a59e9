"""Command-line front end: phantom | undersample | recon | eval | compare | ablate.

All tabular output is UTF-8 CSV with a header row.  Ablation sweeps are
fully reproducible: every cell's seed is derived by hashing the master seed
with the cell's axis values, and rows are ordered by axis tuple, so two
runs with the same config produce byte-identical files.  Axes a method
ignores (depth for GRAPPA, P and L for every method without a filter bank)
are left blank in its cells, so each distinct reconstruction runs once.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import math
import sys
import time

import numpy as np

from .config import (
    ConfigError,
    build_arch,
    get_list,
    get_scalar,
    load_config,
    parse_filter_exponent,
    parse_grappa_kernel,
    parse_layer_spec,
    parse_positive,
)
from .filters import WeightFilter
from .grappa import KernelGeometry
from .kspace import (
    apply_pattern,
    load_kspace,
    load_pattern,
    make_uniform_pattern,
    save_kspace,
    save_pattern,
)
from .metrics import evaluate
from .network import NetworkArch, OptimizerConfig
from .phantom import make_coil_maps, shepp_logan, simulate_kspace
from .pipelines import (
    DEFAULT_FILTER_EXPONENTS,
    METHODS,
    MultiWeightConfig,
    ReconConfig,
    default_arch,
    reconstruct,
    reconstruct_image,
)

RECON_COLUMNS = (
    "method", "R", "acs", "seed", "psnr", "ssim", "rmse", "train_iters", "virtual_coils", "wall_ms",
)
ABLATE_COLUMNS = (
    "method", "R", "acs", "P", "L", "depth", "rep", "seed",
    "psnr", "ssim", "rmse", "train_iters", "status",
)
CURVE_COLUMNS = ("method", "R", "acs", "P", "L", "depth", "rep", "seed", "iteration", "loss")
DEFAULT_ABLATION_EXPONENTS = (0.6, 0.2, 0.4, 0.3)
# the recon settings each method reads: GRAPPA trains no network, and only
# the multi-weight methods have a filter bank.  A setting is a config key, a
# flag (RECON_FLAGS) or both; a setting none of the chosen methods reads is
# an error either way.
_NETWORK_KEYS = ("seed", "iters", "lr", "layers", "skip")
METHOD_KEYS = {
    "grappa": ("ridge", "grappa_kernel"),
    "raki": _NETWORK_KEYS,
    "rraki": _NETWORK_KEYS,
    "mw_raki": _NETWORK_KEYS + ("filter", "filter_eps"),
    "mw_rraki": _NETWORK_KEYS + ("filter", "filter_eps"),
}
# setting -> flag; ridge and the GRAPPA kernel have no config key
RECON_FLAGS = {
    "seed": "--seed", "iters": "--iters", "lr": "--lr", "filter": "--filters",
    "filter_eps": "--filter-eps", "ridge": "--ridge", "grappa_kernel": "--grappa-kernel",
}
RECON_KEYS = METHOD_KEYS["mw_rraki"]
RECON_LISTS = ("layers", "filter")
ABLATE_KEYS = (
    "input", "size", "coils", "snr_db", "scene_seed", "method", "R", "acs", "P", "L",
    "depth", "reps", "master_seed", "filter", "iters", "lr",
)
ABLATE_LISTS = ("method", "R", "acs", "P", "L", "depth", "filter")
# the sweep keys that only some methods read -> the recon setting each one sets
ABLATE_SETTINGS = {"iters": "iters", "lr": "lr", "depth": "layers", "P": "filter", "L": "filter",
                   "filter": "filter"}
ABLATE_FLAGS = {"iters": "--iters", "lr": "--lr"}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _normalize_method(name: str) -> str:
    method = name.strip().lower().replace("-", "_")
    if method not in METHODS:
        raise ConfigError(f"unknown method {name!r}; expected one of "
                          + ", ".join(m.replace("_", "-") for m in METHODS))
    return method


# ---------------------------------------------------------------------------
# subcommands

def cmd_phantom(args) -> int:
    ny = args.ny or args.size
    nx = args.nx or args.size
    img = shepp_logan(ny, nx)
    maps = make_coil_maps(args.coils, ny, nx, seed=args.seed)
    ks = simulate_kspace(img, maps, snr_db=args.snr, seed=args.seed)
    save_kspace(args.out, ks)
    _say(args, f"wrote {args.coils}-coil {ny}x{nx} phantom k-space to {args.out}")
    return 0


def cmd_undersample(args) -> int:
    ks = load_kspace(args.input)
    pattern = make_uniform_pattern(ks.ny, args.R, args.acs)
    save_kspace(args.out, apply_pattern(ks, pattern))
    if args.pattern_out:
        save_pattern(args.pattern_out, pattern)
    _say(args, f"kept {int(pattern.mask.sum())}/{ks.ny} rows (R={args.R}, acs={args.acs})")
    return 0


def _at_least(kind, low):
    """Parse a finite ``kind`` value >= ``low``; the config reader names file:line."""
    def convert(text):
        value = kind(text)
        if not low <= value < math.inf:  # NaN too
            raise ValueError(f"must be >= {low} and finite, got {value}")
        return value
    return convert


def _flag(args, name, convert, default=None):
    """Flag ``--name`` through ``convert``, else ``default``; a rejected value names the flag."""
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        return default
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigError(f"flag --{name} {exc}") from exc


def _optimizer_from(entries, args, source) -> OptimizerConfig:
    """Adam settings: a flag overrides its config key, and both share one lower bound."""
    values = {}
    for key, kind, low, default in (("lr", float, 0.0, 0.001), ("iters", int, 1, 1000)):
        convert = _at_least(kind, low)
        values[key] = _flag(args, key, convert, get_scalar(entries, key, convert, default, source))
    return OptimizerConfig(**values)


def _arch_from(entries, n_coils, R, source) -> NetworkArch | None:
    layer_values = get_list(entries, "layers", parse_layer_spec, source)
    if not layer_values:
        return None
    skip_value = get_scalar(entries, "skip", parse_layer_spec, None, source)
    return build_arch(layer_values, 2 * n_coils, 2 * (R - 1), skip_value)


def _exponent_on(ny, nx):
    """A filter exponent parser that rejects an exponent whose gain underflows on an ny x nx grid."""
    return lambda text: WeightFilter(parse_filter_exponent(text), ny, nx).P


def _multiweight_from(entries, args, ny, nx, source) -> MultiWeightConfig:
    exponent = _exponent_on(ny, nx)
    exponents = DEFAULT_FILTER_EXPONENTS
    if "filter" in entries:
        exponents = get_list(entries, "filter", exponent, source)
    # `--filters ""` selects the bare all-pass bank (L = 0)
    exponents = _flag(args, "filters", lambda text: [exponent(p) for p in text.split(",") if p.strip()], exponents)
    eps = get_scalar(entries, "filter_eps", parse_positive, None, source)
    return MultiWeightConfig(ny, nx, exponents, _flag(args, "filter-eps", parse_positive, eps))


def _reject_unread(args, entries, methods, setting_of, flags) -> None:
    """A config key or flag that none of ``methods`` reads is an error.

    ``setting_of`` maps each config key to check to the recon setting
    (a ``METHOD_KEYS`` entry) it sets; ``flags`` maps settings to flags.
    """
    read = {key for method in methods for key in METHOD_KEYS[method]}
    names = ", ".join(m.replace("_", "-") for m in methods)
    unread = [(lines[0][0], key) for key, lines in entries.items()
              if key in setting_of and setting_of[key] not in read]
    if unread:
        lineno, key = min(unread)
        raise ConfigError(f"{args.config}:{lineno}: key {key!r} is not read by {names}")
    for key, flag in flags.items():
        if key not in read and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ConfigError(f"flag {flag} is not read by {names}")


def _recon_entries(args, methods) -> dict:
    """The ``--config`` entries; a key or flag none of ``methods`` reads is an error."""
    entries = load_config(args.config, RECON_KEYS, RECON_LISTS) if args.config else {}
    _reject_unread(args, entries, methods, {key: key for key in RECON_KEYS}, RECON_FLAGS)
    return entries


def _build_recon_config(args, entries, measured, method, pattern) -> ReconConfig:
    """The run's settings; a value they reject is a ConfigError, raised before any work."""
    source = str(args.config) if args.config else "<cli>"
    mw = method in ("mw_raki", "mw_rraki")
    try:
        return ReconConfig(
            method=method,
            pattern=pattern,
            seed=args.seed if args.seed is not None else get_scalar(entries, "seed", int, 0, source),
            arch=_arch_from(entries, measured.n_coils, pattern.R, source),
            optimizer=_optimizer_from(entries, args, source),
            multiweight=_multiweight_from(entries, args, measured.ny, measured.nx, source) if mw else None,
            grappa_geometry=_flag(args, "grappa-kernel",
                                  lambda spec: KernelGeometry(pattern.R, *parse_grappa_kernel(spec))),
            ridge=_flag(args, "ridge", _at_least(float, 0.0), 0.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _train_iters(result) -> int:
    """Iterations each network trained for; GRAPPA trains none."""
    return len(result.loss_histories[0]) if result.loss_histories else 0


def _metrics_row(method, pattern, seed, result, ref_sos, wall_ms):
    row = {
        "method": method.replace("_", "-"),
        "R": pattern.R,
        "acs": pattern.acs_count,
        "seed": seed,
        "train_iters": _train_iters(result),
        "virtual_coils": len(result.loss_histories),  # one network per virtual coil
        "wall_ms": wall_ms,
    }
    if ref_sos is not None:
        report = evaluate(result.sos, ref_sos)
        row.update(psnr=report.psnr_db, ssim=report.ssim, rmse=report.rmse_pct)
    return row


def cmd_recon(args) -> int:
    method = _normalize_method(args.method)
    measured = load_kspace(args.input)
    ref = load_kspace(args.ref) if args.ref else None
    if ref is not None and (ref.ny, ref.nx) != (measured.ny, measured.nx):
        raise ConfigError(
            f"--ref grid is {ref.ny}x{ref.nx} but --input grid is {measured.ny}x{measured.nx}"
        )
    if args.pattern:
        pattern = load_pattern(args.pattern)
    else:
        pattern = make_uniform_pattern(measured.ny, args.R, args.acs)
    cfg = _build_recon_config(args, _recon_entries(args, [method]), measured, method, pattern)
    ref_sos = reconstruct_image(ref) if ref is not None else None
    t0 = time.perf_counter()
    result = reconstruct(measured, cfg)
    wall_ms = 1e3 * (time.perf_counter() - t0)
    save_kspace(args.out, result.kspace)
    if args.report:
        row = _metrics_row(method, pattern, cfg.seed, result, ref_sos, wall_ms)
        _write_csv(args.report, RECON_COLUMNS, [row])
    _say(args, f"{method.replace('_', '-')} reconstruction written to {args.out} ({wall_ms:.0f} ms)")
    return 0


def cmd_eval(args) -> int:
    recon_sos = reconstruct_image(load_kspace(args.recon))
    ref_sos = reconstruct_image(load_kspace(args.ref))
    report = evaluate(recon_sos, ref_sos)
    _write_csv(args.report, ("psnr", "ssim", "rmse"),
               [{"psnr": report.psnr_db, "ssim": report.ssim, "rmse": report.rmse_pct}])
    _say(args, f"psnr={report.psnr_db:.2f} dB  ssim={report.ssim:.4f}  rmse={report.rmse_pct:.2f}%")
    return 0


def cmd_compare(args) -> int:
    full = load_kspace(args.input)
    pattern = make_uniform_pattern(full.ny, args.R, args.acs)
    measured = apply_pattern(full, pattern)
    ref_sos = reconstruct_image(full)
    methods = [_normalize_method(name) for name in args.methods.split(",")]
    entries = _recon_entries(args, methods)
    rows = []
    for method in methods:
        cfg = _build_recon_config(args, entries, measured, method, pattern)
        t0 = time.perf_counter()
        result = reconstruct(measured, cfg)
        wall_ms = 1e3 * (time.perf_counter() - t0)
        rows.append(_metrics_row(method, pattern, cfg.seed, result, ref_sos, wall_ms))
        _say(args, f"{method}: psnr={rows[-1]['psnr']:.2f}")
    _write_csv(args.report, RECON_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------
# ablation runner

def _cell_seed(master: int, *parts) -> int:
    text = "|".join(["mwrecon", str(master), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _load_ablation_scene(entries, source):
    """(fully sampled k-space, reference SoS image) of the sweep's scene.

    A synthesized scene is scored against its noise-free image, not against
    the noisy one it is reconstructed from; a file's scene has only its own.
    """
    input_path = get_scalar(entries, "input", str, None, source)
    if input_path:
        full = load_kspace(input_path)
        return full, reconstruct_image(full)
    size = get_scalar(entries, "size", int, None, source)
    if size is None:
        raise ConfigError(f"{source}: ablation config needs `input = file.mwks` or `size = N`")
    coils = get_scalar(entries, "coils", int, 8, source)
    snr = get_scalar(entries, "snr_db", float, None, source)
    scene_seed = get_scalar(entries, "scene_seed", int, 7, source)
    img = shepp_logan(size, size)
    maps = make_coil_maps(coils, size, size, seed=scene_seed)
    clean = simulate_kspace(img, maps)
    full = simulate_kspace(img, maps, snr_db=snr, seed=scene_seed)
    return full, reconstruct_image(clean)


def _run_ablation_cell(full, ref_sos, cell, base_exponents, optimizer):
    method, R, acs, p_value, n_filters, depth, rep, seed = cell
    pattern = make_uniform_pattern(full.ny, R, acs)
    measured = apply_pattern(full, pattern)
    arch = None
    if depth is not None:
        arch = default_arch(method, full.n_coils, R, depth)
    # P and L are blank without a filter bank; with neither, pipelines picks the bank
    multiweight = None
    if p_value is not None:
        multiweight = MultiWeightConfig(full.ny, full.nx, (p_value,))
    elif n_filters is not None:
        if n_filters > len(base_exponents):
            raise ConfigError(
                f"L={n_filters} exceeds the configured filter list ({len(base_exponents)})"
            )
        multiweight = MultiWeightConfig(full.ny, full.nx, base_exponents[:n_filters])
    cfg = ReconConfig(
        method=method,
        pattern=pattern,
        seed=seed,
        arch=arch,
        optimizer=optimizer,
        multiweight=multiweight,
    )
    result = reconstruct(measured, cfg)
    report = evaluate(result.sos, ref_sos)
    row = {
        "method": method.replace("_", "-"),
        "R": R, "acs": acs, "P": p_value, "L": n_filters, "depth": depth,
        "rep": rep, "seed": seed,
        "psnr": report.psnr_db, "ssim": report.ssim, "rmse": report.rmse_pct,
        "train_iters": _train_iters(result), "status": "ok",
    }
    curves = []
    if result.loss_histories:
        mean_curve = np.mean(np.stack(result.loss_histories), axis=0)
        for it, value in enumerate(mean_curve, start=1):
            curves.append({
                "method": row["method"], "R": R, "acs": acs, "P": p_value, "L": n_filters,
                "depth": depth, "rep": rep, "seed": seed,
                "iteration": it, "loss": float(value),
            })
    return row, curves


def cmd_ablate(args) -> int:
    if not args.config:
        raise ConfigError("ablate needs --config FILE")
    source = str(args.config)
    entries = load_config(args.config, ABLATE_KEYS, ABLATE_LISTS)
    methods = [_normalize_method(m) for m in get_list(entries, "method", str, source)]
    if not methods:
        raise ConfigError(f"{source}: ablation config needs at least one `method = ...` line")
    _reject_unread(args, entries, methods, ABLATE_SETTINGS, ABLATE_FLAGS)
    full, ref_sos = _load_ablation_scene(entries, source)

    r_values = get_list(entries, "R", int, source) or [4]
    acs_values = get_list(entries, "acs", int, source) or [full.ny // 4]
    exponent = _exponent_on(full.ny, full.nx)
    p_values = get_list(entries, "P", exponent, source) or [None]
    l_values = get_list(entries, "L", _at_least(int, 0), source) or [None]
    depth_values = get_list(entries, "depth", int, source) or [None]
    reps = get_scalar(entries, "reps", _at_least(int, 1), 1, source)
    if p_values != [None] and l_values != [None]:
        raise ConfigError(f"{source}: sweep either P or L, not both")
    axes = [methods, r_values, acs_values, p_values, l_values, depth_values, list(range(reps))]
    if all(len(axis) < 2 for axis in axes):
        raise ConfigError(f"{source}: ablation needs at least one axis with two or more values")

    master = args.seed if args.seed is not None else get_scalar(entries, "master_seed", int, 0, source)
    base_exponents = tuple(get_list(entries, "filter", exponent, source)) or DEFAULT_ABLATION_EXPONENTS
    optimizer = _optimizer_from(entries, args, source)

    # an axis a method ignores is blanked before seeding, so each distinct
    # reconstruction runs once: GRAPPA has no network (depth) and only the
    # multi-weight methods have a filter bank (P, L)
    cells = set()
    for method, R, acs, p, l_count, depth, rep in itertools.product(
        methods, r_values, acs_values, p_values, l_values, depth_values, range(reps)
    ):
        if method not in ("mw_raki", "mw_rraki"):
            p = l_count = None
        if method == "grappa":
            depth = None
        seed = _cell_seed(master, method, R, acs, p, l_count, depth, rep)
        cells.add((method, R, acs, p, l_count, depth, rep, seed))
    cells = sorted(cells, key=lambda c: tuple(str(v) for v in c))

    def run(cell):
        try:
            return _run_ablation_cell(full, ref_sos, cell, base_exponents, optimizer)
        except Exception as exc:  # cell failures must not stop the sweep
            method, R, acs, p, l_count, depth, rep, seed = cell
            row = {
                "method": method.replace("_", "-"), "R": R, "acs": acs, "P": p, "L": l_count,
                "depth": depth, "rep": rep, "seed": seed, "train_iters": optimizer.iters,
                "status": f"error: {exc}",
            }
            return row, []

    outcomes = [run(cell) for cell in cells]

    rows = [row for row, _ in outcomes]
    _write_csv(args.out, ABLATE_COLUMNS, rows)
    if args.curves:
        curve_rows = [c for _, curves in outcomes for c in curves]
        _write_csv(args.curves, CURVE_COLUMNS, curve_rows)
    failures = [r for r in rows if r["status"] != "ok"]
    _say(args, f"{len(rows)} cells -> {args.out} ({len(failures)} failed)")
    if failures:
        print(f"error: {failures[0]['status'][7:]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwrecon",
        description="Scan-specific parallel MRI reconstruction in k-space.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="synthesize multi-coil phantom k-space")
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--ny", type=int)
    p.add_argument("--nx", type=int)
    p.add_argument("--coils", type=int, default=8)
    p.add_argument("--snr", type=float, default=None, help="SNR in dB (omit for noise-free)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("undersample", help="apply a uniform sampling pattern")
    p.add_argument("--input", required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--acs", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pattern-out")
    p.set_defaults(func=cmd_undersample)

    def add_recon_options(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--iters", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--filters", help="high-pass exponents, e.g. 0.6,0.2")
        p.add_argument("--filter-eps", type=float, dest="filter_eps")
        p.add_argument("--ridge", type=float)
        p.add_argument("--grappa-kernel", dest="grappa_kernel", help="e.g. bx:1,by:2")

    p = sub.add_parser("recon", help="reconstruct undersampled k-space")
    p.add_argument("--method", required=True)
    p.add_argument("--input", required=True)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--pattern", help="pattern file from `undersample --pattern-out`")
    given.add_argument("--R", type=int, help="with --acs, instead of --pattern")
    p.add_argument("--acs", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="CSV report path")
    p.add_argument("--ref", help="fully sampled reference .mwks for metrics")
    add_recon_options(p)
    p.set_defaults(func=cmd_recon)

    p = sub.add_parser("eval", help="compare two k-space files on their SOS images")
    p.add_argument("--recon", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="run several methods on one scan")
    p.add_argument("--input", required=True, help="fully sampled .mwks reference")
    p.add_argument("--methods", required=True, help="comma-separated method list")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--acs", type=int, required=True)
    p.add_argument("--report", required=True)
    add_recon_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="run a reproducible parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--curves", help="per-iteration loss curve CSV")
    p.add_argument("--iters", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "recon" and (args.pattern is None) == (args.acs is None):
        parser.error("recon takes either --pattern FILE or both --R and --acs")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
