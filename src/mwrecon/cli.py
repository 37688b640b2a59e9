"""Command-line front end: phantom | undersample | recon | eval | compare | ablate.

Each recon setting is declared once, in ``SETTINGS``, with its flag and the
methods that read it; a key or flag that none of a run's methods reads is an
error.  Every run's settings are resolved before any reconstruction: `recon`
and `compare` build every method's config and check it through
``pipelines.plan``, the check ``reconstruct`` runs first, so GRAPPA's kernel
and each network must fit the scan; `ablate` parses every axis and checks
every GRAPPA cell through ``plan``, first.  A value they reject exits 2,
naming the flag or key to change, and writes nothing.  (A `depth` that a
method's depth table lacks, or an ACS block too small for a network, fails
only its own ablation cells.)

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
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    at_least,
    get_list,
    get_scalar,
    load_config,
    parse_filter_exponent,
    parse_grappa_kernel,
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
from .network import LayerSpec, NetworkArch, OptimizerConfig
from .phantom import make_coil_maps, shepp_logan, simulate_kspace
from .pipelines import (
    DEFAULT_FILTER_EXPONENTS,
    METHODS,
    MULTIWEIGHT,
    NETWORKS,
    MultiWeightConfig,
    ReconConfig,
    default_arch,
    plan,
    reconstruct,
    reconstruct_image,
)

AXIS_COLUMNS = ("method", "R", "acs", "P", "L", "depth", "rep", "seed")
RECON_COLUMNS = (
    "method", "R", "acs", "seed", "psnr", "ssim", "rmse", "train_iters", "virtual_coils", "wall_ms",
)
ABLATE_COLUMNS = AXIS_COLUMNS + ("psnr", "ssim", "rmse", "train_iters", "status")
CURVE_COLUMNS = AXIS_COLUMNS + ("iteration", "loss")
DEFAULT_ABLATION_EXPONENTS = (0.6, 0.2, 0.4, 0.3)
# Every recon setting: its flag (None for a config key only) and the methods
# that read it.  GRAPPA's settings are flags only; every other setting is also
# a config key.  A key or flag that none of a run's methods reads is an error.
SETTINGS = {
    "seed": ("--seed", NETWORKS),
    "iters": ("--iters", NETWORKS),
    "lr": ("--lr", NETWORKS),
    "layers": (None, NETWORKS),
    "skip": (None, NETWORKS),
    "filter": ("--filters", MULTIWEIGHT),
    "filter_eps": ("--filter-eps", MULTIWEIGHT),
    "ridge": ("--ridge", ("grappa",)),
    "grappa_kernel": ("--grappa-kernel", ("grappa",)),
}
RECON_KEYS = tuple(setting for setting, (_, readers) in SETTINGS.items() if "grappa" not in readers)
RECON_LISTS = ("layers", "filter")
ABLATE_KEYS = (
    "input", "size", "coils", "snr_db", "scene_seed", "method", "R", "acs", "P", "L",
    "depth", "reps", "master_seed", "filter", "iters", "lr",
)
ABLATE_LISTS = ("method", "R", "acs", "P", "L", "depth", "filter")
# the sweep keys that only some methods read -> the setting each one sets; the
# global --seed is the sweep's master seed, read whatever the methods
ABLATE_SETTINGS = {"iters": "iters", "lr": "lr", "depth": "layers", "P": "filter", "L": "filter",
                   "filter": "filter"}


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

def _snr_db(text) -> float:
    """An SNR in dB; +inf means noise-free, and NaN or -inf is an error."""
    value = float(text)
    if not value > -math.inf:  # NaN too
        raise ValueError(f"must be a number of dB or +inf, got {value}")
    return value


# phantom settings, checked before any synthesis: shepp_logan needs 16 x 16
_GRID = at_least(int, 16)
_COILS = at_least(int, 1)
_SEED = at_least(int, 0)  # numpy's generators take no negative seed
_GRAPPA_KERNEL = f"bx:{KernelGeometry.bx_half},by:{KernelGeometry.by_taps}"


def cmd_phantom(args) -> int:
    ny = _flag(args, "ny", _GRID) or _flag(args, "size", _GRID)
    nx = _flag(args, "nx", _GRID) or _flag(args, "size", _GRID)
    coils = _flag(args, "coils", _COILS)
    snr = _flag(args, "snr", _snr_db)
    img = shepp_logan(ny, nx)
    seed = 0 if args.seed is None else args.seed
    maps = make_coil_maps(coils, ny, nx, seed=seed)
    ks = simulate_kspace(img, maps, snr_db=snr, seed=seed)
    save_kspace(args.out, ks)
    _say(args, f"wrote {coils}-coil {ny}x{nx} phantom k-space to {args.out}")
    return 0


def _pattern_from_flags(args, ny):
    """The uniform pattern of --R and --acs on an ``ny``-row grid; a rejected value names its flag."""
    R = _flag(args, "R", at_least(int, 2))
    return make_uniform_pattern(ny, R, _flag(args, "acs", at_least(int, 1, ny)))


def cmd_undersample(args) -> int:
    ks = load_kspace(args.input)
    pattern = _pattern_from_flags(args, ks.ny)
    save_kspace(args.out, apply_pattern(ks, pattern))
    if args.pattern_out:
        save_pattern(args.pattern_out, pattern)
    _say(args, f"kept {int(pattern.mask.sum())}/{ks.ny} rows (R={args.R}, acs={args.acs})")
    return 0


def _flag(args, name, convert, default=None):
    """Flag ``--name`` through ``convert``, else ``default``; a rejected value names the flag."""
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        return default
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigError(f"flag --{name} {exc}") from exc


def _optimizer_from(entries, args) -> OptimizerConfig:
    """Adam settings: a flag overrides its config key, and both share one lower bound."""
    values = {}
    for key, kind, low in (("lr", float, 0.0), ("iters", int, 1)):
        convert = at_least(kind, low)
        values[key] = _flag(args, key, convert, get_scalar(entries, key, convert, getattr(OptimizerConfig, key)))
    return OptimizerConfig(**values)


def _parse_layer_spec(spec: str, out_channels: int) -> LayerSpec:
    """`32@5x2` -> ``LayerSpec(32, 5, 2)``; `out@3x2` takes ``out_channels``.  A layer's place
    decides its activation (see :mod:`mwrecon.network`), so `32@5x2:relu` is malformed."""
    channels, sep, kernel = spec.strip().lower().partition("@")
    if not sep:
        raise ValueError(f"layer spec {spec!r} needs channels@KXxKY")
    kx, sep, ky = kernel.partition("x")
    if not sep:
        raise ValueError(f"layer spec {spec!r} needs a KXxKY kernel size")
    channels = channels.strip()
    return LayerSpec(out_channels if channels == "out" else int(channels), int(kx), int(ky))


def _arch_from(entries, method, n_coils, pattern) -> NetworkArch | None:
    """The `layers` and `skip` keys' network, or None for the default; a `skip` alone joins the
    method's default stack.  A final layer or skip not 2·(R−1) wide, or a skip outside the stack's
    receptive field, is rejected."""
    need = 2 * (pattern.R - 1)
    def layer(text):
        return _parse_layer_spec(text, need)
    def bad(key, reason):
        lineno, _, source = [e for e in entries[key] if e[1].replace(",", "").strip()][-1]
        return ConfigError(f"{source}:{lineno}: bad value for key {key!r}: {reason}")
    layers, skip = get_list(entries, "layers", layer), get_scalar(entries, "skip", layer)
    for key, what, spec in (("layers", "final layer", layers[-1] if layers else None), ("skip", "skip", skip)):
        if spec is not None and spec.out_channels != need:
            raise bad(key, f"the {what} emits {spec.out_channels} channels but R={pattern.R} needs {need}")
    arch = None
    if layers or skip is not None:
        stack = NetworkArch(2 * n_coils, layers) if layers else default_arch(method, n_coils, pattern.R)
        try:
            arch = replace(stack, skip=skip)
        except ValueError as exc:  # the skip does not fit the stack's receptive field
            raise bad("skip", str(exc)) from exc
    return arch


def _exponent_on(ny, nx):
    """A filter exponent parser that rejects an exponent whose gain underflows on an ny x nx grid."""
    return lambda text: WeightFilter(parse_filter_exponent(text), ny, nx).P


def _multiweight_from(entries, args, ny, nx) -> MultiWeightConfig:
    exponent = _exponent_on(ny, nx)
    exponents = DEFAULT_FILTER_EXPONENTS
    if "filter" in entries:
        exponents = get_list(entries, "filter", exponent)
    # `--filters ""` selects the bare all-pass bank (L = 0)
    exponents = _flag(args, "filters", lambda text: [exponent(p) for p in text.split(",") if p.strip()], exponents)
    eps = get_scalar(entries, "filter_eps", parse_positive)
    return MultiWeightConfig(ny, nx, exponents, _flag(args, "filter-eps", parse_positive, eps))


def _reject_unread(args, entries, methods, setting_of) -> None:
    """A config key or flag that none of ``methods`` reads is an error.

    ``setting_of`` maps each config key to check to the ``SETTINGS`` entry
    it sets; the flags of those settings are checked in table order.
    """
    checked = set(setting_of.values())
    unread = {setting: flag for setting, (flag, readers) in SETTINGS.items()
              if setting in checked and not set(readers) & set(methods)}
    names = ", ".join(m.replace("_", "-") for m in methods)
    keys = [(lines[0][0], key) for key, lines in entries.items() if setting_of.get(key) in unread]
    if keys:
        lineno, key = min(keys)
        raise ConfigError(f"{args.config}:{lineno}: key {key!r} is not read by {names}")
    for flag in unread.values():
        if flag and getattr(args, flag[2:].replace("-", "_"), None) is not None:
            raise ConfigError(f"flag {flag} is not read by {names}")


def _build_recon_config(args, entries, measured, method, pattern) -> ReconConfig:
    """The run's settings, checked through ``plan``; a value they reject is a ConfigError, raised
    before any work, that names the flag or key to change."""
    cfg = ReconConfig(
        method=method,
        pattern=pattern,
        seed=args.seed if args.seed is not None else get_scalar(entries, "seed", _SEED, ReconConfig.seed),
        arch=_arch_from(entries, method, measured.n_coils, pattern) if method in NETWORKS else None,
        optimizer=_optimizer_from(entries, args),
        multiweight=_multiweight_from(entries, args, measured.ny, measured.nx) if method in MULTIWEIGHT else None,
        grappa_geometry=_flag(args, "grappa-kernel", lambda spec: KernelGeometry(
            pattern.R, *parse_grappa_kernel(spec))) if method == "grappa" else None,
        ridge=_flag(args, "ridge", at_least(float, 0.0), ReconConfig.ridge),
    )
    try:
        plan(cfg, measured.n_coils, measured.ny, measured.nx)
    except ValueError as exc:  # LinAlgError too
        if method in NETWORKS:  # the CLI builds each network for the coils and each bank for the grid
            given = f"--pattern {args.pattern}" if getattr(args, "pattern", None) else f"--acs {args.acs}"
            raise ConfigError(f"flag {given}: {method.replace('_', '-')} cannot train: {exc}") from exc
        flag = "--grappa-kernel" if args.grappa_kernel else f"--grappa-kernel (default {_GRAPPA_KERNEL})"
        if isinstance(exc, np.linalg.LinAlgError):
            raise ConfigError(f"flags {flag} and --ridge {cfg.ridge:g}: {exc}; use --ridge > 0") from exc
        raise ConfigError(f"flag {flag} {exc}") from exc
    return cfg


def _train_iters(result) -> int:
    """Iterations each network trained for; GRAPPA trains none."""
    return len(result.loss_histories[0]) if result.loss_histories else 0


def _run_methods(args, measured, pattern, methods, ref):
    """Reconstruct ``measured`` with each of ``methods``, yielding (result, report row).

    Every method's settings are resolved, so a bad one is rejected, before
    the first reconstruction.  Rows are scored against ``ref`` when given.
    """
    entries = load_config(args.config, RECON_KEYS, RECON_LISTS) if args.config else {}
    _reject_unread(args, entries, methods, {setting: setting for setting in SETTINGS})
    configs = [_build_recon_config(args, entries, measured, method, pattern) for method in methods]
    ref_sos = reconstruct_image(ref) if ref is not None else None
    for cfg in configs:
        t0 = time.perf_counter()
        result = reconstruct(measured, cfg)
        wall_ms = 1e3 * (time.perf_counter() - t0)
        row = {
            "method": cfg.method.replace("_", "-"),
            "R": pattern.R,
            "acs": pattern.acs_count,
            "seed": cfg.seed,
            "train_iters": _train_iters(result),
            "virtual_coils": len(result.loss_histories),  # one network per virtual coil
            "wall_ms": wall_ms,
        }
        if ref_sos is not None:
            report = evaluate(result.sos, ref_sos)
            row.update(psnr=report.psnr_db, ssim=report.ssim, rmse=report.rmse_pct)
        yield result, row


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
        if pattern.ny != measured.ny:
            raise ConfigError(f"--pattern expects {pattern.ny} rows but --input grid has {measured.ny}")
    else:
        pattern = _pattern_from_flags(args, measured.ny)
    ((result, row),) = _run_methods(args, measured, pattern, [method], ref if args.report else None)
    save_kspace(args.out, result.kspace)
    if args.report:
        _write_csv(args.report, RECON_COLUMNS, [row])
    _say(args, f"{row['method']} reconstruction written to {args.out} ({row['wall_ms']:.0f} ms)")
    return 0


def cmd_eval(args) -> int:
    recon, ref = load_kspace(args.recon), load_kspace(args.ref)
    if (ref.ny, ref.nx) != (recon.ny, recon.nx):
        raise ConfigError(f"--ref grid is {ref.ny}x{ref.nx} but --recon grid is {recon.ny}x{recon.nx}")
    recon_sos, ref_sos = reconstruct_image(recon), reconstruct_image(ref)
    report = evaluate(recon_sos, ref_sos)
    _write_csv(args.report, ("psnr", "ssim", "rmse"),
               [{"psnr": report.psnr_db, "ssim": report.ssim, "rmse": report.rmse_pct}])
    _say(args, f"psnr={report.psnr_db:.2f} dB  ssim={report.ssim:.4f}  rmse={report.rmse_pct:.2f}%")
    return 0


def cmd_compare(args) -> int:
    methods = [_normalize_method(name) for name in args.methods.split(",")]
    repeated = next((m for i, m in enumerate(methods) if m in methods[:i]), None)
    if repeated:
        raise ConfigError(f"flag --methods names {repeated.replace('_', '-')} twice")
    full = load_kspace(args.input)
    pattern = _pattern_from_flags(args, full.ny)
    rows = []
    runs = _run_methods(args, apply_pattern(full, pattern), pattern, methods, full)
    for method, (_, row) in zip(methods, runs):
        rows.append(row)
        _say(args, f"{method}: psnr={row['psnr']:.2f}")
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
    the noisy one it is reconstructed from; a file's scene has only its own,
    and a key that synthesizes a scene is an error beside `input`.
    """
    input_path = get_scalar(entries, "input", str)
    if input_path:
        unread = [(entries[key][0][0], key) for key in ("size", "coils", "snr_db", "scene_seed") if key in entries]
        if unread:
            lineno, key = min(unread)
            raise ConfigError(f"{source}:{lineno}: key {key!r} is not read when 'input' is given")
        full = load_kspace(input_path)
        return full, reconstruct_image(full)
    size = get_scalar(entries, "size", _GRID)
    if size is None:
        raise ConfigError(f"{source}: ablation config needs `input = file.mwks` or `size = N`")
    coils = get_scalar(entries, "coils", _COILS, 8)
    snr = get_scalar(entries, "snr_db", _snr_db)
    scene_seed = get_scalar(entries, "scene_seed", _SEED, 7)
    img = shepp_logan(size, size)
    maps = make_coil_maps(coils, size, size, seed=scene_seed)
    clean = simulate_kspace(img, maps)
    full = simulate_kspace(img, maps, snr_db=snr, seed=scene_seed)
    return full, reconstruct_image(clean)


def _run_ablation_cell(full, ref_sos, cell, patterns, base_exponents, optimizer):
    """One cell's (metric columns, coil-mean loss per iteration), on its entry of ``patterns``."""
    method, R, acs, p_value, n_filters, depth, rep, seed = cell
    pattern = patterns[R, acs]
    measured = apply_pattern(full, pattern)
    arch = None
    if depth is not None:
        arch = default_arch(method, full.n_coils, R, depth)
    # P and L are blank without a filter bank; with neither, pipelines picks the bank
    multiweight = None
    if p_value is not None:
        multiweight = MultiWeightConfig(full.ny, full.nx, (p_value,))
    elif n_filters is not None:
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
    metrics = {"psnr": report.psnr_db, "ssim": report.ssim, "rmse": report.rmse_pct,
               "train_iters": _train_iters(result), "status": "ok"}
    curve = np.mean(np.stack(result.loss_histories), axis=0) if result.loss_histories else []
    return metrics, curve


def cmd_ablate(args) -> int:
    source = args.config
    entries = load_config(source, ABLATE_KEYS, ABLATE_LISTS)
    methods = [_normalize_method(m) for m in get_list(entries, "method", str)]
    if not methods:
        raise ConfigError(f"{source}: ablation config needs at least one `method = ...` line")
    _reject_unread(args, entries, methods, ABLATE_SETTINGS)
    master = args.seed if args.seed is not None else get_scalar(entries, "master_seed", _SEED, 0)
    optimizer = _optimizer_from(entries, args)
    full, ref_sos = _load_ablation_scene(entries, source)

    r_values = get_list(entries, "R", at_least(int, 2)) or [4]
    acs_values = get_list(entries, "acs", at_least(int, 1, full.ny)) or [full.ny // 4]
    patterns = {(R, acs): make_uniform_pattern(full.ny, R, acs) for R in r_values for acs in acs_values}
    if "grappa" in methods:  # its cells fit the default kernel at ridge 0
        for (R, acs), pattern in patterns.items():
            try:
                plan(ReconConfig("grappa", pattern), full.n_coils, full.ny, full.nx)
            except ValueError as exc:  # LinAlgError too, which only a taller ACS mends at ridge 0
                taller = "; use a taller acs" if isinstance(exc, np.linalg.LinAlgError) else ""
                raise ConfigError(f"{source}: keys 'R' and 'acs' give grappa R = {R}, acs = {acs}: "
                                  f"{exc}{taller}") from exc
    exponent = _exponent_on(full.ny, full.nx)
    p_values = get_list(entries, "P", exponent) or [None]
    base_exponents = tuple(get_list(entries, "filter", exponent)) or DEFAULT_ABLATION_EXPONENTS
    l_values = get_list(entries, "L", at_least(int, 0, len(base_exponents))) or [None]
    depth_values = get_list(entries, "depth", int) or [None]
    reps = get_scalar(entries, "reps", at_least(int, 1), 1)
    if p_values != [None] and l_values != [None]:
        raise ConfigError(f"{source}: sweep either P or L, not both")
    axes = [methods, r_values, acs_values, p_values, l_values, depth_values, list(range(reps))]
    if all(len(axis) < 2 for axis in axes):
        raise ConfigError(f"{source}: ablation needs at least one axis with two or more values")

    # an axis a method ignores is blanked before seeding, so each distinct
    # reconstruction runs once: GRAPPA has no network (depth) and only the
    # multi-weight methods have a filter bank (P, L)
    cells = set()
    for method, R, acs, p, l_count, depth, rep in itertools.product(*axes):
        if method not in MULTIWEIGHT:
            p = l_count = None
        if method not in NETWORKS:
            depth = None
        seed = _cell_seed(master, method, R, acs, p, l_count, depth, rep)
        cells.add((method, R, acs, p, l_count, depth, rep, seed))
    cells = sorted(cells, key=lambda c: tuple(str(v) for v in c))

    rows, curve_rows = [], []
    for cell in cells:
        columns = dict(zip(AXIS_COLUMNS, cell), method=cell[0].replace("_", "-"))
        try:
            metrics, curve = _run_ablation_cell(full, ref_sos, cell, patterns, base_exponents, optimizer)
        except Exception as exc:  # cell failures must not stop the sweep
            iters = optimizer.iters if cell[0] in NETWORKS else 0  # GRAPPA trains nothing
            metrics, curve = {"train_iters": iters, "status": f"error: {exc}"}, []
        rows.append({**columns, **metrics})
        curve_rows += [{**columns, "iteration": it, "loss": loss} for it, loss in enumerate(curve, 1)]
    _write_csv(args.out, ABLATE_COLUMNS, rows)
    if args.curves:
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
        epilog="mwrecon runs worker threads and helper processes only when BLAS runs fewer threads "
               "than there are CPUs, for example: OPENBLAS_NUM_THREADS=1 mwrecon recon ...",
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

    def add_optimizer_options(p):
        p.add_argument("--iters", type=int, help=f"training iterations (default {OptimizerConfig.iters})")
        p.add_argument("--lr", type=float, help=f"Adam learning rate (default {OptimizerConfig.lr})")

    def add_recon_options(p):
        p.add_argument("--config", help="key = value config file")
        add_optimizer_options(p)
        p.add_argument("--filters", help="high-pass exponents, e.g. 0.6,0.2")
        p.add_argument("--filter-eps", type=float, dest="filter_eps")
        p.add_argument("--ridge", type=float, help="GRAPPA's absolute damping, added to the diagonal "
                       f"of A^H A (default {ReconConfig.ridge})")
        p.add_argument("--grappa-kernel", dest="grappa_kernel", help=f"bx:B,by:T (default {_GRAPPA_KERNEL})")

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
    add_optimizer_options(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "recon" and (args.pattern is None) == (args.acs is None):
        parser.error("recon takes either --pattern FILE or both --R and --acs")
    try:
        args.seed = _flag(args, "seed", _SEED)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
