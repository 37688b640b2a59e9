import csv

import numpy as np
import pytest

from mwrecon.cli import main
from mwrecon.kspace import load_kspace
from mwrecon.network import LayerSpec


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def scan(tmp_path):
    """32x32, 4-coil phantom and its R=4 undersampling, written through the CLI."""
    full, under = tmp_path / "full.mwks", tmp_path / "under.mwks"
    assert main(["--quiet", "--seed", "3", "phantom", "--size", "32", "--coils", "4",
                 "--snr", "30", "--out", str(full)]) == 0
    assert main(["--quiet", "undersample", "--input", str(full), "--R", "4", "--acs", "16",
                 "--out", str(under)]) == 0
    return tmp_path, full, under


def recon(tmp_path, under, name, *extra):
    out = tmp_path / f"{name}.mwks"
    argv = ["--quiet", *extra, "recon", "--method", "raki", "--input", str(under), "--R", "4",
            "--acs", "16", "--iters", "5", "--out", str(out), "--report", str(tmp_path / f"{name}.csv"),
            "--ref", str(tmp_path / "full.mwks")]
    assert main(argv) == 0
    return out, read_rows(tmp_path / f"{name}.csv")


def test_recon_without_seed_then_eval(scan):
    tmp_path, full, under = scan
    out, rows = recon(tmp_path, under, "default")
    assert len(rows) == 1
    assert rows[0]["method"] == "raki" and rows[0]["seed"] == "0" and rows[0]["train_iters"] == "5"
    # the default seed is the one the report names
    seeded, _ = recon(tmp_path, under, "seeded", "--seed", "0")
    assert np.array_equal(load_kspace(out).data, load_kspace(seeded).data)

    report = tmp_path / "eval.csv"
    argv = ["--quiet", "eval", "--recon", str(out), "--ref", str(full), "--report", str(report)]
    assert main(argv) == 0
    (row,) = read_rows(report)
    assert float(row["psnr"]) == pytest.approx(float(rows[0]["psnr"]), abs=1e-3)
    assert 0 < float(row["ssim"]) <= 1 and float(row["rmse"]) > 0


def test_recon_takes_the_seed_from_the_config(scan):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text("seed = 5\n", encoding="utf-8")
    _, rows = recon(tmp_path, under, "configured", "--seed", "5")
    assert rows[0]["seed"] == "5"
    argv = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
            "--iters", "5", "--config", str(config), "--out", str(tmp_path / "c.mwks"),
            "--report", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    (row,) = read_rows(tmp_path / "c.csv")
    assert row["seed"] == "5"
    from_config = load_kspace(tmp_path / "c.mwks").data
    assert np.array_equal(from_config, load_kspace(tmp_path / "configured.mwks").data)


def test_recon_reads_the_pattern_file(scan):
    tmp_path, full, _ = scan
    under, pattern = tmp_path / "under_p.mwks", tmp_path / "under.pattern"
    assert main(["--quiet", "undersample", "--input", str(full), "--R", "4", "--acs", "16",
                 "--out", str(under), "--pattern-out", str(pattern)]) == 0
    out, report = tmp_path / "p.mwks", tmp_path / "p.csv"
    assert main(["--quiet", "recon", "--method", "raki", "--input", str(under), "--pattern",
                 str(pattern), "--iters", "5", "--out", str(out), "--report", str(report)]) == 0
    (row,) = read_rows(report)
    assert (row["R"], row["acs"]) == ("4", "16")
    explicit, _ = recon(tmp_path, under, "explicit")
    assert np.array_equal(load_kspace(out).data, load_kspace(explicit).data)


@pytest.mark.parametrize("given", [
    ["--pattern", "p.txt", "--R", "4"],
    ["--pattern", "p.txt", "--acs", "16"],
    ["--R", "4"],
    [],
])
def test_recon_needs_a_pattern_or_r_and_acs(given, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recon", "--method", "raki", "--input", "x.mwks", "--out", "y.mwks", *given])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--pattern" in err and "--R" in err


def test_compare_without_seed(scan):
    tmp_path, full, _ = scan
    report = tmp_path / "compare.csv"
    argv = ["--quiet", "compare", "--input", str(full), "--methods", "raki,rraki", "--R", "4",
            "--acs", "16", "--iters", "5", "--report", str(report)]
    assert main(argv) == 0
    rows = read_rows(report)
    assert [r["method"] for r in rows] == ["raki", "rraki"]
    assert all(r["seed"] == "0" for r in rows)
    assert all(np.isfinite(float(r["psnr"])) for r in rows)


def test_ablate_is_reproducible_and_reports_bad_depths(tmp_path, capsys):
    def ablate(name, depths):
        config = tmp_path / f"{name}.cfg"
        config.write_text(f"size = 32\ncoils = 4\nacs = 16\nmethod = rraki\ndepth = {depths}\n"
                          "iters = 2\n", encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        return main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]), out

    code, first = ablate("first", "1, 3")
    assert code == 0
    rows = read_rows(first)
    assert [(r["method"], r["depth"], r["status"]) for r in rows] == [("rraki", "1", "ok"), ("rraki", "3", "ok")]
    assert all(np.isfinite(float(r["psnr"])) for r in rows)
    code, second = ablate("second", "1, 3")
    assert code == 0 and first.read_bytes() == second.read_bytes()

    capsys.readouterr()
    code, bad = ablate("bad", "3, 4")
    assert code == 1
    status = {r["depth"]: r["status"] for r in read_rows(bad)}
    assert status["3"] == "ok"
    assert status["4"].startswith("error:") and "choose from [1, 2, 3, 5]" in status["4"]
    assert "unsupported depth 4" in capsys.readouterr().err


def test_ablate_runs_each_distinct_reconstruction_once(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nmethod = grappa, raki, mw_raki\n"
                      "depth = 1, 3\nP = 0.2, 0.6\niters = 1\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [(r["method"], r["depth"], r["P"], r["status"]) for r in rows] == [
        ("grappa", "", "", "ok"),
        ("mw-raki", "1", "0.2", "ok"),
        ("mw-raki", "3", "0.2", "ok"),
        ("mw-raki", "1", "0.6", "ok"),
        ("mw-raki", "3", "0.6", "ok"),
        ("raki", "1", "", "ok"),
        ("raki", "3", "", "ok"),
    ]


def test_ablate_scores_a_synthesized_scene_against_its_noise_free_image(tmp_path, monkeypatch):
    from mwrecon import cli
    from mwrecon.phantom import make_coil_maps, shepp_logan, simulate_kspace
    from mwrecon.pipelines import reconstruct_image

    references = []
    score = cli.evaluate

    def spy(recon, ref):
        references.append(ref)
        return score(recon, ref)

    monkeypatch.setattr(cli, "evaluate", spy)
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nsnr_db = 20\nscene_seed = 3\n"
                      "method = grappa, raki\niters = 1\n", encoding="utf-8")
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 0
    maps = make_coil_maps(4, 32, 32, seed=3)
    clean = reconstruct_image(simulate_kspace(shepp_logan(32, 32), maps))
    noisy = reconstruct_image(simulate_kspace(shepp_logan(32, 32), maps, snr_db=20, seed=3))
    assert len(references) == 2
    for ref in references:
        assert np.array_equal(ref, clean) and not np.allclose(ref, noisy)


def test_recon_names_an_unknown_optimizer_from_the_config(scan, capsys):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text("iters = 2\noptimizer = rmsprop\n", encoding="utf-8")
    argv = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
            "--config", str(config), "--out", str(tmp_path / "r.mwks")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{config}:2: unknown key 'optimizer'" in err


def test_ablate_names_an_unknown_optimizer_from_the_config(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nmethod = raki\ndepth = 1, 2\n"
                      "optimizer = rmsprop\n", encoding="utf-8")
    argv = ["--quiet", "ablate", "--config", str(config), "--out", str(tmp_path / "a.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{config}:6: unknown key 'optimizer'" in err


@pytest.mark.parametrize("text, line, key", [
    ("iter = 3\n", 1, "iter"),
    ("lr = 0.01\nmomentum = 0.9\n", 2, "momentum"),
    ("seed = 1\nsnr_db = 20\n", 2, "snr_db"),  # an ablate key
], ids=["misspelt_iters", "momentum", "ablate_key"])
def test_recon_rejects_an_unknown_config_key(scan, capsys, text, line, key):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text(text, encoding="utf-8")
    argv = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
            "--config", str(config), "--out", str(tmp_path / "r.mwks")]
    assert main(argv) == 2
    assert f"{config}:{line}: unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "r.mwks").exists()


def test_ablate_rejects_an_unknown_config_key(tmp_path, capsys):
    # `snr` for `snr_db` would otherwise score a noise-free scene
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nmethod = raki\ndepth = 1, 2\n"
                      "iters = 1\nsnr = 20\n", encoding="utf-8")
    argv = ["--quiet", "ablate", "--config", str(config), "--out", str(tmp_path / "a.csv")]
    assert main(argv) == 2
    assert f"{config}:7: unknown key 'snr'" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("argv", [
    ["recon", "--method", "raki", "--input", "u.mwks", "--R", "4", "--acs", "16", "--out", "r.mwks"],
    ["compare", "--input", "f.mwks", "--methods", "raki", "--R", "4", "--acs", "16", "--report", "c.csv"],
    ["ablate", "--config", "sweep.cfg", "--out", "a.csv"],
], ids=["recon", "compare", "ablate"])
def test_there_is_no_optimizer_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--optimizer", "adam"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --optimizer adam" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["L = 1, -1", "reps = 0"], ids=["negative_L", "zero_reps"])
def test_ablate_rejects_out_of_range_counts(tmp_path, capsys, line):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = 4\nacs = 16\nmethod = mw_raki\ndepth = 1, 2\n{line}\n"
                      "iters = 1\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"{config}:6: bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_reads_P_like_the_filter_key(tmp_path, capsys):
    def ablate(p_line):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"size = 32\ncoils = 4\nacs = 16\nmethod = mw_raki\ndepth = 1\n{p_line}\n"
                          "iters = 1\n", encoding="utf-8")
        out = tmp_path / "a.csv"
        return main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]), config, out

    code, _, out = ablate("P = P:0.5, 0.2")
    assert code == 0
    assert [(r["P"], r["status"]) for r in read_rows(out)] == [("0.2", "ok"), ("0.5", "ok")]
    out.unlink()
    code, config, out = ablate("P = 0.5, -1")
    assert code == 2
    assert f"{config}:6: bad value for key 'P': '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["P = 0.5, 300", "filter = 0.6, 2000"], ids=["P", "filter"])
def test_ablate_rejects_an_exponent_whose_gain_underflows_before_any_cell(tmp_path, capsys, line):
    # on the 32 x 32 scene the largest gain is 0.5**P, which float32 holds only up to P = 126
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = 4\nacs = 16\nmethod = mw_raki\ndepth = 1, 2\n{line}\n"
                      "iters = 1\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    key, value = line.split(" = ")
    assert f"{config}:6: bad value for key '{key}': '{value.split(', ')[1]}'" in capsys.readouterr().err
    assert not out.exists()


def spy_on_reconstruct(monkeypatch):
    """Record every (config, result) the CLI's reconstruct call sees."""
    from mwrecon import cli

    calls = []
    real = cli.reconstruct

    def spy(measured, cfg):
        calls.append((cfg, real(measured, cfg)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "reconstruct", spy)
    return calls


def test_recon_config_keys_reach_the_recon_config(scan, monkeypatch):
    from mwrecon.grappa import KernelGeometry
    from mwrecon.network import NetworkArch

    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text("layers = 16@3x2, out@3x2\nskip = out@3x2\nfilter = P:0.5\nfilter_eps = 1e-4\n",
                      encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)

    def run(method, *extra):
        argv = ["--quiet", "recon", "--method", method, "--input", str(under), "--R", "4", "--acs", "16",
                "--out", str(tmp_path / "r.mwks"), *extra]
        assert main(argv) == 0
        return calls[-1][0]

    cfg = run("mw-rraki", "--iters", "1", "--config", str(config))
    out = LayerSpec(6, 3, 2)  # 2·(R−1) channels at R = 4
    assert cfg.arch == NetworkArch(8, (LayerSpec(16, 3, 2), out), skip=out)
    assert cfg.multiweight.filters[0].is_all_pass
    assert [f.P for f in cfg.multiweight.filters[1:]] == [0.5]
    assert cfg.multiweight.eps == 1e-4
    cfg = run("mw-rraki", "--iters", "1", "--config", str(config), "--filters", "")
    assert len(cfg.multiweight.filters) == 1 and cfg.multiweight.filters[0].is_all_pass
    assert cfg.multiweight.eps == 1e-4
    cfg = run("grappa", "--ridge", "1e-3", "--grappa-kernel", "bx:2,by:2")
    assert cfg.grappa_geometry == KernelGeometry(R=4, bx_half=2, by_taps=2)
    assert cfg.ridge == 1e-3
    cfg = run("grappa", "--ridge", "1e-3", "--grappa-kernel", "bx:1,by:3")
    assert cfg.grappa_geometry == KernelGeometry(R=4, bx_half=1, by_taps=3)


def test_recon_names_a_bad_layer_spec_or_grappa_kernel(scan, capsys):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text("layers = 16@3\n", encoding="utf-8")

    def run(method, *extra):
        return main(["--quiet", "recon", "--method", method, "--input", str(under), "--R", "4",
                     "--acs", "16", "--out", str(tmp_path / "r.mwks"), *extra])

    assert run("raki", "--iters", "1", "--config", str(config)) == 2
    assert f"{config}:1: bad value for key 'layers': '16@3'" in capsys.readouterr().err
    assert run("grappa", "--grappa-kernel", "bx:1") == 2
    assert "flag --grappa-kernel needs both bx: and by:, got 'bx:1'" in capsys.readouterr().err
    assert not (tmp_path / "r.mwks").exists()


@pytest.mark.parametrize("text, line, key, value", [
    ("layers = 32@5x2:relu\n", 1, "layers", "32@5x2:relu"),
    ("layers = 32@5x2, out@3x2\nskip = out@3x2:identity\n", 2, "skip", "out@3x2:identity"),
], ids=["layer", "skip"])
def test_a_layer_spec_names_no_activation(scan, capsys, monkeypatch, text, line, key, value):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text(text, encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "r.mwks"
    assert main(["--quiet", "recon", "--method", "rraki", "--input", str(under), "--R", "4", "--acs", "16",
                 "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:{line}: bad value for key '{key}': '{value}'" in capsys.readouterr().err
    assert calls == [] and not out.exists()


# at R = 4 a final layer must emit 2 (R - 1) = 6 channels, as `out@3x2` does
WRONG_FINAL = "bad value for key 'layers': the final layer emits 4 channels but R=4 needs 6"


@pytest.mark.parametrize("text, line", [
    ("layers = 32@5x2, 4@3x2\n", 1),
    ("iters = 1\nlayers = 32@5x2\nlayers = 4@3x2\nlayers = ,\n", 3),  # the line the final layer is on
], ids=["one_line", "later_line"])
def test_recon_rejects_a_final_layer_of_the_wrong_width_before_any_work(scan, capsys, monkeypatch, text, line):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text(text, encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "r.mwks"
    assert main(["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
                 "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:{line}: {WRONG_FINAL}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_compare_rejects_a_final_layer_of_the_wrong_width_before_any_method(scan, capsys, monkeypatch):
    tmp_path, full, _ = scan
    config = tmp_path / "recon.cfg"
    config.write_text("layers = 32@5x2, 4@3x2\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"
    assert main(["--quiet", "compare", "--input", str(full), "--methods", "grappa,raki", "--R", "4",
                 "--acs", "16", "--iters", "1", "--config", str(config), "--report", str(report)]) == 2
    assert f"{config}:1: {WRONG_FINAL}" in capsys.readouterr().err
    assert calls == [] and not report.exists()


# the skip path must be as wide as the final layer; the key is on line 2
WRONG_SKIP_CONFIG = "layers = 32@5x2, out@3x2\nskip = 4@3x2\n"
WRONG_SKIP = "2: bad value for key 'skip': the skip emits 4 channels but R=4 needs 6"


def test_recon_rejects_a_skip_of_the_wrong_width_before_any_work(scan, capsys, monkeypatch):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text(WRONG_SKIP_CONFIG, encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "r.mwks"
    assert main(["--quiet", "recon", "--method", "rraki", "--input", str(under), "--R", "4", "--acs", "16",
                 "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:{WRONG_SKIP}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_compare_rejects_a_skip_of_the_wrong_width_before_any_method(scan, capsys, monkeypatch):
    tmp_path, full, _ = scan
    config = tmp_path / "recon.cfg"
    config.write_text(WRONG_SKIP_CONFIG, encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"
    assert main(["--quiet", "compare", "--input", str(full), "--methods", "grappa,rraki", "--R", "4",
                 "--acs", "16", "--iters", "1", "--config", str(config), "--report", str(report)]) == 2
    assert f"{config}:{WRONG_SKIP}" in capsys.readouterr().err
    assert calls == [] and not report.exists()


# a `skip` key without `layers` joins the method's default stack, whose receptive
# field at R = 4 is 3 taps by 7 columns: a 9-column skip does not fit it
SKIP_ONLY = LayerSpec(6, 3, 2)
SKIP_TOO_WIDE = "2: bad value for key 'skip': skip kx width does not fit inside the main receptive field"


@pytest.mark.parametrize("method", ["raki", "mw-rraki"])
def test_recon_applies_a_skip_alone_to_the_default_stack(scan, monkeypatch, method):
    from dataclasses import replace

    from mwrecon.pipelines import default_arch

    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text("iters = 1\nskip = out@3x2\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    assert main(["--quiet", "recon", "--method", method, "--input", str(under), "--R", "4", "--acs", "16",
                 "--config", str(config), "--out", str(tmp_path / "r.mwks")]) == 0
    ((cfg, _),) = calls
    assert cfg.arch == replace(default_arch(method.replace("-", "_"), 4, 4), skip=SKIP_ONLY)


def test_recon_rejects_a_skip_alone_outside_the_default_receptive_field(scan, capsys, monkeypatch):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text("iters = 1\nskip = out@9x2\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "r.mwks"
    assert main(["--quiet", "recon", "--method", "rraki", "--input", str(under), "--R", "4", "--acs", "16",
                 "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:{SKIP_TOO_WIDE}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_compare_applies_or_rejects_a_skip_alone_before_any_method(scan, capsys, monkeypatch):
    tmp_path, full, _ = scan
    config = tmp_path / "recon.cfg"
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"
    argv = ["--quiet", "compare", "--input", str(full), "--methods", "grappa,raki", "--R", "4",
            "--acs", "16", "--iters", "1", "--config", str(config), "--report", str(report)]
    config.write_text("skip = out@9x2\n", encoding="utf-8")
    assert main(argv) == 2
    assert f"{config}:{SKIP_TOO_WIDE.replace('2:', '1:', 1)}" in capsys.readouterr().err
    assert calls == [] and not report.exists()
    config.write_text("skip = out@3x2\n", encoding="utf-8")
    assert main(argv) == 0
    assert [cfg.arch.skip if cfg.arch else None for cfg, _ in calls] == [None, SKIP_ONLY]


# at R = 4 the default depth-3 networks need 9 ACS rows; ACS 8 has two lattice rows
ACS_TOO_SMALL = "ACS too small: 8 rows; this architecture needs at least 9 fully sampled rows"


@pytest.mark.parametrize("method", ["raki", "rraki", "mw-raki", "mw-rraki"])
def test_recon_rejects_an_acs_too_small_for_the_network_before_any_work(scan, capsys, monkeypatch, method):
    tmp_path, full, _ = scan
    under, pattern = tmp_path / "acs8.mwks", tmp_path / "acs8.pattern"
    assert main(["--quiet", "undersample", "--input", str(full), "--R", "4", "--acs", "8",
                 "--out", str(under), "--pattern-out", str(pattern)]) == 0
    calls = spy_on_reconstruct(monkeypatch)
    out, report = tmp_path / "r.mwks", tmp_path / "r.csv"
    for given, flag in ((["--R", "4", "--acs", "8"], "--acs 8"), (["--pattern", str(pattern)], f"--pattern {pattern}")):
        assert main(["--quiet", "recon", "--method", method, "--input", str(under), *given, "--iters", "1",
                     "--out", str(out), "--report", str(report)]) == 2
        assert f"flag {flag}: {method} cannot train: {ACS_TOO_SMALL}" in capsys.readouterr().err
    assert calls == [] and not out.exists() and not report.exists()


def test_compare_rejects_an_acs_too_small_for_a_network_before_any_method(scan, capsys, monkeypatch):
    tmp_path, full, _ = scan
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"
    assert main(["--quiet", "compare", "--input", str(full), "--methods", "grappa,raki", "--R", "4",
                 "--acs", "8", "--iters", "1", "--report", str(report)]) == 2
    assert f"flag --acs 8: raki cannot train: {ACS_TOO_SMALL}" in capsys.readouterr().err
    assert calls == [] and not report.exists()


def test_the_acs_check_reads_the_configured_layers(scan, capsys, monkeypatch):
    tmp_path, full, _ = scan
    config = tmp_path / "recon.cfg"
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"

    def compare(acs, layers):
        config.write_text(f"layers = {layers}\n", encoding="utf-8")
        return main(["--quiet", "compare", "--input", str(full), "--methods", "raki", "--R", "4", "--acs", acs,
                     "--iters", "1", "--config", str(config), "--report", str(report)])

    # one layer of 2 ky taps needs R + 1 = 5 rows, so ACS 8 holds it
    assert compare("8", "out@3x2") == 0
    assert [cfg.arch.layers for cfg, _ in calls] == [(LayerSpec(6, 3, 2),)]
    # ACS 12 holds the default network but not four layers of 2 ky taps
    report.unlink()
    assert compare("12", "8@1x2, 8@1x2, 8@1x2, out@3x2") == 2
    assert "flag --acs 12: raki cannot train: ACS too small: 12 rows" in capsys.readouterr().err
    assert len(calls) == 1 and not report.exists()


@pytest.mark.parametrize("method, flags, message", [
    ("mw-raki", ["--filter-eps", "nan"], "flag --filter-eps must be > 0 and finite, got nan"),
    ("mw-raki", ["--filter-eps", "-1"], "flag --filter-eps must be > 0 and finite, got -1.0"),
    ("mw-rraki", ["--filters", "0"], "flag --filters must be > 0 and finite, got 0.0"),
    ("mw-rraki", ["--filters", "0.6,nan"], "flag --filters must be > 0 and finite, got nan"),
    ("mw-raki", ["--filters", "200"], "flag --filters filter exponent 200.0 underflows"),
    ("mw-rraki", ["--filters", "0.6,2000"], "flag --filters filter exponent 2000.0 underflows"),
    ("grappa", ["--ridge", "inf"], "flag --ridge must be >= 0.0 and finite, got inf"),
    ("grappa", ["--ridge", "nan"], "flag --ridge must be >= 0.0 and finite, got nan"),
    ("grappa", ["--grappa-kernel", "bx:1"], "flag --grappa-kernel needs both bx: and by:, got 'bx:1'"),
    ("grappa", ["--grappa-kernel", "bx:-1,by:2"], "flag --grappa-kernel bx_half must be >= 0, got -1"),
    ("grappa", ["--grappa-kernel", "bx:20,by:2"], "flag --grappa-kernel footprint of 41 columns x 5 rows does "
     "not fit the scan: 32 columns, 16 ACS rows from row 8 on the R=4 lattice"),
    ("grappa", ["--grappa-kernel", "bx:1,by:5"], "flag --grappa-kernel footprint of 3 columns x 17 rows does "
     "not fit the scan: 32 columns, 16 ACS rows from row 8 on the R=4 lattice"),
], ids=["nan_eps", "negative_eps", "zero_exponent", "nan_exponent", "float32_underflow", "float64_underflow",
        "inf_ridge", "nan_ridge", "half_kernel", "negative_kernel", "wide_kernel", "tall_kernel"])
def test_recon_rejects_a_bad_bank_or_grappa_flag_before_any_work(scan, capsys, method, flags, message):
    tmp_path, _, under = scan
    out = tmp_path / "r.mwks"
    argv = ["--quiet", "recon", "--method", method, "--input", str(under), "--R", "4", "--acs", "16",
            *flags, "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["filter_eps = nan", "filter_eps = 0", "filter_eps = inf", "filter = P:nan",
                                  "filter = P:2000"],
                         ids=["nan_eps", "zero_eps", "inf_eps", "nan_exponent", "underflowing_exponent"])
def test_recon_names_the_line_of_a_bad_bank_key(scan, capsys, line):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text(f"iters = 1\n{line}\n", encoding="utf-8")
    out = tmp_path / "r.mwks"
    argv = ["--quiet", "recon", "--method", "mw-raki", "--input", str(under), "--R", "4", "--acs", "16",
            "--config", str(config), "--out", str(out)]
    assert main(argv) == 2
    key = line.split(" = ")[0]
    assert f"{config}:2: bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_curves_hold_the_coil_mean_loss_per_cell_and_iteration(tmp_path, monkeypatch):
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nmethod = grappa, raki, mw_rraki\ndepth = 1, 2\n"
                      "iters = 3\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    curves = tmp_path / "curves.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(tmp_path / "a.csv"),
                 "--curves", str(curves)]) == 0
    histories = {cfg.seed: result.loss_histories for cfg, result in calls}
    assert len(histories) == 5  # one GRAPPA cell; raki and mw_rraki at two depths
    rows = read_rows(curves)
    assert sorted((int(r["seed"]), int(r["iteration"])) for r in rows) == sorted(
        (seed, it) for seed, h in histories.items() if h for it in range(1, len(h[0]) + 1)
    )
    assert len(rows) == 4 * 3
    for r in rows:
        coil_losses = [h[int(r["iteration"]) - 1] for h in histories[int(r["seed"])]]
        assert len(coil_losses) == 4
        assert float(r["loss"]) == pytest.approx(np.mean(coil_losses), rel=1e-12)


def test_recon_rejects_a_scalar_key_given_twice(scan, capsys):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text("iters = 3\nlayers = 16@3x2\nlayers = out@3x2\niters = 5\n", encoding="utf-8")
    argv = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
            "--config", str(config), "--out", str(tmp_path / "r.mwks")]
    assert main(argv) == 2
    assert f"{config}:4: key 'iters' given twice (first at line 1)" in capsys.readouterr().err
    assert not (tmp_path / "r.mwks").exists()


def test_ablate_rejects_a_scalar_key_given_twice(tmp_path, capsys):
    def ablate(last_line):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"size = 32\ncoils = 4\nacs = 16\nmethod = raki\ndepth = 1\niters = 1\n"
                          f"{last_line}\n", encoding="utf-8")
        out = tmp_path / "a.csv"
        return main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]), config, out

    code, config, out = ablate("iters = 2")
    assert code == 2
    assert f"{config}:7: key 'iters' given twice (first at line 6)" in capsys.readouterr().err
    assert not out.exists()
    code, _, out = ablate("depth = 2")  # an axis may repeat
    assert code == 0
    assert [r["depth"] for r in read_rows(out)] == ["1", "2"]


@pytest.mark.parametrize("method, text, line, key", [
    ("grappa", "layers = 16@3x2, out@3x2\n", 1, "layers"),
    ("grappa", "filter = P:0.5\n", 1, "filter"),
    ("grappa", "seed = 4\n", 1, "seed"),
    ("raki", "iters = 2\nfilter = P:0.5\n", 2, "filter"),
    ("rraki", "filter_eps = 1e-4\n", 1, "filter_eps"),
], ids=["grappa_layers", "grappa_filter", "grappa_seed", "raki_filter", "rraki_filter_eps"])
def test_recon_rejects_a_key_the_method_never_reads(scan, capsys, method, text, line, key):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text(text, encoding="utf-8")
    flags = ["--ridge", "1e-3"] if method == "grappa" else ["--iters", "1"]
    argv = ["--quiet", "recon", "--method", method, "--input", str(under), "--R", "4", "--acs", "16",
            *flags, "--config", str(config), "--out", str(tmp_path / "r.mwks")]
    assert main(argv) == 2
    assert f"{config}:{line}: key '{key}' is not read by {method}" in capsys.readouterr().err
    assert not (tmp_path / "r.mwks").exists()


def test_compare_checks_keys_against_all_its_methods(scan, capsys):
    tmp_path, full, _ = scan
    config = tmp_path / "recon.cfg"
    config.write_text("layers = 16@3x2, out@3x2\nfilter = P:0.5\n", encoding="utf-8")

    def compare(methods):
        return main(["--quiet", "compare", "--input", str(full), "--methods", methods, "--R", "4",
                     "--acs", "16", "--iters", "1", "--ridge", "1e-3", "--config", str(config),
                     "--report", str(tmp_path / "c.csv")])

    assert compare("grappa,raki") == 2
    assert f"{config}:2: key 'filter' is not read by grappa, raki" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
    assert compare("grappa,mw-raki") == 0  # mw-raki reads both keys
    assert len(read_rows(tmp_path / "c.csv")) == 2


def test_compare_rejects_a_grappa_kernel_that_does_not_fit_before_any_method(scan, capsys, monkeypatch):
    tmp_path, full, _ = scan
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"
    assert main(["--quiet", "compare", "--input", str(full), "--methods", "raki,grappa", "--R", "4",
                 "--acs", "16", "--iters", "1", "--grappa-kernel", "bx:1,by:5", "--report", str(report)]) == 2
    assert "flag --grappa-kernel footprint of 3 columns x 17 rows does not fit" in capsys.readouterr().err
    assert calls == []
    assert not report.exists()


@pytest.mark.parametrize("flags, message", [
    (["--acs", "4"], "flag --grappa-kernel (default bx:1,by:2) footprint of 3 columns x 5 rows does not fit the "
     "scan: 32 columns, 4 ACS rows from row 14 on the R=4 lattice"),
    # 3 lattice anchors x 22 columns = 66 equations for 4 coils x 2 x 11 = 88 unknowns
    (["--acs", "16", "--grappa-kernel", "bx:5,by:2"], "flags --grappa-kernel and --ridge 0: calibration system "
     "has 66 equations for 88 unknowns, so it is singular; use --ridge > 0"),
], ids=["default_kernel_too_tall", "too_few_equations"])
def test_a_grappa_fit_that_cannot_be_solved_is_rejected_before_any_method(scan, capsys, monkeypatch, flags, message):
    tmp_path, full, under = scan
    calls = spy_on_reconstruct(monkeypatch)
    out, report = tmp_path / "r.mwks", tmp_path / "r.csv"
    assert main(["--quiet", "recon", "--method", "grappa", "--input", str(under), "--R", "4", *flags,
                 "--out", str(out), "--report", str(report)]) == 2
    assert message in capsys.readouterr().err
    assert main(["--quiet", "compare", "--input", str(full), "--methods", "grappa,raki", "--R", "4",
                 "--iters", "1", *flags, "--report", str(report)]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
    assert not report.exists()


def test_reports_count_the_virtual_coils(tmp_path, monkeypatch):
    full, under = tmp_path / "full.mwks", tmp_path / "under.mwks"
    assert main(["--quiet", "--seed", "3", "phantom", "--size", "32", "--coils", "8",
                 "--snr", "30", "--out", str(full)]) == 0
    assert main(["--quiet", "undersample", "--input", str(full), "--R", "2", "--acs", "16",
                 "--out", str(under)]) == 0
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "r.csv"
    assert main(["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "2",
                 "--acs", "16", "--iters", "1", "--out", str(tmp_path / "r.mwks"),
                 "--report", str(report)]) == 0
    (row,) = read_rows(report)
    virtual = len(calls[-1][1].loss_histories)
    assert 2 <= virtual < 8  # this scene compresses
    assert row["virtual_coils"] == str(virtual)
    assert main(["--quiet", "compare", "--input", str(full), "--methods", "grappa,rraki", "--R", "2",
                 "--acs", "16", "--iters", "1", "--ridge", "1e-3", "--report", str(report)]) == 0
    rows = read_rows(report)
    assert [r["virtual_coils"] for r in rows] == ["0", str(len(calls[-1][1].loss_histories))]


@pytest.mark.parametrize("method, flag", [
    ("raki", ["--filters", "0.5"]),
    ("rraki", ["--filter-eps", "1e-4"]),
    ("raki", ["--grappa-kernel", "bx:2,by:2"]),
    ("mw-raki", ["--ridge", "1e-3"]),
    ("grappa", ["--iters", "2"]),
    ("grappa", ["--lr", "0.01"]),
    ("grappa", ["--seed", "4"]),
], ids=["raki_filters", "rraki_filter_eps", "raki_grappa_kernel", "mw_raki_ridge", "grappa_iters",
        "grappa_lr", "grappa_seed"])
def test_recon_rejects_a_flag_the_method_never_reads(scan, capsys, method, flag):
    tmp_path, _, under = scan
    name = flag[0]
    global_flag = name == "--seed"
    argv = ["--quiet", *(flag if global_flag else []), "recon", "--method", method, "--input", str(under),
            "--R", "4", "--acs", "16", *([] if global_flag else flag), "--out", str(tmp_path / "r.mwks")]
    assert main(argv) == 2
    assert f"flag {name} is not read by {method}" in capsys.readouterr().err
    assert not (tmp_path / "r.mwks").exists()


def test_compare_checks_flags_against_all_its_methods(scan, capsys):
    tmp_path, full, _ = scan

    def compare(methods, *flags):
        return main(["--quiet", "compare", "--input", str(full), "--methods", methods, "--R", "4",
                     "--acs", "16", "--iters", "1", *flags, "--report", str(tmp_path / "c.csv")])

    assert compare("grappa,raki", "--filters", "0.5") == 2
    assert "flag --filters is not read by grappa, raki" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
    assert compare("raki,rraki", "--ridge", "1e-3") == 2
    assert "flag --ridge is not read by raki, rraki" in capsys.readouterr().err
    assert compare("grappa,mw-raki", "--ridge", "1e-3", "--filters", "0.5") == 0
    assert len(read_rows(tmp_path / "c.csv")) == 2


@pytest.mark.parametrize("line", ["iters = 0", "lr = -1"], ids=["zero_iters", "negative_lr"])
def test_recon_rejects_out_of_range_optimizer_values(scan, capsys, line):
    tmp_path, _, under = scan
    config = tmp_path / "recon.cfg"
    config.write_text(f"{line}\n", encoding="utf-8")
    argv = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
            "--config", str(config), "--out", str(tmp_path / "r.mwks")]
    assert main(argv) == 2
    key = line.split(" = ")[0]
    assert f"{config}:1: bad value for key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "r.mwks").exists()


@pytest.mark.parametrize("line", ["iters = 0", "lr = -1"], ids=["zero_iters", "negative_lr"])
def test_ablate_rejects_out_of_range_optimizer_values(tmp_path, capsys, line):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = 4\nacs = 16\nmethod = raki\ndepth = 1, 2\n{line}\n",
                      encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"{config}:6: bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--iters", "0"), ("--lr", "-1"), ("--lr", "nan")],
                         ids=["zero_iters", "negative_lr", "nan_lr"])
def test_recon_and_compare_name_an_out_of_range_optimizer_flag(scan, capsys, flag, value):
    tmp_path, full, under = scan
    recon = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
             flag, value, "--out", str(tmp_path / "r.mwks")]
    compare = ["--quiet", "compare", "--input", str(full), "--methods", "raki", "--R", "4", "--acs", "16",
               flag, value, "--report", str(tmp_path / "c.csv")]
    for argv in (recon, compare):
        assert main(argv) == 2
        assert f"flag {flag} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "r.mwks").exists() and not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("flag, value", [("--iters", "0"), ("--lr", "-1")], ids=["zero_iters", "negative_lr"])
def test_ablate_names_an_out_of_range_optimizer_flag(tmp_path, capsys, flag, value):
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nmethod = raki\ndepth = 1, 2\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out), flag, value]) == 2
    assert f"flag {flag} must be >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods, line, key, readers", [
    ("grappa", "iters = 7", "iters", "grappa"),
    ("grappa", "lr = 0.5", "lr", "grappa"),
    ("grappa", "depth = 1", "depth", "grappa"),
    ("grappa, raki", "P = 0.5", "P", "grappa, raki"),
    ("raki, rraki", "L = 1", "L", "raki, rraki"),
    ("grappa, rraki", "filter = P:0.5", "filter", "grappa, rraki"),
], ids=["grappa_iters", "grappa_lr", "grappa_depth", "no_mw_P", "no_mw_L", "no_mw_filter"])
def test_ablate_rejects_a_key_no_swept_method_reads(tmp_path, capsys, methods, line, key, readers):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = 4\nacs = 16\nR = 2, 4\nmethod = {methods}\n{line}\n",
                      encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:6: key '{key}' is not read by {readers}" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_rejects_an_optimizer_flag_no_swept_method_reads(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nR = 2, 4\nmethod = grappa\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out), "--iters", "2"]) == 2
    assert "flag --iters is not read by grappa" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--quiet", "--seed", "4", "ablate", "--config", str(config), "--out", str(out)]) == 0
    assert [r["method"] for r in read_rows(out)] == ["grappa", "grappa"]


def test_recon_rejects_a_ref_on_another_grid_before_any_work(scan, capsys):
    tmp_path, _, under = scan
    ref48 = tmp_path / "ref48.mwks"
    assert main(["--quiet", "phantom", "--size", "48", "--coils", "4", "--out", str(ref48)]) == 0
    out, report = tmp_path / "r.mwks", tmp_path / "r.csv"
    argv = ["--quiet", "recon", "--method", "grappa", "--input", str(under), "--R", "4", "--acs", "16",
            "--ref", str(ref48), "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    assert "--ref grid is 48x48 but --input grid is 32x32" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("flags, message", [
    (["--filters", "200"], "flag --filters filter exponent 200.0 underflows"),
    (["--filter-eps", "nan"], "flag --filter-eps must be > 0 and finite, got nan"),
], ids=["underflowing_filters", "nan_filter_eps"])
def test_compare_rejects_a_bad_setting_before_any_run(scan, capsys, monkeypatch, flags, message):
    # raki comes first and reads neither flag, so only a check of every method up front stops it
    tmp_path, full, _ = scan
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"
    argv = ["--quiet", "compare", "--input", str(full), "--methods", "raki,mw-raki", "--R", "4",
            "--acs", "16", "--iters", "1", *flags, "--report", str(report)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not report.exists()


@pytest.mark.parametrize("lines, value", [
    ("L = 1, 5\n", "5"),  # the four default exponents
    ("filter = 0.5, 0.2\nL = 1, 3\n", "3"),
], ids=["default_filters", "configured_filters"])
def test_ablate_rejects_an_L_beyond_the_filters_before_any_cell(tmp_path, capsys, monkeypatch, lines, value):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = 4\nacs = 16\nmethod = mw_raki\n{lines}iters = 1\n",
                      encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    line = 4 + lines.count("\n")
    assert f"{config}:{line}: bad value for key 'L': '{value}'" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("text, message", [
    ("coils = 4\nacs = 16\nmethod = raki\ndepth = 1, 2\n",
     "ablation config needs `input = file.mwks` or `size = N`"),
    ("size = 32\ncoils = 4\nacs = 16\ndepth = 1, 2\n",
     "ablation config needs at least one `method = ...` line"),
    ("size = 32\ncoils = 4\nacs = 16\nmethod = mw_raki\nP = 0.5, 0.2\nL = 1\n",
     "sweep either P or L, not both"),
    ("size = 32\ncoils = 4\nacs = 16\nmethod = raki\ndepth = 1\n",
     "ablation needs at least one axis with two or more values"),
], ids=["no_scene", "no_method", "P_and_L", "no_axis"])
def test_ablate_rejects_a_config_that_defines_no_sweep(tmp_path, capsys, text, message):
    config = tmp_path / "sweep.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("coils, acs, message", [
    (4, 4, "footprint of 3 columns x 5 rows does not fit the scan: 32 columns, 4 ACS rows from row 14"),
    # 1 lattice anchor x 30 columns = 30 equations for 8 coils x 2 x 3 = 48 unknowns
    (8, 7, "calibration system has 30 equations for 48 unknowns, so it is singular; use a taller acs"),
], ids=["footprint", "singular"])
def test_ablate_checks_every_grappa_cell_before_any_cell(tmp_path, capsys, monkeypatch, coils, acs, message):
    # the ACS-16 cell sorts first and fits; the other cell's GRAPPA fit cannot be made
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = {coils}\nacs = {acs}, 16\nR = 4\nmethod = grappa, raki\n"
                      "iters = 1\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: keys 'R' and 'acs' give grappa R = 4, acs = {acs}: {message}" in err
    assert calls == [] and not out.exists()


def test_ablate_reports_no_training_for_a_failed_grappa_cell(tmp_path, capsys, monkeypatch):
    from mwrecon import cli

    real = cli.reconstruct

    def fail_grappa(measured, cfg):
        if cfg.method == "grappa":
            raise np.linalg.LinAlgError("Singular matrix")
        return real(measured, cfg)

    monkeypatch.setattr(cli, "reconstruct", fail_grappa)
    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nmethod = grappa, raki\niters = 3\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 1
    assert [(r["method"], r["train_iters"], r["status"]) for r in read_rows(out)] == [
        ("grappa", "0", "error: Singular matrix"),
        ("raki", "3", "ok"),
    ]
    assert "error: Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["grappa", "raki"])
def test_recon_rejects_a_pattern_on_another_grid_before_any_work(scan, capsys, monkeypatch, method):
    tmp_path, _, under = scan
    pattern = tmp_path / "p40.pattern"
    pattern.write_text("ny = 40\nR = 4\nacs_count = 16\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out, report = tmp_path / "r.mwks", tmp_path / "r.csv"
    argv = ["--quiet", "recon", "--method", method, "--input", str(under), "--pattern", str(pattern),
            "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    assert "--pattern expects 40 rows but --input grid has 32" in capsys.readouterr().err
    assert calls == [] and not out.exists() and not report.exists()


@pytest.mark.parametrize("command, message", [
    (["recon", "--method", "raki", "--R", "0", "--acs", "16", "--out", "{out}"],
     "flag --R must be >= 2 and finite, got 0"),
    (["recon", "--method", "raki", "--R", "4", "--acs", "40", "--out", "{out}"],
     "flag --acs must be <= 32, got 40"),
    (["compare", "--methods", "raki", "--R", "1", "--acs", "16", "--report", "{out}"],
     "flag --R must be >= 2 and finite, got 1"),
    (["undersample", "--R", "4", "--acs", "0", "--out", "{out}"],
     "flag --acs must be >= 1 and finite, got 0"),
], ids=["recon_R", "recon_acs", "compare_R", "undersample_acs"])
def test_a_bad_pattern_flag_is_named_before_any_work(scan, capsys, monkeypatch, command, message):
    tmp_path, full, _ = scan
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "out"
    argv = ["--quiet", command[0], "--input", str(full), *(a.format(out=out) for a in command[1:])]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("text, line, key, value", [
    ("ny = 32\nR = 1\nacs_count = 16\n", 2, "R", "1"),
    ("ny = 32\nR = 4\nacs_count = 40\n", 3, "acs_count", "40"),
], ids=["R", "acs_count"])
def test_recon_names_the_line_of_a_bad_pattern_file_value(scan, capsys, monkeypatch, text, line, key, value):
    tmp_path, _, under = scan
    pattern = tmp_path / "bad.pattern"
    pattern.write_text(text, encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "r.mwks"
    argv = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--pattern", str(pattern),
            "--out", str(out)]
    assert main(argv) == 2
    assert f"{pattern}:{line}: bad value for key '{key}': '{value}'" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("line, value", [("R = 1, 4", "1"), ("acs = 16, 40", "40")], ids=["R", "acs"])
def test_ablate_rejects_a_bad_pattern_before_any_cell(tmp_path, capsys, monkeypatch, line, value):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = 4\nmethod = grappa\n{line}\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"{config}:4: bad value for key '{key}': '{value}'" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def refuse_synthesis(monkeypatch):
    from mwrecon import cli

    def refuse(*args, **kwargs):
        raise AssertionError("synthesized a scene from a rejected setting")

    for name in ("shepp_logan", "make_coil_maps", "simulate_kspace"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("flags, message", [
    (["--coils", "0"], "flag --coils must be >= 1 and finite, got 0"),
    (["--size", "8"], "flag --size must be >= 16 and finite, got 8"),
    (["--size", "32", "--nx", "12"], "flag --nx must be >= 16 and finite, got 12"),
    (["--snr", "nan"], "flag --snr must be a number of dB or +inf, got nan"),
    (["--snr=-inf"], "flag --snr must be a number of dB or +inf, got -inf"),
], ids=["coils", "size", "nx", "nan_snr", "minus_inf_snr"])
def test_phantom_rejects_a_bad_flag_before_any_synthesis(tmp_path, capsys, monkeypatch, flags, message):
    refuse_synthesis(monkeypatch)
    out = tmp_path / "p.mwks"
    assert main(["--quiet", "phantom", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_phantom_at_plus_inf_snr_is_noise_free(tmp_path):
    clean, inf = tmp_path / "clean.mwks", tmp_path / "inf.mwks"
    phantom = ["--quiet", "--seed", "2", "phantom", "--size", "16", "--coils", "2"]
    assert main([*phantom, "--out", str(clean)]) == 0
    assert main([*phantom, "--snr", "inf", "--out", str(inf)]) == 0
    assert clean.read_bytes() == inf.read_bytes()


@pytest.mark.parametrize("line, key, value", [
    ("size = 8", "size", "8"),
    ("coils = 0", "coils", "0"),
    ("snr_db = nan", "snr_db", "nan"),
    ("snr_db = -inf", "snr_db", "-inf"),
], ids=["size", "coils", "nan_snr", "minus_inf_snr"])
def test_ablate_rejects_a_bad_scene_key_before_any_synthesis(tmp_path, capsys, monkeypatch, line, key, value):
    refuse_synthesis(monkeypatch)
    config = tmp_path / "sweep.cfg"
    scene = "" if key == "size" else "size = 32\n"
    config.write_text(f"{scene}{line}\nmethod = grappa\nR = 2, 4\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    lineno = 1 + scene.count("\n")
    assert f"{config}:{lineno}: bad value for key '{key}': '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods, repeated", [("raki,raki", "raki"), ("grappa,mw-raki,MW_RAKI", "mw-raki")])
def test_compare_rejects_a_repeated_method_before_any_run(scan, capsys, monkeypatch, methods, repeated):
    tmp_path, full, _ = scan
    calls = spy_on_reconstruct(monkeypatch)
    report = tmp_path / "c.csv"
    argv = ["--quiet", "compare", "--input", str(full), "--methods", methods, "--R", "4", "--acs", "16",
            "--iters", "1", "--report", str(report)]
    assert main(argv) == 2
    assert f"flag --methods names {repeated} twice" in capsys.readouterr().err
    assert calls == [] and not report.exists()


def test_phantom_without_seed_uses_seed_0(tmp_path):
    phantom = ["--quiet", "phantom", "--size", "16", "--coils", "2", "--snr", "20", "--out"]
    first, second, zero = tmp_path / "a.mwks", tmp_path / "b.mwks", tmp_path / "zero.mwks"
    assert main([*phantom, str(first)]) == 0
    assert main([*phantom, str(second)]) == 0
    assert main(["--seed", "0", *phantom, str(zero)]) == 0
    assert first.read_bytes() == second.read_bytes() == zero.read_bytes()


@pytest.mark.parametrize("command", ["phantom", "recon", "ablate"])
def test_a_negative_seed_flag_is_named_before_any_work(scan, capsys, monkeypatch, command):
    tmp_path, full, under = scan
    refuse_synthesis(monkeypatch)
    calls = spy_on_reconstruct(monkeypatch)
    config = tmp_path / "sweep.cfg"
    config.write_text(f"input = {full}\nacs = 16\nmethod = grappa\nR = 2, 4\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "phantom": ["phantom", "--size", "16", "--out", str(out)],
        "recon": ["recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
                  "--iters", "1", "--out", str(out)],
        "ablate": ["ablate", "--config", str(config), "--out", str(out)],
    }[command]
    assert main(["--quiet", "--seed", "-2", *argv]) == 2
    assert "flag --seed must be >= 0 and finite, got -2" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_recon_names_the_line_of_a_negative_seed_key(scan, capsys, monkeypatch):
    tmp_path, _, under = scan
    calls = spy_on_reconstruct(monkeypatch)
    config = tmp_path / "recon.cfg"
    config.write_text("iters = 1\nseed = -1\n", encoding="utf-8")
    out = tmp_path / "r.mwks"
    argv = ["--quiet", "recon", "--method", "raki", "--input", str(under), "--R", "4", "--acs", "16",
            "--config", str(config), "--out", str(out)]
    assert main(argv) == 2
    assert f"{config}:2: bad value for key 'seed': '-1'" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("key", ["scene_seed", "master_seed"])
def test_ablate_names_the_line_of_a_negative_seed_key(tmp_path, capsys, monkeypatch, key):
    refuse_synthesis(monkeypatch)
    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\nmethod = grappa\nR = 2, 4\n{key} = -1\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:4: bad value for key '{key}': '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["raki", "grappa"])
def test_recon_without_settings_passes_the_library_defaults(scan, monkeypatch, method):
    from mwrecon import cli
    from mwrecon.kspace import make_uniform_pattern
    from mwrecon.pipelines import ReconConfig

    tmp_path, _, under = scan
    configs = []

    def stop(measured, cfg):  # record the config, and end the run (exit 1) before 1000 iterations
        configs.append(cfg)
        raise RuntimeError("stopped before reconstructing")

    monkeypatch.setattr(cli, "reconstruct", stop)
    assert main(["--quiet", "recon", "--method", method, "--input", str(under), "--R", "4", "--acs", "16",
                 "--out", str(tmp_path / "r.mwks")]) == 1
    assert configs == [ReconConfig(method, make_uniform_pattern(32, 4, 16))]


def test_ablate_without_optimizer_keys_uses_the_library_defaults(tmp_path, monkeypatch):
    from mwrecon.network import OptimizerConfig

    config = tmp_path / "sweep.cfg"
    config.write_text("size = 32\ncoils = 4\nacs = 16\nR = 2, 4\nmethod = grappa\n", encoding="utf-8")
    calls = spy_on_reconstruct(monkeypatch)
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 0
    assert [cfg.optimizer for cfg, _ in calls] == [OptimizerConfig()] * 2


@pytest.mark.parametrize("lines, key", [
    ("size = 64\ncoils = 8\nsnr_db = 10\nscene_seed = 3\n", "size"),
    ("snr_db = 10\ncoils = 8\n", "snr_db"),
    ("scene_seed = 3\n", "scene_seed"),
], ids=["all_four", "snr_db", "scene_seed"])
def test_ablate_rejects_scene_keys_beside_an_input_file(scan, capsys, monkeypatch, lines, key):
    from mwrecon import cli

    tmp_path, full, _ = scan
    refuse_synthesis(monkeypatch)
    monkeypatch.setattr(cli, "load_kspace", lambda path: pytest.fail("loaded the input of a rejected sweep"))
    calls = spy_on_reconstruct(monkeypatch)
    config = tmp_path / "sweep.cfg"
    config.write_text(f"input = {full}\nacs = 16\nmethod = grappa\nR = 2, 4\n{lines}", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:5: key '{key}' is not read when 'input' is given" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_eval_rejects_another_grid_before_forming_either_image(scan, capsys, monkeypatch):
    from mwrecon import cli

    tmp_path, _, under = scan
    ref = tmp_path / "ref48.mwks"
    assert main(["--quiet", "phantom", "--size", "48", "--coils", "4", "--out", str(ref)]) == 0
    monkeypatch.setattr(cli, "reconstruct_image", lambda kspace: pytest.fail("formed an image"))
    report = tmp_path / "e.csv"
    assert main(["--quiet", "eval", "--recon", str(under), "--ref", str(ref), "--report", str(report)]) == 2
    assert "error: --ref grid is 48x48 but --recon grid is 32x32" in capsys.readouterr().err
    assert not report.exists()


# each exit 2 that pipelines.plan decides: the CLI prints plan's own text after the flag or key to change
@pytest.mark.parametrize("method, acs, kernel, prefix", [
    ("raki", 8, None, "flag --acs 8: raki cannot train: "),
    ("mw_rraki", 8, None, "flag --acs 8: mw-rraki cannot train: "),
    ("grappa", 4, None, "flag --grappa-kernel (default bx:1,by:2) "),
    ("grappa", 16, (1, 5), "flag --grappa-kernel "),
    ("grappa", 16, (5, 2), "flags --grappa-kernel and --ridge 0: "),
], ids=["raki_acs", "mw_rraki_acs", "default_kernel", "tall_kernel", "too_few_equations"])
def test_compare_prints_plans_rejection_after_the_flag(scan, capsys, method, acs, kernel, prefix):
    from mwrecon.grappa import KernelGeometry
    from mwrecon.kspace import make_uniform_pattern
    from mwrecon.pipelines import ReconConfig, plan

    tmp_path, full, _ = scan
    flags = ["--grappa-kernel", "bx:{},by:{}".format(*kernel)] if kernel else []
    flags += [] if method == "grappa" else ["--iters", "1"]
    assert main(["--quiet", "compare", "--input", str(full), "--methods", method.replace("_", "-"), "--R", "4",
                 "--acs", str(acs), *flags, "--report", str(tmp_path / "c.csv")]) == 2
    geometry = KernelGeometry(4, *kernel) if kernel else None
    with pytest.raises(ValueError) as planned:
        plan(ReconConfig(method, make_uniform_pattern(32, 4, acs), grappa_geometry=geometry), 4, 32, 32)
    assert f"error: {prefix}{planned.value}" in capsys.readouterr().err


@pytest.mark.parametrize("coils, acs", [(4, 4), (8, 7)], ids=["footprint", "too_few_equations"])
def test_ablate_prints_plans_rejection_of_a_grappa_cell_after_its_keys(tmp_path, capsys, coils, acs):
    from mwrecon.kspace import make_uniform_pattern
    from mwrecon.pipelines import ReconConfig, plan

    config = tmp_path / "sweep.cfg"
    config.write_text(f"size = 32\ncoils = {coils}\nacs = {acs}, 16\nR = 4\nmethod = grappa\n", encoding="utf-8")
    assert main(["--quiet", "ablate", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 2
    with pytest.raises(ValueError) as planned:
        plan(ReconConfig("grappa", make_uniform_pattern(32, 4, acs)), coils, 32, 32)
    assert f"error: {config}: keys 'R' and 'acs' give grappa R = 4, acs = {acs}: {planned.value}" in (
        capsys.readouterr().err)
