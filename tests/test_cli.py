"""Command-line surface: subcommands, config overrides, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from corrscan import load_study_region, synth_geometry
from corrscan.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, build_parser, main


@pytest.fixture
def region_files(tmp_path):
    rng = np.random.default_rng(0)
    m = 8
    xs = rng.uniform(0, 50, m)
    ys = rng.uniform(0, 50, m)
    pops = rng.uniform(500, 3000, m)
    counts = rng.multinomial(300, pops / pops.sum())
    geo = tmp_path / "geo.txt"
    pop = tmp_path / "pop.txt"
    cas = tmp_path / "cas.txt"
    geo.write_text("".join(f"r{i} {xs[i]:.3f} {ys[i]:.3f}\n" for i in range(m)))
    pop.write_text("".join(f"r{i} {pops[i]:.1f}\n" for i in range(m)))
    cas.write_text("".join(f"r{i} {counts[i]}\n" for i in range(m)))
    return str(geo), str(pop), str(cas)


def test_all_subcommands_registered():
    parser = build_parser()
    names = set(parser._subparsers._group_actions[0].choices)
    assert names == {"scan", "fit", "adjusted-scan", "surveil", "type1-study",
                     "adjusted-study", "fdr", "check-theory", "synth-geo"}


def test_scan_command(region_files, tmp_path, capsys):
    geo, pop, cas = region_files
    out = str(tmp_path / "scan.json")
    code = main(["--seed", "1", "scan", "--geo", geo, "--pop", pop, "--cas", cas,
                 "--mc-size", "99", "--out", out])
    assert code == EXIT_OK
    with open(out) as fh:
        result = json.load(fh)
    assert {"llr_star", "p_value", "primary"} <= set(result)
    assert 1 / 100 <= result["p_value"] <= 1.0


def test_scan_missing_file_is_input_error(tmp_path, capsys):
    code = main(["scan", "--geo", str(tmp_path / "nope.txt"),
                 "--pop", str(tmp_path / "nope.txt"),
                 "--cas", str(tmp_path / "nope.txt")])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_fit_command_with_config(region_files, tmp_path):
    geo, pop, cas = region_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mcmc": {"n_iter": 800, "burn_in": 300, "thin": 2}}))
    out = str(tmp_path / "fit.json")
    code = main(["--config", str(cfg), "--seed", "2", "fit", "--geo", geo,
                 "--pop", pop, "--cas", cas, "--rho-upper", "10", "--out", out])
    assert code == EXIT_OK
    with open(out) as fh:
        summary = json.load(fh)
    assert summary["config"]["n_iter"] == 800
    assert {"beta", "sigma", "rho"} <= set(summary)


def test_set_overrides_config(region_files, tmp_path):
    geo, pop, cas = region_files
    out = str(tmp_path / "fit.json")
    code = main(["--set", "mcmc.n_iter=600", "--set", "mcmc.burn_in=200",
                 "--set", "mcmc.thin=2", "--seed", "3", "fit", "--geo", geo,
                 "--pop", pop, "--cas", cas, "--rho-upper", "8", "--out", out])
    assert code == EXIT_OK
    with open(out) as fh:
        assert json.load(fh)["config"]["n_iter"] == 600


def test_set_malformed_is_input_error(region_files, capsys):
    geo, pop, cas = region_files
    code = main(["--set", "mcmc.n_iter", "fit", "--geo", geo, "--pop", pop,
                 "--cas", cas])
    assert code == EXIT_INPUT


def test_bad_config_json_is_input_error(region_files, tmp_path, capsys):
    geo, pop, cas = region_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main(["--config", str(cfg), "scan", "--geo", geo, "--pop", pop,
                 "--cas", cas])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("m, count, message", [
    (8, 0, "all counts are zero"),
    (4, 5, "at least 5 regions"),
])
def test_unfittable_data_is_an_input_error(tmp_path, capsys, m, count, message):
    ids = [f"r{i}" for i in range(m)]
    files = {"geo": "".join(f"{r} {i} {i % 3}\n" for i, r in enumerate(ids)),
             "pop": "".join(f"{r} 1000\n" for r in ids),
             "cas": "".join(f"{r} {count}\n" for r in ids)}
    argv = ["fit"]
    for key, text in files.items():
        (tmp_path / key).write_text(text)
        argv += [f"--{key}", str(tmp_path / key)]
    assert main(argv) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_synth_geo_command(tmp_path, capsys):
    # --out writes the geometry and population files that --geo and --pop read
    out = str(tmp_path / "geo.txt")
    code = main(["--seed", "4", "synth-geo", "--m", "6", "--out", out])
    assert code == EXIT_OK
    cas = tmp_path / "cas.txt"
    cas.write_text("")
    sr = load_study_region(out, out + ".pop", str(cas))
    want = synth_geometry(6, seed=4)
    assert sr.ids == want.ids
    assert np.max(np.abs(sr.centroids - want.centroids)) <= 5e-5  # written to 4 decimals
    assert np.max(np.abs(sr.populations - want.populations)) <= 5e-3  # to 2 decimals
    assert sr.total_cases() == 0


def test_type1_study_command(tmp_path, capsys):
    out = str(tmp_path / "study.json")
    code = main(["--seed", "5", "type1-study", "--m", "8", "--beta", "-5.0",
                 "--replicates", "3", "--mc-size", "39",
                 "--sigma", "0.0", "--rho", "0.0", "--out", out])
    assert code == EXIT_OK
    with open(out) as fh:
        manifest = json.load(fh)
    assert manifest["rows"]
    assert all(r["mode"] == "classical" for r in manifest["rows"])


def test_fdr_command(tmp_path, capsys):
    rng = np.random.default_rng(6)
    pvals = rng.integers(1, 1000, 200) / 1000.0
    inp = tmp_path / "p.csv"
    inp.write_text("period,p\n" + "".join(
        f"t{i},{p:.3f}\n" for i, p in enumerate(pvals)))
    out = str(tmp_path / "fdr.csv")
    code = main(["fdr", "--input", str(inp), "--mc-size", "999", "--out", out])
    assert code == EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[0] == "period,z,fdr"
    assert len(lines) == 201
    with open(out + ".json") as fh:
        meta = json.load(fh)
    assert {"delta0", "sigma0"} <= set(meta)


def test_check_theory_command(tmp_path):
    out = str(tmp_path / "theory.json")
    code = main(["--seed", "7", "check-theory", "--out", out])
    assert code == EXIT_OK
    with open(out) as fh:
        report = json.load(fh)
    assert report["all_pass"] is True
    assert {c["name"] for c in report["checks"]} == {
        "second_order_tail_expansion", "correction_sign_condition",
        "heavier_tail_onset_exists"}


@pytest.mark.parametrize("argv", [
    ["fit", "--rho-upper", "1"],
    ["adjusted-scan", "--mc-size", "50"],
    ["scan", "--mc-size", "0"],
])
def test_bad_model_arguments_are_input_errors(region_files, argv, capsys):
    geo, pop, cas = region_files
    code = main([argv[0], "--geo", geo, "--pop", pop, "--cas", cas, *argv[1:]])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, argv", [
    ([], ["type1-study", "--replicates", "0"]),
    ([], ["type1-study", "--mc-size", "5"]),
    (["--set", "mode=bogus"], ["adjusted-study"]),
    (["--set", "mcmc.n_iter=100", "--set", "mcmc.burn_in=5000"], ["fit"]),
])
def test_bad_study_and_chain_settings_are_input_errors(region_files, flags, argv, capsys):
    geo, pop, cas = region_files
    code = main([*flags, argv[0], "--geo", geo, "--pop", pop, "--cas", cas, *argv[1:]])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, corrscan.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_adjusted_study_refuses_the_classical_mode(region_files, capsys):
    geo, pop, cas = region_files
    code = main(["--set", "mode=classical", "adjusted-study", "--geo", geo, "--pop", pop,
                 "--cas", cas, "--replicates", "2", "--mc-size", "19"])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
