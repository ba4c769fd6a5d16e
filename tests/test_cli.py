"""Command-line surface: subcommands, config overrides, exit codes."""

import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrscan import load_study_region, synth_geometry
from corrscan.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_WARN, build_parser, main

from conftest import two_iteration_region

README = Path(__file__).resolve().parents[1] / "README.md"


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


def _subcommands():
    return build_parser()._subparsers._group_actions[0].choices


def test_all_subcommands_registered():
    names = set(_subcommands())
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


@pytest.mark.parametrize("command, m, count, message", [
    pytest.param("fit", 8, 0, "all counts are zero", id="8-0-all counts are zero"),
    pytest.param("fit", 4, 5, "at least 5 regions", id="4-5-at least 5 regions"),
    # no cases means no clusters, and the fit on all regions refuses first
    pytest.param("adjusted-scan", 8, 0, "all counts are zero", id="adjusted-scan-all-zero"),
])
def test_unfittable_data_is_an_input_error(tmp_path, capsys, command, m, count, message):
    ids = [f"r{i}" for i in range(m)]
    files = {"geo": "".join(f"{r} {i} {i % 3}\n" for i, r in enumerate(ids)),
             "pop": "".join(f"{r} 1000\n" for r in ids),
             "cas": "".join(f"{r} {count}\n" for r in ids)}
    argv = [command]
    for key, text in files.items():
        (tmp_path / key).write_text(text)
        argv += [f"--{key}", str(tmp_path / key)]
    assert main(argv) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_synth_geo_command(tmp_path, capsys):
    # --out writes the geometry, population and case files that --geo, --pop and --cas read
    out = str(tmp_path / "geo.txt")
    code = main(["--seed", "4", "synth-geo", "--m", "6", "--out", out])
    assert code == EXIT_OK
    sr = load_study_region(out, out + ".pop", out + ".cas")
    want = synth_geometry(6, seed=4)
    assert sr.ids == want.ids
    assert np.max(np.abs(sr.centroids - want.centroids)) <= 5e-5  # written to 4 decimals
    assert np.max(np.abs(sr.populations - want.populations)) <= 5e-3  # to 2 decimals
    assert sr.total_cases() == 0
    # more periods than 9, so a label sort by string would put "10" before "2"
    code = main(["--seed", "4", "synth-geo", "--m", "6", "--periods", "12", "--cases", "50",
                 "--outbreak-period", "10", "--out", out])
    assert code == EXIT_OK
    sr = load_study_region(out, out + ".pop", out + ".cas")
    want = synth_geometry(6, seed=4, periods=12, cases=50, outbreak_period=10)
    assert sr.periods == want.periods == tuple(str(k) for k in range(12))
    assert np.array_equal(sr.cases, want.cases)
    assert np.max(np.abs(sr.populations - want.populations)) <= 5e-3
    assert sr.total_cases("10") > 50 == sr.total_cases("2")


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--periods", "0"], "periods must be a whole number >= 1, got 0", id="periods=0"),
    pytest.param(["--cases", "-1"], "cases must be a whole number >= 0, got -1", id="cases=-1"),
    pytest.param(["--periods", "5", "--outbreak-period", "5"],
                 "outbreak_period must be a whole number in [0, 5), got 5", id="outbreak=periods"),
    pytest.param(["--outbreak-period", "-1"],
                 "outbreak_period must be a whole number in [0, 1), got -1", id="outbreak=-1"),
])
def test_synth_geo_bad_counts_are_input_errors(tmp_path, capsys, flags, message):
    out = tmp_path / "geo.txt"
    assert main(["synth-geo", "--m", "6", *flags, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_synth_geo_needs_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth-geo", "--m", "6"])
    assert exc.value.code == EXIT_INPUT
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_surveil_strict_exits_4_on_fit_warnings(tmp_path):
    geo = str(tmp_path / "geo.txt")
    assert main(["--seed", "0", "synth-geo", "--m", "8", "--periods", "3", "--cases", "300",
                 "--out", geo]) == EXIT_OK
    report = tmp_path / "surveil.json"
    argv = ["--seed", "0", "--set", "mcmc.n_iter=150", "--set", "mcmc.burn_in=50",
            "--set", "mcmc.thin=1", "surveil", "--geo", geo, "--pop", geo + ".pop",
            "--cas", geo + ".cas", "--train-period", "0", "--mc-size", "99",
            "--out", str(report)]
    assert main(argv) == EXIT_OK
    warnings = json.loads(report.read_text())["fit"]["warnings"]
    assert warnings
    assert main([*argv, "--strict"]) == EXIT_WARN
    assert json.loads(report.read_text())["fit"]["warnings"] == warnings


def test_surveil_strict_exits_4_on_a_failed_fdr_fit(tmp_path, monkeypatch):
    # the chain is long enough that the fit itself has no warnings, so only
    # the failed FDR fit can make --strict exit 4
    def boundary_mode(z):
        raise ValueError("density mode lies on the grid boundary; no interior mode")

    monkeypatch.setattr(importlib.import_module("corrscan.harness"), "fit_fdr_model",
                        boundary_mode)
    geo = str(tmp_path / "geo.txt")
    assert main(["--seed", "0", "synth-geo", "--m", "8", "--periods", "31", "--cases", "300",
                 "--out", geo]) == EXIT_OK
    report = tmp_path / "surveil.json"
    argv = ["--seed", "0", "--set", "mcmc.n_iter=1200", "--set", "mcmc.burn_in=400",
            "--set", "mcmc.thin=2", "surveil", "--geo", geo, "--pop", geo + ".pop",
            "--cas", geo + ".cas", "--train-period", "0", "--mc-size", "99",
            "--out", str(report)]
    assert main(argv) == EXIT_OK
    first = json.loads(report.read_text())
    assert first["fit"]["warnings"] == []
    assert first["fdr_fit"] == {"error": "density mode lies on the grid boundary; no interior mode"}
    assert main([*argv, "--strict"]) == EXIT_WARN
    assert json.loads(report.read_text()) == first


def test_surveil_reports_the_small_sample_fdr_caveat_not_on_stderr(tmp_path):
    # 30 test periods fit the FDR layer on fewer than 100 z-values: the
    # caveat is in the report, nothing reaches stderr, and --strict ignores it
    geo = str(tmp_path / "geo.txt")
    assert main(["--seed", "0", "synth-geo", "--m", "8", "--periods", "31", "--cases", "300",
                 "--out", geo]) == EXIT_OK
    report = tmp_path / "surveil.json"
    argv = ["--seed", "0", "--set", "mcmc.n_iter=1200", "--set", "mcmc.burn_in=400",
            "--set", "mcmc.thin=2", "surveil", "--geo", geo, "--pop", geo + ".pop",
            "--cas", geo + ".cas", "--train-period", "0", "--mc-size", "99",
            "--out", str(report), "--strict"]
    code = f"import sys; from corrscan.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (out.returncode, out.stderr) == (EXIT_OK, "")
    result = json.loads(report.read_text())
    assert result["fit"]["warnings"] == []
    assert result["fdr_fit"]["warnings"] == [
        "fewer than 100 z-values: density fit may be unstable"]
    assert {"delta0", "sigma0"} <= set(result["fdr_fit"])


def test_fdr_reports_the_small_sample_caveat(tmp_path):
    rng = np.random.default_rng(6)
    inp = tmp_path / "p.csv"
    for rows, caveats in ((50, ["fewer than 100 z-values: density fit may be unstable"]),
                          (200, [])):
        inp.write_text("".join(f"t{i} {p:.3f}\n"
                               for i, p in enumerate(rng.integers(1, 1000, rows) / 1000)))
        out = str(tmp_path / "fdr.csv")
        assert main(["fdr", "--input", str(inp), "--mc-size", "999", "--out", out]) == EXIT_OK
        assert json.loads(Path(out + ".json").read_text())["warnings"] == caveats


def test_adjusted_scan_strict_exits_4_unconverged(tmp_path):
    sr, _ = two_iteration_region()
    geo, pop, cas = (tmp_path / name for name in ("geo.txt", "pop.txt", "cas.txt"))
    geo.write_text("".join(f"{i} {x!r} {y!r}\n"
                           for i, (x, y) in zip(sr.ids, sr.centroids.tolist())))
    pop.write_text("".join(f"{i} {v!r}\n" for i, v in zip(sr.ids, sr.populations[0].tolist())))
    cas.write_text("".join(f"{i} {c}\n" for i, c in zip(sr.ids, sr.cases[0])))
    report = tmp_path / "adjusted.json"
    argv = ["--seed", "1", "--set", "mcmc.n_iter=1200", "--set", "mcmc.burn_in=400",
            "--set", "mcmc.thin=2", "--set", "max_iter=1", "adjusted-scan",
            "--geo", str(geo), "--pop", str(pop), "--cas", str(cas),
            "--rho-upper", "20", "--mc-size", "199", "--out", str(report)]
    assert main(argv) == EXIT_OK
    assert json.loads(report.read_text())["converged"] is False
    assert main([*argv, "--strict"]) == EXIT_WARN


@pytest.mark.parametrize("periods, message", [
    (1, "surveillance needs at least 2 periods"),
    (3, "zero cases in training period"),
])
def test_surveil_bad_periods_are_input_errors(tmp_path, capsys, periods, message):
    geo = str(tmp_path / "geo.txt")
    assert main(["--seed", "0", "synth-geo", "--m", "8", "--periods", str(periods),
                 "--cases", "300", "--out", geo]) == EXIT_OK
    cas = Path(geo + ".cas")
    # empty period 0, the training period of the multi-period case
    cas.write_text("".join(re.sub(r"^(\S+ 0) \d+$", r"\1 0", line) + "\n"
                           for line in cas.read_text().splitlines()))
    train = "all" if periods == 1 else "0"
    assert main(["surveil", "--geo", geo, "--pop", geo + ".pop", "--cas", str(cas),
                 "--train-period", train, "--mc-size", "99"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_type1_study_command(tmp_path, capsys):
    out = str(tmp_path / "study.json")
    code = main(["--seed", "5", "type1-study", "--m", "8", "--beta", "-5.0",
                 "--replicates", "3", "--mc-size", "39",
                 "--sigma", "0.0", "--rho", "0.0", "--out", out,
                 "--out-dir", str(tmp_path / "runs")])
    assert code == EXIT_OK
    with open(out) as fh:
        manifest = json.load(fh)
    assert manifest["rows"]
    assert all(r["mode"] == "classical" for r in manifest["rows"])
    # every replicate's p-value is kept, so the proportions can be recomputed
    (setting,) = manifest["pvalues"]
    assert {k: setting[k] for k in ("sigma", "rho", "mode")} == {
        "sigma": 0.0, "rho": 0.0, "mode": "classical"}
    pvalues = np.array(setting["pvalues"])
    assert len(pvalues) == manifest["rows"][0]["replicates"] == 3
    assert ((pvalues >= 1 / 40) & (pvalues <= 1)).all()
    for row in manifest["rows"]:
        assert row["proportion"] == np.mean(pvalues <= row["alpha"])
    (written,) = (tmp_path / "runs").glob("study_*.json")
    assert json.loads(written.read_text()) == manifest


def test_pvalues_rank_critical_counts_without_the_maxima(region_files, tmp_path, monkeypatch):
    # scan and surveil take their p-values from reference_pvalue and so never
    # evaluate every window of the reference; adjusted-scan needs the values
    # of its references, for the classical screen and then once per iteration
    scan_module = importlib.import_module("corrscan.scan")
    original = scan_module.llr_star_batch
    calls = []

    def counting(counts, populations, windows):
        calls.append(len(counts))
        return original(counts, populations, windows)

    for name in ("scan", "adjusted", "harness", "cli"):
        module = importlib.import_module(f"corrscan.{name}")
        if vars(module).get("llr_star_batch") is original:
            monkeypatch.setattr(module, "llr_star_batch", counting)
    geo, pop, cas = region_files
    chain = ["--set", "mcmc.n_iter=300", "--set", "mcmc.burn_in=100", "--set", "mcmc.thin=1"]
    out = tmp_path / "out.json"
    assert main(["--seed", "1", "scan", "--geo", geo, "--pop", pop, "--cas", cas,
                 "--mc-size", "99", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["p_value"] < 1 and calls == []
    multi = str(tmp_path / "multi.txt")
    assert main(["--seed", "0", "synth-geo", "--m", "8", "--periods", "3", "--cases", "300",
                 "--out", multi]) == EXIT_OK
    assert main(["--seed", "2", *chain, "surveil", "--geo", multi, "--pop", multi + ".pop",
                 "--cas", multi + ".cas", "--train-period", "0", "--mc-size", "99",
                 "--out", str(out)]) == EXIT_OK
    assert len(json.loads(out.read_text())["periods"]) == 2 and calls == []
    assert main(["--seed", "3", *chain, "adjusted-scan", "--geo", geo, "--pop", pop,
                 "--cas", cas, "--mc-size", "99", "--out", str(out)]) == EXIT_OK
    iterations = len(json.loads(out.read_text())["iterations"])
    assert iterations >= 1 and calls == [99] * (1 + iterations)


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


def test_check_theory_two_components_take_the_monte_carlo_path(capsys):
    two = ["--seed", "3", "--set", "populations=[2.5,2.5]", "--set", "sigma_mat=[1,0.5,0.5,1]"]
    assert main([*two, "check-theory"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "Monte Carlo SE" in err and "n_grid" in err and "n_samples" in err
    # the setting the message names is one the command line can change
    assert main([*two, "--set", "n_grid=[10,30,100]", "check-theory"]) == EXIT_OK


CHAINS = (("cli", "fit_model2"), ("adjusted", "fit_model2"))


def _forbid(monkeypatch, names):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the settings check")

    for module, name in names:
        monkeypatch.setattr(importlib.import_module(f"corrscan.{module}"), name, forbidden)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command reads an input file or runs a chain."""
    _forbid(monkeypatch, (("cli", "load_study_region"), ("cli", "_read_pvalues"),
                          ("cli", "synth_geometry"), ("theory", "verify_prop2"), *CHAINS))


@pytest.fixture
def no_chain(monkeypatch):
    """Fail the test if a command runs a chain."""
    _forbid(monkeypatch, CHAINS)


@pytest.mark.parametrize("settings, argv", [
    pytest.param(["mcmc.adapt_interval=0"], ["fit"], id="mcmc.adapt_interval"),
    pytest.param(["mcmc.target_accept=0.3"], ["fit"], id="mcmc.target_accept"),
    pytest.param(["mcmc.divergence_factor=5"], ["fit"], id="mcmc.divergence_factor"),
    pytest.param(["mcmc.divergence_run=10"], ["fit"], id="mcmc.divergence_run"),
    pytest.param(["fdr_threshold=0.2"], ["fdr", "--input", "p.csv"], id="fdr_threshold"),
    pytest.param(["method=monte_carlo"], ["check-theory"], id="method"),
    pytest.param(["beta=-5", "mode=adjusted_fitted"], ["adjusted-study", "--replicates", "2"],
                 id="beta"),
    pytest.param(["mcmc.n_iters=600"], ["fit"], id="mcmc.n_iters"),
    pytest.param(["alpha_scren=0.05"], ["adjusted-scan"], id="alpha_scren"),
])
def test_unread_settings_key_is_an_input_error(region_files, no_work, capsys, settings, argv):
    geo, pop, cas = region_files
    files = [] if argv[0] in ("fdr", "check-theory") else ["--geo", geo, "--pop", pop, "--cas", cas]
    flags = [arg for item in settings for arg in ("--set", item)]
    assert main([*flags, *argv, *files]) == EXIT_INPUT
    key = settings[0].partition("=")[0]
    assert f"does not read the settings key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("settings, argv, message", [
    pytest.param(["mcmc.n_iter=abc"], ["fit"], "n_iter must be", id="n_iter=abc"),
    pytest.param(["mcmc.n_iter=1e3"], ["fit"], "n_iter must be", id="n_iter=1e3"),
    pytest.param(["mcmc.thin=1.5"], ["fit"], "thin must be", id="thin=1.5"),
    # whole numbers beyond int64 and ints beyond float range are rejected, not
    # passed to np.isfinite (which raised TypeError on them)
    pytest.param(["mcmc.n_iter=99999999999999999999"], ["fit"],
                 "n_iter must be a whole number below 2**63", id="n_iter=1e20"),
    pytest.param(["alpha_screen=abc"], ["adjusted-scan"], "alpha_screen must be",
                 id="alpha_screen=abc"),
    pytest.param(["max_window_fraction=2"], ["adjusted-scan"], "max_window_fraction must be",
                 id="adjusted-scan-max_window_fraction=2"),
    pytest.param(["max_window_fraction=2"], ["scan"], "max_window_fraction must be",
                 id="scan-max_window_fraction=2"),
    pytest.param(["sigma_grid=abc"], ["type1-study"], "sigma_grid must be", id="sigma_grid=abc"),
    pytest.param([f"sigma_grid=[1{'0' * 400}]"], ["type1-study"],
                 "sigma_grid must be a list of numbers >= 0", id="sigma_grid=1e400"),
    pytest.param(["spline_df=abc"], ["fdr", 40], "spline_df must be", id="spline_df=abc"),
    pytest.param(["spline_df=2.5"], ["fdr", 40], "spline_df must be", id="spline_df=2.5"),
    pytest.param([], ["fdr", 29], "at least 30", id="fdr-29-rows"),
    *(pytest.param([], ["fdr", 40, "--mc-size", v], "M must be a whole number >= 1",
                   id=f"fdr-mc-size={v}") for v in ("0", "-1", "-2")),
    pytest.param(["n_grid=[100,abc]"], ["check-theory"], "n_grid must be", id="n_grid"),
    pytest.param(["k=abc"], ["check-theory"], "k must be", id="k=abc"),
    pytest.param(["populations=[2.5,2.5]"], ["check-theory"],
                 "sigma_mat must hold 4 entries for 2 populations", id="populations"),
])
def test_bad_settings_value_is_an_input_error(region_files, tmp_path, no_chain, capsys,
                                              settings, argv, message):
    geo, pop, cas = region_files
    if argv[0] == "fdr":
        inp = tmp_path / "p.csv"
        inp.write_text("".join(f"t{i} {(i + 1) / 100}\n" for i in range(argv[1])))
        argv = ["fdr", "--input", str(inp), *argv[2:]]
    elif argv[0] in ("fit", "adjusted-scan", "scan"):
        argv = [*argv, "--geo", geo, "--pop", pop, "--cas", cas]
    flags = [arg for item in settings for arg in ("--set", item)]
    assert main([*flags, *argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "adjusted-scan", "surveil", "type1-study",
                                     "adjusted-study"])
def test_the_smoothness_flag_is_gone(command, capsys):
    files = [] if "study" in command else ["--geo", "g", "--pop", "p", "--cas", "c"]
    period = ["--train-period", "0"] if command == "surveil" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *files, *period, "--nu", "1"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --nu 1" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["p999,abc", "p999", "p999,0"])
def test_fdr_bad_pvalue_row_is_an_input_error(tmp_path, capsys, row):
    inp = tmp_path / "p.csv"
    inp.write_text(f"period,p\nt0,0.5\n{row}\n")
    assert main(["fdr", "--input", str(inp)]) == EXIT_INPUT
    assert f"{inp}:3:" in capsys.readouterr().err


def test_readme_lists_the_settings_keys_of_every_command():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.+) \|$", README.read_text(), flags=re.M)
    documented = {command: re.findall(r"`([^`]+)`", keys) for command, keys in rows}
    declared = {name: list(p.get_default("settings")) for name, p in _subcommands().items()}
    assert documented == declared


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
    (["--seed", "-1"], ["scan"]),
    (["--seed", "-1"], ["fit"]),
    (["--seed", "-1"], ["type1-study"]),
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


def _run_python(code, *argv):
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_cli_import_loads_no_scipy_module():
    code = ("import sys, corrscan.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = _run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


SCIPY_BLOCKED = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from corrscan.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_scan_and_synth_geo_run_with_scipy_blocked(region_files, tmp_path):
    geo, pop, cas = region_files
    for argv in (["--seed", "2", "scan", "--geo", geo, "--pop", pop, "--cas", cas,
                  "--mc-size", "99", "--out"],
                 ["--seed", "2", "synth-geo", "--m", "9", "--periods", "3", "--cases", "40",
                  "--out"]):
        blocked, free = tmp_path / argv[2] / "blocked", tmp_path / argv[2] / "free"
        blocked.mkdir(parents=True)
        free.mkdir()
        out = _run_python(SCIPY_BLOCKED, *argv, str(blocked / "out.txt"))
        assert out.returncode == EXIT_OK, out.stderr
        assert main([*argv, str(free / "out.txt")]) == EXIT_OK
        names = sorted(f.name for f in free.iterdir())
        assert names == sorted(f.name for f in blocked.iterdir())
        assert all((blocked / n).read_bytes() == (free / n).read_bytes() for n in names)


def test_scan_checks_mc_size_before_reading_the_region(region_files, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the region was read before --mc-size was checked")

    monkeypatch.setattr("corrscan.cli.load_study_region", unreachable)
    geo, pop, cas = region_files
    assert main(["scan", "--geo", geo, "--pop", pop, "--cas", cas, "--mc-size", "0"]) \
        == EXIT_INPUT
    assert "M must be a whole number >= 1" in capsys.readouterr().err


def test_adjusted_study_refuses_the_classical_mode(region_files, capsys):
    geo, pop, cas = region_files
    code = main(["--set", "mode=classical", "adjusted-study", "--geo", geo, "--pop", pop,
                 "--cas", cas, "--replicates", "2", "--mc-size", "19"])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_population_file_is_an_input_error(region_files, tmp_path, capsys, value):
    geo, pop, cas = region_files
    bad = tmp_path / "bad.pop"
    lines = Path(pop).read_text().splitlines()
    bad.write_text("\n".join([f"r0 {value}", *lines[1:]]) + "\n")
    assert main(["scan", "--geo", geo, "--pop", str(bad), "--cas", cas, "--mc-size", "19"]) \
        == EXIT_INPUT
    assert "input error: non-finite population" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_population_total_is_an_input_error(region_files, tmp_path, capsys):
    geo, pop, cas = region_files
    bad = tmp_path / "huge.pop"
    ids = [line.split()[0] for line in Path(pop).read_text().splitlines()]
    bad.write_text("".join(f"{i} 1e308\n" for i in ids))
    assert main(["scan", "--geo", geo, "--pop", str(bad), "--cas", cas, "--mc-size", "19"]) \
        == EXIT_INPUT
    assert "input error: population total of period" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--set", "pop_log_mean=1000", "synth-geo", "--m", "4", "--out", "g.txt"],
                 "non-finite population", id="pop_log_mean=1000"),
    pytest.param(["--set", "pop_log_mean=abc", "synth-geo", "--m", "4", "--out", "g.txt"],
                 "pop_log_mean must be", id="pop_log_mean=abc"),
    pytest.param(["--set", "pop_log_sd=-1", "synth-geo", "--m", "4", "--out", "g.txt"],
                 "pop_log_sd must be a number >= 0", id="pop_log_sd=-1"),
    pytest.param(["type1-study", "--m", "8", "--beta", "nan", "--replicates", "2",
                  "--mc-size", "19"], "beta must be a finite number", id="beta=nan"),
    pytest.param(["type1-study", "--m", "8", "--beta", "40", "--replicates", "2",
                  "--mc-size", "19"], "beta=40 is too large", id="beta=40"),
    pytest.param(["type1-study", "--m", "8", "--replicates", "99999999999999999999"],
                 "replicates must be a whole number below 2**63", id="replicates=1e20"),
    pytest.param(["--set", "mcmc.n_iter=99999999999999999999", "adjusted-study", "--m", "8",
                  "--replicates", "2", "--mc-size", "99"],
                 "n_iter must be a whole number below 2**63", id="study-n_iter=1e20"),
    pytest.param(["type1-study", "--geo", "g.txt"], "--geo, --pop and --cas are given together",
                 id="study-geo-only"),
    pytest.param(["adjusted-study", "--pop", "g.txt.pop", "--cas", "g.txt.cas"],
                 "--geo, --pop and --cas are given together", id="study-no-geo"),
    pytest.param(["type1-study", "--geo", "g.txt", "--pop", "g.txt.pop", "--cas", "g.txt.cas",
                  "--m", "8"], "--m sizes the synthetic geometry", id="study-geo-and-m"),
    pytest.param(["synth-geo", "--m", "4", "--cases", "99999999999999999999", "--out", "g.txt"],
                 "cases must be a whole number below 2**63", id="cases=1e20"),
    pytest.param(["synth-geo", "--m", "4", "--cases", "9000000000000000000",
                  "--outbreak-period", "0", "--out", "g.txt"],
                 "cases=9000000000000000000 is too large for an outbreak",
                 id="outbreak-cases=9e18"),
    pytest.param(["--seed", "-1", "synth-geo", "--m", "4", "--out", "g.txt"],
                 "seed must be a whole number >= 0", id="synth-geo-seed=-1"),
    pytest.param(["--seed", "-1", "check-theory", "--out", "t.json"],
                 "seed must be a whole number >= 0", id="check-theory-seed=-1"),
])
def test_bad_study_and_geometry_inputs_are_input_errors(argv, message, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INPUT
    assert not os.listdir(tmp_path)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and message in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["fit", "--geo", "g", "--pop", "p", "--cas", "c"], ["--mc-size", "99"]),
    (["type1-study"], ["--rho-upper", "30"]),
    (["scan", "--geo", "g", "--pop", "p", "--cas", "c"], ["--strict"]),
    (["scan", "--geo", "g", "--pop", "p", "--cas", "c"], ["--out-dir", "x"]),
    (["type1-study"], ["--strict"]),
    (["fit", "--geo", "g", "--pop", "p", "--cas", "c"], ["--out-dir", "x"]),
])
def test_commands_refuse_flags_they_do_not_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == EXIT_INPUT
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    (["--strict"], "unrecognized arguments: --strict"),
    (["--out-dir", "x"], "invalid choice: 'x'"),
])
def test_strict_and_out_dir_are_not_global_flags(flag, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*flag, "fit", "--geo", "g", "--pop", "p", "--cas", "c"])
    assert exc.value.code == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_readme_synthetic_surveillance_commands_run(tmp_path, monkeypatch):
    block = re.search(r"^```sh\n(corrscan [^\n]*synth-geo .*?)^```$", README.read_text(),
                      flags=re.M | re.S).group(1)
    synth, surveil = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]
    assert "synth-geo" in synth and "surveil" in surveil
    monkeypatch.chdir(tmp_path)
    assert main(synth) == EXIT_OK
    assert main(surveil) == EXIT_OK
    planted = synth[synth.index("--outbreak-period") + 1]
    rows = json.loads(Path(surveil[surveil.index("--out") + 1]).read_text())["periods"]
    hot = next(r for r in rows if r["period"] == planted)
    assert hot["adjusted_p"] == min(r["adjusted_p"] for r in rows)
