"""Command-line surface.

Subcommands: scan, fit, adjusted-scan, surveil, type1-study, adjusted-study,
fdr, check-theory, synth-geo.  A --config file (JSON) supplies settings,
and --set section.key=value overrides one.  Each subcommand reads only the
settings keys it declares; any other key is an input error.  Exit codes: 0 ok,
2 input error, 3 numerical failure, 4 non-convergence warning or failed FDR fit
under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import theory
from .adjusted import AdjustedScanConfig, adjusted_scan
from .fdr import fit_fdr_model, nudge_boundary_p, p_to_z
from .harness import (
    ExperimentConfig,
    surveillance_run,
    synth_geometry,
    type1_study,
    adjusted_study,
    write_run,
)
from .matern import NotPositiveDefiniteError
from .mcmc import ChainDivergenceError, McmcConfig, PriorSpec, fit_model2
from .region import (InputError, _check_whole, _parse_lines, distance_matrix,
                     enumerate_windows, load_study_region)
from .scan import null_counts, reference_pvalue, scan

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_WARN = 4

# the settings keys of the chain, one per McmcConfig field
MCMC_KEYS = tuple(f"mcmc.{name}" for name in McmcConfig.__dataclass_fields__)


def _load_config(args):
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise InputError(f"{args.config}: expected a JSON object of settings")
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if not _:
            raise InputError(f"--set expects key=value, got {item!r}")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = val
    return cfg


def _check_settings(cfg, command, accepted):
    """Raise :class:`InputError` naming the first settings key, dotted as in
    ``--set``, that ``command`` does not read."""
    for key, val in cfg.items():
        for name in [f"{key}.{sub}" for sub in val] if isinstance(val, dict) else [key]:
            if name not in accepted:
                raise InputError(f"{command} does not read the settings key {name!r}; "
                                 f"it accepts: {', '.join(accepted)}")


def _given(cfg, *keys):
    """The settings among ``keys`` that ``cfg`` holds, so the library default
    applies to the rest."""
    return {key: cfg[key] for key in keys if key in cfg}


def _write(text, out):
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _emit(obj, out):
    _write(json.dumps(obj, indent=2, default=str) + "\n", out)


def cmd_scan(args, cfg):
    sr = load_study_region(args.geo, args.pop, args.cas)
    dm = distance_matrix(sr)
    windows = enumerate_windows(sr, dm, *_given(cfg, "max_window_fraction").values())
    result = scan(sr, windows, args.period)
    _check_whole("M", args.mc_size, 1)
    n = sr.period_populations(args.period)
    counts = null_counts(np.random.default_rng(args.seed), sr.total_cases(args.period), n,
                         args.mc_size)
    p = reference_pvalue(result.llr_star, counts, n, windows)
    _emit(result.with_pvalue(p, args.mc_size).to_dict(sr), args.out)
    return EXIT_OK


def cmd_fit(args, cfg):
    sr = load_study_region(args.geo, args.pop, args.cas)
    dm = distance_matrix(sr)
    y = sr.period_cases(args.period)
    n = sr.period_populations(args.period)
    fit = fit_model2(y, n, dm, PriorSpec(args.rho_upper),
                     config=McmcConfig(**cfg.get("mcmc", {})), seed=args.seed)
    _emit(fit.summary(), args.out)
    if args.strict and fit.warnings:
        return EXIT_WARN
    return EXIT_OK


def _adjusted_config(args, cfg):
    return AdjustedScanConfig(
        prior=PriorSpec(args.rho_upper),
        M=args.mc_size,
        mcmc=McmcConfig(**cfg.get("mcmc", {})),
        seed=args.seed,
        **_given(cfg, "alpha_screen", "max_iter", "max_window_fraction"),
    )


def cmd_adjusted_scan(args, cfg):
    config = _adjusted_config(args, cfg)
    sr = load_study_region(args.geo, args.pop, args.cas)
    dm = distance_matrix(sr)
    windows = enumerate_windows(sr, dm, config.max_window_fraction)
    result = adjusted_scan(sr, windows, dm, config, args.period)
    _emit(result.to_dict(sr), args.out)
    if args.strict and not result.converged:
        return EXIT_WARN
    return EXIT_OK


def cmd_surveil(args, cfg):
    sr = load_study_region(args.geo, args.pop, args.cas)
    report = surveillance_run(sr, args.train_period, _adjusted_config(args, cfg))
    _emit(report, args.out)
    if args.strict and (report["fit"]["warnings"] or "error" in (report["fdr_fit"] or {})):
        return EXIT_WARN
    return EXIT_OK


def _experiment_config(args, cfg, mode):
    chain = {"mcmc": McmcConfig(**cfg["mcmc"])} if "mcmc" in cfg else {}
    return ExperimentConfig(
        beta=args.beta,
        sigma_grid=cfg.get("sigma_grid", [args.sigma]),
        rho_grid=cfg.get("rho_grid", [args.rho]),
        replicates=args.replicates,
        mc_size=args.mc_size,
        mode=mode,
        seed=args.seed or 0,
        **chain,
        **_given(vars(args), "rho_upper"),
    )


def _study(args, cfg, mode, study):
    files = [f for f in (args.geo, args.pop, args.cas) if f is not None]
    if len(files) not in (0, 3):
        raise InputError("--geo, --pop and --cas are given together or not at all")
    if files and args.m is not None:
        raise InputError("--m sizes the synthetic geometry; it is not given with --geo")
    ecfg = _experiment_config(args, cfg, mode)
    if files:
        sr = load_study_region(*files)
    else:
        sr = synth_geometry(32 if args.m is None else args.m, seed=args.seed or 0)
    table = study(sr, ecfg)
    manifest = {"config": json.loads(json.dumps(ecfg.__dict__, default=str)),
                "rows": table.rows,
                "pvalues": [{"sigma": s, "rho": r, "mode": mode, "pvalues": p}
                            for (s, r, mode), p in table.pvalues.items()]}
    if args.out_dir:
        write_run(args.out_dir, f"study_{ecfg.content_hash()}", manifest,
                  {"proportions": table.to_csv()})
    _emit(manifest, args.out)
    return EXIT_OK


def cmd_type1_study(args, cfg):
    return _study(args, cfg, "classical", type1_study)


def cmd_adjusted_study(args, cfg):
    return _study(args, cfg, cfg.get("mode", "adjusted_true_params"), adjusted_study)


def _read_pvalues(path):
    """(label, p) rows of a 'period p_value' file; a line whose first field
    starts with 'period' is a header."""
    rows = []
    for lineno, f in _parse_lines(path):
        if f[0].lower().startswith("period"):
            continue
        try:
            p = float(f[1]) if len(f) == 2 else math.nan
        except ValueError:
            p = math.nan
        if not 0 < p <= 1:
            raise InputError(f"{path}:{lineno}: expected 'period p_value' with 0 < p_value <= 1")
        rows.append((f[0], p))
    return rows


def cmd_fdr(args, cfg):
    _check_whole("M", args.mc_size, 1)
    rows = _read_pvalues(args.input)
    p = nudge_boundary_p([v for _, v in rows], args.mc_size)
    z = p_to_z(p)
    model = fit_fdr_model(z, **_given(cfg, "spline_df"))
    lines = ["period,z,fdr"]
    for (label, _), zv, fv in zip(rows, z, model.fdr):
        lines.append(f"{label},{zv:.6f},{fv:.6f}")
    _write("\n".join(lines) + "\n", args.out)
    _emit({"delta0": model.delta0, "sigma0": model.sigma0,
           "warnings": list(model.density.warnings),
           "histogram": {"edges": model.density.edges.tolist(),
                         "counts": model.density.counts.tolist(),
                         "f": model.density.f.tolist()}},
          args.out + ".json" if args.out else None)
    return EXIT_OK


def cmd_check_theory(args, cfg):
    report = {"checks": []}
    setup = theory.TailSetup(beta=cfg.get("beta", 0.0), populations=cfg.get("populations", [5.0]),
                             sigma_mat=cfg.get("sigma_mat", [1.0]), k=cfg.get("k", 9),
                             seed=args.seed)
    res = theory.verify_prop2(setup, **_given(cfg, "n_grid"))
    report["checks"].append({
        "name": "second_order_tail_expansion",
        "loglog_slope": res["loglog_slope"],
        "pass": bool(res["loglog_slope"] <= -1.25),
        "rows": res["rows"],
    })
    # sign(correction) = sign(k - lam - 1), and 0 means |correction| <= 1e-14
    sign_ok = all(
        abs(corr) <= 1e-14 if k == lam + 1 else np.sign(corr) == np.sign(k - lam - 1)
        for lam in (1, 2, 5, 10, 20) for k in range(2, 41)
        for corr in [theory.prop2_correction(k, lam, 0.0, 1.0, 100)])
    report["checks"].append({"name": "correction_sign_condition", "pass": sign_ok})
    k_star, _ = theory.heavier_tail_onset(setup.beta, setup.populations, np.reshape(
        cfg.get("sigma_mat", [0.04]), (len(setup.populations),) * 2), seed=args.seed or 0)
    report["checks"].append({"name": "heavier_tail_onset_exists",
                             "k_star": k_star, "pass": k_star is not None})
    report["all_pass"] = all(c["pass"] for c in report["checks"])
    _emit(report, args.out)
    return EXIT_OK if report["all_pass"] else EXIT_NUMERIC


def cmd_synth_geo(args, cfg):
    sr = synth_geometry(args.m, seed=args.seed or 0, periods=args.periods, cases=args.cases,
                        outbreak_period=args.outbreak_period,
                        **_given(cfg, "pop_log_mean", "pop_log_sd"))
    header = [f"# synthetic geometry m={args.m} seed={args.seed or 0}"]
    # the files that --geo, --pop and --cas read; one period has no period column
    labels = [""] if sr.n_periods == 1 else [f"{p} " for p in sr.periods]
    pops = [f"{rid} {t}{v:.2f}" for t, row in zip(labels, sr.populations)
            for rid, v in zip(sr.ids, row)]
    cases = [f"{rid} {t}{c}" for t, row in zip(labels, sr.cases) for rid, c in zip(sr.ids, row)]
    for path, lines in (
            (args.out, [f"{rid} {x:.4f} {y:.4f}" for rid, (x, y) in zip(sr.ids, sr.centroids)]),
            (args.out + ".pop", pops), (args.out + ".cas", cases)):
        _write("\n".join(header + lines) + "\n", path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="corrscan", description=__doc__)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dotted path)")
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_region_args(p):
        p.add_argument("--geo", required=True)
        p.add_argument("--pop", required=True)
        p.add_argument("--cas", required=True)
        p.add_argument("--period", default=None)
        p.add_argument("--out", default=None)

    def add_rho_upper(p):
        p.add_argument("--rho-upper", dest="rho_upper", type=int, default=70)

    def add_mc_size(p):
        p.add_argument("--mc-size", dest="mc_size", type=int, default=999)

    def add_strict(p):
        p.add_argument("--strict", action="store_true",
                       help="escalate non-convergence warnings to exit code 4")

    p = sub.add_parser("scan", help="classical scan with Monte Carlo p-value")
    add_region_args(p)
    add_mc_size(p)
    p.set_defaults(func=cmd_scan, settings=("max_window_fraction",))

    p = sub.add_parser("fit", help="fit the spatial mixed model by MCMC")
    add_region_args(p)
    add_rho_upper(p)
    add_strict(p)
    p.set_defaults(func=cmd_fit, settings=MCMC_KEYS)

    p = sub.add_parser("adjusted-scan", help="correlation-adjusted scan")
    add_region_args(p)
    add_rho_upper(p)
    add_mc_size(p)
    add_strict(p)
    p.set_defaults(func=cmd_adjusted_scan,
                   settings=("alpha_screen", "max_iter", "max_window_fraction", *MCMC_KEYS))

    p = sub.add_parser("surveil", help="train/test surveillance with FDR layer")
    add_region_args(p)
    add_rho_upper(p)
    add_mc_size(p)
    p.add_argument("--train-period", dest="train_period", required=True)
    add_strict(p)
    p.set_defaults(func=cmd_surveil, settings=("max_window_fraction", *MCMC_KEYS))

    for name, fn, settings in (
            ("type1-study", cmd_type1_study, ("sigma_grid", "rho_grid")),
            ("adjusted-study", cmd_adjusted_study,
             ("sigma_grid", "rho_grid", "mode", *MCMC_KEYS))):
        p = sub.add_parser(name, help="false-alarm proportion study")
        p.add_argument("--geo")
        p.add_argument("--pop")
        p.add_argument("--cas")
        p.add_argument("--m", type=int, help="regions of the synthetic geometry (default 32)")
        p.add_argument("--beta", type=float, default=-7.0)
        p.add_argument("--sigma", type=float, default=0.1)
        p.add_argument("--rho", type=float, default=50.0)
        p.add_argument("--replicates", type=int, default=200)
        p.add_argument("--out", default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None,
                       help="also write a JSON manifest and a proportions CSV here")
        add_mc_size(p)
        if name == "adjusted-study":  # only the fitted mode has a range prior
            add_rho_upper(p)
        p.set_defaults(func=fn, settings=settings)

    p = sub.add_parser("fdr", help="local FDR over a CSV of (period, p_value)")
    p.add_argument("--input", required=True)
    add_mc_size(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fdr, settings=("spline_df",))

    p = sub.add_parser("check-theory", help="tail-asymptotics verification report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_theory,
                   settings=("beta", "populations", "sigma_mat", "k", "n_grid"))

    p = sub.add_parser("synth-geo", help="generate a synthetic study geometry")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--cases", type=int, default=0, help="cases drawn per period")
    p.add_argument("--outbreak-period", dest="outbreak_period", type=int, default=None,
                   help="index of a period to plant an outbreak in")
    p.add_argument("--out", required=True,
                   help="write 'id x y' here, populations to OUT.pop and counts to OUT.cas")
    p.set_defaults(func=cmd_synth_geo, settings=("pop_log_mean", "pop_log_sd"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        _check_settings(cfg, args.command, args.settings)
        if args.seed is not None:
            _check_whole("seed", args.seed, 0)
        return args.func(args, cfg)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotPositiveDefiniteError, ChainDivergenceError, OverflowError,
            RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
