"""Experiment drivers: false-alarm studies, surveillance workflow, synthetic
geometry, and idempotent run persistence."""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .adjusted import (
    AdjustedScanConfig,
    _assessed,
    _field_factor,
    _fitted_field,
    _screen,
    _screened_fit,
    simulate_model2_counts,
    train_test_adjusted_scan,
)
from .fdr import fit_fdr_model, nudge_boundary_p, p_to_z
from .matern import NotPositiveDefiniteError
from .mcmc import ChainDivergenceError, McmcConfig, PriorSpec, TooFewRegionsError, ZeroCountsError
from .region import (InputError, StudyRegion, _check_real, _check_whole, _real_tuple,
                     distance_matrix, enumerate_windows)
from .scan import llr_star_batch, null_counts, reference_pvalue, scan

__all__ = [
    "ExperimentConfig",
    "ProportionTable",
    "synth_geometry",
    "type1_study",
    "adjusted_study",
    "surveillance_run",
    "write_run",
]

MODES = ("classical", "adjusted_fitted", "adjusted_true_params")
ALPHAS = (0.01, 0.05, 0.1)  # levels at which every study reports its proportions
_POISSON_RATE_MAX = 9.2e18  # numpy's Poisson sampler refuses rates above about this

# A replicate with no cases, or whose reference fails for one of these causes,
# is dropped and counted by cause; any other exception propagates.
DROP_CAUSES = (TooFewRegionsError, ZeroCountsError, ChainDivergenceError,
               NotPositiveDefiniteError, OverflowError)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grids and sizes for the false-alarm studies."""

    beta: float
    sigma_grid: tuple
    rho_grid: tuple
    replicates: int = 200
    mc_size: int = 199
    mode: str = "classical"
    seed: int = 0
    rho_upper: int = 70
    mcmc: McmcConfig = field(default_factory=lambda: McmcConfig(
        n_iter=2_000, burn_in=500, thin=3))

    def __post_init__(self):
        _check_real("beta", self.beta)
        _check_whole("replicates", self.replicates, 1)
        _check_whole("mc_size", self.mc_size, 19)
        for name in ("sigma_grid", "rho_grid"):
            grid = _real_tuple(name, getattr(self, name), lambda v: v >= 0, "numbers >= 0")
            object.__setattr__(self, name, grid)
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")

    def content_hash(self):
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class ProportionTable:
    """Per-(sigma, rho, alpha, mode) fraction of replicates with p <= alpha."""

    rows: list = field(default_factory=list)
    pvalues: dict = field(default_factory=dict)  # (sigma, rho, mode) -> list of p

    def add_setting(self, sigma, rho, mode, pvals, alphas, dropped_by=None):
        """``dropped_by`` maps a drop cause's name to its replicate count."""
        dropped_by = dict(dropped_by or {})
        pvals = np.asarray(pvals, dtype=float)
        self.pvalues[(sigma, rho, mode)] = pvals.tolist()
        r = len(pvals)
        for alpha in alphas:
            prop = float(np.mean(pvals <= alpha)) if r else float("nan")
            se = math.sqrt(prop * (1 - prop) / r) if r else float("nan")
            self.rows.append({
                "sigma": sigma, "rho": rho, "alpha": alpha, "mode": mode,
                "proportion": prop, "se": se, "replicates": r,
                "dropped": sum(dropped_by.values()), "dropped_by": dict(dropped_by),
            })

    def proportion(self, sigma, rho, alpha, mode):
        for row in self.rows:
            if (row["sigma"], row["rho"], row["alpha"], row["mode"]) == (sigma, rho, alpha, mode):
                return row["proportion"]
        raise KeyError((sigma, rho, alpha, mode))

    def to_csv(self):
        lines = ["sigma,rho,alpha,mode,proportion,se,replicates,dropped"]
        for r in self.rows:
            lines.append(
                f"{r['sigma']},{r['rho']},{r['alpha']},{r['mode']},"
                f"{r['proportion']:.6f},{r['se']:.6f},{r['replicates']},{r['dropped']}"
            )
        return "\n".join(lines) + "\n"


def synth_geometry(m, seed=None, pop_log_mean=10.0, pop_log_sd=1.0, periods=1, cases=0,
                   outbreak_period=None) -> StudyRegion:
    """Uniform random centroids in the square [8, 162]^2 with lognormal
    populations, held fixed over ``periods`` periods.

    Each period's counts are a multinomial draw of ``cases`` in proportion to
    population, from the separate stream ``seed + 1``.  In ``outbreak_period``
    each count c of the three regions nearest region 0 gains Poisson(3c + 5)
    cases.  One period is labelled "all" and more are labelled "0", "1", ...,
    so that the written files read back in the same period order."""
    _check_whole("m", m, 1)
    _check_real("pop_log_mean", pop_log_mean)
    _check_real("pop_log_sd", pop_log_sd, lambda v: v >= 0, "a number >= 0")
    _check_whole("periods", periods, 1)
    _check_whole("cases", cases, 0)
    if outbreak_period is not None:
        _check_real("outbreak_period", outbreak_period, lambda v: 0 <= v < periods,
                    f"a whole number in [0, {periods})", (int, np.integer))
        if 4 * cases + 5 > _POISSON_RATE_MAX:  # counts c + Poisson(3c + 5), c <= cases
            raise InputError(f"cases={cases} is too large for an outbreak: its counts "
                             f"c + Poisson(3c + 5) would exceed {_POISSON_RATE_MAX:.2g}")
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = 8.0, 162.0, 8.0, 162.0
    xs = rng.uniform(x0, x1, m)
    ys = rng.uniform(y0, y1, m)
    pops = rng.lognormal(pop_log_mean, pop_log_sd, m)
    sr = StudyRegion(
        ids=tuple(f"R{i:03d}" for i in range(m)),
        centroids=np.column_stack([xs, ys]),
        periods=("all",) if periods == 1 else tuple(str(k) for k in range(periods)),
        populations=np.tile(pops, (periods, 1)),
        cases=np.zeros((periods, m), dtype=np.int64),
    )
    rng = np.random.default_rng(None if seed is None else seed + 1)
    counts = rng.multinomial(cases, pops / pops.sum(), size=periods)
    if outbreak_period is not None:
        blob = np.argsort(distance_matrix(sr)[0])[:3]
        counts[outbreak_period, blob] += rng.poisson(3 * counts[outbreak_period, blob] + 5)
    return replace(sr, cases=counts)


def type1_study(sr: StudyRegion, cfg: ExperimentConfig) -> ProportionTable:
    """Classical scan on data generated from the mixed model (sigma=0 gives
    the independent-Poisson null)."""
    if cfg.mode != "classical":
        raise ValueError("type1_study runs in classical mode")
    return _false_alarm_study(sr, cfg)


def adjusted_study(sr: StudyRegion, cfg: ExperimentConfig) -> ProportionTable:
    """False-alarm study with the mixed-model reference distribution."""
    if cfg.mode not in ("adjusted_fitted", "adjusted_true_params"):
        raise InputError(f"adjusted_study needs an adjusted mode, got {cfg.mode!r}")
    return _false_alarm_study(sr, cfg)


def _false_alarm_study(sr: StudyRegion, cfg: ExperimentConfig) -> ProportionTable:
    dm = distance_matrix(sr)
    windows = enumerate_windows(sr, dm)
    n = sr.period_populations(sr.periods[0])
    if cfg.beta + math.log(float(n.max())) > math.log(_POISSON_RATE_MAX):
        raise InputError(f"beta={cfg.beta:g} is too large: the Poisson rate max(n) e^beta "
                         f"exceeds the sampler's limit {_POISSON_RATE_MAX:.2g}")
    table = ProportionTable()
    master = np.random.SeedSequence(cfg.seed)
    prior = PriorSpec(cfg.rho_upper)

    for sigma in cfg.sigma_grid:
        for rho in cfg.rho_grid:
            factor = _field_factor(dm, sigma, rho) if sigma > 0 and rho > 0 else None
            pvals = []
            dropped_by = Counter()
            streams = master.spawn(cfg.replicates)
            for rep_seed in streams:
                # separate sub-streams so that, for a fixed master seed, every
                # mode sees the same data and the same reference randomness
                # (common random numbers across modes)
                data_ss, ref_ss, fit_ss = rep_seed.spawn(3)
                rng_data = np.random.default_rng(data_ss)
                if factor is not None:
                    counts = simulate_model2_counts(n, cfg.beta, factor, rng_data,
                                                    region_ids=sr.ids)
                else:
                    counts = rng_data.poisson(n * math.exp(cfg.beta))
                if counts.sum() == 0:
                    dropped_by[ZeroCountsError.__name__] += 1
                    continue
                observed = scan(sr, windows, sr.periods[0], counts)
                try:
                    ref = _replicate_reference(
                        observed, windows, dm, n, counts, cfg, prior, factor,
                        np.random.default_rng(ref_ss), np.random.default_rng(fit_ss))
                except DROP_CAUSES as exc:
                    dropped_by[type(exc).__name__] += 1
                    continue
                pvals.append(reference_pvalue(observed.llr_star, ref, n, windows))
            table.add_setting(sigma, rho, cfg.mode, pvals, ALPHAS, dropped_by)
    return table


def _replicate_reference(observed, windows, dm, n, counts, cfg, prior, factor, rng, rng_fit):
    """One replicate's reference counts, (mc_size, m) rows of its total;
    ``observed`` is the :func:`scan` of its ``counts``.

    ``rng`` drives the reference draws (shared across modes); ``rng_fit``
    drives mode-specific estimation steps so it does not desynchronize the
    reference stream."""
    total = counts.sum()
    if cfg.mode == "classical":
        factor = None
    elif cfg.mode == "adjusted_fitted":
        # screen once, so that clusters do not inflate the fitted field, then
        # plug in the reference field that adjusted_scan and surveil use
        screen = llr_star_batch(null_counts(rng_fit, total, n, cfg.mc_size), n, windows)
        _, fit = _screened_fit(_screen(_assessed(observed, screen)), counts, n, dm, prior,
                               cfg.mcmc, rng_fit)
        factor, _ = _fitted_field(fit, dm)
    return null_counts(rng, total, n, cfg.mc_size, factor)


def surveillance_run(sr: StudyRegion, train_period, config: AdjustedScanConfig):
    """Per-period adjusted scanning over all non-training periods, then the
    local-FDR layer over the resulting adjusted p-values."""
    if sr.n_periods < 2:
        raise InputError("surveillance needs at least 2 periods")
    dm = distance_matrix(sr)
    windows = enumerate_windows(sr, dm, config.max_window_fraction)
    test_periods = [p for p in sr.periods if p != train_period]
    report = train_test_adjusted_scan(sr, windows, dm, train_period, test_periods, config)

    adj_p = np.array([row["adjusted_p"] for row in report["periods"]])
    z = p_to_z(nudge_boundary_p(adj_p, config.M))
    fdr_vals = np.full(len(z), float("nan"))
    fdr_fit = None
    if len(z) >= 30:
        try:
            model = fit_fdr_model(z)
            fdr_vals = model.fdr
            fdr_fit = {"delta0": model.delta0, "sigma0": model.sigma0,
                       "warnings": list(model.density.warnings)}
        except (ValueError, RuntimeError) as exc:
            fdr_fit = {"error": str(exc)}
    for row, zv, fv in zip(report["periods"], z, fdr_vals):
        row["z"] = float(zv)
        row["fdr"] = float(fv)
    report["fdr_fit"] = fdr_fit
    return report


def write_run(out_dir, name, manifest, tables=None):
    """Atomically write a JSON manifest plus CSV tables for one run."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    items = [(f"{name}.json", json.dumps(manifest, indent=2, default=str))]
    for tname, text in (tables or {}).items():
        items.append((f"{name}_{tname}.csv", text))
    for fname, text in items:
        path = os.path.join(out_dir, fname)
        fd, tmp = tempfile.mkstemp(dir=out_dir)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        written.append(path)
    return written
