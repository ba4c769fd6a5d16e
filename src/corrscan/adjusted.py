"""Correlation-adjusted scan: rebuild the Monte Carlo null from a fitted
spatial mixed model, re-assess the detected clusters, and iterate until the
set of significant clusters stabilizes.

The adjusted reference is :func:`corrscan.scan.null_counts` given the fitted
field's factor; :func:`simulate_model2_counts` draws study data only."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matern import MaternParams, CovFactor, cholesky, matern_cov, simulate_grf
from .mcmc import McmcConfig, PriorSpec, TooFewRegionsError, fit_model2, posterior_means
from .region import InputError, StudyRegion, WindowSet, _check_real, _check_whole
from .scan import llr_star_batch, null_counts, rank_pvalue, reference_pvalue, scan

__all__ = [
    "AdjustedScanConfig",
    "AdjustedScanResult",
    "simulate_model2_counts",
    "adjusted_scan",
    "train_test_adjusted_scan",
]

ALPHA_SCREEN = 0.1  # default level at which a cluster is screened out of the fit


def simulate_model2_counts(populations, beta, factor: CovFactor, seed=None, size=1,
                           region_ids=None):
    """Draw Z = L eps and then independent Poisson counts with rate N_i e^{beta+Z_i}.

    Unconditional on the total count; deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    n = np.asarray(populations, dtype=float)
    z = np.atleast_2d(simulate_grf(factor, rng, size=size))
    with np.errstate(over="ignore"):
        rates = n[None, :] * np.exp(beta + z)
    bad = ~np.isfinite(rates)
    if bad.any():
        i = int(np.argwhere(bad)[0, 1])
        name = region_ids[i] if region_ids is not None else i
        raise OverflowError(f"rate overflow in region {name} (beta={beta:.3g})")
    counts = rng.poisson(rates)
    return counts[0] if size == 1 else counts


@dataclass(frozen=True)
class AdjustedScanConfig:
    prior: PriorSpec
    alpha_screen: float = ALPHA_SCREEN
    M: int = 999
    max_iter: int = 5
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    seed: object = None
    max_window_fraction: float = 0.5

    def __post_init__(self):
        _check_real("alpha_screen", self.alpha_screen, lambda a: 0 < a <= 1, "a number in (0, 1]")
        _check_whole("M", self.M, 99)
        _check_whole("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class AdjustedScanResult:
    iterations: tuple  # per-iteration dicts
    converged: bool
    classical: object  # ScanResult with classical p-value
    final_clusters: tuple  # (cluster, llr, adjusted_p)

    def to_dict(self, sr=None):
        return {
            "converged": self.converged,
            "classical": self.classical.to_dict(sr),
            "iterations": list(self.iterations),
            "final_clusters": [
                {
                    "members": list(c.members),
                    "llr": llr,
                    "adjusted_p": p,
                    **({"member_ids": list(c.member_ids(sr))} if sr is not None else {}),
                }
                for c, llr, p in self.final_clusters
            ],
        }


def _assessed(result, reference):
    """The primary and secondaries of ``result``, in that order, as
    (cluster, llr, rank p-value against ``reference``)."""
    if result.primary is None:
        return ()
    clusters = [(result.primary, result.llr_star)]
    clusters.extend((c, llr) for c, llr, _, _ in result.secondaries)
    return tuple((c, llr, rank_pvalue(llr, reference)) for c, llr in clusters)


def _screen(assessed, alpha=ALPHA_SCREEN):
    """Member tuples of the ``assessed`` clusters whose p-value is at most ``alpha``."""
    return {c.members for c, _, p in assessed if p <= alpha}


def _screened_fit(screened, y, n, dm, prior, mcmc, rng):
    """Fit the mixed model, seeded from ``rng``, to the regions outside the
    ``screened`` clusters, as (excluded regions, fit); at least 5 regions must be left."""
    excluded = sorted({i for members in screened for i in members})
    kept = [i for i in range(len(y)) if i not in excluded]
    if len(kept) < 5:
        raise TooFewRegionsError(
            "fewer than 5 regions left outside detected clusters; use a larger "
            "study region or a stricter screening level"
        )
    fit = fit_model2(y[kept], n[kept], dm[np.ix_(kept, kept)], prior, config=mcmc,
                     seed=rng.integers(2**63))
    return excluded, fit


def _field_factor(dm, sigma, rho):
    """Covariance factor of the Matérn field at (sigma, rho), sigma floored at 1e-8."""
    return cholesky(matern_cov(dm, MaternParams(sigma=max(sigma, 1e-8), rho=rho)))


def _fitted_field(fit, dm):
    """The covariance factor of the reference field of ``fit``, with sigma at its
    posterior mean and rho at its posterior mean snapped to the grid, and the
    posterior means, ESS and warnings that a JSON result reports."""
    beta, sigma, rho, rho_grid = posterior_means(fit)
    return _field_factor(dm, sigma, rho_grid), {
        "beta": beta, "sigma": sigma, "rho": rho, "rho_grid": rho_grid,
        "ess": fit.ess, "warnings": list(fit.warnings)}


def adjusted_scan(sr: StudyRegion, windows: WindowSet, dm, config: AdjustedScanConfig,
                  period=None) -> AdjustedScanResult:
    """Run the full adjusted procedure on one period of data."""
    if sr.m < 5:
        raise TooFewRegionsError(f"a mixed-model fit needs 5 regions; the study region has {sr.m}")
    rng = np.random.default_rng(config.seed)
    y = sr.period_cases(period)
    n = sr.period_populations(period)
    observed = scan(sr, windows, period)

    # one classical reference sample gives the classical p-value and the
    # initial screen: the clusters whose llr reaches its screening quantile
    ref0 = llr_star_batch(null_counts(rng, y.sum(), n, config.M), n, windows)
    classical = observed.with_pvalue(rank_pvalue(observed.llr_star, ref0), config.M)
    significant = _screen(_assessed(observed, ref0), config.alpha_screen)

    iterations = []
    converged = False
    dm = np.asarray(dm)
    for _ in range(config.max_iter):
        excluded, fit = _screened_fit(significant, y, n, dm, config.prior, config.mcmc, rng)
        factor, summary = _fitted_field(fit, dm)
        reference = llr_star_batch(null_counts(rng, y.sum(), n, config.M, factor), n, windows)
        assessed = _assessed(observed, reference)
        iterations.append({
            "excluded_regions": excluded,
            "fit": summary,
            "reference_quantiles": {
                "q50": float(np.quantile(reference, 0.5)),
                "q90": float(np.quantile(reference, 0.9)),
                "q95": float(np.quantile(reference, 0.95)),
            },
            "clusters": [
                {"members": list(c.members), "llr": llr, "adjusted_p": p}
                for c, llr, p in assessed
            ],
        })
        screened = _screen(assessed, config.alpha_screen)
        converged = screened == significant
        if converged:
            break
        significant = screened
    return AdjustedScanResult(
        iterations=tuple(iterations),
        converged=converged,
        classical=classical,
        final_clusters=assessed,
    )


def train_test_adjusted_scan(sr: StudyRegion, windows: WindowSet, dm, train_period,
                             test_periods, config: AdjustedScanConfig):
    """Fit once on the training period; per test period, redistribute that
    period's total under the fitted field for its adjusted reference."""
    if train_period in test_periods:
        raise ValueError("train period must be disjoint from test periods")
    if sr.total_cases(train_period) == 0:
        raise InputError("zero cases in training period")
    rng = np.random.default_rng(config.seed)
    y_train = sr.period_cases(train_period)
    n_train = sr.period_populations(train_period)
    fit = fit_model2(y_train, n_train, dm, config.prior, config=config.mcmc,
                     seed=rng.integers(2**63))
    factor, summary = _fitted_field(fit, dm)
    # one stream per reference, so that neither p-value depends on the other's draws
    rng_classical, rng_adjusted = (np.random.default_rng(s) for s in
                                   np.random.SeedSequence(rng.integers(2**63)).spawn(2))

    results = []
    for period in test_periods:
        observed = scan(sr, windows, period)
        n = sr.period_populations(period)
        total = sr.total_cases(period)
        classical_ref = null_counts(rng_classical, total, n, config.M)
        adjusted_ref = null_counts(rng_adjusted, total, n, config.M, factor)
        # a period without cases scores 0, and so gets p = 1
        results.append({
            "period": period,
            "llr_star": observed.llr_star,
            "classical_p": reference_pvalue(observed.llr_star, classical_ref, n, windows),
            "adjusted_p": reference_pvalue(observed.llr_star, adjusted_ref, n, windows),
            "primary_members": list(observed.primary.members) if observed.primary else [],
        })
    return {
        "train_period": train_period,
        "fit": summary,
        "periods": results,
    }
