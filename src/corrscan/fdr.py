"""Empirical-null local false discovery rate over per-period p-values.

p-values become z-values through the inverse normal CDF; a Poisson spline
fit to the z histogram gives the empirical density f; a quadratic fit to
log f around its mode gives the normal empirical null f0; the reported
quantity is fdr(z) = f0(z) / f(z), capped at 1.  Only small p is evidence
against the null, so fdr is 1 at and above the null's centre delta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .region import InputError, _check_whole

__all__ = [
    "FdrModel",
    "FittedDensity",
    "p_to_z",
    "nudge_boundary_p",
    "natural_spline_basis",
    "poisson_spline_fit",
    "fit_empirical_density",
    "fit_empirical_null",
    "local_fdr",
    "fit_fdr_model",
    "default_bins",
]

_IRLS_MAX_ITER = 100
_IRLS_TOL = 1e-8  # relative deviance change at which IRLS has converged
_NULL_HALFWIDTH = 1.0  # central matching fits log f within this distance of the mode


def nudge_boundary_p(p, mc_size):
    """Pull Monte Carlo p-values off the p = 1 grid boundary."""
    p = np.asarray(p, dtype=float)
    edge = 1.0 - 1.0 / (2.0 * (mc_size + 1))
    return np.where(p >= 1.0, edge, p)


def p_to_z(p):
    """Inverse standard-normal CDF; small p maps to very negative z."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("p-values must lie strictly inside (0, 1); nudge grid-boundary values first")
    z = ndtri(p)
    return float(z) if z.ndim == 0 else z


def natural_spline_basis(x, knots):
    """Natural cubic spline basis (linear beyond the boundary knots).

    Columns: 1, x, and len(knots) - 2 curvature terms; total len(knots)."""
    x = np.asarray(x, dtype=float)
    knots = np.sort(np.asarray(knots, dtype=float))
    k_last = knots[-1]
    k_prev = knots[-2]

    def d(j):
        return ((np.maximum(x - knots[j], 0) ** 3 - np.maximum(x - k_last, 0) ** 3)
                / (k_last - knots[j]))

    cols = [np.ones_like(x), x]
    d_prev = d(len(knots) - 2)
    for j in range(len(knots) - 2):
        cols.append(d(j) - d_prev)
    return np.column_stack(cols)


def poisson_spline_fit(x, counts, df):
    """Poisson regression of counts on a natural-spline basis in x, by IRLS."""
    counts = np.asarray(counts, dtype=float)
    _check_whole("spline_df", df, 3)
    knots = np.quantile(x, np.linspace(0, 1, df))
    if len(np.unique(knots)) < df:
        knots = np.linspace(x.min(), x.max(), df)
    basis = natural_spline_basis(x, knots)
    eta = np.log(np.maximum(counts, 0.5))
    coef = np.linalg.lstsq(basis, eta, rcond=None)[0]
    dev_prev = np.inf
    for it in range(_IRLS_MAX_ITER):
        eta = np.clip(basis @ coef, -30, 30)
        mu = np.exp(eta)
        w = mu
        zresp = eta + (counts - mu) / mu
        wb = basis * w[:, None]
        coef, *_ = np.linalg.lstsq(wb.T @ basis, wb.T @ zresp, rcond=None)
        mu = np.exp(np.clip(basis @ coef, -30, 30))
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = 2 * np.sum(np.where(counts > 0, counts * np.log(counts / mu), 0) - (counts - mu))
        if np.isfinite(dev_prev) and abs(dev_prev - dev) <= _IRLS_TOL * (abs(dev) + 0.1):
            return np.exp(np.clip(basis @ coef, -30, 30)), coef, knots
        dev_prev = dev
    raise RuntimeError(
        f"IRLS did not converge in {_IRLS_MAX_ITER} iterations (last deviance {dev:.4g}); "
        "try fewer spline degrees of freedom or more bins"
    )


@dataclass(frozen=True)
class FittedDensity:
    grid: np.ndarray  # bin midpoints
    f: np.ndarray  # density values, integrate to ~1
    edges: np.ndarray
    counts: np.ndarray
    warnings: tuple = ()  # caveats, such as fewer than 100 z-values


def default_bins(n_values):
    return min(60, max(20, math.ceil(n_values / 5)))


def fit_empirical_density(z, bins=None, spline_df=5) -> FittedDensity:
    """Histogram + Poisson natural-spline smooth, normalized to a density."""
    z = np.asarray(z, dtype=float)
    if len(z) < 30:
        raise InputError("need at least 30 z-values to fit a density")
    if np.ptp(z) == 0:
        raise InputError("degenerate input: all z-values identical")
    bins = bins or default_bins(len(z))
    edges = np.linspace(z.min() - 0.5, z.max() + 0.5, bins + 1)
    counts, _ = np.histogram(z, bins=edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    fitted, _, _ = poisson_spline_fit(mids, counts, spline_df)
    width = edges[1] - edges[0]
    f = fitted / (fitted.sum() * width)
    caveats = ("fewer than 100 z-values: density fit may be unstable",) if len(z) < 100 else ()
    return FittedDensity(grid=mids, f=f, edges=edges, counts=counts, warnings=caveats)


def fit_empirical_null(grid, f):
    """Central matching: quadratic fit to log f over [mode +/- 1].

    Returns (delta0, sigma0) of the normal empirical null."""
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("density must be positive on the grid")
    mode_idx = int(np.argmax(f))
    if mode_idx in (0, len(f) - 1):
        raise ValueError("density mode lies on the grid boundary; no interior mode")
    mode = grid[mode_idx]
    sel = np.abs(grid - mode) <= _NULL_HALFWIDTH
    if sel.sum() < 3:
        raise ValueError("too few grid points in the central matching window")
    a2, a1, _ = np.polyfit(grid[sel], np.log(f[sel]), 2)
    if a2 >= 0:
        raise ValueError("central log-density fit is not concave; no normal null identifiable")
    delta0 = -a1 / (2 * a2)
    sigma0 = math.sqrt(-1.0 / (2 * a2))
    return float(delta0), float(sigma0)


@dataclass(frozen=True)
class FdrModel:
    density: FittedDensity
    delta0: float
    sigma0: float
    fdr: np.ndarray  # per-input local fdr


def local_fdr(model: FdrModel, z):
    """fdr(z) = f0(z)/f(z) with log-linear interpolation of f, capped at 1,
    and 1 for z >= delta0: large p (the upper tail) is no evidence of a cluster.

    Returns (value, extrapolated_flag) for scalar z, or arrays for vectors."""
    grid = model.density.grid
    logf = np.log(model.density.f)
    zq = np.asarray(z, dtype=float)
    flag = (zq < grid[0]) | (zq > grid[-1])
    zc = np.clip(zq, grid[0], grid[-1])
    f = np.exp(np.interp(zc, grid, logf))
    x = (zc - model.delta0) / model.sigma0
    f0 = np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi) / model.sigma0
    val = np.where(zq < model.delta0, np.minimum(f0 / f, 1.0), 1.0)
    if zq.ndim == 0:
        return float(val), bool(flag)
    return val, flag


def fit_fdr_model(z, spline_df=5) -> FdrModel:
    """End-to-end: density fit, empirical null, per-input local fdr."""
    z = np.asarray(z, dtype=float)
    density = fit_empirical_density(z, spline_df=spline_df)
    delta0, sigma0 = fit_empirical_null(density.grid, density.f)
    model = FdrModel(density=density, delta0=delta0, sigma0=sigma0,
                     fdr=np.empty(0))
    return replace(model, fdr=np.asarray(local_fdr(model, z)[0]))
