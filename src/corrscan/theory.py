"""Numerical checks of the Poisson vs mixed-Poisson tail behavior.

A lognormal mixture of Poissons has a heavier right tail than the Poisson
with the same mean; the second-order expansion of the excess tail mass is
(pmf(k-2) - pmf(k-1)) * e^{2 beta} * V_n / (2n), which is positive exactly
when k exceeds the mean plus one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matern import cholesky, simulate_grf
from .region import InputError, _check_real, _check_whole, _real_tuple

__all__ = [
    "poisson_tail",
    "poisson_pmf",
    "mixture_tail",
    "prop2_correction",
    "TailSetup",
    "verify_prop2",
    "heavier_tail_onset",
]

_QUAD_NODES = 201  # Gauss-Hermite nodes of the single-component quadrature


def poisson_tail(k, lam):
    """Pr(Poisson(lam) >= k) via the regularized lower incomplete gamma."""
    from scipy.special import gammainc
    _check_real("lam", lam, lambda v: v > 0, "a positive number")
    _check_whole("k", k, 0)
    if k == 0:
        return 1.0
    return float(gammainc(k, lam))


def poisson_pmf(k, lam):
    from scipy.special import gammaln
    k = np.asarray(k)
    out = np.exp(k * math.log(lam) - lam - gammaln(np.asarray(k, dtype=float) + 1))
    return float(out) if out.ndim == 0 else out


def mixture_tail(k, beta, populations, sigma_mat, n_samples=100_000, seed=None):
    """Tail probability of the total count under the lognormal rate mixture.

    Returns (estimate, standard_error).  A single component has an exactly
    lognormal rate and is integrated by Gauss-Hermite quadrature (standard
    error 0); more components, under any PSD covariance, are averaged over
    ``n_samples`` Monte Carlo field draws.
    """
    n = np.atleast_1d(np.asarray(populations, dtype=float))
    sig = np.atleast_2d(np.asarray(sigma_mat, dtype=float))
    if sig.shape != (len(n), len(n)):
        raise ValueError("covariance shape must match populations")
    if not sig.any():
        return poisson_tail(k, math.exp(beta) * n.sum()), 0.0
    if len(n) == 1:
        s = math.sqrt(sig[0, 0])
        x, w = np.polynomial.hermite_e.hermegauss(_QUAD_NODES)
        w = w / math.sqrt(2 * math.pi)
        lam = math.exp(beta) * n[0] * np.exp(s * x)
        vals = np.array([poisson_tail(k, l) for l in lam])
        return float(w @ vals), 0.0
    return _mc_tail(k, _total_rates(beta, n, _field_draws(sig, n_samples, seed)))


def _lambda_bar(beta, populations, sigma_mat):
    """Mean total rate e^beta sum N_i e^{Sigma_ii / 2} of the lognormal mixture."""
    return math.exp(beta) * float(np.sum(populations * np.exp(np.diag(sigma_mat) / 2.0)))


def _field_draws(sigma_mat, n_samples, seed):
    """``n_samples`` rows of draws of the latent field N(0, sigma_mat)."""
    jitter_scale = max(float(np.mean(np.diag(sigma_mat))), 1e-30)
    return np.atleast_2d(simulate_grf(cholesky(sigma_mat, jitter_scale), seed, n_samples))


def _total_rates(beta, populations, z):
    """Total Poisson rate e^beta sum N_i e^{z_i} for each row of field draws z."""
    return math.exp(beta) * (populations[None, :] * np.exp(z)).sum(axis=1)


def _mc_tail(k, lam):
    """Monte Carlo mean of Pr(Poisson(lam) >= k) over the sampled rates, and its
    standard error."""
    from scipy.special import gammainc
    vals = gammainc(max(int(k), 1), lam) if k >= 1 else np.ones(len(lam))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def prop2_correction(k, lambda_bar, beta, v_n, n):
    """Second-order tail-excess term; sign equals sign(k - lambda_bar - 1)."""
    _check_whole("k", k, 2)
    # pmf(k-2) - pmf(k-1) written as pmf(k-2) * (1 - lambda/(k-1)) so the
    # boundary case k = lambda + 1 is exactly zero
    diff = poisson_pmf(k - 2, lambda_bar) * (1.0 - lambda_bar / (k - 1))
    return float(diff * math.exp(2 * beta) * v_n / (2 * n))


@dataclass(frozen=True)
class TailSetup:
    """Aggregation set for the tail-expansion check.

    ``sigma_mat`` is the covariance of the latent field at scale index n = 1;
    at index n it is divided by n, so V_n = N' Sigma N is constant in n.
    """

    beta: float
    populations: tuple
    sigma_mat: tuple  # len(populations)**2 entries, row-major
    k: int
    n_samples: int = 400_000
    seed: int | None = None

    def __post_init__(self):
        _check_real("beta", self.beta)
        _check_whole("k", self.k, 2)
        m = len(_real_tuple("populations", self.populations, lambda v: v > 0, "positive numbers"))
        if len(_real_tuple("sigma_mat", self.sigma_mat)) != m * m:
            raise InputError(f"sigma_mat must hold {m * m} entries for {m} populations, "
                             f"got {len(self.sigma_mat)}")


def verify_prop2(setup: TailSetup, n_grid=(100, 1000, 10_000)):
    """Remainder-vs-n report for the second-order tail expansion.

    The mixture tail comes from :func:`mixture_tail`: quadrature for one
    component, Monte Carlo over ``setup.n_samples`` field draws for more.  Every
    n draws from the same seed (common random numbers), so the remainder decay
    is not drowned by noise.
    """
    _real_tuple("n_grid", n_grid, lambda v: v > 0, "positive numbers")
    pops = np.asarray(setup.populations, dtype=float)
    sig0 = np.asarray(setup.sigma_mat, dtype=float).reshape(len(pops), len(pops))
    v_n = float(pops @ sig0 @ pops)
    seed = np.random.SeedSequence(setup.seed)

    rows = []
    for n in n_grid:
        sig = sig0 / n
        lam_bar = _lambda_bar(setup.beta, pops, sig)
        p1 = poisson_tail(setup.k, lam_bar)
        p2, se = mixture_tail(setup.k, setup.beta, pops, sig, setup.n_samples, seed)
        corr = prop2_correction(setup.k, lam_bar, setup.beta, v_n, n)
        remainder = abs(p2 - p1 - corr)
        if se > 0 and corr != 0 and se > abs(corr) / 10:
            raise RuntimeError(
                f"Monte Carlo SE {se:.2e} too large relative to the correction "
                f"{corr:.2e} at n={n}; raise n_samples or use smaller n_grid values"
            )
        rows.append({
            "n": n,
            "lambda_bar": lam_bar,
            "p1_tail": p1,
            "p2_tail": p2,
            "mc_se": se,
            "correction": corr,
            "remainder": remainder,
        })
    usable = [r for r in rows if r["remainder"] > 0]
    slope = float("nan")
    if len(usable) >= 2:
        slope = float(np.polyfit(np.log([r["n"] for r in usable]),
                                 np.log([r["remainder"] for r in usable]), 1)[0])
    return {"rows": rows, "loglog_slope": slope, "v_n": v_n,
            "setup": {"beta": setup.beta, "k": setup.k,
                      "method": "quadrature" if len(pops) == 1 else "monte_carlo"}}


def heavier_tail_onset(beta, populations, sigma_mat, seed=None, n_samples=400_000):
    """Search the range [mean, mean + 10 sqrt(mean)] for the threshold beyond
    which the mixture tail exceeds the Poisson tail at every tested k.

    Returns (k_star, rows); k_star is None when no stable onset is found.
    """
    pops = np.atleast_1d(np.asarray(populations, dtype=float))
    sig = np.atleast_2d(np.asarray(sigma_mat, dtype=float))
    lam_bar = _lambda_bar(beta, pops, sig)
    k_lo = max(2, int(math.floor(lam_bar)))
    k_hi = int(math.ceil(lam_bar + 10 * math.sqrt(lam_bar)))
    lam = _total_rates(beta, pops, _field_draws(sig, n_samples, seed))
    rows = [{"k": k, "p1_tail": poisson_tail(k, lam_bar), "p2_tail": _mc_tail(k, lam)[0]}
            for k in range(k_lo, k_hi + 1)]
    k_star = None
    for i, r in enumerate(rows):
        if all(s["p2_tail"] > s["p1_tail"] for s in rows[i:]):
            k_star = r["k"]
            break
    return k_star, rows
