"""Bayesian fit of the spatial Poisson mixed model by Gibbs sampling.

Counts are Poisson with log-rate = beta + log(population) + Z, where Z is a
zero-mean Gaussian field with Matérn covariance sigma^2 R(rho).  Priors:
flat on beta, flat on sigma > 0, uniform over an integer grid 1..U for rho.
Each iteration updates the whole field by one elliptical slice step under
its Gaussian prior, draws beta, sigma and rho exactly from their full
conditionals (two gamma draws and a draw over the grid, using
correlation-matrix factors precomputed once per geometry), and adds two
adaptive joint moves that shift and scale the field against beta and sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, blas, lapack

from .matern import MaternParams, cholesky, matern_cov
from .region import InputError

__all__ = [
    "PriorSpec",
    "McmcConfig",
    "ModelIIFit",
    "ChainDivergenceError",
    "TooFewRegionsError",
    "ZeroCountsError",
    "RhoGridFactors",
    "fit_model2",
    "posterior_means",
    "effective_sample_size",
]


@dataclass(frozen=True)
class PriorSpec:
    """Flat priors on beta and sigma; uniform discrete prior for rho on 1..rho_upper."""

    rho_upper: int

    def __post_init__(self):
        if int(self.rho_upper) < 2:
            raise InputError(f"rho_upper must be >= 2, got {self.rho_upper}")
        object.__setattr__(self, "rho_upper", int(self.rho_upper))

    @property
    def rho_grid(self):
        return np.arange(1, self.rho_upper + 1)


@dataclass(frozen=True)
class McmcConfig:
    n_iter: int = 55_000
    burn_in: int = 5_000
    thin: int = 10
    adapt_interval: int = 50
    target_accept: float = 0.44
    divergence_factor: float = 10.0
    divergence_run: int = 1_000

    def __post_init__(self):
        if self.burn_in >= self.n_iter:
            raise InputError(f"burn_in ({self.burn_in}) must be < n_iter ({self.n_iter})")
        if self.thin < 1:
            raise InputError(f"thin must be >= 1, got {self.thin}")


class ChainDivergenceError(RuntimeError):
    """sigma drifted far above its running median for too long (improper posterior?)."""


class TooFewRegionsError(ValueError):
    """Fewer than 5 regions to fit the mixed model on."""


class ZeroCountsError(ValueError):
    """Every count in the fit set is zero, so the intercept is not identifiable."""


class RhoGridFactors:
    """Per-grid-point correlation-matrix Cholesky factors, inverses and log-dets.

    R comes from one ``matern_cov`` call over the strict lower triangle of ``dm``
    at every grid point; each R^{-1} from ``dpotri``, kept as its upper triangle
    with off-diagonals doubled (``packed``, read by :meth:`quad_forms`), and
    R^{-1} 1 (``rinv_one``) from two triangular solves."""

    def __init__(self, dm, prior: PriorSpec, nu: float):
        dm = np.asarray(dm, dtype=float)
        m = dm.shape[0]
        grid = prior.rho_grid
        self.grid = grid
        self.triu = i, j = np.triu_indices(m)
        double = np.where(i == j, 1.0, 2.0)
        self.logdet = np.empty(len(grid))
        self.packed = np.empty((len(grid), len(i)))
        self.rinv_one = np.empty((len(grid), m))
        self.chol = []
        below = np.tril_indices(m, -1)
        corr = matern_cov(dm[below] / grid[:, None], MaternParams(sigma=1.0, rho=1.0, nu=nu))
        r = np.eye(m)  # cholesky's dpotrf(lower=1) reads only the lower triangle
        for g in range(len(grid)):
            r[below] = corr[g]
            fac = cholesky(r, jitter_scale=1.0)
            L = fac.L
            self.chol.append(fac)
            self.logdet[g] = 2.0 * np.log(np.diag(L)).sum()
            inv, info = lapack.dpotri(L, lower=1)  # R^{-1} in the lower triangle
            if info != 0:
                raise LinAlgError(f"dpotri failed with info {info}")
            self.packed[g] = inv.T[i, j] * double
            self.rinv_one[g] = blas.dtrsv(L, blas.dtrsv(L, np.ones(m), lower=1), lower=1, trans=1)

    def quad_forms(self, z):
        """z' R^{-1} z at every grid point, shape (n_grid,)."""
        i, j = self.triu
        return self.packed @ (z[i] * z[j])


@dataclass(frozen=True)
class ModelIIFit:
    """Retained posterior draws with summaries and chain diagnostics."""

    beta: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    z: np.ndarray  # (n_draws, m)
    acceptance: dict
    ess: dict
    config: McmcConfig
    prior: PriorSpec
    nu: float
    seed: object
    warnings: tuple = ()

    @property
    def n_draws(self):
        return len(self.beta)

    @property
    def posterior_mean(self):
        return (
            float(self.beta.mean()),
            float(self.sigma.mean()),
            float(self.rho.mean()),
        )

    @property
    def rho_boundary_fraction(self):
        """Fraction of rho draws in the top 5% of the grid (upper-bound diagnostic)."""
        cutoff = self.prior.rho_upper - max(1, int(math.ceil(0.05 * self.prior.rho_upper))) + 1
        return float(np.mean(self.rho >= cutoff))

    def credible_interval(self, name, level=0.9):
        draws = getattr(self, name)
        a = (1 - level) / 2
        return tuple(np.quantile(draws, [a, 1 - a]))

    def summary(self):
        qs = [0.05, 0.25, 0.5, 0.75, 0.95]
        out = {
            "config": {
                "n_iter": self.config.n_iter,
                "burn_in": self.config.burn_in,
                "thin": self.config.thin,
                "seed": self.seed,
                "rho_upper": self.prior.rho_upper,
                "nu": self.nu,
            },
            "acceptance": self.acceptance,
            "ess": self.ess,
            "rho_boundary_fraction": self.rho_boundary_fraction,
            "warnings": list(self.warnings),
        }
        for name in ("beta", "sigma", "rho"):
            draws = getattr(self, name)
            out[name] = {
                "mean": float(draws.mean()),
                "sd": float(draws.std(ddof=1)) if len(draws) > 1 else 0.0,
                "quantiles": {str(q): float(np.quantile(draws, q)) for q in qs},
            }
        return out


def effective_sample_size(x):
    """ESS via Geyer's initial positive sequence on the autocorrelation."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 4 or np.allclose(x, x[0]):
        return float(n)
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n].real / n
    rho = acov / acov[0]
    s = 0.0
    for k in range(1, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair < 0:
            break
        s += pair
    return float(n / max(1.0, 1.0 + 2.0 * s))


_MAX_SHRINKS = 100


def elliptical_slice(z, prior_draw, loglik, current, rng):
    """One elliptical slice update (Murray, Adams & MacKay 2010) of ``z`` under
    a zero-mean Gaussian prior, given a fresh ``prior_draw`` from it and
    ``current = loglik(z)``; a NaN or -inf log-likelihood never clears the
    slice.  Returns ``(z, loglik, shrinks)``; after ``_MAX_SHRINKS`` shrinks
    the state is kept, so rounding cannot make the loop spin forever."""
    log_slice = current + math.log(rng.random())
    theta = 2.0 * math.pi * rng.random()
    lo, hi = theta - 2.0 * math.pi, theta
    for step in range(_MAX_SHRINKS):
        zp = z * math.cos(theta) + prior_draw * math.sin(theta)
        ll = loglik(zp)
        if ll > log_slice:
            return zp, ll, step
        if theta < 0.0:
            lo = theta
        else:
            hi = theta
        theta = rng.uniform(lo, hi)
    return z, current, _MAX_SHRINKS


def _draw_index(weights, rng):
    """Index drawn with probability proportional to ``weights`` by inverse CDF: one
    ``rng.random()``, the same index as ``rng.choice(len(weights), p=weights / weights.sum())``."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _gibbs_intercept(sum_y, s_pop, rng):
    """beta | z under the flat prior: e^beta ~ Gamma(sum y, rate sum n e^z)."""
    return math.log(rng.gamma(sum_y) / s_pop)


def _gibbs_sigma(quad, m, rng):
    """sigma | z under the flat prior: sigma^-2 ~ Gamma((m-1)/2, rate z'R^{-1}z / 2)."""
    return 1.0 / math.sqrt(rng.gamma(0.5 * (m - 1), 2.0 / quad))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing rate is a rejection
def fit_model2(y, n, dm, prior: PriorSpec, nu=1.0, config: McmcConfig | None = None,
               seed=None, rho_factors: RhoGridFactors | None = None) -> ModelIIFit:
    """Run the Gibbs chain; deterministic given seed."""
    y = np.asarray(y, dtype=float)
    n = np.asarray(n, dtype=float)
    m = len(y)
    if m < 5:
        raise TooFewRegionsError("need at least 5 regions in the fit set")
    sum_y = float(y.sum())
    if sum_y <= 0:
        raise ZeroCountsError("all counts are zero: intercept not identifiable under a flat prior")
    config = config or McmcConfig()
    rng = np.random.default_rng(seed)
    fac = rho_factors or RhoGridFactors(dm, prior, nu)
    grid = fac.grid
    rinv_total = fac.rinv_one.sum(axis=1)  # 1' R^{-1} 1 per grid point

    # state
    beta = math.log(sum_y / n.sum())
    z = np.zeros(m)
    sigma = 0.1
    rho_idx = (len(grid) - 1) // 2

    ridge_scale = 0.1
    scale_scale = 0.3
    z_first = ridge_acc = scale_acc = 0

    keep_beta, keep_sigma, keep_rho, keep_z = [], [], [], []
    sigma_trace = np.empty(config.n_iter)
    sigma_median = sigma
    div_streak = 0
    target = config.target_accept

    for it in range(config.n_iter):
        adapting = it < config.burn_in

        # latent field: elliptical slice update under N(0, sigma^2 R_rho)
        eb = math.exp(beta)

        def loglik(v):
            return float(y @ v) - eb * float(n @ np.exp(v))

        prior_draw = sigma * (fac.chol[rho_idx].L @ rng.standard_normal(m))
        z, _, shrinks = elliptical_slice(z, prior_draw, loglik, loglik(z), rng)
        z_first += shrinks == 0
        s_pop = float(n @ np.exp(z))  # sum n_i e^{z_i}

        beta = _gibbs_intercept(sum_y, s_pop, rng)

        # ridge move: shift beta up and the whole field down by the same
        # amount; the Poisson likelihood is invariant, only the Gaussian
        # prior changes, which decorrelates beta from the field level
        delta = ridge_scale * rng.standard_normal()
        dquad = delta * delta * rinv_total[rho_idx] - 2.0 * delta * float(fac.rinv_one[rho_idx] @ z)
        if math.log(rng.random()) < -0.5 * dquad / (sigma * sigma):
            beta += delta
            z = z - delta
            s_pop = float(n @ np.exp(z))
            ridge_acc += 1

        quads = fac.quad_forms(z)  # z' R^{-1} z at every grid point
        if quads[rho_idx] > 0.0:  # 0 only before z has first moved
            sigma = _gibbs_sigma(quads[rho_idx], m, rng)

        # scaling move: inflate or deflate sigma and the whole field together;
        # the Gaussian prior term quad/sigma^2 is invariant, so the move walks
        # along the prior funnel and is gated by the Poisson likelihood
        # (log ratio = delta-likelihood + delta from the volume terms)
        delta = scale_scale * rng.standard_normal()
        g = math.exp(delta)
        zs = z * g
        s_new = float(n @ np.exp(zs))
        dpois = float(y @ (zs - z)) - math.exp(beta) * (s_new - s_pop)
        if math.isfinite(dpois) and math.log(rng.random()) < dpois + delta:
            z = zs
            sigma *= g
            quads *= g * g
            scale_acc += 1

        # rho: exact Gibbs over the grid
        logp = -0.5 * quads / (sigma * sigma) - 0.5 * fac.logdet
        rho_idx = _draw_index(np.exp(logp - logp.max()), rng)

        # divergence diagnostic on sigma
        sigma_trace[it] = sigma
        if (it + 1) % 500 == 0:
            sigma_median = float(np.median(sigma_trace[: it + 1]))
        if sigma > config.divergence_factor * sigma_median:
            div_streak += 1
            if div_streak >= config.divergence_run:
                raise ChainDivergenceError(
                    f"sigma={sigma:.3g} above {config.divergence_factor}x running "
                    f"median {sigma_median:.3g} for {div_streak} consecutive iterations"
                )
        else:
            div_streak = 0

        # proposal adaptation, frozen at end of burn-in
        if adapting and (it + 1) % config.adapt_interval == 0:
            k = config.adapt_interval
            ridge_scale *= math.exp(ridge_acc / k - target)
            ridge_scale = min(max(ridge_scale, 1e-4), 10.0)
            scale_scale *= math.exp(scale_acc / k - target)
            scale_scale = min(max(scale_scale, 1e-4), 10.0)
            ridge_acc = scale_acc = 0

        if not adapting and (it + 1 - config.burn_in) % config.thin == 0:
            keep_beta.append(beta)
            keep_sigma.append(sigma)
            keep_rho.append(float(grid[rho_idx]))
            keep_z.append(z.copy())

        if it == config.burn_in - 1:
            # reset counters so reported rates cover the post-burn-in phase
            z_first = ridge_acc = scale_acc = 0

    beta_draws = np.array(keep_beta)
    sigma_draws = np.array(keep_sigma)
    rho_draws = np.array(keep_rho)
    z_draws = np.array(keep_z)
    denom = max(1, config.n_iter - config.burn_in)
    acceptance = {
        "z": z_first / denom,  # slice updates accepted on their first proposal
        "beta": 1.0,  # exact draws
        "sigma": 1.0,
        "ridge": ridge_acc / denom,
        "scale": scale_acc / denom,
    }
    ess = {
        "beta": effective_sample_size(beta_draws),
        "sigma": effective_sample_size(sigma_draws),
        "rho": effective_sample_size(rho_draws),
    }
    warnings = []
    if ess["beta"] < 100:
        warnings.append(f"low ESS for beta: {ess['beta']:.1f} < 100")
    return ModelIIFit(
        beta=beta_draws,
        sigma=sigma_draws,
        rho=rho_draws,
        z=z_draws,
        acceptance=acceptance,
        ess=ess,
        config=config,
        prior=prior,
        nu=nu,
        seed=seed,
        warnings=tuple(warnings),
    )


def posterior_means(fit: ModelIIFit):
    """(beta_hat, sigma_hat, rho_hat); rho_hat also snapped to the grid."""
    if fit.n_draws < 1:
        raise ValueError("no retained draws")
    b, s, r = fit.posterior_mean
    r_grid = float(np.clip(round(r), 1, fit.prior.rho_upper))
    return b, s, r, r_grid
