"""Bayesian fit of the spatial Poisson mixed model by Metropolis-within-Gibbs.

Counts are Poisson with log-rate = beta + log(population) + Z, where Z is a
zero-mean Gaussian field with Matérn covariance sigma^2 R(rho).  Priors:
flat on beta, flat on sigma > 0, uniform over an integer grid 1..U for rho.
The latent field and beta use adaptive random-walk proposals, sigma a
random walk on log sigma, and rho an exact Gibbs draw over the grid using
correlation-matrix factors precomputed once per geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .matern import MaternParams, cholesky, matern_cov
from .region import InputError

__all__ = [
    "PriorSpec",
    "McmcConfig",
    "ModelIIFit",
    "ChainDivergenceError",
    "RhoGridFactors",
    "log_posterior",
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


class RhoGridFactors:
    """Per-grid-point correlation-matrix Cholesky factors, inverses and log-dets."""

    def __init__(self, dm, prior: PriorSpec, nu: float):
        dm = np.asarray(dm, dtype=float)
        m = dm.shape[0]
        grid = prior.rho_grid
        self.grid = grid
        self.nu = nu
        self.logdet = np.empty(len(grid))
        self.inv = np.empty((len(grid), m, m))
        self.chol = []
        eye = np.eye(m)
        for g, rho in enumerate(grid):
            r = matern_cov(dm, MaternParams(sigma=1.0, rho=float(rho), nu=nu))
            fac = cholesky(r, jitter_scale=1.0)
            L = fac.L
            self.chol.append(fac)
            self.logdet[g] = 2.0 * np.log(np.diag(L)).sum()
            linv = np.linalg.solve(L, eye)
            self.inv[g] = linv.T @ linv


def log_posterior(beta, sigma, rho, z, y, n, dm, nu=1.0, prior: PriorSpec | None = None):
    """Unnormalized log posterior; -inf (reject state) on numerical overflow."""
    y = np.asarray(y, dtype=float)
    n = np.asarray(n, dtype=float)
    z = np.asarray(z, dtype=float)
    if sigma <= 0:
        return -np.inf
    if prior is not None and not (1 <= rho <= prior.rho_upper):
        return -np.inf
    with np.errstate(over="ignore"):
        rates = n * np.exp(beta + z)
    if not np.all(np.isfinite(rates)):
        return -np.inf
    pois = float(np.sum(y * (beta + np.log(n) + z) - rates))
    r = matern_cov(np.asarray(dm, dtype=float), MaternParams(sigma=1.0, rho=float(rho), nu=nu))
    fac = cholesky(r, jitter_scale=1.0)
    w = np.linalg.solve(fac.L, z)
    quad = float(w @ w)
    logdet_r = 2.0 * float(np.log(np.diag(fac.L)).sum())
    m = len(z)
    gauss = -0.5 * quad / sigma**2 - 0.5 * (logdet_r + m * math.log(sigma**2))
    return pois + gauss  # flat/uniform priors contribute constants only


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

    def to_json(self, **kwargs):
        return json.dumps(self.summary(), **kwargs)


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


def fit_model2(y, n, dm, prior: PriorSpec, nu=1.0, config: McmcConfig | None = None,
               seed=None, rho_factors: RhoGridFactors | None = None) -> ModelIIFit:
    """Run the Metropolis-within-Gibbs chain; deterministic given seed."""
    y = np.asarray(y, dtype=float)
    n = np.asarray(n, dtype=float)
    dm = np.asarray(dm, dtype=float)
    m = len(y)
    if m < 5:
        raise ValueError("need at least 5 regions in the fit set")
    if y.sum() <= 0:
        raise ValueError("all counts are zero: intercept not identifiable under a flat prior")
    config = config or McmcConfig()
    rng = np.random.default_rng(seed)
    fac = rho_factors or RhoGridFactors(dm, prior, nu)
    grid = fac.grid
    n_grid = len(grid)

    # state
    beta = math.log(y.sum() / n.sum())
    z = np.zeros(m)
    sigma = 0.1
    rho_idx = (n_grid - 1) // 2
    rinv = fac.inv[rho_idx]
    qz = rinv @ z
    quad = float(z @ qz)
    s_pop = float(np.sum(n * np.exp(z)))  # sum n_i e^{z_i}
    sum_y = float(y.sum())

    z_scale = np.full(m, 0.5)
    beta_scale = 0.1
    sigma_scale = 0.3
    ridge_scale = 0.1
    scale_scale = 0.3
    z_acc = np.zeros(m)
    beta_acc = 0
    sigma_acc = 0
    ridge_acc = 0
    scale_acc = 0
    rinv_rowsum = fac.inv.sum(axis=2)  # (n_grid, m) = R^{-1} 1
    rinv_total = rinv_rowsum.sum(axis=1)  # 1' R^{-1} 1

    keep_beta, keep_sigma, keep_rho, keep_z = [], [], [], []
    sigma_trace = []
    sigma_median = sigma
    div_streak = 0
    target = config.target_accept

    ny = n.copy()
    yy = y.copy()
    exp = math.exp
    log = math.log

    for it in range(config.n_iter):
        adapting = it < config.burn_in
        eb = exp(beta)

        # componentwise latent-field updates
        steps = rng.standard_normal(m)
        logu = np.log(rng.random(m))
        for i in range(m):
            zi = z[i]
            zp = zi + z_scale[i] * steps[i]
            d = zp - zi
            rii = rinv[i, i]
            cross = qz[i] - rii * zi
            dquad = rii * (zp * zp - zi * zi) + 2.0 * d * cross
            try:
                dpois = yy[i] * d - ny[i] * eb * (exp(zp) - exp(zi))
            except OverflowError:
                continue
            if not math.isfinite(dpois):
                continue
            if logu[i] < dpois - 0.5 * dquad / (sigma * sigma):
                s_pop += ny[i] * (exp(zp) - exp(zi))
                z[i] = zp
                qz += rinv[:, i] * d
                quad += dquad
                z_acc[i] += 1

        # intercept
        bp = beta + beta_scale * rng.standard_normal()
        try:
            dpost = sum_y * (bp - beta) - s_pop * (exp(bp) - eb)
        except OverflowError:
            dpost = -np.inf
        if math.isfinite(dpost) and log(rng.random()) < dpost:
            beta = bp
            beta_acc += 1

        # ridge move: shift beta up and the whole field down by the same
        # amount; the Poisson likelihood is invariant, only the Gaussian
        # prior changes, which decorrelates beta from the field level
        delta = ridge_scale * rng.standard_normal()
        q1 = rinv_rowsum[rho_idx]
        s11 = rinv_total[rho_idx]
        dquad = delta * delta * s11 - 2.0 * delta * float(np.sum(qz))
        if log(rng.random()) < -0.5 * dquad / (sigma * sigma):
            beta += delta
            z -= delta
            qz -= delta * q1
            quad += dquad
            s_pop = float(np.sum(ny * np.exp(z)))
            ridge_acc += 1

        # sigma via random walk on log sigma (flat prior on sigma, +t Jacobian)
        t = log(sigma)
        tp = t + sigma_scale * rng.standard_normal()
        sp = exp(tp)
        dpost = -0.5 * quad * (1.0 / (sp * sp) - 1.0 / (sigma * sigma)) - m * (tp - t) + (tp - t)
        if math.isfinite(dpost) and log(rng.random()) < dpost:
            sigma = sp
            sigma_acc += 1

        # scaling move: inflate or deflate sigma and the whole field together;
        # the Gaussian prior term quad/sigma^2 is invariant, so the move walks
        # along the prior funnel and is gated by the Poisson likelihood
        # (log ratio = delta-likelihood + delta from the volume terms)
        delta = scale_scale * rng.standard_normal()
        g = exp(delta)
        zs = z * g
        with np.errstate(over="ignore"):
            new_exp = np.exp(zs)
        if np.all(np.isfinite(new_exp)):
            s_new = float(np.sum(ny * new_exp))
            dpois = float(np.sum(yy * (zs - z))) - exp(beta) * (s_new - s_pop)
            if math.isfinite(dpois) and log(rng.random()) < dpois + delta:
                z = zs
                sigma *= g
                qz *= g
                quad *= g * g
                s_pop = s_new
                scale_acc += 1

        # rho: exact Gibbs over the grid
        tmp = fac.inv @ z  # (n_grid, m)
        quad_all = tmp @ z
        logp = -0.5 * quad_all / (sigma * sigma) - 0.5 * fac.logdet
        logp -= logp.max()
        p = np.exp(logp)
        p /= p.sum()
        new_idx = int(rng.choice(n_grid, p=p))
        if new_idx != rho_idx:
            rho_idx = new_idx
            rinv = fac.inv[rho_idx]
            qz = tmp[rho_idx].copy()
            quad = float(quad_all[rho_idx])

        # divergence diagnostic on sigma
        sigma_trace.append(sigma)
        if (it + 1) % 500 == 0:
            sigma_median = float(np.median(sigma_trace))
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
            z_scale *= np.exp(z_acc / k - target)
            np.clip(z_scale, 1e-3, 10.0, out=z_scale)
            beta_scale *= math.exp(beta_acc / k - target)
            beta_scale = min(max(beta_scale, 1e-4), 10.0)
            sigma_scale *= math.exp(sigma_acc / k - target)
            sigma_scale = min(max(sigma_scale, 1e-4), 10.0)
            ridge_scale *= math.exp(ridge_acc / k - target)
            ridge_scale = min(max(ridge_scale, 1e-4), 10.0)
            scale_scale *= math.exp(scale_acc / k - target)
            scale_scale = min(max(scale_scale, 1e-4), 10.0)
            z_acc[:] = 0
            beta_acc = 0
            sigma_acc = 0
            ridge_acc = 0
            scale_acc = 0

        if not adapting:
            if (it + 1 - config.burn_in) % config.thin == 0:
                keep_beta.append(beta)
                keep_sigma.append(sigma)
                keep_rho.append(float(grid[rho_idx]))
                keep_z.append(z.copy())

        if it == config.burn_in - 1:
            # reset counters so reported rates cover the post-burn-in phase
            z_acc[:] = 0
            beta_acc = 0
            sigma_acc = 0
            ridge_acc = 0
            scale_acc = 0

    beta_draws = np.array(keep_beta)
    sigma_draws = np.array(keep_sigma)
    rho_draws = np.array(keep_rho)
    z_draws = np.array(keep_z)
    denom = max(1, config.n_iter - config.burn_in)
    acceptance = {
        "z": float(z_acc.sum() / (denom * m)),
        "beta": beta_acc / denom,
        "sigma": sigma_acc / denom,
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
