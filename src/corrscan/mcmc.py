"""Bayesian fit of the spatial Poisson mixed model by Metropolis-within-Gibbs.

Counts are Poisson with log-rate = beta + log(population) + Z, where Z is a
zero-mean Gaussian field with Matérn covariance sigma^2 (d/rho) K_1(d/rho): the
smoothness is fixed at 1.  Priors: flat on beta, flat on sigma > 0, uniform
over an integer grid 1..U for rho.  Each iteration updates the whole field by
one elliptical slice step under its Gaussian prior, draws beta exactly from its
full conditional, moves rho by Metropolis on its conditional with sigma
integrated out (a collapsed step, Liu 1994), draws sigma exactly given rho,
and adds two adaptive joint moves that shift and scale the field against beta
and sigma.  Each fit builds the correlation-matrix factors of its rho grid
first, a bounded block of grid points at a time.
The variates every iteration needs (prior normals, move normals, accept
uniforms, rho steps, gammas) are drawn for a block of ``_DRAW_BLOCK``
iterations at a time; only the slice's shrink angles, whose number varies,
are drawn one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .matern import MaternParams, cholesky, matern_cov
from .region import InputError, _check_whole
from .scan import _STREAM_ELEMENTS

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
        _check_whole("rho_upper", self.rho_upper, 2)

    @property
    def rho_grid(self):
        return np.arange(1, self.rho_upper + 1)


@dataclass(frozen=True)
class McmcConfig:
    n_iter: int = 55_000
    burn_in: int = 5_000
    thin: int = 10

    def __post_init__(self):
        _check_whole("n_iter", self.n_iter, 1)
        _check_whole("burn_in", self.burn_in, 0)
        _check_whole("thin", self.thin, 1)
        if self.burn_in >= self.n_iter:
            raise InputError(f"burn_in ({self.burn_in}) must be < n_iter ({self.n_iter})")


class ChainDivergenceError(RuntimeError):
    """sigma drifted far above its running median for too long (improper posterior?)."""


class TooFewRegionsError(InputError):
    """Fewer than 5 regions to fit the mixed model on."""


class ZeroCountsError(InputError):
    """Every count in the fit set is zero, so the intercept is not identifiable."""


class RhoGridFactors:
    """Per-grid-point correlation-matrix Cholesky factors, log-dets and R^{-1} 1.

    R comes from ``matern_cov`` over the strict lower triangle of ``dm``, one
    block of grid points (at most ``scan._STREAM_ELEMENTS`` values, or one
    point) per call, factored before the next block; R^{-1} 1 (``rinv_one``)
    from two triangular solves against its factor.  No R^{-1} is formed:
    :meth:`quad_form` solves once."""

    def __init__(self, dm, prior: PriorSpec):
        dm = np.asarray(dm, dtype=float)
        m = dm.shape[0]
        grid = prior.rho_grid
        self.grid = grid
        self.logdet = np.empty(len(grid))
        self.rinv_one = np.empty((len(grid), m))
        self.chol = []
        below = np.tril_indices(m, -1)
        d = dm[below]
        step = max(1, _STREAM_ELEMENTS // max(1, d.size))
        r = np.eye(m)  # cholesky's dpotrf(lower=1) reads only the lower triangle
        for g in range(len(grid)):
            if g % step == 0:
                corr = matern_cov(d / grid[g:g + step, None], MaternParams(sigma=1.0, rho=1.0))
            r[below] = corr[g % step]
            fac = cholesky(r, jitter_scale=1.0)
            L = fac.L
            self.chol.append(fac)
            self.logdet[g] = 2.0 * np.log(np.diag(L)).sum()
            self.rinv_one[g] = blas.dtrsv(L, blas.dtrsv(L, np.ones(m), lower=1), lower=1, trans=1)

    def quad_form(self, g, z):
        """z' R^{-1} z at grid index ``g``, by one triangular solve."""
        w = blas.dtrsv(self.chol[g].L, z, lower=1)
        return float(w.dot(w))


@dataclass(frozen=True)
class ModelIIFit:
    """Retained posterior draws with summaries and chain diagnostics."""

    beta: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    acceptance: dict
    ess: dict
    config: McmcConfig
    prior: PriorSpec
    seed: object
    warnings: tuple = ()

    @property
    def n_draws(self):
        return len(self.beta)

    @property
    def rho_boundary_fraction(self):
        """Fraction of rho draws in the top 5% of the grid (upper-bound diagnostic)."""
        cutoff = self.prior.rho_upper - max(1, int(math.ceil(0.05 * self.prior.rho_upper))) + 1
        return float(np.mean(self.rho >= cutoff))

    def summary(self):
        qs = [0.05, 0.25, 0.5, 0.75, 0.95]
        out = {
            "config": {
                "n_iter": self.config.n_iter,
                "burn_in": self.config.burn_in,
                "thin": self.config.thin,
                "seed": self.seed,
                "rho_upper": self.prior.rho_upper,
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
_DRAW_BLOCK = 256  # iterations whose fixed variates come from one set of draws
_ADAPT_INTERVAL = 50  # burn-in iterations between proposal-scale updates
_TARGET_ACCEPT = 0.44  # acceptance rate the ridge and scale moves adapt towards
_DIVERGENCE_FACTOR = 10.0  # sigma this far above its running median, for
_DIVERGENCE_RUN = 1_000  # this many consecutive iterations, is a divergence
_RHO_PROPOSALS = 2  # rho proposals per iteration, each moving the grid
_RHO_STEP = 20  # index by U{1..20} up or down; off-grid proposals are rejected


def elliptical_slice(z, prior_draw, loglik, current, u_level, u_angle, rng):
    """One elliptical slice update (Murray, Adams & MacKay 2010) of ``z`` under
    a zero-mean Gaussian prior, given a fresh ``prior_draw`` from it,
    ``current = loglik(z)`` and two uniforms that set the slice level and the
    first angle; a NaN or -inf log-likelihood never clears the slice.  Each
    shrink draws its angle by ``rng.random()``.  Returns
    ``(z, loglik, shrinks)``; after ``_MAX_SHRINKS`` shrinks the state is
    kept, so rounding cannot make the loop spin forever."""
    log_slice = current + math.log(u_level)
    theta = 2.0 * math.pi * u_angle
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
        theta = lo + (hi - lo) * rng.random()  # the bits of rng.uniform(lo, hi)
    return z, current, _MAX_SHRINKS


def _draw_block(rng, size, m, sum_y):
    """The fixed variates of ``size`` iterations, one sized call each: the
    (size, m) standard normals of the slice's prior draw; the ridge and scale
    normals (size, 2); the uniforms (size, 4 + _RHO_PROPOSALS) for the slice
    level, the first angle, the ridge accept, each rho accept and the scale
    accept, in the order an iteration uses them; the rho steps
    (size, _RHO_PROPOSALS) in [-_RHO_STEP, _RHO_STEP); and standard gammas of
    shape sum y and (m - 1) / 2 for the intercept and scale draws (numpy's
    ``gamma(k, theta)`` is theta * ``standard_gamma(k)``)."""
    return (rng.standard_normal((size, m)),
            rng.standard_normal((size, 2)),
            rng.random((size, 4 + _RHO_PROPOSALS)),
            rng.integers(-_RHO_STEP, _RHO_STEP, (size, _RHO_PROPOSALS)),
            rng.standard_gamma(sum_y, size),
            rng.standard_gamma(0.5 * (m - 1), size))


def _gibbs_intercept(gamma_draw, s_pop):
    """beta | z under the flat prior: e^beta ~ Gamma(sum y, rate sum n e^z),
    given a standard gamma of shape sum y."""
    return math.log(gamma_draw / s_pop)


def _gibbs_sigma(gamma_draw, quad):
    """sigma | z under the flat prior: sigma^-2 ~ Gamma((m-1)/2, rate z'R^{-1}z / 2),
    given a standard gamma of shape (m-1)/2."""
    return 1.0 / math.sqrt(2.0 * gamma_draw / quad)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing rate is a rejection
def fit_model2(y, n, dm, prior: PriorSpec, config: McmcConfig | None = None,
               seed=None) -> ModelIIFit:
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
    fac = RhoGridFactors(dm, prior)
    grid = fac.grid
    chol = [f.L for f in fac.chol]
    rinv_total = fac.rinv_one.sum(axis=1).tolist()  # 1' R^{-1} 1 per grid point
    logdet = fac.logdet.tolist()

    # state
    beta = math.log(sum_y / n.sum())
    z = np.zeros(m)
    s_pop = float(n.dot(np.exp(z)))  # sum n_i e^{z_i}, carried with z
    sigma = 0.1
    rho_idx = (len(grid) - 1) // 2

    ridge_scale = 0.1
    scale_scale = 0.3
    z_first = ridge_acc = scale_acc = 0

    keep_beta, keep_sigma, keep_rho = [], [], []
    sigma_trace = np.empty(config.n_iter)
    sigma_median = sigma
    div_streak = 0

    eb = s_prop = 0.0

    def loglik(v):  # Poisson log-likelihood at e^beta = eb; leaves sum n e^v in s_prop
        nonlocal s_prop
        s_prop = float(n.dot(np.exp(v)))
        return float(y.dot(v)) - eb * s_prop

    for it in range(config.n_iter):
        k = it % _DRAW_BLOCK
        if k == 0:
            prior_normals, *rest = _draw_block(rng, _DRAW_BLOCK, m, sum_y)
            normals, uniforms, steps, gamma_beta, gamma_sigma = (b.tolist() for b in rest)
        d_ridge, d_scale = normals[k]
        u_level, u_angle, u_ridge, *u_rho, u_scale = uniforms[k]
        adapting = it < config.burn_in

        # latent field: elliptical slice update under N(0, sigma^2 R_rho)
        eb = math.exp(beta)
        prior_draw = sigma * chol[rho_idx].dot(prior_normals[k])
        z, _, shrinks = elliptical_slice(z, prior_draw, loglik, float(y.dot(z)) - eb * s_pop,
                                         u_level, u_angle, rng)
        if shrinks < _MAX_SHRINKS:
            s_pop = s_prop
        z_first += shrinks == 0

        beta = _gibbs_intercept(gamma_beta[k], s_pop)

        # ridge move: shift beta up and the whole field down by the same
        # amount; the Poisson likelihood is invariant, only the Gaussian
        # prior changes, which decorrelates beta from the field level
        delta = ridge_scale * d_ridge
        dquad = delta * delta * rinv_total[rho_idx] - 2.0 * delta * float(fac.rinv_one[rho_idx].dot(z))
        if math.log(u_ridge) < -0.5 * dquad / (sigma * sigma):
            beta += delta
            z = z - delta
            s_pop = float(n.dot(np.exp(z)))
            ridge_acc += 1

        # rho | z with sigma integrated out, p(rho | z) ~ |R|^{-1/2}
        # (z'R^{-1}z)^{-(m-1)/2}: symmetric local moves on the grid index,
        # then sigma | rho, z exactly
        quad = fac.quad_form(rho_idx, z)
        if quad > 0.0:  # 0 only before z has first moved
            for step, u in zip(steps[k], u_rho):
                prop = rho_idx + step + (step >= 0)
                if 0 <= prop < len(grid):
                    q = fac.quad_form(prop, z)
                    log_ratio = (0.5 * (logdet[rho_idx] - logdet[prop])
                                 - 0.5 * (m - 1) * math.log(q / quad))
                    if math.log(u) < log_ratio:
                        rho_idx, quad = prop, q
            sigma = _gibbs_sigma(gamma_sigma[k], quad)

        # scaling move: inflate or deflate sigma and the whole field together;
        # the Gaussian prior term quad/sigma^2 is invariant, so the move walks
        # along the prior funnel and is gated by the Poisson likelihood
        # (log ratio = delta-likelihood + delta from the volume terms)
        delta = scale_scale * d_scale
        g = math.exp(delta)
        zs = z * g
        s_new = float(n.dot(np.exp(zs)))
        dpois = float(y.dot(zs - z)) - math.exp(beta) * (s_new - s_pop)
        if math.isfinite(dpois) and math.log(u_scale) < dpois + delta:
            z = zs
            s_pop = s_new
            sigma *= g
            scale_acc += 1

        # divergence diagnostic on sigma
        sigma_trace[it] = sigma
        if (it + 1) % 500 == 0:
            sigma_median = float(np.median(sigma_trace[: it + 1]))
        if sigma > _DIVERGENCE_FACTOR * sigma_median:
            div_streak += 1
            if div_streak >= _DIVERGENCE_RUN:
                raise ChainDivergenceError(
                    f"sigma={sigma:.3g} above {_DIVERGENCE_FACTOR}x running "
                    f"median {sigma_median:.3g} for {div_streak} consecutive iterations"
                )
        else:
            div_streak = 0

        # proposal adaptation, frozen at end of burn-in
        if adapting and (it + 1) % _ADAPT_INTERVAL == 0:
            ridge_scale *= math.exp(ridge_acc / _ADAPT_INTERVAL - _TARGET_ACCEPT)
            ridge_scale = min(max(ridge_scale, 1e-4), 10.0)
            scale_scale *= math.exp(scale_acc / _ADAPT_INTERVAL - _TARGET_ACCEPT)
            scale_scale = min(max(scale_scale, 1e-4), 10.0)
            ridge_acc = scale_acc = 0

        if not adapting and (it + 1 - config.burn_in) % config.thin == 0:
            keep_beta.append(beta)
            keep_sigma.append(sigma)
            keep_rho.append(float(grid[rho_idx]))

        if it == config.burn_in - 1:
            # reset counters so reported rates cover the post-burn-in phase
            z_first = ridge_acc = scale_acc = 0

    beta_draws = np.array(keep_beta)
    sigma_draws = np.array(keep_sigma)
    rho_draws = np.array(keep_rho)
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
        acceptance=acceptance,
        ess=ess,
        config=config,
        prior=prior,
        seed=seed,
        warnings=tuple(warnings),
    )


def posterior_means(fit: ModelIIFit):
    """(beta_hat, sigma_hat, rho_hat); rho_hat also snapped to the grid."""
    if fit.n_draws < 1:
        raise ValueError("no retained draws")
    b, s, r = (float(draws.mean()) for draws in (fit.beta, fit.sigma, fit.rho))
    r_grid = float(np.clip(round(r), 1, fit.prior.rho_upper))
    return b, s, r, r_grid
