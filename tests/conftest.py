"""Shared fixtures and independent oracle implementations.

Oracles here are deliberately naive (brute-force loops, direct summation)
so they cannot share bugs with the vectorized implementations under test.
"""

import math

import numpy as np
import pytest

from corrscan import (MaternParams, StudyRegion, cholesky, distance_matrix, matern_cov,
                      simulate_model2_counts, synth_geometry)
from corrscan.mcmc import (_ADAPT_INTERVAL, _DIVERGENCE_FACTOR, _DIVERGENCE_RUN, _DRAW_BLOCK,
                           _MAX_SHRINKS, _TARGET_ACCEPT, ChainDivergenceError, McmcConfig,
                           ModelIIFit, RhoGridFactors, TooFewRegionsError, ZeroCountsError,
                           _draw_block, _gibbs_intercept, _gibbs_sigma, effective_sample_size)


@pytest.fixture
def small_region():
    """Six regions on a fixed 2-D layout, one period, round populations."""
    return StudyRegion(
        ids=("A", "B", "C", "D", "E", "F"),
        centroids=np.array([
            [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
            [5.0, 5.0], [6.0, 5.0], [5.0, 6.0],
        ]),
        periods=("all",),
        populations=np.array([[100.0, 120.0, 80.0, 150.0, 90.0, 110.0]]),
        cases=np.array([[2, 3, 1, 4, 2, 3]]),
    )


def random_region(rng, m, n_periods=1, max_pop=500):
    """A random valid StudyRegion for property/oracle tests."""
    return StudyRegion(
        ids=tuple(f"r{i}" for i in range(m)),
        centroids=rng.uniform(0, 10, (m, 2)),
        periods=tuple(f"t{t}" for t in range(n_periods)),
        populations=rng.uniform(10, max_pop, (n_periods, m)),
        cases=rng.integers(0, 30, (n_periods, m)),
    )


def two_iteration_region():
    """m = 30 counts drawn under a strong field (sigma 0.6, rho 20), as
    (region, distance matrix).  ``adjusted_scan`` with ``PriorSpec(20)``,
    M = 199, a 1,200-iteration chain and seeds 1-3 screens a different set of
    clusters after its first fit, and so takes a second iteration."""
    sr = synth_geometry(30, seed=41)
    n = sr.populations[0]
    dm = distance_matrix(sr)
    factor = cholesky(matern_cov(dm, MaternParams(0.6, 20.0)))
    counts = simulate_model2_counts(n, math.log(1500 / n.sum()), factor, seed=71)
    return StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=sr.periods,
                       populations=sr.populations, cases=counts[None, :]), dm


def brute_force_distance(centroids):
    m = len(centroids)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            dx = centroids[i][0] - centroids[j][0]
            dy = centroids[i][1] - centroids[j][1]
            out[i, j] = math.sqrt(dx * dx + dy * dy)
    return out


def brute_force_window_sets(sr, max_fraction):
    """All distinct distance-ball member sets, by explicit radius sweep."""
    dm = brute_force_distance(sr.centroids)
    pop = sr.populations.sum(axis=0)
    cap = max_fraction * pop.sum()
    found = set()
    for center in range(sr.m):
        order = [center] + sorted(
            (k for k in range(sr.m) if k != center),
            key=lambda k: (dm[center, k], sr.ids[k]),
        )
        for stop in range(1, sr.m + 1):
            prefix = order[:stop]
            if sum(pop[j] for j in prefix) > cap:
                break
            found.add(tuple(sorted(prefix)))
    return found


def brute_force_llr(y_c, n_c, y_g, n_g):
    """Direct evaluation of the high-rate-gated log likelihood ratio."""
    y_out = y_g - y_c
    n_out = n_g - n_c
    if n_out <= 0:
        return 0.0
    inside = y_c / n_c
    outside = y_out / n_out
    if inside <= outside:
        return 0.0

    def xlogy(x, v):
        return 0.0 if x == 0 else x * math.log(v)

    overall = y_g / n_g
    val = (xlogy(y_c, inside) - xlogy(y_c, overall)
           + xlogy(y_out, outside) - xlogy(y_out, overall))
    return max(val, 0.0)


def _xlogy(x, y):
    """x*log(y) with the 0*log(0) = 0 convention, vectorized."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    mask = x > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(out, x * np.log(y), where=mask)
    return out


def log_lr_vector(y_c, n_c, y_g, n_g):
    """Vectorized window log likelihood ratio in the rate-ratio form; zero unless
    the inside rate is higher; the oracle of :func:`dense_window_llr`."""
    y_c = np.asarray(y_c, dtype=float)
    n_c = np.asarray(n_c, dtype=float)
    y_g = np.asarray(y_g, dtype=float)
    n_g = np.asarray(n_g, dtype=float)
    y_out = y_g - y_c
    n_out = n_g - n_c
    overall = y_g / n_g
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = y_c / n_c
        outside = np.where(n_out > 0, y_out / np.maximum(n_out, 1e-300), np.inf)
    llr = (
        _xlogy(y_c, inside)
        - _xlogy(y_c, overall)
        + _xlogy(y_out, outside)
        - _xlogy(y_out, overall)
    )
    high = inside > outside
    return np.where(high, np.maximum(llr, 0.0), 0.0)


def log_lr(y_c, n_c, y_g, n_g):
    """Scalar log likelihood ratio for one window (contract-checked)."""
    if not 0 <= y_c <= y_g:
        raise ValueError("require 0 <= Y_C <= Y_G")
    if not 0 < n_c < n_g:
        raise ValueError("require 0 < N_C < N_G (window must be a proper subset)")
    return float(log_lr_vector(y_c, n_c, y_g, n_g))


def brute_force_scan(sr, counts=None, max_fraction=0.5):
    """(llr_star, best member set) by exhaustive enumeration."""
    y = np.asarray(counts if counts is not None else sr.cases[0], dtype=float)
    n = sr.populations.sum(axis=0)
    n_period = sr.populations[0]
    y_g = y.sum()
    n_g = n_period.sum()
    scored = []
    for members in brute_force_window_sets(sr, max_fraction):
        y_c = sum(y[i] for i in members)
        n_c = sum(n_period[i] for i in members)
        llr = 0.0 if n_c >= n_g else brute_force_llr(y_c, n_c, y_g, n_g)
        scored.append((llr, members))
    llr_star = max(llr for llr, _ in scored)
    ties = [m for llr, m in scored if llr == llr_star]
    best = min(ties, key=lambda t: (len(t), t))
    return llr_star, best


def loop_enumerate_windows(sr, dm, max_fraction):
    """Reference window enumeration by an explicit per-center loop.

    Returns (center, members, radius) per window, in emission order: centers
    in index order, prefixes by length, first occurrence of a member set kept.
    """
    pop = sr.populations.sum(axis=0)
    cap = max_fraction * pop.sum()
    seen = {}
    for center in range(sr.m):
        order = [center] + sorted(
            (k for k in range(sr.m) if k != center),
            key=lambda k: (dm[center, k], sr.ids[k]),
        )
        members = []
        total = 0.0
        for k in order:
            members.append(k)
            total += pop[k]
            if total > cap:
                break
            key = tuple(sorted(members))
            if key not in seen:
                seen[key] = (center, tuple(members), float(dm[center, k]))
    return list(seen.values())


def dense_window_llr(counts, populations, members):
    """Per-window statistic through a dense (windows x m) membership matrix.

    ``members`` lists each window's member indices; returns (llr, y_c, n_c)
    with llr of shape (k, windows) for a (k, m) count batch.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    n = np.asarray(populations, dtype=float)
    mat = np.zeros((len(members), len(n)))
    for r, mem in enumerate(members):
        mat[r, list(mem)] = 1.0
    y_c = counts @ mat.T
    n_c = n @ mat.T
    llr = log_lr_vector(y_c, n_c[None, :], counts.sum(axis=1, keepdims=True), n.sum())
    return llr, y_c, n_c


def dense_scan(counts, populations, members):
    """Primary and secondaries by sorting every window on (-llr, size, members).

    Returns (llr_star, primary members, [(members, llr, y_c), ...]).
    """
    llr, y_c, _ = dense_window_llr(counts, populations, members)
    llr, y_c = llr[0], y_c[0]

    def key(i):
        return (len(members[i]), tuple(sorted(members[i])))

    best = np.flatnonzero(llr == llr.max())
    primary = min(best, key=key)
    taken = set(members[primary])
    secondaries = []
    for i in sorted(range(len(members)), key=lambda i: (-llr[i],) + key(i)):
        if i == primary or llr[i] <= 0 or set(members[i]) & taken:
            continue
        taken |= set(members[i])
        secondaries.append((tuple(members[i]), float(llr[i]), int(y_c[i])))
    return float(llr[primary]), tuple(members[primary]), secondaries


def naive_log_posterior(beta, sigma, rho, z, y, n, dm):
    """Term-by-term summation using an independent Matérn (smoothness 1) evaluation."""
    from scipy.special import kv

    m = len(z)
    pois = 0.0
    for i in range(m):
        lam = n[i] * math.exp(beta + z[i])
        pois += y[i] * (beta + math.log(n[i]) + z[i]) - lam
    r = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            d = dm[i][j]
            if d == 0:
                r[i, j] = 1.0
            else:
                u = d / rho
                r[i, j] = u * kv(1, u)
    sign, logdet = np.linalg.slogdet(r)
    assert sign > 0
    quad = float(np.asarray(z) @ np.linalg.solve(r, np.asarray(z)))
    gauss = -0.5 * quad / sigma**2 - 0.5 * (logdet + m * math.log(sigma**2))
    return pois + gauss


# ------------------------------------------------------------ reference chain
#
# The mixed-model chain as it stood before y'z was carried through every move,
# kept as the oracle for ``mcmc.fit_model2``.  It shares the chain's constants,
# block draws and exact conditional draws.

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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing rate is a rejection
def reference_fit_model2(y, n, dm, prior, config=None, seed=None):
    """The chain of ``mcmc.fit_model2`` before it carried y'z: every iteration
    recomputes y'z, draws a whole scaled prior draw and calls
    :func:`elliptical_slice` with a log-likelihood callback.  The current
    chain must make the same accept decisions and rho draws on the same
    random stream, and agree in beta and sigma up to rounding."""
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
