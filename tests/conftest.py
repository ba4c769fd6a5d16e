"""Shared fixtures and independent oracle implementations.

Oracles here are deliberately naive (brute-force loops, direct summation)
so they cannot share bugs with the vectorized implementations under test.
"""

import math

import numpy as np
import pytest

from corrscan import (MaternParams, StudyRegion, cholesky, distance_matrix, matern_cov,
                      simulate_model2_counts, synth_geometry)


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
