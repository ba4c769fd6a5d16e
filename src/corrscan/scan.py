"""Likelihood-ratio scan statistic, null simulation and Monte Carlo p-values.

The statistic is the log of the normalized likelihood ratio comparing the
rate inside a window against the rate outside, gated to zero unless the
inside rate is the higher one.  All work is in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .region import CandidateCluster, InputError, StudyRegion, WindowSet, _check_whole

__all__ = [
    "ScanResult",
    "log_lr",
    "log_lr_vector",
    "scan",
    "model1_simulator",
    "llr_star_batch",
    "rank_pvalue",
    "mc_pvalue",
]


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
    """Vectorized window log likelihood ratio; zero unless inside rate is higher."""
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


@dataclass(frozen=True)
class ScanResult:
    """Maximized statistic with primary and non-overlapping secondary clusters."""

    llr_star: float
    primary: CandidateCluster | None
    primary_y: int
    primary_n: float
    secondaries: tuple  # of (cluster, llr, y_c, n_c)
    p_value: float | None = None
    mc_size: int | None = None

    def with_pvalue(self, p, mc_size):
        return replace(self, p_value=p, mc_size=mc_size)

    def to_dict(self, sr: StudyRegion | None = None):
        def cluster_dict(c, llr, y, n):
            d = {
                "center": c.center,
                "members": list(c.members),
                "Y_C": int(y),
                "N_C": float(n),
                "llr": float(llr),
            }
            if sr is not None:
                d["member_ids"] = list(c.member_ids(sr))
            return d

        return {
            "llr_star": self.llr_star,
            "p_value": self.p_value,
            "M": self.mc_size,
            "primary": None
            if self.primary is None
            else cluster_dict(self.primary, self.llr_star, self.primary_y, self.primary_n),
            "secondaries": [cluster_dict(c, llr, y, n) for c, llr, y, n in self.secondaries],
        }


def _as_counts(counts, m):
    """A (k, m) int64 view of whole, nonnegative counts (one row for a vector)."""
    arr = np.asarray(counts)
    out = np.atleast_2d(arr.astype(np.int64))
    if out.ndim != 2 or out.shape[1] != m:
        raise InputError(f"counts must have {m} columns, got shape {arr.shape}")
    if not np.array_equal(out, np.atleast_2d(arr)) or (out.size and out.min() < 0):
        raise InputError("counts must be nonnegative whole numbers")
    return out


def _llr_kernel(populations, windows: WindowSet):
    """Evaluator of every window's statistic for (k, m) count blocks.

    With whole-number counts the statistic is
    ``T(y) + T(Y-y) - T(Y) - y log mu - (Y-y) log(1-mu)``, where
    ``T(k) = k log k``, ``y`` the window count, ``Y`` the row total and
    ``mu = n_c / N`` the window's population share.  It is gated to zero
    unless ``y N > Y n_c`` (inside rate higher), and for a window holding
    every region.  Gated-in values are not clamped at zero, so callers take
    ``max(., 0)``.  ``scan`` and ``llr_star_batch`` share this arithmetic, so
    equal count vectors give bit-equal statistics.  The terms are of size
    ``Y log Y``, so the absolute rounding error grows with the total: about
    ``2 eps Y log Y`` against the rate-ratio form of :func:`log_lr_vector`.

    Returns the evaluator, which maps a count block to (llr, y_c) of shape
    (windows, k), and the per-window populations ``n_c``.
    """
    n = np.asarray(populations, dtype=float)
    n_c = windows.aggregate(n)
    n_g = n.sum()
    mu = n_c / n_g
    whole = np.flatnonzero((windows.length == windows.m) | (mu >= 1))
    mu[whole] = 0.5  # any share in (0, 1): these windows are gated to zero below
    log_out = np.log1p(-mu)[:, None]
    logit = (np.log(mu) - np.log1p(-mu))[:, None]
    n_c_col = n_c[:, None]

    def xlogx(v):
        out = np.maximum(v, 1.0)
        np.log(out, out=out)
        out *= v
        return out

    def evaluate(counts):
        counts = counts.astype(float)  # whole numbers below 2**53 sum exactly
        y_c = windows.window_sums(counts)
        y_g = counts.sum(axis=1)
        if (y_g == y_g[0]).all():
            y_g = y_g[:1]  # one total: the row terms below stay (windows, 1)
        llr = xlogx(y_c)
        llr += xlogx(y_g - y_c)
        llr -= y_c * logit
        llr -= xlogx(y_g) + y_g * log_out
        low = y_c * n_g <= y_g * n_c_col
        low[whole] = True
        np.putmask(llr, low, 0.0)
        return llr, y_c

    return evaluate, n_c


def _ranked(windows: WindowSet, idx, llr):
    """Window indices ``idx`` ordered by (-llr, size, sorted members)."""
    idx = idx[np.lexsort((windows.length[idx], -llr[idx]))]
    same = (np.diff(llr[idx]) == 0) & (np.diff(windows.length[idx]) == 0)
    if same.any():
        # exact ties on (llr, size): order each tied run by its sorted members
        before = np.r_[False, same[:-1]]
        after = np.r_[same[1:], False]
        for s, e in zip(np.flatnonzero(same & ~before), np.flatnonzero(same & ~after) + 2):
            idx[s:e] = sorted(idx[s:e], key=lambda i: np.sort(windows.members(i)).tolist())
    return idx


def scan(sr: StudyRegion, windows: WindowSet, period=None, counts=None) -> ScanResult:
    """Maximize the statistic over windows; report primary and secondaries.

    ``counts`` overrides the stored per-period counts (used for simulated
    data on the same geometry).  Ties on the statistic go to the smaller
    window, then to the lexicographically smaller sorted member list;
    secondaries are taken greedily in that order, disjoint from every
    window already reported.
    """
    if len(windows) == 0:
        raise ValueError("no candidate windows")
    y = _as_counts(counts if counts is not None else sr.period_cases(period), sr.m)
    y_g = int(y.sum())
    if y_g == 0:
        return ScanResult(0.0, None, 0, 0.0, ())
    kernel, n_c = _llr_kernel(sr.period_populations(period), windows)
    llr, y_c = kernel(y)
    llr, y_c = np.maximum(llr[:, 0], 0.0), y_c[:, 0]

    positive = np.flatnonzero(llr > 0)
    if len(positive):
        ranked = _ranked(windows, positive, llr)
    else:  # every window scores 0: the smallest windows tie for primary
        smallest = np.flatnonzero(windows.length == windows.length.min())
        ranked = _ranked(windows, smallest, llr)[:1]
    primary = ranked[0]
    # greedy: the next secondary is the best-ranked window disjoint from all taken
    blocked = windows.overlapping(windows.members(primary))
    secondaries = []
    rest = ranked[1:]
    while len(rest := rest[~blocked[rest]]):
        i = rest[0]
        secondaries.append((windows[i], float(llr[i]), int(y_c[i]), float(n_c[i])))
        blocked |= windows.overlapping(windows.members(i))
    return ScanResult(
        llr_star=float(llr[primary]),
        primary=windows[primary],
        primary_y=int(y_c[primary]),
        primary_n=float(n_c[primary]),
        secondaries=tuple(secondaries),
    )


def model1_simulator(sr: StudyRegion, period=None, total=None):
    """Batch simulator closure for :func:`mc_pvalue`: the conditional Model I
    null, a multinomial redistribution of ``total`` cases (default: the
    period's observed total) in proportion to the populations."""
    n = sr.period_populations(period)
    p = n / n.sum()
    y_g = sr.total_cases(period) if total is None else int(total)

    def simulate(rng, size):
        return rng.multinomial(y_g, p, size=size)

    return simulate


def llr_star_batch(counts, populations, windows: WindowSet):
    """Max statistic for each row of a (k, m) count matrix.

    Rows are evaluated ``windows.chunk_rows`` at a time by the kernel that
    :func:`scan` uses."""
    counts = _as_counts(counts, windows.m)
    out = np.zeros(len(counts))
    if len(windows) == 0 or len(counts) == 0:
        return out
    kernel, _ = _llr_kernel(populations, windows)
    step = windows.chunk_rows
    for s in range(0, len(counts), step):
        out[s:s + step] = kernel(counts[s:s + step])[0].max(axis=0)
    return np.maximum(out, 0.0)


def rank_pvalue(observed, reference):
    """Monte Carlo rank p-value ``(1 + #{reference >= observed}) / (len(reference) + 1)``."""
    reference = np.asarray(reference)
    return (1 + int(np.count_nonzero(reference >= observed))) / (len(reference) + 1)


def mc_pvalue(observed_llr, sr: StudyRegion, windows: WindowSet, M=999,
              seed=None, period=None):
    """Rank-based Monte Carlo p-value r/(M+1) against the conditional Model I
    null of :func:`model1_simulator` for ``period``."""
    _check_whole("M", M, 1)
    sims = llr_star_batch(model1_simulator(sr, period)(np.random.default_rng(seed), M),
                          sr.period_populations(period), windows)
    return rank_pvalue(observed_llr, sims)
