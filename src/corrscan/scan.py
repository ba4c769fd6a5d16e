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


# values in one block of the stream in llr_star_batch, small enough that a
# band's five buffers stay in cache: at m = 400 with 999 rows, 1 << 16 took
# 1.3-1.4 s per call and 1 << 18 took 1.6-1.8 s on a 2-CPU x86-64 host
_STREAM_ELEMENTS = 1 << 16


def _xlogx(v, out):
    """``v log v`` for whole numbers ``v >= 0`` (0 at 0), written into ``out``."""
    np.maximum(v, 1.0, out=out)
    np.log(out, out=out)
    out *= v
    return out


def _population_terms(populations, windows: WindowSet):
    """The study total N and per-window ``(n_c, logit mu, log(1 - mu), gated)``.

    ``mu = n_c / N`` is the window's population share.  ``gated`` marks the
    windows whose statistic is zero: the window of all m regions and any
    whose share rounds to 1 or above.  Their share is set to 1/2 so that both
    logs stay finite.
    """
    n = np.asarray(populations, dtype=float)
    n_g = n.sum()
    n_c = windows.aggregate(n)
    mu = n_c / n_g
    gated = (windows.length == windows.m) | (mu >= 1)
    mu[gated] = 0.5
    log_out = np.log1p(-mu)
    return n_g, (n_c, np.log(mu) - log_out, log_out, gated)


def _llr_kernel(y_c, y_g, n_g, terms, out, tmp, low):
    """Statistic of windows holding ``y_c`` of ``y_g`` cases, written into ``out``.

    With whole-number counts the statistic is
    ``T(y) + T(Y-y) - T(Y) - y log mu - (Y-y) log(1-mu)``, where
    ``T(k) = k log k``, ``y`` the window count, ``Y`` the row total and
    ``mu = n_c / N`` the window's population share; ``terms`` are the
    windows' entries of :func:`_population_terms`.  It is gated to zero
    unless ``y N > Y n_c`` (inside rate higher), and for the windows marked
    ``gated``.  Gated-in values are not clamped at zero, so callers take
    ``max(., 0)``.  :func:`scan` and :func:`llr_star_batch` both evaluate
    through this function, so equal count vectors give bit-equal statistics.
    The terms are of size ``Y log Y``, so the absolute rounding error grows
    with the total: about ``2 eps Y log Y`` against the rate-ratio form of
    :func:`log_lr_vector`.

    ``tmp`` holds two float arrays and ``low`` one boolean array of
    ``out``'s shape, used as scratch.
    """
    n_c, logit, log_out, gated = terms
    _xlogx(y_c, out)
    np.subtract(y_g, y_c, out=tmp[0])
    out += _xlogx(tmp[0], tmp[1])
    out -= np.multiply(y_c, logit, out=tmp[0])
    out -= _xlogx(y_g, np.empty_like(y_g)) + y_g * log_out
    np.less_equal(np.multiply(y_c, n_g, out=tmp[0]), np.multiply(y_g, n_c, out=tmp[1]), out=low)
    np.putmask(out, low, 0.0)
    out[gated] = 0.0
    return out


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
    n_g, terms = _population_terms(sr.period_populations(period), windows)
    n_c = terms[0]
    y_c = windows.window_sums(y.astype(float))[:, 0]
    out, *tmp = np.empty((3, len(y_c)))
    llr = _llr_kernel(y_c, y.sum(axis=1).astype(float), n_g, terms, out, tmp,
                      np.empty(len(y_c), dtype=bool))
    llr = np.maximum(llr, 0.0)

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

    The windows are streamed by length (:attr:`WindowSet.by_length`), a band
    of prefix positions at a time: a running (centres x rows) count adds the
    next regions of every centre's (distance, id) order, the band's windows
    are picked from it and evaluated by the kernel that :func:`scan` uses, and
    each row keeps its running maximum.  Rows and bands are sized so that no
    block holds more than ``_STREAM_ELEMENTS`` values, so memory is O(m k)
    and no (windows x k) array is built.
    """
    counts = _as_counts(counts, windows.m)
    best = np.zeros(len(counts))
    if len(windows) == 0 or len(counts) == 0:
        return best
    take, extent, window, slot, start = windows.by_length
    width, centres = len(extent), extent[0]
    depth = windows.length[window] - 1
    n_g, terms = _population_terms(populations, windows)
    n_c, logit, log_out, gated = terms
    terms = (n_c[window, None], logit[window, None], log_out[window, None], gated[window])
    step = max(1, _STREAM_ELEMENTS // centres)
    for s in range(0, len(counts), step):
        block = counts[s:s + step]
        k = len(block)
        y_g = block.sum(axis=1).astype(float)  # whole numbers below 2**53 are exact
        if (y_g == y_g[0]).all():
            y_g = y_g[:1]  # one total: the row terms stay one column wide
        values = np.ascontiguousarray(block.T, dtype=float)
        band = min(width, max(1, _STREAM_ELEMENTS // (centres * k)))
        buffers = np.empty((5, band * centres * k))
        low = np.empty(buffers.shape[1], dtype=bool)
        running = np.zeros((centres, k))
        top = best[s:s + step]
        for j in range(0, width, band):
            stop, c = min(j + band, width), extent[j]
            # prefix counts of the band's positions for the first c ranked
            # centres; mode="clip" lets take write into ``out`` unbuffered
            y = buffers[0, :(stop - j) * c * k].reshape(stop - j, c, k)
            np.take(values, take[j:stop, :c], axis=0, out=y, mode="clip")
            y[0] += running[:c]
            for i in range(1, len(y)):
                y[i] += y[i - 1]
            running[:c] = y[-1]
            w = slice(start[j], start[stop])
            views = [a[:(w.stop - w.start) * k].reshape(-1, k) for a in (*buffers[1:], low)]
            y_c = np.take(y.reshape(-1, k), (depth[w] - j) * c + slot[w], axis=0,
                          out=views[0], mode="clip")
            llr = _llr_kernel(y_c, y_g, n_g, [a[w] for a in terms], views[1], views[2:4],
                              views[4])
            np.maximum(top, llr.max(axis=0, initial=0.0), out=top)
    return best


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
