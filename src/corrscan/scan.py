"""Likelihood-ratio scan statistic, null simulation and Monte Carlo p-values.

The statistic is the log of the normalized likelihood ratio comparing the
rate inside a window against the rate outside, gated to zero unless the
inside rate is the higher one.  All work is in log space.  Every Monte
Carlo reference, classical or mixed-model, is drawn by :func:`null_counts`,
and its rank p-value comes from per-window critical counts
(:func:`reference_pvalue`), exactly as from the rows' maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matern import simulate_grf
from .region import CandidateCluster, InputError, StudyRegion, WindowSet

__all__ = [
    "ScanResult",
    "scan",
    "null_counts",
    "llr_star_batch",
    "rank_pvalue",
    "reference_pvalue",
]


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


# values in one band's prefix buffer of _window_counts: at m = 400 with 999
# rows of 3,000 cases, 1 << 16 took 0.65-0.68 s per llr_star_batch call and
# 0.20-0.22 s per reference_pvalue, 1 << 18 took 0.71-0.78 s and 0.26-0.28 s
# (2-CPU x86-64 host, one BLAS thread).  It also bounds the ``k log k`` table
# of :func:`_xlogx_table` (512 KB at most)
_STREAM_ELEMENTS = 1 << 16


def _xlogx(v):
    """``v log v`` for whole numbers ``v >= 0`` (0 at 0)."""
    return np.log(np.maximum(v, 1.0)) * v


def _xlogx_table(total):
    """``T(k) + T(total - k)`` for ``k = 0 .. total``, ``T`` being :func:`_xlogx`.

    One gather gives both count terms, with the bits of :func:`_xlogx`.  None
    (evaluate the logs) once ``total`` reaches ``_STREAM_ELEMENTS``, so no
    table outgrows one stream block.
    """
    if total >= _STREAM_ELEMENTS:
        return None
    table = _xlogx(np.arange(total + 1.0))
    return table + table[::-1]


def _population_terms(populations, windows: WindowSet):
    """Window populations ``n_c``, then the study total N and the per-window
    ``(n_c, logit mu, log(1 - mu), gated)`` that :func:`_llr_kernel` reads.

    ``mu = n_c / N`` is the window's population share.  ``gated`` marks the
    windows whose statistic is zero: the window of all m regions and any
    whose share rounds to 1 or above.  Their share is set to 1/2 so that both
    logs stay finite.  A positive share below the smallest normal float
    (one that underflows to 0 or loses bits) takes its log as
    ``log(n_c) - log(N)``.  N and the column n_c enter only the kernel's gate
    ``y N > Y n_c``, scaled by the power of two that puts N in [1/2, 1), so
    neither product overflows; binary scaling is exact in the normal range.
    The three columns are (windows, 1); ``gated`` is flat.
    """
    n = np.asarray(populations, dtype=float)
    n_g = n.sum()
    n_c = _window_sums(n[None, :], windows)[:, 0]
    mu = n_c / n_g
    gated = (windows.length == windows.m) | (mu >= 1)
    mu[gated] = 0.5
    log_out = np.log1p(-mu)
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    tiny = (mu < np.finfo(float).tiny) & (n_c > 0)
    if tiny.any():
        log_mu[tiny] = np.log(n_c[tiny]) - np.log(n_g)
    e = -np.frexp(n_g)[1]
    columns = (np.ldexp(n_c, e), log_mu - log_out, log_out)
    return n_c, np.ldexp(n_g, e), (*(a[:, None] for a in columns), gated)


def _llr_kernel(y_c, total, n_g, terms, table):
    """Statistic of windows holding ``y_c`` of ``total`` cases, as a new array.

    With whole-number counts the statistic is
    ``T(y) + T(Y-y) - T(Y) - y log mu - (Y-y) log(1-mu)``, where
    ``T(k) = k log k``, ``y`` the window count, ``Y`` the scalar ``total``
    that every row shares and ``mu = n_c / N`` the window's population
    share; ``n_g`` and ``terms`` are the scaled total and the windows'
    entries of :func:`_population_terms`.  ``T(y) + T(Y-y)`` is gathered
    from ``table``, the :func:`_xlogx_table` of ``total``, and evaluated by
    logs when it is None; both give the same bits.  The value returned is
    clamped at zero and gated to zero unless ``y N > Y n_c`` (inside rate
    higher), and for the windows marked ``gated``; the gate is a multiply by
    a boolean, not a branch per element.  :func:`scan`,
    :func:`llr_star_batch` and :func:`reference_pvalue` all evaluate through
    this function, so equal counts give bit-equal statistics.  The terms are
    of size ``Y log Y``, so the absolute rounding error grows with the total:
    about ``2 eps Y log Y`` against the rate-ratio form
    ``y log(r_in / r) + (Y-y) log(r_out / r)``.
    """
    n_c, logit, log_out, gated = terms
    if table is None:
        out = _xlogx(y_c)
        out += _xlogx(total - y_c)
    else:
        out = np.take(table, y_c.astype(np.intp), mode="clip")
    out -= y_c * logit
    out -= _xlogx(total) + total * log_out
    high = y_c * n_g > total * n_c
    high[gated] = False
    # clamp before the multiply, so that no -0.0 appears; fmax also maps the
    # NaN of 0 * log 0 (a share that underflows to 0) to 0, which False * NaN keeps
    np.fmax(out, 0.0, out=out)
    out *= high
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
    window already reported.  Without windows or cases the statistic is 0,
    as :func:`llr_star_batch` has it, and there is no primary.
    """
    y = _as_counts(counts if counts is not None else sr.period_cases(period), sr.m)
    if len(windows) == 0 or not y.any():
        return ScanResult(0.0, None, 0, 0.0, ())
    n_c, n_g, terms = _population_terms(sr.period_populations(period), windows)
    y_c = _window_sums(y, windows)
    total = float(y.sum())
    llr = _llr_kernel(y_c, total, n_g, terms, _xlogx_table(total))[:, 0]
    y_c = y_c[:, 0]

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


def null_counts(rng, total, populations, size, factor=None):
    """(size, m) rows of ``total`` cases: Multinomial(total, n / N) with
    ``factor`` None (the classical null), else Multinomial(total,
    softmax(log n + z)) with z = L eps drawn per row from its prior, which
    under a flat prior on the intercept is z | total: an exact mixed-model draw."""
    n = np.asarray(populations, dtype=float)
    if factor is None:
        return rng.multinomial(total, n / n.sum(), size)
    logits = np.log(n) + np.atleast_2d(simulate_grf(factor, rng, size))
    # the row maximum comes off before exp, so that no field overflows it
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return rng.multinomial(total, p / p.sum(axis=1, keepdims=True))


def _window_counts(counts, windows: WindowSet):
    """Stream the (windows x rows) counts of a (k, m) count matrix.

    The windows come by length (:attr:`WindowSet.by_length`), a band of
    prefix positions at a time: a running (centres x rows) count adds the
    next regions of every centre's (distance, id) order, and the band's
    windows are picked from it.  Yields ``(rows, idx, y_c)``: the slice of
    the block's rows, the indices of the band's windows, and their float
    counts in a new array that the caller keeps.  The prefix buffer of a
    band holds at most ``_STREAM_ELEMENTS`` values, so memory is O(m k).
    """
    take, extent, window, slot, start = windows.by_length
    width, centres = len(extent), extent[0]
    depth = windows.length[window] - 1
    step = max(1, _STREAM_ELEMENTS // centres)
    for s in range(0, len(counts), step):
        block = counts[s:s + step]
        k = len(block)
        values = np.ascontiguousarray(block.T, dtype=float)
        band = min(width, max(1, _STREAM_ELEMENTS // (centres * k)))
        prefix = np.empty(band * centres * k)
        running = np.zeros((centres, k))
        for j in range(0, width, band):
            stop, c = min(j + band, width), extent[j]
            # prefix counts of the band's positions for the first c ranked
            # centres; mode="clip" lets take write into ``out`` unbuffered
            y = prefix[:(stop - j) * c * k].reshape(stop - j, c, k)
            np.take(values, take[j:stop, :c], axis=0, out=y, mode="clip")
            y[0] += running[:c]
            for i in range(1, len(y)):
                y[i] += y[i - 1]
            running[:c] = y[-1]
            w = slice(start[j], start[stop])
            y_c = np.take(y.reshape(-1, k), (depth[w] - j) * c + slot[w], axis=0)
            yield slice(s, s + k), window[w], y_c


def _window_sums(values, windows: WindowSet):
    """Per-window sums of the rows of a (k, m) array, as a (windows, k) float array."""
    sums = np.empty((len(windows), len(values)))
    for rows, idx, y_c in _window_counts(values, windows):
        sums[idx, rows] = y_c
    return sums


def llr_star_batch(counts, populations, windows: WindowSet):
    """Max statistic for each row of a (k, m) count matrix.

    The rows of each distinct total (one group for a :func:`null_counts`
    reference) are streamed by :func:`_window_counts` and evaluated by the
    kernel that :func:`scan` uses; each row keeps its running maximum.  A
    Monte Carlo p-value needs only whether each maximum reaches the observed
    statistic, which :func:`reference_pvalue` answers without the kernel.
    """
    counts = _as_counts(counts, windows.m)
    best = np.zeros(len(counts))
    if len(windows) == 0 or len(counts) == 0:
        return best
    _, n_g, terms = _population_terms(populations, windows)
    totals, group = np.unique(counts.sum(axis=1), return_inverse=True)
    for g, total in enumerate(totals.astype(float)):  # whole numbers below 2**53 are exact
        in_group = np.flatnonzero(group == g)
        table, top = _xlogx_table(total), np.zeros(len(in_group))
        for rows, idx, y_c in _window_counts(counts[in_group], windows):
            llr = _llr_kernel(y_c, total, n_g, [a[idx] for a in terms], table)
            np.maximum(top[rows], llr.max(axis=0, initial=0.0), out=top[rows])
        best[in_group] = top
    return best


def rank_pvalue(observed, reference):
    """Monte Carlo rank p-value ``(1 + #{reference >= observed}) / (len(reference) + 1)``."""
    reference = np.asarray(reference)
    return (1 + int(np.count_nonzero(reference >= observed))) / (len(reference) + 1)


def reference_pvalue(observed, counts, populations, windows: WindowSet):
    """``rank_pvalue(observed, llr_star_batch(counts, populations, windows))``
    for rows of one total Y, as every :func:`null_counts` reference has.

    A window's statistic is 0 up to its gate and, while the kernel is
    nondecreasing in the window count y above it, a row's maximum reaches
    ``observed`` > 0 exactly when some window holds more than its count
    ``below``: the largest y <= Y whose statistic stays under ``observed``,
    or -1.  A bisection finds ``below`` with the kernel on (windows x 1)
    candidates, so that ties compare the same bits as the maximum; the
    stream then compares counts where the maximum evaluates the kernel.
    """
    counts = _as_counts(counts, windows.m)
    totals = np.unique(counts.sum(axis=1)).astype(float)
    if len(totals) > 1:
        raise ValueError("reference rows must share one case total")
    if observed <= 0:
        return 1.0  # every maximum is at least 0
    hit = np.zeros(len(counts), dtype=bool)
    if len(windows) and len(counts):
        total = totals[0]
        _, n_g, terms = _population_terms(populations, windows)
        table = _xlogx_table(total)
        below = np.full((len(windows), 1), -1.0)
        step = 1 << int(total + 1).bit_length() - 1
        while step:
            f = _llr_kernel(np.minimum(below + step, total), total, n_g, terms, table)
            # as in rank_pvalue, a NaN ``observed`` is reached by no value
            np.copyto(below, below + step, where=(below + step <= total) & ~(f >= observed))
            step >>= 1
        for rows, idx, y_c in _window_counts(counts, windows):
            hit[rows] |= (y_c > below[idx]).any(axis=0)
    return (1 + int(np.count_nonzero(hit))) / (len(hit) + 1)
