"""Likelihood-ratio scan statistic, null simulation and Monte Carlo p-values.

The statistic is the log likelihood ratio of the rate inside a window against
the rate outside, gated to zero unless the inside rate is higher.  Every Monte
Carlo reference is drawn by :func:`null_counts`, and its rank p-value comes
from per-window critical counts (:func:`reference_pvalue`).
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
    """Maximized statistic with primary and disjoint secondary clusters."""

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
            d = {"center": c.center, "members": list(c.members), "Y_C": int(y),
                 "N_C": float(n), "llr": float(llr)}
            if sr is not None:
                d["member_ids"] = list(c.member_ids(sr))
            return d

        return {
            "llr_star": self.llr_star,
            "p_value": self.p_value,
            "M": self.mc_size,
            "primary": self.primary and cluster_dict(self.primary, self.llr_star,
                                                     self.primary_y, self.primary_n),
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


# values in one band's prefix buffer of _window_counts, and the bound of the
# k log k table (512 KB at most).  At m = 400 with 999 int16 rows of 3,000
# cases (2-CPU x86-64, one BLAS thread), llr_star_batch took 0.54-0.55 s at
# 1 << 16 and 0.53-0.56 s at 1 << 17 or 1 << 18, reference_pvalue 0.08-0.09 s
# and 0.06-0.07 s; at m = 128, M = 99 the larger block was slower.
_STREAM_ELEMENTS = 1 << 16


def _xlogx(v):
    """``v log v`` for whole numbers ``v >= 0`` (0 at 0)."""
    return np.log(np.maximum(v, 1.0)) * v


def _xlogx_table(total):
    """``T(k) + T(total - k)`` for ``k = 0 .. total``, ``T`` being :func:`_xlogx`,
    so one gather gives both count terms with its bits; None (evaluate the
    logs) once ``total`` reaches ``_STREAM_ELEMENTS``."""
    if total >= _STREAM_ELEMENTS:
        return None
    table = _xlogx(np.arange(total + 1.0))
    return table + table[::-1]


def _population_terms(populations, windows: WindowSet):
    """Window populations ``n_c``, then the study total N and the per-window
    ``(n_c, logit mu, log(1 - mu), gated)``, (windows, 1) columns and a flat mask.

    ``mu = n_c / N`` is the window's population share.  ``gated`` marks the
    windows that score zero, the window of all m regions and any whose share
    rounds to 1 or above; their share is set to 1/2 so that both logs stay
    finite.  A positive share below the smallest normal float takes its log
    as ``log(n_c) - log(N)``.  N and n_c enter only the gate ``y N > Y n_c``,
    scaled exactly so that N is in [1/2, 1) and neither product overflows.
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


def _total_columns(total, terms):
    """The kernel's columns of one total Y: ``T(Y) + Y log(1 - mu)`` and ``Y n_c``."""
    n_c, _, log_out, _ = terms
    return _xlogx(total) + total * log_out, total * n_c


def _llr_kernel(y_c, total, n_g, terms, table, columns=None):
    """Statistic of windows holding ``y_c`` (integer or float) of ``total`` cases.

    It is ``T(y) + T(Y-y) - T(Y) - y log mu - (Y-y) log(1-mu)``, with
    ``T(k) = k log k``, ``Y`` the scalar ``total`` of every row and ``mu``
    the window's population share, from :func:`_population_terms` and
    :func:`_total_columns` (``columns``, computed here when None).
    ``T(y) + T(Y-y)`` is gathered from ``table``, or evaluated by logs when it
    is None, with the same bits.  The result, a new array, is clamped at zero
    and gated to zero unless ``y N > Y n_c`` (inside rate higher) and for
    ``gated`` windows.  Every entry point evaluates through this function, so
    equal counts tie bit for bit; the rounding error is about ``2 eps Y log Y``.
    """
    _, logit, _, gated = terms
    base, bound = columns or _total_columns(total, terms)
    if table is None:
        out = _xlogx(y_c)
        out += _xlogx(total - y_c)
    else:
        out = np.take(table, y_c.astype(np.intp), mode="clip")
    out -= y_c * logit
    out -= base
    high = y_c * n_g > bound
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
    # greedy: the next secondary is the best-ranked window disjoint from all
    # taken: shorter than ``first``, per centre the earliest position taken
    first = windows.position[:, windows.members(primary)].min(axis=1)
    secondaries = []
    rest = ranked[1:]
    while len(rest := rest[first[windows.center[rest]] >= windows.length[rest]]):
        i = rest[0]
        secondaries.append((windows[i], float(llr[i]), int(y_c[i]), float(n_c[i])))
        np.minimum(first, windows.position[:, windows.members(i)].min(axis=1), out=first)
    return ScanResult(float(llr[primary]), windows[primary], int(y_c[primary]),
                      float(n_c[primary]), tuple(secondaries))


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


def _count_dtype(top):
    """The narrowest of int16, int32 and int64 that holds the whole number ``top``."""
    return np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64


def _window_counts(counts, windows: WindowSet):
    """Stream the (windows x rows) counts of a (k, m) count matrix.

    The windows come by length (:attr:`WindowSet.by_length`), a band of
    prefix positions at a time: a running (centres x rows) count adds the
    next regions of every centre's (distance, id) order.  Yields ``(rows,
    idx, y_c)``: the block's rows, the band's window indices and their
    counts, a new array of the :func:`_count_dtype` of the block's largest
    row total (floats for float ``counts``).  A band's prefix buffer holds at
    most ``_STREAM_ELEMENTS`` values, so memory is O(m k).
    """
    take, extent, window, slot, start = windows.by_length
    width, centres = len(extent), extent[0]
    depth = windows.length[window] - 1
    step = max(1, _STREAM_ELEMENTS // centres)
    for s in range(0, len(counts), step):
        block = counts[s:s + step]
        k = len(block)
        dtype = float if block.dtype.kind == "f" else _count_dtype(block.sum(axis=1).max())
        values = np.ascontiguousarray(block.T, dtype=dtype)
        band = min(width, max(1, _STREAM_ELEMENTS // (centres * k)))
        prefix = np.empty(band * centres * k, dtype=dtype)
        running = np.zeros((centres, k), dtype=dtype)
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

    The rows of each total are streamed by :func:`_window_counts` through
    the kernel, with the total's columns computed once.
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
        columns = _total_columns(total, terms)
        for rows, idx, y_c in _window_counts(counts[in_group], windows):
            llr = _llr_kernel(y_c, total, n_g, [a[idx] for a in terms], table,
                              [a[idx] for a in columns])
            np.maximum(top[rows], llr.max(axis=0, initial=0.0), out=top[rows])
        best[in_group] = top
    return best


def rank_pvalue(observed, reference):
    """Monte Carlo rank p-value ``(1 + #{reference >= observed}) / (len(reference) + 1)``."""
    reference = np.asarray(reference)
    return (1 + int(np.count_nonzero(reference >= observed))) / (len(reference) + 1)


def _critical_counts(observed, total, populations, windows: WindowSet):
    """Each window's largest count y <= ``total`` whose statistic stays under
    ``observed`` > 0, or -1, as (windows, 1) integers of :func:`_count_dtype`:
    a bisection on the kernel, so that ties compare the bits of the maximum."""
    _, n_g, terms = _population_terms(populations, windows)
    table, columns = _xlogx_table(total), _total_columns(total, terms)
    below = np.full((len(windows), 1), -1.0)
    step = 1 << int(total + 1).bit_length() - 1
    while step:
        f = _llr_kernel(np.minimum(below + step, total), total, n_g, terms, table, columns)
        # as in rank_pvalue, a NaN ``observed`` is reached by no value
        np.copyto(below, below + step, where=(below + step <= total) & ~(f >= observed))
        step >>= 1
    return below.astype(_count_dtype(total))


def _reference_pvalues(observed, references, populations, windows: WindowSet):
    """:func:`reference_pvalue` against each of ``references`` (one total), with one bisection."""
    references = [_as_counts(counts, windows.m) for counts in references]
    totals = np.unique(np.concatenate([counts.sum(axis=1) for counts in references]))
    if len(totals) > 1:
        raise ValueError("reference rows must share one case total")
    if observed <= 0:
        return [1.0] * len(references)  # every maximum is at least 0
    hits = [np.zeros(len(counts), dtype=bool) for counts in references]
    if len(windows) and len(totals):
        below = _critical_counts(observed, float(totals[0]), populations, windows)
        for counts, hit in zip(references, hits):
            for rows, idx, y_c in _window_counts(counts, windows):
                hit[rows] |= (y_c > below[idx]).any(axis=0)
    return [(1 + int(np.count_nonzero(hit))) / (len(hit) + 1) for hit in hits]


def reference_pvalue(observed, counts, populations, windows: WindowSet):
    """``rank_pvalue(observed, llr_star_batch(counts, populations, windows))``
    for rows of one total Y, as every :func:`null_counts` reference has.

    While the kernel is nondecreasing in the window count, a row's maximum
    reaches ``observed`` > 0 exactly when some window count exceeds its
    :func:`_critical_counts`, so the stream compares integers instead.
    """
    return _reference_pvalues(observed, [counts], populations, windows)[0]
