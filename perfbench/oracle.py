"""Independent correctness oracle for the classical scan statistic.

Every candidate window is a prefix of its center's (distance, id) ordering,
kept while the population summed over all periods stays within half of the
study total.  So the maximum statistic is a maximum over per-center prefix
sums; it needs neither corrscan's window list nor its de-duplication.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

MAX_FRACTION = 0.5


def llr(y_c, n_c, y_g, n_g):
    """Poisson log likelihood ratio, zero unless the inside rate is higher."""
    y_c = np.asarray(y_c, dtype=float)
    n_c = np.asarray(n_c, dtype=float)
    y_o = y_g - y_c
    n_o = n_g - n_c
    proper = n_o > 0
    n_o_safe = np.where(proper, n_o, 1.0)
    high = proper & (y_c * n_o_safe > y_o * n_c)
    val = (xlogy(y_c, y_c / n_c) + xlogy(y_o, y_o / n_o_safe)
           - xlogy(y_g, y_g / n_g))
    return np.where(high, np.maximum(val, 0.0), 0.0)


class PrefixOracle:
    """Window prefixes of one geometry, reusable across periods and count vectors.

    ``pops`` is (n_periods, m); the cap uses its sum over periods.
    """

    def __init__(self, ids, coords, pops):
        coords = np.asarray(coords, dtype=float)
        self.pops = np.atleast_2d(np.asarray(pops, dtype=float))
        m = len(ids)
        d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        rank = np.argsort(np.argsort(np.asarray(ids)))  # id order as an integer key
        order = np.empty((m, m), dtype=np.int64)
        for c in range(m):
            dist = d[c].copy()
            dist[c] = -1.0  # the center leads its own ordering
            order[c] = np.lexsort((rank, dist))
        total = self.pops.sum(axis=0)
        cum = np.cumsum(total[order], axis=1)
        self.order = order
        self.inside = cum <= MAX_FRACTION * total.sum()  # (m, m) valid prefixes

    def llr_star(self, counts, period=0):
        """Max statistic of a count vector (or (k, m) batch) for one period."""
        y = np.atleast_2d(np.asarray(counts, dtype=float))
        n = self.pops[period]
        y_c = np.cumsum(y[:, self.order], axis=2)  # (k, m, m)
        n_c = np.cumsum(n[self.order], axis=1)
        y_g = y.sum(axis=1)[:, None, None]
        vals = np.where(self.inside, llr(y_c, n_c, y_g, n.sum()), 0.0)
        out = vals.reshape(len(y), -1).max(axis=1)
        return out if np.ndim(counts) == 2 else float(out[0])

    def check_scan(self, counts, llr_star, members, period=0):
        """Problems with a reported maximum and its primary window, as strings."""
        want = self.llr_star(counts, period)
        if not close(llr_star, want):
            return [f"llr_star {llr_star!r}, oracle {want!r}"]
        if want == 0:
            return []
        members = sorted(int(i) for i in members)
        k = len(members)
        if not (0 < k <= len(self.order) and any(
                self.inside[c, k - 1] and sorted(self.order[c, :k].tolist()) == members
                for c in members)):
            return [f"primary {members} is not a candidate window"]
        y = np.asarray(counts, dtype=float)
        n = self.pops[period]
        got = float(llr(y[members].sum(), n[members].sum(), y.sum(), n.sum()))
        if not close(got, want):
            return [f"primary window scores {got!r}, not the maximum {want!r}"]
        return []


def on_grid(p, mc_size):
    """True when p is r / (M + 1) for a whole r in 1..M+1."""
    r = p * (mc_size + 1)
    return 1 - 1e-9 <= r <= mc_size + 1 + 1e-9 and abs(r - round(r)) < 1e-6


def close(a, b, rtol=1e-9, atol=1e-9):
    return abs(a - b) <= atol + rtol * abs(b)
