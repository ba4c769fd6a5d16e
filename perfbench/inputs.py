"""Workload inputs, generated with the benchmark's own numpy/scipy code.

Nothing here imports corrscan, so a change to the program cannot change the
inputs it is measured on.  Centroids are uniform in the study box, populations
lognormal, and case counts Poisson around a Matérn(sigma, rho, nu=1) field.
Every file is written with ``repr`` floats, so the values the program parses
are exactly the values the oracle uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, kv

BOX = (8.0, 162.0)
POP_LOG_MEAN = 10.0
POP_LOG_SD = 1.0
SIGMA = 0.1
RHO = 50.0
NU = 1.0
EXPECTED_CASES = 1175.0  # per period


@dataclass(frozen=True)
class Region:
    """One generated study region; ``cases`` is (n_periods, m)."""

    ids: tuple
    coords: np.ndarray
    pops: np.ndarray  # (m,), the same in every period
    cases: np.ndarray

    @property
    def periods(self):
        return tuple(str(t) for t in range(len(self.cases)))

    def write(self, directory, stem):
        """Write ``<stem>.geo/.pop/.cas``; periods are labelled 0, 1, ...
        unless there is only one, which is written without a period column."""
        paths = [os.path.join(directory, f"{stem}.{ext}") for ext in ("geo", "pop", "cas")]
        multi = len(self.cases) > 1
        geo = [f"{rid} {x!r} {y!r}" for rid, (x, y) in zip(self.ids, self.coords.tolist())]
        pop, cas = [], []
        for t, label in enumerate(self.periods):
            col = f" {label}" if multi else ""
            pop += [f"{rid}{col} {n!r}" for rid, n in zip(self.ids, self.pops.tolist())]
            cas += [f"{rid}{col} {int(y)}" for rid, y in zip(self.ids, self.cases[t])]
        for path, lines in zip(paths, (geo, pop, cas)):
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return paths


def matern_corr(d, rho=RHO, nu=NU):
    """Matérn correlation, 1 at distance 0."""
    u = np.asarray(d, dtype=float) / rho
    with np.errstate(invalid="ignore"):
        c = u**nu * kv(nu, u) / (2 ** (nu - 1) * gamma(nu))
    return np.where(u == 0, 1.0, c)


def intercept(pops, sigma=SIGMA, expected=EXPECTED_CASES):
    """beta with E[total cases] = expected under log-rate beta + log n + Z."""
    return float(np.log(expected / (pops.sum() * np.exp(sigma**2 / 2))))


def region(rng, m, n_periods=1):
    """A fresh geometry with ``n_periods`` independent field-driven case sets."""
    coords = rng.uniform(*BOX, (m, 2))
    pops = rng.lognormal(POP_LOG_MEAN, POP_LOG_SD, m)
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    chol = np.linalg.cholesky(SIGMA**2 * matern_corr(d) + 1e-10 * np.eye(m))
    z = rng.standard_normal((n_periods, m)) @ chol.T
    cases = rng.poisson(pops * np.exp(intercept(pops) + z))
    # zero-padded, so corrscan's sorted-id order is the generation order that
    # the oracle and the output's region indices share
    ids = tuple(f"R{i:04d}" for i in range(m))
    return Region(ids=ids, coords=coords, pops=pops, cases=cases)
