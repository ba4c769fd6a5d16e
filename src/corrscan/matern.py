"""Matérn covariance, Cholesky factors and GRF simulation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf
from scipy.special import gamma as _gamma, k1 as _k1, kv as _kv

__all__ = [
    "MaternParams",
    "CovFactor",
    "NotPositiveDefiniteError",
    "matern_cov",
    "cholesky",
    "simulate_grf",
]

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class MaternParams:
    """Marginal std. dev. sigma, range rho (map units), smoothness nu."""

    sigma: float
    rho: float
    nu: float = 1.0

    def __post_init__(self):
        for name in ("sigma", "rho", "nu"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")


class NotPositiveDefiniteError(LinAlgError):
    def __init__(self, minor_index, jitter_tried):
        self.minor_index = minor_index
        self.jitter_tried = jitter_tried
        super().__init__(
            f"covariance not positive definite (leading minor {minor_index}) "
            f"even with jitter {jitter_tried:g}"
        )


def matern_cov(d, p: MaternParams):
    """Matérn covariance at distance(s) d >= 0, elementwise over an array.

    Standard form: sigma^2 / (2^(nu-1) Gamma(nu)) * (d/rho)^nu * K_nu(d/rho),
    with value sigma^2 at d = 0.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    u = d / p.rho
    scale = p.sigma**2 / (2 ** (p.nu - 1) * _gamma(p.nu))
    with np.errstate(invalid="ignore"):
        c = (scale * u * _k1(u) if p.nu == 1.0  # K_1 has a much faster routine than kv
             else scale * u**p.nu * _kv(p.nu, u))
    c = np.where(d == 0, p.sigma**2, c)
    return float(c) if c.ndim == 0 else c


@dataclass(frozen=True)
class CovFactor:
    """Lower-triangular L with Sigma ~= L L', plus the diagonal jitter applied."""

    L: np.ndarray
    jitter: float


def cholesky(sigma_mat, jitter_scale=None) -> CovFactor:
    """Cholesky factor with an escalating diagonal-jitter ladder.

    ``jitter_scale`` defaults to the mean diagonal (sigma^2 for a Matérn
    matrix); each ladder rung is jitter_scale * {0, 1e-10, 1e-8, 1e-6}.
    """
    sigma_mat = np.asarray_chkfinite(sigma_mat, dtype=float)
    if jitter_scale is None:
        jitter_scale = float(np.mean(np.diag(sigma_mat))) or 1.0
    minor = None
    for rung in JITTER_LADDER:
        jitter = rung * jitter_scale
        L, info = dpotrf(sigma_mat + jitter * np.eye(sigma_mat.shape[0]), lower=1, clean=1)
        if info < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info}")
        if info > 0:
            minor = info  # order of the first leading minor that is not positive definite
            continue
        L.setflags(write=False)
        return CovFactor(L=L, jitter=jitter)
    raise NotPositiveDefiniteError(minor, JITTER_LADDER[-1] * jitter_scale)


def simulate_grf(factor: CovFactor, seed=None, size=1):
    """Draw Z = L eps with eps i.i.d. standard normal; (size, m) or (m,)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((size, factor.L.shape[0]))
    z = eps @ factor.L.T
    return z[0] if size == 1 else z
