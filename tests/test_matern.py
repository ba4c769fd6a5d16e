"""Matérn covariance, Cholesky factorization with jitter, GRF simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import kv
from scipy.stats import kstest

from corrscan import MaternParams, cholesky, matern_cov, simulate_grf
from corrscan.matern import JITTER_LADDER, NotPositiveDefiniteError

mpmath = pytest.importorskip("mpmath")


# ----------------------------------------------------------------- matern_cov

def test_zero_distance_is_variance():
    for sigma in (0.1, 1.0, 3.0):
        p = MaternParams(sigma=sigma, rho=5.0)
        assert matern_cov(0.0, p) == sigma**2


def test_nu_one_reference_value():
    # (d/rho) K_1(d/rho) at d/rho = 1: K_1(1) = 0.6019072301972346
    p = MaternParams(sigma=1.0, rho=1.0)
    assert matern_cov(1.0, p) == pytest.approx(0.6019072301972346, abs=1e-12)


def test_matches_arbitrary_precision_bessel():
    # independent oracle: 50-digit Bessel-K evaluation of the same formula
    mpmath.mp.dps = 50
    p = MaternParams(sigma=1.3, rho=1.0)
    for u in (0.1, 0.7, 1.0, 2.3, 6.0):
        ref = mpmath.mpf("1.3") ** 2 * mpmath.mpf(u) * mpmath.besselk(1, u)
        assert matern_cov(u, p) == pytest.approx(float(ref), rel=1e-10)


def test_nu_one_fast_path_matches_the_kv_formula():
    # the general-smoothness form sigma^2 / (2^(nu-1) Gamma(nu)) u^nu K_nu(u)
    # at nu = 1, written out with the general Bessel routine kv as the oracle
    d = np.concatenate([[0.0], np.geomspace(1e-6, 300.0, 20_001)])
    u = d[1:]
    got = matern_cov(d, MaternParams(sigma=1.0, rho=1.0))
    assert got[0] == 1.0
    assert np.max(np.abs(got[1:] - u * kv(1, u)) / (u * kv(1, u))) <= 4e-15


def test_monotone_decreasing_in_distance():
    p = MaternParams(sigma=1.0, rho=10.0)
    d = np.linspace(0, 50, 200)
    c = matern_cov(d, p)
    assert np.all(np.diff(c) < 1e-12)
    assert np.all(c >= 0)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        matern_cov(-1.0, MaternParams(1.0, 1.0))


def test_params_validated():
    for bad in ({"sigma": 0.0}, {"rho": -1.0}):
        kwargs = {"sigma": 1.0, "rho": 1.0, **bad}
        with pytest.raises(ValueError):
            MaternParams(**kwargs)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.1, max_value=50.0))
def test_covariance_bounded_by_variance(d, rho):
    p = MaternParams(sigma=1.7, rho=rho)
    c = matern_cov(d, p)
    assert 0.0 <= c <= 1.7**2 + 1e-12


# ------------------------------------------------------------------- cholesky

def test_cholesky_single_site():
    fac = cholesky(np.array([[4.0]]))
    assert fac.L.tolist() == [[2.0]]
    assert fac.jitter == 0.0


def test_cholesky_reconstruction():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 20, (12, 2))
    dm = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    p = MaternParams(sigma=0.5, rho=5.0)
    cov = matern_cov(dm, p)
    fac = cholesky(cov)
    assert np.max(np.abs(fac.L @ fac.L.T - cov)) < 1e-8 * p.sigma**2


def test_cholesky_jitter_on_singular():
    # coincident sites give a singular covariance; the ladder must engage
    dm = np.zeros((2, 2))
    cov = matern_cov(dm, MaternParams(sigma=1.0, rho=1.0))
    fac = cholesky(cov)
    assert fac.jitter > 0.0
    assert fac.jitter in tuple(r * 1.0 for r in JITTER_LADDER)


def test_cholesky_indefinite_raises():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky(bad)
    assert exc.value.minor_index >= 1



def test_cholesky_reports_the_failing_leading_minor():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # first minor 1, second -3
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky(bad)
    assert exc.value.minor_index == 2


# --------------------------------------------------------------- simulate_grf

def test_grf_deterministic():
    fac = cholesky(matern_cov(np.array([[0.0, 1.0], [1.0, 0.0]]),
                              MaternParams(1.0, 2.0)))
    a = simulate_grf(fac, seed=77)
    b = simulate_grf(fac, seed=77)
    assert np.array_equal(a, b)


def test_grf_diagonal_is_iid_normal():
    sigma = 1.8
    fac = cholesky(sigma**2 * np.eye(4))
    z = simulate_grf(fac, seed=10, size=100_000)
    stat = kstest(z[:, 1] / sigma, "norm")
    assert stat.pvalue > 0.01


def test_grf_covariance_recovery():
    cov = np.array([
        [1.0, 0.6, 0.2],
        [0.6, 1.0, 0.5],
        [0.2, 0.5, 1.0],
    ])
    fac = cholesky(cov)
    z = simulate_grf(fac, seed=4, size=200_000)
    emp = np.cov(z, rowvar=False)
    assert np.max(np.abs(emp - cov)) < 0.02


def test_grf_shapes():
    fac = cholesky(np.eye(3))
    assert simulate_grf(fac, seed=0).shape == (3,)
    assert simulate_grf(fac, seed=0, size=5).shape == (5, 3)
