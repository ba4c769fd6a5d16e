"""Tail asymptotics: Poisson tails, lognormal mixture tails, second-order
correction term, remainder decay, sign condition, heavier-tail onset."""

import math

import numpy as np
import pytest

from corrscan import mixture_tail, poisson_tail, prop2_correction, verify_prop2
from corrscan.theory import TailSetup, heavier_tail_onset, poisson_pmf


def direct_poisson_tail(k, lam, terms=400):
    """Independent oracle: 1 - sum of the first k pmf terms by direct summation."""
    acc = 0.0
    for j in range(k):
        acc += math.exp(-lam) * lam**j / math.factorial(j)
    return 1.0 - acc


# ---------------------------------------------------------------- poisson_tail

def test_tail_k_zero_is_one():
    assert poisson_tail(0, 3.7) == 1.0


def test_tail_two_term_value():
    # P(X >= 2) for lam = 1: 1 - e^{-1} - e^{-1}
    assert poisson_tail(2, 1.0) == pytest.approx(1.0 - 2.0 / math.e, abs=1e-14)


def test_tail_matches_direct_summation():
    for k, lam in [(30, 5.0), (3, 0.5), (10, 10.0), (50, 20.0)]:
        assert poisson_tail(k, lam) == pytest.approx(
            direct_poisson_tail(k, lam), abs=1e-12)


def test_tail_input_validation():
    with pytest.raises(ValueError):
        poisson_tail(2, 0.0)
    with pytest.raises(ValueError):
        poisson_tail(-1, 1.0)


def test_pmf_matches_factorial_formula():
    for k, lam in [(0, 2.0), (5, 2.0), (17, 9.5)]:
        ref = math.exp(-lam) * lam**k / math.factorial(k)
        assert poisson_pmf(k, lam) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------- mixture_tail

def test_mixture_degenerate_equals_poisson():
    n = [4.0, 6.0]
    sig = np.zeros((2, 2))
    for k in (1, 5, 12):
        est, se = mixture_tail(k, 0.3, n, sig)
        assert se == 0.0
        assert est == pytest.approx(poisson_tail(k, 10.0 * math.exp(0.3)), abs=1e-12)


def test_mixture_methods_agree():
    # one component takes quadrature; a perfectly correlated pair with the same
    # total population takes Monte Carlo, and its total rate has the same law
    q, q_se = mixture_tail(9, 0.0, [5.0], [[0.09]])
    mc, se = mixture_tail(9, 0.0, [2.5, 2.5], np.full((2, 2), 0.09),
                          n_samples=1_000_000, seed=0)
    assert q_se == 0.0 and se > 0.0
    assert abs(q - mc) < 3 * se


def test_mixture_heavier_than_poisson_far_tail():
    # far in the right tail the lognormal mixture dominates the Poisson
    est, se = mixture_tail(20, 0.0, [5.0], [[0.25]], n_samples=400_000, seed=1)
    assert est - 3 * se > poisson_tail(20, 5.0 * math.exp(0.125))


# ------------------------------------------------------------ prop2_correction

def test_correction_reference_value():
    # lam=5, k=9, beta=0, V=1, n=100: (pmf(7,5) - pmf(8,5)) / 200
    ref = (poisson_pmf(7, 5.0) - poisson_pmf(8, 5.0)) / 200.0
    got = prop2_correction(9, 5.0, 0.0, 1.0, 100)
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(1.958e-4, rel=1e-3)


def test_correction_boundary_exactly_zero():
    for lam in (1.0, 4.0, 19.0):
        assert abs(prop2_correction(int(lam) + 1, lam, 0.7, 3.0, 50)) <= 1e-14


def test_correction_sign_condition():
    # sign(correction) = sign(k - lam - 1) across the full grid
    for lam in (1.0, 2.0, 5.0, 10.0, 20.0):
        for k in range(2, 41):
            c = prop2_correction(k, lam, 0.0, 1.0, 100)
            if k == lam + 1:
                assert abs(c) <= 1e-14
            elif k > lam + 1:
                assert c > 0
            else:
                assert c < 0


def test_correction_requires_k_at_least_two():
    with pytest.raises(ValueError):
        prop2_correction(1, 5.0, 0.0, 1.0, 10)


# ---------------------------------------------------------------- verify_prop2

def test_remainder_zero_without_mixing():
    setup = TailSetup(beta=0.0, populations=(5.0,), sigma_mat=(0.0,), k=9)
    out = verify_prop2(setup, n_grid=(10, 100))
    for row in out["rows"]:
        assert row["remainder"] <= 1e-12
        assert row["correction"] == 0.0


def test_remainder_decay_quadrature():
    # one component: checked by quadrature
    setup = TailSetup(beta=0.0, populations=(5.0,), sigma_mat=(1.0,), k=9)
    out = verify_prop2(setup, n_grid=(100, 1000, 10_000))
    assert out["setup"]["method"] == "quadrature"
    rows = out["rows"]
    assert rows[0]["remainder"] > rows[1]["remainder"] > rows[2]["remainder"]
    assert out["loglog_slope"] <= -1.25
    # the correction term decays like 1/n (up to the O(1/n) drift of the
    # effective mean through exp(diag/2n))
    assert rows[0]["correction"] == pytest.approx(10 * rows[1]["correction"], rel=0.01)


def test_remainder_decay_monte_carlo_correlated():
    sig = (0.8, 0.3, 0.1,
           0.3, 0.9, 0.2,
           0.1, 0.2, 0.7)
    setup = TailSetup(beta=-1.0, populations=(4.0, 7.0, 6.0), sigma_mat=sig,
                      k=12, n_samples=400_000, seed=7)
    out = verify_prop2(setup, n_grid=(30, 300, 3000))
    assert out["setup"]["method"] == "monte_carlo"
    rows = out["rows"]
    assert rows[0]["remainder"] > rows[1]["remainder"] > rows[2]["remainder"]


def test_verify_prop2_flags_noisy_monte_carlo():
    # two components: checked by Monte Carlo
    setup = TailSetup(beta=0.0, populations=(2.5, 2.5), sigma_mat=(1.0, 0.5, 0.5, 1.0),
                      k=9, n_samples=200, seed=0)
    with pytest.raises(RuntimeError, match="n_samples"):
        verify_prop2(setup, n_grid=(100, 1000, 10_000))


# ---------------------------------------------------------- heavier_tail_onset

def test_onset_exists_and_exceeds_mean():
    k_star, rows = heavier_tail_onset(0.0, [5.0], [[0.25]], seed=3)
    lam_bar = 5.0 * math.exp(0.125)
    assert k_star is not None
    assert k_star >= lam_bar
    # beyond the onset the mixture tail dominates at every tested k
    beyond = [r for r in rows if r["k"] >= k_star]
    assert all(r["p2_tail"] > r["p1_tail"] for r in beyond)
