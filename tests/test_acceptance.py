"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria cover null calibration of the classical scan, the false-alarm
elevation under a correlated latent field, its removal by the adjusted
reference (true and estimated parameters), the second-order tail expansion
and its sign condition, mixed-model estimation calibration, the FDR layer
round trip, and brute-force oracle equivalence of the scanner.

Criterion 7 (reproduction of the published childhood-cancer case study)
requires the original county dataset, which is not distributed with this
repository; it is reported as SKIPPED and the dataset-free calibration
criterion 8 stands in, as the criterion itself provides.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from corrscan import (
    MaternParams,
    PriorSpec,
    cholesky,
    distance_matrix,
    enumerate_windows,
    fit_empirical_density,
    fit_empirical_null,
    fit_fdr_model,
    fit_model2,
    matern_cov,
    mixture_tail,
    poisson_tail,
    prop2_correction,
    scan,
    simulate_model2_counts,
    synth_geometry,
    type1_study,
    adjusted_study,
    verify_prop2,
)
from corrscan.harness import ExperimentConfig
from corrscan.mcmc import McmcConfig
from corrscan.theory import TailSetup

from conftest import brute_force_scan, random_region

STUDY_MCMC = McmcConfig(n_iter=2000, burn_in=500, thin=3)
MASTER_SEED = 1


def _report(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {number}] {status}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def geometry():
    """32 synthetic sites on the study coordinate box, expected total 1175 cases."""
    sr = synth_geometry(32, seed=42, pop_log_mean=10.0, pop_log_sd=1.0)
    beta = math.log(1175.0 / sr.populations[0].sum())
    return sr, beta


@pytest.fixture(scope="module")
def false_alarm_proportions(geometry):
    """Classical, true-parameter and fitted-parameter false-alarm studies on
    the same data (common random numbers), sigma=0.1, rho=50, R=200, M=199."""
    sr, beta = geometry
    out = {}
    for mode in ("classical", "adjusted_true_params", "adjusted_fitted"):
        cfg = ExperimentConfig(
            beta=beta, sigma_grid=(0.1,), rho_grid=(50.0,),
            replicates=200, mc_size=199, mode=mode, seed=MASTER_SEED,
            rho_upper=70, mcmc=STUDY_MCMC)
        fn = type1_study if mode == "classical" else adjusted_study
        out[mode] = fn(sr, cfg).proportion(0.1, 50.0, 0.05, mode)
    return out


def test_criterion_1_null_calibration(geometry, capsys):
    sr, beta = geometry
    cfg = ExperimentConfig(beta=beta, sigma_grid=(0.0,), rho_grid=(0.0,),
                           replicates=500, mc_size=199, mode="classical",
                           seed=MASTER_SEED)
    rate = type1_study(sr, cfg).proportion(0.0, 0.0, 0.05, "classical")
    ok = 0.032 <= rate <= 0.072
    _report(capsys, 1, ok,
            f"classical type-I rate {rate:.3f} in [0.032, 0.072] at alpha=0.05, R=500")


def test_criterion_2_classical_elevation(false_alarm_proportions, capsys):
    prop = false_alarm_proportions["classical"]
    _report(capsys, 2, prop > 0.20,
            f"classical false-alarm proportion {prop:.3f} > 0.20 under "
            "sigma=0.1, rho=50 latent field")


def test_criterion_3_true_parameter_correction(false_alarm_proportions, capsys):
    prop = false_alarm_proportions["adjusted_true_params"]
    _report(capsys, 3, 0.02 <= prop <= 0.10,
            f"true-parameter adjusted proportion {prop:.3f} in [0.02, 0.10]")


def test_criterion_4_fitted_parameter_ordering(false_alarm_proportions, capsys):
    lo = false_alarm_proportions["adjusted_true_params"]
    mid = false_alarm_proportions["adjusted_fitted"]
    hi = false_alarm_proportions["classical"]
    _report(capsys, 4, lo < mid < hi,
            f"fitted-parameter proportion {mid:.3f} strictly between "
            f"true-parameter {lo:.3f} and classical {hi:.3f}")


def test_criterion_5_tail_expansion_remainder(capsys):
    setup = TailSetup(beta=0.0, populations=(5.0,), sigma_mat=(1.0,), k=9)
    out = verify_prop2(setup, n_grid=(100, 1000, 10_000))
    slope = out["loglog_slope"]
    last = out["rows"][-1]
    frac = last["remainder"] / abs(last["correction"])
    ok = slope <= -1.25 and frac <= 0.01
    _report(capsys, 5, ok,
            f"remainder log-log slope {slope:.2f} <= -1.25; remainder at n=1e4 "
            f"is {100 * frac:.3f}% of the correction (<= 1%)")


def test_criterion_6_correction_sign_condition(capsys):
    bad = []
    for lam in (1.0, 2.0, 5.0, 10.0, 20.0):
        for k in range(2, 41):
            c = prop2_correction(k, lam, 0.0, 1.0, 100)
            if k == lam + 1:
                if abs(c) > 1e-14:
                    bad.append((lam, k, c))
            elif (c > 0) != (k > lam + 1) or c == 0:
                bad.append((lam, k, c))
    _report(capsys, 6, not bad,
            "sign(correction) = sign(k - mean - 1) on the full (mean, k) grid"
            + ("" if not bad else f"; violations: {bad[:3]}"))


def test_criterion_7_case_study_dataset(capsys):
    with capsys.disabled():
        print("[acceptance 7] SKIPPED: the original county dataset "
              "(geometry, populations, 1973-1991 counts) is not distributed "
              "with this repository; criterion 8 stands in per the criterion's "
              "own fallback")
    pytest.skip("case-study dataset unavailable; replaced by criterion 8")


def test_criterion_8_mixed_model_calibration(capsys):
    beta_t, sigma_t, rho_t = -0.8, 0.15, 50.0
    sr = synth_geometry(32, seed=7, pop_log_mean=3.0, pop_log_sd=0.6)
    dm = distance_matrix(sr)
    n = sr.populations[0]
    factor = cholesky(matern_cov(dm, MaternParams(sigma_t, rho_t)))
    prior = PriorSpec(70)
    cover_b = cover_s = 0
    betas = []
    rng = np.random.default_rng(2026)
    fits = 0
    for rep in range(50):
        y = simulate_model2_counts(n, beta_t, factor, seed=rng)
        if y.sum() == 0:
            continue
        fit = fit_model2(y, n, dm, prior, config=STUDY_MCMC,
                         seed=int(rng.integers(2**63)))
        fits += 1
        lo, hi = fit.credible_interval("beta", 0.9)
        cover_b += lo <= beta_t <= hi
        lo, hi = fit.credible_interval("sigma", 0.9)
        cover_s += lo <= sigma_t <= hi
        betas.append(fit.beta.mean())
    bias = float(np.mean(betas)) - beta_t
    ok = cover_b >= 40 and cover_s >= 40 and abs(bias) < 0.1
    _report(capsys, 8, ok,
            f"90% credible-interval coverage over {fits} fits: intercept "
            f"{cover_b}/50, field scale {cover_s}/50 (need >= 40); intercept "
            f"bias {bias:+.3f} (need |bias| < 0.1)")


def test_criterion_9_fdr_round_trip(capsys):
    grid = np.linspace(-4, 4, 161)
    d0, s0 = fit_empirical_null(grid, norm.pdf(grid, loc=-0.07, scale=0.55))
    exact_ok = abs(d0 + 0.07) <= 1e-3 and abs(s0 - 0.55) <= 1e-3
    z = np.random.default_rng(99).standard_normal(10_000)
    model = fit_fdr_model(z)
    interesting = float(np.mean(model.fdr < 0.5))
    sampled_ok = (-0.1 <= model.delta0 <= 0.1 and 0.85 <= model.sigma0 <= 1.15
                  and interesting <= 0.05)
    _report(capsys, 9, exact_ok and sampled_ok,
            f"central matching on the exact density gives ({d0:.4f}, {s0:.4f}) "
            f"vs (-0.07, 0.55); sampled null gives delta0={model.delta0:.3f}, "
            f"sigma0={model.sigma0:.3f}, {100 * interesting:.1f}% of inputs "
            "below fdr 0.5")


def test_criterion_10_oracle_equivalence(capsys):
    rng = np.random.default_rng(1234)
    mismatches = 0
    checked = 0
    while checked < 50:
        sr = random_region(rng, int(rng.integers(2, 9)))
        ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
        if len(ws) == 0 or sr.total_cases("t0") == 0:
            continue
        checked += 1
        res = scan(sr, ws, period="t0")
        ref_llr, ref_members = brute_force_scan(sr)
        if abs(res.llr_star - ref_llr) > 1e-10:
            mismatches += 1
        elif ref_llr > 0 and tuple(sorted(res.primary.members)) != ref_members:
            mismatches += 1
    tail_err = 0.0
    for k in (1, 4, 9):
        est, _ = mixture_tail(k, 0.2, [3.0, 4.0], np.zeros((2, 2)))
        tail_err = max(tail_err, abs(est - poisson_tail(k, 7.0 * math.exp(0.2))))
    ok = mismatches == 0 and tail_err <= 1e-12
    _report(capsys, 10, ok,
            f"scan matches brute force on {checked} random instances "
            f"({mismatches} mismatches); degenerate mixture tail within "
            f"{tail_err:.1e} of the Poisson tail (<= 1e-12)")
