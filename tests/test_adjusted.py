"""Adjusted scan: mixed-model count simulation, the fitted-field reference,
iterative cluster re-assessment, train/test surveillance scans."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from corrscan import (
    AdjustedScanConfig,
    MaternParams,
    PriorSpec,
    StudyRegion,
    adjusted_scan,
    cholesky,
    distance_matrix,
    enumerate_windows,
    matern_cov,
    simulate_model2_counts,
    train_test_adjusted_scan,
)
from corrscan.harness import synth_geometry
from corrscan.mcmc import McmcConfig, TooFewRegionsError
from corrscan.scan import llr_star_batch, null_counts

from conftest import two_iteration_region

FAST = McmcConfig(n_iter=1200, burn_in=400, thin=2)


def _factor(dm, sigma, rho):
    return cholesky(matern_cov(dm, MaternParams(sigma, rho)))


# ------------------------------------------------------- count simulation

def test_sigma_zero_limit_reduces_to_poisson():
    # with a (numerically) zero field the counts are plain Poisson(N e^beta)
    sr = synth_geometry(6, seed=1)
    dm = distance_matrix(sr)
    n = sr.populations[0]
    beta = math.log(200.0 / n.sum())
    fac = _factor(dm, 1e-8, 10.0)
    sims = simulate_model2_counts(n, beta, fac, seed=2, size=100_000)
    mean_expect = n * math.exp(beta)
    se = np.sqrt(mean_expect / 100_000)
    assert np.all(np.abs(sims.mean(axis=0) - mean_expect) < 4 * se)


def test_lognormal_mean_inflation():
    # plain intercept beta = log(Y_G/N_G): the latent field inflates the
    # expected total by e^{sigma^2/2}
    sr = synth_geometry(10, seed=3)
    dm = distance_matrix(sr)
    n = sr.populations[0]
    y_g = 1000.0
    beta = math.log(y_g / n.sum())
    sigma = 0.176
    fac = _factor(dm, sigma, 20.94)
    sims = simulate_model2_counts(n, beta, fac, seed=4, size=10_000)
    target = y_g * math.exp(sigma**2 / 2)
    assert abs(sims.sum(axis=1).mean() - target) < 0.05 * target


def test_simulation_deterministic():
    sr = synth_geometry(5, seed=5)
    fac = _factor(distance_matrix(sr), 0.2, 5.0)
    n = sr.populations[0]
    a = simulate_model2_counts(n, -6.0, fac, seed=9, size=3)
    b = simulate_model2_counts(n, -6.0, fac, seed=9, size=3)
    assert np.array_equal(a, b)


def test_overflow_names_region():
    sr = synth_geometry(4, seed=6)
    fac = _factor(distance_matrix(sr), 0.1, 5.0)
    with pytest.raises(OverflowError, match="R00"):
        simulate_model2_counts(sr.populations[0], 1e4, fac, seed=0,
                               region_ids=sr.ids)


# ------------------------------------------------------ fitted-field reference

@pytest.mark.parametrize("sigma", [5.0, 20.0, 40.0])
def test_large_field_reference_keeps_the_total(sigma):
    # a large fitted sigma once drove the re-centred intercept to -207
    # (all-zero rows) at sigma = 20 and overflowed it at sigma = 40
    sr = _null_region(m=12, seed=21)
    dm = distance_matrix(sr)
    n = sr.populations[0]
    y_g = sr.total_cases()
    sims = null_counts(np.random.default_rng(7), y_g, n, 50, _factor(dm, sigma, 10.0))
    assert sims.shape == (50, 12)
    assert np.all(sims.sum(axis=1) == y_g)
    llr = llr_star_batch(sims, n, enumerate_windows(sr, dm, 0.5))
    assert np.all(np.isfinite(llr)) and np.all(llr > 0)


# ----------------------------------------------------------- configuration

def test_config_requires_large_reference():
    with pytest.raises(ValueError, match="M"):
        AdjustedScanConfig(prior=PriorSpec(10), M=50)


# ------------------------------------------------------------ adjusted_scan

def _null_region(m=12, seed=0, cases=400):
    sr = synth_geometry(m, seed=seed)
    n = sr.populations[0]
    rng = np.random.default_rng(seed + 100)
    counts = rng.multinomial(cases, n / n.sum())
    return StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=sr.periods,
                       populations=sr.populations, cases=counts[None, :])


def test_adjusted_scan_null_data_converges_first_pass():
    sr = _null_region(m=12, seed=21)
    dm = distance_matrix(sr)
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(20), M=199, mcmc=FAST, seed=5)
    res = adjusted_scan(sr, ws, dm, cfg)
    assert res.converged
    # proportional-ish data: either no exclusions in the first fit, or the
    # screen found something spurious that the adjustment then dismissed
    assert len(res.iterations) >= 1
    first = res.iterations[0]
    assert set(first["fit"]) >= {"beta", "sigma", "rho", "ess"}
    for _, _, p in res.final_clusters:
        assert 1 / 200 <= p <= 1.0


def test_adjusted_scan_planted_hotspot_detected():
    # a strong planted cluster must survive the adjustment
    sr0 = synth_geometry(16, seed=30)
    n = sr0.populations[0]
    dm = distance_matrix(sr0)
    rng = np.random.default_rng(31)
    beta = math.log(800 / n.sum())
    fac = _factor(dm, 0.05, 10.0)
    counts = simulate_model2_counts(n, beta, fac, seed=32)
    hot = int(np.argmax(n))
    counts = counts.copy()
    counts[hot] = rng.poisson(3.0 * n[hot] * math.exp(beta))
    sr = StudyRegion(ids=sr0.ids, centroids=sr0.centroids, periods=sr0.periods,
                     populations=sr0.populations, cases=counts[None, :])
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(20), M=199, mcmc=FAST, seed=33)
    res = adjusted_scan(sr, ws, dm, cfg)
    best = min(res.final_clusters, key=lambda t: t[2])
    assert hot in best[0].members
    assert best[2] <= 0.05
    assert res.iterations[0]["excluded_regions"]  # the screen caught it


def test_adjusted_scan_draws_one_classical_reference(monkeypatch):
    # the classical p-value and the first screen share one multinomial sample
    modules = [importlib.import_module(f"corrscan.{name}") for name in ("adjusted", "scan")]
    original = modules[1].null_counts
    draws = []

    def counting(rng, total, populations, size, factor=None):
        if factor is None:
            draws.append(size)
        return original(rng, total, populations, size, factor)

    for module in modules:
        monkeypatch.setattr(module, "null_counts", counting)
    sr = _null_region(m=12, seed=21)
    dm = distance_matrix(sr)
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(20), M=199, mcmc=FAST, seed=5)
    res = adjusted_scan(sr, ws, dm, cfg)
    assert res.classical.primary is not None  # so the screen ran
    assert draws == [199]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adjusted_scan_assesses_each_cluster_once_per_reference(seed, monkeypatch):
    adjusted = importlib.import_module("corrscan.adjusted")
    original = adjusted.rank_pvalue
    calls = []

    def counting(observed, reference):
        calls.append(observed)
        return original(observed, reference)

    monkeypatch.setattr(adjusted, "rank_pvalue", counting)
    sr, dm = two_iteration_region()
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(20), M=199, mcmc=FAST, seed=seed)
    res = adjusted_scan(sr, ws, dm, cfg)
    assert res.converged and len(res.iterations) == 2
    assert res.iterations[0]["excluded_regions"] != res.iterations[1]["excluded_regions"]
    clusters = len(res.final_clusters)
    assert clusters >= 1
    # the classical p-value, then every cluster once against the classical
    # reference and once against each iteration's reference
    assert len(calls) == 1 + clusters * (len(res.iterations) + 1)


def test_adjusted_scan_stops_unconverged_at_max_iter():
    sr, dm = two_iteration_region()
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(20), M=199, mcmc=FAST, seed=1)
    full = adjusted_scan(sr, ws, dm, cfg)
    res = adjusted_scan(sr, ws, dm, dataclasses.replace(cfg, max_iter=1))
    assert not res.converged
    assert res.iterations == full.iterations[:1]
    final = [{"members": list(c.members), "llr": llr, "adjusted_p": p}
             for c, llr, p in res.final_clusters]
    assert final == res.iterations[-1]["clusters"]


def test_adjusted_scan_too_few_clean_regions():
    sr = _null_region(m=5, seed=40, cases=50)
    # plant everything hot so the screen wants to exclude nearly all regions
    counts = sr.cases[0].copy()
    counts[:4] *= 20
    sr = StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=sr.periods,
                     populations=sr.populations, cases=counts[None, :])
    dm = distance_matrix(sr)
    ws = enumerate_windows(sr, dm, 0.9)
    cfg = AdjustedScanConfig(prior=PriorSpec(10), M=199, mcmc=FAST, seed=41)
    with pytest.raises(ValueError, match="fewer than 5"):
        adjusted_scan(sr, ws, dm, cfg)


def test_adjusted_scan_refuses_a_region_too_small_to_fit(monkeypatch):
    # 4 regions can never be fit: refused before any reference is drawn, and
    # not blamed on clusters that were never screened
    adjusted = importlib.import_module("corrscan.adjusted")

    def no_draw(*args, **kwargs):
        raise AssertionError("a reference was drawn")

    monkeypatch.setattr(adjusted, "null_counts", no_draw)
    sr = _null_region(m=4, seed=40, cases=20)
    dm = distance_matrix(sr)
    cfg = AdjustedScanConfig(prior=PriorSpec(10), M=99, mcmc=FAST, seed=1)
    with pytest.raises(TooFewRegionsError, match="needs 5 regions; the study region has 4$"):
        adjusted_scan(sr, enumerate_windows(sr, dm, 0.5), dm, cfg)


# ----------------------------------------------------- train/test surveillance

def _two_period_region(seed=50, m=10, cases=500):
    sr = synth_geometry(m, seed=seed)
    n = sr.populations[0]
    rng = np.random.default_rng(seed)
    c = rng.multinomial(cases, n / n.sum(), size=2)
    return StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=("t0", "t1"),
                       populations=np.vstack([n, n]), cases=c)


def test_train_test_pvalue_grid():
    sr = _two_period_region()
    dm = distance_matrix(sr)
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=51)
    report = train_test_adjusted_scan(sr, ws, dm, "t0", ["t1"], cfg)
    row = report["periods"][0]
    p = row["adjusted_p"]
    assert p in [k / 100 for k in range(1, 101)]
    assert 1 / 100 <= row["classical_p"] <= 1.0
    assert set(report["fit"]) >= {"beta", "sigma", "rho", "rho_grid"}


def test_train_test_period_without_cases_scores_one():
    sr = _two_period_region()
    sr = StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=sr.periods,
                     populations=sr.populations,
                     cases=np.vstack([sr.cases[0], np.zeros(10, dtype=int)]))
    dm = distance_matrix(sr)
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=54)
    row = train_test_adjusted_scan(sr, ws, dm, "t0", ["t1"], cfg)["periods"][0]
    assert row["llr_star"] == 0.0
    assert row["classical_p"] == row["adjusted_p"] == 1.0


def test_train_test_rejects_overlap():
    sr = _two_period_region()
    dm = distance_matrix(sr)
    ws = enumerate_windows(sr, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=52)
    with pytest.raises(ValueError, match="disjoint"):
        train_test_adjusted_scan(sr, ws, dm, "t0", ["t0", "t1"], cfg)


def test_train_test_rejects_empty_training():
    sr = _two_period_region()
    zero = StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=sr.periods,
                       populations=sr.populations,
                       cases=np.vstack([np.zeros(10, dtype=int), sr.cases[1]]))
    dm = distance_matrix(zero)
    ws = enumerate_windows(zero, dm, 0.5)
    cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=53)
    with pytest.raises(ValueError, match="zero cases"):
        train_test_adjusted_scan(zero, ws, dm, "t0", ["t1"], cfg)
