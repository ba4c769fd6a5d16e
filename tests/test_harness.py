"""Experiment harness: config, synthetic geometry, false-alarm studies,
surveillance workflow, run persistence."""

import json
import math
import os

import numpy as np
import pytest

from corrscan import (
    AdjustedScanConfig,
    ExperimentConfig,
    PriorSpec,
    StudyRegion,
    adjusted_study,
    surveillance_run,
    synth_geometry,
    type1_study,
)
from corrscan.harness import ProportionTable, write_run
from corrscan.mcmc import McmcConfig

FAST = McmcConfig(n_iter=1200, burn_in=400, thin=2)


def _cfg(**kw):
    base = dict(beta=-6.0, sigma_grid=(0.1,), rho_grid=(20.0,), replicates=5,
                mc_size=39, mode="classical", seed=0, mcmc=FAST)
    base.update(kw)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(replicates=0)
    with pytest.raises(ValueError):
        _cfg(mc_size=5)
    with pytest.raises(ValueError):
        _cfg(sigma_grid=())
    with pytest.raises(ValueError):
        _cfg(mode="bayes")


def test_content_hash_tracks_config():
    a, b = _cfg(seed=1), _cfg(seed=2)
    assert a.content_hash() != b.content_hash()
    assert _cfg(seed=1).content_hash() == a.content_hash()


# ---------------------------------------------------------- synth_geometry

def test_synth_geometry_single_site():
    sr = synth_geometry(1, seed=0)
    assert sr.m == 1
    assert sr.total_cases() == 0


def test_synth_geometry_deterministic_and_bounded():
    a = synth_geometry(20, seed=42)
    b = synth_geometry(20, seed=42)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.populations, b.populations)
    assert a.centroids.min() >= 8.0 and a.centroids.max() <= 162.0
    assert np.all(a.populations > 0)


def test_synth_geometry_rejects_empty():
    with pytest.raises(ValueError):
        synth_geometry(0)


# ------------------------------------------------------- proportion table

def test_proportion_table_rows_and_lookup():
    t = ProportionTable()
    t.add_setting(0.1, 20.0, "classical", [0.01, 0.2, 0.9, 0.04], (0.01, 0.05, 0.1))
    assert t.proportion(0.1, 20.0, 0.05, "classical") == 0.5
    with pytest.raises(KeyError):
        t.proportion(0.2, 20.0, 0.05, "classical")
    csv = t.to_csv()
    assert csv.splitlines()[0].startswith("sigma,rho,alpha,mode")
    assert len(csv.splitlines()) == 4


def test_proportions_monotone_in_alpha():
    sr = synth_geometry(10, seed=1)
    table = type1_study(sr, _cfg(sigma_grid=(0.0,), rho_grid=(0.0,), replicates=40))
    props = [table.proportion(0.0, 0.0, a, "classical") for a in (0.01, 0.05, 0.1)]
    assert props[0] <= props[1] <= props[2]


def test_pvalues_archived_and_recomputable():
    sr = synth_geometry(10, seed=2)
    table = type1_study(sr, _cfg(sigma_grid=(0.0,), rho_grid=(0.0,), replicates=30))
    archived = np.array(table.pvalues[(0.0, 0.0, "classical")])
    assert len(archived) == 30
    for alpha in (0.01, 0.05, 0.1):
        assert table.proportion(0.0, 0.0, alpha, "classical") == pytest.approx(
            float(np.mean(archived <= alpha)))


# ----------------------------------------------------------------- studies

def test_type1_study_rejects_adjusted_mode():
    sr = synth_geometry(10, seed=3)
    with pytest.raises(ValueError):
        type1_study(sr, _cfg(mode="adjusted_true_params"))
    with pytest.raises(ValueError):
        adjusted_study(sr, _cfg(mode="classical"))


def test_study_single_replicate_smoke_all_modes():
    sr = synth_geometry(8, seed=4)
    for mode in ("classical", "adjusted_true_params", "adjusted_fitted"):
        cfg = _cfg(mode=mode, replicates=1, beta=-5.0, rho_upper=10)
        fn = type1_study if mode == "classical" else adjusted_study
        table = fn(sr, cfg)
        pvals = table.pvalues[(0.1, 20.0, mode)]
        assert len(pvals) + table.rows[0]["dropped"] == 1
        if pvals:
            assert 1 / 40 <= pvals[0] <= 1.0


def test_study_deterministic():
    sr = synth_geometry(10, seed=5)
    a = type1_study(sr, _cfg(replicates=10, seed=11))
    b = type1_study(sr, _cfg(replicates=10, seed=11))
    assert a.pvalues == b.pvalues
    assert a.to_csv() == b.to_csv()


def test_sigma_zero_reduces_adjusted_to_conditional_reference():
    # with sigma = 0 the adjusted_true_params mode falls back to the
    # conditional multinomial reference: identical p-values to classical
    sr = synth_geometry(10, seed=7)
    kw = dict(sigma_grid=(0.0,), rho_grid=(0.0,), replicates=15, seed=9, beta=-5.0)
    c = type1_study(sr, _cfg(**kw))
    t = adjusted_study(sr, _cfg(mode="adjusted_true_params", **kw))
    assert c.pvalues[(0.0, 0.0, "classical")] == t.pvalues[(0.0, 0.0, "adjusted_true_params")]


def test_fitted_replicate_with_too_few_clean_regions_is_dropped():
    # on 5 regions any screened cluster leaves fewer than 5 to fit: such a
    # replicate is dropped, the rule adjusted_scan applies, not fit on all regions
    sr = synth_geometry(5, seed=4)
    cfg = _cfg(mode="adjusted_fitted", sigma_grid=(1.0,), beta=-3.0, replicates=4,
               rho_upper=10)
    table = adjusted_study(sr, cfg)
    dropped = table.rows[0]["dropped"]
    assert dropped >= 1
    assert len(table.pvalues[(1.0, 20.0, "adjusted_fitted")]) + dropped == 4



def _fitted_study_with_fit(monkeypatch, fake_fit):
    import corrscan.harness as harness

    calls = []

    def fit(*args, **kwargs):
        calls.append(1)
        return fake_fit(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_model2", fit)
    sr = synth_geometry(16, seed=6)
    table = adjusted_study(sr, _cfg(mode="adjusted_fitted", replicates=3, beta=-5.0,
                                    rho_upper=10))
    return table, len(calls)


def test_study_counts_a_chain_divergence_under_its_cause(monkeypatch):
    from corrscan.mcmc import ChainDivergenceError

    def diverge(*args, **kwargs):
        raise ChainDivergenceError("sigma ran away")

    table, fits = _fitted_study_with_fit(monkeypatch, diverge)
    assert fits >= 1
    row = table.rows[0]
    assert row["dropped_by"]["ChainDivergenceError"] == fits
    assert row["dropped"] == sum(row["dropped_by"].values()) == 3
    assert table.to_csv().splitlines()[0] == (
        "sigma,rho,alpha,mode,proportion,se,replicates,dropped")


def test_study_propagates_an_unnamed_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a sampler bug")

    with pytest.raises(ValueError, match="a sampler bug"):
        _fitted_study_with_fit(monkeypatch, broken)


def test_too_few_clean_regions_is_counted_under_its_cause():
    sr = synth_geometry(5, seed=4)
    cfg = _cfg(mode="adjusted_fitted", sigma_grid=(1.0,), beta=-3.0, replicates=4,
               rho_upper=10)
    row = adjusted_study(sr, cfg).rows[0]
    assert row["dropped_by"].get("TooFewRegionsError", 0) >= 1
    assert sum(row["dropped_by"].values()) == row["dropped"]


# ------------------------------------------------------------- surveillance

def _multi_period_region(n_periods, seed=0, cases=600, m=10, hot_period=None):
    sr = synth_geometry(m, seed=seed)
    n = sr.populations[0]
    rng = np.random.default_rng(seed + 1)
    counts = rng.multinomial(cases, n / n.sum(), size=n_periods)
    if hot_period is not None:
        # concentrate a blob of extra cases in the three closest regions
        from corrscan import distance_matrix
        dm = distance_matrix(sr)
        blob = np.argsort(dm[0])[:3]
        counts[hot_period, blob] += rng.poisson(3 * counts[hot_period, blob] + 5)
    periods = tuple(f"t{k}" for k in range(n_periods))
    return StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=periods,
                       populations=np.tile(n, (n_periods, 1)), cases=counts)


def test_surveillance_needs_two_periods():
    sr = _multi_period_region(1)
    cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=0)
    with pytest.raises(ValueError, match="2 periods"):
        surveillance_run(sr, "t0", cfg)


def test_surveillance_few_periods_skips_fdr():
    sr = _multi_period_region(3, seed=10)
    cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=1)
    report = surveillance_run(sr, "t0", cfg)
    assert len(report["periods"]) == 2
    assert report["fdr_fit"] is None
    for row in report["periods"]:
        assert math.isnan(row["fdr"])
        assert 1 / 100 <= row["adjusted_p"] <= 1.0


def test_surveillance_planted_period_flagged():
    sr = _multi_period_region(36, seed=20, hot_period=17)
    cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=2)
    report = surveillance_run(sr, "t0", cfg)
    rows = report["periods"]
    assert len(rows) == 35
    hot = next(r for r in rows if r["period"] == "t17")
    assert hot["adjusted_p"] == min(r["adjusted_p"] for r in rows)
    if report["fdr_fit"] and "error" not in report["fdr_fit"]:
        assert hot["fdr"] == min(r["fdr"] for r in rows)


def test_surveillance_pure_noise_fdr_quiet():
    sr = _multi_period_region(40, seed=30)
    for seed in (3, 4, 5):
        cfg = AdjustedScanConfig(prior=PriorSpec(15), M=99, mcmc=FAST, seed=seed)
        report = surveillance_run(sr, "t0", cfg)
        assert "error" not in report["fdr_fit"]
        flagged = [r["period"] for r in report["periods"] if r["fdr"] < 0.1]
        assert flagged == [], f"seed {seed}"


# ---------------------------------------------------------------- write_run

def test_write_run_creates_and_overwrites(tmp_path):
    out = str(tmp_path / "runs")
    paths = write_run(out, "demo", {"a": 1}, {"table": "x,y\n1,2\n"})
    assert sorted(os.path.basename(p) for p in paths) == ["demo.json", "demo_table.csv"]
    with open(os.path.join(out, "demo.json")) as fh:
        assert json.load(fh) == {"a": 1}
    # idempotent rerun replaces content atomically
    write_run(out, "demo", {"a": 2})
    with open(os.path.join(out, "demo.json")) as fh:
        assert json.load(fh) == {"a": 2}
