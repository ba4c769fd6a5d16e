"""Scan statistic: likelihood ratio, maximization, null simulation, p-values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from corrscan import CovFactor, distance_matrix, enumerate_windows, scan
from corrscan.scan import llr_star_batch, mc_pvalue, null_counts

from conftest import brute_force_llr, brute_force_scan, log_lr, log_lr_vector, random_region


# ------------------------------------------------------------------- log_lr

def test_proportional_counts_zero():
    # inside rate equals overall rate: statistic is exactly zero
    assert log_lr(2, 20, 10, 100) == 0.0


def test_reference_value():
    # direct high-precision evaluation of the normalized expression
    assert log_lr(5, 20, 10, 100) == pytest.approx(2.2314355131420976, abs=1e-12)


def test_all_cases_inside_half_population():
    # closed form: Y_G * ln 2 when every case sits in half the population
    assert log_lr(10, 50, 10, 100) == pytest.approx(10 * math.log(2), abs=1e-12)


def test_low_rate_window_gated_to_zero():
    assert log_lr(1, 50, 10, 100) == 0.0


def test_zero_cases_everywhere():
    assert log_lr(0, 50, 0, 100) == 0.0


def test_contract_violations():
    with pytest.raises(ValueError):
        log_lr(11, 50, 10, 100)  # Y_C > Y_G
    with pytest.raises(ValueError):
        log_lr(5, 100, 10, 100)  # window is the whole region
    with pytest.raises(ValueError):
        log_lr(5, 0, 10, 100)  # empty window
    with pytest.raises(ValueError):
        log_lr(-1, 50, 10, 100)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=1.0, max_value=1e4),
)
def test_log_lr_matches_naive_and_nonnegative(y_c, y_extra, n_c, n_extra):
    y_g = y_c + y_extra
    n_g = n_c + n_extra
    val = float(log_lr_vector(y_c, n_c, y_g, n_g))
    assert val >= 0.0
    assert val == pytest.approx(brute_force_llr(y_c, n_c, y_g, n_g), abs=1e-10)


def test_log_lr_vector_broadcasts():
    y_c = np.array([0, 5, 10])
    n_c = np.array([10.0, 20.0, 50.0])
    out = log_lr_vector(y_c, n_c, 10, 100)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(2.2314355131420976, abs=1e-12)


# --------------------------------------------------------------------- scan

def test_scan_proportional_counts(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    counts = np.round(small_region.populations[0] / 10).astype(int)
    # counts exactly proportional to population -> all rates equal
    res = scan(small_region, ws, counts=counts)
    assert res.llr_star == 0.0
    assert res.secondaries == ()


def test_scan_dominant_cell(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    counts = np.array([0, 0, 0, 0, 12, 0])
    res = scan(small_region, ws, counts=counts)
    assert res.primary.members == (4,)
    assert res.primary_y == 12


def test_scan_zero_total(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    res = scan(small_region, ws, counts=np.zeros(6, dtype=int))
    assert res.llr_star == 0.0
    assert res.primary is None


def test_scan_matches_brute_force_random():
    rng = np.random.default_rng(123)
    for _ in range(25):
        sr = random_region(rng, int(rng.integers(2, 9)))
        ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
        if len(ws) == 0 or sr.total_cases("t0") == 0:
            continue
        res = scan(sr, ws, period="t0")
        ref_llr, ref_members = brute_force_scan(sr)
        assert res.llr_star == pytest.approx(ref_llr, abs=1e-10)
        if ref_llr > 0:
            assert tuple(sorted(res.primary.members)) == ref_members


def test_scan_secondaries_disjoint(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    counts = np.array([9, 0, 0, 0, 11, 0])
    res = scan(small_region, ws, counts=counts)
    taken = set(res.primary.members)
    for c, llr, _, _ in res.secondaries:
        assert llr > 0
        assert not (set(c.members) & taken)
        taken |= set(c.members)


def test_scan_result_roundtrip(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    res = scan(small_region, ws, counts=np.array([0, 0, 0, 0, 12, 0]))
    d = res.with_pvalue(0.04, 199).to_dict(small_region)
    assert d["p_value"] == 0.04
    assert d["primary"]["member_ids"] == ["E"]


# ---------------------------------------------------------- null simulation

def test_model1_single_region():
    from corrscan import StudyRegion
    sr = StudyRegion(ids=("A",), centroids=[[0, 0]], periods=("all",),
                     populations=[[5.0]], cases=[[7]])
    draw = null_counts(np.random.default_rng(0), sr.total_cases(), sr.populations[0], 1)
    assert draw.tolist() == [[7]]


def test_model1_binomial_concentration():
    from corrscan import StudyRegion
    sr = StudyRegion(ids=("A", "B"), centroids=[[0, 0], [1, 0]], periods=("all",),
                     populations=[[50.0, 50.0]], cases=[[500_000, 500_000]])
    draw = null_counts(np.random.default_rng(42), sr.total_cases(), sr.populations[0], 1)[0]
    n = 1_000_000
    sd = math.sqrt(n * 0.25)
    assert abs(draw[0] - n / 2) < 5 * sd


def test_model1_multinomial_moments(small_region):
    n = small_region.populations[0]
    y_g = small_region.total_cases()
    sims = null_counts(np.random.default_rng(3), y_g, n, 100_000)
    expect = y_g * n / n.sum()
    # per-cell SE of the mean over 1e5 draws
    var = y_g * (n / n.sum()) * (1 - n / n.sum())
    se = np.sqrt(var / 100_000)
    assert np.all(np.abs(sims.mean(axis=0) - expect) < 4 * se)


def test_model1_conditions_on_total(small_region):
    sims = null_counts(np.random.default_rng(9), small_region.total_cases(),
                       small_region.populations[0], 1000)
    assert np.all(sims.sum(axis=1) == small_region.total_cases())


def test_null_counts_without_factor_is_the_multinomial(small_region):
    n = small_region.populations[0]
    y_g = small_region.total_cases()
    want = np.random.default_rng(12).multinomial(y_g, n / n.sum(), 40)
    assert np.array_equal(null_counts(np.random.default_rng(12), y_g, n, 40), want)


def test_null_counts_constant_field_keeps_the_classical_null(small_region):
    # a field equal in every region shifts every logit alike: the shares stay
    # n / N however large sigma is
    n = small_region.populations[0]
    y_g = small_region.total_cases()
    m, rows = len(n), 20_000
    L = np.zeros((m, m))
    L[:, 0] = 50.0
    sims = null_counts(np.random.default_rng(13), y_g, n, rows, CovFactor(L=L, jitter=0.0))
    p = n / n.sum()
    mean, var = y_g * p, y_g * p * (1 - p)
    assert np.all(sims.sum(axis=1) == y_g)
    assert np.all(np.abs(sims.mean(axis=0) - mean) < 4 * np.sqrt(var / rows))
    dev2 = (sims - sims.mean(axis=0)) ** 2
    assert np.all(np.abs(sims.var(axis=0) - var) < 4 * dev2.std(axis=0) / np.sqrt(rows))


# ------------------------------------------------------------ llr_star_batch

def test_llr_star_batch_matches_scan(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    sims = null_counts(np.random.default_rng(1), small_region.total_cases(),
                       small_region.populations[0], 50)
    batch = llr_star_batch(sims, small_region.populations[0], ws)
    for row, val in zip(sims, batch):
        assert scan(small_region, ws, counts=row).llr_star == pytest.approx(val, abs=1e-10)


# ---------------------------------------------------------------- mc_pvalue

def test_pvalue_observed_zero_is_one(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    assert mc_pvalue(0.0, small_region, ws, M=99, seed=0) == 1.0


def test_pvalue_bounds_and_determinism(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    p1 = mc_pvalue(1.3, small_region, ws, M=99, seed=5)
    p2 = mc_pvalue(1.3, small_region, ws, M=99, seed=5)
    assert p1 == p2
    assert 1 / 100 <= p1 <= 1.0


def test_pvalue_rank_uniformity(small_region):
    # observed statistic drawn from the same null -> p uniform on the MC grid.
    # needs a large case total: at small totals the discrete statistic ties
    # with its simulations and the >= convention skews p upward by design
    from corrscan import StudyRegion
    sr = StudyRegion(ids=small_region.ids, centroids=small_region.centroids,
                     periods=small_region.periods,
                     populations=small_region.populations,
                     cases=small_region.cases * 400)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    n = sr.populations[0]
    M = 99
    rng = np.random.default_rng(2024)
    pvals = []
    for _ in range(2000):
        obs = llr_star_batch(null_counts(rng, sr.total_cases(), n, 1), n, ws)[0]
        pvals.append(mc_pvalue(obs, sr, ws, M=M, seed=rng))
    # chi-square over 10 equal bins of the discrete uniform {1..100}/100
    counts, _ = np.histogram(pvals, bins=np.linspace(0, 1, 11))
    stat, p = chisquare(counts)
    assert p > 0.01


def test_pvalue_invalid_m(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    with pytest.raises(ValueError):
        mc_pvalue(1.0, small_region, ws, M=0)
