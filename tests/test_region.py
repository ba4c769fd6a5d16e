"""Study-region model: file loading, distances, candidate window enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrscan import (
    CandidateCluster,
    StudyRegion,
    WindowSet,
    distance_matrix,
    enumerate_windows,
    load_study_region,
)
from corrscan.region import InputError

from conftest import brute_force_distance, brute_force_window_sets, random_region


# ---------------------------------------------------------------- StudyRegion

def test_single_region_totals():
    sr = StudyRegion(ids=("A",), centroids=[[0.0, 0.0]], periods=("all",),
                     populations=[[100.0]], cases=[[3]])
    assert sr.m == 1
    assert sr.total_cases() == 3


def test_duplicate_ids_rejected():
    with pytest.raises(InputError, match="duplicate"):
        StudyRegion(ids=("A", "A"), centroids=[[0, 0], [1, 1]], periods=("all",),
                    populations=[[1.0, 1.0]], cases=[[0, 0]])


def test_nonpositive_population_rejected():
    with pytest.raises(InputError, match="population"):
        StudyRegion(ids=("A", "B"), centroids=[[0, 0], [1, 1]], periods=("all",),
                    populations=[[1.0, 0.0]], cases=[[0, 0]])


def test_negative_cases_rejected():
    with pytest.raises(InputError, match="negative"):
        StudyRegion(ids=("A",), centroids=[[0, 0]], periods=("all",),
                    populations=[[1.0]], cases=[[-1]])


def test_nonfinite_centroid_rejected():
    with pytest.raises(InputError, match="centroid"):
        StudyRegion(ids=("A",), centroids=[[np.nan, 0]], periods=("all",),
                    populations=[[1.0]], cases=[[0]])


def test_arrays_are_readonly(small_region):
    with pytest.raises(ValueError):
        small_region.populations[0, 0] = 5.0


def test_period_required_for_multiperiod():
    sr = StudyRegion(ids=("A",), centroids=[[0, 0]], periods=("t0", "t1"),
                     populations=[[1.0], [1.0]], cases=[[1], [2]])
    with pytest.raises(InputError, match="period"):
        sr.period_cases()
    assert sr.total_cases("t1") == 2
    with pytest.raises(InputError, match="unknown period"):
        sr.period_cases("t9")


# --------------------------------------------------------------- file loading

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_three_files(tmp_path):
    geo = _write(tmp_path, "geo.txt", "# comment\nB 1 0\nA 0 0\n")
    pop = _write(tmp_path, "pop.txt", "A 100\nB, 200\n")
    cas = _write(tmp_path, "cas.txt", "A 3\n")  # B omitted -> 0
    sr = load_study_region(geo, pop, cas)
    assert sr.ids == ("A", "B")  # sorted
    assert sr.periods == ("all",)
    assert sr.cases[0].tolist() == [3, 0]
    assert sr.total_cases() == 3
    assert sr.populations[0].tolist() == [100.0, 200.0]


def test_load_multi_period(tmp_path):
    geo = _write(tmp_path, "geo.txt", "A 0 0\nB 1 0\n")
    pop = _write(tmp_path, "pop.txt",
                 "A 1 100\nA 2 100\nB 1 200\nB 2 210\n")
    cas = _write(tmp_path, "cas.txt", "A 1 3\nB 2 5\n")
    sr = load_study_region(geo, pop, cas)
    assert sr.periods == ("1", "2")
    assert sr.total_cases("1") == 3
    assert sr.total_cases("2") == 5


def test_load_reports_file_and_line(tmp_path):
    geo = _write(tmp_path, "geo.txt", "A 0 0\nB 1 oops\n")
    pop = _write(tmp_path, "pop.txt", "A 100\n")
    cas = _write(tmp_path, "cas.txt", "")
    with pytest.raises(InputError, match=r"geo\.txt:2"):
        load_study_region(geo, pop, cas)


def test_load_unknown_region_id(tmp_path):
    geo = _write(tmp_path, "geo.txt", "A 0 0\n")
    pop = _write(tmp_path, "pop.txt", "Z 100\n")
    cas = _write(tmp_path, "cas.txt", "")
    with pytest.raises(InputError, match=r"pop\.txt:1.*'Z'"):
        load_study_region(geo, pop, cas)


def test_load_missing_population(tmp_path):
    geo = _write(tmp_path, "geo.txt", "A 0 0\nB 1 0\n")
    pop = _write(tmp_path, "pop.txt", "A 100\n")
    cas = _write(tmp_path, "cas.txt", "")
    with pytest.raises(InputError, match="missing population.*'B'"):
        load_study_region(geo, pop, cas)


def test_load_mixed_period_styles(tmp_path):
    geo = _write(tmp_path, "geo.txt", "A 0 0\n")
    pop = _write(tmp_path, "pop.txt", "A 100\nA 1 100\n")
    cas = _write(tmp_path, "cas.txt", "")
    with pytest.raises(InputError, match="mixed"):
        load_study_region(geo, pop, cas)


# ------------------------------------------------------------ distance matrix

def test_distance_single_region():
    sr = StudyRegion(ids=("A",), centroids=[[3.0, 4.0]], periods=("all",),
                     populations=[[1.0]], cases=[[0]])
    assert distance_matrix(sr).tolist() == [[0.0]]


def test_distance_345_triangle():
    sr = StudyRegion(ids=("A", "B"), centroids=[[0, 0], [3, 4]], periods=("all",),
                     populations=[[1.0, 1.0]], cases=[[0, 0]])
    dm = distance_matrix(sr)
    assert dm[0, 1] == pytest.approx(5.0, abs=0)
    assert dm[1, 0] == pytest.approx(5.0, abs=0)


def test_distance_matches_brute_force():
    rng = np.random.default_rng(11)
    sr = random_region(rng, 10)
    dm = distance_matrix(sr)
    ref = brute_force_distance(sr.centroids)
    assert np.max(np.abs(dm - ref)) < 1e-12
    assert np.array_equal(dm, dm.T)


# --------------------------------------------------------------- window enum

def test_windows_single_region():
    sr = StudyRegion(ids=("A",), centroids=[[0, 0]], periods=("all",),
                     populations=[[10.0]], cases=[[1]])
    ws = enumerate_windows(sr, distance_matrix(sr), max_fraction=1.0)
    assert len(ws) == 1
    assert ws[0].members == (0,)


def test_windows_collinear_equidistant():
    sr = StudyRegion(
        ids=("A", "B", "C"),
        centroids=[[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        periods=("all",),
        populations=[[10.0, 10.0, 10.0]],
        cases=[[0, 0, 0]],
    )
    ws = enumerate_windows(sr, distance_matrix(sr), max_fraction=1.0)
    got = {tuple(sorted(w.members)) for w in ws}
    assert got == brute_force_window_sets(sr, 1.0)
    assert len(got) == 6


def test_windows_population_cap_excludes_giant():
    # one region holds 60% of the total: no emitted window may contain it
    sr = StudyRegion(
        ids=("A", "B", "C"),
        centroids=[[0, 0], [1, 0], [2, 0]],
        periods=("all",),
        populations=[[60.0, 20.0, 20.0]],
        cases=[[0, 0, 0]],
    )
    ws = enumerate_windows(sr, distance_matrix(sr), max_fraction=0.5)
    for w in ws:
        assert 0 not in w.members
    assert len(ws) >= 2  # singletons B and C survive


def test_windows_invalid_fraction(small_region):
    with pytest.raises(ValueError):
        enumerate_windows(small_region, distance_matrix(small_region), 0.0)


def test_windows_match_brute_force_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sr = random_region(rng, int(rng.integers(2, 9)))
        frac = float(rng.uniform(0.3, 1.0))
        ws = enumerate_windows(sr, distance_matrix(sr), frac)
        got = {tuple(sorted(w.members)) for w in ws}
        assert got == brute_force_window_sets(sr, frac)


def test_windows_center_always_member():
    rng = np.random.default_rng(7)
    sr = random_region(rng, 12)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    for w in ws:
        assert w.center in w.members


def test_windows_coincident_centroids():
    # two regions share a centroid; the center must still lead its own window
    sr = StudyRegion(
        ids=("A", "B", "C"),
        centroids=[[0, 0], [0, 0], [3, 0]],
        periods=("all",),
        populations=[[10.0, 10.0, 10.0]],
        cases=[[0, 0, 0]],
    )
    ws = enumerate_windows(sr, distance_matrix(sr), 1.0)
    centers = {w.center for w in ws}
    assert {0, 1, 2} <= centers
    for w in ws:
        assert w.center in w.members


def test_candidate_cluster_center_invariant():
    with pytest.raises(ValueError, match="center"):
        CandidateCluster(center=3, members=(0, 1), radius=1.0)


def test_windowset_aggregate_matches_loop(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    agg = ws.aggregate(vals)
    for i, w in enumerate(ws):
        assert agg[i] == pytest.approx(sum(vals[j] for j in w.members))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_windows_dedupe_and_membership_property(m, seed):
    rng = np.random.default_rng(seed)
    sr = random_region(rng, m)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.7)
    seen = set()
    pop = sr.populations.sum(axis=0)
    cap = 0.7 * pop.sum()
    for w in ws:
        key = tuple(sorted(w.members))
        assert key not in seen  # no duplicate member sets
        seen.add(key)
        assert w.center in w.members
        assert sum(pop[j] for j in w.members) <= cap + 1e-9
    assert isinstance(ws, WindowSet)


def test_period_index_position_bounds():
    sr = StudyRegion(ids=("A",), centroids=[[0, 0]], periods=("all",),
                     populations=[[1.0]], cases=[[2]])
    assert sr.period_index(0) == 0
    for bad in (7, 1, -1):
        with pytest.raises(InputError, match="out of range"):
            sr.period_index(bad)
    labelled = StudyRegion(ids=("A",), centroids=[[0, 0]], periods=(2019, 2020),
                           populations=[[1.0], [1.0]], cases=[[1], [3]])
    assert labelled.period_index(2020) == 1  # a label wins over a position
    assert labelled.period_index(1) == 1
