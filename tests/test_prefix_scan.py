"""Prefix-sum scan path against the dense membership-matrix oracle, plus
invariances of the maximum statistic that no unit test pins down."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrscan import StudyRegion, distance_matrix, enumerate_windows, scan
from corrscan.region import InputError
from corrscan.scan import llr_star_batch, rank_pvalue

from conftest import (
    dense_scan,
    dense_window_llr,
    loop_enumerate_windows,
    random_region,
)


def _null_batch(rng, sr, size):
    n = sr.populations[0]
    return rng.multinomial(int(sr.cases[0].sum()), n / n.sum(), size=size)


def _assert_scan_matches_dense(sr, ws, counts):
    members = [w.members for w in ws]
    res = scan(sr, ws, period=sr.periods[0], counts=counts)
    star, primary, secondaries = dense_scan(counts, sr.populations[0], members)
    assert res.llr_star == pytest.approx(star, abs=1e-10)
    assert res.primary.members == primary
    assert [(c.members, y) for c, _, y, _ in res.secondaries] == [
        (mem, y) for mem, _, y in secondaries]
    for (_, llr, _, _), (_, ref, _) in zip(res.secondaries, secondaries):
        assert llr == pytest.approx(ref, abs=1e-10)


# ------------------------------------------------- equivalence with dense path

def test_prefix_path_matches_dense_at_m128():
    rng = np.random.default_rng(128)
    sr = random_region(rng, 128)
    dm = distance_matrix(sr)
    ws = enumerate_windows(sr, dm, 0.5)
    ref = loop_enumerate_windows(sr, dm, 0.5)
    assert [(w.center, w.members, w.radius) for w in ws] == ref

    n = sr.populations[0]
    counts = np.vstack([sr.cases[0], _null_batch(rng, sr, 99)])
    dense = dense_window_llr(counts, n, [mem for _, mem, _ in ref])[0].max(axis=1)
    assert np.max(np.abs(llr_star_batch(counts, n, ws) - dense)) < 1e-10
    for row in counts[:4]:
        _assert_scan_matches_dense(sr, ws, row)


def test_prefix_path_ties_match_dense():
    # equal populations on a lattice: many windows tie exactly on (llr, size),
    # so primary and secondaries depend on the member-list tie rule
    grid = np.array([(i, j) for i in range(7) for j in range(7)], dtype=float)
    m = len(grid)
    rng = np.random.default_rng(3)
    for frac in (0.5, 1.0):
        cases = rng.integers(0, 3, m)
        sr = StudyRegion(ids=tuple(f"g{i:02d}" for i in reversed(range(m))),
                         centroids=grid, periods=("all",),
                         populations=np.full((1, m), 100.0), cases=cases[None])
        dm = distance_matrix(sr)
        ws = enumerate_windows(sr, dm, frac)
        assert [(w.center, w.members, w.radius) for w in ws] == \
            loop_enumerate_windows(sr, dm, frac)
        for row in (cases, np.ones(m, dtype=int), *_null_batch(rng, sr, 5)):
            _assert_scan_matches_dense(sr, ws, row)


def test_tie_goes_to_smaller_sorted_member_list():
    # {1, 2} is emitted before {3, 0} (center 1 precedes center 3), but the two
    # tie on statistic and size, and (0, 3) < (1, 2) makes {3, 0} the primary
    sr = StudyRegion(ids=("A", "B", "C", "D", "E"),
                     centroids=[[0, 0], [10, 0], [11, 0], [2.5, 0], [-1, 0]],
                     periods=("all",), populations=[[100.0] * 5], cases=[[5, 5, 5, 5, 0]])
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    order = [tuple(sorted(w.members)) for w in ws]
    assert order.index((1, 2)) < order.index((0, 3))
    res = scan(sr, ws)
    assert sorted(res.primary.members) == [0, 3]
    assert [sorted(c.members) for c, *_ in res.secondaries] == [[1, 2]]
    assert res.secondaries[0][1] == res.llr_star
    _assert_scan_matches_dense(sr, ws, sr.cases[0])


def test_whole_region_window_scores_zero():
    # max_fraction = 1 admits the window of every region, whose statistic is 0
    # even when its summed population rounds below the study total: in the
    # second case the window sums 1 + 1e16 + 1 = 1e16 while the total is 1e16 + 2
    for x, pops, counts in (([0, 1], [10.0, 30.0], [[4, 0], [1, 3], [0, 0]]),
                            ([0, 2, 1], [1.0, 1.0, 1e16], [[0, 0, 5], [0, 0, 1]])):
        m = len(pops)
        sr = StudyRegion(ids=tuple("ABC"[:m]), centroids=[[xi, 0] for xi in x],
                         periods=("all",), populations=[pops], cases=[counts[0]])
        ws = enumerate_windows(sr, distance_matrix(sr), 1.0)
        assert any(len(w.members) == m for w in ws)
        dense = dense_window_llr(counts, pops, [w.members for w in ws])[0]
        assert np.allclose(llr_star_batch(counts, pops, ws), dense.max(axis=1), atol=1e-12)


def test_observed_ties_its_own_simulation_exactly():
    rng = np.random.default_rng(8)
    sr = random_region(rng, 40)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    obs = scan(sr, ws, period="t0").llr_star
    sims = np.vstack([_null_batch(rng, sr, 30), sr.cases[0]])
    assert llr_star_batch(sims, sr.populations[0], ws)[-1] == obs


@pytest.mark.parametrize("scale", [1, 1000])
def test_large_totals_match_dense_within_claimed_bound(scale):
    # the integer form subtracts terms of size Y log Y, so its rounding error
    # grows with the total Y: the claimed bound is 4 eps Y log Y per window
    rng = np.random.default_rng(scale)
    sr = random_region(rng, 40)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    n = sr.populations[0]
    total = int(sr.cases[0].sum()) * scale
    counts = np.vstack([sr.cases[0] * scale, rng.multinomial(total, n / n.sum(), size=20)])
    dense = dense_window_llr(counts, n, [w.members for w in ws])[0]
    bound = 4 * np.finfo(float).eps * total * np.log(total)
    assert np.max(np.abs(llr_star_batch(counts, n, ws) - dense.max(axis=1))) <= bound
    res = scan(sr, ws, period="t0", counts=counts[0])
    by_window = {tuple(w.members): i for i, w in enumerate(ws)}
    for c, llr, _, _ in ((res.primary, res.llr_star, 0, 0), *res.secondaries):
        assert abs(llr - dense[0, by_window[c.members]]) <= bound


def test_counts_must_be_whole_and_nonnegative(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    n = small_region.populations[0]
    with pytest.raises(InputError):
        llr_star_batch([[1, 2, 3, 4, 5, -1]], n, ws)
    with pytest.raises(InputError):
        llr_star_batch([[1, 2, 3, 4, 5, 0.5]], n, ws)
    with pytest.raises(InputError):
        llr_star_batch([[1, 2, 3]], n, ws)


# ------------------------------------------------------------- rank p-value

def test_rank_pvalue_counts_ties_as_exceeding():
    ref = np.array([0.5, 1.0, 1.0, 2.0])
    assert rank_pvalue(1.0, ref) == 4 / 5
    assert rank_pvalue(3.0, ref) == 1 / 5
    assert rank_pvalue(0.0, ref) == 1.0


# -------------------------------------------------------------- invariances

def _region_and_counts(seed, m):
    rng = np.random.default_rng(seed)
    sr = random_region(rng, m)
    return sr, np.vstack([sr.cases[0], _null_batch(rng, sr, 8)])


def _star(sr, counts, frac=0.5):
    ws = enumerate_windows(sr, distance_matrix(sr), frac)
    return ws, llr_star_batch(counts, sr.populations[0], ws)


def _member_ids(sr, ws):
    return {frozenset(sr.ids[i] for i in w.members) for w in ws}


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10_000))
def test_invariant_under_region_permutation(m, seed):
    sr, counts = _region_and_counts(seed, m)
    perm = np.random.default_rng(seed + 1).permutation(m)
    moved = StudyRegion(ids=tuple(sr.ids[i] for i in perm), centroids=sr.centroids[perm],
                        periods=sr.periods, populations=sr.populations[:, perm],
                        cases=sr.cases[:, perm])
    ws, star = _star(sr, counts)
    ws_p, star_p = _star(moved, counts[:, perm])
    assert _member_ids(sr, ws) == _member_ids(moved, ws_p)
    assert np.allclose(star, star_p, rtol=0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10_000),
       st.floats(0, 2 * np.pi), st.floats(-100, 100), st.floats(-100, 100))
def test_invariant_under_rigid_motion(m, seed, angle, dx, dy):
    sr, counts = _region_and_counts(seed, m)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = StudyRegion(ids=sr.ids, centroids=sr.centroids @ rot.T + [dx, dy],
                        periods=sr.periods, populations=sr.populations, cases=sr.cases)
    ws, star = _star(sr, counts)
    ws_m, star_m = _star(moved, counts)
    assert _member_ids(sr, ws) == _member_ids(moved, ws_m)
    assert np.allclose(star, star_m, rtol=0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 24), st.integers(0, 10_000), st.integers(-20, 20))
def test_invariant_under_population_scaling(m, seed, power):
    # a power of two scales every population sum exactly, so the cap test and
    # every population share are unchanged bit for bit
    sr, counts = _region_and_counts(seed, m)
    scaled = StudyRegion(ids=sr.ids, centroids=sr.centroids, periods=sr.periods,
                         populations=sr.populations * 2.0**power, cases=sr.cases)
    ws, star = _star(sr, counts)
    ws_s, star_s = _star(scaled, counts)
    assert _member_ids(sr, ws) == _member_ids(scaled, ws_s)
    assert np.array_equal(star, star_s)
