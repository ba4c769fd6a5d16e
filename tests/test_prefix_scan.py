"""Prefix-sum scan path against the dense membership-matrix oracle, plus
invariances of the maximum statistic that no unit test pins down."""

import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from corrscan import (MaternParams, StudyRegion, cholesky, distance_matrix, enumerate_windows,
                      matern_cov, scan)
from corrscan.region import InputError
from corrscan.scan import llr_star_batch, null_counts, rank_pvalue, reference_pvalue

from conftest import (
    brute_force_scan,
    dense_scan,
    dense_window_llr,
    loop_enumerate_windows,
    random_region,
)

scan_module = importlib.import_module("corrscan.scan")


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10_000), st.sampled_from([0.2, 0.5, 1.0]),
       st.integers(0, 12), st.sampled_from([1, 40, 1 << 16]))
@example(m=2, seed=0, frac=1.0, coincident=1, block=1)
@example(m=12, seed=5, frac=0.5, coincident=6, block=40)
def test_streamed_maximum_matches_dense_and_scan(m, seed, frac, coincident, block):
    # coincident centroids give duplicate member sets (dropped by the
    # enumeration), max_fraction = 1 admits the window of every region, and
    # the rows hold an all-zero row and unequal totals.  ``block`` shrinks the
    # stream's blocks so that both one-position bands and row chunks run.  The
    # same constant bounds the k log k table, so at ``block`` 1 every block
    # with a case, and at 40 most blocks, run the kernel's log path instead.
    rng = np.random.default_rng(seed)
    centroids = rng.uniform(0, 10, (m, 2))
    centroids[rng.integers(0, m, min(coincident, m))] = centroids[0]
    sr = StudyRegion(ids=tuple(f"r{i}" for i in range(m)), centroids=centroids,
                     periods=("all",), populations=rng.uniform(10, 500, (1, m)),
                     cases=rng.integers(0, 30, (1, m)))
    ws = enumerate_windows(sr, distance_matrix(sr), frac)
    assume(len(ws))
    n = sr.populations[0]
    counts = np.vstack([sr.cases[0], np.zeros(m, dtype=int), rng.integers(0, 40, (6, m)),
                        _null_batch(rng, sr, 3)])
    with mock.patch.object(scan_module, "_STREAM_ELEMENTS", block):
        star = llr_star_batch(counts, n, ws)
    dense = dense_window_llr(counts, n, [w.members for w in ws])[0].max(axis=1)
    assert np.max(np.abs(star - np.maximum(dense, 0.0))) < 1e-10
    assert star[1] == 0.0
    for row, value in zip(counts, star):
        assert value == scan(sr, ws, counts=row).llr_star


def _kernel(counts, populations, ws):
    """The kernel on every window of ``ws`` for a (k, m) block, one row total
    at a time as llr_star_batch calls it, as (windows, k)."""
    y_c = scan_module._window_sums(counts, ws)
    totals = counts.sum(axis=1)
    out = np.empty_like(y_c)
    for total in np.unique(totals):
        out[:, totals == total] = _kernel_at(y_c[:, totals == total], float(total),
                                             populations, ws)
    return out


def _kernel_at(y_c, total, populations, ws):
    """The kernel at (windows x k) window counts ``y_c`` of rows that share ``total``."""
    _, n_g, terms = scan_module._population_terms(populations, ws)
    return scan_module._llr_kernel(y_c, total, n_g, terms, scan_module._xlogx_table(total),
                                   *scan_module._scratch(y_c.shape))


@pytest.mark.parametrize("kind", ["one total", "unequal totals", "all-zero row"])
def test_table_and_log_paths_are_bit_equal(kind):
    # T(y) + T(Y-y) comes from a k log k table unless the largest total
    # reaches _STREAM_ELEMENTS; lowering that bound sends the same block
    # through the logs, which must give the same bits
    rng = np.random.default_rng(14)
    sr = random_region(rng, 40)
    ws = enumerate_windows(sr, distance_matrix(sr), 1.0)
    n = sr.populations[0]
    if kind == "one total":
        counts = _null_batch(rng, sr, 30)
    else:
        counts = rng.integers(0, 40, (30, sr.m))
    if kind == "all-zero row":
        counts[3] = 0
    assert scan_module._xlogx_table(counts.sum(axis=1).max()) is not None
    table = _kernel(counts, n, ws)
    batch = llr_star_batch(counts, n, ws)
    with mock.patch.object(scan_module, "_STREAM_ELEMENTS", 0):
        assert scan_module._xlogx_table(counts.sum(axis=1).min()) is None
        logs = _kernel(counts, n, ws)
        assert np.array_equal(llr_star_batch(counts, n, ws), batch)
    assert np.array_equal(table, logs)
    assert not np.signbit(table).any() and not np.signbit(batch).any()
    assert np.array_equal(batch, table.max(axis=0))
    dense = dense_window_llr(counts, n, [w.members for w in ws])[0]
    assert np.max(np.abs(table - dense.T)) < 1e-10
    if kind == "all-zero row":
        assert not table[:, 3].any()


def test_total_at_the_table_bound_takes_the_log_path():
    # the one production input that reaches the log path: a row whose total
    # is at least _STREAM_ELEMENTS.  It goes through the logs both alone in
    # scan and in a batch with small rows, which keep their table-path bits
    rng = np.random.default_rng(65536)
    sr = random_region(rng, 12)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    n = sr.populations[0]
    total = scan_module._STREAM_ELEMENTS
    p = n * np.r_[np.full(3, 1.5), np.ones(sr.m - 3)]  # a raised rate in regions 0-2
    big = rng.multinomial(total, p / p.sum())
    assert scan_module._xlogx_table(total) is None
    assert scan_module._xlogx_table(total - 1) is not None
    small = _null_batch(rng, sr, 5)
    star = llr_star_batch(np.vstack([big, small]), n, ws)
    res = scan(sr, ws, counts=big)
    assert star[0] == res.llr_star > 0
    assert np.array_equal(star[1:], llr_star_batch(small, n, ws))
    oracle, members = brute_force_scan(sr, big)
    assert res.llr_star == pytest.approx(oracle, abs=4 * np.finfo(float).eps * total * np.log(total))
    assert tuple(sorted(res.primary.members)) == members
    assert not np.signbit(star).any() and not np.signbit(res.llr_star)


def test_unequal_totals_with_a_block_of_one_row():
    # rows of unequal totals on the k log k table, grouped by total and
    # streamed in blocks of 10 rows at m = 4: each row still takes T(Y - y)
    # from its own total
    rng = np.random.default_rng(11)
    sr = random_region(rng, 4)
    ws = enumerate_windows(sr, distance_matrix(sr), 1.0)
    n = sr.populations[0]
    counts = rng.integers(0, 10, (11, sr.m))
    assert len(set(counts.sum(axis=1))) > 1 and counts.sum(axis=1).max() < 40
    assert ws.by_length[1][0] == 4  # four centres: 40 // 4 rows per block
    with mock.patch.object(scan_module, "_STREAM_ELEMENTS", 40):
        assert scan_module._xlogx_table(counts.sum(axis=1).max()) is not None
        star = llr_star_batch(counts, n, ws)
    assert np.array_equal(star, [scan(sr, ws, counts=row).llr_star for row in counts])
    dense = dense_window_llr(counts, n, [w.members for w in ws])[0].max(axis=1)
    assert np.max(np.abs(star - np.maximum(dense, 0.0))) < 1e-10


def test_share_that_underflows_scores_zero_not_nan():
    # populations 1e-20 against a total of 2e305 give a share that rounds to
    # 0, whose logit is -inf: a window without cases there scores 0, as in
    # the brute-force oracle, and the maximum stays finite
    sr = StudyRegion(ids=("A", "B", "C", "D"), centroids=[[0, 0], [1, 0], [5, 0], [6, 0]],
                     periods=("all",), populations=[[1e-20, 1e-20, 1e305, 1e305]],
                     cases=[[0, 0, 3, 4]])
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        star = llr_star_batch([[0, 0, 3, 4], [0, 0, 0, 0]], sr.populations[0], ws)
        res = scan(sr, ws)
    assert star[0] == res.llr_star == pytest.approx(brute_force_scan(sr)[0], abs=1e-12)
    assert star[1] == 0.0


def test_share_that_underflows_keeps_the_score_of_its_cases_finite():
    # one case in a window whose share 1e-20 / 2e305 underflows to 0: the log
    # share is taken as log n_c - log N, so both entry points give the
    # brute-force oracle's finite value instead of +inf
    sr = StudyRegion(ids=("A", "B", "C", "D"), centroids=[[0, 0], [1, 0], [5, 0], [6, 0]],
                     periods=("all",), populations=[[1e-20, 1e-20, 1e305, 1e305]],
                     cases=[[1, 0, 3, 4]])
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    star = llr_star_batch([[1, 0, 3, 4]], sr.populations[0], ws)
    res = scan(sr, ws)
    want, members = brute_force_scan(sr)
    assert np.isfinite(star[0]) and want == pytest.approx(746.02, abs=0.01)
    assert star[0] == res.llr_star == pytest.approx(want, rel=1e-14)
    assert res.primary.members == members


# the geometry of the two share-underflow tests above: 1e-20 / 2e305 rounds to 0
UNDERFLOW = dict(ids=("A", "B", "C", "D"), centroids=[[0, 0], [1, 0], [5, 0], [6, 0]],
                 periods=("all",), populations=[[1e-20, 1e-20, 1e305, 1e305]])


@pytest.mark.parametrize("geometry, totals", [
    ("random", (7, 331, 4099)),
    ("random", (1 << 16, 100_003)),
    ("underflow", (1, 8, 500)),
    # N near the float maximum: the gate products y N and Y n_c stay finite
    # because N and n_c enter the gate scaled to N in [1/2, 1)
    ("underflow", (1 << 16,)),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_never_falls_as_the_window_count_rises(geometry, totals):
    # reference_pvalue is exact only if, for one row total Y, every window's
    # statistic is nondecreasing over y = 0 .. Y.  Totals below
    # _STREAM_ELEMENTS take the k log k table and the others the logs; the
    # window of every region (max_fraction 1) is gated to 0
    rng = np.random.default_rng(totals[0])
    if geometry == "random":
        sr = random_region(rng, 40 if totals[0] < scan_module._STREAM_ELEMENTS else 8)
    else:
        sr = StudyRegion(**UNDERFLOW, cases=[[1, 0, 3, 4]])
    ws = enumerate_windows(sr, distance_matrix(sr), 1.0)
    n = sr.populations[0]
    for total in totals:
        y_g = float(total)
        assert (scan_module._xlogx_table(y_g) is None) == (total >= scan_module._STREAM_ELEMENTS)
        f = np.hstack([_kernel_at(np.tile(np.arange(lo, min(lo + 4096, total + 1.0)),
                                          (len(ws), 1)), y_g, n, ws)
                       for lo in range(0, total + 1, 4096)])
        assert np.isfinite(f).all() and f[:, -1].max() > 0
        assert (np.diff(f, axis=1) >= 0).all(), total


@pytest.mark.parametrize("mode", ["multinomial", "field"])
@pytest.mark.parametrize("block", [1 << 16, 40, 1])
@pytest.mark.parametrize("scale", [1, 2000])
def test_reference_pvalue_equals_the_rank_of_the_maxima(mode, block, scale):
    # the critical-count p-value against rank_pvalue over llr_star_batch, for
    # both null_counts draws: at every row's own maximum (exact ties), at 0,
    # above every row, and at the brute-force scan of two observed rows.
    # ``block`` shrinks the stream so that row chunks, one-position bands and
    # (at 1, or at the larger total) the kernel's log path all run
    rng = np.random.default_rng(scale + block)
    sr = random_region(rng, 24)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    n = sr.populations[0]
    total = int(sr.cases[0].sum()) * scale
    factor = None if mode == "multinomial" else cholesky(
        matern_cov(distance_matrix(sr), MaternParams(sigma=0.8, rho=3.0)))
    ref = null_counts(rng, total, n, 45, factor)
    observed = [brute_force_scan(sr, row)[0] for row in (sr.cases[0], ref[0] + sr.cases[0])]
    with mock.patch.object(scan_module, "_STREAM_ELEMENTS", block):
        star = llr_star_batch(ref, n, ws)
        assert len(set(star.tolist())) > 10
        for s in (*star, 0.0, star.max() * (1 + 1e-12), *observed):
            assert reference_pvalue(s, ref, n, ws) == rank_pvalue(s, star), s
    assert reference_pvalue(0.0, ref, n, ws) == 1.0
    assert reference_pvalue(star.max() + 1, ref, n, ws) == 1 / 46


def test_reference_pvalue_on_a_share_that_underflows():
    sr = StudyRegion(**UNDERFLOW, cases=[[1, 0, 3, 4]])
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    n = sr.populations[0]
    ref = np.array([[1, 0, 3, 4], [0, 0, 3, 5], [0, 1, 4, 3], [2, 0, 3, 3]])
    star = llr_star_batch(ref, n, ws)
    for s in (*star, 1.0, 746.0, 747.0):
        assert reference_pvalue(s, ref, n, ws) == rank_pvalue(s, star)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gate_products_do_not_overflow_near_the_float_maximum():
    # y N and Y n_c overflow to inf at N = 2e305 and Y = 3100 unscaled, and
    # inf > inf would gate the raised windows to 0; every entry point gives
    # the brute-force oracle's value instead
    sr = StudyRegion(**UNDERFLOW, cases=[[0, 0, 3000, 100]])
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    n = sr.populations[0]
    want, members = brute_force_scan(sr)
    assert want == pytest.approx(1706.99, abs=0.01)
    res = scan(sr, ws)
    star = llr_star_batch(sr.cases, n, ws)
    assert star[0] == res.llr_star == pytest.approx(want, rel=1e-12)
    assert res.primary.members == members
    # one reference row, the observed one: (1 + 1) / 2 at or below it, 1 / 2 above
    assert reference_pvalue(want * (1 - 1e-9), sr.cases, n, ws) == 1.0
    assert reference_pvalue(want * (1 + 1e-9), sr.cases, n, ws) == 1 / 2


def test_kernel_always_gets_one_scalar_total(small_region):
    # one kernel form: every caller passes one case total, mixed-total
    # batches included (they are grouped by total)
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    n = small_region.populations[0]
    kernel, totals = scan_module._llr_kernel, []

    def guarded(y_c, total, *args):
        assert np.ndim(total) == 0
        totals.append(total)
        return kernel(y_c, total, *args)

    with mock.patch.object(scan_module, "_llr_kernel", guarded):
        obs = scan(small_region, ws).llr_star
        reference_pvalue(obs, null_counts(np.random.default_rng(1), small_region.total_cases(),
                                          n, 19), n, ws)
        reference_pvalue(obs, np.tile(small_region.cases[0], (5, 1)), n, ws)
        llr_star_batch([[1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 1], [6, 5, 4, 3, 2, 1]], n, ws)
    assert {1.0, 21.0} <= set(totals)


def test_reference_pvalue_needs_one_total(small_region):
    ws = enumerate_windows(small_region, distance_matrix(small_region), 0.5)
    n = small_region.populations[0]
    with pytest.raises(ValueError, match="one case total"):
        reference_pvalue(1.0, [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7]], n, ws)
    assert reference_pvalue(1.0, np.zeros((0, 6), dtype=int), n, ws) == 1.0
    assert reference_pvalue(1.0, np.zeros((9, 6), dtype=int), n, ws) == 1 / 10


def test_stream_memory_stays_far_below_windows_by_rows():
    # the stream holds O(m x rows) values, far less than one (windows x rows)
    # float array, which alone would exceed 5 MiB here
    rng = np.random.default_rng(128)
    sr = random_region(rng, 128)
    ws = enumerate_windows(sr, distance_matrix(sr), 0.5)
    counts = _null_batch(rng, sr, 99)
    tracemalloc.start()
    try:
        llr_star_batch(counts, sr.populations[0], ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ws) * len(counts) * 8 > 5 * 2**20
    assert peak < 4 * 2**20


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
