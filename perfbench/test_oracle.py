"""The benchmark's scan oracle against the brute-force scan in tests/conftest.py.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "tests")]

from conftest import brute_force_scan, brute_force_window_sets, random_region  # noqa: E402
from oracle import PrefixOracle, on_grid  # noqa: E402


@pytest.mark.parametrize("seed", range(40))
def test_llr_star_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    sr = random_region(rng, int(rng.integers(2, 14)), n_periods=int(rng.integers(1, 3)))
    oracle = PrefixOracle(sr.ids, sr.centroids, sr.populations)
    want, best = brute_force_scan(sr)
    assert oracle.llr_star(sr.cases[0]) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert oracle.check_scan(sr.cases[0], want, best) == []
    batch = rng.integers(0, 30, (4, sr.m))
    got = oracle.llr_star(batch)
    for row, value in zip(batch, got):
        assert value == pytest.approx(brute_force_scan(sr, counts=row)[0], rel=1e-12, abs=1e-12)


def test_check_scan_rejects_a_wrong_maximum_and_a_non_window():
    rng = np.random.default_rng(7)
    sr = random_region(rng, 10)
    oracle = PrefixOracle(sr.ids, sr.centroids, sr.populations)
    want, best = brute_force_scan(sr)
    assert want > 0 and oracle.check_scan(sr.cases[0], want, best) == []
    assert oracle.check_scan(sr.cases[0], want * (1 + 1e-6), best)
    windows = brute_force_window_sets(sr, 0.5)
    pair = next((i, j) for i in range(sr.m) for j in range(i + 1, sr.m)
                if (i, j) not in windows)
    assert oracle.check_scan(sr.cases[0], want, pair)


def test_on_grid():
    assert on_grid(1 / 1000, 999) and on_grid(1.0, 999) and on_grid(37 / 100, 99)
    assert not on_grid(0.0, 999) and not on_grid(0.5 / 1000, 999) and not on_grid(1.001, 99)
