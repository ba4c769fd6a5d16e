"""Study-region data model: geometry, populations, counts, candidate windows.

Input files follow the common surveillance text layout: a geometry file
(`id x y`), a population file (`id [period] population`) and a case file
(`id [period] count`).  Fields are separated by runs of whitespace or a
single comma; lines starting with '#' are ignored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "StudyRegion",
    "CandidateCluster",
    "WindowSet",
    "InputError",
    "load_study_region",
    "distance_matrix",
    "enumerate_windows",
]

_SPLIT = re.compile(r"[,\s]+")


class InputError(ValueError):
    """Malformed or inconsistent input data."""


def _finite(value):
    """Whether the number ``value`` is finite; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_real(name, value, ok=lambda v: True, wanted="a finite number",
                kind=(int, float, np.integer, np.floating)):
    """Raise :class:`InputError` naming ``name`` unless ``value`` is a finite
    number of ``kind`` (never a bool) for which ``ok`` holds."""
    if isinstance(value, bool) or not isinstance(value, kind) or not (
            _finite(value) and ok(value)):
        raise InputError(f"{name} must be {wanted}, got {value!r}")


def _check_whole(name, value, least):
    """:func:`_check_real` for a whole number (an int) of at least ``least``
    that fits in int64."""
    if isinstance(value, int) and value > np.iinfo(np.int64).max:
        raise InputError(f"{name} must be a whole number below 2**63, got {value!r}")
    _check_real(name, value, lambda v: v >= least, f"a whole number >= {least}", (int, np.integer))


def _real_tuple(name, values, ok=lambda v: True, wanted="finite numbers"):
    """``values`` as a tuple: a nonempty list or tuple of numbers passing :func:`_check_real`."""
    if not isinstance(values, (list, tuple)) or not values:
        raise InputError(f"{name} must be a nonempty list of {wanted}, got {values!r}")
    for v in values:
        _check_real(name, v, ok, f"a list of {wanted}")
    return tuple(values)


def _parse_lines(path):
    """Yield (lineno, fields) for every non-comment, non-blank line."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, _SPLIT.split(line)


def _once(path, lineno, key, what, seen):
    """Record ``key`` at ``lineno`` in ``seen``; refuse it if an earlier line gave it."""
    if key in seen:
        raise InputError(f"{path}:{lineno}: {what} repeats line {seen[key]}")
    seen[key] = lineno


def _period_sort_key(label):
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


@dataclass(frozen=True)
class StudyRegion:
    """Regions with centroids, per-period populations and case counts.

    ``populations`` and ``cases`` are (n_periods, m) arrays aligned with
    ``ids`` (sorted) and ``periods`` (natural order).
    """

    ids: tuple
    centroids: np.ndarray
    periods: tuple
    populations: np.ndarray
    cases: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        periods = tuple(self.periods)
        centroids = np.asarray(self.centroids, dtype=float).reshape(len(ids), 2)
        pops = np.asarray(self.populations, dtype=float).reshape(len(periods), len(ids))
        cases = np.asarray(self.cases, dtype=np.int64).reshape(len(periods), len(ids))
        if len(set(ids)) != len(ids):
            raise InputError("duplicate region ids")
        if not np.all(np.isfinite(centroids)):
            raise InputError("non-finite centroid coordinate")
        if not np.all(np.isfinite(pops)):
            raise InputError("non-finite population")
        if not np.all(pops > 0):
            raise InputError("nonpositive population")
        with np.errstate(over="ignore"):
            overflow = ~np.isfinite(pops.sum(axis=1))
        if overflow.any():
            raise InputError(f"population total of period {periods[overflow.argmax()]!r} overflows")
        if np.any(cases < 0):
            raise InputError("negative case count")
        for arr in (centroids, pops, cases):
            arr.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "cases", cases)

    @property
    def m(self):
        return len(self.ids)

    @property
    def n_periods(self):
        return len(self.periods)

    def period_index(self, period):
        if period is None:
            if self.n_periods != 1:
                raise InputError("period required for multi-period data")
            return 0
        if isinstance(period, (int, np.integer)) and period not in self.periods:
            if not 0 <= period < self.n_periods:
                raise InputError(
                    f"period position {period} out of range for {self.n_periods} period(s)")
            return int(period)
        try:
            return self.periods.index(period)
        except ValueError:
            raise InputError(f"unknown period {period!r}") from None

    def period_cases(self, period=None):
        return self.cases[self.period_index(period)]

    def period_populations(self, period=None):
        return self.populations[self.period_index(period)]

    def total_cases(self, period=None):
        return int(self.period_cases(period).sum())


def load_study_region(geo_file, pop_file, cas_file):
    """Load and validate a :class:`StudyRegion` from the three text files."""
    coords, lines = {}, {}
    for lineno, f in _parse_lines(geo_file):
        if len(f) != 3:
            raise InputError(f"{geo_file}:{lineno}: expected 'id x y', got {len(f)} fields")
        _once(geo_file, lineno, f[0], f"region id {f[0]!r}", lines)
        try:
            coords[f[0]] = (float(f[1]), float(f[2]))
        except ValueError:
            raise InputError(f"{geo_file}:{lineno}: bad coordinate") from None
    if not coords:
        raise InputError(f"{geo_file}: no regions")

    def read_table(path, value_name, parse):
        out, lines = {}, {}
        for lineno, f in _parse_lines(path):
            if len(f) == 3:
                rid, period, val = f
            elif len(f) == 2:
                rid, period, val = f[0], "__single__", f[1]
            else:
                raise InputError(f"{path}:{lineno}: expected 'id [period] {value_name}'")
            if rid not in coords:
                raise InputError(f"{path}:{lineno}: unknown region id {rid!r}")
            _once(path, lineno, (rid, period), f"region id {rid!r}"
                  + (f", period {period!r}" if len(f) == 3 else ""), lines)
            try:
                out[(rid, period)] = parse(val)
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad {value_name} {val!r}") from None
        return out

    pop = read_table(pop_file, "population", float)
    cas = read_table(cas_file, "count", int)
    if not pop:
        raise InputError(f"{pop_file}: no population records")

    periods = sorted({p for _, p in pop} | {p for _, p in cas}, key=_period_sort_key)
    if "__single__" in periods and len(periods) > 1:
        raise InputError("mixed single-period and multi-period records")
    ids = tuple(sorted(coords))
    populations = np.empty((len(periods), len(ids)))
    cases = np.zeros((len(periods), len(ids)), dtype=np.int64)
    for t, period in enumerate(periods):
        for j, rid in enumerate(ids):
            try:
                populations[t, j] = pop[(rid, period)]
            except KeyError:
                raise InputError(
                    f"{pop_file}: missing population for region {rid!r}, period {period!r}"
                ) from None
            cases[t, j] = cas.get((rid, period), 0)
    labels = tuple(p for p in periods) if periods != ["__single__"] else ("all",)
    return StudyRegion(
        ids=ids,
        centroids=np.array([coords[rid] for rid in ids]),
        periods=labels,
        populations=populations,
        cases=cases,
    )


def distance_matrix(sr: StudyRegion) -> np.ndarray:
    """Symmetric matrix of Euclidean centroid distances."""
    diff = sr.centroids[:, None, :] - sr.centroids[None, :, :]
    dm = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dm, 0.0)
    dm = 0.5 * (dm + dm.T)  # exact symmetry
    dm.setflags(write=False)
    return dm


@dataclass(frozen=True)
class CandidateCluster:
    """A centroid-centred distance ball: center index, member indices, radius."""

    center: int
    members: tuple
    radius: float

    def __post_init__(self):
        members = tuple(int(i) for i in self.members)
        if int(self.center) not in members:
            raise ValueError("center must be a member of its own window")
        object.__setattr__(self, "center", int(self.center))
        object.__setattr__(self, "members", members)

    def member_ids(self, sr: StudyRegion):
        return tuple(sr.ids[i] for i in self.members)


class WindowSet:
    """Deterministic list of candidate windows, stored as prefixes.

    Window ``k`` holds the first ``length[k]`` regions of row ``center[k]`` of
    ``order``, each centre's regions sorted by (distance, id).  Per-window sums
    are therefore cumulative sums along ``order`` gathered at
    ``(center, length - 1)``: O(m^2) index memory and no (windows x m) matrix.
    :class:`CandidateCluster` objects are built only when indexed or iterated.
    """

    def __init__(self, order, center, length, radius):
        self.order = np.asarray(order, dtype=np.intp)
        self.center = np.asarray(center, dtype=np.intp)
        self.length = np.asarray(length, dtype=np.intp)
        self.radius = np.asarray(radius, dtype=float)
        self.m = self.order.shape[0]
        for arr in (self.order, self.center, self.length, self.radius):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.center)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i):
        return CandidateCluster(center=int(self.center[i]), members=self.members(i),
                                radius=float(self.radius[i]))

    def members(self, i):
        """Member indices of window ``i`` in (distance, id) order, as an array."""
        return self.order[self.center[i], :self.length[i]]

    @cached_property
    def position(self):
        """(m, m) table of each region's position in each centre's order, or the width."""
        width = self.order.shape[1]
        position = np.full((self.m, self.m), width, dtype=np.int32)
        position[np.arange(self.m)[:, None], self.order] = np.arange(width, dtype=np.int32)
        position.setflags(write=False)
        return position

    @cached_property
    def by_length(self):
        """Layout for evaluating the windows one band of lengths at a time.

        Returns ``(take, extent, window, slot, start)``.  With the centres
        ranked by their longest window, longest first, those with a window of
        length ``j + 1`` are the first ``extent[j]``, and ``take[j, r]`` is the
        region at prefix position ``j`` of the centre ranked ``r``.  ``window``
        lists the windows by (length, centre rank), ``slot`` holds that rank,
        and those of length ``j + 1`` are ``window[start[j]:start[j + 1]]``.
        """
        longest = np.zeros(self.m, dtype=np.intp)
        np.maximum.at(longest, self.center, self.length)
        rank = np.argsort(-longest, kind="stable")
        place = np.empty(self.m, dtype=np.intp)
        place[rank] = np.arange(self.m)
        width = int(longest.max(initial=0))
        extent = np.count_nonzero(longest[:, None] > np.arange(width), axis=0)
        window = np.lexsort((place[self.center], self.length))
        start = np.searchsorted(self.length[window], np.arange(1, width + 2))
        layout = (np.ascontiguousarray(self.order[rank, :width].T), extent, window,
                  place[self.center[window]], start)
        for arr in layout:
            arr.setflags(write=False)
        return layout


def _region_keys(m, attempt):
    """The m regions' random uint64 hash keys, fixed by ``attempt``."""
    return np.random.default_rng(attempt).bit_generator.random_raw(m)


def _first_of_each_set(ws: WindowSet):
    """Indices, in order, of the windows whose member set no earlier one has.

    A set's hash, the wrapping sum of its regions' keys, is one cumulative sum
    along ``order``.  A window is dropped only after its members check against
    the first window of its hash; a failed check (a collision) redraws the keys.
    """
    attempt = 0
    while True:
        hashes = np.cumsum(_region_keys(ws.m, attempt)[ws.order], axis=1)[ws.center, ws.length - 1]
        # a stable sort inside np.unique: ``first`` holds each hash's earliest window
        _, first, inverse = np.unique(hashes, return_index=True, return_inverse=True)
        later = np.flatnonzero(first[inverse] != np.arange(len(ws)))
        lead, size = first[inverse[later]], ws.length[later]
        if np.array_equal(size, ws.length[lead]):
            # every member of a later window lies inside its first window
            rank = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
            members = ws.order[np.repeat(ws.center[later], size), rank]
            lead = np.repeat(lead, size)
            if (ws.position[ws.center[lead], members] < ws.length[lead]).all():
                return np.sort(first)
        attempt += 1


def enumerate_windows(sr: StudyRegion, dm: np.ndarray, max_fraction: float = 0.5) -> WindowSet:
    """Enumerate circular candidate windows centred at region centroids.

    For each center, regions are sorted by (distance, id) and every prefix
    whose population stays within ``max_fraction`` of the study total is a
    candidate.  The population cap uses populations summed over periods, so
    geometry is enumerated once.  Duplicate member sets are dropped, keeping
    the first in (center, prefix length) order.
    """
    _check_real("max_window_fraction", max_fraction, lambda f: 0 < f <= 1, "a number in (0, 1]")
    m = sr.m
    pop = sr.populations.sum(axis=0)
    cap = max_fraction * pop.sum()
    id_rank = np.empty(m, dtype=np.intp)
    id_rank[sorted(range(m), key=sr.ids.__getitem__)] = np.arange(m)
    dist = np.array(dm, dtype=float)
    np.fill_diagonal(dist, -1.0)  # the center leads even under distance-zero ties
    order = np.lexsort((np.broadcast_to(id_rank, (m, m)), dist), axis=-1)
    # pop > 0, so running totals are nondecreasing and the valid prefixes of
    # a row are exactly those up to its first total above the cap
    n_prefix = np.count_nonzero(np.cumsum(pop[order], axis=1) <= cap, axis=1)
    width = int(n_prefix.max(initial=0))
    order = np.ascontiguousarray(order[:, :width])

    center = np.repeat(np.arange(m), n_prefix)
    start = np.cumsum(n_prefix) - n_prefix
    length = np.arange(len(center)) - np.repeat(start, n_prefix) + 1
    radius = np.asarray(dm, dtype=float)[center, order[center, length - 1]]
    keep = _first_of_each_set(WindowSet(order, center, length, radius))
    return WindowSet(order, center[keep], length[keep], radius[keep])
