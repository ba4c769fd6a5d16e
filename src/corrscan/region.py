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
    coords = {}
    for lineno, f in _parse_lines(geo_file):
        if len(f) != 3:
            raise InputError(f"{geo_file}:{lineno}: expected 'id x y', got {len(f)} fields")
        try:
            coords[f[0]] = (float(f[1]), float(f[2]))
        except ValueError:
            raise InputError(f"{geo_file}:{lineno}: bad coordinate") from None
    if not coords:
        raise InputError(f"{geo_file}: no regions")

    def read_table(path, value_name, parse):
        out = {}
        for lineno, f in _parse_lines(path):
            if len(f) == 3:
                rid, period, val = f
            elif len(f) == 2:
                rid, period, val = f[0], "__single__", f[1]
            else:
                raise InputError(f"{path}:{lineno}: expected 'id [period] {value_name}'")
            if rid not in coords:
                raise InputError(f"{path}:{lineno}: unknown region id {rid!r}")
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


# elements of one membership-bitset block in enumerate_windows
_ROW_BLOCK_ELEMENTS = 1 << 20


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

    def overlapping(self, regions):
        """Boolean mask of the windows that contain any of ``regions``."""
        inside = np.zeros(self.m, dtype=bool)
        inside[regions] = True
        hit = inside[self.order]
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), hit.shape[1])
        return first[self.center] < self.length

    @cached_property
    def by_length(self):
        """Layout for evaluating the windows one band of lengths at a time.

        Returns ``(take, extent, window, slot, start)``.  The centres are
        ranked by their longest window, longest first, so the centres with a
        window of length ``j + 1`` are within the first ``extent[j]``, and
        ``take[j, r]`` is the region at prefix position ``j`` of the centre
        ranked ``r``.  ``window`` lists the window indices by (length, rank of
        the centre), ``slot`` holds that rank, and the windows of length
        ``j + 1`` are ``window[start[j]:start[j + 1]]``.  It depends on
        geometry only, so it is built once per set.
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

    def window_sums(self, values):
        """Per-window sums of a (k, m) block, as a (windows, k) array.

        Cumulative sums run along each center's order, one prefix position at
        a time over a (width, m, k) block, and are gathered at each window's
        (length - 1, center).  Integer input sums exactly.
        """
        block = np.ascontiguousarray(np.asarray(values).T)[self.order.T]
        for j in range(1, len(block)):
            block[j] += block[j - 1]
        last = (self.length - 1) * self.m + self.center
        return block.reshape(self.order.size, len(values))[last]

    def aggregate(self, values):
        """Per-window sums of a length-m vector."""
        return self.window_sums(np.asarray(values)[None, :])[:, 0]


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
    # exact de-duplication on membership bitsets packed into 64-bit words,
    # built in chunks so that no (candidates x m) boolean array is held at once
    n_words = -(-m // 64)
    position = np.full((m, 64 * n_words), width, dtype=np.int32)  # width: outside every prefix
    position[np.arange(m)[:, None], order] = np.arange(width, dtype=np.int32)
    rows = max(1, _ROW_BLOCK_ELEMENTS // position.shape[1])
    words = np.concatenate(
        [np.packbits(position[center[s:s + rows]] < length[s:s + rows, None], axis=1)
         for s in range(0, max(len(center), 1), rows)]).view(np.uint64)
    # lexsort is stable, so each run of equal bitsets starts at its first
    # occurrence.  np.unique(words, axis=0, return_index=True) gives the same
    # rows but sorts a void view of them, and doubled the enumeration time on
    # a 2-CPU x86-64 host (0.017 -> 0.035-0.041 s at m = 200, 0.10 -> 0.16 s at m = 400)
    by_bits = np.lexsort(words.T)
    ranked = words[by_bits]
    is_first = np.ones(len(ranked), dtype=bool)
    is_first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    keep = np.sort(by_bits[is_first])
    center, length = center[keep], length[keep]
    radius = np.asarray(dm, dtype=float)[center, order[center, length - 1]]
    return WindowSet(order, center, length, radius)
