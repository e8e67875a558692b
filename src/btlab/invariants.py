"""Closed-form invariants from epsilon-sequences.

A *free linear segment of level n* of a cyclic epsilon-sequence starts at
a -1, ends at a +1, keeps every intermediate partial sum strictly
negative, and dips to exactly -n.  a_n counts segments of level n.  An
orbit with total epsilon 0 is *circular of level n* where n is the spread
(max - min) of its prefix-sum walk.

From those two counts:

    gamma(m)   = number of segments of level <= m          (automorphism
                 scheme dimension of the level-m truncation)
    c_m        = sum over circular orbits of level n <= m-1
                 of (m - n) * |orbit|                      (log_p of the
                 component count of the endomorphism scheme)

gamma stabilizes at the largest segment level; that level is the
isomorphism number, and gamma there is the specializing height.

Cost.  A segment is a first return of the prefix-sum walk to the level
it left at a -1, so one pass over the doubled sequence with one stack
finds every segment of an orbit of length l in 2l steps (see
``segment_scan``).  The orbits of (pi, pi) cover h^2 points, so scanning
all of them costs O(h^2).  The gamma and c_m tables are running sums
over histograms of segment levels and circular levels, which adds
O(segments + orbits + max_level).  The whole pipeline is therefore
linear in the size of its output.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, check_range
from .permutations import (
    EpsilonSeq,
    Permutation,
    ProductOrbit,
    Signature,
    check_signature,
    epsilon_sequence,
    pair_orbit_count,
    pair_orbits,
)

#: Largest level an invariant report tabulates.  Each level adds one
#: entry per orbit to the rendered ``a`` lists and one to each table.
MAX_LEVEL = 10_000
#: The rendered report has one row per orbit of (pi, pi) with max_level
#: ``a`` entries, and neither the level cap nor the degree cap bounds
#: their product (about h^2 orbits at h = 1000).  The size of a report is
#: orbits * (max_level + ORBIT_ROW_COST), where ORBIT_ROW_COST is what
#: a row costs besides its ``a`` entries, counted in ``a`` entries of the
#: JSON form (about 0.2 us and 5-11 bytes each).  The h^2 points are not
#: counted: just under the cap, a random h = 1000 report (1,040 orbits,
#: level 1,873) is 102 MB of JSON, written in about 2.2 s at a peak RSS
#: of 458 MB on a 2-vCPU machine with Python 3.11.7.  Random h = 1000
#: reports have 1,000-1,400 orbits: at the default level, a size < 10^5.
ORBIT_ROW_COST = 50
MAX_REPORT_SIZE = 2_000_000


def check_level(value: int, name: str) -> None:
    """Refuse a level outside 1..MAX_LEVEL; ``name`` is what the refusal
    calls it: a flag, "verify max_level", "max level" or "level m"."""
    check_range(value, name, 1, MAX_LEVEL)


class Segment(NamedTuple):
    start: int  # 1-based position of the leading -1
    length: int
    level: int


def segment_scan(e: EpsilonSeq) -> tuple[Segment, ...]:
    """All free linear segments of ``e``, sorted by start index.

    The segment starting at a -1 in position s ends at the first later
    position where the cyclic prefix-sum walk climbs back to the value it
    had before s; its level is how far the walk dipped in between.  One
    pass over the doubled sequence finds all of them, with one stack of
    [start, base, low] entries: the -1 starts whose walk has not yet come
    back, the walk's value before each (strictly decreasing up the stack,
    since every open start lies below the ones beneath it) and the lowest
    value seen since.  A +1 that brings the walk back to the top entry's
    base closes that segment, and its low folds into the new top's.
    Starts are only pushed while i < l, so the second lap closes what the
    first left open.

    No segment is longer than l = |e|: after one lap the walk has moved
    by the total of ``e``.  If the total is 0, the walk is back at the
    start's value after exactly l steps, so a segment closes by then (a
    full-length segment is possible).  If it is negative, the second lap
    repeats the first shifted down and can never return; if it is
    positive, the walk has passed the start's value within the first
    lap.  Starts that never close have no segment.
    """
    l = len(e)
    by_start: list[Segment | None] = [None] * l
    stack: list[list[int]] = []
    cum = 0
    for i, v in enumerate(e + e):
        if v == -1:
            cum -= 1
            if i < l:
                stack.append([i, cum + 1, cum])
            elif stack and cum < stack[-1][2]:
                stack[-1][2] = cum
        elif v == 1:
            cum += 1
            if stack and stack[-1][1] == cum:
                s, _, low = stack.pop()
                by_start[s] = Segment(s + 1, i + 1 - s, cum - low)
                if stack and low < stack[-1][2]:
                    stack[-1][2] = low
    return tuple(seg for seg in by_start if seg is not None)


def level_histogram(segments: Iterable[Segment], max_level: int) -> list[int]:
    """counts[n-1] = number of ``segments`` of level n, for n = 1..max_level."""
    counts = [0] * max_level
    for seg in segments:
        if seg.level <= max_level:
            counts[seg.level - 1] += 1
    return counts


def a_n(e: EpsilonSeq, n: int) -> int:
    """Number of free linear segments of level exactly ``n``."""
    check_range(n, "level n", 1)
    return sum(1 for seg in segment_scan(e) if seg.level == n)


def circular_level(e: EpsilonSeq) -> int | None:
    """Spread of the prefix-sum walk, or None when the total is nonzero.

    For total 0 every cyclic interval sum is a difference of two prefix
    sums (wrapping intervals included), so the maximal interval-sum
    magnitude equals max(prefix) - min(prefix).
    """
    hi = lo = cum = 0
    for v in e:
        cum += v
        if cum > hi:
            hi = cum
        elif cum < lo:
            lo = cum
    return hi - lo if cum == 0 else None


class OrbitProfile(NamedTuple):
    orbit: ProductOrbit
    eps: EpsilonSeq
    segments: tuple[Segment, ...]
    circular_level: int | None


def orbit_profiles(p: Permutation, sig: Signature) -> list[OrbitProfile]:
    return [
        OrbitProfile(o, eps, segment_scan(eps), circular_level(eps))
        for o in pair_orbits(p)
        for eps in [epsilon_sequence(o, sig)]
    ]


def gamma(profiles: Sequence[OrbitProfile], m: int) -> int:
    check_range(m, "level m", 1)
    return sum(1 for prof in profiles for seg in prof.segments if seg.level <= m)


def component_exponent(profiles: Sequence[OrbitProfile], m: int) -> int:
    check_range(m, "level m", 1)
    total = 0
    for prof in profiles:
        n = prof.circular_level
        if n is not None and n <= m - 1:
            total += (m - n) * len(prof.orbit)
    return total


def isomorphism_number(profiles: Sequence[OrbitProfile]) -> int:
    """Level at which gamma stabilizes.

    All-zero epsilon data, which an orbit has exactly when its circular
    level is 0, happens exactly when c*d = 0; that group is the unique one
    of its signature, so level 0 already determines it.  With c*d > 0 the
    number is the largest segment level, and at least 1 even when no
    segments exist (gamma is constant from m = 1 on).
    """
    if all(prof.circular_level == 0 for prof in profiles):
        return 0
    levels = [seg.level for prof in profiles for seg in prof.segments]
    return max(levels, default=1)


class InvariantReport(NamedTuple):
    profiles: tuple[OrbitProfile, ...]
    gamma: tuple[int, ...]  # gamma[m-1] for m = 1..max_level
    c_exponent: tuple[int, ...]
    isomorphism_number: int
    specializing_height: int


def invariant_report(p: Permutation, sig: Signature, max_level: int) -> InvariantReport:
    check_signature(p, sig)
    check_level(max_level, "max level")
    orbits = pair_orbit_count(p)
    if orbits * (max_level + ORBIT_ROW_COST) > MAX_REPORT_SIZE:
        raise InputError(
            f"orbits * (max level + {ORBIT_ROW_COST}) must be <= {MAX_REPORT_SIZE}, "
            f"got {orbits} * ({max_level} + {ORBIT_ROW_COST})"
        )
    profiles = tuple(orbit_profiles(p, sig))
    n_iso = isomorphism_number(profiles)
    # gamma(n_iso) untabulated: every segment has level <= n_iso (none at 0)
    height = sum(len(prof.segments) for prof in profiles)
    # gamma(m) counts segments of level <= m: a running sum of the level
    # histogram.  c_m = m * W(m-1) - N(m-1), where W(k) and N(k) sum |orbit|
    # and n * |orbit| over circular orbits of level n <= k.
    seg_counts = level_histogram(
        (seg for prof in profiles for seg in prof.segments), max_level
    )
    circ_weight = [0] * max_level  # circ_weight[n] for circular level n
    for prof in profiles:
        n = prof.circular_level
        if n is not None and n < max_level:
            circ_weight[n] += len(prof.orbit)
    c_table = []
    weight = moment = 0
    for n, w in enumerate(circ_weight):
        weight += w
        moment += n * w
        c_table.append((n + 1) * weight - moment)
    return InvariantReport(
        profiles=profiles,
        gamma=tuple(accumulate(seg_counts)),
        c_exponent=tuple(c_table),
        isomorphism_number=n_iso,
        specializing_height=height,
    )
