"""Brute-force oracle: expand the level-m congruences into path/cycle graphs.

Along an orbit with epsilon-sequence e, an endomorphism coefficient is a
length-m Witt vector x_s = (y_{s,0}, ..., y_{s,m-1}) per position s, tied
to its successor by

    p^{mu_s + e_s} * sigma(x_s)  =  p^{mu_{s+1}} * x_{s+1}   (mod p^m).

Writing both sides componentwise (sigma is componentwise p-th power,
multiplication by p shifts right and applies one more p-th power):

    left  = (0, y_{s,0}^{p^2}, ..., y_{s,m-2}^{p^2})   if e_s = +1
            (y_{s,0}^p, ..., y_{s,m-1}^p)              if e_s in {-1, 0}
    right = (0, y_{s+1,0}^p, ..., y_{s+1,m-2}^p)       if e_{s+1} = -1
            (y_{s+1,0}, ..., y_{s+1,m-1})              otherwise.

Equating rows and cancelling Frobenius powers (the base field is perfect,
so A^{p^a} = B^{p^b} reduces to a single edge of weight |a - b|) yields a
graph on the variables (s, r) in which every vertex has in- and
out-degree at most 1.  Components are therefore simple paths or cycles:

  * a path with no zero-forced vertex is one free variable (dimension 1),
  * a path touching a zero-forced vertex collapses entirely to 0,
  * a cycle of total weight w is the equation y = y^{p^w}, i.e. p^w
    points, contributing w to the component-count exponent.

This reproduces the closed-form gamma and c_m values without using the
segment/circular-orbit combinatorics, which is what makes it an
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InputError, VerificationError
from .invariants import OrbitProfile, invariant_report, orbit_profiles
from .permutations import EpsilonSeq, Permutation, Signature

Vertex = tuple[int, int]  # (orbit position s, Witt row r); s 1-based, r 0-based

#: Largest number of graph vertices, h^2 * m over all orbits at level m,
#: that ``orbit_summaries`` expands.
MAX_ORACLE_VERTICES = 1_000_000


class GraphTooLarge(InputError):
    pass


class MalformedGraph(VerificationError):
    pass


class VerificationMismatch(VerificationError):
    def __init__(self, perm, c, d, m, kind, formula_value, oracle_value):
        self.perm = perm
        self.c = c
        self.d = d
        self.m = m
        self.kind = kind
        self.formula_value = formula_value
        self.oracle_value = oracle_value
        super().__init__(
            f"{kind} mismatch at m={m} for perm={perm.one_line()} c={c} d={d}: "
            f"formula={formula_value} oracle={oracle_value}"
        )


class Edge(NamedTuple):
    src: Vertex
    dst: Vertex
    weight: int  # dst = src^(p^weight), weight in {0, 1, 2}


@dataclass(frozen=True)
class GammaGraph:
    orbit_length: int
    level: int
    edges: tuple[Edge, ...]
    zero_constraints: frozenset[Vertex]

    @property
    def vertices(self) -> list[Vertex]:
        return [(s, r) for s in range(1, self.orbit_length + 1) for r in range(self.level)]


class Cycle(NamedTuple):
    length: int
    weight: int


@dataclass(frozen=True)
class ComponentSummary:
    free_paths: int
    zeroed_vertices: int
    cycles: tuple[Cycle, ...]


def build_gamma_graph(e: EpsilonSeq, m: int) -> GammaGraph:
    """Expand the congruences along one orbit into a GammaGraph."""
    if m < 1:
        raise ValueError("level m must be >= 1")
    l = len(e)
    if l < 1:
        raise ValueError("epsilon sequence must be nonempty")
    edges: list[Edge] = []
    zeros: set[Vertex] = set()
    for s in range(1, l + 1):
        t = s % l + 1
        shift_left = e[s - 1] == 1  # left side is p * sigma(x_s)
        shift_right = e[t - 1] == -1  # right side is p * x_{s+1}
        if shift_left and shift_right:
            # rows align after dropping the shared leading zero
            for r in range(m - 1):
                edges.append(Edge((s, r), (t, r), 1))
        elif shift_left:
            zeros.add((t, 0))
            for r in range(m - 1):
                edges.append(Edge((s, r), (t, r + 1), 2))
        elif shift_right:
            zeros.add((s, 0))
            for r in range(1, m):
                edges.append(Edge((s, r), (t, r - 1), 0))
        else:
            for r in range(m):
                edges.append(Edge((s, r), (t, r), 1))
    return GammaGraph(l, m, tuple(edges), frozenset(zeros))


def classify_components(g: GammaGraph) -> ComponentSummary:
    """Partition the graph into free paths, zeroed components and cycles."""
    out_edge: dict[Vertex, Edge] = {}
    in_edge: dict[Vertex, Edge] = {}
    for edge in g.edges:
        if edge.src in out_edge:
            raise MalformedGraph(f"vertex {edge.src} has two outgoing edges")
        if edge.dst in in_edge:
            raise MalformedGraph(f"vertex {edge.dst} has two incoming edges")
        out_edge[edge.src] = edge
        in_edge[edge.dst] = edge

    free_paths = 0
    zeroed = 0
    cycles = []
    seen: set[Vertex] = set()
    for v0 in g.vertices:
        if v0 in seen:
            continue
        # walk back to the component's start (or around its cycle)
        start = v0
        while start in in_edge:
            prev = in_edge[start].src
            if prev == v0:  # closed the loop: cycle component
                start = v0
                break
            start = prev
        verts = [start]
        weight = 0
        v = start
        while v in out_edge:
            edge = out_edge[v]
            weight += edge.weight
            v = edge.dst
            if v == start:
                break
            verts.append(v)
        is_cycle = v == start and start in out_edge
        seen.update(verts)
        if any(u in g.zero_constraints for u in verts):
            # cannot happen for generated graphs when the component is a
            # cycle; a zeroed path collapses entirely
            zeroed += len(verts)
        elif is_cycle:
            cycles.append(Cycle(len(verts), weight))
        else:
            free_paths += 1
    return ComponentSummary(free_paths, zeroed, tuple(sorted(cycles)))


OrbitSummaries = list[tuple[OrbitProfile, ComponentSummary]]


def orbit_summaries(profiles: Sequence[OrbitProfile], m: int) -> OrbitSummaries:
    """Build and classify the level-m graph of each orbit."""
    vertices = m * sum(len(prof.orbit) for prof in profiles)
    if vertices > MAX_ORACLE_VERTICES:
        raise GraphTooLarge(
            f"oracle vertices (h^2 * level) must be <= {MAX_ORACLE_VERTICES}, got {vertices}"
        )
    return [
        (prof, classify_components(build_gamma_graph(prof.eps, m)))
        for prof in profiles
    ]


def oracle_totals(summaries: OrbitSummaries) -> tuple[int, int]:
    """(dimension, component exponent): free paths and cycle weights summed
    over the orbits."""
    dimension = exponent = 0
    for _, summary in summaries:
        dimension += summary.free_paths
        exponent += sum(cyc.weight for cyc in summary.cycles)
    return dimension, exponent


def oracle_invariants(p: Permutation, sig: Signature, m: int) -> tuple[int, int]:
    """(dimension, component exponent) at level m, straight from the graphs."""
    return oracle_totals(orbit_summaries(orbit_profiles(p, sig), m))


@dataclass(frozen=True)
class CrossCheck:
    perm: Permutation
    c: int
    d: int
    max_level: int
    ok: bool
    mismatch: VerificationMismatch | None

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise self.mismatch


def cross_check(p: Permutation, sig: Signature, max_level: int) -> CrossCheck:
    """Compare the gamma and c_m tables of ``invariant_report`` with the
    graph oracle for m = 1..max_level; also require every cycle weight to
    equal its orbit length.  Returns the first counterexample instead of
    raising."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    report = invariant_report(p, sig, max_level)

    def fail(m, kind, formula_value, oracle_value):
        return CrossCheck(
            p, sig.c, sig.d, max_level, False,
            VerificationMismatch(p, sig.c, sig.d, m, kind, formula_value, oracle_value),
        )

    for m in range(1, max_level + 1):
        summaries = orbit_summaries(report.profiles, m)
        for prof, summary in summaries:
            for cyc in summary.cycles:
                if cyc.weight != len(prof.orbit):
                    return fail(m, "cycle-weight", len(prof.orbit), cyc.weight)
        dimension, exponent = oracle_totals(summaries)
        g = report.gamma[m - 1]
        if dimension != g:
            return fail(m, "dimension", g, dimension)
        ce = report.c_exponent[m - 1]
        if exponent != ce:
            return fail(m, "exponent", ce, exponent)
    return CrossCheck(p, sig.c, sig.d, max_level, True, None)
