"""Brute-force oracle: expand the level-m congruences into one path/cycle graph.

The pair (i, j) of J^2 carries a length-m Witt vector x = (y_0, ...,
y_{m-1}) of an endomorphism coefficient, tied to the vector x' of its
image (pi(i), pi(j)) by p^{mu + e} * sigma(x) = p^{mu'} * x' (mod p^m),
where e is +1 on J_+ = {i <= d < j}, -1 on J_- = {j <= d < i} and 0
elsewhere.  Componentwise (sigma is the p-th power, multiplication by p
shifts right and applies one more p-th power):

    left  = (0, y_0^{p^2}, ..., y_{m-2}^{p^2})   if (i, j) in J_+
            (y_0^p, ..., y_{m-1}^p)              otherwise
    right = (0, y'_0^p, ..., y'_{m-2}^p)         if the image is in J_-
            (y'_0, ..., y'_{m-1})                otherwise.

Equating rows and cancelling Frobenius powers (the base field is perfect,
so A^{p^a} = B^{p^b} is one edge of weight |a - b|) gives a graph on the
variables (i, j, r) with in- and out-degree at most 1.  A path without a
zero-forced vertex is one free variable (dimension 1), a path touching
one collapses to 0, and a cycle of weight w is y = y^{p^w}: p^w points,
adding w to the component-count exponent.

The graph is four flat arrays over the row-major vertex index r*h^2 +
(i-1)*h + (j-1), filled from the images of pi and the test "point <= d"
alone, so the m edges of a pair are one slice of step h^2; its components
are credited to (pi, pi) orbits found here by iterating pi.  Nothing comes
from ``pair_orbits``, ``epsilon_sequence`` or ``segment_scan``, so a fault
in the orbit listing, the epsilon-sequences or the segment combinatorics
shows up in ``cross_check``.

The level-m system is the first m Witt components of the level-M one, so
the level-m graph is the first m rows of the level-M graph (a prefix of
the arrays) without the equations of row m.  Those touch row m-1 only:
they give every pair of J_+ its out-edge there, and every pair of J_- its
in-edge.  Zero flags (all in row 0) and weights do not depend on the
level, so ``cross_check`` builds the level-M graph once and classifies
each ``FlatGraph.truncated(m)``.
"""

from __future__ import annotations

import copy
import sys
from array import array
from typing import NamedTuple, Sequence

from .errors import InputError, VerificationError
from .invariants import InvariantReport, invariant_report
from .permutations import Permutation, Signature

#: Largest number of graph vertices, h^2 * m at level m, that
#: ``build_gamma_graph`` expands: 11 bytes a vertex while building and 8
#: while classifying, so at the cap (a 50-cycle at level 400) 11 MB at the
#: peak and 0.3 s to build and classify on a Xeon with Python 3.11.
MAX_ORACLE_VERTICES = 1_000_000


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


def _iota(n: int) -> array:
    """``array("i", range(n))``, ten times faster at a million entries.
    After a first block from ``range``, every block is the first plus its
    offset, added to all its lanes at once as one big integer; no lane
    carries into the next, since every entry is below 2^31.  Blocks of 32
    KB keep the scratch integers small."""
    a = array("i", range(min(n, 1 << 13)))
    order, size = sys.byteorder, a.itemsize
    block = int.from_bytes(a, order)
    ones = int.from_bytes((1).to_bytes(size, order) * len(a), order)
    width = size * len(a)
    while len(a) < n:
        lanes = (block + len(a) * ones).to_bytes(width, order)
        a.frombytes(lanes[:size * (n - len(a))])
    return a


class FlatGraph:
    """Successor, edge weight, has-in-edge and zero flag per vertex index
    r*h^2 + (i-1)*h + (j-1), with the (pi, pi) orbit of every pair.

    ``d`` places the points 1..d below the region boundary; only
    ``truncated`` reads it.
    """

    def __init__(self, images: Sequence[int], m: int, d: int = 0):
        self.img = img = [v - 1 for v in images]  # img[i] = pi(i + 1) - 1
        self.h = h = len(img)
        self.m = m
        self.d = d
        n = h * h * m
        self._index = _iota(n)  # ``link`` copies succ blocks from this
        self.succ = array("i", [-1]) * n  # successor vertex, -1 for none
        self.weight = bytearray(n)  # succ = vertex^(p^weight)
        self.has_in = bytearray(n)
        self.zero = bytearray(n)  # the vertex is forced to 0
        self.edge_count = 0
        # Orbit number of every pair index (i-1)*h + (j-1).  This repeats
        # the job of ``pair_orbits`` on purpose: the oracle must not share
        # it.  The lexicographic scan meets every orbit first at its least
        # pair.
        self.label = label = [-1] * (h * h)
        self.reps: list[tuple[int, int]] = []
        self.sizes: list[int] = []
        for q in range(h * h):
            if label[q] < 0:
                a, b = divmod(q, h)
                self.reps.append((a + 1, b + 1))
                size = 0
                while label[a * h + b] < 0:
                    label[a * h + b] = len(self.sizes)
                    size += 1
                    a, b = img[a], img[b]
                self.sizes.append(size)

    def link(self, src: int, dst: int, count: int, weight: int) -> None:
        """Add the edges src + k*h^2 -> dst + k*h^2 of ``weight`` for k <
        count, one per Witt row; ``classify_components`` refuses two edges
        out of or into a vertex."""
        step = self.h * self.h
        self.edge_count += count
        self.succ[src:src + count * step:step] = self._index[dst:dst + count * step:step]
        self.weight[src:src + count * step:step] = bytes((weight,)) * count
        self.has_in[dst:dst + count * step:step] = b"\1" * count

    def truncated(self, m: int) -> FlatGraph:
        """The level-m graph for m <= self.m: the first m rows, without the
        equations of Witt row m.  Those cut the out-edge of every pair of
        J_+ in row m-1 and the in-edge of every pair of J_- there; every
        other edge, weight and zero flag is the same at every level.

        The copy shares ``img``, the orbit labels, ``weight`` and ``zero``
        with this graph (the last two may be longer than ``succ``).
        """
        if m == self.m:
            return self
        h, d = self.h, self.d
        n = h * h * m
        t = copy.copy(self)
        t.m = m
        t.succ = self.succ[:n]
        t.has_in = self.has_in[:n]
        # a pair has m edges at level m, one fewer if a side is shifted
        t.edge_count -= (self.m - m) * h * h
        row = n - h * h
        no_edge = array("i", [-1]) * (h - d)
        for a in range(row, row + d * h, h):  # (i, j) with i <= d < j
            t.succ[a + d:a + h] = no_edge
        no_in = bytes(d)
        for a in range(row + d * h, n, h):  # (i, j) with j <= d < i
            t.has_in[a:a + d] = no_in
        return t

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """(source, target, weight) of every edge, by source index."""
        return [(v, t, self.weight[v]) for v, t in enumerate(self.succ) if t >= 0]


class Cycle(NamedTuple):
    length: int
    weight: int


class OrbitRow(NamedTuple):
    """The components of one (pi, pi) orbit, keyed by its least pair."""

    rep: tuple[int, int]
    size: int
    free_paths: int
    zeroed_vertices: int
    cycles: tuple[Cycle, ...]


class OracleResult(NamedTuple):
    rows: tuple[OrbitRow, ...]  # orbits in order of their least pairs
    free_paths: int  # the dimension
    cycles: tuple[Cycle, ...]  # over all orbits; their weights sum to the exponent
    exponent: int


def build_gamma_graph(p: Permutation, sig: Signature, m: int) -> FlatGraph:
    """Expand the level-m congruences of every pair into one FlatGraph."""
    if m < 1:
        raise InputError("level m must be >= 1")
    if p.h != sig.h:
        raise InputError(f"permutation degree {p.h} != c+d = {sig.h}")
    h, d = p.h, sig.d
    vertices = h * h * m
    if vertices > MAX_ORACLE_VERTICES:
        raise InputError(
            f"oracle vertices (h^2 * level) must be <= {MAX_ORACLE_VERTICES}, got {vertices}"
        )
    g = FlatGraph(p.images, m, d)
    img, link, zero = g.img, g.link, g.zero
    row = h * h  # one Witt row further on
    low = [i < d for i in range(h)]  # point i + 1 lies in {1..d}
    for i in range(h):
        ti = img[i]
        for j in range(h):
            tj = img[j]
            src = i * h + j
            dst = ti * h + tj
            shift_left = low[i] and not low[j]  # left side is p * sigma(x)
            shift_right = low[tj] and not low[ti]  # right side is p * x'
            if shift_left and shift_right:
                # rows align after dropping the shared leading zero
                link(src, dst, m - 1, 1)
            elif shift_left:
                zero[dst] = 1
                link(src, dst + row, m - 1, 2)
            elif shift_right:
                zero[src] = 1
                link(src + row, dst, m - 1, 0)
            else:
                link(src, dst, m, 1)
    del g._index  # 4 bytes a vertex that classifying does not need
    return g


def classify_components(g: FlatGraph) -> OracleResult:
    """Free paths, zeroed vertices and cycles of ``g``, per (pi, pi) orbit.

    Paths are walked from the vertices without an in-edge; since no
    vertex has two in- or out-edges, whatever they leave unvisited lies
    on a cycle.
    """
    pairs = g.h * g.h
    succ, weight, zero = g.succ, g.weight, g.zero
    label, reps = g.label, g.reps
    # a second edge out of a vertex overwrote the first, and a second edge
    # into one set a flag already set: either way a count falls short
    if len(succ) - succ.count(-1) != g.edge_count:
        raise VerificationError("a vertex has two outgoing edges")
    if g.has_in.count(1) != g.edge_count:
        raise VerificationError("a vertex has two incoming edges")
    free = [0] * len(reps)
    zeroed = [0] * len(reps)
    cycles: list[list[Cycle]] = [[] for _ in reps]
    seen = bytearray(len(succ))
    for starts in (g.has_in, seen):
        v = starts.find(0)
        while v >= 0:
            length = total = forced = 0
            u = v
            while u >= 0 and not seen[u]:
                seen[u] = 1
                length += 1
                total += weight[u]
                forced |= zero[u]
                u = succ[u]
            k = label[v % pairs]
            if forced:  # the component collapses to 0
                zeroed[k] += length
            elif u < 0:
                free[k] += 1
            else:  # back at v
                cycles[k].append(Cycle(length, total))
            v = starts.find(0, v + 1)
    rows = tuple(
        OrbitRow(rep, size, f, z, tuple(cyc))
        for rep, size, f, z, cyc in zip(reps, g.sizes, free, zeroed, cycles)
    )
    every = tuple(cyc for row in rows for cyc in row.cycles)
    return OracleResult(rows, sum(free), every, sum(cyc.weight for cyc in every))


def oracle_components(p: Permutation, sig: Signature, m: int) -> OracleResult:
    """The level-m oracle of (pi, d): build the graph and classify it."""
    return classify_components(build_gamma_graph(p, sig, m))


def level_mismatch(
    report: InvariantReport, result: OracleResult, m: int
) -> tuple[str, int, int] | None:
    """The first disagreement at level m between ``report`` (an
    ``invariant_report`` reaching m) and the oracle ``result``, as (kind,
    formula value, oracle value): a cycle weight that is not the size of
    its orbit, then the dimension against gamma(m), then the exponent
    against c_m.  None when all three agree."""
    for row in result.rows:
        for cyc in row.cycles:
            if cyc.weight != row.size:
                return "cycle-weight", row.size, cyc.weight
    if result.free_paths != report.gamma[m - 1]:
        return "dimension", report.gamma[m - 1], result.free_paths
    if result.exponent != report.c_exponent[m - 1]:
        return "exponent", report.c_exponent[m - 1], result.exponent
    return None


def cross_check(p: Permutation, sig: Signature, max_level: int) -> VerificationMismatch | None:
    """Compare ``invariant_report`` with the graph oracle for m =
    1..max_level by ``level_mismatch``, classifying the truncations of one
    level-max_level graph.  Returns the first counterexample instead of
    raising, None when every level agrees."""
    report = invariant_report(p, sig, max_level)
    g = build_gamma_graph(p, sig, max_level)
    for m in range(1, max_level + 1):
        found = level_mismatch(report, classify_components(g.truncated(m)), m)
        if found:
            return VerificationMismatch(p, sig.c, sig.d, m, *found)
    return None
