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
alone.  Row k of the congruences ties (i, j, k - [left side shifted]) to
(pi(i), pi(j), k - [right side shifted]), so the edges of a pair climb the
same number of rows with the same weight: the rows are translates by h^2,
but row 0 has no edge out of a pair whose right side alone is shifted (it
would enter row -1) and row m-1 none out of one whose left side is (it
would enter row m).  One scan along the (pi, pi) orbits, found here by
iterating pi, works out rows 0 and 1 of every pair.  Nothing comes from
``pair_orbits``, ``epsilon_sequence`` or ``segment_scan``, so a fault in
the orbit listing, the epsilon-sequences or the segment combinatorics
shows up in ``cross_check``.

The level-m system is the first m Witt components of the level-M one, so
the level-m graph is the first m rows of the level-M graph (a prefix of
the arrays) without the equations of row m.  Hence the out-edge of the
vertex (i, j, r) exists from level r+1 on, or from level r+2 when (i, j)
lies in J_+, and zero flags (all in row 0) and weights do not depend on
the level.  ``classify_components`` walks the level-M graph once and
gives each component the largest level of its edges: a cycle is a cycle of
every level from its own on, and a level-m cycle is a level-M cycle, so
the exponent at level m sums the weights of the cycles of level <= m.
A level has as many paths as vertices less edges, h^2*m - E(m) with
E(m) = E(M) - (M-m)*h^2, the same number at every level.  The zero flags
lie on path ends, so with Z of them and J(m) paths joining two of them by
level m, the dimension is free(m) = h^2*m - E(m) - (Z - J(m)).
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple, Sequence

from .errors import VerificationError, check_range
from .invariants import InvariantReport, check_level, invariant_report
from .permutations import Permutation, Signature, check_signature

#: Largest number of graph vertices, h^2 * m at level m, that
#: ``build_gamma_graph`` expands.  At the cap, building and classifying
#: peak 14 MB above the interpreter's start for a 50-cycle at level 400
#: (0.2 s) and 26 MB for a 1000-cycle at level 1 (0.8 s), on a Xeon with
#: Python 3.11.  A ``verify`` sweep's cases share this budget: it refuses
#: samples * max_h^2 * max_level above it.
MAX_ORACLE_VERTICES = 1_000_000


class Mismatch(NamedTuple):
    """A ``verify`` failure: the first level where formulas and oracle disagree."""

    perm: Permutation
    c: int
    d: int
    m: int
    kind: str  # "cycle-weight", "dimension" or "exponent"
    formula: int  # the orbit size for "cycle-weight", else gamma(m) or c_m
    oracle: int  # the cycle's weight, else the oracle's dimension or exponent


def _stepped(block: array, step: int, n: int) -> array:
    """The first n entries of block, block + step, block + 2*step, ...
    Every copy is the block plus its offset, added to all its lanes at
    once as one big integer; no lane carries into the next (or borrows
    from it), since every entry is in [0, 2^31)."""
    a = array("i", block[:n])
    if len(a) == n:
        return a
    order, size = sys.byteorder, a.itemsize
    base = int.from_bytes(block, order)
    ones = int.from_bytes((1).to_bytes(size, order) * len(block), order)
    width = size * len(block)
    offset = 0
    while len(a) < n:
        offset += step
        lanes = (base + offset * ones).to_bytes(width, order)
        a.frombytes(lanes[:size * (n - len(a))])
    return a


class FlatGraph:
    """Successor, edge weight, has-in-edge and zero flag per vertex index
    r*h^2 + (i-1)*h + (j-1), with the (pi, pi) orbit of every pair.

    ``d`` places the points 1..d below the region boundary.  One scan of
    the orbits finds the out-edges of rows 0 and 1, the weight, the zero
    flag and the image of every pair, and translation lays out the rest
    (see the module docstring).  A vertex without an out-edge has its
    pair's weight too, but ``edges`` and ``classify_components`` read
    weights only on edges.
    """

    def __init__(self, images: Sequence[int], m: int, d: int = 0):
        img = [v - 1 for v in images]  # img[i] = pi(i + 1) - 1
        self.h = h = len(img)
        self.m, self.d = m, d
        pairs = h * h
        low = [i < d for i in range(h)]  # point i + 1 lies in {1..d}
        row0 = array("i", [0]) * pairs  # out-edge target in row 0, -1 for none
        row1 = array("i", [0]) * pairs  # in row 1, never -1
        weight = bytearray(b"\1") * pairs  # succ = vertex^(p^weight)
        zero = bytearray(pairs)  # the vertex is forced to 0
        entered = bytearray(pairs)  # an edge enters the pair
        bare = array("i")  # pairs without an in-edge in row 0
        edges = 0
        # Orbit number of every pair index (i-1)*h + (j-1), repeating the job
        # of ``pair_orbits`` on purpose: the oracle must not share it.  The
        # lexicographic scan meets every orbit first at its least pair.
        self.label = label = [-1] * pairs
        self.reps: list[tuple[int, int]] = []
        self.sizes: list[int] = []
        for start in range(pairs):
            if label[start] >= 0:
                continue
            a, b = divmod(start, h)
            self.reps.append((a + 1, b + 1))
            orbit, size, q = len(self.sizes), 0, start
            while label[q] < 0:
                label[q] = orbit
                size += 1
                shift_left = low[a] and not low[b]  # left side is p * sigma(x)
                a, b = img[a], img[b]
                t = a * h + b
                shift_right = low[b] and not low[a]  # right side is p * x'
                entered[t] = 1
                edges += m - (shift_left or shift_right)
                if shift_left == shift_right:
                    # if both, rows align after dropping the shared leading zero
                    row0[q], row1[q] = t, t + pairs
                elif shift_left:
                    zero[t] = 1
                    bare.append(t)
                    row0[q], row1[q], weight[q] = t + pairs, t + 2 * pairs, 2
                else:
                    zero[q] = 1
                    row0[q], row1[q], weight[q] = -1, t, 0
                q = t
            self.sizes.append(size)
        top = (m - 1) * pairs  # row m-1 starts here
        # successor vertex, -1 for none; a sum leaves no spare capacity
        self.succ = succ = row0 + _stepped(row1, pairs, top)
        self.has_in = has_in = entered * m
        for t in bare:
            has_in[t] = 0
        none = array("i", [-1]) * (h - d)
        for a in range(top, top + d * h, h):  # no edge out of J_+ in row m-1
            succ[a + d:a + h] = none
        for a in range(top + d * h, top + pairs, h):  # nor into J_-
            has_in[a:a + d] = bytes(d)
        self.zero = bytearray(m * pairs)  # row 0's flags, then zeros
        self.zero[:pairs] = zero  # (``extend`` would copy the zeros in)
        self.weight = weight * m
        self.edge_count = edges

    def edge_levels(self) -> array:
        """The level from which the out-edge of every vertex exists: r + 1
        in row r, or r + 2 for the pairs of J_+ = {i <= d < j}.  Row m-1
        reads m throughout: its J_+ vertices have no out-edge, and m spares
        the walk a test.  The other vertices without an out-edge lie in row
        0 outside J_+ and read 1, no more than any edge."""
        h, d, m = self.h, self.d, self.m
        pairs = h * h
        first = array("i", [1]) * pairs
        shifted = array("i", [2]) * (h - d)
        for a in range(0, d * h, h):  # (i, j) with i <= d < j
            first[a + d:a + h] = shifted
        levels = _stepped(first, 1, pairs * (m - 1))
        levels.extend(array("i", [m]) * pairs)
        return levels

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """(source, target, weight) of every edge, by source index."""
        return [(v, t, self.weight[v]) for v, t in enumerate(self.succ) if t >= 0]


class Cycle(NamedTuple):
    length: int
    weight: int


class OrbitRow(NamedTuple):
    """The components of one (pi, pi) orbit at the graph's level, keyed by
    its least pair."""

    rep: tuple[int, int]
    size: int
    free_paths: int
    zeroed_vertices: int
    cycles: tuple[Cycle, ...]
    cycle_levels: tuple[int, ...]  # the level from which each cycle closes


class OracleResult(NamedTuple):
    """One classified level-M graph: its orbit rows, and the dimension and
    exponent at every level 1..M."""

    rows: tuple[OrbitRow, ...]  # orbits in order of their least pairs
    dimensions: tuple[int, ...]  # free paths at levels 1..M
    exponents: tuple[int, ...]  # summed weight of the cycles closed by levels 1..M

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        """The rows' cycles in order, built on demand: the package reads ``rows``."""
        return tuple(cyc for row in self.rows for cyc in row.cycles)

    @property
    def free_paths(self) -> int:
        """The dimension at level M."""
        return self.dimensions[-1]

    @property
    def exponent(self) -> int:
        """The exponent at level M."""
        return self.exponents[-1]


def build_gamma_graph(p: Permutation, sig: Signature, m: int) -> FlatGraph:
    """Expand the level-m congruences of every pair into one FlatGraph."""
    check_level(m, "level m")
    check_signature(p, sig)
    check_range(p.h * p.h * m, "oracle vertices (h^2 * level)", high=MAX_ORACLE_VERTICES)
    return FlatGraph(p.images, m, sig.d)


def classify_components(g: FlatGraph) -> OracleResult:
    """Free paths, zeroed vertices and cycles of ``g``, per (pi, pi) orbit,
    and the dimension and exponent at every level up to ``g.m``.

    Paths are walked from the vertices without an in-edge; since no
    vertex has two in- or out-edges, whatever they leave unvisited lies
    on a cycle.  Each walk keeps the largest edge level it meets, which
    the paths joining two zero flags and the cycles are credited to.
    """
    pairs, top = g.h * g.h, g.m
    succ, weight, zero, has_in = g.succ, g.weight, g.zero, g.has_in
    label, reps = g.label, g.reps
    # a second edge out of a vertex overwrote the first, and a second edge
    # into one set a flag already set: either way a count falls short
    if len(succ) - succ.count(-1) != g.edge_count:
        raise VerificationError("a vertex has two outgoing edges")
    if has_in.count(1) != g.edge_count:
        raise VerificationError("a vertex has two incoming edges")
    # free(m) below needs every zero flag in row 0, on a path end
    if zero.find(1, pairs) >= 0:
        raise VerificationError("a zero-forced vertex lies above row 0")
    z = zero.find(1)
    while z >= 0:
        if has_in[z] and succ[z] >= 0:
            raise VerificationError("a zero-forced vertex is not a path end")
        z = zero.find(1, z + 1)
    level = g.edge_levels()
    free = [0] * len(reps)
    zeroed = [0] * len(reps)
    cycles: list[list[Cycle]] = [[] for _ in reps]
    closing: list[list[int]] = [[] for _ in reps]
    joined = [0] * (top + 1)  # paths joining two zero flags, by level
    gained = [0] * (top + 1)  # cycle weight, by level
    seen = bytearray(len(succ) + 1)
    seen[-1] = 1  # succ is -1 at a path end
    v = has_in.find(0)
    while v >= 0:
        length = high = 0
        u = v
        while not seen[u]:
            seen[u] = 1
            length += 1
            if level[u] > high:
                high = level[u]
            last = u
            u = succ[u]
        k = label[v % pairs]
        if zero[v] or zero[last]:  # the path collapses to 0
            zeroed[k] += length
            if zero[v] and zero[last] and last != v:
                joined[high] += 1
        else:
            free[k] += 1
        v = has_in.find(0, v + 1)
    v = seen.find(0)
    while v >= 0:
        length = total = high = 0
        u = v
        while not seen[u]:
            seen[u] = 1
            length += 1
            total += weight[u]
            if level[u] > high:
                high = level[u]
            u = succ[u]
        if u != v:
            raise VerificationError("a vertex flagged with an in-edge has none")
        k = label[v % pairs]
        cycles[k].append(Cycle(length, total))
        closing[k].append(high)
        gained[high] += total
        v = seen.find(0, v + 1)
    rows = tuple(
        OrbitRow(rep, size, f, z, tuple(cyc), tuple(lev))
        for rep, size, f, z, cyc, lev in zip(reps, g.sizes, free, zeroed, cycles, closing)
    )
    paths = len(succ) - g.edge_count - zero.count(1)  # h^2*m - E(m) - Z at every m
    dimensions, exponents = [], []
    for m in range(1, top + 1):
        paths += joined[m]
        dimensions.append(paths)
        exponents.append((exponents[-1] if exponents else 0) + gained[m])
    return OracleResult(rows, tuple(dimensions), tuple(exponents))


def oracle_components(p: Permutation, sig: Signature, m: int) -> OracleResult:
    """The level-m oracle of (pi, d): build the graph and classify it."""
    return classify_components(build_gamma_graph(p, sig, m))


def level_mismatch(
    report: InvariantReport, result: OracleResult
) -> tuple[int, str, int, int] | None:
    """The first disagreement between ``report`` (an ``invariant_report``)
    and the oracle ``result`` at every level m = 1..M that ``result``
    holds, which ``report`` reaches too, as (m, kind, formula value, oracle
    value); `oracle` and `verify` both pass exactly when this is None.  At
    each m: a cycle closed by level m whose weight is not the size of its
    orbit, then the dimension against gamma(m), then the exponent against
    c_m."""
    # the first of the bad cycles that close earliest
    bad = min(
        (
            (level, row.size, cyc.weight)
            for row in result.rows
            for cyc, level in zip(row.cycles, row.cycle_levels)
            if cyc.weight != row.size
        ),
        key=lambda found: found[0],
        default=None,
    )
    for m in range(1, len(result.dimensions) + 1):
        if bad and bad[0] <= m:
            return m, "cycle-weight", bad[1], bad[2]
        if result.dimensions[m - 1] != report.gamma[m - 1]:
            return m, "dimension", report.gamma[m - 1], result.dimensions[m - 1]
        if result.exponents[m - 1] != report.c_exponent[m - 1]:
            return m, "exponent", report.c_exponent[m - 1], result.exponents[m - 1]
    return None


def cross_check(p: Permutation, sig: Signature, max_level: int) -> Mismatch | None:
    """Compare ``invariant_report`` with the graph oracle for m =
    1..max_level by ``level_mismatch``, reading every level from one
    ``oracle_components`` call at level max_level.  Returns the first
    counterexample as a ``Mismatch``, None when every level agrees."""
    report = invariant_report(p, sig, max_level)
    result = oracle_components(p, sig, max_level)
    found = level_mismatch(report, result)
    return Mismatch(p, sig.c, sig.d, *found) if found else None
