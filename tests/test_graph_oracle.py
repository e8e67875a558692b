import copy
from array import array
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import btlab.graph_oracle as graph_oracle
import btlab.invariants as invariants
from btlab.graph_oracle import (
    MAX_ORACLE_VERTICES,
    Cycle,
    FlatGraph,
    Mismatch,
    build_gamma_graph,
    classify_components,
    cross_check,
    oracle_components,
)
from btlab.errors import InputError, VerificationError
from btlab.invariants import gamma, invariant_report, orbit_profiles
from btlab.permutations import Permutation, Signature, parse_permutation
from btlab.sweep import random_cases

epsilon_seqs = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=10).map(tuple)
levels = st.integers(1, 5)


def long_cycle(h):
    return parse_permutation("(" + " ".join(str(i) for i in range(1, h + 1)) + ")")


# -- reference: one graph per orbit, from its epsilon-sequence ----------------


class Edge(NamedTuple):
    src: tuple[int, int]  # (orbit position s, Witt row r); s 1-based
    dst: tuple[int, int]
    weight: int


@dataclass(frozen=True)
class GammaGraph:
    orbit_length: int
    level: int
    edges: tuple[Edge, ...]
    zero_constraints: frozenset

    @property
    def vertices(self):
        return [(s, r) for s in range(1, self.orbit_length + 1) for r in range(self.level)]


@dataclass(frozen=True)
class ComponentSummary:
    free_paths: int
    zeroed_vertices: int
    cycles: tuple[Cycle, ...]


def reference_build_gamma_graph(e, m):
    """The congruences along one orbit with epsilon-sequence ``e``, as a
    graph on (orbit position, Witt row)."""
    l = len(e)
    edges = []
    zeros = set()
    for s in range(1, l + 1):
        t = s % l + 1
        shift_left = e[s - 1] == 1
        shift_right = e[t - 1] == -1
        if shift_left and shift_right:
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


def reference_classify_components(g):
    """Free paths, zeroed vertices and cycles, by walking each vertex back
    to its component's start with edge dictionaries."""
    out_edge = {}
    in_edge = {}
    for edge in g.edges:
        if edge.src in out_edge or edge.dst in in_edge:
            raise VerificationError(f"edge {edge} repeats an endpoint")
        out_edge[edge.src] = edge
        in_edge[edge.dst] = edge
    free_paths = zeroed = 0
    cycles = []
    seen = set()
    for v0 in g.vertices:
        if v0 in seen:
            continue
        start = v0
        while start in in_edge:
            prev = in_edge[start].src
            if prev == v0:
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
            zeroed += len(verts)
        elif is_cycle:
            cycles.append(Cycle(len(verts), weight))
        else:
            free_paths += 1
    return ComponentSummary(free_paths, zeroed, tuple(sorted(cycles)))


def reference_rows(p, sig, m):
    """(rep, free paths, zeroed vertices, cycles) per orbit, through the
    orbit listing and epsilon-sequences of the invariants."""
    rows = []
    for prof in orbit_profiles(p, sig):
        s = reference_classify_components(reference_build_gamma_graph(prof.eps, m))
        rows.append((prof.orbit[0], s.free_paths, s.zeroed_vertices, s.cycles))
    return rows


def flat_rows(p, sig, m):
    return [
        (row.rep, row.free_paths, row.zeroed_vertices, row.cycles)
        for row in oracle_components(p, sig, m).rows
    ]


class TestBuildGammaGraph:
    def test_two_dips_zeroes_row_zero_at_ends(self):
        g = reference_build_gamma_graph((-1, -1, 1, 1), 2)
        assert g.zero_constraints == {(1, 0), (4, 0)}
        summary = reference_classify_components(g)
        assert summary.free_paths == 2
        assert summary.cycles == ()
        assert summary.zeroed_vertices == 2

    def test_zero_orbit_two_cycles(self):
        summary = reference_classify_components(reference_build_gamma_graph((0, 0, 0, 0), 2))
        assert summary.free_paths == 0
        assert summary.cycles == (Cycle(4, 4), Cycle(4, 4))

    def test_alternating_orbit_one_cycle_two_paths(self):
        summary = reference_classify_components(reference_build_gamma_graph((-1, 1, -1, 1), 2))
        assert summary.free_paths == 2
        assert summary.cycles == (Cycle(4, 4),)

    def test_fixed_point_self_loops(self):
        summary = reference_classify_components(reference_build_gamma_graph((0,), 3))
        assert summary.cycles == (Cycle(1, 1), Cycle(1, 1), Cycle(1, 1))
        assert summary.free_paths == 0

    def test_level_one_matches_degenerate_rules(self):
        # -1 followed by -1 zero-forces; +1 followed by non-(-1) zero-forces
        g = reference_build_gamma_graph((-1, -1, 1, 1), 1)
        assert g.zero_constraints == {(1, 0), (4, 0)}
        assert {(e.src, e.dst, e.weight) for e in g.edges} == {
            ((2, 0), (3, 0), 1),
        }

    def test_flat_graph_of_the_identity(self):
        # d = 1: the fixed pair (1,2) lies in J_+, so its left side is
        # shifted; the fixed pair (2,1) lies in J_-, so its right side is
        g = build_gamma_graph(Permutation((1, 2)), Signature(1, 1), 2)
        # vertex (i, j, r) sits at r*4 + (i-1)*2 + (j-1)
        assert [v for v, z in enumerate(g.zero) if z] == [1, 2]  # (1,2,0), (2,1,0)
        assert g.edges == [
            (0, 0, 1),  # (1,1,0) -> (1,1,0)
            (1, 5, 2),  # (1,2,0) -> (1,2,1)
            (3, 3, 1),  # (2,2,0) -> (2,2,0)
            (4, 4, 1),  # (1,1,1) -> (1,1,1)
            (6, 2, 0),  # (2,1,1) -> (2,1,0)
            (7, 7, 1),  # (2,2,1) -> (2,2,1)
        ]
        rows = classify_components(g).rows
        assert [(row.rep, row.size, row.free_paths, row.zeroed_vertices) for row in rows] == [
            ((1, 1), 1, 0, 0), ((1, 2), 1, 0, 2), ((2, 1), 1, 0, 2), ((2, 2), 1, 0, 0),
        ]
        assert rows[0].cycles == rows[3].cycles == (Cycle(1, 1), Cycle(1, 1))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_graph_is_the_congruences_written_out(self, h, m):
        # Row k of the congruence of (i, j) equates the left side's
        # component k, y_{k-1}^(p^2) if (i, j) is in J_+ (0 at k = 0) and
        # y_k^p otherwise, with the right side's, y'_{k-1}^p if the image
        # is in J_- (0 at k = 0) and y'_k otherwise.
        def vertex(i, j, r):
            return r * h * h + (i - 1) * h + (j - 1)

        for images in permutations(range(1, h + 1)):
            for d in range(h + 1):
                edges, zeros = [], set()
                for i in range(1, h + 1):
                    for j in range(1, h + 1):
                        pi, pj = images[i - 1], images[j - 1]
                        left_shifted, right_shifted = i <= d < j, pj <= d < pi
                        for k in range(m):
                            left = right = None  # (vertex, Frobenius power)
                            if k >= left_shifted:
                                left = (vertex(i, j, k - left_shifted), 1 + left_shifted)
                            if k >= right_shifted:
                                right = (vertex(pi, pj, k - right_shifted), right_shifted)
                            if left and right:
                                edges.append((left[0], right[0], left[1] - right[1]))
                            elif left or right:  # the other side is 0
                                zeros.add((left or right)[0])
                g = build_gamma_graph(Permutation(images), Signature(h - d, d), m)
                assert g.edges == sorted(edges)
                assert [v for v, flag in enumerate(g.has_in) if flag] == sorted(
                    target for _, target, _ in edges
                )
                assert [v for v, flag in enumerate(g.zero) if flag] == sorted(zeros)
                assert g.edge_count == len(g.edges)

    @given(epsilon_seqs)
    def test_level_one_degenerates_to_scalar_rules(self, e):
        # at m=1 each step contributes exactly one of: a weight-1 edge
        # (eps_s in {-1,0}, successor != -1), a zero on (s,0) (successor
        # = -1), a zero on the successor (eps_s = +1, successor != -1),
        # or nothing (eps_s = +1, successor = -1)
        g = reference_build_gamma_graph(e, 1)
        l = len(e)
        edges = {(edge.src, edge.dst): edge.weight for edge in g.edges}
        zeros = set(g.zero_constraints)
        for s in range(1, l + 1):
            t = s % l + 1
            es, et = e[s - 1], e[t - 1]
            if es in (-1, 0) and et != -1:
                assert edges.pop(((s, 0), (t, 0))) == 1
            elif es in (-1, 0):
                assert (s, 0) in zeros
            elif et != -1:
                assert (t, 0) in zeros
        assert not edges  # no step produced anything beyond the rules

    def test_zero_constraints_do_not_depend_on_level(self):
        for e in [(-1, 1), (1, -1, 0, 1), (0, 1, 1, -1, -1)]:
            zeros = {
                reference_build_gamma_graph(tuple(e), m).zero_constraints for m in (1, 2, 3, 4)
            }
            assert len(zeros) == 1

    @given(epsilon_seqs, levels)
    def test_degrees_at_most_one(self, e, m):
        g = reference_build_gamma_graph(e, m)
        outs = [edge.src for edge in g.edges]
        ins = [edge.dst for edge in g.edges]
        assert len(outs) == len(set(outs))
        assert len(ins) == len(set(ins))
        assert all(edge.weight in (0, 1, 2) for edge in g.edges)

    @given(epsilon_seqs, levels)
    def test_cycle_weight_equals_orbit_length(self, e, m):
        summary = reference_classify_components(reference_build_gamma_graph(e, m))
        for cyc in summary.cycles:
            assert cyc.weight == len(e)

    def test_three_level_sequence_against_oracle(self):
        # one segment each of levels 1, 2, 3: the graph dimension must
        # pick them up one level at a time
        e = (-1, 0, -1, -1, 1, 1, 0, 1)
        for m in (1, 2, 3, 4):
            summary = reference_classify_components(reference_build_gamma_graph(e, m))
            assert summary.free_paths == min(m, 3)

    @given(epsilon_seqs, levels)
    def test_rotation_invariance(self, e, m):
        def values(seq):
            s = reference_classify_components(reference_build_gamma_graph(seq, m))
            return s.free_paths, sum(c.weight for c in s.cycles)

        base = values(e)
        for r in range(1, len(e)):
            assert values(e[r:] + e[:r]) == base


def self_loops():
    """The level-1 graph of the identity on 2 points with d = 0: four
    self-loops of weight 1, vertex v on pair v."""
    g = build_gamma_graph(Permutation((1, 2)), Signature(2, 0), 1)
    assert g.edges == [(v, v, 1) for v in range(4)]
    return g


class TestClassifyComponents:
    def test_all_zeroed(self):
        summary = reference_classify_components(reference_build_gamma_graph((1, 1), 2))
        assert summary.free_paths == 0
        assert summary.zeroed_vertices == 4
        assert summary.cycles == ()

    def test_mixed_paths_and_cycles(self):
        summary = reference_classify_components(reference_build_gamma_graph((-1, 1), 3))
        assert summary.free_paths == 1
        assert summary.cycles == (Cycle(2, 2), Cycle(2, 2))

    def test_single_zero_orbit_level_one(self):
        summary = reference_classify_components(reference_build_gamma_graph((0, 0, 0, 0), 1))
        assert summary.cycles == (Cycle(4, 4),)

    def test_malformed_double_out_degree(self):
        g = self_loops()
        g.succ[0] = 1  # a second edge out of vertex 0, 0 -> 1, overwrote 0 -> 0
        g.edge_count += 1
        with pytest.raises(VerificationError, match="two outgoing edges"):
            classify_components(g)

    def test_malformed_double_in_degree(self):
        g = self_loops()
        g.succ[0] = 1  # 0 -> 1 as well as 1 -> 1, and no edge into 0
        g.has_in[0] = 0
        with pytest.raises(VerificationError, match="two incoming edges"):
            classify_components(g)
        # so does a pair map that is not a bijection: all four pairs of
        # images (2, 2) go to (2, 2)
        with pytest.raises(VerificationError, match="two incoming edges"):
            classify_components(FlatGraph((2, 2), 1))

    def test_isolated_vertex_counts_as_free_path(self):
        g = build_gamma_graph(Permutation((1,)), Signature(1, 0), 1)
        g.succ[0], g.has_in[0], g.edge_count = -1, 0, 0  # drop the self-loop
        assert classify_components(g).free_paths == 1


class TestOracleInvariants:
    def test_square_example(self):
        result = oracle_components(parse_permutation("(1 2 3 4)"), Signature(2, 2), 2)
        assert (result.free_paths, result.exponent) == (4, 16)

    def test_minimal_example(self):
        result = oracle_components(parse_permutation("4,5,1,2,3"), Signature(2, 3), 1)
        assert (result.free_paths, result.exponent) == (6, 5)

    def test_degenerate_signature(self):
        for p in (Permutation((1, 2)), parse_permutation("(1 2)")):
            result = oracle_components(p, Signature(0, 2), 3)
            assert (result.free_paths, result.exponent) == (0, 12)

    @given(st.permutations(range(1, 7)), st.integers(0, 6), levels)
    def test_equals_tally_of_orbit_summaries(self, images, d, m):
        p = Permutation(tuple(images))
        sig = Signature(6 - d, d)
        rows = reference_rows(p, sig, m)
        result = oracle_components(p, sig, m)
        assert result.free_paths == sum(row[1] for row in rows)
        assert result.exponent == sum(cyc.weight for row in rows for cyc in row[3])
        assert len(result.cycles) == sum(len(row[3]) for row in rows)

    def test_vertex_guard_refuses_an_admitted_report(self):
        # 50 orbits: the report is small, but 50^2 * 401 vertices exceed the cap
        p, sig, level = long_cycle(50), Signature(25, 25), 401
        assert 50 * 50 * level > MAX_ORACLE_VERTICES
        invariant_report(p, sig, level)
        refusal = r"oracle vertices \(h\^2 \* level\) must be <= 1000000, got 1002500"
        with pytest.raises(InputError, match=refusal):
            build_gamma_graph(p, sig, level)
        with pytest.raises(InputError, match=refusal):
            oracle_components(p, sig, level)

    def test_argument_checks_are_input_errors(self):
        p = parse_permutation("(1 2)")
        with pytest.raises(InputError, match="^level m must be >= 1, got 0$"):
            build_gamma_graph(p, Signature(1, 1), 0)
        with pytest.raises(InputError, match=r"permutation degree 2 != c\+d = 3"):
            build_gamma_graph(p, Signature(1, 2), 1)
        with pytest.raises(InputError, match="max level must be >= 1"):
            cross_check(p, Signature(1, 1), 0)


class TestAgainstReference:
    @pytest.mark.parametrize("h,max_level", [(1, 4), (2, 4), (3, 4), (4, 4), (5, 4), (6, 2)])
    def test_rows_match_reference_on_all_of_s_h(self, h, max_level):
        for images in permutations(range(1, h + 1)):
            p = Permutation(images)
            for d in range(h + 1):
                sig = Signature(h - d, d)
                for m in range(1, max_level + 1):
                    assert flat_rows(p, sig, m) == reference_rows(p, sig, m), (images, d, m)

    @given(st.permutations(range(1, 6)), st.integers(0, 5), levels)
    def test_edge_and_zero_counts_match_reference(self, images, d, m):
        p = Permutation(tuple(images))
        sig = Signature(5 - d, d)
        g = build_gamma_graph(p, sig, m)
        refs = [reference_build_gamma_graph(prof.eps, m) for prof in orbit_profiles(p, sig)]
        assert len(g.edges) == sum(len(ref.edges) for ref in refs)
        assert sum(g.zero) == sum(len(ref.zero_constraints) for ref in refs)

    @given(st.permutations(range(1, 7)), st.integers(0, 6), levels)
    def test_every_cycle_is_one_lap_of_its_orbit(self, images, d, m):
        # a cycle returns to its row after one lap, so its length and its
        # weight both equal the orbit size: the rows need no cycle order
        for row in oracle_components(Permutation(tuple(images)), Signature(6 - d, d), m).rows:
            assert all(cyc == (row.size, row.size) for cyc in row.cycles)


def caught_somewhere(max_h=5, max_level=3):
    """Whether cross_check fails for some pi in S_h, 2 <= h <= max_h, and d."""
    for h in range(2, max_h + 1):
        for images in permutations(range(1, h + 1)):
            p = Permutation(images)
            for d in range(h + 1):
                if cross_check(p, Signature(h - d, d), max_level) is not None:
                    return True
    return False


class TestPlantedBugs:
    """Faults planted in the orbit code of the invariants: the oracle
    builds its graph from (pi, d) alone, so it must disagree."""

    def test_off_by_one_region_boundary_is_caught(self, monkeypatch):
        def strict_epsilon_sequence(orbit, sig):
            d = sig.d
            return tuple(
                1 if i < d < j else -1 if j < d < i else 0 for i, j in orbit
            )

        monkeypatch.setattr(invariants, "epsilon_sequence", strict_epsilon_sequence)
        assert caught_somewhere()

    def test_dropped_orbit_is_caught(self, monkeypatch):
        real = invariants.pair_orbits
        monkeypatch.setattr(invariants, "pair_orbits", lambda p: real(p)[:-1])
        assert caught_somewhere()

    def test_unplanted_code_passes(self):
        assert not caught_somewhere(max_h=4)


def reference_truncated(g, m):
    """The level-m graph for m <= g.m, cut from the level-M graph ``g``:
    the first m rows, without the equations of Witt row m.  Those cut the
    out-edge of every pair of J_+ in row m-1 and the in-edge of every pair
    of J_- there; every other edge, weight and zero flag is the same at
    every level.  The copy shares ``weight`` (longer than ``succ``) and
    the orbit labels with ``g``."""
    h, d = g.h, g.d
    n = h * h * m
    t = copy.copy(g)
    t.m = m
    t.succ, t.has_in = g.succ[:n], g.has_in[:n]
    t.zero = g.zero[:n]
    # a pair has m edges at level m, one fewer if a side is shifted
    t.edge_count -= (g.m - m) * h * h
    row = n - h * h
    for a in range(row, row + d * h, h):  # (i, j) with i <= d < j
        t.succ[a + d:a + h] = array("i", [-1]) * (h - d)
    for a in range(row + d * h, n, h):  # (i, j) with j <= d < i
        t.has_in[a:a + d] = bytes(d)
    return t


def closed_by(row, m):
    return tuple(cyc for cyc, level in zip(row.cycles, row.cycle_levels) if level <= m)


class TestTruncation:
    """``cross_check`` classifies the level-M graph once and reads every
    level m <= M from that one walk; ``reference_truncated`` cuts the
    level-m graph out of it to check each level on its own."""

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_truncations_equal_direct_builds_on_all_of_s_h(self, h):
        for images in permutations(range(1, h + 1)):
            p = Permutation(images)
            for d in range(h + 1):
                sig = Signature(h - d, d)
                direct = {m: build_gamma_graph(p, sig, m) for m in range(1, 5)}
                for top in range(1, 5):
                    g = build_gamma_graph(p, sig, top)
                    walked = classify_components(g)
                    for m in range(1, top + 1):
                        t, want = reference_truncated(g, m), direct[m]
                        case = (images, d, top, m)
                        assert (t.succ, t.has_in) == (want.succ, want.has_in), case
                        assert (t.edges, t.edge_count) == (want.edges, want.edge_count), case
                        assert t.zero == want.zero, case
                        at_m = classify_components(t)
                        assert at_m == oracle_components(p, sig, m), case
                        assert walked.dimensions[m - 1] == at_m.free_paths, case
                        assert walked.exponents[m - 1] == at_m.exponent, case
                        assert [closed_by(row, m) for row in walked.rows] == [
                            row.cycles for row in at_m.rows
                        ], case

    def test_cross_check_builds_one_graph(self, monkeypatch):
        levels = []
        real = graph_oracle.build_gamma_graph

        def build(p, sig, m):
            levels.append(m)
            return real(p, sig, m)

        monkeypatch.setattr(graph_oracle, "build_gamma_graph", build)
        assert cross_check(parse_permutation("(1 2 3 4)"), Signature(2, 2), 4) is None
        assert levels == [4]

    def test_cross_check_classifies_once(self, monkeypatch):
        levels = []
        real = graph_oracle.classify_components

        def classify(g):
            levels.append(g.m)
            return real(g)

        monkeypatch.setattr(graph_oracle, "classify_components", classify)
        for case, (p, sig) in enumerate(random_cases(20, 6, seed=3), start=1):
            assert cross_check(p, sig, 4) is None
            assert levels == [4] * case

    def test_edge_levels_without_the_j_plus_shift_are_caught(self, monkeypatch):
        # every out-edge of row r at level r + 1, as if no pair were in J_+
        def unshifted(g):
            pairs = g.h * g.h
            return array("i", (min(u // pairs + 1, g.m) for u in range(len(g.succ))))

        monkeypatch.setattr(FlatGraph, "edge_levels", unshifted)
        assert caught_somewhere(max_h=4)

    def test_j_plus_same_row_edges_one_level_early_are_caught(self, monkeypatch):
        # Only the edges of J_+ pairs whose image lies in J_- (both sides
        # shifted, so the edge stays in its row) come one level early; the
        # degree checks and the level-M classification cannot see it.
        real = FlatGraph.edge_levels

        def early(g):
            levels = real(g)
            pairs = g.h * g.h
            for u, t in enumerate(g.succ):
                if t >= 0 and t // pairs == u // pairs and levels[u] == u // pairs + 2:
                    levels[u] -= 1
            return levels

        monkeypatch.setattr(FlatGraph, "edge_levels", early)
        assert caught_somewhere(max_h=4)

    def test_zero_flags_off_path_ends_are_refused(self):
        g = build_gamma_graph(parse_permutation("(1 2 3 4)"), Signature(2, 2), 3)
        inner = next(u for u in range(16) if g.has_in[u] and g.succ[u] >= 0)  # in row 0
        middle = copy.copy(g)
        middle.zero = bytearray(g.zero)
        middle.zero[inner] = 1
        with pytest.raises(VerificationError, match="a zero-forced vertex is not a path end"):
            classify_components(middle)
        above = copy.copy(g)
        above.zero = bytearray(g.zero)
        above.zero[16] = 1  # (1,1,1)
        with pytest.raises(VerificationError, match="a zero-forced vertex lies above row 0"):
            classify_components(above)

    def test_in_flag_without_an_in_edge_is_refused(self):
        g = self_loops()
        g.succ[0], g.succ[1], g.edge_count = 1, -1, 3  # 0 -> 1, 1 a path end
        g.has_in[1] = 0  # vertex 0 keeps its flag: the counts still match
        with pytest.raises(VerificationError, match="flagged with an in-edge has none"):
            classify_components(g)


class TestCrossCheck:
    def test_square_passes(self):
        assert cross_check(parse_permutation("(1 2 3 4)"), Signature(2, 2), 4) is None

    @pytest.mark.parametrize("h", range(2, 9))
    def test_long_cycle_family_passes_with_closed_form(self, h):
        for d in range(0, h // 2 + 1):
            c = h - d
            sig = Signature(c, d)
            p = long_cycle(h)
            assert cross_check(p, sig, 4) is None
            profiles = orbit_profiles(p, sig)
            for m in range(1, 5):
                expected = m * (h - m) if m <= d else c * d
                assert gamma(profiles, m) == expected

    def test_small_random_sweep(self):
        from btlab.sweep import verification_sweep

        checks = verification_sweep(samples=50, max_h=6, max_level=4, seed=11)
        assert checks == (None,) * 50

    def test_cycle_weight_mismatch_is_reported(self, heavier_cycles):
        perm = parse_permutation("(1 2 3 4)")
        mismatch = cross_check(perm, Signature(2, 2), 2)
        assert mismatch == Mismatch(perm, 2, 2, 1, "cycle-weight", 4, 5)
        assert (mismatch.m, mismatch.kind) == (1, "cycle-weight")
        assert (mismatch.formula, mismatch.oracle) == (4, 5)


class TestOracleAgainstFormulas:
    @given(epsilon_seqs, levels)
    def test_dimension_matches_segment_count(self, e, m):
        summary = reference_classify_components(reference_build_gamma_graph(e, m))
        from btlab.invariants import segment_scan

        expected = sum(1 for seg in segment_scan(e) if seg.level <= m)
        assert summary.free_paths == expected

    @given(epsilon_seqs, levels)
    def test_exponent_matches_circular_level(self, e, m):
        from btlab.invariants import circular_level

        summary = reference_classify_components(reference_build_gamma_graph(e, m))
        level = circular_level(e)
        if level is None or level > m - 1:
            expected = 0
        else:
            expected = (m - level) * len(e)
        assert sum(c.weight for c in summary.cycles) == expected
