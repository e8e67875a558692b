import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlab.graph_oracle import (
    MAX_ORACLE_VERTICES,
    Cycle,
    Edge,
    GammaGraph,
    GraphTooLarge,
    MalformedGraph,
    VerificationMismatch,
    build_gamma_graph,
    classify_components,
    cross_check,
    oracle_invariants,
    orbit_summaries,
)
from btlab.invariants import gamma, invariant_report, orbit_profiles
from btlab.permutations import Permutation, Signature, parse_permutation

epsilon_seqs = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=10).map(tuple)
levels = st.integers(1, 5)


def long_cycle(h):
    return parse_permutation("(" + " ".join(str(i) for i in range(1, h + 1)) + ")")


class TestBuildGammaGraph:
    def test_two_dips_zeroes_row_zero_at_ends(self):
        g = build_gamma_graph((-1, -1, 1, 1), 2)
        assert g.zero_constraints == {(1, 0), (4, 0)}
        summary = classify_components(g)
        assert summary.free_paths == 2
        assert summary.cycles == ()
        assert summary.zeroed_vertices == 2

    def test_zero_orbit_two_cycles(self):
        summary = classify_components(build_gamma_graph((0, 0, 0, 0), 2))
        assert summary.free_paths == 0
        assert summary.cycles == (Cycle(4, 4), Cycle(4, 4))

    def test_alternating_orbit_one_cycle_two_paths(self):
        summary = classify_components(build_gamma_graph((-1, 1, -1, 1), 2))
        assert summary.free_paths == 2
        assert summary.cycles == (Cycle(4, 4),)

    def test_fixed_point_self_loops(self):
        summary = classify_components(build_gamma_graph((0,), 3))
        assert summary.cycles == (Cycle(1, 1), Cycle(1, 1), Cycle(1, 1))
        assert summary.free_paths == 0

    def test_level_one_matches_degenerate_rules(self):
        # -1 followed by -1 zero-forces; +1 followed by non-(-1) zero-forces
        g = build_gamma_graph((-1, -1, 1, 1), 1)
        assert g.zero_constraints == {(1, 0), (4, 0)}
        assert {(e.src, e.dst, e.weight) for e in g.edges} == {
            ((2, 0), (3, 0), 1),
        }

    @given(epsilon_seqs)
    def test_level_one_degenerates_to_scalar_rules(self, e):
        # at m=1 each step contributes exactly one of: a weight-1 edge
        # (eps_s in {-1,0}, successor != -1), a zero on (s,0) (successor
        # = -1), a zero on the successor (eps_s = +1, successor != -1),
        # or nothing (eps_s = +1, successor = -1)
        g = build_gamma_graph(e, 1)
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
            zeros = {build_gamma_graph(tuple(e), m).zero_constraints for m in (1, 2, 3, 4)}
            assert len(zeros) == 1

    @given(epsilon_seqs, levels)
    def test_degrees_at_most_one(self, e, m):
        g = build_gamma_graph(e, m)
        outs = [edge.src for edge in g.edges]
        ins = [edge.dst for edge in g.edges]
        assert len(outs) == len(set(outs))
        assert len(ins) == len(set(ins))
        assert all(edge.weight in (0, 1, 2) for edge in g.edges)

    @given(epsilon_seqs, levels)
    def test_cycle_weight_equals_orbit_length(self, e, m):
        summary = classify_components(build_gamma_graph(e, m))
        for cyc in summary.cycles:
            assert cyc.weight == len(e)

    def test_three_level_sequence_against_oracle(self):
        # one segment each of levels 1, 2, 3: the graph dimension must
        # pick them up one level at a time
        e = (-1, 0, -1, -1, 1, 1, 0, 1)
        for m in (1, 2, 3, 4):
            summary = classify_components(build_gamma_graph(e, m))
            assert summary.free_paths == min(m, 3)

    @given(epsilon_seqs, levels)
    def test_rotation_invariance(self, e, m):
        def values(seq):
            s = classify_components(build_gamma_graph(seq, m))
            return s.free_paths, sum(c.weight for c in s.cycles)

        base = values(e)
        for r in range(1, len(e)):
            assert values(e[r:] + e[:r]) == base


class TestClassifyComponents:
    def test_all_zeroed(self):
        summary = classify_components(build_gamma_graph((1, 1), 2))
        assert summary.free_paths == 0
        assert summary.zeroed_vertices == 4
        assert summary.cycles == ()

    def test_mixed_paths_and_cycles(self):
        summary = classify_components(build_gamma_graph((-1, 1), 3))
        assert summary.free_paths == 1
        assert summary.cycles == (Cycle(2, 2), Cycle(2, 2))

    def test_single_zero_orbit_level_one(self):
        summary = classify_components(build_gamma_graph((0, 0, 0, 0), 1))
        assert summary.cycles == (Cycle(4, 4),)

    def test_malformed_double_out_degree(self):
        g = GammaGraph(
            orbit_length=2,
            level=1,
            edges=(Edge((1, 0), (2, 0), 1), Edge((1, 0), (1, 0), 1)),
            zero_constraints=frozenset(),
        )
        with pytest.raises(MalformedGraph):
            classify_components(g)

    def test_malformed_double_in_degree(self):
        g = GammaGraph(
            orbit_length=2,
            level=1,
            edges=(Edge((1, 0), (2, 0), 1), Edge((2, 0), (2, 0), 1)),
            zero_constraints=frozenset(),
        )
        with pytest.raises(MalformedGraph):
            classify_components(g)

    def test_isolated_vertex_counts_as_free_path(self):
        g = GammaGraph(1, 1, (), frozenset())
        assert classify_components(g).free_paths == 1


class TestOracleInvariants:
    def test_square_example(self):
        p = parse_permutation("(1 2 3 4)")
        assert oracle_invariants(p, Signature(2, 2), 2) == (4, 16)

    def test_minimal_example(self):
        p = parse_permutation("4,5,1,2,3")
        assert oracle_invariants(p, Signature(2, 3), 1) == (6, 5)

    def test_degenerate_signature(self):
        for p in (Permutation((1, 2)), parse_permutation("(1 2)")):
            assert oracle_invariants(p, Signature(0, 2), 3) == (0, 12)

    @given(st.permutations(range(1, 7)), st.integers(0, 6), levels)
    def test_equals_tally_of_orbit_summaries(self, images, d, m):
        p = Permutation(tuple(images))
        sig = Signature(6 - d, d)
        summaries = orbit_summaries(orbit_profiles(p, sig), m)
        dimension = sum(summary.free_paths for _, summary in summaries)
        exponent = sum(cyc.weight for _, summary in summaries for cyc in summary.cycles)
        assert oracle_invariants(p, sig, m) == (dimension, exponent)

    def test_vertex_guard_refuses_an_admitted_report(self):
        # 50 orbits: the report is small, but 50^2 * 401 vertices exceed the cap
        p, sig, level = long_cycle(50), Signature(25, 25), 401
        assert 50 * 50 * level > MAX_ORACLE_VERTICES
        report = invariant_report(p, sig, level)
        with pytest.raises(GraphTooLarge, match="must be"):
            orbit_summaries(report.profiles, level)
        with pytest.raises(GraphTooLarge, match="must be"):
            oracle_invariants(p, sig, level)


class TestCrossCheck:
    def test_square_passes(self):
        chk = cross_check(parse_permutation("(1 2 3 4)"), Signature(2, 2), 4)
        assert chk.ok
        chk.raise_if_failed()

    @pytest.mark.parametrize("h", range(2, 9))
    def test_long_cycle_family_passes_with_closed_form(self, h):
        for d in range(0, h // 2 + 1):
            c = h - d
            sig = Signature(c, d)
            p = long_cycle(h)
            assert cross_check(p, sig, 4).ok
            profiles = orbit_profiles(p, sig)
            for m in range(1, 5):
                expected = m * (h - m) if m <= d else c * d
                assert gamma(profiles, m) == expected

    def test_small_random_sweep(self):
        from btlab.sweep import verification_sweep

        result = verification_sweep(samples=50, max_h=6, max_level=4, seed=11)
        assert result.ok

    def test_mismatch_raises_with_details(self):
        chk = cross_check(parse_permutation("(1 2 3 4)"), Signature(2, 2), 3)
        assert chk.mismatch is None
        exc = VerificationMismatch(
            parse_permutation("(1 2)"), 1, 1, 2, "dimension", 1, 0
        )
        assert "m=2" in str(exc) and "formula=1" in str(exc)


class TestOracleAgainstFormulas:
    @given(epsilon_seqs, levels)
    def test_dimension_matches_segment_count(self, e, m):
        summary = classify_components(build_gamma_graph(e, m))
        from btlab.invariants import segment_scan

        expected = sum(1 for seg in segment_scan(e) if seg.level <= m)
        assert summary.free_paths == expected

    @given(epsilon_seqs, levels)
    def test_exponent_matches_circular_level(self, e, m):
        from btlab.invariants import circular_level

        summary = classify_components(build_gamma_graph(e, m))
        level = circular_level(e)
        if level is None or level > m - 1:
            expected = 0
        else:
            expected = (m - level) * len(e)
        assert sum(c.weight for c in summary.cycles) == expected
