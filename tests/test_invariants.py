import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import btlab.invariants
from btlab.cli import main
from btlab.errors import InputError
from btlab.invariants import (
    MAX_LEVEL,
    MAX_REPORT_SIZE,
    ORBIT_ROW_COST,
    Segment,
    a_n,
    circular_level,
    component_exponent,
    gamma,
    invariant_report,
    isomorphism_number,
    level_histogram,
    orbit_profiles,
    segment_scan,
)
from btlab.permutations import (
    Permutation,
    Signature,
    epsilon_sequence,
    pair_orbit_count,
    pair_orbits,
    parse_permutation,
)

epsilon_seqs = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=12).map(tuple)
long_epsilon_seqs = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=60).map(tuple)

REPORT_TOO_LARGE = r"orbits \* \(max level \+ 50\) must be <= 2000000"


def reference_segment_scan(e):
    """The definition, walked out: from every -1, follow the cyclic partial
    sums for at most |e| steps until they first return to 0."""
    l = len(e)
    segments = []
    for s0 in range(l):
        if e[s0] != -1:
            continue
        total = 0
        deepest = 0
        for k in range(l):
            total += e[(s0 + k) % l]
            deepest = min(deepest, total)
            if total == 0:
                segments.append(Segment(s0 + 1, k + 1, -deepest))
                break
    return tuple(segments)


def long_cycle(h):
    return parse_permutation("(" + " ".join(str(i) for i in range(1, h + 1)) + ")")


class TestSegmentScan:
    def test_wrapping_segment(self):
        assert segment_scan((0, 1, 0, -1)) == (Segment(4, 3, 1),)

    def test_nested_levels(self):
        assert segment_scan((1, 1, -1, -1)) == (
            Segment(3, 4, 2),
            Segment(4, 2, 1),
        )

    def test_all_zero_has_no_segments(self):
        assert segment_scan((0, 0, 0, 0)) == ()

    def test_three_level_example(self):
        segs = segment_scan((-1, 0, -1, -1, 1, 1, 0, 1))
        assert set(segs) == {Segment(1, 8, 3), Segment(3, 4, 2), Segment(4, 2, 1)}

    def test_full_length_segment_when_total_is_zero(self):
        assert segment_scan((-1, 0, -1, 1, 0, 1)) == (
            Segment(1, 6, 2),
            Segment(3, 2, 1),
        )

    @given(long_epsilon_seqs)
    @example((-1,))
    @example((0,))
    @example((1,))
    @example((-1,) * 7)
    @example((0,) * 7)
    @example((-1, 0, -1, 1, 0, 1))
    @example((1, 1, -1, -1))
    def test_matches_quadratic_reference(self, e):
        assert segment_scan(e) == reference_segment_scan(e)

    def test_matches_reference_on_every_short_sequence(self):
        count = 0
        for l in range(1, 9):
            for e in itertools.product((-1, 0, 1), repeat=l):
                assert segment_scan(e) == reference_segment_scan(e), e
                count += 1
        assert count == 9840

    def test_matches_reference_on_long_sequences(self):
        rng = random.Random(2024)
        for _ in range(200):
            l = rng.randint(50, 400)
            e = tuple(rng.choice((-1, 0, 1)) for _ in range(l))
            assert segment_scan(e) == reference_segment_scan(e)

    def test_unbalanced_start_yields_nothing(self):
        assert segment_scan((-1, 0)) == ()
        assert segment_scan((-1,)) == ()

    @given(epsilon_seqs)
    def test_one_segment_per_start_and_bounded_length(self, e):
        segs = segment_scan(e)
        starts = [s.start for s in segs]
        assert len(starts) == len(set(starts))
        for s in segs:
            assert 1 <= s.length <= len(e)
            assert e[s.start - 1] == -1
            assert e[(s.start - 1 + s.length - 1) % len(e)] == 1
            partial = 0
            for k in range(s.length):
                partial += e[(s.start - 1 + k) % len(e)]
                if k < s.length - 1:
                    assert -s.level <= partial < 0
            assert partial == 0
            assert min(
                sum(e[(s.start - 1 + i) % len(e)] for i in range(k + 1))
                for k in range(s.length)
            ) == -s.level


class TestAn:
    def test_square_orbit_counts(self):
        e = (1, 1, -1, -1)
        assert (a_n(e, 1), a_n(e, 2), a_n(e, 3)) == (1, 1, 0)

    def test_zero_orbit(self):
        assert all(a_n((0, 0, 0, 0), n) == 0 for n in range(1, 5))

    def test_minimal_orbit(self):
        assert a_n((0, -1, 1, -1, 1), 1) == 2

    @given(epsilon_seqs)
    def test_negation_symmetry(self, e):
        neg = tuple(-v for v in e)
        for n in range(1, len(e) + 1):
            assert a_n(e, n) == a_n(neg, n)


class TestLevelHistogram:
    @given(epsilon_seqs, st.integers(1, 14))
    def test_counts_match_a_n(self, e, max_level):
        assert level_histogram(segment_scan(e), max_level) == [
            a_n(e, n) for n in range(1, max_level + 1)
        ]


class TestCircularLevel:
    @pytest.mark.parametrize(
        "e,expected",
        [
            ((0, 0, 0, 0), 0),
            ((0, 1, 0, -1), 1),
            ((1, 1, -1, -1), 2),
            ((1, 0), None),
        ],
    )
    def test_examples(self, e, expected):
        assert circular_level(e) == expected

    @given(epsilon_seqs)
    def test_negation_invariance(self, e):
        assert circular_level(e) == circular_level(tuple(-v for v in e))

    @given(epsilon_seqs)
    def test_matches_interval_definition(self, e):
        level = circular_level(e)
        if level is None:
            assert sum(e) != 0
            return
        l = len(e)
        doubled = e + e
        sums = [
            abs(sum(doubled[u : u + k + 1]))
            for u in range(l)
            for k in range(l)
        ]
        assert max(sums) == level


class TestGammaAndComponents:
    def setup_method(self):
        self.square = orbit_profiles(parse_permutation("(1 2 3 4)"), Signature(2, 2))
        self.minimal = orbit_profiles(parse_permutation("4,5,1,2,3"), Signature(2, 3))

    def test_gamma_square(self):
        assert gamma(self.square, 1) == 3
        assert gamma(self.square, 2) == 4
        assert gamma(self.square, 5) == 4

    def test_gamma_minimal(self):
        assert gamma(self.minimal, 1) == 6

    def test_gamma_degenerate_signature(self):
        profiles = orbit_profiles(parse_permutation("(1 3 2)"), Signature(0, 3))
        assert all(gamma(profiles, m) == 0 for m in range(1, 5))

    def test_component_exponent_square(self):
        assert component_exponent(self.square, 1) == 4
        assert component_exponent(self.square, 2) == 16
        assert component_exponent(self.square, 3) == 32

    def test_component_exponent_d1_family(self):
        profiles = orbit_profiles(parse_permutation("(1 2 3 4)"), Signature(3, 1))
        assert component_exponent(profiles, 2) == 20
        assert component_exponent(profiles, 2) == 2 * 16 - 3 * 4

    def test_m1_component_exponent_counts_zero_orbits(self):
        for profiles in (self.square, self.minimal):
            expected = sum(
                len(prof.orbit)
                for prof in profiles
                if set(prof.eps) == {0}
            )
            assert component_exponent(profiles, 1) == expected


class TestIsomorphismNumber:
    def test_square(self):
        profiles = orbit_profiles(parse_permutation("(1 2 3 4)"), Signature(2, 2))
        assert isomorphism_number(profiles) == 2

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_d1_family(self, c):
        profiles = orbit_profiles(long_cycle(c + 1), Signature(c, 1))
        assert isomorphism_number(profiles) == 1

    @pytest.mark.parametrize("c,d", [(2, 2), (3, 2), (3, 3), (5, 3), (4, 4)])
    def test_long_cycle_gives_min(self, c, d):
        profiles = orbit_profiles(long_cycle(c + d), Signature(c, d))
        assert isomorphism_number(profiles) == d

    def test_degenerate_signature_is_zero(self):
        profiles = orbit_profiles(parse_permutation("(1 2)"), Signature(2, 0))
        assert isomorphism_number(profiles) == 0

    @pytest.mark.parametrize("h", range(1, 6))
    def test_matches_the_epsilon_rule_on_all_of_s_h(self, h):
        # 0 when every epsilon is 0, else the largest segment level (1 when
        # there is none); the height is 0 at 0, else every segment counts
        for images in itertools.permutations(range(1, h + 1)):
            perm = Permutation(images)
            for d in range(h + 1):
                sig = Signature(h - d, d)
                eps = [epsilon_sequence(o, sig) for o in pair_orbits(perm)]
                segments = [seg for e in eps for seg in reference_segment_scan(e)]
                if all(v == 0 for e in eps for v in e):
                    expected = (0, 0)
                else:
                    expected = (max((s.level for s in segments), default=1), len(segments))
                rep = invariant_report(perm, sig, 1)
                assert (rep.isomorphism_number, rep.specializing_height) == expected
                assert isomorphism_number(rep.profiles) == expected[0]

    def test_no_segments_with_mixed_signature_is_one(self):
        profiles = orbit_profiles(Permutation((1, 2)), Signature(1, 1))
        assert gamma(profiles, 1) == 0
        assert isomorphism_number(profiles) == 1


class TestInvariantReport:
    def test_minimal(self):
        rep = invariant_report(parse_permutation("4,5,1,2,3"), Signature(2, 3), 3)
        assert rep.gamma == (6, 6, 6)
        assert rep.isomorphism_number == 1
        assert rep.specializing_height == 6

    def test_square(self):
        rep = invariant_report(parse_permutation("(1 2 3 4)"), Signature(2, 2), 4)
        assert rep.gamma == (3, 4, 4, 4)
        assert rep.c_exponent == (4, 16, 32, 48)
        assert rep.isomorphism_number == 2
        assert rep.specializing_height == 4

    def test_identity_rank_two(self):
        rep = invariant_report(Permutation((1, 2)), Signature(1, 1), 6)
        assert rep.gamma == (0,) * 6
        assert rep.isomorphism_number == 1
        assert rep.specializing_height == 0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(InputError, match=r"permutation degree 2 != c\+d = 4"):
            invariant_report(Permutation((1, 2)), Signature(2, 2), 3)

    def test_level_floor(self):
        with pytest.raises(InputError, match="max level must be >= 1"):
            invariant_report(Permutation((2, 1)), Signature(1, 1), 0)

    def test_level_cap(self):
        p, sig = Permutation((2, 1)), Signature(1, 1)
        assert len(invariant_report(p, sig, MAX_LEVEL).gamma) == MAX_LEVEL
        with pytest.raises(InputError, match="max level must be <= 10000, got 10001"):
            invariant_report(p, sig, MAX_LEVEL + 1)

    @pytest.mark.parametrize(
        "perm,degree,c,max_level",
        [
            ("(1 2)", 100, 50, MAX_LEVEL),  # 9,802 orbits
            ("(1 2)", 500, 250, 1),  # 249,002 orbits
            ("(1 2 3 4 5)", 1000, 500, 4),  # 992,020 orbits
        ],
    )
    def test_report_size_cap(self, perm, degree, c, max_level):
        p = parse_permutation(perm, degree=degree)
        with pytest.raises(InputError, match=REPORT_TOO_LARGE):
            invariant_report(p, Signature(c, degree - c), max_level)

    def test_report_size_cap_admits_random_h_1000(self):
        for seed in range(5):
            images = list(range(1, 1001))
            random.Random(seed).shuffle(images)
            orbits = pair_orbit_count(Permutation(tuple(images)))
            assert orbits * (10 + ORBIT_ROW_COST) <= MAX_REPORT_SIZE

    def test_report_size_cap_boundary(self):
        # 9,802 orbits fit up to level 154
        p, sig = parse_permutation("(1 2)", degree=100), Signature(50, 50)
        assert len(invariant_report(p, sig, 154).profiles) == 9802
        with pytest.raises(InputError, match=REPORT_TOO_LARGE + r", got 9802 \* \(155 \+ 50\)"):
            invariant_report(p, sig, 155)

    @pytest.mark.parametrize("seed", range(8))
    def test_tables_match_per_level_definitions(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            h = rng.randint(1, 12)
            images = list(range(1, h + 1))
            rng.shuffle(images)
            d = rng.randint(0, h)
            perm, sig = Permutation(tuple(images)), Signature(h - d, d)
            max_level = rng.randint(1, 15)
            rep = invariant_report(perm, sig, max_level)
            levels = range(1, max_level + 1)
            assert rep.gamma == tuple(gamma(rep.profiles, m) for m in levels)
            assert rep.c_exponent == tuple(
                component_exponent(rep.profiles, m) for m in levels
            )


class TestOneScanPerOrbit:
    """The CLI renders every level from one scan per orbit; a per-level
    re-scan would make the call count grow with the level."""

    PERM = "3,5,1,6,2,4"

    @pytest.mark.parametrize("level", [4, 400])
    @pytest.mark.parametrize(
        "command,level_flag", [("invariants", "--max-level"), ("oracle", "--level")]
    )
    def test_scan_calls_equal_orbit_count(self, monkeypatch, capsys, command, level_flag, level):
        calls = []
        real_scan = btlab.invariants.segment_scan

        def counting_scan(e):
            calls.append(e)
            return real_scan(e)

        monkeypatch.setattr(btlab.invariants, "segment_scan", counting_scan)
        code = main([command, "--c", "3", "--d", "3", "--perm", self.PERM,
                     level_flag, str(level), "--format", "json"])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == len(pair_orbits(parse_permutation(self.PERM)))


@st.composite
def perm_and_signature(draw, max_h=7):
    h = draw(st.integers(1, max_h))
    images = tuple(draw(st.permutations(list(range(1, h + 1)))))
    d = draw(st.integers(0, h))
    return Permutation(images), Signature(c=h - d, d=d)


class TestGammaTableProperties:
    @given(perm_and_signature())
    def test_monotone_concave_bounded(self, case):
        p, sig = case
        profiles = orbit_profiles(p, sig)
        table = [gamma(profiles, m) for m in range(1, 9)]
        cd = sig.c * sig.d
        for m in range(len(table)):
            assert table[m] <= cd
        for a, b in zip(table, table[1:]):
            assert a <= b
        diffs = [b - a for a, b in zip(table, table[1:])]
        for a, b in zip(diffs, diffs[1:]):
            assert b <= a

    @given(perm_and_signature())
    def test_ratio_bound(self, case):
        p, sig = case
        profiles = orbit_profiles(p, sig)
        table = {m: gamma(profiles, m) for m in range(1, 9)}
        for m in range(2, 9):
            for n in range(1, m):
                assert table[m] * n <= m * table[n]

    @given(perm_and_signature())
    def test_stabilizes_at_isomorphism_number(self, case):
        p, sig = case
        profiles = orbit_profiles(p, sig)
        n_iso = isomorphism_number(profiles)
        tail = max(n_iso, 1)
        stable = gamma(profiles, tail)
        for m in range(tail, tail + 4):
            assert gamma(profiles, m) == stable
        if n_iso >= 2:
            assert gamma(profiles, n_iso) > gamma(profiles, n_iso - 1)

    @given(perm_and_signature())
    def test_level_one_segments_have_flat_shape(self, case):
        p, sig = case
        for prof in orbit_profiles(p, sig):
            for seg in prof.segments:
                if seg.level != 1:
                    continue
                body = [
                    prof.eps[(seg.start - 1 + k) % len(prof.eps)]
                    for k in range(seg.length)
                ]
                assert body[0] == -1 and body[-1] == 1
                assert set(body[1:-1]) <= {0}
