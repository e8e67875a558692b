import re
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlab.errors import InputError
from btlab.permutations import (
    MAX_DEGREE,
    Permutation,
    Signature,
    cycle_decomposition,
    epsilon_sequence,
    pair_orbit_count,
    pair_orbits,
    parse_permutation,
)


def reference_pair_orbits(p):
    """Lexicographic scan of J^2 with visited pairs kept as a set of tuples."""
    seen = set()
    orbits = []
    for i in range(1, p.h + 1):
        for j in range(1, p.h + 1):
            pts = []
            a, b = i, j
            while (a, b) not in seen:
                seen.add((a, b))
                pts.append((a, b))
                a, b = p(a), p(b)
            if pts:
                orbits.append(tuple(pts))
    return orbits


def perms(max_h=7):
    return st.integers(1, max_h).flatmap(
        lambda h: st.permutations(list(range(1, h + 1)))
    ).map(lambda images: Permutation(tuple(images)))


class TestParsing:
    def test_one_line(self):
        p = parse_permutation("4,5,1,2,3")
        assert p.images == (4, 5, 1, 2, 3)
        assert p(1) == 4 and p(5) == 3

    def test_cycle_form(self):
        p = parse_permutation("(1 2 3 4)")
        assert p.images == (2, 3, 4, 1)

    def test_identity_one_line(self):
        assert parse_permutation("1,2,3").images == (1, 2, 3)

    def test_cycle_with_commas_and_multiple_cycles(self):
        p = parse_permutation("(1,3)(2 4)")
        assert p.images == (3, 4, 1, 2)

    def test_cycle_degree_defaults_to_max_point(self):
        assert parse_permutation("(1 3)").h == 3

    def test_cycle_degree_override_fixes_unlisted_points(self):
        p = parse_permutation("(1 2)", degree=4)
        assert p.images == (2, 1, 3, 4)

    def test_degree_below_mentioned_point_rejected(self):
        with pytest.raises(InputError, match="^point 5 outside 1..3$"):
            parse_permutation("(1 5)", degree=3)

    def test_duplicate_image_names_token(self):
        with pytest.raises(InputError, match="^image 2 appears twice$"):
            parse_permutation("2,2,1")
        with pytest.raises(InputError, match="^point 3 appears in two cycle positions$"):
            parse_permutation("(1 3)(3 2)")

    def test_out_of_range_names_token(self):
        with pytest.raises(InputError, match="^image 7 outside 1..3$"):
            parse_permutation("1,7,3")
        with pytest.raises(InputError, match="^token 'x' is not a positive integer$"):
            parse_permutation("1,x,3")

    @pytest.mark.parametrize("token", ["\u00b2", "18\u00b9\u00b3", "-1", "+1", "1_0", "1.0"])
    def test_non_decimal_tokens_name_the_token(self, token):
        # str.isdigit() accepts superscripts that int() rejects
        refusal = "^" + re.escape(f"token {token!r} is not a positive integer") + "$"
        with pytest.raises(InputError, match=refusal):
            parse_permutation(f"{token},1")
        with pytest.raises(InputError, match=refusal):
            parse_permutation(f"({token} 1)")

    def test_other_decimal_digits_are_read(self):
        # Arabic-Indic digits are decimal, and int() reads them
        assert parse_permutation("\u0662,\u0661").images == (2, 1)
        assert parse_permutation("(\u0661 \u0662)").images == (2, 1)

    def test_more_digits_than_int_reads_is_refused(self):
        token = "1" * 5000
        with pytest.raises(InputError, match="is not a positive integer$"):
            parse_permutation(f"{token},1")

    def test_empty_inputs(self):
        with pytest.raises(InputError, match="^empty permutation text$"):
            parse_permutation("")
        with pytest.raises(InputError, match="^empty cycle '\\(\\)'$"):
            parse_permutation("()")
        with pytest.raises(InputError, match="^empty entry in permutation text$"):
            parse_permutation("1,,2")

    def test_one_line_degree_mismatch(self):
        with pytest.raises(InputError, match="^one-line form has 2 entries, expected 3$"):
            parse_permutation("2,1", degree=3)

    def test_degree_guard(self):
        # h = 1000 is admitted in both notations, one more is not
        assert parse_permutation("(1 2)", degree=MAX_DEGREE).h == 1000
        one_line = ",".join(str(i) for i in range(1, MAX_DEGREE + 1))
        assert parse_permutation(one_line).h == 1000
        too_large = "^permutation degree must be <= 1000, got "
        with pytest.raises(InputError, match=too_large + "1001$"):
            parse_permutation("(1 2)", degree=MAX_DEGREE + 1)
        with pytest.raises(InputError, match=too_large + "1001$"):
            parse_permutation(one_line + ",1001")
        with pytest.raises(InputError, match=too_large + "1000000000000$"):
            parse_permutation("(1 2)", degree=10**12)
        with pytest.raises(InputError, match=too_large + f"{10**20}$"):
            parse_permutation(f"(1 {10**20})")

    def test_formats_agree(self):
        assert parse_permutation("4,5,1,2,3") == parse_permutation("(1 4 2 5 3)")


class TestCycleDecomposition:
    def test_identity(self):
        assert cycle_decomposition(Permutation((1, 2))) == [(1,), (2,)]

    def test_single_cycle(self):
        assert cycle_decomposition(parse_permutation("(1 2 3 4)")) == [(1, 2, 3, 4)]

    def test_minimal_example(self):
        assert cycle_decomposition(parse_permutation("4,5,1,2,3")) == [(1, 4, 2, 5, 3)]

    def test_cycles_start_at_least_element(self):
        cycles = cycle_decomposition(parse_permutation("(3 5)(2 4)", degree=5))
        assert cycles == [(1,), (2, 4), (3, 5)]


class TestPairOrbits:
    def test_minimal_example_contains_paper_orbit(self):
        orbits = pair_orbits(parse_permutation("4,5,1,2,3"))
        assert ((1, 2), (4, 5), (2, 3), (5, 1), (3, 4)) in orbits

    def test_identity_h2_four_singletons(self):
        orbits = pair_orbits(Permutation((1, 2)))
        assert orbits == [
            ((1, 1),),
            ((1, 2),),
            ((2, 1),),
            ((2, 2),),
        ]

    def test_transposition(self):
        orbits = pair_orbits(parse_permutation("(1 2)"))
        assert orbits == [
            ((1, 1), (2, 2)),
            ((1, 2), (2, 1)),
        ]

    @pytest.mark.parametrize("h", range(1, 6))
    def test_matches_set_of_tuples_reference_on_all_of_s_h(self, h):
        for images in permutations(range(1, h + 1)):
            p = Permutation(images)
            assert pair_orbits(p) == reference_pair_orbits(p)

    def test_format_invariance(self):
        a = pair_orbits(parse_permutation("4,5,1,2,3"))
        b = pair_orbits(parse_permutation("(1 4 2 5 3)"))
        assert a == b

    @given(perms())
    def test_orbits_partition_the_square(self, p):
        orbits = pair_orbits(p)
        everything = [pt for o in orbits for pt in o]
        assert len(everything) == p.h * p.h
        assert set(everything) == {
            (i, j) for i in range(1, p.h + 1) for j in range(1, p.h + 1)
        }

    @given(perms(max_h=12))
    def test_orbit_count_from_cycle_type(self, p):
        assert pair_orbit_count(p) == len(pair_orbits(p))

    def test_orbit_count_examples(self):
        # 995 fixed points and a 5-cycle: 995^2 + 2*995 + 5 orbits
        p = parse_permutation("(1 2 3 4 5)", degree=1000)
        assert pair_orbit_count(p) == 992_020
        assert pair_orbit_count(parse_permutation("(1 2 3 4)(5 6)")) == 4 + 2 * 2 + 2

    @given(perms())
    def test_orbits_canonical(self, p):
        orbits = pair_orbits(p)
        reps = [o[0] for o in orbits]
        assert reps == sorted(reps)
        for o in orbits:
            assert o[0] == min(o)
            # successor structure: applying (pi,pi) to the last point wraps
            for (a, b), (x, y) in zip(o, o[1:] + o[:1]):
                assert (p(a), p(b)) == (x, y)

    @given(perms(), st.integers(0, 7))
    def test_transpose_closure_and_negation(self, p, d):
        d = min(d, p.h)
        sig = Signature(c=p.h - d, d=d)
        orbits = pair_orbits(p)
        by_points = set(orbits)
        for o in orbits:
            flipped = tuple((j, i) for i, j in o)
            least = flipped.index(min(flipped))
            canonical = flipped[least:] + flipped[:least]
            assert canonical in by_points
            eps = epsilon_sequence(o, sig)
            eps_t = epsilon_sequence(canonical, sig)
            rotated = eps[least:] + eps[:least]
            assert eps_t == tuple(-v for v in rotated)


class TestEpsilonMu:
    def test_minimal_example_sequence(self):
        p = parse_permutation("4,5,1,2,3")
        sig = Signature(c=2, d=3)
        orbit = next(o for o in pair_orbits(p) if o[0] == (1, 2))
        assert epsilon_sequence(orbit, sig) == (0, 0, 0, -1, 1)

    def test_square_example_sequence(self):
        p = parse_permutation("(1 2 3 4)")
        sig = Signature(c=2, d=2)
        orbit = next(o for o in pair_orbits(p) if o[0] == (1, 3))
        assert epsilon_sequence(orbit, sig) == (1, 1, -1, -1)

    def test_orbit_inside_j0_is_all_zero(self):
        p = parse_permutation("(1 2 3 4)")
        sig = Signature(c=2, d=2)
        orbit = next(o for o in pair_orbits(p) if o[0] == (1, 1))
        assert epsilon_sequence(orbit, sig) == (0, 0, 0, 0)

    @given(perms(), st.integers(0, 7))
    def test_epsilon_sums_to_zero_over_square(self, p, d):
        d = min(d, p.h)
        sig = Signature(c=p.h - d, d=d)
        total = sum(
            sum(epsilon_sequence(o, sig)) for o in pair_orbits(p)
        )
        assert total == 0

    @given(perms(), st.integers(0, 7))
    def test_diagonal_singleton_orbit_epsilon(self, p, d):
        # fixed points of pi give singleton orbits {(i,i)} on the diagonal,
        # which lies in J_0 for every signature
        d = min(d, p.h)
        sig = Signature(c=p.h - d, d=d)
        for o in pair_orbits(p):
            if len(o) == 1 and o[0][0] == o[0][1]:
                assert epsilon_sequence(o, sig) == (0,)

    def test_degenerate_signature_all_zero(self):
        p = parse_permutation("(1 2 3)")
        for sig in (Signature(3, 0), Signature(0, 3)):
            for o in pair_orbits(p):
                assert set(epsilon_sequence(o, sig)) == {0}

    @pytest.mark.parametrize(
        "orbit,bad",
        [
            (((1, 2), (2, 4)), "(2,4)"),
            (((4, 1), (1, 2)), "(4,1)"),
            (((0, 1),), "(0,1)"),
            (((3, 3), (1, -1)), "(1,-1)"),
        ],
    )
    def test_point_outside_the_square_is_refused(self, orbit, bad):
        # an orbit is a plain tuple of points, so one built by hand can
        # leave the h x h square of its signature
        message = re.escape(f"orbit point {bad} outside 1..3 square")
        with pytest.raises(InputError, match=message):
            epsilon_sequence(orbit, Signature(c=1, d=2))
