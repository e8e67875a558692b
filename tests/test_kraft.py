import math
from itertools import combinations
from itertools import permutations as all_perms

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlab import kraft
from btlab.kraft import (
    BTClass,
    aperiodic_necklaces,
    canonical_rotation,
    enumerate_bt1,
    kraft_type,
    lyndon_factors,
)
from btlab.errors import InputError, VerificationError
from btlab.permutations import Permutation, Signature, parse_permutation

words = st.text(alphabet="FV", min_size=1, max_size=10)


class CountMismatch(VerificationError):
    pass


def reference_dual_word(w: str) -> str:
    """The Cartier dual of a word: swap F and V, then take the least rotation."""
    return canonical_rotation(w.translate(str.maketrans("FV", "VF")))


def is_aperiodic(w: str) -> bool:
    # a proper power u^k also occurs in w+w at shift |u|
    return (w + w).find(w, 1) == len(w)


def reference_count_bt1(sig):
    """binomial(c+d, c), checked against the classes ``enumerate_bt1`` lists."""
    classes = enumerate_bt1(sig)
    expected = math.comb(sig.h, sig.c)
    distinct = len(set(classes))
    if distinct != expected:
        raise CountMismatch(
            f"enumerated {distinct} distinct classes for (c,d)=({sig.c},{sig.d}), "
            f"expected binomial({sig.h},{sig.c}) = {expected}"
        )
    for w in {w for cls in classes for w in cls.words}:
        if canonical_rotation(w) != w or not is_aperiodic(w):
            raise CountMismatch(f"class word {w} is not aperiodic in its least rotation")
    return distinct


def reference_enumerate_bt1(sig):
    """The definition, searched out: pool every aperiodic necklace of every
    letter content that fits in (c, d), longest first, and backtrack over
    non-decreasing pool indices until the letters are used up."""
    pool = []
    for f in range(sig.c + 1):
        for v in range(sig.d + 1):
            if f + v == 0:
                continue
            found = set()
            for positions in combinations(range(f + v), v):
                letters = ["F"] * (f + v)
                for i in positions:
                    letters[i] = "V"
                found.add(canonical_rotation("".join(letters)))
            pool.extend((w, f, v) for w in found if is_aperiodic(w))
    pool.sort(key=lambda item: (-len(item[0]), item[0]))
    classes = []

    def extend(idx, c_rem, d_rem, acc):
        if c_rem == 0 and d_rem == 0:
            classes.append(BTClass(tuple(acc)))
            return
        for i in range(idx, len(pool)):
            w, f, v = pool[i]
            if f <= c_rem and v <= d_rem:
                acc.append(w)
                extend(i, c_rem - f, d_rem - v, acc)
                acc.pop()

    extend(0, sig.c, sig.d, [])
    return sorted(classes, key=lambda cls: (len(cls.words), cls.words))


def is_lyndon(u):
    """Strictly less than each of its proper rotations."""
    return all(u < u[i:] + u[:i] for i in range(1, len(u)))


def mobius(n):
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


class TestWords:
    def test_canonical_rotation(self):
        assert canonical_rotation("VF") == "FV"
        assert canonical_rotation("VVFF") == "FFVV"
        assert canonical_rotation("F") == "F"

    def test_empty_word_rejected(self):
        with pytest.raises(InputError, match="circular words must be nonempty"):
            canonical_rotation("")

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            canonical_rotation("FQ")

    @given(words)
    def test_canonical_is_least_rotation(self, w):
        canon = canonical_rotation(w)
        rotations = {w[i:] + w[:i] for i in range(len(w))}
        assert canon in rotations
        assert all(canon <= r for r in rotations)

    def test_aperiodicity(self):
        assert is_aperiodic("FV")
        assert not is_aperiodic(canonical_rotation("FVFV"))
        assert is_aperiodic("FFVV")
        assert not is_aperiodic("F" * 6)

    @given(words)
    def test_aperiodic_means_no_proper_period(self, w):
        n = len(w)
        periodic = any(n % q == 0 and w[:q] * (n // q) == w for q in range(1, n))
        assert is_aperiodic(w) is not periodic

    @given(st.text(alphabet="FV", max_size=16))
    def test_lyndon_factors(self, w):
        factors = lyndon_factors(w)
        assert "".join(factors) == w
        assert all(is_lyndon(u) for u in factors)
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_lyndon_factors_examples(self):
        assert lyndon_factors("") == []
        assert lyndon_factors("VFVF") == ["V", "FV", "F"]
        assert lyndon_factors("FVFV") == ["FV", "FV"]
        assert lyndon_factors("FFVFV") == ["FFVFV"]

    def test_dual_simple_objects(self):
        assert reference_dual_word("F") == "V"
        assert reference_dual_word("V") == "F"

    def test_dual_self_dual_class(self):
        assert reference_dual_word("FFVV") == "FFVV"

    def test_dual_swaps_and_canonicalizes(self):
        assert reference_dual_word("FFV") == "FVV"

    @given(words)
    def test_dual_is_involution(self, w):
        word = canonical_rotation(w)
        assert reference_dual_word(reference_dual_word(word)) == word


class TestKraftType:
    def test_simple_objects(self):
        etale = kraft_type(Permutation((1,)), Signature(c=1, d=0))
        assert etale.render() == "F"
        mult = kraft_type(Permutation((1,)), Signature(c=0, d=1))
        assert mult.render() == "V"

    def test_rank_two_types(self):
        split = kraft_type(Permutation((1, 2)), Signature(1, 1))
        assert split.words == ("F", "V")
        joined = kraft_type(parse_permutation("(1 2)"), Signature(1, 1))
        assert joined.render() == "FV"
        assert len({split.render(), joined.render()}) == 2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(InputError, match=r"permutation degree 2 != c\+d = 3"):
            kraft_type(Permutation((1, 2)), Signature(1, 2))

    def test_periodic_cycle_word_splits(self):
        # d = 2: cycle (1 2) reads "VV" and (3 4) reads "FF"; both are
        # periodic and split into repeated singletons
        cls = kraft_type(parse_permutation("(1 2)(3 4)"), Signature(c=2, d=2))
        assert cls.render() == "F+F+V+V"
        # four-cycle, d = 2: "VVFF" is aperiodic and stays whole
        whole = kraft_type(parse_permutation("(1 2 3 4)"), Signature(c=2, d=2))
        assert whole.render() == "FFVV"

    def test_letter_counts_match_signature(self):
        p = parse_permutation("(1 3 5)(2 4)")
        for d in range(6):
            sig = Signature(c=5 - d, d=d)
            cls = kraft_type(p, sig)
            letters = "".join(cls.words)
            assert letters.count("F") == sig.c
            assert letters.count("V") == sig.d

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_image_over_sh_equals_enumeration(self, h):
        for d in range(h + 1):
            sig = Signature(c=h - d, d=d)
            image = {
                kraft_type(Permutation(images), sig).render()
                for images in all_perms(range(1, h + 1))
            }
            expected = {cls.render() for cls in enumerate_bt1(sig)}
            assert image == expected

    def test_dual_type_lands_in_swapped_signature(self):
        p = parse_permutation("(1 2 3 4 5)")
        cls = kraft_type(p, Signature(c=3, d=2))
        letters = "".join(reference_dual_word(w) for w in cls.words)
        assert letters.count("F") == 2 and letters.count("V") == 3


class TestEnumeration:
    def test_rank_two(self):
        rendered = [cls.render() for cls in enumerate_bt1(Signature(1, 1))]
        assert sorted(rendered) == ["F+V", "FV"]

    def test_square_signature_lists_six_classes(self):
        rendered = {cls.render() for cls in enumerate_bt1(Signature(2, 2))}
        assert rendered == {"FFVV", "FV+FV", "FFV+V", "FVV+F", "FV+F+V", "F+F+V+V"}

    def test_pure_etale(self):
        rendered = [cls.render() for cls in enumerate_bt1(Signature(2, 0))]
        assert rendered == ["F+F"]

    def test_all_words_aperiodic(self):
        for cls in enumerate_bt1(Signature(3, 3)):
            assert all(is_aperiodic(w) for w in cls.words)

    def test_deterministic_order(self):
        a = [cls.render() for cls in enumerate_bt1(Signature(3, 2))]
        b = [cls.render() for cls in enumerate_bt1(Signature(3, 2))]
        assert a == b == sorted(a, key=lambda s: (s.count("+"), s))

    def test_necklace_contents(self):
        for w in aperiodic_necklaces(2, 2):
            assert w.count("F") == 2 and w.count("V") == 2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_necklace_count_formula(self, n):
        # (1/n) * sum over k | gcd(f, v) of mu(k) * binomial(n/k, f/k)
        for f in range(n + 1):
            g = math.gcd(f, n - f)
            total = sum(
                mobius(k) * math.comb(n // k, f // k) for k in range(1, g + 1) if g % k == 0
            )
            necklaces = aperiodic_necklaces(f, n - f)
            assert len(necklaces) * n == total
            assert necklaces == sorted(necklaces)
            assert all(canonical_rotation(w) == w for w in necklaces)

    @pytest.mark.parametrize("h", range(1, 11))
    def test_matches_reference(self, h):
        for c in range(h + 1):
            sig = Signature(c, h - c)
            expected = [cls.render() for cls in reference_enumerate_bt1(sig)]
            assert [cls.render() for cls in enumerate_bt1(sig)] == expected

    def test_words_are_shared(self):
        classes = enumerate_bt1(Signature(3, 3))
        words = [w for cls in classes for w in cls.words]
        assert len({id(w) for w in words}) == len(set(words))


class TestCounts:
    @pytest.mark.parametrize("h", range(1, 9))
    def test_binomial_identity(self, h):
        for c in range(h + 1):
            sig = Signature(c=c, d=h - c)
            assert reference_count_bt1(sig) == math.comb(h, c)

    def test_count_examples(self):
        assert reference_count_bt1(Signature(1, 1)) == 2
        assert reference_count_bt1(Signature(2, 3)) == 10
        assert reference_count_bt1(Signature(4, 4)) == 70

    def test_mismatch_error_exists(self):
        assert issubclass(CountMismatch, Exception)

    def test_unfactored_words_fail_the_word_check(self, monkeypatch):
        monkeypatch.setattr(kraft, "lyndon_factors", lambda s: [s])
        with pytest.raises(CountMismatch, match="not aperiodic"):
            reference_count_bt1(Signature(2, 2))

    def test_single_letters_fail_the_distinct_count(self, monkeypatch):
        monkeypatch.setattr(kraft, "lyndon_factors", list)
        with pytest.raises(CountMismatch, match="distinct classes"):
            reference_count_bt1(Signature(2, 2))

    @pytest.mark.parametrize("c,d", [(7, 7), (5, 9)])
    def test_guard_admits_benchmark_signatures(self, c, d):
        assert reference_count_bt1(Signature(c, d)) == math.comb(c + d, c)

    @pytest.mark.parametrize("c,d", [(14, 14), (9, 9), (0, 41), (0, 10**9)])
    def test_guard_rejects_oversized_signatures(self, c, d):
        with pytest.raises(InputError, match="c\\+d must be at most 40 and binomial"):
            enumerate_bt1(Signature(c, d))


class TestBTClass:
    def test_words_sorted_longest_first(self):
        cls = BTClass(("V", "FFV"))
        assert cls.render() == "FFV+V"

    def test_equal_words_in_any_order_make_equal_classes(self):
        a = BTClass(("V", "FV", "FFV", "F", "FV"))
        b = BTClass(("FV", "F", "FFV", "FV", "V"))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.words == b.words == ("FFV", "FV", "FV", "F", "V")
        assert a.render() == b.render() == "FFV+FV+FV+F+V"
        assert a != BTClass(("FFV", "FV", "F", "V"))

    def test_rejects_empty(self):
        with pytest.raises(InputError, match="a class needs at least one word"):
            BTClass(())
