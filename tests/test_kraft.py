import math
from itertools import permutations as all_perms

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlab.kraft import (
    BTClass,
    CircularWord,
    CountMismatch,
    EmptyWord,
    TooManyClasses,
    aperiodic_necklaces,
    canonical_rotation,
    count_bt1,
    dual_word,
    enumerate_bt1,
    is_aperiodic,
    kraft_type,
)
from btlab.permutations import Permutation, Signature, parse_permutation

words = st.text(alphabet="FV", min_size=1, max_size=10)


class TestWords:
    def test_canonical_rotation(self):
        assert canonical_rotation("VF").letters == "FV"
        assert canonical_rotation("VVFF").letters == "FFVV"
        assert canonical_rotation("F").letters == "F"

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWord):
            canonical_rotation("")
        with pytest.raises(EmptyWord):
            CircularWord("")

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            CircularWord("FQ")

    @given(words)
    def test_canonical_is_least_rotation(self, w):
        canon = canonical_rotation(w).letters
        rotations = {w[i:] + w[:i] for i in range(len(w))}
        assert canon in rotations
        assert all(canon <= r for r in rotations)

    def test_aperiodicity(self):
        assert is_aperiodic(CircularWord("FV"))
        assert not is_aperiodic(canonical_rotation("FVFV"))
        assert is_aperiodic(CircularWord("FFVV"))
        assert not is_aperiodic(CircularWord("F" * 6))

    def test_dual_simple_objects(self):
        assert dual_word(CircularWord("F")).letters == "V"
        assert dual_word(CircularWord("V")).letters == "F"

    def test_dual_self_dual_class(self):
        assert dual_word(CircularWord("FFVV")).letters == "FFVV"

    def test_dual_swaps_and_canonicalizes(self):
        assert dual_word(CircularWord("FFV")).letters == "FVV"

    @given(words)
    def test_dual_is_involution(self, w):
        word = canonical_rotation(w)
        assert dual_word(dual_word(word)) == word


class TestKraftType:
    def test_simple_objects(self):
        etale = kraft_type(Permutation((1,)), Signature(c=1, d=0))
        assert etale.render() == "F"
        mult = kraft_type(Permutation((1,)), Signature(c=0, d=1))
        assert mult.render() == "V"

    def test_rank_two_types(self):
        split = kraft_type(Permutation((1, 2)), Signature(1, 1))
        assert [w.letters for w in split.words] == ["F", "V"]
        joined = kraft_type(parse_permutation("(1 2)"), Signature(1, 1))
        assert joined.render() == "FV"
        assert len({split.render(), joined.render()}) == 2

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
            letters = "".join(w.letters for w in cls.words)
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
        letters = "".join(dual_word(w).letters for w in cls.words)
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
            assert w.letters.count("F") == 2 and w.letters.count("V") == 2


class TestCounts:
    @pytest.mark.parametrize("h", range(1, 9))
    def test_binomial_identity(self, h):
        for c in range(h + 1):
            sig = Signature(c=c, d=h - c)
            assert count_bt1(sig) == math.comb(h, c)

    def test_count_examples(self):
        assert count_bt1(Signature(1, 1)) == 2
        assert count_bt1(Signature(2, 3)) == 10
        assert count_bt1(Signature(4, 4)) == 70

    def test_mismatch_error_exists(self):
        assert issubclass(CountMismatch, Exception)

    @pytest.mark.parametrize("c,d", [(7, 7), (5, 9)])
    def test_guard_admits_benchmark_signatures(self, c, d):
        assert count_bt1(Signature(c, d)) == math.comb(c + d, c)

    @pytest.mark.parametrize("c,d", [(14, 14), (9, 9), (0, 41), (0, 10**9)])
    def test_guard_rejects_oversized_signatures(self, c, d):
        with pytest.raises(TooManyClasses, match="c\\+d must be at most"):
            enumerate_bt1(Signature(c, d))


class TestBTClass:
    def test_words_sorted_longest_first(self):
        cls = BTClass((CircularWord("V"), CircularWord("FFV")))
        assert cls.render() == "FFV+V"

    def test_rejects_empty(self):
        with pytest.raises(EmptyWord):
            BTClass(())
