"""Kraft circular words: the level-1 classification.

A level-1 truncated group decomposes into indecomposables indexed by
aperiodic circular words over {F, V} (rotations identified); a class is
a multiset of such words with c letters F and d letters V in total.
Periodic words are not indecomposable - a word u repeated k times stands
for k copies of u - and the letter-swap F<->V realizes Cartier duality.

The word of a permutation cycle reads V at positions i <= d (where the
lift multiplies by p) and F at positions i > d; collecting all cycles
gives the class of the permutation's p-kernel.

An aperiodic circular word in its least rotation is a Lyndon word, and
every word factors uniquely as a non-increasing product of Lyndon words
(Chen-Fox-Lyndon), so the classes of (c, d) correspond to the binomial(c+d, c)
arrangements of c letters F and d letters V; ``enumerate_bt1`` lists them so.

A word is a plain ``str`` in its least rotation, and a ``BTClass`` keeps
its words in the canonical order (longest first, then alphabetical), so
two classes with the same multiset of words compare and hash equal.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

from .errors import InputError
from .permutations import Permutation, Signature, check_signature, cycle_decomposition
from .values import Value


#: enumerate_bt1 refuses signatures with more classes than this, that is
#: binomial(c+d, c), at about 15 us per class before rendering: (8,8) has
#: 12,870 classes and takes 0.19 s, (9,9) 48,620 and 0.75 s, (14,14) 4e7.
MAX_BT1_CLASSES = 20_000
#: Each class costs O(c+d) too, and (0, 10^9) is a single class of 10^9
#: letters, so h is capped as well: (3,37) takes 0.22 s.
MAX_BT1_HEIGHT = 40


def canonical_rotation(letters: str) -> str:
    """The least rotation of a word over {F, V} (F < V)."""
    if not letters:
        raise InputError("circular words must be nonempty")
    if set(letters) - {"F", "V"}:
        raise ValueError(f"letters must be F or V, got {letters!r}")
    return min(letters[i:] + letters[:i] for i in range(len(letters)))


def lyndon_factors(letters: str) -> list[str]:
    """The non-increasing Lyndon factors of ``letters`` (Duval, O(n))."""
    n = len(letters)
    factors = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and letters[k] <= letters[j]:
            k = i if letters[k] < letters[j] else k + 1
            j += 1
        while i <= k:
            factors.append(letters[i : i + j - k])
            i += j - k
    return factors


def _word_sort_key(w: str):
    return (-len(w), w)


class BTClass(Value):
    """Multiset of aperiodic circular words, longest first."""

    __slots__ = ("words",)

    def __init__(self, words: tuple[str, ...]):
        if not words:
            raise InputError("a class needs at least one word")
        self.words = tuple(sorted(words, key=_word_sort_key))

    def render(self) -> str:
        return "+".join(self.words)


def _class_sort_key(cls: BTClass):
    return (len(cls.words), cls.words)


def kraft_type(p: Permutation, sig: Signature) -> BTClass:
    """Class of the p-kernel attached to (pi, c, d).

    Each cycle contributes its letter word; a periodic cycle word u^k
    in its least rotation factors as k copies of its aperiodic root u.
    """
    check_signature(p, sig)
    words = []
    for cyc in cycle_decomposition(p):
        necklace = canonical_rotation("".join("V" if i <= sig.d else "F" for i in cyc))
        words.extend(lyndon_factors(necklace))
    return BTClass(tuple(words))


def _arrangements(f: int, v: int):
    """Every word with f letters F and v letters V, in increasing order."""
    n = f + v
    for positions in combinations(range(n), f):
        letters = ["V"] * n
        for i in positions:
            letters[i] = "F"
        yield "".join(letters)


def aperiodic_necklaces(f: int, v: int) -> list[str]:
    """Aperiodic circular words containing exactly f times F and v times V,
    sorted: the arrangements that are a single Lyndon word."""
    return [s for s in _arrangements(f, v) if len(lyndon_factors(s)) == 1]


def enumerate_bt1(sig: Signature) -> list[BTClass]:
    """All classes, canonically ordered: the Lyndon factors of each arrangement."""
    if sig.h > MAX_BT1_HEIGHT or math.comb(sig.h, sig.c) > MAX_BT1_CLASSES:
        raise InputError(
            f"c+d must be at most {MAX_BT1_HEIGHT} and binomial(c+d, c) at most "
            f"{MAX_BT1_CLASSES}, got ({sig.c},{sig.d})"
        )
    classes = [  # sys.intern: one shared str per distinct word
        BTClass(tuple(map(sys.intern, lyndon_factors(letters))))
        for letters in _arrangements(sig.c, sig.d)
    ]
    return sorted(classes, key=_class_sort_key)

