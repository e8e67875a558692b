"""Kraft circular words: the level-1 classification.

A level-1 truncated group decomposes into indecomposables indexed by
aperiodic circular words over {F, V} (rotations identified); a class is
a multiset of such words with c letters F and d letters V in total.
Periodic words are not indecomposable - a word u repeated k times stands
for k copies of u - and the letter-swap F<->V realizes Cartier duality.

The word of a permutation cycle reads V at positions i <= d (where the
lift multiplies by p) and F at positions i > d; collecting all cycles
gives the class of the permutation's p-kernel.  Counting classes for a
signature must give binomial(c+d, c), which is the built-in consistency
check on all of these conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, VerificationError
from .permutations import Permutation, Signature, cycle_decomposition


class EmptyWord(InputError):
    pass


class CountMismatch(VerificationError):
    pass


class TooManyClasses(InputError):
    pass


#: enumerate_bt1 refuses signatures with more classes than this, that is
#: binomial(c+d, c): (8,8) has 12,870 classes and takes 0.7 s, (9,9) has
#: 48,620 and takes 4.8 s, and (14,14) about 4e7.
MAX_BT1_CLASSES = 20_000
#: The word pool grows faster than the class count on lopsided signatures
#: ((0, 10^9) has one class and never finishes), so h is capped as well:
#: (3,37) takes 2.7 s.
MAX_BT1_HEIGHT = 40


@dataclass(frozen=True, order=True)
class CircularWord:
    """Word over {F,V} stored in its least rotation (F < V)."""

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise EmptyWord("circular words must be nonempty")
        if set(self.letters) - {"F", "V"}:
            raise ValueError(f"letters must be F or V, got {self.letters!r}")

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return self.letters


def canonical_rotation(letters: str) -> CircularWord:
    if not letters:
        raise EmptyWord("circular words must be nonempty")
    best = min(letters[i:] + letters[:i] for i in range(len(letters)))
    return CircularWord(best)


def _least_period(letters: str) -> int:
    n = len(letters)
    for q in range(1, n + 1):
        if n % q == 0 and letters[:q] * (n // q) == letters:
            return q
    return n


def is_aperiodic(w: CircularWord) -> bool:
    return _least_period(w.letters) == len(w.letters)


def dual_word(w: CircularWord) -> CircularWord:
    swapped = w.letters.translate(str.maketrans("FV", "VF"))
    return canonical_rotation(swapped)


def _word_sort_key(w: CircularWord):
    return (-len(w.letters), w.letters)


@dataclass(frozen=True)
class BTClass:
    """Multiset of aperiodic circular words, longest first."""

    words: tuple[CircularWord, ...]

    def __post_init__(self):
        if not self.words:
            raise EmptyWord("a class needs at least one word")
        object.__setattr__(self, "words", tuple(sorted(self.words, key=_word_sort_key)))

    def render(self) -> str:
        return "+".join(w.letters for w in self.words)

    def __str__(self):
        return self.render()


def _class_sort_key(cls: BTClass):
    return (len(cls.words), tuple(w.letters for w in cls.words))


def kraft_type(p: Permutation, sig: Signature) -> BTClass:
    """Class of the p-kernel attached to (pi, c, d).

    Each cycle contributes its letter word; a periodic cycle word splits
    into repeats of its aperiodic root.
    """
    if p.h != sig.h:
        raise ValueError(f"permutation degree {p.h} != c+d = {sig.h}")
    words = []
    for cyc in cycle_decomposition(p):
        letters = "".join("V" if i <= sig.d else "F" for i in cyc)
        q = _least_period(letters)
        root = canonical_rotation(letters[:q])
        words.extend([root] * (len(letters) // q))
    return BTClass(tuple(words))


def aperiodic_necklaces(f: int, v: int) -> list[CircularWord]:
    """Aperiodic circular words containing exactly f times F and v times V."""
    n = f + v
    if n == 0:
        return []
    found = set()
    for positions in combinations(range(n), v):
        letters = ["F"] * n
        for i in positions:
            letters[i] = "V"
        found.add(canonical_rotation("".join(letters)))
    return sorted((w for w in found if is_aperiodic(w)), key=_word_sort_key)


def enumerate_bt1(sig: Signature) -> list[BTClass]:
    """All classes for the signature, canonically ordered."""
    if sig.h > MAX_BT1_HEIGHT or math.comb(sig.h, sig.c) > MAX_BT1_CLASSES:
        raise TooManyClasses(
            f"c+d must be at most {MAX_BT1_HEIGHT} and binomial(c+d, c) at most "
            f"{MAX_BT1_CLASSES}, got ({sig.c},{sig.d})"
        )
    pool: list[tuple[CircularWord, int, int]] = []
    for f in range(sig.c + 1):
        for v in range(sig.d + 1):
            if f + v == 0:
                continue
            for w in aperiodic_necklaces(f, v):
                pool.append((w, f, v))
    pool.sort(key=lambda item: _word_sort_key(item[0]))

    classes: list[BTClass] = []

    def extend(idx: int, c_rem: int, d_rem: int, acc: list[CircularWord]):
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
    return sorted(classes, key=_class_sort_key)


def count_bt1(sig: Signature) -> int:
    classes = enumerate_bt1(sig)
    expected = math.comb(sig.h, sig.c)
    if len(classes) != expected:
        raise CountMismatch(
            f"enumerated {len(classes)} classes for (c,d)=({sig.c},{sig.d}), "
            f"expected binomial({sig.h},{sig.c}) = {expected}"
        )
    return len(classes)
