"""Permutations of {1,...,h} and the orbits of the diagonal action on pairs.

A permutation pi together with a signature (c, d), c + d = h, splits the
square J^2 = {1..h}^2 into three regions:

    J_+ = {(i, j) : i <= d < j},   J_0 = {both <= d or both > d},
    J_- = {(i, j) : j <= d < i}.

An orbit of (pi, pi) acting on J^2 is the tuple of its points in the
order (pi, pi) walks them, with the least pair first.  Every orbit gets
an epsilon-sequence over {-1, 0, +1} (the region of each point).  These
sequences drive all invariant computations downstream.

Indices are 1-based throughout, matching J = {1, ..., h}.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from .errors import InputError, check_range
from .values import Value

EpsilonSeq = tuple[int, ...]
#: One orbit of (pi, pi) on J^2: its points, least pair first.
ProductOrbit = tuple[tuple[int, int], ...]


#: Largest degree h that ``parse_permutation`` accepts.  The invariants
#: walk all h^2 pairs of (pi, pi): a random h = 1000 report computes in
#: about 1.5 s, and its JSON is 82 MB.
MAX_DEGREE = 1000


class Permutation(Value):
    """Bijection of {1,...,h}; images[i-1] = pi(i)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        h = len(images)
        if h == 0:
            raise InputError("permutation has no points")
        seen = set()
        for v in images:
            if not isinstance(v, int) or not 1 <= v <= h:
                raise InputError(f"image {v!r} outside 1..{h}")
            if v in seen:
                raise InputError(f"image {v} appears twice")
            seen.add(v)
        self.images = images

    @property
    def h(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)


class Signature(Value):
    """Codimension c and dimension d; h = c + d."""

    __slots__ = ("c", "d")

    def __init__(self, c: int, d: int):
        if c < 0 or d < 0 or c + d == 0:
            raise InputError(f"signature ({c},{d}) needs c,d >= 0 and c+d > 0")
        self.c = c
        self.d = d

    @property
    def h(self) -> int:
        return self.c + self.d


def check_signature(p: Permutation, sig: Signature) -> None:
    """Refuse a permutation whose degree is not the signature's c + d."""
    if p.h != sig.h:
        raise InputError(f"permutation degree {p.h} != c+d = {sig.h}")


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_point(token: str) -> int:
    token = token.strip()
    if not token:
        raise InputError("empty entry in permutation text")
    if token.isdecimal():  # exactly the characters int() reads as digits
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"token {token!r} is not a positive integer")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse one-line ("4,5,1,2,3") or cycle ("(1 2 3 4)") notation.

    Cycle notation: points not mentioned are fixed; the degree defaults
    to the largest point mentioned and can be raised with ``degree``.
    For one-line notation the degree is the number of entries, which
    must equal ``degree`` when it is given.  Degrees above
    ``MAX_DEGREE`` are refused before any image list is built.
    """
    text = text.strip()
    if not text:
        raise InputError("empty permutation text")
    if text.startswith("("):
        return _parse_cycles(text, degree)
    entries = [_parse_point(tok) for tok in text.split(",")]
    h = len(entries)
    if degree is not None and degree != h:
        raise InputError(f"one-line form has {h} entries, expected {degree}")
    check_range(h, "permutation degree", high=MAX_DEGREE)
    return Permutation(tuple(entries))


def _parse_cycles(text: str, degree: int | None) -> Permutation:
    cycles = []
    consumed = _CYCLE_RE.sub("", text)
    if consumed.strip():
        raise InputError(f"unexpected text {consumed.strip()!r} outside cycle parentheses")
    for body in _CYCLE_RE.findall(text):
        tokens = [t for t in re.split(r"[,\s]+", body.strip()) if t]
        if not tokens:
            raise InputError("empty cycle '()'")
        cycles.append([_parse_point(t) for t in tokens])
    if not cycles:
        raise InputError("no cycles found")
    mentioned = [pt for cyc in cycles for pt in cyc]
    h = max(mentioned) if degree is None else degree
    check_range(h, "permutation degree", high=MAX_DEGREE)
    seen = set()
    for pt in mentioned:
        if pt < 1 or pt > h:
            raise InputError(f"point {pt} outside 1..{h}")
        if pt in seen:
            raise InputError(f"point {pt} appears in two cycle positions")
        seen.add(pt)
    images = list(range(1, h + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles covering {1..h}, each starting at its least element,
    sorted by that element.  Fixed points appear as length-1 cycles."""
    seen = set()
    cycles = []
    for start in range(1, p.h + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = p(start)
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p(nxt)
        cycles.append(tuple(cyc))
    return cycles


def pair_orbits(p: Permutation) -> list[ProductOrbit]:
    """Orbits of (pi,pi) on J^2, canonically rotated and sorted.

    Scanning J^2 in lexicographic order guarantees that each walk starts
    at the orbit's least pair, so discovery order is already canonical.
    Visited pairs are marked in a flat byte array at index a*(h+1) + b.
    """
    h = p.h
    w = h + 1
    img = (0,) + p.images
    seen = bytearray(w * w)
    orbits = []
    for i in range(1, w):
        row = i * w
        for j in range(1, w):
            if seen[row + j]:
                continue
            pts = []
            a, b = i, j
            k = row + j
            while not seen[k]:
                seen[k] = 1
                pts.append((a, b))
                a = img[a]
                b = img[b]
                k = a * w + b
            orbits.append(tuple(pts))
    return orbits


def pair_orbit_count(p: Permutation) -> int:
    """Number of orbits of (pi,pi) on J^2, from the cycle type alone: a
    cycle of length a and one of length b share gcd(a, b) orbits."""
    lengths = Counter(len(cyc) for cyc in cycle_decomposition(p))
    return sum(
        na * nb * math.gcd(a, b) for a, na in lengths.items() for b, nb in lengths.items()
    )


def epsilon_sequence(o: ProductOrbit, sig: Signature) -> EpsilonSeq:
    """The region of each point of o: +1 on J_+, -1 on J_-, 0 on J_0."""
    h, d = sig.h, sig.d
    for i, j in o:
        if not (1 <= i <= h and 1 <= j <= h):
            raise InputError(f"orbit point ({i},{j}) outside 1..{h} square")
    return tuple((i <= d) - (j <= d) for i, j in o)
