"""Witt vectors: ghost components, the integral ring laws, and W_n(F_p).

The ghost (phantom) polynomials

    w_l = x_0^(p^l) + p*x_1^(p^(l-1)) + ... + p^l*x_l

turn coordinatewise ring operations into polynomial identities: the sum
law S, product law P and negation law I are the unique solutions of

    w_l(S) = w_l(x) + w_l(y),   w_l(P) = w_l(x) * w_l(y),
    w_l(I) = -w_l(x)

and have integer coefficients even though each recursion step divides by
p^l.  We solve the recursions with exact integer arithmetic and assert
the divisibility instead of assuming it.  All three laws of length n
are solved in one ring, Z[x_0..x_{n-1}, y_0..y_{n-1}], behind one guard.

Vector arithmetic over F_p (truncated length n) goes through Z/p^n:

    x -> sum p^i * tau(x_i),   tau(a) = a^(p^(n-1)) mod p^n,

is a ring isomorphism W_n(F_p) -> Z/p^n (tau(a) is the Teichmueller
representative of a), so witt_add, witt_mul and witt_neg add, multiply
or negate residues and peel the digits back off: a = z mod p, then
z <- (z - tau(a)) / p, lifting each digit value once (_tau).  This route
builds no law, so its guard is on the modulus instead: MAX_RESIDUE_BITS.
The laws are kept as the reference that this route is checked against:
law_apply evaluates them componentwise, and it is the only place they
are evaluated; ring_iso_table and the p-fold sum of `witt-check` use it.
Frobenius, Verschiebung, multiplication by p and the Teichmueller lift
act by the componentwise rules

    F(x_0, x_1, ...) = (x_0^p, x_1^p, ...) = x     (a^p = a on F_p)
    V(x_0, x_1, ...) = (0, x_0, x_1, ...)          (top component dropped)
    p(x_0, x_1, ...) = (0, x_0^p, x_1^p, ...) = V(x)
    tau(a) = (a, 0, ..., 0)

and ring_iso_table checks the isomorphism with Z/p^n by building the
full addition and multiplication tables from the laws on the vectors
_vector(m), m in Z/p^n, so it compares the laws with the Z/p^n route on
every pair of W_n(F_p).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, check_range
from .polynomials import Poly, PolyRing
from .values import Value


#: Primes are accepted below this bound, where the Miller-Rabin bases
#: below are a proof of primality, not a probabilistic test.
PRIME_LIMIT = 2**64
# The first 12 primes: as Miller-Rabin bases they decide every n < 3.18e23.
# A multiple of a base is prime only if it is that base, and every other
# n >= 2 is odd and above 37, which the test needs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def check_prime(p: int) -> None:
    if p >= PRIME_LIMIT:
        raise InputError(f"p must be below 2^64, got a {p.bit_length()}-bit number")
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")


#: ring_iso_table checks every pair of the p^n vectors, so it refuses
#: tables with more pairs than this (p^n above 100).
MAX_TABLE_PAIRS = 10_000
#: The laws of length n are built only when the candidate monomials of
#: the top law (see _law_monomials) times p^(n-1), a bound on its
#: coefficient bits, are at most this; as there are more than p^(n-1)
#: monomials, p^(n-1) above isqrt of it is refused uncounted.  It bounds
#: only law building (`witt-polys`, the ring table and the p-fold sum of
#: `witt-check`).  Cold `witt-polys` (Python 3.11, 2-vCPU Linux) takes
#: about 4 s at (3,5) (9,363,762), 0.2 s at (19,3) (9,199,002, 1.45 MB)
#: and 0.5 s at (3137,2) (9,850,180, 2.2 MB); (23,3) at 28,143,858 and
#: (3163,2) at 10,014,058 are refused.
MAX_LAW_SIZE = 10**7
#: Vector arithmetic through Z/p^n is refused when n * bit_length(p), a
#: bound on the bits of p^n, is above this.  Its cost is about one modular
#: power per distinct digit (_tau): the slowest admitted cold `witt-eval`
#: found, (509,56), takes 0.19 s, and (7,170) 0.07 s (Python 3.11, 2-vCPU
#: Linux); above it, (7,341) takes 0.1 s but (10007,72) 1.1 s.
MAX_RESIDUE_BITS = 512


def _power_within(p: int, k: int, limit: int) -> int | None:
    """p**k if it is at most ``limit``, else None; never builds a larger int."""
    value = 1
    for _ in range(k):
        value *= p
        if value > limit:
            return None
    return value


def _law_monomials(p: int, n: int) -> int:
    """Monomials of weight p^(n-1) in x_0..x_{n-1}, y_0..y_{n-1}, with
    x_i and y_i of weight p^i: the terms S_{n-1} can have, since it is
    isobaric of that weight."""
    weight = p ** (n - 1)
    ways = [1] + [0] * weight
    for i in range(n):
        step = p**i
        for _ in range(2):
            for t in range(step, weight + 1):
                ways[t] += ways[t - step]
    return ways[weight]


def _check_law(p: int, n: int) -> None:
    """Validate (p, n) before any law of that length is built."""
    check_prime(p)
    check_range(n, "length", 1)
    weight = _power_within(p, n - 1, math.isqrt(MAX_LAW_SIZE))
    if weight is None or _law_monomials(p, n) * weight > MAX_LAW_SIZE:
        raise InputError(
            f"the top law's candidate monomials times p^(n-1) must be at most "
            f"{MAX_LAW_SIZE} to build the laws, p={p}, n={n} has more"
        )


@lru_cache(maxsize=None)
def _xy_ring(p: int, n: int) -> PolyRing:
    """The one ring of every law of length n; the negation laws leave the
    y variables unused."""
    names = [f"x_{i}" for i in range(n)] + [f"y_{i}" for i in range(n)]
    return PolyRing(names, max_exponent=p ** max(n - 1, 1))


def _ghost_of_vars(ring: PolyRing, p: int, l: int, offset: int) -> Poly:
    """w_l in the ring variables offset..offset+l."""
    acc = ring.zero()
    for i in range(l + 1):
        acc = acc + ring.var(offset + i, exponent=p ** (l - i), coeff=p**i)
    return acc


def _solve_law(p: int, n: int, combine) -> tuple[Poly, ...]:
    """The laws of length n with w_l(law) = combine(w_l(x), w_l(y)) for
    l = 0..n-1, solved in _xy_ring(p, n) once the law guard admits
    (p, n).  Asserts integrality and, once per finished law, that no
    exponent outgrew the ring."""
    _check_law(p, n)
    ring = _xy_ring(p, n)
    out: list[Poly] = []
    for l in range(n):
        rhs = combine(_ghost_of_vars(ring, p, l, 0), _ghost_of_vars(ring, p, l, n))
        for i in range(l):
            rhs = rhs - (out[i] ** (p ** (l - i))).scale(p**i)
        out.append(rhs.divexact(p**l))
    for law in out:
        law.check_exponents()
    return tuple(out)


@lru_cache(maxsize=None)
def sum_polynomials(p: int, n: int) -> tuple[Poly, ...]:
    """S_0..S_{n-1} with w_l(S) = w_l(x) + w_l(y)."""
    return _solve_law(p, n, lambda wx, wy: wx + wy)


@lru_cache(maxsize=None)
def product_polynomials(p: int, n: int) -> tuple[Poly, ...]:
    """P_0..P_{n-1} with w_l(P) = w_l(x) * w_l(y)."""
    return _solve_law(p, n, lambda wx, wy: wx * wy)


@lru_cache(maxsize=None)
def negation_polynomials(p: int, n: int) -> tuple[Poly, ...]:
    """I_0..I_{n-1} with w_l(I) = -w_l(x); for odd p this is just -x_l."""
    return _solve_law(p, n, lambda wx, wy: -wx)


# -- truncated Witt vectors over F_p ------------------------------------------


class WittVec(Value):
    __slots__ = ("p", "components")

    def __init__(self, p: int, components: tuple[int, ...]):
        check_prime(p)
        if len(components) < 1:
            raise InputError("Witt vector needs at least one component")
        self.p = p
        self.components = tuple(a % p for a in components)

    @property
    def n(self) -> int:
        return len(self.components)

    def __str__(self):
        return "(" + ",".join(str(a) for a in self.components) + ")"


def _match(x: WittVec, y: WittVec) -> None:
    if x.p != y.p:
        raise InputError(f"p={x.p} vs p={y.p}")
    if x.n != y.n:
        raise InputError(f"length {x.n} vs {y.n}")


@lru_cache(maxsize=4096)
def _tau(a: int, p: int, n: int) -> int:
    """a^(p^(n-1)) mod p^n; a vector has at most 73 distinct digits under
    MAX_RESIDUE_BITS, and the bound keeps large p from growing the cache."""
    return pow(a, p ** (n - 1), p**n)


def _residue(x: WittVec) -> int:
    """The image of x in Z/p^n: sum p^i * tau(x_i), not reduced mod p^n."""
    p, n = x.p, x.n
    if n * p.bit_length() > MAX_RESIDUE_BITS:
        raise InputError(
            f"n * bit_length(p) must be at most {MAX_RESIDUE_BITS} for arithmetic "
            f"in Z/p^n, p={p}, n={n} has {n * p.bit_length()}"
        )
    return sum(p**i * _tau(a, p, n) for i, a in enumerate(x.components))


def _vector(z: int, p: int, n: int) -> WittVec:
    """The vector whose image in Z/p^n is z mod p^n, peeled one digit at a
    time: a = z mod p, then z <- (z - tau(a)) / p, which is exact because
    tau(a) = a mod p."""
    digits = []
    for _ in range(n):
        a = z % p
        digits.append(a)
        z = (z - _tau(a, p, n)) // p
    return WittVec(p, tuple(digits))


def witt_add(x: WittVec, y: WittVec) -> WittVec:
    _match(x, y)
    return _vector(_residue(x) + _residue(y), x.p, x.n)


def witt_mul(x: WittVec, y: WittVec) -> WittVec:
    _match(x, y)
    return _vector(_residue(x) * _residue(y), x.p, x.n)


def witt_neg(x: WittVec) -> WittVec:
    return _vector(-_residue(x), x.p, x.n)


def law_apply(
    laws: tuple[Poly, ...], x: tuple[int, ...], y: tuple[int, ...], p: int
) -> tuple[int, ...]:
    """The laws evaluated at (x, y) over F_p, one component per law; y is
    () for the negation laws.  The only evaluation of the laws, so a
    caller that reads them from this module at call time tests whatever
    law is bound there."""
    values = x + y
    return tuple(law.eval_mod(values, p) for law in laws)


def frobenius(x: WittVec) -> WittVec:
    return x


def verschiebung(x: WittVec) -> WittVec:
    return WittVec(x.p, (0,) + x.components[:-1])


def p_multiple(x: WittVec) -> WittVec:
    return verschiebung(x)


def teichmuller(a: int, p: int, n: int) -> WittVec:
    return WittVec(p, (a,) + (0,) * (n - 1))


class RingIsoReport(NamedTuple):
    size: int
    passed: bool
    failure: str | None = None


def ring_iso_table(p: int, n: int) -> RingIsoReport:
    """Check W_n(F_p) = Z/p^n via the full addition/multiplication tables.

    The witness map sends m to _vector(m), its digits in the Z/p^n route;
    it must be a bijection onto all p^n vectors and transport both ring
    tables.  Every sum and product here evaluates the laws (law_apply), on
    plain tuples, so the tables compare the laws with that route on every
    pair.  _check_law refuses a length below 1 before any table work.
    """
    check_prime(p)
    size = _power_within(p, n, math.isqrt(MAX_TABLE_PAIRS))
    if size is None:
        raise InputError(
            f"the ring table must be at most {MAX_TABLE_PAIRS} pairs of vectors, "
            f"p={p}, n={n} has more"
        )
    add, mul = sum_polynomials(p, n), product_polynomials(p, n)
    vec_of = [_vector(m, p, n).components for m in range(size)]
    if len(set(vec_of)) != size:
        return RingIsoReport(size, False, "the digit map m -> _vector(m) is not injective")
    for a, x in enumerate(vec_of):
        for b, y in enumerate(vec_of):
            if law_apply(add, x, y, p) != vec_of[(a + b) % size]:
                return RingIsoReport(size, False, f"addition table fails at ({a},{b})")
            if law_apply(mul, x, y, p) != vec_of[a * b % size]:
                return RingIsoReport(size, False, f"multiplication table fails at ({a},{b})")
    return RingIsoReport(size, True)
