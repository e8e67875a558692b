"""Exact multivariate polynomials over the integers.

Built for the Witt-law recursions: coefficients are arbitrary-precision
ints, and exponent vectors are packed into a single int key (a fixed bit
field per variable, wide enough that key addition never carries between
fields), so multiplying two monomials is one int addition.  The hot
operation, the multiply-accumulate loop in ``Poly.__mul__``, is plain
Python over dicts; there is no compiled kernel.  Powers split off terms
that share no variable with the rest by the binomial theorem, where each
multiplication by a monomial is a key shift, and otherwise multiply by
the base.  Keys are not checked as they form; ``check_exponents`` checks
a finished result.  ``PolyRing.unpack`` is the one place an exponent
is read out of a key, by shifts precomputed per ring: rendering and
evaluation work on its tuples.  A value is immutable, so it renders at
most once: ``render`` keeps its text on the value.

Division only ever happens by powers of p and must be exact; a remainder
means the integrality guarantee of the Witt construction was violated
somewhere, which is reported as a VerificationError rather than
silently rounded.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import VerificationError, check_range


class PolyRing:
    """Polynomial ring Z[names] with a per-variable exponent cap.

    ``max_exponent`` bounds every exponent that can appear in any value
    of this ring (callers know their degree growth); the packing width
    leaves one spare bit so sums formed inside a product cannot carry.
    Rings compare by identity: values of two separately built rings do
    not mix, even when their names agree.
    """

    def __init__(self, names: Sequence[str], max_exponent: int):
        if not names:
            raise ValueError("ring needs at least one variable")
        check_range(max_exponent, "max_exponent", 1)
        self.names = tuple(names)
        self.max_exponent = max_exponent
        self.bits = (2 * max_exponent).bit_length() + 1
        self._field_mask = (1 << self.bits) - 1
        self._shifts = range(0, self.bits * len(self.names), self.bits)
        # Per field: ``_low`` is all ones below the top bit and ``_top`` the
        # top bit, so (key + _low) & _top marks the nonzero fields of a key
        # (exact while every exponent is below 2 * max_exponent + 2);
        # ``_overflow`` covers the bits that no exponent <= max_exponent sets.
        ones = sum(1 << (self.bits * i) for i in range(len(self.names)))
        self._low = ones * ((1 << (self.bits - 1)) - 1)
        self._top = ones << (self.bits - 1)
        used = max_exponent.bit_length()
        self._overflow = ones * (self._field_mask >> used << used)

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)}; max_exponent={self.max_exponent})"

    # -- exponent packing ------------------------------------------------

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) != len(self.names):
            raise ValueError(f"expected {len(self.names)} exponents, got {len(exponents)}")
        key = 0
        for i, e in enumerate(exponents):
            if not 0 <= e <= self.max_exponent:
                raise ValueError(f"exponent {e} outside 0..{self.max_exponent}")
            key |= e << (self.bits * i)
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = self._field_mask
        return tuple([(key >> s) & mask for s in self._shifts])

    # -- element constructors --------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def constant(self, c: int) -> "Poly":
        return Poly(self, {0: c} if c else {})

    def var(self, i: int, exponent: int = 1, coeff: int = 1) -> "Poly":
        if coeff == 0:
            return self.zero()
        key = self.pack(tuple(exponent if j == i else 0 for j in range(len(self.names))))
        return Poly(self, {key: coeff})


class Poly:
    """Immutable polynomial; don't mutate ``terms`` after construction."""

    __slots__ = ("ring", "terms", "_eval_cache", "_text")

    def __init__(self, ring: PolyRing, terms: dict[int, int]):
        self.ring = ring
        self.terms = terms
        self._eval_cache: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
        self._text: str | None = None

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ring is not other.ring:
            raise ValueError("polynomials from different rings")

    def _merge(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, for sign in {1, -1}."""
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for k, c in other.terms.items():
            s = get(k, 0) + sign * c
            if s:
                out[k] = s
            else:
                del out[k]
        return Poly(self.ring, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._merge(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._merge(other, -1)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        """Multiply-accumulate: each pair of terms adds its packed keys."""
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                prev = get(k)
                if prev is None:
                    out[k] = ca * cb
                else:
                    out[k] = prev + ca * cb
        # signed coefficients can cancel
        return Poly(self.ring, {k: c for k, c in out.items() if c})

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, {k: c * v for k, v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        """f^e, by the rules of ``_power_list``.  With an isolated term only
        f^e itself is expanded from the powers of the rest; without one it
        is the last entry of f's own list."""
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        key = self._isolated_term()
        if key is None:
            return self._power_list(e)[-1]
        return self._binomial(key, self._without(key)._power_list(e), e)

    def _power_list(self, e: int) -> list["Poly"]:
        """[f^0, ..., f^e], cut after the first zero power.

        If a term m = c*X^a shares no variable with the rest r of f, then
        f^k = sum_j C(k, j) c^j X^(j*a) r^(k-j): multiplying by X^(j*a)
        adds j*a to every key of r^(k-j), and no two keys collide.  The
        powers of r come from the same rule.  Otherwise f^k = f^(k-1) * f,
        which beats repeated squaring on sparse polynomials (Fateman 1974).
        """
        key = self._isolated_term()
        if key is None:
            out = [self.ring.constant(1), self][: e + 1]
            while len(out) <= e and out[-1]:
                out.append(out[-1] * self)
            return out
        rest = self._without(key)._power_list(e)
        return [self._binomial(key, rest, k) for k in range(e + 1)]

    def _isolated_term(self) -> int | None:
        """Key of a non-constant term whose variables occur in no other term."""
        low, top = self.ring._low, self.ring._top
        seen = shared = 0
        for key in self.terms:
            support = (key + low) & top  # the top bit of each nonzero field
            shared |= seen & support
            seen |= support
        for key in self.terms:
            if key and not (key + low) & top & shared:
                return key
        return None

    def _without(self, key: int) -> "Poly":
        return Poly(self.ring, {k: c for k, c in self.terms.items() if k != key})

    def _binomial(self, key: int, rest_powers: list["Poly"], e: int) -> "Poly":
        """sum_j C(e, j) m^j r^(e-j) for the isolated term m = c*X^key,
        given ``rest_powers`` = [r^0, r^1, ...]; later powers of r are 0."""
        c = self.terms[key]
        out: dict[int, int] = {}
        formed = 0
        for i in range(min(e + 1, len(rest_powers))):
            part = rest_powers[i].terms
            shift, mult = (e - i) * key, math.comb(e, i) * c ** (e - i)
            out.update({k + shift: mult * v for k, v in part.items()})
            formed += len(part)
        if len(out) != formed:
            raise VerificationError(
                f"keys collided in the powers of {self.render_monomial(key)}"
            )
        return Poly(self.ring, out)

    def check_exponents(self) -> None:
        """Raise VerificationError if an exponent has outgrown the bit length
        of ``max_exponent``: packed keys are never checked as they form."""
        mask = self.ring._overflow
        for key in self.terms:
            if key & mask:
                raise VerificationError(
                    f"an exponent of {self.render_monomial(key)} exceeds "
                    f"max_exponent {self.ring.max_exponent}"
                )

    def divexact(self, d: int) -> "Poly":
        """Divide every coefficient by d, failing loudly on a remainder."""
        out = {}
        for k, c in self.terms.items():
            q, r = divmod(c, d)
            if r:
                mono = self.render_monomial(k)
                raise VerificationError(
                    f"coefficient {c} of {mono} is not divisible by {d}"
                )
            out[k] = q
        return Poly(self.ring, out)

    # -- queries ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and self.ring is other.ring and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def eval_mod(self, values: Sequence[int], p: int) -> int:
        """Evaluate at ``values`` (one per variable) in F_p; p must be prime.

        The first call for a given p caches this polynomial as a function
        on F_p^k: coefficients mod p, and each exponent e >= 1 replaced by
        ((e - 1) mod (p - 1)) + 1, which is exact because a^p = a on F_p.
        Monomials that coincide are merged and zero terms dropped.  A term
        stops at its first factor whose value is 0.
        """
        cached = self._eval_cache.get(p)
        if cached is None:
            cached = self._eval_cache[p] = self._reduced_terms(p)
        total = 0
        for c, factors in cached:
            term = c
            for i, e in factors:
                v = values[i]
                if not v:
                    break
                term *= v if e == 1 else pow(v, e, p)
            else:
                total += term
        return total % p

    def _reduced_terms(self, p: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """``(coeff, ((var, exp), ...))`` per term of the reduced function on F_p."""
        unpack, q = self.ring.unpack, p - 1
        merged: dict[tuple[int, ...], int] = {}
        for key, c in self.terms.items():
            c %= p
            if c:
                exps = tuple(e if e < p else (e - 1) % q + 1 for e in unpack(key))
                merged[exps] = merged.get(exps, 0) + c
        out = []
        for exps, c in merged.items():
            c %= p
            if c:
                out.append((c, tuple((i, e) for i, e in enumerate(exps) if e)))
        return out

    # -- rendering ------------------------------------------------------------

    def render_monomial(self, key: int) -> str:
        return _monomial(self.ring.names, self.ring.unpack(key))

    def render(self) -> str:
        """Canonical text form, e.g. ``x_1 + y_1 - x_0*y_0``: total degree
        ascending, then exponent vector descending.  The first call keeps
        the text on this value and later calls return it."""
        if self._text is None:
            self._text = self._canonical_text()
        return self._text

    def _canonical_text(self) -> str:
        if not self.terms:
            return "0"
        names, unpack = self.ring.names, self.ring.unpack
        # exponent vectors are distinct, and the stable sort by degree keeps
        # them descending within a degree
        terms = sorted(((unpack(k), c) for k, c in self.terms.items()), reverse=True)
        terms.sort(key=lambda term: sum(term[0]))
        text = ""
        for exps, c in terms:
            mono = _monomial(names, exps)
            mag = abs(c)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if text:
                text += f" - {body}" if c < 0 else f" + {body}"
            else:
                text = f"-{body}" if c < 0 else body
        return text

    def __repr__(self):
        return f"Poly({self.render()})"


def _monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    """``x_0^2*y_1`` for exponents (2, 0, 0, 1) of x_0, x_1, y_0, y_1."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
    return "*".join(parts) if parts else "1"
