import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btlab import cli, witt
from btlab.cli import main
from btlab.errors import InputError, VerificationError
from btlab.polynomials import Poly
from btlab.rng import SplitMix64
from btlab.witt import (
    WittVec,
    check_prime,
    frobenius,
    law_apply,
    negation_polynomials,
    p_multiple,
    product_polynomials,
    ring_iso_table,
    sum_polynomials,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
)

from test_polynomials import from_terms, iter_terms, reference_pow, reference_render

GOLDEN = Path(__file__).parent / "golden"


def witt_vecs(p, n):
    return st.tuples(*[st.integers(0, p - 1)] * n).map(lambda c: WittVec(p, c))


# -- ghost and law polynomials -------------------------------------------------


def reference_ghost_polynomial(p, l):
    """The l-th ghost polynomial in variables x_0..x_l."""
    check_prime(p)
    if l < 0:
        raise ValueError("ghost index must be >= 0")
    return witt._ghost_of_vars(witt._xy_ring(p, l + 1), p, l, 0)


def reference_ghost_apply(polys, p, l):
    """w_l evaluated on a vector of polynomials: sum p^i * polys[i]^(p^(l-i))."""
    acc = polys[0].ring.zero()
    for i in range(l + 1):
        acc = acc + (polys[i] ** (p ** (l - i))).scale(p**i)
    return acc


class TestGhost:
    def test_level_zero(self):
        g = reference_ghost_polynomial(2, 0)
        assert g == g.ring.var(0)

    def test_level_one(self):
        g = reference_ghost_polynomial(2, 1)
        assert g == g.ring.var(0, exponent=2) + g.ring.var(1).scale(2)

    def test_level_two_p3(self):
        g = reference_ghost_polynomial(3, 2)
        ring = g.ring
        assert g == (
            ring.var(0, exponent=9)
            + ring.var(1, exponent=3).scale(3)
            + ring.var(2).scale(9)
        )

    def test_rejects_composite(self):
        with pytest.raises(InputError, match="^6 is not prime$"):
            reference_ghost_polynomial(6, 1)

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 3)])
    def test_matches_the_ghost_of_the_law_recursion(self, p, n):
        # sum_polynomials builds w_l(x) and w_l(y) in the ring of x and y
        ring = witt._xy_ring(p, n)
        for l in range(n):
            x_ghost = witt._ghost_of_vars(ring, p, l, 0).render()
            assert reference_ghost_polynomial(p, l).render() == x_ghost
            y_ghost = witt._ghost_of_vars(ring, p, l, n).render()
            assert y_ghost == reference_ghost_polynomial(p, l).render().replace("x_", "y_")


def closed_form_s1(p):
    ring = sum_polynomials(p, 2)[1].ring
    n = 2
    poly = ring.var(1) + ring.var(n + 1)
    for i in range(1, p):
        exps = [0] * (2 * n)
        exps[0] = i
        exps[n] = p - i
        poly = poly + from_terms(ring, [(tuple(exps), -(math.comb(p, i) // p))])
    return poly


@pytest.mark.parametrize("p", [2, 3, 5])
class TestClosedForms:
    def test_s0(self, p):
        s0 = sum_polynomials(p, 1)[0]
        assert s0 == s0.ring.var(0) + s0.ring.var(1)

    def test_s1(self, p):
        assert sum_polynomials(p, 2)[1] == closed_form_s1(p)

    def test_p0(self, p):
        p0 = product_polynomials(p, 1)[0]
        ring = p0.ring
        assert p0 == from_terms(ring, [((1, 1), 1)])

    def test_p1(self, p):
        p1 = product_polynomials(p, 2)[1]
        ring = p1.ring
        # y_0^p x_1 + y_1 x_0^p + p x_1 y_1  (vars: x_0 x_1 y_0 y_1)
        assert p1 == from_terms(
            ring, [((0, 1, p, 0), 1), ((p, 0, 0, 1), 1), ((0, 1, 0, 1), p)]
        )

    def test_negation_head(self, p):
        i0 = negation_polynomials(p, 1)[0]
        assert i0 == -i0.ring.var(0)
        if p > 2:
            for l, poly in enumerate(negation_polynomials(p, 4)):
                assert poly == -poly.ring.var(l)


class TestGhostCompatibility:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
    def test_sum_law(self, p, n):
        laws = sum_polynomials(p, n)
        ring = laws[0].ring
        for l in range(n):
            lhs = reference_ghost_apply(laws, p, l)
            rhs = ring.zero()
            for i in range(l + 1):
                rhs = rhs + ring.var(i, exponent=p ** (l - i), coeff=p**i)
                rhs = rhs + ring.var(n + i, exponent=p ** (l - i), coeff=p**i)
            assert lhs == rhs

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
    def test_product_law(self, p, n):
        laws = product_polynomials(p, n)
        ring = laws[0].ring
        for l in range(n):
            gx = ring.zero()
            gy = ring.zero()
            for i in range(l + 1):
                gx = gx + ring.var(i, exponent=p ** (l - i), coeff=p**i)
                gy = gy + ring.var(n + i, exponent=p ** (l - i), coeff=p**i)
            assert reference_ghost_apply(laws, p, l) == gx * gy

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
    def test_negation_law(self, p, n):
        laws = negation_polynomials(p, n)
        ring = laws[0].ring
        for l in range(n):
            gx = ring.zero()
            for i in range(l + 1):
                gx = gx + ring.var(i, exponent=p ** (l - i), coeff=p**i)
            assert reference_ghost_apply(laws, p, l) == -gx


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2)])
def test_golden_renderings(p, n):
    lines = []
    for name, polys in (
        ("S", sum_polynomials(p, n)),
        ("P", product_polynomials(p, n)),
        ("I", negation_polynomials(p, n)),
    ):
        lines.extend(f"{name}_{l} = {poly.render()}" for l, poly in enumerate(polys))
    expected = (GOLDEN / f"witt_p{p}_n{n}.txt").read_text(encoding="utf-8")
    assert "\n".join(lines) + "\n" == expected


@pytest.mark.parametrize("p,n", [
    (p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for n in range(1, 6) if p ** (n - 1) <= 27
])
def test_laws_render_as_the_reference(p, n):
    for law in all_laws(p, n):
        assert law.render() == reference_render(law)


# -- vector arithmetic --------------------------------------------------------


class TestVectorOps:
    def test_add_matches_z8(self):
        one = WittVec(2, (1, 0, 0))
        assert witt_add(one, one) == WittVec(2, (0, 1, 0))

    def test_additive_identity(self):
        x = WittVec(3, (2, 1))
        assert witt_add(x, WittVec(3, (0, 0))) == x

    def test_multiplicative_identity(self):
        x = WittVec(5, (3, 1, 4))
        assert witt_mul(x, teichmuller(1, 5, 3)) == x

    def test_mul_matches_z4(self):
        # 3 * 1 = 3 in Z/4; 3 = (1,1), 1 = (1,0)
        assert witt_mul(WittVec(2, (1, 1)), WittVec(2, (1, 0))) == WittVec(2, (1, 1))

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
    def test_neg_is_additive_inverse(self, p, n):
        rng = SplitMix64(42)
        zero = WittVec(p, (0,) * n)
        for _ in range(100):
            x = WittVec(p, tuple(rng.below(p) for _ in range(n)))
            assert witt_add(x, witt_neg(x)) == zero

    def test_frobenius_is_identity_on_prime_field_entries(self):
        # a^p = a on F_p, so F fixes every vector and p acts as V
        for p, n in sizes_up_to(100):
            for c in itertools.product(range(p), repeat=n):
                x = WittVec(p, c)
                assert frobenius(x) == x
                assert p_multiple(x) == verschiebung(x)

    def test_verschiebung_shifts(self):
        assert verschiebung(WittVec(2, (1, 1, 0))) == WittVec(2, (0, 1, 1))

    def test_p_multiple_shape(self):
        for a in range(2):
            for b in range(2):
                assert p_multiple(WittVec(2, (a, b))) == WittVec(2, (0, a))

    def test_teichmuller_zero_and_one(self):
        assert teichmuller(0, 3, 2) == WittVec(3, (0, 0))
        assert witt_mul(teichmuller(1, 3, 2), WittVec(3, (2, 2))) == WittVec(3, (2, 2))

    def test_teichmuller_multiplicative_f5(self):
        for a in range(5):
            for b in range(5):
                assert witt_mul(
                    teichmuller(a, 5, 2), teichmuller(b, 5, 2)
                ) == teichmuller(a * b, 5, 2)

    def test_mismatch_errors(self):
        with pytest.raises(InputError, match="^length 1 vs 2$"):
            witt_add(WittVec(2, (1,)), WittVec(2, (1, 0)))
        with pytest.raises(InputError, match="^p=2 vs p=3$"):
            witt_add(WittVec(2, (1, 0)), WittVec(3, (1, 0)))
        with pytest.raises(InputError, match="^4 is not prime$"):
            WittVec(4, (1, 0))
        with pytest.raises(InputError, match="Witt vector needs at least one component"):
            WittVec(2, ())


class TestPrimality:
    @staticmethod
    def trial_division(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    @staticmethod
    def accepted(p):
        try:
            WittVec(p, (1,))
        except InputError as exc:
            assert str(exc) == f"{p} is not prime"
            return False
        return True

    def test_agrees_with_trial_division(self):
        for n in list(range(-3, 3000)) + list(range(2**16 - 500, 2**16 + 3000)):
            assert self.accepted(n) == self.trial_division(n), n

    def test_agrees_with_a_sieve_below_2_to_the_17(self):
        # every n < 2^17 covers the 12 bases, their squares and the small
        # multiples of each, which the Miller-Rabin rounds never see
        bound = 1 << 17
        sieve = bytearray([1]) * bound
        sieve[:2] = b"\0\0"
        for q in range(2, math.isqrt(bound) + 1):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, bound, q)))
        assert [n for n in range(bound) if witt._is_prime(n)] == [
            n for n in range(bound) if sieve[n]
        ]

    @pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**64 - 59])
    def test_large_primes_accepted(self, p):
        assert WittVec(p, (p + 1,)).components == (1,)

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2..23
            (2**32 - 5) * (2**32 - 17),
            2**64 - 1,
        ],
    )
    def test_pseudoprimes_and_composites_rejected(self, n):
        with pytest.raises(InputError, match=f"^{n} is not prime$"):
            WittVec(n, (1,))

    @pytest.mark.parametrize("p", [2**64, 10**400 + 1])
    def test_primes_from_2_to_the_64_rejected(self, p):
        with pytest.raises(InputError, match="^p must be below 2\\^64, got a"):
            WittVec(p, (1,))


class TestOperatorIdentities:
    @settings(max_examples=60)
    @given(witt_vecs(3, 3))
    def test_fv_vf_p(self, x):
        assert frobenius(verschiebung(x)) == p_multiple(x)
        assert verschiebung(frobenius(x)) == p_multiple(x)

    @settings(max_examples=60)
    @given(witt_vecs(2, 4), witt_vecs(2, 4))
    def test_twisted_projection(self, x, y):
        assert witt_mul(x, verschiebung(y)) == verschiebung(witt_mul(frobenius(x), y))

    @settings(max_examples=60)
    @given(witt_vecs(3, 2), witt_vecs(3, 2))
    def test_frobenius_ring_morphism(self, x, y):
        assert frobenius(witt_add(x, y)) == witt_add(frobenius(x), frobenius(y))
        assert frobenius(witt_mul(x, y)) == witt_mul(frobenius(x), frobenius(y))

    @settings(max_examples=40)
    @given(witt_vecs(2, 3), witt_vecs(2, 3), witt_vecs(2, 3))
    def test_ring_axioms(self, x, y, z):
        assert witt_add(x, y) == witt_add(y, x)
        assert witt_mul(x, y) == witt_mul(y, x)
        assert witt_add(witt_add(x, y), z) == witt_add(x, witt_add(y, z))
        assert witt_mul(witt_mul(x, y), z) == witt_mul(x, witt_mul(y, z))
        assert witt_mul(x, witt_add(y, z)) == witt_add(witt_mul(x, y), witt_mul(x, z))


def corrupt_top_law(monkeypatch, build):
    """Raise one coefficient of the top law of (2, 3) that ``build`` makes
    by 1.  The law is then a different function on F_p, so a check that
    really evaluates the polynomial laws must notice."""
    laws = build(2, 3)
    top = laws[-1]
    key = next(iter(top.terms))
    corrupted = Poly(top.ring, {**top.terms, key: top.terms[key] + 1})
    monkeypatch.setattr(witt, build.__name__, lambda p, n: laws[:-1] + (corrupted,))


def corrupt_top_sum_law(monkeypatch):
    corrupt_top_law(monkeypatch, sum_polynomials)


class TestRingIsoTable:
    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1)])
    def test_small_tables_pass(self, p, n):
        report = ring_iso_table(p, n)
        assert report.passed, report.failure
        assert report.size == p**n

    def test_guard(self):
        with pytest.raises(InputError, match="ring table must be at most 10000 pairs"):
            ring_iso_table(2, 17)

    def test_refuses_empty_vectors(self):
        with pytest.raises(InputError, match="^length must be >= 1, got 0$"):
            ring_iso_table(2, 0)

    @pytest.mark.parametrize("p,n", [(313, 2), (99991, 1), (101, 1), (3, 10**9)])
    def test_guard_bounds_pair_count(self, p, n):
        with pytest.raises(InputError, match="must be at most 10000 pairs of vectors"):
            ring_iso_table(p, n)

    def test_guard_admits_largest_table_in_use(self):
        assert ring_iso_table(7, 2).passed

    def test_corrupted_sum_law_fails(self, monkeypatch):
        corrupt_top_sum_law(monkeypatch)
        report = ring_iso_table(2, 3)
        assert not report.passed
        assert report.failure

    def test_corrupted_sum_law_fails_the_identities(self, monkeypatch, capsys):
        # witt-check forms p*x as a p-fold Witt sum, so V(x) = p*x tests the
        # sum law as well; F is the identity, so F(V(x)) and V(F(x)) are one
        # check, and a failing sample is reported once
        corrupt_top_sum_law(monkeypatch)
        code = main(["witt-check", "--p", "2", "--len", "3", "--samples", "20",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["identity_failures"]
        assert all("!= p*x" in msg for msg in doc["identity_failures"])
        # replay the draws (seed 0, x then y per sample): one message per
        # failing sample, so no sample's x appears in two messages
        rng = SplitMix64(0)
        expected = []
        for _ in range(20):
            x = cli._random_vec(rng, 2, 3)
            cli._random_vec(rng, 2, 3)
            if verschiebung(x) != cli._p_fold_sum(x):
                expected.append(f"V(x) != p*x at x={x}")
        assert doc["identity_failures"] == expected

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (7, 2), (2, 5)])
    def test_reversed_digit_map_fails_the_table(self, monkeypatch, p, n):
        # the table sends m to _vector(m), so it compares the laws with the
        # Z/p^n route, and a fault in that route's digits fails it
        digits = witt._vector
        monkeypatch.setattr(
            witt, "_vector", lambda z, p, n: WittVec(p, digits(z, p, n).components[::-1])
        )
        report = ring_iso_table(p, n)
        assert not report.passed
        assert report.failure.startswith("addition table fails at (")

    def test_non_injective_digit_map_fails_the_table(self, monkeypatch):
        # m and m - 1 share a vector for every odd m
        digits = witt._vector
        monkeypatch.setattr(witt, "_vector", lambda z, p, n: digits(z - z % 2, p, n))
        report = ring_iso_table(3, 2)
        assert report == (9, False, "the digit map m -> _vector(m) is not injective")

    def test_corrupted_product_law_fails_the_table(self, monkeypatch, capsys):
        corrupt_top_law(monkeypatch, product_polynomials)
        report = ring_iso_table(2, 3)
        assert not report.passed
        assert report.failure.startswith("multiplication table fails at (")
        code = main(["witt-check", "--p", "2", "--len", "3", "--samples", "20",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["ring_table"].startswith("fail: multiplication table fails")


# -- vector arithmetic through Z/p^n against the laws ----------------------------


def prime_at_most(n):
    while not witt._is_prime(n):
        n -= 1
    return n


def law_route(x, y):
    """Sum, product and negation by evaluating the polynomial laws."""
    p, n = x.p, x.n
    return (
        law_apply(sum_polynomials(p, n), x.components, y.components, p),
        law_apply(product_polynomials(p, n), x.components, y.components, p),
        law_apply(negation_polynomials(p, n), x.components, (), p),
    )


def residue_route(x, y):
    return (witt_add(x, y).components, witt_mul(x, y).components, witt_neg(x).components)


# every length the laws build in well under a second
CROSS_ROUTE_SIZES = (
    [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 5)]
    + [(5, 2), (5, 3), (7, 2), (7, 3), (11, 3), (13, 3)]
)


def sizes_up_to(bound):
    """Every (p, n), n >= 1, with p^n <= bound."""
    return [(p, n) for p in range(2, bound + 1) if witt._is_prime(p)
            for n in range(1, bound.bit_length()) if p**n <= bound]


class TestResidueRoute:
    @pytest.mark.parametrize("p,n", CROSS_ROUTE_SIZES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_the_laws(self, p, n, data):
        x, y = data.draw(witt_vecs(p, n)), data.draw(witt_vecs(p, n))
        assert residue_route(x, y) == law_route(x, y)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 2**64 - 1).map(prime_at_most), data=st.data())
    def test_matches_the_laws_at_length_one(self, p, data):
        x, y = data.draw(witt_vecs(p, 1)), data.draw(witt_vecs(p, 1))
        assert residue_route(x, y) == law_route(x, y)

    def test_matches_the_laws_on_every_pair(self):
        sizes = sizes_up_to(100)
        assert (2, 6) in sizes and (3, 4) in sizes and (97, 1) in sizes
        for p, n in sizes:
            vectors = [WittVec(p, c) for c in itertools.product(range(p), repeat=n)]
            for x in vectors:
                for y in vectors:
                    assert residue_route(x, y) == law_route(x, y), (x, y)

    def test_conversion_round_trips_on_all_of_z_mod_p_to_the_n(self):
        # every size with p^n <= 10^4, sizes the law guard refuses such as
        # (7,4) and (2,7) included, except n = 1 above p = 1000:
        # there tau is a -> a, and the 1,229 primes below 10^4 alone would
        # take half a minute
        sizes = [(p, n) for p, n in sizes_up_to(10_000) if n > 1 or p < 1000]
        for size in ((17, 3), (3, 5), (5, 4), (997, 1), (19, 3), (7, 4), (2, 7), (2, 13)):
            assert size in sizes
        for p, n in sizes:
            q = p**n
            for z in range(q):
                x = witt._vector(z, p, n)
                assert witt._residue(x) % q == z, (p, n, z)

    def test_lifts_each_distinct_digit_once(self):
        x = WittVec(7, tuple(i * i % 7 for i in range(170)))  # digits 0, 1, 2, 4
        witt._tau.cache_clear()
        assert witt._vector(witt._residue(x), 7, 170) == x
        assert witt._tau.cache_info().misses == len(set(x.components)) == 4

    def test_witt_eval_builds_no_law(self, monkeypatch, capsys):
        def refuse(p, n):
            raise AssertionError("a law was built")

        for name in ("sum_polynomials", "product_polynomials", "negation_polynomials"):
            monkeypatch.setattr(witt, name, refuse)
        argv = ["witt-eval", "--p", "3", "--len", "3", "--lhs", "1,2,0", "--rhs", "2,2,1"]
        for fmt, ext in (([], "txt"), (["--format", "json"], "json")):
            assert main(argv + fmt) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / f"witt_eval_p3_n3.{ext}").read_text(encoding="utf-8")

    @settings(max_examples=50, deadline=None)
    @given(x=witt_vecs(10007, 2), y=witt_vecs(10007, 2))
    def test_matches_the_closed_forms_where_no_law_is_built(self, x, y):
        # S_1 = x_1 + y_1 + (x_0^p + y_0^p - (x_0 + y_0)^p) / p and
        # P_1 = x_0^p y_1 + x_1 y_0^p + p x_1 y_1, which is x_0 y_1 + x_1 y_0 mod p
        p, q = 10007, 10007**2
        (x0, x1), (y0, y1) = x.components, y.components
        carry = (pow(x0, p, q) + pow(y0, p, q) - pow(x0 + y0, p, q)) % q // p
        assert witt_add(x, y) == WittVec(p, (x0 + y0, x1 + y1 + carry))
        assert witt_mul(x, y) == WittVec(p, (x0 * y0, x0 * y1 + x1 * y0))

    @pytest.mark.parametrize("p,n", [(10007, 2), (23, 3), (7, 4), (2, 7), (3, 256),
                                     (2**61 - 1, 8), (2**64 - 59, 7)])
    def test_admits_sizes_the_law_guard_refuses(self, p, n):
        assert n * p.bit_length() <= witt.MAX_RESIDUE_BITS
        with pytest.raises(InputError, match=LAW_TOO_LARGE):
            sum_polynomials(p, n)
        x = WittVec(p, tuple(range(1, n + 1)))
        assert witt_add(x, witt_neg(x)) == WittVec(p, (0,) * n)
        assert witt_mul(x, teichmuller(1, p, n)) == x

    @pytest.mark.parametrize("p,n", [(3, 257), (2, 257), (10007, 37), (2**64 - 59, 9)])
    def test_refuses_moduli_above_the_bound(self, p, n):
        assert n * p.bit_length() > witt.MAX_RESIDUE_BITS
        x = WittVec(p, (1,) * n)
        for op in (lambda: witt_add(x, x), lambda: witt_mul(x, x), lambda: witt_neg(x)):
            with pytest.raises(InputError, match=RESIDUE_TOO_LARGE):
                op()


# -- evaluation of the laws as functions on F_p ----------------------------------


def reference_eval(poly, values, p):
    """Sum of c * prod v^e mod p over the unreduced integer terms."""
    total = 0
    for exps, c in iter_terms(poly):
        term = c
        for v, e in zip(values, exps):
            term *= pow(v, e, p)
        total += term
    return total % p


def all_laws(p, n):
    return sum_polynomials(p, n) + product_polynomials(p, n) + negation_polynomials(p, n)


class TestReducedEvaluation:
    @pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_unreduced_reference(self, p, n, data):
        values = data.draw(st.lists(st.integers(-p, 3 * p), min_size=2 * n, max_size=2 * n))
        for law in all_laws(p, n):
            point = values[: len(law.ring.names)]
            assert law.eval_mod(point, p) == reference_eval(law, point, p)

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
    def test_matches_unreduced_reference_everywhere(self, p, n):
        for law in all_laws(p, n):
            for point in itertools.product(range(p), repeat=len(law.ring.names)):
                assert law.eval_mod(point, p) == reference_eval(law, point, p), point

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (11, 3)])
    def test_cache_holds_reduced_terms(self, p, n):
        for law in all_laws(p, n):
            law.eval_mod((0,) * len(law.ring.names), p)
            reduced = law._eval_cache[p]
            assert len(reduced) <= len(law)
            monomials = set()
            for c, factors in reduced:
                assert 0 < c < p
                assert all(1 <= e <= p - 1 for _, e in factors)
                assert [i for i, _ in factors] == sorted({i for i, _ in factors})
                monomials.add(factors)
            assert len(monomials) == len(reduced)

    def test_reduced_sizes_at_2_5(self):
        sizes = [len(law._reduced_terms(2)) for law in all_laws(2, 5)]
        assert sizes[4] == 17  # S_4: 454 integer terms
        assert sizes[9] == 26  # P_4: 710 integer terms


LAWS = (sum_polynomials, product_polynomials, negation_polynomials)


class TestLawPowers:
    @pytest.mark.parametrize("p,n", [(13, 3), (7, 3), (3, 4), (2, 6), (5, 3)])
    def test_laws_match_repeated_squaring(self, monkeypatch, p, n):
        built = [law(p, n) for law in LAWS]
        for law in LAWS:
            law.cache_clear()
        monkeypatch.setattr(Poly, "__pow__", reference_pow)
        try:
            assert [law(p, n) for law in LAWS] == built
        finally:
            for law in LAWS:
                law.cache_clear()

    def test_overgrown_exponent_fails_the_solve(self):
        ring = witt._xy_ring(3, 1)
        overgrown = ring.var(0, exponent=ring.max_exponent) ** 3
        with pytest.raises(VerificationError, match="^an exponent of .* exceeds max_exponent 3$"):
            witt._solve_law(3, 1, lambda wx, wy: overgrown)

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (13, 3)])
    def test_every_law_of_a_length_shares_one_ring(self, p, n):
        ring = negation_polynomials(p, n)[0].ring
        assert ring is sum_polynomials(p, n)[0].ring
        assert ring is product_polynomials(p, n)[0].ring
        assert ring is witt._xy_ring(p, n)


LAW_TOO_LARGE = (
    r"^the top law's candidate monomials times p\^\(n-1\) must be at most 10000000 "
    r"to build the laws, "
)
RESIDUE_TOO_LARGE = r"^n \* bit_length\(p\) must be at most 512 for arithmetic in Z/p\^n, "


class TestLawGuard:
    # every (p, n) of the tests, goldens, README and benchmark workloads,
    # plus the largest laws known to build: (5,4), (3,5), (2,6), (17,3),
    # (19,3) and (3137,2)
    @pytest.mark.parametrize(
        "p,n",
        [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
         (7, 2), (7, 3), (11, 3), (13, 3), (5, 4), (3, 5), (2, 6), (17, 3),
         (19, 3), (3137, 2)],
    )
    def test_admits_sizes_in_use(self, p, n):
        witt._check_law(p, n)

    @pytest.mark.parametrize("p", [2, 10007, 2**61 - 1, 2**64 - 59])
    def test_length_one_admits_any_prime(self, p):
        assert sum_polynomials(p, 1)[0].eval_mod((p - 1, 2), p) == 1

    @pytest.mark.parametrize(
        "p,n", [(10007, 2), (23, 3), (3163, 2), (7, 4), (2, 7), (3, 6), (2, 10**9)]
    )
    def test_rejects_oversized_laws(self, p, n):
        for build in (sum_polynomials, product_polynomials, negation_polynomials):
            with pytest.raises(InputError, match=LAW_TOO_LARGE):
                build(p, n)

    def test_rejects_empty_laws(self):
        for build in (sum_polynomials, product_polynomials, negation_polynomials):
            with pytest.raises(InputError, match="^length must be >= 1, got 0$"):
                build(2, 0)
