import pytest
from hypothesis import given
from hypothesis import strategies as st

from btlab.polynomials import NonIntegralCoefficient, PolyRing


@pytest.fixture
def ring():
    return PolyRing(["x_0", "x_1", "y_0", "y_1"], max_exponent=64)


def test_pack_unpack_roundtrip(ring):
    exps = (3, 0, 64, 1)
    assert ring.unpack(ring.pack(exps)) == exps


def test_pack_rejects_out_of_range(ring):
    with pytest.raises(ValueError):
        ring.pack((65, 0, 0, 0))
    with pytest.raises(ValueError):
        ring.pack((0, -1, 0, 0))
    with pytest.raises(ValueError):
        ring.pack((1, 2, 3))


def test_binomial_square(ring):
    x = ring.var(0)
    y = ring.var(2)
    sq = (x + y) ** 2
    expected = ring.from_terms(
        [((2, 0, 0, 0), 1), ((1, 0, 1, 0), 2), ((0, 0, 2, 0), 1)]
    )
    assert sq == expected


def test_subtraction_cancels(ring):
    x = ring.var(0)
    assert not (x - x)
    assert (x - x) == ring.zero()


def test_pow_zero_gives_one(ring):
    assert ring.var(1) ** 0 == ring.constant(1)


def test_divexact(ring):
    p = ring.var(0).scale(6) + ring.constant(9)
    assert p.divexact(3) == ring.var(0).scale(2) + ring.constant(3)
    with pytest.raises(NonIntegralCoefficient, match="9"):
        p.divexact(2)


def test_render_matches_canonical_example(ring):
    s1 = ring.from_terms(
        [((0, 1, 0, 0), 1), ((0, 0, 0, 1), 1), ((1, 0, 1, 0), -1)]
    )
    assert s1.render() == "x_1 + y_1 - x_0*y_0"


def test_render_constants_and_negatives(ring):
    assert ring.zero().render() == "0"
    assert ring.constant(-5).render() == "-5"
    assert (ring.var(0).scale(-1) + ring.constant(2)).render() == "2 - x_0"
    assert ring.var(0, exponent=9, coeff=3).render() == "3*x_0^9"


def test_eval_mod(ring):
    poly = ring.from_terms([((2, 0, 1, 0), 3), ((0, 1, 0, 0), 1)])
    # 3*x_0^2*y_0 + x_1 at (2, 4, 3, 0) mod 5
    assert poly.eval_mod((2, 4, 3, 0), 5) == (3 * 4 * 3 + 4) % 5


def test_mixed_ring_arithmetic_rejected(ring):
    other = PolyRing(["z"], max_exponent=4)
    with pytest.raises(ValueError):
        ring.var(0) + other.var(0)


# Exponents up to 3 per factor keep a product of three factors within the
# ring's cap of 9.
cubic_ring = PolyRing(["u", "v", "w"], max_exponent=9)
small_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-50, 50),
    ),
    max_size=6,
).map(cubic_ring.from_terms)


@given(small_polys, small_polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(small_polys, small_polys, small_polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_polys, small_polys, small_polys)
def test_mul_distributes_over_add_and_sub(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * (b - c) == a * b - a * c


@given(small_polys, small_polys)
def test_add_and_sub_are_inverse(a, b):
    assert (a + b) - b == a
    assert a - b == a + (-b)
    assert 0 not in (a + b).terms.values()


def test_mul_drops_cancelled_terms(ring):
    x, y = ring.var(0), ring.var(2)
    product = (x + y) * (x - y)
    assert product.terms == (x * x - y * y).terms
    assert len(product) == 2
    assert not (x * ring.zero()).terms
