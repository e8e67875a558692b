import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btlab.errors import VerificationError
from btlab.polynomials import Poly, PolyRing
from btlab.witt import negation_polynomials, product_polynomials, sum_polynomials


def from_terms(ring, terms):
    """The polynomial of ``ring`` with these (exponent vector, coefficient)
    terms; repeated exponent vectors add up."""
    data: dict[int, int] = {}
    for exponents, coeff in terms:
        key = ring.pack(exponents)
        c = data.get(key, 0) + coeff
        if c:
            data[key] = c
        else:
            data.pop(key, None)
    return Poly(ring, data)


def reference_order(f):
    """Keys of ``f``, total degree ascending, then exponent vector
    descending: the canonical order of terms."""
    def order(key):
        exps = f.ring.unpack(key)
        return (sum(exps), tuple(-e for e in exps))

    return sorted(f.terms, key=order)


def iter_terms(f):
    """(exponent vector, coefficient) pairs of ``f`` in canonical order."""
    for key in reference_order(f):
        yield f.ring.unpack(key), f.terms[key]


def reference_render(f):
    """The canonical text form, built the way ``Poly.render`` used to
    build it: sort the keys, then unpack each one again to render it."""
    if not f.terms:
        return "0"
    pieces = []
    for key in reference_order(f):
        c = f.terms[key]
        parts = []
        for name, e in zip(f.ring.names, f.ring.unpack(key)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        mono = "*".join(parts) if parts else "1"
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def reference_pow(f, e):
    """f^e by repeated squaring, the way ``Poly.__pow__`` used to work."""
    if e < 0:
        raise ValueError("negative powers are not polynomials")
    result = f.ring.constant(1)
    base = f
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def isolated_terms(f):
    """Exponent vectors of the non-constant terms of f whose variables
    occur in no other term."""
    terms = [exps for exps, _ in iter_terms(f)]
    return [
        exps for exps in terms
        if any(exps) and not any(
            other != exps and any(a and b for a, b in zip(exps, other))
            for other in terms
        )
    ]


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
    expected = from_terms(
        ring, [((2, 0, 0, 0), 1), ((1, 0, 1, 0), 2), ((0, 0, 2, 0), 1)]
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
    with pytest.raises(VerificationError, match="coefficient 9 of 1 is not divisible by 2"):
        p.divexact(2)


def test_render_matches_canonical_example(ring):
    s1 = from_terms(
        ring, [((0, 1, 0, 0), 1), ((0, 0, 0, 1), 1), ((1, 0, 1, 0), -1)]
    )
    assert s1.render() == "x_1 + y_1 - x_0*y_0"


def test_render_constants_and_negatives(ring):
    assert ring.zero().render() == "0"
    assert ring.constant(-5).render() == "-5"
    assert (ring.var(0).scale(-1) + ring.constant(2)).render() == "2 - x_0"
    assert ring.var(0, exponent=9, coeff=3).render() == "3*x_0^9"


# 1 to 4 variables; a cap of 12 gives two-digit exponents.
render_rings = [PolyRing([f"x_{i}" for i in range(k)], max_exponent=12) for k in range(1, 5)]


@st.composite
def render_polys(draw):
    """Polynomials in 1-4 variables with exponents up to the cap and
    coefficients that are +-1, negative or many digits long."""
    ring = draw(st.sampled_from(render_rings))
    k = len(ring.names)
    coeff = st.one_of(st.sampled_from([-1, 1]), st.integers(-10**12, 10**12))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, ring.max_exponent)] * k), coeff), max_size=8
    ))
    return from_terms(ring, terms)


@given(render_polys())
@example(render_rings[0].zero())
@example(render_rings[0].constant(1))
@example(render_rings[3].constant(-1))
@example(render_rings[1].var(1, exponent=12, coeff=-1) + render_rings[1].constant(-10))
def test_render_matches_reference(f):
    assert f.render() == reference_render(f)


def test_second_render_returns_the_kept_text_and_reads_no_key(ring, monkeypatch):
    f = from_terms(ring, [((0, 1, 0, 0), 1), ((2, 0, 1, 0), -3), ((0, 0, 0, 0), 7)])
    first = f.render()

    def no_key_read(key):
        raise AssertionError("a kept text reads no key")

    monkeypatch.setattr(ring, "unpack", no_key_read)
    assert f.render() is first
    assert repr(f) == f"Poly({first})"


def test_kept_text_belongs_to_one_value():
    law = sum_polynomials(2, 3)[-1]
    text = law.render()
    key = next(iter(law.terms))
    changed = Poly(law.ring, {**law.terms, key: law.terms[key] + 1})
    assert changed.render() != text
    assert changed.render() == reference_render(changed)
    assert law.render() is text


@pytest.mark.parametrize("p,n", [(13, 3), (3, 4), (7, 3), (11, 3), (2, 5)])
def test_workload_laws_render_as_the_reference(p, n):
    for build in (sum_polynomials, product_polynomials, negation_polynomials):
        for law in build(p, n):
            fresh = Poly(law.ring, law.terms)
            assert fresh.render() == reference_render(law) == law.render()


# 1 to 8 variables; 3162 is the largest p^(n-1) the Witt-law guard admits.
unpack_rings = [
    PolyRing([f"z_{i}" for i in range(k)], max_exponent=cap)
    for k in range(1, 9) for cap in (1, 12, 169, 3162)
]


@pytest.mark.parametrize("ring", unpack_rings, ids=repr)
def test_unpack_inverts_pack_at_the_extremes(ring):
    k, cap = len(ring.names), ring.max_exponent
    for exps in ((0,) * k, (cap,) * k, tuple(cap if i % 2 else 1 for i in range(k))):
        assert ring.unpack(ring.pack(exps)) == exps


@st.composite
def packed_exponents(draw):
    ring = draw(st.sampled_from(unpack_rings))
    exps = draw(st.tuples(*[st.integers(0, ring.max_exponent)] * len(ring.names)))
    return ring, exps


@given(packed_exponents())
def test_unpack_inverts_pack(case):
    ring, exps = case
    assert ring.unpack(ring.pack(exps)) == exps


def test_eval_mod(ring):
    poly = from_terms(ring, [((2, 0, 1, 0), 3), ((0, 1, 0, 0), 1)])
    # 3*x_0^2*y_0 + x_1 at (2, 4, 3, 0) mod 5
    assert poly.eval_mod((2, 4, 3, 0), 5) == (3 * 4 * 3 + 4) % 5


def test_mixed_ring_arithmetic_rejected(ring):
    other = PolyRing(["z"], max_exponent=4)
    with pytest.raises(ValueError):
        ring.var(0) + other.var(0)


def test_rings_with_equal_names_do_not_mix(ring):
    twin = PolyRing(ring.names, max_exponent=ring.max_exponent)
    for op in (Poly.__add__, Poly.__sub__, Poly.__mul__):
        with pytest.raises(ValueError, match="^polynomials from different rings$"):
            op(ring.var(0), twin.var(0))
    assert ring.var(0) != twin.var(0)


# Exponents up to 3 per factor keep a product of three factors within the
# ring's cap of 9.
cubic_ring = PolyRing(["u", "v", "w"], max_exponent=9)
small_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-50, 50),
    ),
    max_size=6,
).map(lambda terms: from_terms(cubic_ring, terms))


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


# Exponents up to 3 per term keep a 12th power within the cap of 36.
power_rings = [PolyRing([f"v_{i}" for i in range(k)], max_exponent=36) for k in range(1, 7)]
exponents = st.integers(0, 3)
coefficients = st.integers(-20, 20)


@st.composite
def sparse_polys(draw):
    """f in 1-6 variables: random terms over the first variables (constants
    and terms that share variables among them), plus monomials in the other
    variables, each of which therefore occurs in one term only."""
    n = draw(st.integers(1, 6))
    ring = power_rings[n - 1]
    shared = draw(st.integers(0, n))
    terms = [
        (exps + (0,) * (n - shared), c)
        for exps, c in draw(st.lists(
            st.tuples(st.tuples(*[exponents] * shared), coefficients), max_size=4
        ))
    ]
    v = shared
    while v < n:
        size = draw(st.integers(1, n - v))
        exps = [0] * n
        for i in range(v, v + size):
            exps[i] = draw(st.integers(1, 3))
        terms.append((tuple(exps), draw(coefficients.filter(bool))))
        v += size
    return from_terms(ring, terms)


three = power_rings[2]
# 0, 1 and several isolated terms, constants and negative coefficients.
NO_ISOLATED = from_terms(three, [((1, 1, 0), 2), ((0, 1, 1), -3), ((1, 0, 1), 1), ((0, 0, 0), 5)])
ONE_ISOLATED = from_terms(three, [((2, 0, 0), -1), ((0, 1, 1), 4), ((0, 2, 1), -2), ((0, 0, 0), 1)])
SEVERAL_ISOLATED = from_terms(three, [((1, 0, 0), 1), ((0, 3, 0), -7), ((0, 0, 2), 2), ((0, 0, 0), -1)])
# v_0*v_1 + v_0: both terms hold v_0, so neither is isolated
SHARED_VARIABLE = from_terms(three, [((1, 1, 0), 1), ((1, 0, 0), 1)])


@pytest.mark.parametrize("f,count", [
    (NO_ISOLATED, 0), (ONE_ISOLATED, 1), (SEVERAL_ISOLATED, 3),
    (three.constant(-4), 0), (three.zero(), 0), (three.var(1, exponent=2, coeff=-3), 1),
    (SHARED_VARIABLE, 0),
])
def test_pow_matches_reference_on_each_shape(f, count):
    assert len(isolated_terms(f)) == count
    assert (f._isolated_term() is None) == (count == 0)
    for e in range(13):
        assert f ** e == reference_pow(f, e)


def test_pow_without_an_isolated_term_multiplies_once_per_power_above_one(monkeypatch):
    # f^0 = 1 and f^1 = f need no product; each later power needs one
    mul, calls = Poly.__mul__, []

    def counted(f, g):
        calls.append((f, g))
        return mul(f, g)

    monkeypatch.setattr(Poly, "__mul__", counted)
    counts = []
    for e in range(5):
        calls.clear()
        power = SHARED_VARIABLE ** e
        counts.append(len(calls))
        assert power == reference_pow(SHARED_VARIABLE, e)
    assert counts == [0, 0, 1, 2, 3]


@settings(max_examples=150, deadline=None)
@given(sparse_polys(), st.integers(0, 12))
def test_pow_matches_reference(f, e):
    assert f ** e == reference_pow(f, e)


@given(sparse_polys())
def test_isolated_term_is_isolated(f):
    key = f._isolated_term()
    if key is None:
        assert not isolated_terms(f)
    else:
        assert f.ring.unpack(key) in isolated_terms(f)


def test_pow_rejects_negative_exponents(ring):
    with pytest.raises(ValueError):
        ring.var(0) ** -1


def test_exponent_check_catches_an_overgrown_exponent(ring):
    overgrown = ring.var(0, exponent=ring.max_exponent) ** 3
    with pytest.raises(VerificationError, match="an exponent of x_0\\^192 exceeds max_exponent 64"):
        overgrown.check_exponents()
    with pytest.raises(VerificationError, match="exceeds max_exponent 64"):
        (ring.var(2) + overgrown).check_exponents()


def test_key_collision_in_a_binomial_expansion_raises(ring):
    # x shares its variable with the rest, so x^1 * x^3 and (x^2)^2 collide
    x = ring.var(0)
    f = x + ring.var(0, exponent=2) + ring.var(0, exponent=3)
    key = next(iter(x.terms))
    with pytest.raises(VerificationError, match="keys collided in the powers of x_0"):
        f._binomial(key, f._without(key)._power_list(2), 2)
