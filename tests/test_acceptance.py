"""Acceptance suite: one test per release criterion, all exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (the line is also printed without -s but only shown
by pytest for failures).
"""

import math
import sys
import time
from itertools import permutations as all_perms

from btlab.invariants import (
    a_n,
    circular_level,
    gamma,
    invariant_report,
    orbit_profiles,
)
from btlab.kraft import enumerate_bt1, kraft_type
from btlab.permutations import Permutation, Signature, parse_permutation
from btlab.rng import SplitMix64
from btlab.sweep import random_cases, verification_sweep
from btlab.witt import (
    WittVec,
    frobenius,
    negation_polynomials,
    p_multiple,
    product_polynomials,
    ring_iso_table,
    sum_polynomials,
    teichmuller,
    verschiebung,
    witt_mul,
)

from test_kraft import reference_count_bt1
from test_polynomials import from_terms
from test_sweep import random_epsilon_sequences

SWEEP_SEED = 7


def report(number, description):
    print(f"PASS criterion {number:02d}: {description}", file=sys.stderr)


def long_cycle(h):
    return parse_permutation("(" + " ".join(str(i) for i in range(1, h + 1)) + ")")


def test_criterion_01_worked_example_square():
    rep = invariant_report(parse_permutation("(1 2 3 4)"), Signature(2, 2), 4)
    assert rep.gamma == (3, 4, 4, 4)
    assert rep.c_exponent == (4, 16, 32, 48)
    assert rep.isomorphism_number == 2
    assert rep.specializing_height == 4
    report(1, "c=d=2, pi=(1 2 3 4): gamma, c_m, n, s all exact")


def test_criterion_02_minimal_example_orbits():
    p = parse_permutation("4,5,1,2,3")
    sig = Signature(c=2, d=3)
    profiles = orbit_profiles(p, sig)

    def line(prof):
        pts = ",".join(f"({i},{j})" for i, j in prof.orbit)
        eps = ",".join(str(v) for v in prof.eps)
        return f"(({pts})) ({eps})"

    rendered = [line(prof) for prof in profiles]
    assert rendered == [
        "(((1,1),(4,4),(2,2),(5,5),(3,3))) (0,0,0,0,0)",
        "(((1,2),(4,5),(2,3),(5,1),(3,4))) (0,0,0,-1,1)",
        "(((1,3),(4,1),(2,4),(5,2),(3,5))) (0,-1,1,-1,1)",
        "(((1,4),(4,2),(2,5),(5,3),(3,1))) (1,-1,1,-1,0)",
        "(((1,5),(4,3),(2,1),(5,4),(3,2))) (1,-1,0,0,0)",
    ]
    assert gamma(profiles, 1) == 6 == sig.c * sig.d
    report(2, "c=2 d=3 minimal example: five orbit lines byte-exact, gamma(1)=cd=6")


def test_criterion_03_d1_family():
    for c in range(1, 6):
        h = c + 1
        rep = invariant_report(long_cycle(h), Signature(c=c, d=1), 4)
        assert rep.gamma == (c, c, c, c)
        for m in range(1, 5):
            assert rep.c_exponent[m - 1] == m * (c + 1) ** 2 - c * (c + 1)
        assert rep.isomorphism_number == 1
    report(3, "d=1, c=1..5, pi=(1 2 ... h): gamma=c, c_m=m(c+1)^2-c(c+1), n=1")


def test_criterion_04_long_cycle_family():
    start = time.monotonic()
    for h in range(2, 9):
        for d in range(0, h // 2 + 1):
            c = h - d
            rep = invariant_report(long_cycle(h), Signature(c=c, d=d), 6)
            for m in range(1, 7):
                want_gamma = m * (h - m) if m <= d else c * d
                want_cm = m * m * h if m <= d else m * h * h - c * d * h
                assert rep.gamma[m - 1] == want_gamma, (h, c, d, m)
                assert rep.c_exponent[m - 1] == want_cm, (h, c, d, m)
            assert rep.isomorphism_number == d
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"family check took {elapsed:.2f}s"
    report(4, f"pi=(1 2 ... h), d<=c, h<=8: closed forms exact in {elapsed:.2f}s")


def test_criterion_05_oracle_equivalence_sweep():
    start = time.monotonic()
    checks = verification_sweep(samples=200, max_h=7, max_level=4, seed=SWEEP_SEED)
    elapsed = time.monotonic() - start
    failures = [c for c in checks if c is not None]
    assert not failures, failures[0]
    assert len(checks) == 200
    assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"
    report(5, f"200 seeded cases, h<=7, m<=4: oracle == formulas, cycle weights == |O| ({elapsed:.2f}s)")


def test_criterion_06_gamma_table_properties():
    violations = 0
    for p, sig in random_cases(200, 7, seed=SWEEP_SEED):
        profiles = orbit_profiles(p, sig)
        table = [gamma(profiles, m) for m in range(1, 5)]
        cd = sig.c * sig.d
        if any(v > cd for v in table):
            violations += 1
        if any(b < a for a, b in zip(table, table[1:])):
            violations += 1
        diffs = [b - a for a, b in zip(table, table[1:])]
        if any(b > a for a, b in zip(diffs, diffs[1:])):
            violations += 1
        for m in range(2, 5):
            for n in range(1, m):
                if table[m - 1] * n > m * table[n - 1]:
                    violations += 1
    assert violations == 0
    report(6, "sweep gamma tables: monotone, concave, <= cd, ratio bound; zero violations")


def test_criterion_07_negation_symmetry():
    violations = 0
    for e in random_epsilon_sequences(1000, 12, seed=SWEEP_SEED):
        neg = tuple(-v for v in e)
        if circular_level(e) != circular_level(neg):
            violations += 1
        for n in range(1, 13):
            if a_n(e, n) != a_n(neg, n):
                violations += 1
    assert violations == 0
    report(7, "1000 seeded epsilon-sequences: a_n and circular level negation-symmetric")


def test_criterion_08_witt_polynomials():
    start = time.monotonic()
    for p in (2, 3, 5):
        s0, s1 = sum_polynomials(p, 2)[:2]
        ring = s1.ring
        assert s0 == ring.var(0) + ring.var(2)
        want_s1 = ring.var(1) + ring.var(3)
        for i in range(1, p):
            want_s1 = want_s1 + from_terms(
                ring, [((i, 0, p - i, 0), -(math.comb(p, i) // p))]
            )
        assert s1 == want_s1
        p0, p1 = product_polynomials(p, 2)[:2]
        assert p0 == from_terms(ring, [((1, 0, 1, 0), 1)])
        assert p1 == from_terms(
            ring, [((0, 1, p, 0), 1), ((p, 0, 0, 1), 1), ((0, 1, 0, 1), p)]
        )
        # construction already asserts integrality; a non-integral coefficient
        # anywhere in n <= 4 fails the criterion
        for n in range(1, 5):
            sum_polynomials(p, n)
            product_polynomials(p, n)
            negation_polynomials(p, n)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"polynomial builds took {elapsed:.2f}s"
    report(8, f"S/P closed forms for p=2,3,5; S,P,I integral for n<=4 ({elapsed:.2f}s)")


def test_criterion_09_witt_ring_tables():
    for p, n in ((2, 3), (3, 2), (5, 2)):
        table = ring_iso_table(p, n)
        assert table.passed, table.failure
    rng = SplitMix64(SWEEP_SEED)
    for _ in range(500):
        p, n = ((2, 3), (3, 2), (5, 2))[rng.below(3)]
        x = WittVec(p, tuple(rng.below(p) for _ in range(n)))
        y = WittVec(p, tuple(rng.below(p) for _ in range(n)))
        assert frobenius(verschiebung(x)) == p_multiple(x)
        assert verschiebung(frobenius(x)) == p_multiple(x)
        assert witt_mul(x, verschiebung(y)) == verschiebung(witt_mul(frobenius(x), y))
    for a in range(5):
        for b in range(5):
            assert witt_mul(
                teichmuller(a, 5, 2), teichmuller(b, 5, 2)
            ) == teichmuller(a * b, 5, 2)
    report(9, "W_n(F_p) = Z/p^n for (2,3),(3,2),(5,2); F/V/p and Teichmueller identities")


def test_criterion_10_bt1_classification():
    for h in range(1, 9):
        for c in range(h + 1):
            assert reference_count_bt1(Signature(c=c, d=h - c)) == math.comb(h, c)
    rendered = {cls.render() for cls in enumerate_bt1(Signature(2, 2))}
    assert rendered == {"FFVV", "FV+FV", "FFV+V", "FVV+F", "FV+F+V", "F+F+V+V"}
    start = time.monotonic()
    for h in range(1, 7):
        perms = [Permutation(images) for images in all_perms(range(1, h + 1))]
        for d in range(h + 1):
            sig = Signature(c=h - d, d=d)
            image = {kraft_type(p, sig).render() for p in perms}
            assert image == {cls.render() for cls in enumerate_bt1(sig)}
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"S_h image check took {elapsed:.2f}s"
    assert kraft_type(Permutation((1,)), Signature(1, 0)).render() == "F"
    assert kraft_type(Permutation((1,)), Signature(0, 1)).render() == "V"
    report(10, f"counts binomial(h,c) h<=8; (2,2) classes; S_h image h<=6 ({elapsed:.2f}s); F/V simple objects")
