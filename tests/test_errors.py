"""Every fixed integer bound of the library admits its edge and refuses one
past it with the one ``check_range`` text."""

import pytest

from btlab import sweep, witt
from btlab.errors import InputError, check_range
from btlab.graph_oracle import build_gamma_graph
from btlab.invariants import (
    MAX_LEVEL,
    a_n,
    check_level,
    component_exponent,
    gamma,
    invariant_report,
    orbit_profiles,
)
from btlab.permutations import Permutation, Signature, parse_permutation
from btlab.polynomials import PolyRing

FIXED_POINT = (Permutation((1,)), Signature(1, 0))
TRANSPOSITION = (Permutation((2, 1)), Signature(1, 1))
SQUARE = orbit_profiles(parse_permutation("(1 2 3 4)"), Signature(2, 2))
CYCLE_10 = (parse_permutation("(1 2 3 4 5 6 7 8 9 10)"), Signature(5, 5))
CYCLE_50 = (parse_permutation("(" + " ".join(map(str, range(1, 51))) + ")"), Signature(25, 25))

# (call, arguments at the edge, arguments one past it, refusal)
BOUNDS = {
    "check_range low": (check_range, (1, "x", 1), (0, "x", 1), "x must be >= 1, got 0"),
    "check_range high": (
        check_range, (5, "x", None, 5), (6, "x", None, 5), "x must be <= 5, got 6"),
    "check_level low": (check_level, (1, "--level"), (0, "--level"), "--level must be >= 1, got 0"),
    "check_level high": (
        check_level, (MAX_LEVEL, "--level"), (MAX_LEVEL + 1, "--level"),
        "--level must be <= 10000, got 10001"),
    "permutation degree": (
        parse_permutation, ("(1 2)", 1000), ("(1 2)", 1001),
        "permutation degree must be <= 1000, got 1001"),
    "a_n": (a_n, ((1, -1), 1), ((1, -1), 0), "level n must be >= 1, got 0"),
    "gamma": (gamma, (SQUARE, 1), (SQUARE, 0), "level m must be >= 1, got 0"),
    "component_exponent": (
        component_exponent, (SQUARE, 1), (SQUARE, 0), "level m must be >= 1, got 0"),
    "invariant_report level": (
        invariant_report, (*TRANSPOSITION, 1), (*TRANSPOSITION, 0),
        "max level must be >= 1, got 0"),
    "build_gamma_graph level low": (
        build_gamma_graph, (*FIXED_POINT, 1), (*FIXED_POINT, 0),
        "level m must be >= 1, got 0"),
    # one vertex per level: only the level rule bounds a fixed point
    "build_gamma_graph level high": (
        build_gamma_graph, (*FIXED_POINT, MAX_LEVEL), (*FIXED_POINT, MAX_LEVEL + 1),
        "level m must be <= 10000, got 10001"),
    # 10^2 * 10^4 vertices is the cap; 50^2 * 401 the nearest shape over it
    "build_gamma_graph vertices": (
        build_gamma_graph, (*CYCLE_10, MAX_LEVEL), (*CYCLE_50, 401),
        "oracle vertices (h^2 * level) must be <= 1000000, got 1002500"),
    "sweep samples low": (
        sweep._check_sweep, (1, 7, 4), (0, 7, 4), "verify samples must be >= 1, got 0"),
    "sweep samples high": (
        sweep._check_sweep, (10_000, 2, 1), (10_001, 2, 1),
        "verify samples must be <= 10000, got 10001"),
    "sweep max_h": (sweep._check_sweep, (1, 2, 4), (1, 1, 4), "verify max_h must be >= 2, got 1"),
    "sweep max_level low": (
        sweep._check_sweep, (1, 7, 1), (1, 7, 0), "verify max_level must be >= 1, got 0"),
    "sweep max_level high": (
        sweep._check_sweep, (1, 2, MAX_LEVEL), (1, 2, MAX_LEVEL + 1),
        "verify max_level must be <= 10000, got 10001"),
    "sweep vertices": (
        sweep._check_sweep, (1, 100, 100), (1, 100, 101),
        "verify graph vertices (samples * max_h^2 * max_level) must be <= 1000000, got 1010000"),
    "law length": (witt._check_law, (2, 1), (2, 0), "length must be >= 1, got 0"),
    "sum_polynomials": (witt.sum_polynomials, (2, 1), (2, 0), "length must be >= 1, got 0"),
    "PolyRing exponent": (
        PolyRing, (["x"], 1), (["x"], 0), "max_exponent must be >= 1, got 0"),
}


@pytest.mark.parametrize("call,edge,past,refusal", BOUNDS.values(), ids=BOUNDS.keys())
def test_bound_admits_its_edge_and_refuses_one_past(call, edge, past, refusal):
    call(*edge)
    with pytest.raises(InputError) as err:
        call(*past)
    assert str(err.value) == refusal
