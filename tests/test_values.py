"""The validated value types compare and hash by exact type and fields."""

import pytest

from btlab.graph_oracle import Cycle
from btlab.kraft import BTClass
from btlab.permutations import Permutation, Signature, parse_permutation
from btlab.witt import WittVec

# (value, an equal value built another way, a different value of the same type)
CASES = [
    (Permutation((2, 1, 3)), parse_permutation("(1 2)", degree=3), Permutation((1, 2, 3))),
    (Signature(2, 2), Signature(c=2, d=2), Signature(1, 3)),
    (BTClass(("V", "FV", "F")), BTClass(("F", "V", "FV")), BTClass(("FV", "FV"))),
    (WittVec(3, (4,)), WittVec(3, (1,)), WittVec(3, (2,))),
]
IDS = ["Permutation", "Signature", "BTClass", "WittVec"]


@pytest.mark.parametrize("value,same,other", CASES, ids=IDS)
def test_equal_by_value(value, same, other):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert len({value, same, other}) == 2
    assert value != other


@pytest.mark.parametrize("value,same,other", CASES, ids=IDS)
def test_unequal_to_tuples_of_its_fields(value, same, other):
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert value != fields and fields != value
    assert value != fields[0]


def test_unequal_across_types_with_the_same_fields():
    assert Signature(2, 2) != (2, 2)
    assert Signature(2, 2) != Cycle(2, 2)


def test_normalised_on_construction():
    assert WittVec(3, (4, -1)).components == (1, 2)
    assert BTClass(("V", "FFV")).words == ("FFV", "V")


def test_repr_is_the_constructor_call():
    assert repr(Signature(2, 3)) == "Signature(c=2, d=3)"
    assert repr(WittVec(5, (6,))) == "WittVec(p=5, components=(1,))"


def test_only_witt_vectors_define_str():
    assert str(WittVec(5, (1, 7))) == "(1,2)"
    for value, _, _ in CASES[:3]:
        assert "__str__" not in type(value).__dict__
