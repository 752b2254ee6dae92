import pytest
from hypothesis import given, strategies as st

from pregeolab.lattice import (
    GroundSet,
    SubsetCode,
    elements_of,
    enumerate_subsets,
    format_mask,
    format_witness,
    mask_of,
    parse_mask,
    submasks,
)


def test_ground_set_bounds():
    assert GroundSet(0).subset_count == 1
    assert GroundSet(16).full_mask == 0xFFFF
    with pytest.raises(ValueError):
        GroundSet(17)
    with pytest.raises(ValueError):
        GroundSet(-1)


def test_mask_roundtrip():
    assert mask_of([0, 2, 5], 8) == 0b100101
    assert elements_of(0b100101) == [0, 2, 5]
    assert format_mask(0b100101) == "{0,2,5}"
    assert format_mask(0) == "{}"
    assert format_witness((0b11, 0, 0b100)) == "{0,1};{};{2}"
    assert format_witness(()) == ""
    assert parse_mask("{0,2,5}", 8) == 0b100101
    assert parse_mask("0,2,5", 8) == 0b100101
    assert parse_mask("{}", 8) == 0
    assert parse_mask("  ", 8) == 0


def test_parse_mask_rejects_garbage():
    with pytest.raises(ValueError):
        parse_mask("{0,2", 8)
    with pytest.raises(ValueError):
        parse_mask("{0,x}", 8)
    with pytest.raises(ValueError):
        parse_mask("{9}", 3)


def test_enumeration_order():
    g = GroundSet(3)
    codes = list(enumerate_subsets(g))
    assert [c.bits for c in codes] == list(range(8))


def test_submasks_descending():
    got = list(submasks(0b101))
    assert got == [0b101, 0b100, 0b001, 0b000]
    assert list(submasks(0)) == [0]


subsets = st.integers(min_value=0, max_value=0xFF)


@given(subsets, subsets, subsets)
def test_subset_code_boolean_laws(a, b, c):
    g = GroundSet(8)
    sa, sb, sc = g.code(a), g.code(b), g.code(c)
    assert (sa | sb).bits == (sb | sa).bits
    assert ((sa | sb) & sc).bits == ((sa & sc) | (sb & sc)).bits
    assert (sa - sb).bits == (sa & sb.complement()).bits
    assert (sa & sb) <= sa
    assert sa <= (sa | sb)


@given(subsets)
def test_format_parse_inverse(mask):
    assert parse_mask(format_mask(mask), 8) == mask


def test_subset_code_api():
    g = GroundSet(4)
    s = g.subset([1, 3])
    assert 1 in s and 2 not in s
    assert len(s) == 2
    assert str(s) == "{1,3}"
    assert g.parse("{1,3}") == s
    with pytest.raises(ValueError):
        SubsetCode(0x1F, g)
    with pytest.raises(ValueError):
        s | GroundSet(5).subset([1])
