import pytest
from hypothesis import given, strategies as st

from pregeolab.lattice import (
    GroundSet,
    elements_of,
    format_mask,
    format_witness,
    mask_of,
    parse_mask,
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


subsets = st.integers(min_value=0, max_value=0xFF)


@given(subsets)
def test_format_parse_inverse(mask):
    assert parse_mask(format_mask(mask), 8) == mask
