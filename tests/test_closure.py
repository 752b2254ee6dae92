import numpy as np
import pytest

from pregeolab.closure import (
    ExchangeFailure,
    LawViolation,
    Pregeometry,
    from_table,
    has_exchange,
    trivial_closure,
)
from pregeolab.geometry import check_modular
from pregeolab.instances import gebert_closure, uniform_pregeometry
from pregeolab.lattice import GroundSet


def test_trivial_closure():
    op = trivial_closure(GroundSet(3))
    assert op.table == tuple(range(8))


def test_from_table_validates_reflexivity():
    g = GroundSet(2)
    with pytest.raises(LawViolation) as exc:
        from_table(g, [0, 0, 2, 3])  # cl({0}) = {} loses the point
    assert exc.value.law == "Reflexivity"


def test_from_table_validates_monotonicity():
    g = GroundSet(2)
    # cl({0}) = {0,1} but cl({0,1}) = {0,1} is fine; break it upward
    with pytest.raises(LawViolation) as exc:
        from_table(g, [0, 3, 2, 2])
    assert exc.value.law in ("Monotonicity", "Reflexivity")


def test_from_table_validates_idempotence():
    g = GroundSet(3)
    # cl({0}) = {0,1} but cl({0,1}) = everything: reflexive and monotone,
    # yet closing twice keeps growing
    with pytest.raises(LawViolation) as exc:
        from_table(g, [0, 3, 2, 7, 4, 7, 6, 7])
    assert exc.value.law == "Idempotence"


def test_from_table_mapping_totality():
    g = GroundSet(2)
    with pytest.raises(LawViolation) as exc:
        from_table(g, {0: 0, 1: 1, 3: 3})
    assert exc.value.law == "Totality"


def test_from_table_converts_numpy_integers():
    pg = uniform_pregeometry(3, 4)
    table = np.array(pg.op.table)
    for given in (table, dict(enumerate(table))):
        op = from_table(pg.ground, given)
        assert op == pg.op and all(type(v) is int for v in op.table)
        # bit arithmetic on the entries needs Python ints
        assert check_modular(Pregeometry(op)) == check_modular(pg)


def test_uniform_exchange():
    pg = uniform_pregeometry(3, 4)
    assert isinstance(has_exchange(pg.op), Pregeometry)


def test_gebert_exchange_failure_witness():
    failure = has_exchange(gebert_closure(8))
    assert isinstance(failure, ExchangeFailure)
    # least failing triple in (A, a, b) scan order
    assert (failure.set_mask, failure.a, failure.b) == (0, 0, 1)
    assert "a=0" in str(failure)


def test_gebert_closure_values():
    op = gebert_closure(4)
    assert op.table[0] == 0
    assert op.table[0b0100] == 0b0111
    assert op.table[0b1010] == 0b1111
