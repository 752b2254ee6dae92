import numpy as np
import pytest

from pregeolab.closure import (
    ExchangeFailure,
    LawViolation,
    Pregeometry,
    from_table,
    has_exchange,
    initial_segment_closure,
    trivial_closure,
)
from pregeolab.geometry import check_modular
from pregeolab.instances import catalog, uniform_pregeometry
from pregeolab.lattice import GroundSet


def test_trivial_closure():
    op = trivial_closure(GroundSet(3))
    assert op.table.dtype == np.intp and not op.table.flags.writeable
    assert op.table.tolist() == list(range(8))


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
    for dtype in (np.uint8, np.int64):
        table = pg.op.table.astype(dtype)
        for given in (table, dict(enumerate(table))):
            op = from_table(pg.ground, given)
            assert op.table.dtype == np.intp and not op.table.flags.writeable
            assert np.array_equal(op.table, pg.op.table)
            assert check_modular(Pregeometry(op)) == check_modular(pg)
    assert table.flags.writeable  # the caller's array is not frozen
    with pytest.raises(ValueError):
        pg.op.table[0] = 1


def test_uniform_exchange():
    pg = uniform_pregeometry(3, 4)
    assert isinstance(has_exchange(pg.op), Pregeometry)


def test_gebert_exchange_failure_witness():
    failure = has_exchange(initial_segment_closure(GroundSet(8)))
    assert isinstance(failure, ExchangeFailure)
    # least failing triple in (A, a, b) scan order
    assert (failure.set_mask, failure.a, failure.b) == (0, 0, 1)
    assert "a=0" in str(failure)


def test_gebert_closure_values():
    op = initial_segment_closure(GroundSet(4))
    assert op.table[0] == 0
    assert op.table[0b0100] == 0b0111
    assert op.table[0b1010] == 0b1111


def test_initial_segment_closure_is_one_per_ground_set():
    """One read-only operator per ground set, n = 0 included, whose table
    is {0, ..., max A} at every A."""
    assert initial_segment_closure(GroundSet(0)).table.tolist() == [0]
    for size in range(9):
        g = GroundSet(size)
        op = initial_segment_closure(g)
        assert op is initial_segment_closure(GroundSet(size))
        assert op.table.tolist() == [(1 << m.bit_length()) - 1
                                     for m in g.masks()]
        assert not op.table.flags.writeable


# ---------------------------------------------------------------------------
# The closure laws and exchange against scalar references: the loops that
# checked them before they became violation arrays.


def scalar_from_table(ground, table):
    """The validated table as a tuple, or the (law, witness, message) of
    the first law that fails, scanning masks in ascending order."""
    if isinstance(table, dict):
        seq = [-1] * ground.subset_count
        for mask, closed in table.items():
            seq[mask] = int(closed)
        missing = next((m for m, v in enumerate(seq) if v < 0), None)
        if missing is not None:
            return LawViolation("Totality", (missing,))
        table = seq
    table = [int(v) for v in table]
    n, count = ground.size, ground.subset_count
    if len(table) != count:
        return LawViolation("Totality", (len(table),))
    for mask in range(count):
        closed = table[mask]
        if not 0 <= closed <= ground.full_mask:
            return LawViolation("Range", (mask,))
        if mask & ~closed:
            return LawViolation("Reflexivity", (mask,))
    for mask in range(count):
        for e in range(n):
            up = mask | 1 << e
            if table[mask] & ~table[up]:
                return LawViolation("Monotonicity", (mask, up))
    for mask in range(count):
        if table[table[mask]] != table[mask]:
            return LawViolation("Idempotence", (mask,))
    return tuple(table)


def scalar_exchange(op):
    """The least (A, a, b) with a in cl(A+b) \\ cl(A), b not in cl(A+a)."""
    table = op.table.tolist()
    n = op.ground.size
    for mask in op.ground.masks():
        for a in range(n):
            if table[mask] >> a & 1:
                continue
            for b in range(n):
                if (table[mask | 1 << b] >> a & 1
                        and not table[mask | 1 << a] >> b & 1):
                    return (mask, a, b)
    return None


def random_closure_table(size, rng):
    """A closure table whose closed sets are the ground set and the
    intersections of a random family."""
    count = 1 << size
    p = rng.random()
    family = [count - 1] + [m for m in range(count) if rng.random() < p]
    table = []
    for x in range(count):
        closed = count - 1
        for f in family:
            if x & ~f == 0:
                closed &= f
        table.append(closed)
    return table


def corrupted_tables(rng, total):
    """Random, corrupted and valid tables on at most four points: values
    out of range or -1, a wrong length, mappings with holes, numpy input."""
    for k in range(total):
        size = int(rng.integers(0, 5))
        count = 1 << size
        table = random_closure_table(size, rng)
        kind = k % 7
        if kind == 0:  # anything, out of range included
            table = rng.integers(-1, count + 2, count).tolist()
        elif kind == 1:  # reflexive, often neither monotone nor idempotent
            table = [m | int(v) for m, v in
                     enumerate(rng.integers(0, count, count))]
        elif kind == 2:  # one bit flipped
            table[int(rng.integers(0, count))] ^= 1 << int(
                rng.integers(0, max(size, 1)))
        elif kind == 3:  # one value out of range, as a list or an array
            table[int(rng.integers(0, count))] = int(
                rng.choice([-1, count, count + 5]))
            if rng.random() < 0.5:
                table = np.array(table)
        elif kind == 4:  # a wrong length or a mapping with holes
            if rng.random() < 0.5:
                table = table[:-1] if rng.random() < 0.5 else table + [0]
            else:
                table = {m: v for m, v in enumerate(table)
                         if rng.random() < 0.9}
        yield GroundSet(size), table  # kinds 5 and 6: valid


def test_laws_match_scalar_reference_on_corrupted_tables():
    laws = {}
    for ground, table in corrupted_tables(np.random.default_rng(17), 1500):
        want = scalar_from_table(ground, table)
        if isinstance(want, LawViolation):
            with pytest.raises(LawViolation) as exc:
                from_table(ground, table)
            got = exc.value
            assert (got.law, got.witness, str(got)) == (
                want.law, want.witness, str(want)), table
            assert all(type(w) is int for w in got.witness)
            laws[got.law] = laws.get(got.law, 0) + 1
        else:
            assert from_table(ground, table).table.tolist() == list(want)
    # every law fails on many tables
    assert set(laws) == {"Totality", "Range", "Reflexivity", "Monotonicity",
                         "Idempotence"}
    assert min(laws.values()) >= 10, laws


def test_exchange_matches_scalar_reference():
    ops = [inst.op for inst in catalog().values() if inst.op is not None]
    rng = np.random.default_rng(19)
    ops += [from_table(GroundSet(size), random_closure_table(size, rng))
            for size in [0, 1, 2, 3] * 10 + [4] * 100 + [5] * 100]
    outcomes = {True: 0, False: 0}
    for op in ops:
        want = scalar_exchange(op)
        got = has_exchange(op)
        if want is None:
            assert isinstance(got, Pregeometry) and got.op is op
        else:
            assert isinstance(got, ExchangeFailure)
            assert (got.set_mask, got.a, got.b) == want
            assert all(type(v) is int for v in (got.set_mask, got.a, got.b))
        outcomes[want is None] += 1
    assert min(outcomes.values()) >= 20, outcomes
