import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from pregeolab import axioms, closure, instances
from pregeolab.axioms import (
    _over_a,
    _pack,
    AXIOM_ORDER,
    AxiomId,
    Comparison,
    Goal,
    MissingClosure,
    check_all,
    check_axiom,
    check_axioms,
    compare,
    enumerate_all_relations,
    evaluate_axiom_body,
    search_counterexample,
)
from pregeolab.cli import instance_operator, resolve_relation
from pregeolab.closure import trivial_closure
from pregeolab.instances import (
    catalog,
    catalog_instance,
    gebert_closure,
    rel_st,
    uniform_pregeometry,
)
from pregeolab.lattice import GroundSet
from pregeolab.relcalc import (
    TernaryRelation,
    built_rows,
    from_table,
    materialize,
    opposite,
    random_relation,
    rel_a,
    rel_cl,
    rel_intersection,
)


@pytest.fixture(scope="module")
def u34():
    return uniform_pregeometry(3, 4)


def test_axiom_id_parse():
    assert AxiomId.parse("bmon-r") is AxiomId.BMON_R
    assert AxiomId.parse("SCLO") is AxiomId.SCLO
    with pytest.raises(ValueError):
        AxiomId.parse("nope")


def test_intersection_passes_bmon_r():
    rep = check_axiom(rel_intersection(GroundSet(4)), AxiomId.BMON_R)
    assert rep.status == "pass" and rep.witness is None


def test_u34_a_fails_bmon_r_with_frozen_witness(u34):
    rep = check_axiom(rel_a(u34.op), AxiomId.BMON_R)
    assert rep.status == "fail"
    # (A, C, B, D) = ({0,1}, {}, {2}, {2,3})
    assert rep.witness == (0b0011, 0, 0b0100, 0b1100)
    assert not evaluate_axiom_body(rel_a(u34.op), AxiomId.BMON_R, rep.witness)


def test_u34_cl_passes_sym(u34):
    assert check_axiom(rel_cl(u34), AxiomId.SYM).status == "pass"


def test_fin_and_loc_are_vacuous_with_note():
    r = rel_intersection(GroundSet(3))
    for ax in (AxiomId.FIN, AxiomId.LOC):
        rep = check_axiom(r, ax)
        assert rep.status == "vacuous"
        assert rep.result_line().endswith("vacuous")


def test_axiom_body_refuses_what_it_cannot_evaluate():
    """The benchmark harness re-checks a witness with evaluate_axiom_body
    and catches only IndexError and ValueError: FIN and LOC have no body,
    and a witness needs as many masks as its axiom's layout."""
    g = GroundSet(2)
    r, op = rel_intersection(g), trivial_closure(g)
    for ax in (AxiomId.FIN, AxiomId.LOC):
        for witness in ((), (0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError):
                evaluate_axiom_body(r, ax, witness, op)
    for ax, size in ((AxiomId.EX, 2), (AxiomId.AREF, 2), (AxiomId.SYM, 3),
                     (AxiomId.SCLO, 3), (AxiomId.BMON_R, 4),
                     (AxiomId.FREE, 4)):
        assert isinstance(evaluate_axiom_body(r, ax, (1,) * size, op), bool)
        for witness in ((), (1,) * (size - 1), (1,) * (size + 1)):
            with pytest.raises((IndexError, ValueError)):
                evaluate_axiom_body(r, ax, witness, op)


def test_missing_closure():
    r = rel_intersection(GroundSet(2))
    with pytest.raises(MissingClosure):
        check_axiom(r, AxiomId.AREF)


def test_always_true_fails_aref():
    g = GroundSet(3)
    true = from_table(g, "true", np.ones((8, 8, 8), dtype=bool))
    rep = check_axiom(true, AxiomId.AREF, trivial_closure(g))
    assert rep.status == "fail"
    assert rep.witness == (0b001, 0)  # a = 0 over the empty base


def test_check_all_order_and_skip():
    g = GroundSet(2)
    r = rel_intersection(g)
    no_op = check_all(r)
    assert all(not rep.axiom.needs_closure for rep in no_op)
    with_op = check_all(r, trivial_closure(g))
    assert [rep.axiom for rep in with_op] == list(AXIOM_ORDER)


def grid_body(t3, ax, cl, a, c, *rest):
    """The body of ax in `axioms._BODIES` on the bool table t3, at every
    tuple of the broadcast index grids a, c, b[, d]."""
    ok = axioms._BODIES[ax](lambda *abc: t3[abc], cl, a, c, *rest)
    return np.broadcast_to(ok, np.broadcast_shapes(
        a.shape, c.shape, *(x.shape for x in rest)))


def grid_witness(t3, ax, cl=None):
    """The least witness of ax on t3 by its body alone.  The (A, C) pairs
    in row-major order run along the grid's first axis and B and D along
    the others, so the first False cell is the least witness.  Blocks of
    pairs double from about 2^16 cells to 2^20, so the grid can stop
    early inside an A row and a full grid takes few blocks.  A is a
    singleton for AREF."""
    count = len(t3)
    masks = np.arange(count)
    singletons = 1 << masks[:count.bit_length() - 1]
    firsts = singletons if ax is AxiomId.AREF else masks
    arity = axioms._arity(ax)
    per_pair = count ** (arity - 2)
    lo, step, total = 0, max(1, (1 << 16) // per_pair), len(firsts) * count
    while lo < total:
        hi = min(lo + step, total)
        pairs, *rest = np.ix_(np.arange(lo, hi), *[masks] * (arity - 2))
        a, c = firsts[pairs // count], pairs % count
        bad = ~grid_body(t3, ax, cl, a, c, *rest)
        if bad.any():
            k, *later = np.unravel_index(np.argmax(bad), bad.shape)
            return (int(a.flat[k]), int(c.flat[k]), *map(int, later))
        lo, step = hi, min(2 * step, max(1, (1 << 20) // per_pair))
    return None


def scalar_ac_witness(r, ax, op):
    """The least (A, C) at which the scalar route (`evaluate_axiom_body`
    through r.fn) finds the body of EX or AREF false, A ascending and then
    C, A a singleton for AREF; shares no grid code with the scan."""
    count = r.ground.subset_count
    firsts = ([1 << e for e in range(r.ground.size)]
              if ax is AxiomId.AREF else range(count))
    return next(((a, c) for a in firsts for c in range(count)
                 if not evaluate_axiom_body(r, ax, (a, c), op)), None)


_STRONG = (AxiomId.TRA_STRONG, AxiomId.BMON_STRONG, AxiomId.FREE)


def _dense_cases():
    """Mostly-true tables at n = 3 and 4 push the least witness past
    A = {}, so a scan must stop at the first row that violates.  At n = 4
    the closure varies too, so CLO-L/R and SCLO see a non-identity cl.
    The last two n = 4 tables are false only where TRA-STRONG (|B| <= 1)
    or BMON-STRONG (C = {}) cannot use a false cell, so each passes."""
    rng = np.random.default_rng(2023)
    ops4 = (trivial_closure(GroundSet(4)), gebert_closure(4),
            uniform_pregeometry(3, 4).op)
    cases = []
    for size, densities in ((3, (0.9, 0.98)), (4, (0.98, 0.995, 0.999))):
        count = 1 << size
        for density in densities:
            for k in range(3):
                cells = rng.random((count,) * 3) < density
                r = from_table(GroundSet(size), f"dense{density}", cells)
                op = ops4[k] if size == 4 else trivial_closure(r.ground)
                cases.append((r, op))
    masks = np.arange(16)
    small_b = np.array([bin(m).count("1") <= 1 for m in masks])
    for name, where in (("tra", small_b[None, :, None]),
                        ("bmon", (masks == 0)[None, None, :])):
        cells = ~(where & (rng.random((16,) * 3) < 0.1))
        cases.append((from_table(GroundSet(4), name, cells), ops4[0]))
    return cases


@pytest.mark.parametrize(
    "axiom", [ax for ax in AXIOM_ORDER if ax not in (AxiomId.FIN, AxiomId.LOC)]
)
def test_witness_minimality_against_scalar_rescan(axiom):
    """Each reported witness is the least False cell of the axiom's body on
    index grids over the table, and the scalar route through r.fn
    evaluates the same body to False on it.  EX and AREF scan that body on
    the (A, C) grid themselves, so at n <= 3 a scalar rescan in (A, C)
    order must also find their witness."""
    g = GroundSet(2)
    # 32 random n = 2 tables: some least BMON-STRONG witnesses need D & C
    cases = [(random_relation(g, seed), trivial_closure(g)) for seed in range(32)]
    cases += _dense_cases()
    rows_hit = set()
    passed = rescanned = 0
    for k, (r, op) in enumerate(cases):
        rep = check_axiom(r, axiom, op)
        if axiom in (AxiomId.EX, AxiomId.AREF) and r.ground.size <= 3:
            assert rep.witness == scalar_ac_witness(r, axiom, op), (axiom, k)
            rescanned += rep.witness is not None
        expected = grid_witness(materialize(r).table, axiom, op.table)
        if expected is None:
            assert rep.status == "pass", (axiom, k)
            passed += 1
        else:
            assert rep.status == "fail", (axiom, k)
            assert rep.witness == expected, (axiom, k)
            assert not evaluate_axiom_body(r, axiom, rep.witness, op), k
            rows_hit.add(expected[0])
    assert max(rows_hit) > 0  # some least witness lies past the row A = {}
    if axiom in (AxiomId.EX, AxiomId.AREF):
        assert rescanned > 10  # the rescan compared failing witnesses
    if axiom in _STRONG:
        assert passed  # the pass path of these scans is covered


#: the axioms of the random-table test: all but FIN and LOC, which have
#: no body, and EX, AREF and SCLO, which other tests cover
_GRID_AXIOMS = tuple(ax for ax in AXIOM_ORDER if ax not in (
    AxiomId.FIN, AxiomId.LOC, AxiomId.EX, AxiomId.AREF, AxiomId.SCLO))


def random_closure(ground, rng):
    """The closure of the Moore family of a few random sets and the ground
    set: cl(X) is the intersection of the family's sets that contain X."""
    count = ground.subset_count
    masks = np.arange(count)
    table = np.full(count, count - 1)
    for s in rng.integers(0, count, 3):
        table = np.where(masks & ~s == 0, table & s, table)
    return closure.from_table(ground, table)


def test_packed_scans_match_axiom_bodies_on_random_tables():
    """The packed scans report the same least witness as the axiom bodies
    on index grids at n = 0..6, where a packed row of n <= 2 has padding
    bits.  Dense tables put some witnesses past A = {}, sparse ones put
    the least chain far from the first, and CLO-L/R run under a random
    closure that is not the identity.  In a copy of the first table of
    each density at n = 1..5 the first k rows of A are all true, where
    neither TRA-STRONG nor BMON-STRONG can fail, so their witnesses lie
    past A = {}.  n = 6 has one table per density and no such copy: there
    a late witness costs the grid about 1 s."""
    rng = np.random.default_rng(13)
    fails = 0
    late = set()  # the axioms with some least witness past A = {}
    strong_late = 0  # TRA-STRONG and BMON-STRONG witnesses past A = {}
    clo_sizes = set()  # the sizes with a CLO-L or CLO-R fail
    for size in range(7):
        count = 1 << size
        op = random_closure(GroundSet(size), rng)
        assert size == 0 or (op.table != np.arange(count)).any()
        tables = []
        for density in (0.01, 0.5, 0.99, 0.9999):
            for rep in range(1 if size == 6 else 4):
                tables.append(rng.random((count,) * 3) < density)
                if rep == 0 and 0 < size < 6:
                    tables.append(tables[-1].copy())
                    tables[-1][:rng.integers(1, count)] = True
        for t3 in tables:
            r = from_table(GroundSet(size), "rand", t3)
            for ax in _GRID_AXIOMS:
                want = grid_witness(t3, ax, op.table)
                assert check_axiom(r, ax, op).witness == want, (size, ax)
                fails += want is not None
                if want is not None and want[0] > 0:
                    late.add(ax)
                    strong_late += ax in (AxiomId.TRA_STRONG, AxiomId.BMON_STRONG)
                if ax in (AxiomId.CLO_L, AxiomId.CLO_R) and want:
                    clo_sizes.add(size)
    assert fails > 500 and late == set(_GRID_AXIOMS) and strong_late > 40
    assert clo_sizes >= {1, 2, 6}


def class_rows(g, rows, classes):
    """A relation whose A row is rows[classes[A]], kept as class rows."""
    return TernaryRelation(g, "rows",
                           lambda a, b, c: bool(rows[classes[a], b, c]),
                           lambda: rows, classes=classes)


@pytest.mark.parametrize("size", range(9))
def test_pack_matches_packbits(size):
    """Packing a table over either axis gives np.packbits of it.  Class
    rows, k = 8, 9, 16, 17 and 2^n of them (one to three bytes of class
    bits; 2^n up to n = 7), pack over axis 0 into np.packbits of the rows
    themselves, one bit per class with zero padding bits, and `_over_a`
    expands those bits into np.packbits of the expanded table.  The left
    layout of class rows is np.packbits of the rows over B, and
    `_left_over_a` takes it by class into np.packbits of the expanded
    table.  From k = 2 the
    class map leaves the last class unused."""
    count = 1 << size
    rng = np.random.default_rng(size)
    t3 = rng.integers(0, 2, (count,) * 3, dtype=np.uint8).view(bool)

    def packbits(cells, axis):
        bits = np.packbits(cells, axis, bitorder="little")
        return np.moveaxis(bits, axis, -1).reshape(count * count, -1)

    for axis in (0, 1):
        np.testing.assert_array_equal(_pack(t3, axis), packbits(t3, axis))
    # 2^n classes at n = 8 would cost a second: n <= 7 has k = 2^n
    for k in sorted({8, 9, 16, 17, count} - {256}):
        rows = t3 if k == count else rng.random((k, count, count)) < 0.9
        classes = rng.integers(0, max(1, k - 1), count)
        right = _pack(rows, 0)
        assert right.shape == (count * count, -(-k // 8))
        np.testing.assert_array_equal(right, packbits(rows, 0))
        # the expanded table's cells, rows (B, C) over A, from the class bits
        cells = np.unpackbits(right, axis=1, bitorder="little")[:, classes]
        np.testing.assert_array_equal(
            _over_a(right, classes), np.packbits(cells, 1, bitorder="little"))
        r = class_rows(GroundSet(size), rows, classes)
        # the left layout keeps rows (class, C), and `_left_over_a` takes
        # them by class into rows (A, C)
        left = np.moveaxis(np.packbits(rows, 1, bitorder="little"), 1, -1)
        np.testing.assert_array_equal(axioms._packed(r, 1),
                                      left.reshape(k * count, -1))
        np.testing.assert_array_equal(
            axioms._left_over_a(axioms._packed(r, 1), r.classes),
            packbits(rows[classes], 1))
        assert r.table is None


def test_opposite_layouts_are_the_packed_transposed_table():
    """An opposite packs nothing of its own, yet each of its layouts is
    `_pack` of its base's expanded table with A and B swapped, for every
    relation id of every catalog instance with n <= 6 (106 pairs), on
    class rows and on whole tables."""
    pairs = 0
    for inst in catalog().values():
        if inst.ground.size > 6:
            continue
        for rid in instances.RELATIONS:
            if not instances.defines(inst, rid):
                continue
            r = resolve_relation(inst, rid)
            opp = opposite(r)
            swapped = np.ascontiguousarray(
                materialize(resolve_relation(inst, rid)).table.transpose(
                    1, 0, 2))
            for axis in (0, 1):
                np.testing.assert_array_equal(axioms._packed(opp, axis),
                                              _pack(swapped, axis))
            assert opp.rows is None and opp.table is None
            pairs += 1
    assert pairs == 106


@pytest.fixture
def packed_route(monkeypatch):
    """Every check runs on the packed layouts, also where a relation's cube
    would take it (`axioms._takes_cube`)."""
    monkeypatch.setattr(axioms, "_takes_cube", lambda *args: False)


@pytest.mark.parametrize("name,rel_id", [
    ("u36", "cl"), ("gebert8", "a"), ("gebert8", "aM"), ("gebert8", "sup")])
def test_check_all_packs_each_axis_once(name, rel_id, monkeypatch,
                                        packed_route):
    """Every packed scan of one relation reads the same two packed layouts,
    each read-only and packed at most once from the class rows themselves:
    no scan builds the 2^(3n) table, the right layout holds one bit per
    class, not one per A, and the left layout one row (class, C) per class
    and C, not one per (A, C)."""
    axes = []

    def counted(t3, axis):
        axes.append(axis)
        assert t3 is r.rows and len(t3) < len(r.classes)
        return _pack(t3, axis)

    monkeypatch.setattr(axioms, "_pack", counted)
    inst = catalog_instance(name)
    r = resolve_relation(inst, rel_id)
    check_all(r, instance_operator(inst))
    assert sorted(axes) == [0, 1]
    assert r.table is None
    count = r.ground.subset_count
    assert r.packed[0].shape == (count * count, -(-len(r.rows) // 8))
    assert r.packed[1].shape == (len(r.rows) * count, count // 8)
    for axis in (0, 1):
        view = r.packed[axis]
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0


def test_layouts_derive_from_read_only_rows(monkeypatch, packed_route):
    """Each layout is packed once from a relation's rows: those of `a` on
    gebert4 from its five class rows (on the packed route, which its cube
    would spare SYM), which builds no table, and those of a `from_table`
    relation from its 16 rows, which are its table.
    from_table copies its input, and neither the table nor the rows can be
    written into, so no edit can leave a layout stale."""
    packed = []

    def counted(t3, axis):
        packed.append((axis, len(t3)))
        return _pack(t3, axis)

    monkeypatch.setattr(axioms, "_pack", counted)
    source = np.ones((16, 16, 16), dtype=bool)
    ones = from_table(GroundSet(4), "rand", source)
    source[1, 2, 4] = False  # r(1, 2, 4) would fail while r(2, 1, 4) holds
    a = rel_a(catalog_instance("gebert4").op)
    for r, rows in ((ones, 16), (a, 5)):
        packed.clear()
        for _ in range(2):
            assert check_axiom(r, AxiomId.SYM).status == "pass"
        assert packed == [(0, rows), (1, rows)]
        for array in (r.rows, r.table):
            if array is not None:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[1, 2, 4] = False
    assert ones.rows is ones.table and a.table is None


def test_sclo_matches_row_scan_on_random_tables():
    """Random tables at n = 0..7 under the trivial closure, and tables
    that satisfy SCLO by construction with a few cells (A, B, C) flipped,
    A not inside C: every tuple that reaches such a cell has A > 0.  At
    n = 7 the default chunk of pair rows splits the 3^7 = 2,187 pairs of
    the trivial closure in two."""
    rng = np.random.default_rng(14)
    late = fails = 0
    for size in range(8):
        g = GroundSet(size)
        count, op = 1 << size, trivial_closure(g)
        masks = np.arange(count)
        # r(A+C, B+C, C) for a random r: SCLO holds under the trivial closure
        base = rng.random((count,) * 3) < 0.5
        a, b, c = np.ix_(masks, masks, masks)
        invariant = base[a | c, b | c, c]
        tables = [rng.random((count,) * 3) < density
                  for density in (0.01, 0.5, 0.99, 0.9999)]
        for flips in (0, 1, 1, 2, 2, 3, 3, 5, 5, 8):
            t3 = invariant.copy()
            a, b, c = rng.integers(0, count, (3, flips))
            keep = a & ~c != 0
            t3[a[keep], b[keep], c[keep]] ^= True
            tables.append(t3)
        for t3 in tables:
            want = grid_witness(t3, AxiomId.SCLO, op.table)
            r = from_table(g, "rand", t3)
            assert check_axiom(r, AxiomId.SCLO, op).witness == want, size
            fails += want is not None
            late += want is not None and want[0] > 0
    assert fails > 45 and late > 30


@pytest.mark.parametrize("name", ["u34", "u36", "gebert4", "gf2-3", "gf2-7"])
def test_sclo_matches_row_scan_on_corrupted_catalog_tables(name):
    """The catalog's `a` (SCLO holds) with cells (A, B, C) flipped, A
    neither {} nor C: only tuples with A > 0 reach such a cell."""
    inst = catalog_instance(name)
    op = instance_operator(inst)
    good = materialize(resolve_relation(inst, "a")).table
    count = len(good)
    rng = np.random.default_rng(count)
    late = fails = 0
    for k in range(12):
        t3 = good.copy()
        a, b, c = rng.integers(1, count, (3, 1 + k % 3))
        keep = a != c
        t3[a[keep], b[keep], c[keep]] ^= True
        want = grid_witness(t3, AxiomId.SCLO, op.table)
        r = from_table(inst.ground, "a", t3)
        assert check_axiom(r, AxiomId.SCLO, op).witness == want, (name, k)
        fails += want is not None
        late += want is not None and want[0] > 0
    assert grid_witness(good, AxiomId.SCLO, op.table) is None
    assert fails >= 10 and late >= 10


#: the axioms of the corrupted-table test, by number of variables
_LAYOUT_AXIOMS = ((AxiomId.SYM, AxiomId.NOR_L, AxiomId.NOR_R, AxiomId.CLO_L,
                   AxiomId.CLO_R),
                  (AxiomId.MON_L, AxiomId.MON_R, AxiomId.FREE,
                   AxiomId.TRA_STRONG, AxiomId.BMON_STRONG))


@pytest.mark.parametrize("name,rel_id", [("gebert8", "a"), ("gf2-7", "cl")])
def test_packed_scans_match_axiom_bodies_on_corrupted_catalog_tables(
        name, rel_id):
    """Fail paths at n = 7 and 8, where no catalog relation fails SYM,
    MON, TRA-STRONG or BMON-STRONG: the table with a few cells (A, B, C)
    flipped, A > 0.  The four-variable axioms get one table of their own
    whose flips have A = {0}: at n = 8 one A row of their grid is 2^24
    tuples, so the grid stops after two rows."""
    inst = catalog_instance(name)
    op = instance_operator(inst)
    good = materialize(resolve_relation(inst, rel_id)).table
    count = len(good)
    rng = np.random.default_rng(count)
    flips = [(_LAYOUT_AXIOMS[0], rng.integers(1, count, (3, 1 + k)))
             for k in range(3)]
    flips.append((_LAYOUT_AXIOMS[1], (1, *rng.integers(1, count, (2, 3)))))
    late = set()  # the axioms with some least witness past A = {}
    for k, (axioms_of, cells) in enumerate(flips):
        t3 = good.copy()
        t3[tuple(cells)] ^= True
        r = from_table(inst.ground, rel_id, t3)
        for ax in axioms_of:
            want = grid_witness(t3, ax, op.table)
            assert check_axiom(r, ax, op).witness == want, (name, k, ax)
            if want is not None and want[0] > 0:
                late.add(ax)
    assert late >= {AxiomId.SYM, AxiomId.CLO_L, AxiomId.CLO_R, AxiomId.MON_L,
                    AxiomId.MON_R, AxiomId.TRA_STRONG, AxiomId.BMON_STRONG}


@pytest.mark.parametrize("name", ["trivial5", "u36", "gebert4"])
def test_sclo_in_small_blocks_matches_row_scan(name, monkeypatch):
    """With chunks of 64 pair cells the pair rows are gathered in many
    chunks, one pair per chunk from n = 6 on, and each chunk's rows land
    where the comparison with the left layout reads them."""
    monkeypatch.setattr(axioms, "_SCLO_BLOCK_CELLS", 1 << 6)
    inst = catalog_instance(name)
    op = instance_operator(inst)
    good = materialize(resolve_relation(inst, "a")).table
    count = len(good)
    rng = np.random.default_rng(count + 1)
    late = 0
    for k in range(12):
        t3 = good.copy()
        a, b, c = rng.integers(0, count, (3, 1 + k % 3))
        a |= count >> 1 + k % 3  # A in the second half, quarter or eighth
        keep = a != c
        t3[a[keep], b[keep], c[keep]] ^= True
        want = grid_witness(t3, AxiomId.SCLO, op.table)
        r = from_table(inst.ground, "a", t3)
        assert check_axiom(r, AxiomId.SCLO, op).witness == want, (name, k)
        late += want is not None and want[0] >= 8
    assert late >= 6


def test_four_variable_axioms_at_size_seven():
    """Known answers at n = 7, where every axiom runs the same scan."""
    r = rel_intersection(GroundSet(7))
    assert check_axiom(r, AxiomId.MON_R).status == "pass"
    assert check_axiom(r, AxiomId.BMON_R).status == "pass"
    pg = catalog_instance("gf2-7").pg
    assert check_axiom(rel_cl(pg), AxiomId.MON_R).status == "pass"
    rep = check_axiom(rel_cl(pg), AxiomId.FREE)
    assert rep.status == "fail"
    # (A, C, B, D) = ({0}, {1,2}, {0}, {})
    assert rep.witness == (1, 6, 1, 0)
    assert not evaluate_axiom_body(rel_cl(pg), AxiomId.FREE, rep.witness)


def test_strong_axioms_at_sizes_seven_and_eight():
    """Known answers at n = 7 and 8, each well under a second."""
    cl7 = rel_cl(catalog_instance("gf2-7").pg)
    assert check_axiom(cl7, AxiomId.TRA_STRONG).status == "pass"
    assert check_axiom(cl7, AxiomId.BMON_STRONG).status == "pass"
    assert check_axiom(rel_intersection(GroundSet(8)), AxiomId.FREE).status == "pass"
    a8 = rel_a(gebert_closure(8))
    assert check_axiom(a8, AxiomId.TRA_STRONG).status == "pass"
    assert check_axiom(a8, AxiomId.BMON_STRONG).status == "pass"
    rep = check_axiom(a8, AxiomId.FREE)
    assert rep.result_line() == "RESULT a FREE fail witness={0};{1};{0};{}"
    # a relation without a table: the scalar route
    assert not evaluate_axiom_body(rel_a(gebert_closure(8)), AxiomId.FREE,
                                   rep.witness)


def test_derived_axiom_theorems_on_catalog():
    """Right NOR + MON + TRA force the strong transitivity form, and
    right NOR + MON + BMON force the strong base-monotonicity form."""
    checked = 0
    for inst in catalog().values():
        if inst.op is None or inst.ground.size > 5:
            continue
        for r in (rel_intersection(inst.ground), rel_a(inst.op)):
            passes = {
                ax: check_axiom(r, ax).status == "pass"
                for ax in (AxiomId.NOR_R, AxiomId.MON_R, AxiomId.TRA_R,
                           AxiomId.BMON_R)
            }
            if passes[AxiomId.NOR_R] and passes[AxiomId.MON_R]:
                if passes[AxiomId.TRA_R]:
                    assert check_axiom(r, AxiomId.TRA_STRONG).status == "pass"
                    checked += 1
                if passes[AxiomId.BMON_R]:
                    assert check_axiom(r, AxiomId.BMON_STRONG).status == "pass"
                    checked += 1
    assert checked > 5


def test_rel_a_always_aref_and_sclo():
    for inst in catalog().values():
        if inst.op is None or inst.ground.size > 5:
            continue
        r = rel_a(inst.op)
        assert check_axiom(r, AxiomId.AREF, inst.op).status == "pass"
        assert check_axiom(r, AxiomId.SCLO, inst.op).status == "pass"


def test_compare_examples(u34):
    cmp = compare(rel_cl(u34), rel_a(u34.op))
    assert cmp.verdict == "implies"
    assert cmp.witness == (0b0011, 0b1100, 0)  # least differing (A, B, C)
    assert compare(rel_a(u34.op), rel_cl(u34)).verdict == "implied"
    assert compare(rel_cl(u34), rel_cl(u34)).verdict == "equal"
    with pytest.raises(ValueError):
        compare(rel_cl(u34), rel_intersection(GroundSet(3)))


def test_compare_incomparable():
    g = GroundSet(2)
    cmp = compare(random_relation(g, 1), random_relation(g, 2))
    assert cmp.verdict == "incomparable"
    assert cmp.witness is not None


def test_compare_matches_scalar_scan():
    """Verdict and least differing (A, B, C) against the scalar predicates
    on every cell, at n = 1..5, where a packed row is one, two or four
    bytes; the second table differs from the first nowhere, in a few
    cells either way, or in about half of them."""
    rng = np.random.default_rng(5)
    verdicts = set()
    late = 0
    for size, pairs in ((1, 12), (2, 12), (3, 12), (4, 8), (5, 4)):
        g = GroundSet(size)
        shape = (1 << size,) * 3
        cells = list(product(range(1 << size), repeat=3))
        for k in range(pairs):
            t1 = rng.random(shape) < 0.5
            extra = np.zeros(shape, dtype=bool)
            extra[tuple(rng.integers(0, 1 << size, (3, 1 + k % 3)))] = True
            t2 = (t1, t1 | extra, t1 & ~extra, rng.random(shape) < 0.5)[k % 4]
            r1, r2 = from_table(g, "r1", t1), from_table(g, "r2", t2)
            h1, h2 = (np.array([r.fn(*x) for x in cells]).reshape(shape)
                      for r in (r1, r2))
            more, less = (h1 & ~h2).any(), (h2 & ~h1).any()
            if not more and not less:
                expected = Comparison("equal", None)
            else:
                verdict = ("implies" if not more else
                           "implied" if not less else "incomparable")
                least = np.argwhere(h1 != h2)[0]  # in (A, B, C) order
                expected = Comparison(verdict, tuple(map(int, least)))
            assert compare(r1, r2) == expected, (size, k)
            verdicts.add(expected.verdict)
            late += expected.witness is not None and expected.witness[0] > 0
    assert verdicts == {"equal", "implies", "implied", "incomparable"}
    assert late > 5


def test_compare_builds_no_class_row_table():
    """compare(aM, cl) on gf2-7 packs both left layouts from class rows,
    so neither relation holds a 2^21-cell table after it; a later check of
    either still reports the verdicts of tests/data/golden.txt."""
    inst = catalog_instance("gf2-7")
    op = instance_operator(inst)
    aM, cl = resolve_relation(inst, "aM"), resolve_relation(inst, "cl")
    assert compare(aM, cl) == Comparison("equal", None)
    assert aM.table is None and cl.table is None
    golden = (Path(__file__).parent / "data" / "golden.txt").read_text(
        encoding="utf-8")
    for r in (aM, cl):
        head = f"$ pregeolab check --instance gf2-7 --relation {r.name} --all\n"
        section = golden.split(head)[1].split("$ ")[0]
        assert section == "".join(
            rep.result_line() + "\n" for rep in check_all(r, op))


def verdicts(r, op):
    """(status, witness) of every axiom of `check_all` on r."""
    return [(rep.status, rep.witness) for rep in check_all(r, op)]


def expanded(r):
    """A `from_table` relation of r's expanded table, built apart from r."""
    return from_table(r.ground, r.name, r.rows.take(r.classes, axis=0))


@pytest.mark.parametrize("name", ["gebert4", "u36", "gf2-7"])
def test_catalog_class_rows_scan_like_their_expanded_tables(name):
    """Every axiom and every `compare` reports the same on each class-row
    relation of the catalog as on `from_table` of its expanded table, and
    none of them builds the table of a class-row relation."""
    inst = catalog_instance(name)
    op = instance_operator(inst)
    ids = [rid for rid in ("a", "cl", "aM", "am", "ac", "amc", "sup")
           if instances.defines(inst, rid)]
    pairs = []
    for rid in ids:
        r = resolve_relation(inst, rid)
        built_rows(r)
        assert r.classes is not None, rid
        t = expanded(r)
        assert verdicts(r, op) == verdicts(t, op), rid
        pairs.append((r, t))
    for (r1, t1), (r2, t2) in product(pairs, repeat=2):
        assert compare(r1, r2) == compare(t1, t2), (r1.name, r2.name)
    assert all(r.table is None for r, _ in pairs)
    assert len(pairs) == (7 if inst.pg is not None else 6)


def test_random_class_rows_scan_like_their_expanded_tables():
    """Random rows with random class maps at n = 0..7 (at n = 7 the right
    layout packs two blocks of B) report, on every axiom and in `compare`
    either way with another relation, what `from_table` of their expanded
    table reports, and build no table.  Besides a random k, from n = 3 the
    class bits of a row span one, two and three bytes (k = 8, 9, 16, 17
    and 2^n), with dense rows.  Some class maps leave rows unused, and
    dense rows put witnesses past A = {}."""
    rng = np.random.default_rng(25)
    late = 0
    widths = set()
    for size in range(8):
        g = GroundSet(size)
        count = 1 << size
        op = random_closure(g, rng)
        draws = [(int(rng.integers(1, count + 1)), d) for d in (0.5, 0.99)]
        if size >= 3:
            draws += [(k, 0.99) for k in sorted({8, 9, 16, 17, count})]
        for k, density in draws:
            rows = rng.random((k, count, count)) < density
            classes = rng.integers(0, k, count)
            r = class_rows(g, rows, classes)
            t = from_table(g, "rows", rows[classes])
            want = verdicts(t, op)
            assert verdicts(r, op) == want, (size, k, density)
            widths.add(r.packed[0].shape[1])
            late += sum(w is not None and w[0] > 0 for _, w in want)
            other = random_relation(g, size)
            assert compare(r, other) == compare(t, other), (size, k, density)
            assert compare(other, r) == compare(other, t), (size, k, density)
            assert compare(r, t) == Comparison("equal", None)
            assert r.table is None
    assert late > 30 and widths >= {1, 2, 3}


def test_nor_l_reads_every_a_where_classes_are_no_union_congruence():
    """A random class map is seldom a union congruence (`_union_classes`
    is None), so NOR-L's second row, (class(A + C), C), is no row of A's
    class, and NOR-L reads every A's rows.  With rows that hold but for a
    few cells of one class, A + C reaches that class from A in some
    classes and not from others, so the least violation often sits at a
    member of its class that is not the least one.  Every witness is the
    one a `from_table` copy of the expanded table gives."""
    rng = np.random.default_rng(31)
    inner = 0
    for trial in range(150):
        size = int(rng.integers(2, 6))
        g, count = GroundSet(size), 1 << size
        k = int(rng.integers(2, count))
        classes = rng.integers(0, k, count)
        rows = np.ones((k, count, count), dtype=bool)
        b, c = rng.integers(0, count, (2, 3))
        rows[rng.integers(0, k), b, c] = False
        r = class_rows(g, rows, classes)
        t = from_table(g, "rows", rows[classes])
        want = check_axiom(t, AxiomId.NOR_L).witness
        assert check_axiom(r, AxiomId.NOR_L).witness == want, trial
        congruent = axioms._union_classes(classes, k, count) is not None
        if want is not None and not congruent:
            inner += want[0] != np.flatnonzero(classes == classes[want[0]])[0]
    assert inner >= 8


def test_every_class_map_of_the_catalog_is_a_union_congruence():
    """class(A) = class(A') gives class(A + C) = class(A' + C) for every
    class map a relation of the catalog has: closure classes, since
    cl(A + C) = cl(cl(A) + C), and the max-classes of `sup`.  So NOR-L
    on them reads one block of rows per class."""
    seen = set()
    for name in instances.CATALOG_NAMES:
        inst = catalog_instance(name)
        for rid in instances.RELATIONS:
            if not instances.defines(inst, rid):
                continue
            r = instances.relation(inst, rid)
            if r.classes is None:
                continue
            k, count = int(r.classes.max()) + 1, r.ground.subset_count
            assert axioms._union_classes(r.classes, k, count) is not None, (
                name, rid)
            seen.add(rid)
    assert seen == {"a", "cl", "aM", "am", "ac", "amc", "sup"}


def test_clo_l_reads_one_block_per_pair_of_row_indexes():
    """CLO-L's rows depend on A only through (class(A), class(cl(A))),
    and SCLO's through (cl(A), class(A)).  Under closures that split the
    max-classes of `sup`, there are more such pairs than classes, and
    CLO-L and SCLO still report what a `from_table` copy of the expanded
    table reports."""
    rng = np.random.default_rng(32)
    subjects = [(catalog_instance(name).ground, instance_operator(
        catalog_instance(name))) for name in ("u36", "gf2-7", "gebert4")]
    for size in range(1, 6):
        subjects += [(GroundSet(size), random_closure(GroundSet(size), rng))
                     for _ in range(3)]
    split = 0
    fails = dict.fromkeys((AxiomId.CLO_L, AxiomId.SCLO), 0)
    for g, op in subjects:
        r = instances.rel_sup(g)
        pairs = set(zip(r.classes, r.classes[op.table]))
        split += len(pairs) > len(built_rows(r))
        for ax in fails:
            want = check_axiom(expanded(r), ax, op)
            assert check_axiom(r, ax, op) == want, (g, ax)
            fails[ax] += want.status == "fail"
    assert split >= 4 and fails[AxiomId.CLO_L] >= 4
    assert fails[AxiomId.SCLO] >= 10


def test_compare_across_two_class_maps():
    """Two relations whose class maps differ, the second one splitting
    each class of the first by A's lowest bit, with a few cells flipped:
    `compare` either way reads one block per pair (class1(A), class2(A))
    and reports what `from_table` copies of the expanded tables do."""
    rng = np.random.default_rng(33)
    verdicts_seen = set()
    for trial in range(30):
        size = int(rng.integers(1, 6))
        g, count = GroundSet(size), 1 << size
        k = int(rng.integers(1, count + 1))
        classes = rng.integers(0, k, count)
        rows = rng.random((k, count, count)) < 0.9
        split = rows.repeat(2, axis=0)
        for _ in range(int(rng.integers(0, 3))):
            j, b, c = rng.integers(0, 2 * k), *rng.integers(0, count, 2)
            split[j, b, c] ^= True
        r1 = class_rows(g, rows, classes)
        r2 = class_rows(g, split, 2 * classes + (np.arange(count) & 1))
        for x, y in ((r1, r2), (r2, r1)):
            got = compare(x, y)
            assert got == compare(expanded(x), expanded(y)), trial
            verdicts_seen.add(got.verdict)
    assert verdicts_seen == {"equal", "implies", "implied", "incomparable"}


def test_left_scans_of_class_rows_hold_no_row_per_a_and_c():
    """On gebert8 `a`, NOR-L, CLO-L, SCLO and `compare` with `sup` never
    hold an array of one row per (A, C), 2 MB of packed rows: their
    tracemalloc peak, past the layouts already packed, stays under half
    of that."""
    inst = catalog_instance("gebert8")
    layout = 4**8 * 32
    for ax in (AxiomId.NOR_L, AxiomId.CLO_L, AxiomId.SCLO, None):
        r, s = resolve_relation(inst, "a"), resolve_relation(inst, "sup")
        for x in (r, s):
            axioms._packed(x, 1)
        tracemalloc.start()
        try:
            if ax is None:
                compare(r, s)
            else:
                check_axiom(r, ax, inst.op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layout // 2, (ax, peak)


def test_pair_blocks_return_an_unmapped_layout_itself():
    """With one map None every A has a pair of its own: the layout without
    a map comes back itself, the other one taken by A into rows (A, C),
    and the index is None, either way round.  So SCLO on a whole table
    under a closure other than the identity copies one layout, not two:
    on gebert8 `int` its tracemalloc peak, past the layout already packed,
    stays under 1.5 layouts (2 MB each)."""
    rng = np.random.default_rng(36)
    count, k = 32, 5
    classes = rng.integers(0, k, count)
    whole = rng.integers(0, 256, (count * count, 4), dtype=np.uint8)
    rows = rng.integers(0, 256, (k * count, 4), dtype=np.uint8)
    for first in (True, False):
        args = (whole, None, rows, classes) if first else (
            rows, classes, whole, None)
        p1, p2, index = axioms._pair_blocks(*args, count)
        mapped = p2 if first else p1
        assert (p1 if first else p2) is whole and index is None
        np.testing.assert_array_equal(
            mapped, axioms._left_over_a(rows, classes))
    inst = catalog_instance("gebert8")
    r = resolve_relation(inst, "int")
    axioms._packed(r, 1)
    tracemalloc.start()
    try:
        rep = check_axiom(r, AxiomId.SCLO, inst.op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.result_line() == "RESULT int SCLO fail witness={0};{};{1}"
    assert peak < 1.5 * 4**8 * 32, peak


def test_chains_are_kept_read_only_for_the_last_size():
    """`_chains` lists each chain C <= B <= D once, in read-only arrays
    that it hands out again for the size it was last asked for."""
    c, b, d = axioms._chains(4)
    assert sorted(zip(c, b, d)) == [
        (x, y, z) for x, y, z in product(range(16), repeat=3)
        if x & ~y == 0 and y & ~z == 0]
    assert all(axioms._chains(4)[i] is x for i, x in enumerate((c, b, d)))
    for x in (c, b, d):
        with pytest.raises(ValueError):
            x[0] = 1
    axioms._chains(3)
    assert axioms._chains(4)[0] is not c


#: the right-layout axioms whose body reads A only through holds(A, ., .)
_CLASS_AXIOMS = (AxiomId.NOR_R, AxiomId.CLO_R, AxiomId.MON_R, AxiomId.BMON_R,
                 AxiomId.TRA_R, AxiomId.TRA_STRONG, AxiomId.BMON_STRONG)


def test_least_a_is_the_least_member_of_a_violated_class():
    """With the classes numbered against A (A = 0 in the last class), the
    least violating A lies in the violated class whose least member is
    least, which is not the least violated class index.  Each axiom that
    reads A only through holds(A, ., .) reports that A, and completes it
    as a relation whose every A row is that class's row does."""
    rng = np.random.default_rng(28)
    g = GroundSet(4)
    count, k = 16, 9
    classes = (count - 1 - np.arange(count)) * k // count  # 8, 7, 7, ..., 0
    assert set(classes) == set(range(k))
    op = random_closure(g, rng)
    crossed = 0
    for density in (0.9, 0.97):
        rows = rng.random((k, count, count)) < density
        r = class_rows(g, rows, classes)
        for ax in _CLASS_AXIOMS:
            alone = [check_axiom(from_table(g, "row", np.broadcast_to(
                row, (count,) * 3)), ax, op).witness for row in rows]
            violated = [j for j, w in enumerate(alone) if w is not None]
            got = check_axiom(r, ax, op).witness
            if not violated:
                assert got is None
                continue
            a = min(np.flatnonzero(np.isin(classes, violated)))
            assert got == (a,) + alone[classes[a]][1:], (density, ax)
            crossed += classes[a] != min(violated)
    assert crossed >= 5


def batch_cases():
    """Batches of relations that share one ground size and one class map,
    each with its closure: random tables at n = 0..5 from sparse to
    density 0.999, with `int`, which passes most axioms, and with
    opposites, whose lanes read their bases' cells swapped: of a table of
    the batch, of class rows and, twice swapped, of other class rows;
    random class rows under one random class map; and the closure
    relations of u34 and gebert4, which share the map of their closed
    sets."""
    rng = np.random.default_rng(30)
    cases = []
    for size in range(6):
        g = GroundSet(size)
        count = g.subset_count
        tables = [rng.random((count,) * 3) < density
                  for density in (0.02, 0.5, 0.9, 0.99, 0.999, 0.999)]
        rels = [from_table(g, "rand", t) for t in tables]
        whole = rels + [rel_intersection(g), opposite(rels[1])]
        cases.append((whole, random_closure(g, rng)))
        if size:
            k = max(2, count // 3)
            classes = rng.integers(0, k, count)
            rows = [rng.random((k, count, count)) < density
                    for density in (0.9, 0.999, 0.999, 1)]
            cases.append(([class_rows(g, x, classes) for x in rows],
                          random_closure(g, rng)))
            whole += [opposite(class_rows(g, rows[0], classes)),
                      opposite(opposite(class_rows(g, rows[1], classes)))]
    for name in ("u34", "gebert4"):
        inst = catalog_instance(name)
        rels = [resolve_relation(inst, rid)
                for rid in ("a", "cl", "aM", "am", "ac")
                if instances.defines(inst, rid)]
        cases.append((rels, instance_operator(inst)))
    return cases


@pytest.mark.parametrize("sclo_block", [None, 1 << 6])
def test_batched_scans_match_each_relation_alone(sclo_block, monkeypatch):
    """`check_axioms` scans each batch once, the relations' layouts side by
    side, and reports for every relation what `check_axiom` reports for
    it alone; every fail witness is a violation under the scalar route.
    Below n = 3 each lane of the left layout is one byte with padding.
    With small SCLO chunks each lane's pair rows are gathered a few pairs
    at a time, one pair per chunk from n = 6 on."""
    if sclo_block is not None:
        monkeypatch.setattr(axioms, "_SCLO_BLOCK_CELLS", sclo_block)
    outcomes = set()
    for rels, op in batch_cases():
        assert [len(b) for b in axioms._batches(rels)] == [len(rels)]
        for ax in AXIOM_ORDER:
            if ax not in axioms._BODIES:
                continue
            batched = check_axioms(rels, ax, op)
            assert batched == [check_axiom(r, ax, op) for r in rels], ax
            for r, rep in zip(rels, batched):
                if rep.status == "fail":
                    assert not evaluate_axiom_body(r, ax, rep.witness, op)
            statuses = {rep.status for rep in batched}
            outcomes.add("mixed" if len(statuses) > 1 else statuses.pop())
            outcomes.update("past A = {}" for rep in batched
                            if ax is not AxiomId.AREF and rep.witness
                            and rep.witness[0])
    assert outcomes == {"mixed", "pass", "fail", "past A = {}"}


def test_batches_split_at_one_n8_layout():
    """A batch's layout stays within one n = 8 layout: 512 lanes of 4 KB at
    n = 5, one lane of a whole table at n = 8 (2 MB), but 16 lanes of
    gebert8 `a`, whose right layout has 2 bytes of class bits a row.
    Relations of another size or class map go to their own batch, and
    every batch keeps input order."""
    small = [rel_intersection(GroundSet(5)) for _ in range(600)]
    assert [len(b) for b in axioms._batches(small)] == [512, 88]
    mixed = [small[0], rel_intersection(GroundSet(4)), small[1]]
    assert list(axioms._batches(mixed)) == [[0, 2], [1]]
    for r, step in ((rel_intersection(GroundSet(8)), 1),
                    (resolve_relation(catalog_instance("gebert8"), "a"), 16)):
        assert [len(b) for b in axioms._batches([r] * 20)] == [
            step] * (20 // step) + [20 % step] * (20 % step > 0)


@pytest.mark.parametrize("name,rel_id", [("gebert8", "a"), ("dlo6", "div")])
def test_single_relation_scan_reads_the_stored_layout(name, rel_id,
                                                      monkeypatch,
                                                      packed_route):
    """A batch of one hands each packed scan body the relation's stored
    layout itself, `r.packed[axis]`, with no concatenated copy, on class
    rows and on a whole table."""
    seen = []
    for scan in ("_scan_gather", "_scan_chain"):
        real = getattr(axioms, scan)
        monkeypatch.setattr(axioms, scan, lambda p, *rest, real=real:
                            seen.append(p) or real(p, *rest))
    inst = catalog_instance(name)
    r = resolve_relation(inst, rel_id)
    for ax, axis in ((AxiomId.NOR_R, 0), (AxiomId.CLO_R, 0),
                     (AxiomId.BMON_R, 0), (AxiomId.NOR_L, 1),
                     (AxiomId.TRA_L, 1)):
        seen.clear()
        check_axiom(r, ax, instance_operator(inst))
        assert len(seen) == 1 and seen[0] is r.packed[axis], ax


def test_scans_keep_padding_bits_zero():
    """Rows of k = 9 or 17 class bits, and of A bits below n = 3, have
    padding bits in their last byte.  `_pack`, `_over_a` and every scan
    that returns violation rows leave them 0, so no padding bit can stand
    for a class or an A: the gathers of NOR-R and CLO-R, MON-R's
    superset-OR, TRA-STRONG, and FREE on the A bits."""
    rng = np.random.default_rng(29)
    for size, k in ((4, 9), (4, 17), (2, 4), (1, 2), (0, 1), (2, 3)):
        count = 1 << size
        op = random_closure(GroundSet(size), rng)
        masks = np.arange(count)
        classes = rng.integers(0, k, count)
        for density in (0.5, 0.9):
            p = _pack(rng.random((k, count, count)) < density, 0)
            over_a = _over_a(p, classes) if k != count else p
            class_rows_out = [
                p, axioms._scan_gather(p, count, masks[:, None] | masks),
                axioms._scan_gather(p, count, op.table[:, None]),
                axioms._scan_mon(p, count), axioms._scan_tra_strong(p, count)]
            for out, bits in [(x, k) for x in class_rows_out] + [
                    (over_a, count), (axioms._scan_free(over_a, count), count)]:
                assert out.shape[1] == -(-bits // 8)
                pad = 0xFF << bits % 8 & 0xFF if bits % 8 else 0
                assert not (out[:, -1] & pad).any(), (size, k, density)


def test_search_finds_u34_for_bmon_r_failure():
    candidates = [
        (inst.name, rel_a(inst.op), inst.op)
        for inst in catalog().values()
        if inst.pg is not None and inst.ground.size <= 6
    ]
    hit = search_counterexample(Goal((), AxiomId.BMON_R), candidates)
    assert hit is not None
    assert hit.instance == "u34"
    assert hit.witness == (0b0011, 0, 0b0100, 0b1100)


def test_search_exhausted():
    g = GroundSet(2)
    candidates = [("int", rel_intersection(g), trivial_closure(g))]
    assert search_counterexample(Goal((), AxiomId.SYM), candidates) is None


def test_search_over_enumerated_relations():
    ident = trivial_closure(GroundSet(1))
    candidates = ((r.name, r, ident) for r in enumerate_all_relations())
    hit = search_counterexample(Goal((AxiomId.SYM,), AxiomId.MON_R), candidates)
    assert hit is not None
    assert hit.instance == "rel20"


def test_result_line_grammar(u34):
    rep = check_axiom(rel_a(u34.op), AxiomId.BMON_R)
    assert rep.result_line() == (
        "RESULT a BMON-R fail witness={0,1};{};{2};{2,3}"
    )
    ok = check_axiom(rel_a(u34.op), AxiomId.SYM)
    assert ok.result_line() == "RESULT a SYM pass"


def test_rel_st_free_axiom_spotcheck():
    from pregeolab.instances import Graph

    g = Graph.build(4, [(0, 3)])
    rep = check_axiom(rel_st(g), AxiomId.FREE)
    assert rep.status == "pass"


def test_aref_matches_scalar_scan_on_random_relations():
    """Random tables, from mostly false to mostly true, under every
    small catalog operator."""
    ops = [inst.op for inst in catalog().values()
           if inst.op is not None and inst.ground.size <= 4]
    rng = np.random.default_rng(29)
    outcomes = set()
    for op in ops:
        count = op.ground.subset_count
        for density in (0.02, 0.02, 0.05, 0.05, 0.2, 0.9):
            r = from_table(op.ground, "rand",
                           rng.random((count,) * 3) < density)
            want = grid_witness(r.table, AxiomId.AREF, op.table)
            rep = check_axiom(r, AxiomId.AREF, op)
            assert rep.witness == want, (op.ground, density)
            assert rep.status == ("pass" if want is None else "fail")
            outcomes.add(want if want is None else want[0])
    assert {None, 1, 2, 4, 8} <= outcomes  # passes, and every singleton


@pytest.mark.parametrize("name,rel_id", [
    ("path4", "st"), ("star4", "st"), ("dlo4", "div"),
    ("u34", "aM"), ("gebert4", "aM"), ("u34", "ac"), ("gebert4", "ac"),
])
def test_closure_axiom_bodies_need_no_table(name, rel_id):
    """The closure axioms' bodies through the scalar predicates, with
    closure entries read from the array table, agree tuple by tuple with
    the same bodies on index grids over the built table, so each
    relation's predicate and builder meet through one statement."""
    inst = catalog_instance(name)
    op = instance_operator(inst)
    scalar = resolve_relation(inst, rel_id)  # never materialized
    t3 = materialize(resolve_relation(inst, rel_id)).table
    masks = np.arange(inst.ground.subset_count)
    singletons = 1 << masks[:inst.ground.size]
    for ax in (AxiomId.AREF, AxiomId.CLO_L, AxiomId.CLO_R, AxiomId.SCLO):
        firsts = singletons if ax is AxiomId.AREF else masks
        axes = (firsts,) + (masks,) * (axioms._arity(ax) - 1)
        grid = grid_body(t3, ax, op.table, *np.ix_(*axes))
        got = [evaluate_axiom_body(scalar, ax, t, op) for t in product(*axes)]
        assert got == grid.ravel().tolist(), ax
    assert scalar.table is None
