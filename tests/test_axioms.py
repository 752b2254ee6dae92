from itertools import product

import numpy as np
import pytest

from pregeolab import axioms, closure
from pregeolab.axioms import (
    _pack,
    AXIOM_ORDER,
    AxiomId,
    Comparison,
    Goal,
    MissingClosure,
    check_all,
    check_axiom,
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
from pregeolab.lattice import GroundSet, first_true
from pregeolab.relcalc import (
    from_table,
    materialize,
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


def _scalar_least_witness(r, ax, op=None):
    """Brute quantifier scan via the scalar axiom body only."""
    count = r.ground.subset_count
    arity3 = ax in (AxiomId.SYM, AxiomId.NOR_L, AxiomId.NOR_R, AxiomId.CLO_L,
                    AxiomId.CLO_R, AxiomId.SCLO)
    if ax is AxiomId.EX:
        for a, c in product(range(count), repeat=2):
            if not evaluate_axiom_body(r, ax, (a, c)):
                return (a, c)
        return None
    if ax is AxiomId.AREF:
        for a in range(r.ground.size):
            for c in range(count):
                if not evaluate_axiom_body(r, ax, (1 << a, c), op):
                    return (1 << a, c)
        return None
    arity = 3 if arity3 else 4
    for tup in product(range(count), repeat=arity):
        if not evaluate_axiom_body(r, ax, tup, op):
            return tup
    return None


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
    g = GroundSet(2)
    # 32 random n = 2 tables: some least BMON-STRONG witnesses need D & C
    cases = [(random_relation(g, seed), trivial_closure(g)) for seed in range(32)]
    cases += _dense_cases()
    rows_hit = set()
    passed = 0
    for k, (r, op) in enumerate(cases):
        rep = check_axiom(r, axiom, op)
        expected = _scalar_least_witness(r, axiom, op)
        if expected is None:
            assert rep.status == "pass", (axiom, k)
            passed += 1
        else:
            assert rep.status == "fail", (axiom, k)
            assert rep.witness == expected, (axiom, k)
            rows_hit.add(expected[0])
    assert max(rows_hit) > 0  # some least witness lies past the row A = {}
    if axiom in _STRONG:
        assert passed  # the pass path of these scans is covered


def sorted_chains(size):
    """The chains C <= B <= D listed in (C, B, D) order."""
    code = np.arange(4**size)
    key = np.zeros_like(code)  # C, B, D side by side: sorts as (C, B, D)
    for i in range(size):
        place = code >> 2 * i & 3
        bits = (place == 3) << 2 * size | (place >= 2) << size | (place >= 1)
        key |= bits << i
    key.sort()
    full = (1 << size) - 1
    return key >> 2 * size, key >> size & full, key & full


def scalar_chain_scan(t3, left, transitive):
    """BMON and TRA one A row at a time: the first row with a violating
    chain holds the least (A, C, B, D)."""
    count = len(t3)
    c, b, d = sorted_chains(count.bit_length() - 1)
    dc, db, bc = d * count + c, d * count + b, b * count + c
    for a in range(count):
        t = (t3[:, a] if left else t3[a]).ravel()
        if transitive:
            viol = t[bc] & t[db] & ~t[dc]
        else:
            viol = t[dc] & ~t[db]
        if viol.any():
            i = int(np.argmax(viol))
            return (a, int(c[i]), int(b[i]), int(d[i]))
    return None


def scalar_nor_scan(t3, left):
    """NOR one A row at a time, on the (B, C) plane of each A."""
    count = len(t3)
    masks = np.arange(count)
    cells = (masks[:, None] | masks[None, :]) * count + masks  # (B+C, C)
    for a in range(count):
        if left:
            viol = t3[a] & ~t3[a | masks, :, masks].T
        else:
            viol = t3[a] & ~t3[a].ravel()[cells]
        if viol.any():
            c, b = divmod(int(np.argmax(viol.T)), count)
            return (a, c, b)
    return None


def row_scan(t3, plane):
    """Scan in (A, C, B) order one A row at a time; plane(a) is the (B, C)
    violation plane of row A = a."""
    for a in range(len(t3)):
        viol = plane(a)
        if viol.any():
            c, b = divmod(int(np.argmax(viol.T)), len(viol))
            return (a, c, b)
    return None


def zeta_or(t, var, up, clear=()):
    """OR each cell of a bool [A, B, C] table, in place, over the supersets
    (up) or subsets of its `var` index, one pass per bit i on the table
    viewed as a 3n-dimensional cube; the pass for bit i skips the cells
    where a variable in `clear` has bit i."""
    size = len(t).bit_length() - 1
    cube = t.reshape((2,) * (3 * size))
    for i in range(size):
        at = [slice(None)] * (3 * size)
        for v in clear:
            at[v * size + size - 1 - i] = 0
        src, dst = list(at), at
        src[var * size + size - 1 - i] = 1 if up else 0
        dst[var * size + size - 1 - i] = 0 if up else 1
        cube[tuple(dst)] |= cube[tuple(src)]
    return t


def scalar_mon_scan(t3, left):
    """MON by a superset-OR of the bool cells along B (A for MON-L): the
    least (A, C, B) where r fails and holds with a superset in its place,
    then the least D that makes it hold."""
    masks = np.arange(len(t3))
    bad = zeta_or(t3.copy(), 0 if left else 1, up=True)
    np.greater(bad, t3, out=bad)
    hit = first_true(bad.transpose(0, 2, 1))
    if hit is None:
        return None
    a, c, b = hit
    grown = t3[a | masks, b, c] if left else t3[a, b | masks, c]
    return (a, c, b, int(np.argmax(grown)))


def scalar_free_scan(t3):
    """FREE by a subset-OR of the bool cells of not r along C over the
    bits outside A+B, then the least D of the interval where r fails."""
    bad = zeta_or(~t3, 2, up=False, clear=(0, 1))
    bad &= t3
    hit = first_true(bad.transpose(0, 2, 1))
    if hit is None:
        return None
    a, c, b = hit
    d = np.arange(len(t3))
    ok = (c & (a | b) & ~d == 0) & (d & ~c == 0) & ~t3[a, b]
    return (a, c, b, int(np.argmax(ok)))


def _halves(v, i):
    """Views of the cells of v whose last index lacks, and has, bit i."""
    v = v.reshape(v.shape[:-1] + (v.shape[-1] >> i + 1, 2, 1 << i))
    return v[..., 0, :], v[..., 1, :]


def _interval_table(rows, tra):
    """Rows [A, X, Y] of r recoded to [A, code, Y], where the code puts a
    pair of disjoint sets in base 3: digit i is 0 when element i is in
    neither set, 1 when it is in the first, 2 when it is in the second.
    A cell is a bool, or a byte whose bits are the cells of 8 A rows.

    TRA-STRONG (tra): X = B, the pair is (W, B) and the cell is T[A, (W,
    B), C], the OR of r(A, W+V, B+C) over V <= B.  BMON-STRONG: X = C, Y =
    B, the pair is (E, C) and the cell is U[A, (E, C), B], the OR of r(A,
    B+E+S, C) over S <= C.  Both ORs are intervals of the subset lattice,
    so one pass per element i builds them: it turns each 2 x 2 block of
    bit i of (X, Y) into a 3 x 2 block of (digit i, bit i of Y)."""
    count = rows.shape[1]
    size = count.bit_length() - 1
    x = rows
    for i in range(size):  # digits below i are done, bits i and up are not
        x = x.reshape(-1, 2, 3**i, count)
        out = np.empty((len(x), 3, 3**i, count), dtype=rows.dtype)
        out[:, 0] = x[:, 0]
        if tra:
            out[:, 1] = x[:, 1]  # i in W
            np.bitwise_or(x[:, 0], x[:, 1], out=out[:, 2])  # i in V or not
            lack, has = _halves(out[:, 2], i)
            lack[...] = has  # i in B, so in B+C
        else:
            out[:, 1] = x[:, 0]
            lack, has = _halves(out[:, 1], i)
            lack[...] = has  # i in E, so in B+E+S
            out[:, 2] = x[:, 1]
            lack, has = _halves(out[:, 2], i)
            lack |= has  # i in C, and in S or not
        x = out
    return x.reshape(len(rows), 3**size, count)


def interval_scan(t3, ax):
    """TRA-STRONG or BMON-STRONG on cells coded in base 3, on blocks of 8
    A rows whose cells are the bits of one byte.  Some D violates
    TRA-STRONG at (A, C, B) exactly when r(A, B, C) holds and some W
    outside B has T[A, (W, B), C] and not r(A, B+W, C); some D violates
    BMON-STRONG exactly when some E outside C has U[A, (E, C), B] and not
    r(A, B, C+E).  So a block marks the codes whose cell holds while r
    fails at the union of the pair, then ORs each digit's values 0 and 1
    into bit value 0, leaving B (C) as the second set; the least D
    completes the least marked (A, C, B)."""
    tra = ax is AxiomId.TRA_STRONG
    count = len(t3)
    size = count.bit_length() - 1
    code = np.arange(3**size)
    union = np.zeros_like(code)  # W+B (E+C): the elements of nonzero digit
    for i in range(size):
        union |= (code // 3**i % 3 != 0).astype(union.dtype) << i
    for lo in range(0, count, 8):
        rows = np.packbits(t3[lo:lo + 8], axis=0, bitorder="little")
        rows = rows if tra else rows.transpose(0, 2, 1)
        marked = _interval_table(rows, tra) & ~rows[:, union]
        for i in range(size):  # digit i from the top: 0 and 1 OR into bit 0
            marked = marked.reshape(1 << i, 3, -1)
            marked = np.stack((marked[:, 0] | marked[:, 1], marked[:, 2]), 1)
        viol = marked.reshape(count, count)
        viol = viol & rows[0] if tra else viol.T
        # [k, B, C]: the (B, C) plane of row A = lo + k
        planes = np.unpackbits(viol[None], axis=0, count=min(8, count - lo),
                               bitorder="little")
        hit = row_scan(planes, lambda k: planes[k])
        if hit is not None:
            return axioms._least_d(t3, ax, lo + hit[0], *hit[1:])
    return None


_ROW_SCANS = {  # axiom -> its scan of bool cells, given the closure table
    AxiomId.BMON_R: lambda t3, cl: scalar_chain_scan(t3, False, False),
    AxiomId.BMON_L: lambda t3, cl: scalar_chain_scan(t3, True, False),
    AxiomId.TRA_R: lambda t3, cl: scalar_chain_scan(t3, False, True),
    AxiomId.TRA_L: lambda t3, cl: scalar_chain_scan(t3, True, True),
    AxiomId.NOR_R: lambda t3, cl: scalar_nor_scan(t3, False),
    AxiomId.NOR_L: lambda t3, cl: scalar_nor_scan(t3, True),
    AxiomId.SYM: lambda t3, cl: row_scan(t3, lambda a: t3[a] & ~t3[:, a]),
    AxiomId.CLO_R: lambda t3, cl: row_scan(t3, lambda a: t3[a] & ~t3[a][cl]),
    AxiomId.CLO_L: lambda t3, cl: row_scan(t3, lambda a: t3[a] & ~t3[cl[a]]),
    AxiomId.MON_R: lambda t3, cl: scalar_mon_scan(t3, False),
    AxiomId.MON_L: lambda t3, cl: scalar_mon_scan(t3, True),
    AxiomId.FREE: lambda t3, cl: scalar_free_scan(t3),
    AxiomId.TRA_STRONG: lambda t3, cl: interval_scan(t3, AxiomId.TRA_STRONG),
    AxiomId.BMON_STRONG: lambda t3, cl: interval_scan(t3, AxiomId.BMON_STRONG),
}


def random_closure(ground, rng):
    """The closure of the Moore family of a few random sets and the ground
    set: cl(X) is the intersection of the family's sets that contain X."""
    count = ground.subset_count
    masks = np.arange(count)
    table = np.full(count, count - 1)
    for s in rng.integers(0, count, 3):
        table = np.where(masks & ~s == 0, table & s, table)
    return closure.from_table(ground, table)


def test_packed_scans_match_row_scans_on_random_tables():
    """The packed scans report the same least witness as the scans of
    bool cells at n = 0..6, where a packed row of n <= 2 has padding
    bits.  Dense tables put some witnesses past A = {}, sparse ones put
    the least chain far from the first, and CLO-L/R run under a random
    closure that is not the identity.  In a copy of the first table of
    each density the first k rows of A are all true, where neither
    TRA-STRONG nor BMON-STRONG can fail, so their witnesses lie past
    A = {}."""
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
            for rep in range(2 if size == 6 else 4):
                tables.append(rng.random((count,) * 3) < density)
                if rep == 0 and size:
                    tables.append(tables[-1].copy())
                    tables[-1][:rng.integers(1, count)] = True
        for t3 in tables:
            r = from_table(GroundSet(size), "rand", t3)
            for ax, scan in _ROW_SCANS.items():
                want = scan(t3, op.table)
                assert check_axiom(r, ax, op).witness == want, (size, ax)
                fails += want is not None
                if want is not None and want[0] > 0:
                    late.add(ax)
                    strong_late += ax in (AxiomId.TRA_STRONG, AxiomId.BMON_STRONG)
                if ax in (AxiomId.CLO_L, AxiomId.CLO_R) and want:
                    clo_sizes.add(size)
    assert fails > 500 and late == set(_ROW_SCANS) and strong_late > 40
    assert clo_sizes >= {1, 2, 6}


@pytest.mark.parametrize("name,rel_id,axioms", [
    ("gf2-7", "cl", tuple(_ROW_SCANS)),
    ("gf2-7", "aM", tuple(_ROW_SCANS)),
    ("u36", "cl", tuple(_ROW_SCANS)),
    ("u36", "aM", tuple(_ROW_SCANS)),
    ("dlo6", "div", tuple(_ROW_SCANS)),
    ("gebert8", "a", (AxiomId.TRA_L,)),
])
def test_packed_scans_match_row_scans_on_catalog(name, rel_id, axioms):
    inst = catalog_instance(name)
    op = instance_operator(inst)
    r = resolve_relation(inst, rel_id)
    t3 = materialize(r).table
    for ax in axioms:
        assert check_axiom(r, ax, op).witness == _ROW_SCANS[ax](t3, op.table), ax
    if name == "dlo6":
        assert check_axiom(r, AxiomId.TRA_R).witness == (2, 0, 1, 5)


@pytest.mark.parametrize("size", range(9))
def test_pack_matches_packbits(size):
    count = 1 << size
    rng = np.random.default_rng(size)
    t3 = rng.integers(0, 2, (count,) * 3, dtype=np.uint8).view(bool)
    for axis in (0, 1):
        bits = np.packbits(t3, axis, bitorder="little")
        want = np.moveaxis(bits, axis, -1).reshape(count * count, -1)
        np.testing.assert_array_equal(_pack(t3, axis), want)


@pytest.mark.parametrize("name,rel_id", [("u36", "cl"), ("gebert8", "a")])
def test_check_all_packs_each_axis_once(name, rel_id, monkeypatch):
    """Every scan of one table reads the same two packed layouts, each
    read-only and packed at most once."""
    axes = []

    def counted(t3, axis):
        axes.append(axis)
        return _pack(t3, axis)

    monkeypatch.setattr(axioms, "_pack", counted)
    inst = catalog_instance(name)
    r = resolve_relation(inst, rel_id)
    check_all(r, instance_operator(inst))
    assert sorted(axes) == [0, 1]
    for axis in (0, 1):
        source, view = r.packed[axis]
        assert source is r.table and not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0


def test_replaced_table_is_packed_again():
    """A table that replaces the one a scan packed is packed anew, so the
    next check reads the new table, not the old layout."""
    r = from_table(GroundSet(3), "rand", np.ones((8, 8, 8), dtype=bool))
    assert check_axiom(r, AxiomId.SYM).status == "pass"
    table = r.table.copy()
    table[1, 2, 4] = False  # r(1, 2, 4) fails while r(2, 1, 4) holds
    r.table = table
    rep = check_axiom(r, AxiomId.SYM)
    assert rep.status == "fail" and rep.witness == (2, 4, 1)
    assert r.packed[0][0] is table


def scalar_sclo_scan(t3, cl):
    """SCLO one A row at a time: the (B, C) plane of each A against the
    gather of r(cl(A+C), cl(B+C), cl(C)) from the whole table."""
    count = len(t3)
    masks = np.arange(count)
    rows = t3.reshape(count, -1)
    cells = cl[masks[:, None] | masks] * count + cl  # (cl(B+C), cl(C)) in a row
    for a in range(count):
        viol = t3[a] ^ rows[cl[a | masks], cells]
        if viol.any():
            c, b = divmod(int(np.argmax(viol.T)), count)
            return (a, c, b)
    return None


def test_sclo_matches_row_scan_on_random_tables():
    """Random tables at n = 0..6 under the trivial closure, and tables
    that satisfy SCLO by construction with a few cells (A, B, C) flipped,
    A not inside C: every tuple that reaches such a cell has A > 0."""
    rng = np.random.default_rng(14)
    late = fails = 0
    for size in range(7):
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
            want = scalar_sclo_scan(t3, op.table)
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
        want = scalar_sclo_scan(t3, op.table)
        r = from_table(inst.ground, "a", t3)
        assert check_axiom(r, AxiomId.SCLO, op).witness == want, (name, k)
        fails += want is not None
        late += want is not None and want[0] > 0
    assert scalar_sclo_scan(good, op.table) is None
    assert fails >= 10 and late >= 10


_LAYOUT_AXIOMS = (AxiomId.SYM, AxiomId.NOR_L, AxiomId.NOR_R, AxiomId.CLO_L,
                  AxiomId.CLO_R, AxiomId.MON_L, AxiomId.MON_R, AxiomId.FREE,
                  AxiomId.TRA_STRONG, AxiomId.BMON_STRONG)


@pytest.mark.parametrize("name,rel_id", [("gebert8", "a"), ("gf2-7", "cl")])
def test_packed_scans_match_row_scans_on_corrupted_catalog_tables(
        name, rel_id):
    """Fail paths at n = 7 and 8, where no catalog relation fails SYM,
    MON, TRA-STRONG or BMON-STRONG: the table with a few cells (A, B, C)
    flipped, A > 0."""
    inst = catalog_instance(name)
    op = instance_operator(inst)
    good = materialize(resolve_relation(inst, rel_id)).table
    count = len(good)
    rng = np.random.default_rng(count)
    late = set()  # the axioms with some least witness past A = {}
    for k in range(3):
        t3 = good.copy()
        a, b, c = rng.integers(1, count, (3, 1 + k))
        t3[a, b, c] ^= True
        r = from_table(inst.ground, rel_id, t3)
        for ax in _LAYOUT_AXIOMS:
            want = _ROW_SCANS[ax](t3, op.table)
            assert check_axiom(r, ax, op).witness == want, (name, k, ax)
            if want is not None and want[0] > 0:
                late.add(ax)
    assert late >= {AxiomId.SYM, AxiomId.CLO_L, AxiomId.CLO_R, AxiomId.MON_L,
                    AxiomId.MON_R, AxiomId.TRA_STRONG, AxiomId.BMON_STRONG}


@pytest.mark.parametrize("name", ["trivial5", "u36", "gebert4"])
def test_sclo_in_small_blocks_matches_row_scan(name, monkeypatch):
    """With blocks of 64 table cells every A row from n = 3 on is in a
    block of at most 8 rows, and each block gathers only the pair rows
    that no earlier block gathered."""
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
        want = scalar_sclo_scan(t3, op.table)
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
    """Verdict and least differing (A, B, C) against a loop over the
    scalar predicates."""
    rng = np.random.default_rng(5)
    verdicts = set()
    for size in (1, 2, 3):
        g = GroundSet(size)
        shape = (1 << size,) * 3
        for k in range(12):
            t1 = rng.random(shape) < 0.5
            extra = rng.random(shape) < 0.05
            t2 = (t1, t1 | extra, t1 & ~extra, rng.random(shape) < 0.5)[k % 4]
            r1, r2 = from_table(g, "r1", t1), from_table(g, "r2", t2)
            cells = list(product(range(1 << size), repeat=3))
            more = [x for x in cells if r1.fn(*x) and not r2.fn(*x)]
            less = [x for x in cells if r2.fn(*x) and not r1.fn(*x)]
            if not more and not less:
                expected = Comparison("equal", None)
            else:
                verdict = ("implies" if not more else
                           "implied" if not less else "incomparable")
                expected = Comparison(verdict, min(more + less))
            assert compare(r1, r2) == expected, (size, k)
            verdicts.add(expected.verdict)
    assert verdicts == {"equal", "implies", "implied", "incomparable"}


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


def scalar_aref(t3, op):
    """AREF by its scan order: singletons {a} ascending, then bases C."""
    for a in range(op.ground.size):
        bit = 1 << a
        for c in range(op.ground.subset_count):
            if t3[bit, bit, c] and not op.table[c] >> a & 1:
                return (bit, c)
    return None


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
            want = scalar_aref(r.table, op)
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
    """The closure axioms evaluated through the scalar predicates, with
    closure entries read from the array table, agree with the table."""
    inst = catalog_instance(name)
    op = instance_operator(inst)
    scalar = resolve_relation(inst, rel_id)  # never materialized
    table = from_table(inst.ground, rel_id,
                       materialize(resolve_relation(inst, rel_id)).table)
    count, size = inst.ground.subset_count, inst.ground.size
    tuples = {
        AxiomId.AREF: list(product([1 << a for a in range(size)],
                                   range(count))),
    }
    for ax in (AxiomId.CLO_L, AxiomId.CLO_R, AxiomId.SCLO):
        tuples[ax] = list(product(range(count), repeat=3))
    for ax, cases in tuples.items():
        got = [evaluate_axiom_body(scalar, ax, t, op) for t in cases]
        assert got == [evaluate_axiom_body(table, ax, t, op) for t in cases]
    assert scalar.table is None
