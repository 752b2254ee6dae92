import tracemalloc
from itertools import product

import numpy as np
import pytest

from pregeolab import relcalc
from pregeolab.axioms import AXIOM_ORDER, check_all, compare
from pregeolab.cli import UsageError, instance_operator, resolve_relation
from pregeolab.closure import from_table as operator_from_table
from pregeolab.closure import trivial_closure
from pregeolab.geometry import dim_table
from pregeolab.instances import (
    RELATIONS,
    catalog,
    catalog_instance,
    gebert_closure,
    linear_pregeometry,
    uniform_pregeometry,
)
from pregeolab.lattice import GroundSet
from pregeolab.relcalc import (
    CapExceeded,
    TernaryRelation,
    closure_extend_c,
    from_table,
    materialize,
    monotonise_M,
    monotonise_m,
    opposite,
    random_relation,
    rel_a,
    rel_cl,
    rel_intersection,
    rel_sup,
)


@pytest.fixture(scope="module")
def u34():
    return uniform_pregeometry(3, 4)


def assert_table_matches_scalar(r):
    """The vectorised table and the scalar evaluator are independent
    routes to the same relation.  The table is a C-contiguous bool array."""
    count = r.ground.subset_count
    expected = np.array(
        [r.fn(a, b, c) for a, b, c in product(range(count), repeat=3)],
        dtype=bool,
    ).reshape((count,) * 3)
    assert_same_table(r, expected)


def assert_same_table(r, expected):
    """r's table is a C-contiguous bool array equal to `expected`; a
    failure names the least differing (A, B, C)."""
    t = materialize(r).table
    assert t.dtype == bool and t.flags.c_contiguous, r.name
    assert np.array_equal(t, expected), (
        r.name, tuple(np.argwhere(t != expected)[0]))


def test_builders_match_scalar_eval(u34):
    assert_table_matches_scalar(rel_intersection(GroundSet(3)))
    assert_table_matches_scalar(rel_a(u34.op))
    assert_table_matches_scalar(rel_cl(u34))
    assert_table_matches_scalar(rel_sup(GroundSet(3)))
    g = gebert_closure(3)
    assert_table_matches_scalar(monotonise_M(rel_a(g), g))
    assert_table_matches_scalar(monotonise_m(rel_a(g)))
    assert_table_matches_scalar(closure_extend_c(rel_intersection(g.ground), g))
    assert_table_matches_scalar(opposite(rel_sup(GroundSet(3))))
    # a random base fails at every X, including the interval's ends
    for seed in range(3):
        assert_table_matches_scalar(monotonise_M(random_relation(g.ground, seed), g))
        assert_table_matches_scalar(monotonise_m(random_relation(u34.ground, seed)))
    # Every relation id and its opposite on every catalog instance with
    # n <= 4 that resolves.
    ids = list(RELATIONS) + [f"opp({rid})" for rid in RELATIONS]
    checked = set()
    for inst in catalog().values():
        if inst.ground.size > 4:
            continue
        for rid in ids:
            try:
                r = resolve_relation(inst, rid)
            except UsageError:
                continue
            assert_table_matches_scalar(r)
            checked.add((inst.name, rid))
    assert len(checked) == 160
    # on u34 and gebert4 some pass of aM's cube has cells
    # (F_j, X), X without i, both with i inside cl(F_j + X) (ANDed) and
    # outside (kept)
    for name in ("u34", "gebert4"):
        op = catalog()[name].op
        count = op.ground.subset_count
        mixed = [
            i
            for i in range(op.ground.size)
            if len({
                op.table[b | x] >> i & 1
                for b in relcalc.flats(op).closed
                for x in range(count)
                if not x >> i & 1
            }) == 2
        ]
        assert mixed and (name, "aM") in checked
    # The scalar predicates of monotonise_M and closure_extend_c pass
    # closure entries on as Python ints, which the graph and order
    # predicates need; here under closures other than the identity.
    for name, rid in (("path4", "st"), ("star4", "st"), ("dlo4", "div")):
        inst = catalog_instance(name)
        for op in (gebert_closure(4), u34.op):
            for transform in (monotonise_M, closure_extend_c):
                assert_table_matches_scalar(
                    transform(resolve_relation(inst, rid), op))


def test_transformer_predicates_read_no_table(u34):
    """A transformer's scalar predicate calls its base's predicate, not
    the base's cube, rows or table: after the stack is built, a corrupted
    base cube (which M and c read), corrupted base class rows and a
    corrupted base table (which opp reads) leave the predicate unchanged."""
    op = u34.op
    stacks = (lambda base: monotonise_M(base, op),
              lambda base: closure_extend_c(base, op), opposite)
    for stack in stacks:
        base = rel_a(op)
        r = materialize(stack(base))
        cube, rows = relcalc.built_cube(base), relcalc.built_rows(base)
        table = materialize(base).table
        base.cube, base.rows, base.table = ~cube, ~rows, ~table
        assert_table_matches_scalar(r)


def test_cube_relations_take_their_rows_from_their_cubes():
    """On every catalog instance whose operator has fewer closed sets than
    subsets, `a` and `cl` take their rows from their cubes, with no call to
    a row builder, and so do `aM` and `ac`, whose cubes come from the cube
    of `a`: building their rows leaves `a` with no rows.  Under an
    operator whose every set is closed `a` and `cl` have no cube and equal
    `int` cell for cell."""

    def refuse():
        raise AssertionError("a row builder ran")

    seen = set()
    for inst in catalog().values():
        op = instance_operator(inst)
        ints = materialize(rel_intersection(inst.ground)).table
        rels = [rel_a(op)] + ([rel_cl(inst.pg)] if inst.pg is not None else [])
        if relcalc.flats(op) is None:
            for r in rels:
                assert r.flats is None
                assert_same_table(r, ints)
                seen.add((r.name, "int"))
            continue
        for r in rels:
            r.builder = refuse
            assert len(relcalc.built_rows(r)) == len(r.flats.closed)
        if inst.op is None:
            continue
        for make in (monotonise_M, closure_extend_c):
            base = rel_a(inst.op)
            t = make(base, inst.op)
            t.builder = refuse
            relcalc.built_rows(t)
            assert base.rows is None and base.cube is not None, t.name
            seen.add(t.name)
    assert seen == {("a", "int"), ("cl", "int"), "aM", "ac"}


def test_monotonise_passes_match_scalar_at_size_five():
    """At n = 5 the passes shift by 1, 2, 4, 8 and 16 cells on words of
    8 cells, so the first three shifts stay inside a word and the last
    two move whole words.  Dense bases keep some ANDs over large
    intervals true."""
    g = GroundSet(5)
    ops = [
        trivial_closure(g),
        uniform_pregeometry(2, 5).op,
        uniform_pregeometry(3, 5).op,
        gebert_closure(5),
    ]
    rng = np.random.default_rng(6)
    changed = 0
    for density in (0.5, 0.9, 0.99):
        base = rng.random((32,) * 3) < density
        for op in ops:
            r = monotonise_M(from_table(g, "rand", base), op)
            assert_table_matches_scalar(r)
            changed += bool(r.table.any() and (r.table != base).any())
    assert changed == 3 * len(ops)


def reference_monotonise_M(base, cl):
    """The superset-AND of `monotonise_M` as n whole-table passes on
    single cells, with no blocks and no word views: pass i ANDs the cell
    (A, B, C+i) into each cell (A, B, C) with i in cl(B+C) outside C."""
    t = base.copy()
    count = len(t)
    masks = np.arange(count)
    tops = cl[masks[:, None] | masks[None, :]]  # (B, C): cl(B+C)
    for i in range(count.bit_length() - 1):
        run = 1 << i
        shape = (count, count, count >> i + 1, 2, run)
        cells = t.reshape(shape)
        lo, hi = cells[..., 0, :], cells[..., 1, :]  # C without, with i
        # (B, C) for the C without i: i is outside cl(B+C)
        lo &= hi | (tops >> i & 1 == 0).reshape(shape[1:])[..., 0, :]
    return t


def reference_a(cl):
    """The `a` table one A row at a time: cl(A+C) & cl(B+C) == cl(C)."""
    count = len(cl)
    masks = np.arange(count)
    joined = cl[masks[:, None] | masks[None, :]]  # (B, C): cl(B+C)
    table = np.empty((count, count, count), dtype=bool)
    for a in range(count):
        np.equal(cl[a | masks] & joined, cl, out=table[a])
    return table


def reference_c(base, cl):
    """`closure_extend_c` as one gather: base[A, cl(B+C), C]."""
    masks = np.arange(len(cl))
    return base[:, cl[masks[:, None] | masks], masks]


def reference_cl(dims):
    """The `cl` table one A row at a time: dim(A/B+C) == dim(A/C)."""
    count = len(dims)
    masks = np.arange(count)
    joined = masks[:, None] | masks[None, :]  # (B, C): B+C
    table = np.empty((count, count, count), dtype=bool)
    for a in range(count):
        np.equal(dims[a][joined], dims[a], out=table[a])
    return table


# The default block is one block up to n = 6, 16 at n = 7 and 64 at
# n = 8; 2^10 cells are 4 A rows at n = 4 and one row from n = 5 on, and
# 1 puts every A row in a block of its own.  A relation with a cube has
# one row per closed set (k = 9 on gebert8, 23 on u36), and its cube's
# passes and gather run on blocks of those k rows, so its last block may
# be short.
DEFAULT_BLOCK = relcalc._BUILD_BLOCK_CELLS
BLOCKS = (DEFAULT_BLOCK, 1 << 10, 1)


@pytest.mark.parametrize("block", BLOCKS)
def test_builders_match_reference_on_catalog(block, monkeypatch):
    """a, aM, am, ac and cl on every catalog closure and pregeometry equal
    the reference builders cell for cell; gebert8 with the default blocks
    only."""
    monkeypatch.setattr(relcalc, "_BUILD_BLOCK_CELLS", block)
    checked = []
    for inst in catalog().values():
        if inst.op is None or block != DEFAULT_BLOCK and inst.ground.size > 7:
            continue
        op = inst.op
        base, expected = rel_a(op), reference_a(op.table)
        # the transformers read the base's cube, not a table
        assert_same_table(monotonise_M(base, op),
                          reference_monotonise_M(expected, op.table))
        trivial = trivial_closure(op.ground).table
        assert_same_table(monotonise_m(base),
                          reference_monotonise_M(expected, trivial))
        assert_same_table(closure_extend_c(base, op),
                          reference_c(expected, op.table))
        assert_same_table(base, expected)
        if inst.pg is not None:
            assert_same_table(rel_cl(inst.pg), reference_cl(dim_table(inst.pg)))
        checked.append(inst.name)
    assert len(checked) == 11 - (block != DEFAULT_BLOCK)


@pytest.mark.parametrize("block", BLOCKS)
def test_monotonise_matches_reference_on_random_bases(block, monkeypatch):
    """Random bases of density 0.5, 0.9 and 0.99 at n = 0..6, under the
    trivial, uniform and initial-segment closures: the passes run on
    words of 1, 2, 4 and 8 cells (n = 0, 1, 2 and from 3 on)."""
    monkeypatch.setattr(relcalc, "_BUILD_BLOCK_CELLS", block)
    rng = np.random.default_rng(15)
    for n in range(7):
        g = GroundSet(n)
        ops = [trivial_closure(g), uniform_pregeometry(n // 2, n).op]
        if n:
            ops.append(gebert_closure(n))
        for density in (0.5, 0.9, 0.99):
            base = from_table(g, "rand", rng.random((1 << n,) * 3) < density)
            for op in ops:
                assert_same_table(monotonise_M(base, op),
                                  reference_monotonise_M(base.table, op.table))
            trivial = trivial_closure(g).table
            assert_same_table(monotonise_m(base),
                              reference_monotonise_M(base.table, trivial))


def test_dim_sees_only_the_closure_of_A():
    """dim(A/X) = dim(cl(A)/X) in a pregeometry: the fact that lets `cl`
    build one A row per closed set."""
    pgs = [inst.pg for inst in catalog().values() if inst.pg is not None]
    assert len(pgs) >= 8
    for pg in pgs:
        dims = dim_table(pg)
        assert np.array_equal(dims[pg.op.table], dims)


def test_cl_rows_from_ranks_match_dim_table():
    """The rows of `cl`, taken from its cube of dim(F_i/X) as
    rank(cl(F_i + X)) - rank(X) at the closed sets, or `int`'s table where
    every set is closed, are dims[a, b|c] == dims[a, c] of `dim_table` for
    the closed A on every catalog pregeometry and on random linear ones,
    and building them builds no `dim_table`: only the scalar predicate
    reads it."""
    rng = np.random.default_rng(30)
    pgs = [inst.pg for inst in catalog().values() if inst.pg is not None]
    for _ in range(12):
        modulus, n = int(rng.choice([2, 3])), int(rng.integers(1, 7))
        vectors = rng.integers(0, modulus, (n, int(rng.integers(1, 5))))
        pgs.append(linear_pregeometry(vectors.tolist(), modulus))
    for pg in pgs:
        misses = dim_table.cache_info().misses
        r = rel_cl(pg)
        rows = relcalc.built_rows(r)
        assert dim_table.cache_info().misses == misses
        dims = dim_table(pg)
        count = pg.ground.subset_count
        masks = np.arange(count)
        closed = np.flatnonzero(pg.op.table == masks)
        a = closed[:, None, None]
        want = dims[a, masks[:, None] | masks] == dims[a, masks]
        assert np.array_equal(rows, want)
        assert r.fn(int(closed[-1]), 1, 0) == bool(want[-1, 1, 0])


def random_closure(size, rng):
    """A closure whose closed sets are the ground set and the
    intersections of a random family; every set is closed when the
    family draws them all."""
    count = 1 << size
    p = rng.choice((rng.random(), 1.0))
    family = [count - 1] + [m for m in range(count) if rng.random() < p]
    table = [count - 1] * count
    for x in range(count):
        for f in family:
            if x & ~f == 0:
                table[x] &= f
    return operator_from_table(GroundSet(size), table)


def test_class_rows_match_reference_on_random_closures():
    """a and its transformers on random closures at n <= 4 equal the
    references; a closure with every set closed builds the whole table
    with no class rows, and any other one row per closed set."""
    rng = np.random.default_rng(23)
    kinds = set()
    for size in range(5):
        ops = [random_closure(size, rng) for _ in range(8)]
        for op in ops + [trivial_closure(GroundSet(size))]:
            r, expected = rel_a(op), reference_a(op.table)
            assert_same_table(monotonise_M(r, op),
                              reference_monotonise_M(expected, op.table))
            assert_same_table(closure_extend_c(r, op),
                              reference_c(expected, op.table))
            assert_same_table(r, expected)
            closed = np.flatnonzero(op.table == np.arange(len(op.table)))
            if r.classes is None:
                assert len(closed) == len(op.table) and r.rows is r.table
            else:
                assert len(r.rows) == len(closed) < len(op.table)
                assert np.array_equal(closed[r.classes], op.table)
            kinds.add(r.classes is None)
    assert kinds == {True, False}


def test_compare_class_rows_matches_expanded_tables():
    """a, aM and ac on random closures with class rows at n = 4 and 5,
    under one closure and under two different ones: compare builds neither
    table and agrees with compare on the expanded tables, which
    test_axioms checks against the scalar predicates."""
    rng = np.random.default_rng(24)
    kinds = (rel_a, lambda op: monotonise_M(rel_a(op), op),
             lambda op: closure_extend_c(rel_a(op), op))
    verdicts = set()
    for size in (4, 5):
        ops = []
        while len(ops) < 3:
            op = random_closure(size, rng)
            if rel_a(op).classes is not None:
                ops.append(op)
        for op1, op2 in ((ops[0], ops[0]), (ops[1], ops[1]),
                         (ops[0], ops[1]), (ops[1], ops[2])):
            for make1, make2 in product(kinds, repeat=2):
                r1, r2 = make1(op1), make2(op2)
                got = compare(r1, r2)
                assert r1.table is None and r2.table is None
                want = compare(*(from_table(r.ground, r.name,
                                            materialize(r).table)
                                 for r in (r1, r2)))
                assert got == want, (size, r1.name, r2.name)
                verdicts.add(got.verdict)
    assert verdicts == {"equal", "implies", "implied", "incomparable"}


def test_built_tables_and_class_rows_are_read_only(u34):
    """An in-place edit cannot put a table out of step with the class
    rows its left layout is packed from."""
    a = materialize(rel_a(u34.op))
    for array in (a.table, a.rows,
                  materialize(rel_intersection(u34.ground)).table):
        with pytest.raises(ValueError):
            array[0, 0, 0] = False


def test_monotonise_M_known_answer_on_fano():
    """aM = cl on the Fano plane (n = 7), which no suite reaches."""
    pg = catalog_instance("gf2-7").pg
    aM = monotonise_M(rel_a(pg.op), pg.op)
    assert compare(aM, rel_cl(pg)).verdict == "equal"


def test_materialize_cap():
    huge = rel_intersection(GroundSet(16))
    with pytest.raises(CapExceeded):
        materialize(huge)
    # n = 9 is the least size over the budget; refused before any build
    r = rel_intersection(GroundSet(9))
    with pytest.raises(CapExceeded):
        materialize(r)
    assert r.table is None


def test_relation_without_builder_is_refused():
    # a table comes only from a builder; the scalar fn is the test oracle
    with pytest.raises(TypeError):
        TernaryRelation(GroundSet(1), "fn-only", lambda a, b, c: True)


def test_materialize_is_idempotent(u34):
    r = materialize(rel_a(u34.op))
    assert materialize(r) is r


def test_materialize_keeps_the_table_on_its_argument(u34):
    r = rel_a(u34.op)
    assert materialize(r) is r and r.table is not None


def test_rel_intersection_examples():
    r = rel_intersection(GroundSet(2))
    assert not r.fn(0b01, 0b01, 0)
    assert r.fn(0b01, 0b01, 0b01)
    assert r.fn(0b01, 0b10, 0)


def test_rel_a_examples(u34):
    r = rel_a(u34.op)
    assert r.fn(0b0011, 0b1100, 0)
    assert not r.fn(0b0011, 0b1100, 0b0100)


def test_rel_cl_examples(u34):
    r = rel_cl(u34)
    assert not r.fn(0b0011, 0b1100, 0)
    # A inside the base: trivially independent
    for b in range(16):
        assert r.fn(0b0010, b, 0b0011)
    gf2 = catalog()["gf2-3"].pg
    assert rel_cl(gf2).fn(0b001, 0b010, 0)


def test_rel_cl_collapse_to_subsets():
    """dim(A/BC) = dim(A/C) already forces the same for every subset of A."""
    for name in ("u34", "gf2-3", "trivial4"):
        pg = catalog()[name].pg
        r = materialize(rel_cl(pg)).table
        dims = dim_table(pg)
        count = pg.ground.subset_count
        for a in range(count):
            for b in range(count):
                for c in range(count):
                    expected = all(
                        dims[a0, b | c] == dims[a0, c]
                        for a0 in range(a + 1) if a0 & ~a == 0
                    )
                    assert bool(r[a, b, c]) == expected, (name, a, b, c)


def test_monotonise_fixed_point_on_trivial():
    g = GroundSet(3)
    base = rel_intersection(g)
    assert compare(monotonise_M(base, trivial_closure(g)), base).verdict == "equal"


def test_monotonise_M_example(u34):
    aM = monotonise_M(rel_a(u34.op), u34.op)
    # fails at the intermediate base X = {2}
    assert rel_a(u34.op).fn(0b0011, 0b1100, 0)
    assert not aM.fn(0b0011, 0b1100, 0)


def test_monotonise_m_equals_M_with_trivial_closure():
    g = GroundSet(3)
    ident = trivial_closure(g)
    for seed in range(5):
        r = random_relation(g, seed)
        assert compare(monotonise_m(r), monotonise_M(r, ident)).verdict == "equal"


def always_true(ground):
    count = ground.subset_count
    return from_table(ground, "true", np.ones((count,) * 3, dtype=bool))


def test_monotonise_m_keeps_always_true():
    g = GroundSet(3)
    assert compare(monotonise_m(always_true(g)), always_true(g)).verdict == "equal"


def test_closure_extend_examples(u34):
    ac = closure_extend_c(rel_a(u34.op), u34.op)
    # cl({1,2}) is {1,2} itself in rank 3, so the value is plain rel_a
    assert ac.fn(0b0001, 0b0110, 0)
    assert compare(
        closure_extend_c(always_true(u34.ground), u34.op),
        always_true(u34.ground),
    ).verdict == "equal"
    # with the trivial closure the transform just adjoins the base
    g = GroundSet(3)
    r = random_relation(g, 7)
    rc = closure_extend_c(r, trivial_closure(g))
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert rc.fn(a, b, c) == r.fn(a, b | c, c)


def test_opposite_involution_and_symmetry(u34):
    r = random_relation(GroundSet(3), 3)
    assert compare(opposite(opposite(r)), r).verdict == "equal"
    sym = rel_cl(u34)
    assert compare(opposite(sym), sym).verdict == "equal"


def test_opposite_scans_build_no_table():
    """Every axiom of `check_all` on the opposite of gebert8 `a`, `sup` and
    `int` reads the base's layouts and cells swapped: the opposite builds
    no rows and no table, and neither does its base, class rows or whole
    table, build its table."""
    inst = catalog_instance("gebert8")
    op = instance_operator(inst)
    for rid in ("a", "sup", "int"):
        base = resolve_relation(inst, rid)
        opp = opposite(base)
        reports = check_all(opp, op)
        assert [rep.axiom for rep in reports] == list(AXIOM_ORDER)
        assert opp.rows is None and opp.table is None, rid
        assert base.table is None, rid


def test_sup_builds_one_row_per_max():
    """sup sees A only through max(A): n + 1 rows, A = {} first."""
    for size in range(6):
        r = rel_sup(GroundSet(size))
        assert_table_matches_scalar(r)
        assert len(r.rows) == size + 1
        assert list(r.classes) == [m.bit_length() for m in range(1 << size)]


def test_opposite_of_one_sided_sup_relation():
    g = gebert_closure(2)
    cells = product(g.ground.masks(), repeat=3)
    table = np.fromiter((a.bit_length() <= c.bit_length() for a, _, c in cells),
                        dtype=bool).reshape((4, 4, 4))
    one = from_table(g.ground, "supL", table)
    cmp = compare(one, opposite(one))
    assert cmp.verdict == "incomparable"
    assert cmp.witness == (0, 1, 0)  # least differing triple ({},{0},{})


def test_transformer_name_propagation(u34):
    base = rel_a(u34.op)
    assert monotonise_M(base, u34.op).name == "aM"
    assert monotonise_m(base).name == "am"
    assert closure_extend_c(base, u34.op).name == "ac"
    assert closure_extend_c(monotonise_m(base), u34.op).name == "amc"
    assert opposite(base).name == "opp(a)"


def test_from_table_shape_check():
    g = GroundSet(2)
    with pytest.raises(ValueError):
        from_table(g, "bad", np.ones((4, 4), dtype=bool))


def test_random_relation_draws_the_one_shot_numbers_in_blocks():
    """At n = 7 the table is drawn in eight blocks of A rows, and it is the
    table of one draw of every float at once."""
    g = GroundSet(7)
    assert relcalc._block_rows(g.subset_count) == g.subset_count // 8
    for seed in (0, 42):
        once = np.random.default_rng(seed).random((g.subset_count,) * 3) < 0.5
        np.testing.assert_array_equal(
            materialize(random_relation(g, seed)).table, once)


def test_random_relation_holds_its_table_once():
    """At n = 8 the random draw fills the one table the relation keeps,
    block by block, and wraps it with no copy: its tracemalloc peak, the
    16 MB table and one block of floats, stays below 1.25 times the
    table's bytes (a copy of the table would make it 2 times)."""
    g = GroundSet(8)
    tracemalloc.start()
    try:
        r = random_relation(g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.table is r.rows and not r.table.flags.writeable
    assert peak < 1.25 * r.table.nbytes, peak


def test_random_relation_is_seed_stable():
    g = GroundSet(3)
    t1 = materialize(random_relation(g, 42)).table
    t2 = materialize(random_relation(g, 42)).table
    assert (t1 == t2).all()
    t3 = materialize(random_relation(g, 43)).table
    assert (t1 != t3).any()


def test_gebert_sup_formula_at_full_scale():
    op = gebert_closure(8)
    assert compare(rel_a(op), rel_sup(op.ground)).verdict == "equal"
