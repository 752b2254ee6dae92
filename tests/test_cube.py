"""The cube route: relations that see A, B and C only through their
closures, checked and compared on their k x k x k cube over the closed
sets, against the packed engine; the cubes, and the class rows taken
from them, against the scalar predicates and the row builders."""

import gc
import tracemalloc
from itertools import product

import numpy as np

from pregeolab import axioms, closure, instances, relcalc
from pregeolab.axioms import (
    AXIOM_ORDER,
    AxiomId,
    check_axiom,
    check_axioms,
    compare,
    evaluate_axiom_body,
)
from pregeolab.cli import instance_operator, resolve_relation
from pregeolab.closure import trivial_closure
from pregeolab.instances import (
    catalog,
    catalog_instance,
    gebert_closure,
    uniform_pregeometry,
)
from pregeolab.lattice import GroundSet
from pregeolab.relcalc import (
    TernaryRelation,
    built_cube,
    built_rows,
    closure_extend_c,
    flats,
    from_table,
    materialize,
    monotonise_M,
    monotonise_m,
    rel_a,
    rel_cl,
)

#: every axiom with a body but FREE, which reads the masks themselves
CUBE_AXIOMS = tuple(ax for ax in AXIOM_ORDER
                    if ax in axioms._BODIES and ax is not AxiomId.FREE)


def moore_closure(ground, rng, sets):
    """The closure of the Moore family of `sets` random sets and the
    ground set: cl(X) is the intersection of the family's sets that hold
    X."""
    count = ground.subset_count
    masks = np.arange(count)
    table = np.full(count, count - 1)
    for s in rng.integers(0, count, sets):
        table = np.where(masks & ~s == 0, table & s, table)
    return closure.from_table(ground, table)


def cube_relation(op, cube, name="cube"):
    """r(A, B, C) = cube[class A, class B, class C] over the closed sets of
    op, with that cube and the class rows it expands to."""
    fl = flats(op)
    cls = fl.classes
    rows = cube[:, cls][:, :, cls]
    return TernaryRelation(
        op.ground, name, lambda a, b, c: bool(cube[cls[a], cls[b], cls[c]]),
        lambda: rows, classes=cls, flats=fl, cube_builder=cube.copy)


def expanded(r):
    """A `from_table` relation of r's expanded table, built apart from r."""
    return from_table(r.ground, r.name, built_rows(r).take(r.classes, axis=0))


def packed_witness(r, ax, op):
    """The least violation of ax on r by the packed engine alone."""
    return axioms._find_violations([r], ax, op.table)[0]


def catalog_cube_relations():
    """(instance name, operator, relation) for every relation of the
    catalog that has a cube: `a`, `cl`, `aM` and `ac` where defined."""
    out = []
    for name, inst in catalog().items():
        op = instance_operator(inst)
        for rid in instances.RELATIONS:
            if instances.defines(inst, rid):
                r = instances.relation(inst, rid)
                if r.flats is not None:
                    out.append((name, op, r))
    return out


def random_cube_cases():
    """Random cubes under random Moore families at n = 2..5: from sparse
    to dense, so that some least witnesses lie past A = {}, and the cube
    of `a` with a few cells flipped, which fails few axioms and late."""
    rng = np.random.default_rng(33)
    cases = []
    for size in range(2, 6):
        g = GroundSet(size)
        for sets in (1, 2, 3, 4, 6, 8, 12):
            op = moore_closure(g, rng, sets)
            if flats(op) is None:
                continue
            k = len(flats(op).closed)
            cubes = [rng.random((k,) * 3) < d
                     for d in (0.3, 0.7, 0.9, 0.97, 0.99)]
            good = built_cube(rel_a(op)).copy()
            for flips in (0, 1, 2):
                cube = good.copy()
                cube[tuple(rng.integers(0, k, (3, flips)))] ^= True
                cubes.append(cube)
            cases += [(op, cube) for cube in cubes]
    return cases


def test_catalog_cubes_are_the_class_rows_at_the_closed_sets():
    """The direct builders of `a`, `cl`, M and c make, for every catalog
    relation with a cube, the cells of its relation at the closed sets, and
    build no rows to do so: against the scalar predicate for `a` and `cl`,
    and for M and c against their row builders on the expanded table of
    `a`, which has no cube.  The rows taken from the cube are the
    reference's rows at the closed sets."""
    seen = set()
    for name, op, r in catalog_cube_relations():
        cube = built_cube(r)
        assert r.rows is None and not cube.flags.writeable
        closed = r.flats.closed
        if r.name in ("a", "cl"):
            want = np.array([[[r.fn(a, b, c) for c in closed] for b in closed]
                             for a in closed], dtype=bool)
        else:
            make = monotonise_M if r.name == "aM" else closure_extend_c
            ref = make(expanded(rel_a(op)), op)
            assert ref.flats is None
            rows = materialize(ref).table[closed]
            want = rows[:, closed][:, :, closed]
            np.testing.assert_array_equal(built_rows(r), rows, err_msg=name)
        np.testing.assert_array_equal(cube, want, err_msg=name)
        seen.add(r.name)
    assert seen == {"a", "cl", "aM", "ac"}


def test_random_transformer_cubes_are_the_class_rows():
    """M and c of a random cube under its own operator have cubes, the
    class rows of their row builders, run on the expanded base, at the
    closed sets; under any other operator, and m under the identity, they
    have none."""
    built = 0
    for op, cube in random_cube_cases():
        r = cube_relation(op, cube)
        other = trivial_closure(op.ground)
        closed = r.flats.closed
        for make in (monotonise_M, closure_extend_c):
            t, ref = make(r, op), make(expanded(r), op)
            assert ref.flats is None
            rows = materialize(ref).table[closed]
            np.testing.assert_array_equal(
                built_cube(t), rows[:, closed][:, :, closed])
            np.testing.assert_array_equal(built_rows(t), rows)
            built += 1
        for t in (monotonise_M(r, other), closure_extend_c(r, other),
                  monotonise_m(r)):
            assert t.flats is None
    assert built > 100


def test_cubes_of_a_and_cl_hold_no_wide_temporary():
    """On U(7, 8), with k = 248 closed sets, the cubes of `a` and `cl` are
    built on one byte a cell: the tracemalloc peak of the build stays
    under 2.5 times the cube's 15 MB.  ANDs of int64 masks made it 9
    times for `a`."""
    pg = uniform_pregeometry(7, 8)
    for r in (rel_a(pg.op), rel_cl(pg)):
        tracemalloc.start()
        try:
            cube = built_cube(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cube.shape == (248,) * 3
        assert peak < 2.5 * cube.nbytes, (r.name, peak / cube.nbytes)


def test_cube_route_matches_packed_route_on_catalog():
    """Every catalog relation with a cube (n <= 8) and every axiom with a
    body but FREE: the cube scan and the packed engine report the same
    least witness, whatever k, and the fails are violations under the
    scalar route."""
    fails = 0
    for name, op, r in catalog_cube_relations():
        for ax in CUBE_AXIOMS:
            got = axioms._scan_cube(r, ax, op.table)
            assert got == packed_witness(r, ax, op), (name, r.name, ax)
            if got is not None:
                fails += 1
                assert not evaluate_axiom_body(r, ax, got, op)
    assert fails >= 10


def test_cube_route_matches_packed_route_on_random_cubes():
    """Random cubes under random Moore families at n = 2..5, every axiom
    with a body but FREE: the same least witness by either route, many of
    them fails past A = {}, and each a violation of the scalar route."""
    fails = late = 0
    chains = set()
    for op, cube in random_cube_cases():
        r = cube_relation(op, cube)
        for ax in CUBE_AXIOMS:
            got = axioms._scan_cube(r, ax, op.table)
            assert got == packed_witness(r, ax, op), (op.ground, ax)
            if got is not None:
                fails += 1
                late += got[0] > 0
                assert not evaluate_axiom_body(r, ax, got, op)
                if ax in axioms._CHAIN_AXIOMS:
                    chains.add(ax)
    assert fails > 1000 and late > 300
    assert chains == set(axioms._CHAIN_AXIOMS)


def test_compare_of_two_cubes_is_the_packed_compare():
    """`compare` of two cubes over the same closed sets reads only the
    cubes, and gives the verdict and least (A, B, C) of the packed compare
    of their expanded tables: on every pair of catalog cube relations of
    one instance, and on random cubes that differ in a few cells."""
    rng = np.random.default_rng(35)
    pairs = []
    by_instance = {}
    for name, op, r in catalog_cube_relations():
        by_instance.setdefault(name, []).append(r)
    for rels in by_instance.values():
        pairs += list(product(rels, repeat=2))
    for op, cube in random_cube_cases()[::3]:
        k = len(cube)
        other = cube.copy()
        other[tuple(rng.integers(0, k, (3, 2)))] ^= True
        pairs += [(cube_relation(op, cube), cube_relation(op, other)),
                  (cube_relation(op, cube), cube_relation(op, cube | other)),
                  (cube_relation(op, cube), cube_relation(op, cube.copy()))]
    verdicts = set()
    for r1, r2 in pairs:
        got = compare(r1, r2)
        assert r1.packed == {} and r2.packed == {}
        assert got == compare(expanded(r1), expanded(r2)), (r1.name, r2.name)
        verdicts.add(got.verdict)
    assert verdicts == {"equal", "implies", "implied", "incomparable"}


def test_gebert8_a_sym_builds_no_rows():
    """gebert8 `a` SYM runs on its 9 x 9 x 9 cube: no rows, no layout."""
    r = resolve_relation(catalog_instance("gebert8"), "a")
    assert check_axiom(r, AxiomId.SYM).status == "pass"
    assert r.rows is None and r.packed == {} and r.table is None
    assert r.cube.shape == (9, 9, 9)


def test_cube_route_follows_k_n_and_the_operator():
    """The route of each check-large subject: every axiom but FREE on
    gebert8 (k = 9), the two- and three-variable ones on gf2-7 (k = 16)
    and only EX and AREF on u36 (k = 23), since the grid may have at most
    4^n cells."""
    for name, rid, arity in (("gebert8", "a", 4), ("gf2-7", "cl", 3),
                             ("gf2-7", "aM", 3), ("u36", "cl", 2)):
        inst = catalog_instance(name)
        r, op = resolve_relation(inst, rid), instance_operator(inst)
        for ax in axioms._BODIES:
            cl = op.table if ax.needs_closure else None
            assert axioms._takes_cube(r, ax, cl) == (
                ax is not AxiomId.FREE and axioms._arity(ax) <= arity), (
                    name, ax)


def test_closure_axioms_under_a_foreign_operator_take_the_packed_route():
    """A check that reads a closure runs on the cube only under the
    relation's own operator, an equal table included: under another one
    the cube's classes say nothing of cl, so the packed engine checks it,
    with the witness of the expanded table.  An axiom that reads no
    closure keeps the cube under any operator."""
    r = rel_a(gebert_closure(8))
    foreign = trivial_closure(r.ground)
    assert axioms._takes_cube(r, AxiomId.SCLO, gebert_closure(8).table)
    t = expanded(rel_a(gebert_closure(8)))
    assert check_axiom(r, AxiomId.SYM, foreign) == check_axiom(t, AxiomId.SYM)
    assert r.rows is None
    for ax in (AxiomId.AREF, AxiomId.CLO_L, AxiomId.CLO_R, AxiomId.SCLO):
        assert not axioms._takes_cube(r, ax, foreign.table)
        assert check_axiom(r, ax, foreign) == check_axiom(t, ax, foreign), ax
    assert r.rows is not None and r.packed


def test_batches_mix_cube_and_packed_relations():
    """One `check_axioms` call over cube relations, relations without one
    and cube relations whose route is refused reports, in input order,
    what each reports alone."""
    inst = catalog_instance("gebert4")
    op = instance_operator(inst)
    rels = [resolve_relation(inst, rid)
            for rid in ("a", "int", "aM", "am", "opp(a)", "ac", "sup")]
    others = [resolve_relation(inst, "a")]
    for ax in axioms._BODIES:
        for under in (op, trivial_closure(inst.ground)):
            assert check_axioms(rels + others, ax, under) == [
                check_axiom(r, ax, under) for r in rels + others], ax


def test_flats_are_computed_once_per_operator_and_dropped_with_it():
    """`flats` hands out one class structure per operator, shared by every
    relation built on it, and keeps none once the operator is gone, so a
    process that parses many instances holds no class structure of an
    instance it dropped."""
    import gc

    op = gebert_closure(6)
    r, s = rel_a(op), monotonise_M(rel_a(op), op)
    assert r.flats is s.flats is flats(op)
    assert flats(trivial_closure(op.ground)) is None
    before = len(relcalc._FLATS)
    del op, r, s
    gc.collect()
    assert len(relcalc._FLATS) < before
