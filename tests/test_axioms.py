from itertools import product

import numpy as np
import pytest

from pregeolab.axioms import (
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
from pregeolab.lattice import GroundSet
from pregeolab.relcalc import (
    CapExceeded,
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
        assert rep.note
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
        assert passed  # the pass path of the interval scans is covered


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
    """Verdict and least differing (A, B, C) against a loop over holds."""
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
            more = [x for x in cells if r1.holds(*x) and not r2.holds(*x)]
            less = [x for x in cells if r2.holds(*x) and not r1.holds(*x)]
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
    g = GroundSet(1)
    ident = trivial_closure(g)
    candidates = ((r.name, r, ident) for r in enumerate_all_relations(g))
    hit = search_counterexample(Goal((AxiomId.SYM,), AxiomId.MON_R), candidates)
    assert hit is not None
    assert hit.instance == "rel20"


def test_enumerate_relations_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_all_relations(GroundSet(2)))


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
    table = materialize(resolve_relation(inst, rel_id))
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
