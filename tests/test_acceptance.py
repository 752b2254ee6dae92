"""End-to-end acceptance checks.

Each test covers one acceptance criterion and `pytest -v` prints one
pass/fail line per criterion.  Runtime budgets are asserted where a
criterion has one.
"""

import time

import pytest

from pregeolab.axioms import AxiomId, check_axiom, compare, evaluate_axiom_body
from pregeolab.closure import has_exchange, ExchangeFailure
from pregeolab.geometry import check_modular, dim, is_independent
from pregeolab.instances import catalog, gebert_closure
from pregeolab.relcalc import monotonise_M, rel_a, rel_sup
from pregeolab.verify import (
    SUITES,
    render_report,
    run_suite,
    run_suites,
)


def _timed_suite(suite_id, budget):
    start = time.perf_counter()
    res = run_suite(suite_id)
    elapsed = time.perf_counter() - start
    assert res.passed, [c.result_line() for c in res.failures()]
    assert elapsed <= budget, f"{suite_id} took {elapsed:.1f}s, budget {budget}s"
    return res


def test_c1_pregeometry_axioms_exhaustive():
    res = _timed_suite("pregeom-axioms", 60)
    subjects = {c.subject.split(":")[0] for c in res.checks}
    assert {"trivial5", "u23", "u34", "gf2-3", "gf3-4"} <= subjects
    vacuous = [c for c in res.checks if c.status == "vacuous"]
    assert {c.check for c in vacuous} == {"FIN", "LOC"}


def test_c2_monotonisations_equal_dimension_relation():
    start = time.perf_counter()
    for suite_id in ("aM-eq-cl", "aM-eq-am"):
        res = run_suite(suite_id)
        assert res.passed, [c.result_line() for c in res.failures()]
        assert all(c.witness is None for c in res.checks)
    elapsed = time.perf_counter() - start
    assert elapsed <= 120


def test_c3_modularity_five_conditions():
    res = _timed_suite("modularity-5way", 60)
    # the degenerate uniform pregeometry stays modular, the strict ones do not
    by_subject = {c.subject: c for c in res.checks if c.check != "agree"}
    assert by_subject["u23:modularity"].check == "modular"
    assert by_subject["u34:modularity"].check == "nonmodular"
    # the modular-law witness on U(3,4): dim(A+B)+dim(A&B) = 3+0 vs 2+2
    u34 = catalog()["u34"].pg
    verdict = check_modular(u34)
    a, b = verdict.witnesses[5]
    assert (a, b) == (0b0011, 0b1100)
    assert (dim(u34, a | b), dim(u34, a & b)) == (3, 0)
    assert (dim(u34, a), dim(u34, b)) == (2, 2)


def test_c4_dimension_oracle_and_laws():
    res = _timed_suite("dim-laws", 60)
    checks = {(c.subject.split(":")[0], c.check) for c in res.checks}
    assert ("u36", "oracle") in checks
    assert ("u34", "additivity") in checks
    assert ("u34", "base-antitone") in checks
    assert ("u34", "submodular-closed") in checks


def test_c5_transformer_preservation():
    for suite_id in ("mon-preserve", "c-preserve", "mc-to-M"):
        res = run_suite(suite_id)
        assert res.passed, [c.result_line() for c in res.failures()]
    rand = run_suite("mon-preserve")
    assert sum(c.subject.startswith("rand:") for c in rand.checks) == 200


def test_c6_initial_segment_closure_pathology():
    op8 = gebert_closure(8)
    # exchange fails; the scan returns the least witness and the classic
    # pair ({}, 1, 2) is also a genuine failure
    found = has_exchange(gebert_closure(4))
    assert isinstance(found, ExchangeFailure)
    assert (found.set_mask, found.a, found.b) == (0, 0, 1)
    assert op8.close(1 << 2) >> 1 & 1 and not op8.close(1 << 1) >> 2 & 1

    indep = [m for m in range(op8.ground.subset_count)
             if is_independent(op8, m)]
    assert indep == [0] + [1 << i for i in range(8)]

    a8 = rel_a(op8)
    assert compare(a8, rel_sup(op8.ground)).verdict == "equal"
    assert check_axiom(a8, AxiomId.SYM).status == "pass"
    op6 = gebert_closure(6)
    a6 = rel_a(op6)
    assert compare(monotonise_M(a6, op6), a6).verdict == "equal"


def test_c7_graph_independence_and_amalgamation():
    res = _timed_suite("rg-st", 60)
    assert any(c.check == "FREE" for c in res.checks)
    assert any(c.check == "unique-over-base" for c in res.checks)


def test_c8_order_independence():
    res = _timed_suite("dlo-div", 60)
    tra = [c for c in res.checks if c.check == "TRA-R-fails"]
    assert len(tra) == 1 and tra[0].status == "pass"
    # frozen least witness on the 4-point configuration and the classic
    # larger counterexample both violate the transitivity body
    assert tra[0].witness == (2, 0, 1, 5)
    cfg = catalog()["dlo4"].config
    from pregeolab.instances import rel_div

    assert not evaluate_axiom_body(rel_div(cfg), AxiomId.TRA_R, (2, 0, 1, 5))
    assert not evaluate_axiom_body(rel_div(cfg), AxiomId.TRA_R, (4, 0, 2, 11))


def test_c9_reports_are_byte_identical():
    suite_ids = list(SUITES)
    baseline = render_report(run_suites(suite_ids))
    assert render_report(run_suites(suite_ids)) == baseline
    # the benchmark harness still passes workers=2, which is ignored
    assert render_report(run_suites(suite_ids, workers=2)) == baseline
