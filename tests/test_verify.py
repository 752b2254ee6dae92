import re
from itertools import combinations, permutations

import pytest

from pregeolab import verify
from pregeolab.axioms import check_axiom
from pregeolab.closure import trivial_closure
from pregeolab.instances import Graph
from pregeolab.lattice import GroundSet, elements_of
from pregeolab.relcalc import TernaryRelation
from pregeolab.verify import (
    SUITES,
    SuiteResult,
    UnknownSuite,
    render_report,
    render_summary,
    run_suite,
    run_suites,
)

FAST_SUITES = [s for s in SUITES if s != "rg-st"]

RESULT_RE = re.compile(
    r"^RESULT \S+ \S+ (pass|fail|vacuous)"
    r"( witness=\{[0-9,]*\}(;\{[0-9,]*\})*)?$"
)


@pytest.fixture(scope="module")
def fast_results():
    return {s: run_suite(s) for s in FAST_SUITES}


def test_all_fast_suites_pass(fast_results):
    for suite_id, res in fast_results.items():
        assert res.passed, (suite_id, [c.result_line() for c in res.failures()])
        assert res.checks


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")
    with pytest.raises(UnknownSuite):
        run_suite("pregeom-axioms", instances=["no-such-instance"])


def test_result_line_grammar(fast_results):
    for res in fast_results.values():
        lines = res.result_lines()
        assert lines[0] == f"SUITE {res.suite} pass"
        for line in lines[1:]:
            assert RESULT_RE.match(line), line


def test_report_is_deterministic_across_workers():
    suites = ["pregeom-axioms", "mon-preserve", "dim-laws"]
    base = render_report(run_suites(suites, workers=1))
    for workers in (4, 8):
        assert render_report(run_suites(suites, workers=workers)) == base
    assert render_report(run_suites(suites, workers=1)) == base


def test_instance_restriction():
    full = run_suite("pregeom-axioms")
    only = run_suite("pregeom-axioms", instances=["u34"])
    assert only.passed
    assert 0 < len(only.checks) < len(full.checks)
    assert all(c.subject.startswith("u34") for c in only.checks)


def test_render_summary(fast_results):
    text = render_summary(list(fast_results.values()))
    for suite_id in fast_results:
        assert suite_id in text
    assert "FAIL" not in text


def test_suite_result_failures():
    from pregeolab.verify import CheckResult

    good = CheckResult("x", "c", "pass", None)
    bad = CheckResult("y", "c", "fail", (1, 2))
    res = SuiteResult("demo", [good, bad])
    assert not res.passed
    assert res.failures() == [bad]
    assert res.result_lines()[0] == "SUITE demo fail"


@pytest.mark.parametrize("suite_id", ["mon-preserve", "mc-to-M"])
def test_catalog_relation_suites_honour_instances(suite_id):
    res = run_suite(suite_id, instances=["u34"])
    assert res.checks
    assert all(c.subject.startswith("u34:") for c in res.checks)


def _relabellings(size, code):
    """Every code that a vertex permutation turns `code` into."""
    slots = list(combinations(range(size), 2))
    edges = [slots[k] for k in range(len(slots)) if code >> k & 1]
    return {
        sum(1 << slots.index(tuple(sorted((p[u], p[v])))) for u, v in edges)
        for p in permutations(range(size))
    }


def test_graph_class_representatives():
    counts = []
    for size in range(6):
        reps = verify._graph_class_representatives(size)
        counts.append(len(reps))
        assert reps == sorted(reps)
        seen = set()
        for code in reps:
            orbit = _relabellings(size, code)
            assert min(orbit) == code
            assert not orbit & seen
            seen |= orbit
        assert seen == set(range(1 << size * (size - 1) // 2))
    assert counts == [1, 1, 2, 4, 11, 34]  # OEIS A000088


def _rel_apart(graph):
    """No shared element outside C and no edge at all between A and B:
    invariant under relabelling, but fails EX, NOR-L, NOR-R and SCLO."""
    adj = graph.adjacency_masks()

    def fn(a, b, c):
        return not a & b & ~c and not any(adj[u] & b for u in elements_of(a))

    return TernaryRelation(graph.ground, "apart", fn)


def _rel_hub(graph):
    """`st`, except that only a base vertex of degree at most one excuses
    an edge; first fails on the path 1-0-2 (code 3)."""
    adj = graph.adjacency_masks()
    leaves = sum(1 << u for u in range(graph.size) if bin(adj[u]).count("1") <= 1)

    def fn(a, b, c):
        excused = c & leaves
        return not a & b & ~c and not any(
            adj[u] & b & ~excused for u in elements_of(a & ~excused)
        )

    return TernaryRelation(graph.ground, "hub", fn)


@pytest.mark.parametrize("relation", [_rel_apart, _rel_hub])
def test_rg_st_class_scan_matches_labeled_scan(monkeypatch, relation):
    """The class-representative scan reports the subject and witness of a
    scan over all 64 labeled 4-vertex graphs, axiom by axiom."""
    size = 4
    slots = list(combinations(range(size), 2))
    graphs = [
        Graph.build(size, [slots[k] for k in range(len(slots)) if code >> k & 1])
        for code in range(1 << len(slots))
    ]
    relations = [relation(g) for g in graphs]
    ident = trivial_closure(GroundSet(size))
    expected = ["SUITE rg-st fail"]
    for ax in verify.ST_AXIOMS:
        for code, r in enumerate(relations):
            rep = check_axiom(r, ax, ident)
            if rep.status == "fail":
                expected.append(verify.CheckResult(
                    f"graphs4#{code}:st", ax.value, "fail", rep.witness
                ).result_line())
                break
        else:
            expected.append(f"RESULT graphs4:st {ax.value} {rep.status}")

    built = []

    def counted(graph):
        built.append(graph)
        return relation(graph)

    monkeypatch.setattr(verify, "rel_st", counted)
    monkeypatch.setattr(verify, "GRAPH_SUITE_VERTICES", size)
    monkeypatch.setattr(verify, "_amalgam_unit", lambda: [])
    assert run_suite("rg-st").result_lines() == expected
    assert len(built) == 11  # one table per isomorphism class
    assert any(" fail " in line for line in expected)
    assert any(" pass" in line for line in expected)
