import re
from itertools import combinations, permutations, product

import numpy as np
import pytest

from pregeolab import axioms, instances, verify
from pregeolab.axioms import check_axiom
from pregeolab.cli import main
from pregeolab.closure import trivial_closure
from pregeolab.instances import (
    Graph,
    free_amalgam,
    free_amalgam_codes,
    graph_of_code,
    isomorphic_over_base,
    rel_st,
    relabel_codes,
)
from pregeolab.lattice import GroundSet, elements_of
from pregeolab.relcalc import from_table
from pregeolab.verify import (
    SUITES,
    SuiteResult,
    UnknownInstance,
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


@pytest.mark.parametrize("suites, names, error", [
    (["rg-st", "nope"], None, UnknownSuite),
    (["rg-st", "dim-laws"], ["u34", "nope"], UnknownInstance),
    (["rg-st", "dlo-div"], ["u34"], UnknownInstance),
])
def test_run_suites_refuses_before_any_suite_runs(monkeypatch, suites, names,
                                                  error):
    ran = []
    monkeypatch.setitem(verify._SUITE_BODIES, "rg-st",
                        lambda pool: ran.append(pool) or [])
    with pytest.raises(error):
        run_suites(suites, names)
    assert ran == []
    # the recorder is what would have run
    assert run_suites(["rg-st"]) == [SuiteResult("rg-st", [])] and ran


def test_result_line_grammar(fast_results):
    for res in fast_results.values():
        lines = res.result_lines()
        assert lines[0] == f"SUITE {res.suite} pass"
        for line in lines[1:]:
            assert RESULT_RE.match(line), line


def test_run_suites_builds_the_catalog_once(monkeypatch):
    """The suites read the process's catalog instances: the first run that
    draws instances parses each entry once, and later runs parse none."""
    suites = ["aM-eq-cl", "aM-eq-am", "c-preserve", "dlo-div"]
    alone = render_report([run_suite(s) for s in suites])
    instances.catalog_instance.cache_clear()
    parsed = []
    real = instances.parse_instance
    monkeypatch.setattr(instances, "parse_instance",
                        lambda *args: parsed.append(args[1]) or real(*args))
    run_suites(["dlo-div"])
    assert parsed == []  # a suite that draws no instance builds none
    for _ in range(2):
        assert render_report(run_suites(suites)) == alone
        assert parsed == list(instances.CATALOG_NAMES)


def test_instance_restriction(capsys):
    full = run_suite("pregeom-axioms")
    only = run_suite("pregeom-axioms", instances=["u34"])
    assert only.passed
    assert 0 < len(only.checks) < len(full.checks)
    assert all(c.subject.startswith("u34") for c in only.checks)
    # the size bounds trim the whole-catalog run only: a named instance
    # runs every check its kind allows, the dim-laws laws included
    named = run_suites(["pregeom-axioms", "dim-laws", "aM-eq-cl",
                        "mon-preserve"], instances=["gf2-7", "gebert8"])
    assert [len(r.checks) for r in named] == [16, 4, 1, 10]
    assert all(r.passed for r in named)
    assert {c.subject.split(":")[0] for c in named[3].checks} == {
        "gf2-7", "gebert8"}
    # an empty --instances names nothing: a usage error, not the catalog
    assert main(["verify", "--suite", "dim-laws", "--instances", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --instances: no catalog names given\n"


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


def _tabulate(ground, name, fn):
    """The relation whose truth table is `fn` at every cell."""
    count = ground.subset_count
    cells = product(range(count), repeat=3)
    table = np.fromiter((fn(a, b, c) for a, b, c in cells), dtype=bool)
    return from_table(ground, name, table.reshape((count,) * 3))


def _rel_apart(graph):
    """No shared element outside C and no edge at all between A and B:
    invariant under relabelling, but fails EX, NOR-L, NOR-R and SCLO."""
    adj = graph.adjacency_masks()

    def fn(a, b, c):
        return not a & b & ~c and not any(adj[u] & b for u in elements_of(a))

    return _tabulate(graph.ground, "apart", fn)


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

    return _tabulate(graph.ground, "hub", fn)


def test_rg_st_sets_its_lanes_side_by_side_once_per_axis(monkeypatch):
    """The axiom unit of rg-st concatenates the layouts of its 34 graphs
    once per axis for all its axioms, not once per axiom, and reports what
    it reports with a fresh concatenation for each."""
    real = np.concatenate
    sizes = []

    def counted(arrays, *args, **kwargs):
        arrays = list(arrays)
        sizes.append(len(arrays))
        return real(arrays, *args, **kwargs)

    fresh = verify._st_axiom_unit()
    monkeypatch.setattr(axioms.np, "concatenate", counted)
    assert verify._st_axiom_unit() == fresh
    assert sizes.count(34) == 2


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


# ---------------------------------------------------------------------------
# The amalgam unit against its scalar route: Graph objects, `free_amalgam`,
# `rel_st` and `isomorphic_over_base`, one pair at a time.

AMALGAM_SCANS = [
    (base_size, n1, n2)
    for base_size in (1, 2, 3)
    for n1 in range(base_size + 1, 5)
    for n2 in range(n1, 5)
    if n1 + n2 - base_size <= 6
]


def _graphs_fixing_base(size, base_graph):
    slots = [
        (u, v)
        for u, v in combinations(range(size), 2)
        if v >= base_graph.size
    ]
    fixed = [tuple(sorted(e)) for e in base_graph.edges]
    out = []
    for code in range(1 << len(slots)):
        pairs = fixed + [slots[k] for k in range(len(slots)) if code >> k & 1]
        out.append(Graph.build(size, pairs))
    return out


def _relabel_free(g, base_size, perm):
    mapping = list(range(base_size)) + list(perm)
    pairs = [
        tuple(sorted((mapping[u], mapping[v])))
        for u, v in (sorted(e) for e in g.edges)
    ]
    return Graph.build(g.size, pairs)


def scalar_amalgam_scan(base_size, n1, n2, amalgam=free_amalgam):
    """The amalgam scan on Graph objects, pair by pair: the definitional
    route that `verify._amalgam_scan` must agree with."""
    subject = f"amalgam:{base_size}/{n1}/{n2}"
    base_vertices = list(range(base_size))
    base_mask = (1 << base_size) - 1
    part1 = (1 << n1) - 1 & ~base_mask
    part2_mask = ((1 << (n1 + n2 - base_size)) - 1) & ~((1 << n1) - 1)
    perms1 = list(permutations(range(base_size, n1)))
    perms2 = list(permutations(range(base_size, n2)))
    for base_code in range(1 << (base_size * (base_size - 1) // 2)):
        base_graph = graph_of_code(base_size, base_code)
        rights = _graphs_fixing_base(n2, base_graph)
        for g1 in _graphs_fixing_base(n1, base_graph):
            g1_relabelled = [_relabel_free(g1, base_size, p) for p in perms1]
            for g2 in rights:
                h = amalgam(g1, g2, base_vertices)
                if not rel_st(h).fn(part1, part2_mask, base_mask):
                    return verify.CheckResult(subject, "st-on-parts", "fail",
                                              (part1, part2_mask, base_mask))
                relabelled = (
                    [amalgam(g1p, g2, base_vertices) for g1p in g1_relabelled]
                    + [amalgam(g1, _relabel_free(g2, base_size, p),
                               base_vertices)
                       for p in perms2]
                )
                if not all(isomorphic_over_base(h, hp, base_vertices)
                           for hp in relabelled):
                    return verify.CheckResult(subject, "unique-over-base",
                                              "fail", None)
    return None


def test_amalgam_scans_are_the_nine():
    assert len(AMALGAM_SCANS) == 9


@pytest.mark.parametrize("scan", AMALGAM_SCANS)
def test_amalgam_scan_matches_scalar(scan):
    assert verify._amalgam_scan(*scan) is None
    assert scalar_amalgam_scan(*scan) is None


def _patched_amalgams(scan, left, right, pair=None, swap=None):
    """Both amalgam routes, each changing the amalgam of the left code
    `left` and the right code `right` of one scan: adding the edge
    `pair`, or exchanging the two vertices `swap`."""
    base_size, n1, n2 = scan
    size = n1 + n2 - base_size
    g1, g2 = graph_of_code(n1, left), graph_of_code(n2, right)
    vertex_map = list(range(size))
    if swap is not None:
        u, v = swap
        vertex_map[u], vertex_map[v] = v, u

    def vectorised(lefts, rights, *args):
        out = free_amalgam_codes(lefts, rights, *args)
        if args != scan:
            return out
        hit = ((np.asarray(lefts)[..., :, None] == left)
               & (np.asarray(rights)[..., None, :] == right))
        if pair is not None:
            changed = out | 1 << list(combinations(range(size), 2)).index(pair)
        else:
            changed = relabel_codes(out, size, [vertex_map])[0]
        return np.where(hit, changed, out)

    def scalar(h1, h2, base):
        h = free_amalgam(h1, h2, base)
        if (h1, h2) != (g1, g2):
            return h
        pairs = [tuple(vertex_map[w] for w in e) for e in h.edges]
        return Graph.build(size, pairs + ([pair] if pair else []))

    return vectorised, scalar


@pytest.mark.parametrize("scan,left,right,change,check", [
    # a cross edge at a pair that is the least of its relabellings
    ((1, 3, 4), 0b001, 0b000011, {"pair": (1, 3)}, "st-on-parts"),
    # the same cross edge at a later relabelling: an earlier pair's
    # relabelled amalgam carries it first
    ((1, 3, 4), 0b010, 0b000101, {"pair": (2, 4)}, "unique-over-base"),
    # an edge inside part 1 keeps st but not the isomorphism type
    ((1, 3, 4), 0b001, 0b000011, {"pair": (1, 2)}, "unique-over-base"),
    ((2, 3, 4), 0b011, 0b001011, {"pair": (1, 2)}, "unique-over-base"),
    ((2, 4, 4), 0b000011, 0b001001, {"pair": (2, 4)}, "st-on-parts"),
    # moving the base vertex keeps the isomorphism type, but not over
    # the base
    ((1, 3, 4), 0b001, 0, {"swap": (0, 2)}, "unique-over-base"),
])
def test_amalgam_failure_matches_scalar(monkeypatch, scan, left, right,
                                        change, check):
    vectorised, scalar = _patched_amalgams(scan, left, right, **change)
    expected = scalar_amalgam_scan(*scan, amalgam=scalar)
    assert expected is not None and expected.check == check
    monkeypatch.setattr(verify, "free_amalgam_codes", vectorised)
    assert verify._amalgam_scan(*scan) == expected
    assert verify._amalgam_unit() == [expected]
