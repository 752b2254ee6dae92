"""Named verification suites: each suite runs one exhaustive machine check
across the built-in catalog and reports pass/fail per constituent check.

Reports contain only RESULT lines (no timing), so a suite report is byte
identical across runs.  Suites run one after another on the calling
thread, and each emits its checks in construction order.  All suites of
one `run_suites` call draw their instances from one `InstancePool`, and
every run of the process from one build of the catalog
(`catalog_instance`).

The graph suite `rg-st` quantifies over all labeled graphs on five
vertices but checks its axioms on one graph per isomorphism class, the
one with the least edge code: `rel_st` and the identity closure commute
with relabelling, so every verdict is constant on a class, and the first
failing representative in ascending code order is the first failing
labeled graph.  Each representative's truth table is built once and
serves every axiom, and each axiom is one `check_axioms` call over all
34 representatives, which scans their layouts side by side, set side by
side once per axis for all the axioms.  Its
free-amalgamation unit works on integer edge codes
(`instances.free_amalgam_codes`, `canonical_codes`, `st_holds`) and now
takes about as long as the axiom unit.

`--instances` restricts only the suites that take catalog instances:
`rg-st` and `dlo-div` (`CATALOG_FREE_SUITES`) run whole beside them, and
a request that names instances for those two alone is refused.

The catalog suites trim a whole-catalog run to instances of at most
`TABLE_SUITE_MAX` or `STACK_SUITE_MAX` elements; an instance named in
`instances` runs every check its kind allows, whatever its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, permutations
from typing import Callable, Optional, Sequence

import numpy as np

from .axioms import (
    AxiomId,
    Comparison,
    check_axiom,
    check_axioms,
    compare,
    result_line,
)
from .closure import ClosureOperator, Pregeometry, trivial_closure
from .geometry import (
    brute_dim_oracle,
    check_modular,
    closed_pair_excess,
    dim_table,
)
from .instances import (
    CATALOG_NAMES,
    Instance,
    canonical_codes,
    catalog,
    catalog_instance,
    dlo_config,
    free_amalgam_codes,
    graph_of_code,
    instance_operator,
    relabel_codes,
    rel_div,
    rel_st,
    relation,
    st_holds,
)
from .lattice import GroundSet, first_true
from .relcalc import (
    TernaryRelation,
    closure_extend_c,
    monotonise_M,
    monotonise_m,
    random_relation,
)


class UnknownSuite(ValueError):
    """A suite id is not known, or is given twice."""


class UnknownInstance(UnknownSuite):
    """A suite was restricted to names that are not in the catalog, or
    to one name twice, or only suites that take no catalog instance
    were given names."""


@dataclass(frozen=True)
class CheckResult:
    subject: str  # e.g. "u34:cl" or "graphs5:st"
    check: str  # axiom id or check keyword like "eq:cl"
    status: str  # pass | fail | vacuous
    witness: Optional[tuple[int, ...]] = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def result_line(self) -> str:
        return result_line(self.subject, self.check, self.status, self.witness)


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def result_lines(self) -> list[str]:
        status = "pass" if self.passed else "fail"
        lines = [f"SUITE {self.suite} {status}"]
        lines.extend(c.result_line() for c in self.checks)
        return lines


#: suite id -> one-line description (shown by the list command)
SUITES: dict[str, str] = {
    "pregeom-axioms": "dimension independence on pregeometries satisfies the"
    " full axiom list",
    "aM-eq-cl": "monotonised closure-intersection independence equals"
    " dimension independence on pregeometries",
    "aM-eq-am": "both monotonisation variants of closure-intersection"
    " independence agree on pregeometries",
    "mon-preserve": "monotonisation output always satisfies right base"
    " monotonicity",
    "c-preserve": "closure extension output always satisfies right closure"
    " and right normality",
    "mc-to-M": "closure-extended naive monotonisation implies full"
    " monotonisation, with equality under right closure",
    "modularity-5way": "the five modularity conditions agree on every"
    " pregeometry",
    "dim-laws": "relative dimension matches the brute-force oracle and obeys"
    " additivity, base antitonicity and submodularity",
    "rg-st": "edge-respecting independence on graphs satisfies its axiom"
    " list and free amalgamation is unique over the base",
    "dlo-div": "interval independence on linear orders satisfies its axiom"
    " list but fails right transitivity",
}

# Axiom lists per suite (FIN and LOC are always reported as vacuous).
PREGEOM_AXIOMS = (
    AxiomId.FIN, AxiomId.EX, AxiomId.SYM, AxiomId.LOC,
    AxiomId.NOR_L, AxiomId.NOR_R, AxiomId.MON_L, AxiomId.MON_R,
    AxiomId.BMON_L, AxiomId.BMON_R, AxiomId.TRA_L, AxiomId.TRA_R,
    AxiomId.AREF, AxiomId.CLO_L, AxiomId.CLO_R, AxiomId.SCLO,
)
ST_AXIOMS = PREGEOM_AXIOMS + (AxiomId.FREE,)
DIV_AXIOMS = (
    AxiomId.FIN, AxiomId.EX, AxiomId.LOC,
    AxiomId.NOR_L, AxiomId.NOR_R, AxiomId.MON_L, AxiomId.MON_R,
    AxiomId.BMON_R, AxiomId.TRA_L, AxiomId.AREF,
)

# Catalog pregeometries known to violate the modular law.
NONMODULAR = frozenset({"u34", "u36"})

#: the suites that quantify over their own structures, not the catalog,
#: so no instance name restricts them
CATALOG_FREE_SUITES = frozenset({"rg-st", "dlo-div"})

TABLE_SUITE_MAX = 6  # table-equality suites
STACK_SUITE_MAX = 5  # transformer-stack suites


class InstancePool:
    """The catalog instances a run draws from: the named ones, or the
    whole catalog when `names` is None.  The pool looks them up on first
    use, and every suite of the run shares them.  They are the process's
    instances (`catalog_instance`), so later runs and commands share them
    too, with what was computed from their operators."""

    def __init__(self, names: Optional[Sequence[str]] = None) -> None:
        self.names = names
        self._built: Optional[list[Instance]] = None

    def cap(self, max_size: int) -> Optional[int]:
        """A suite's size bound in this run: `max_size` on the whole
        catalog, none when the run names its instances."""
        return max_size if self.names is None else None

    def select(
        self, kind_ok: Callable[[Instance], bool],
        max_size: Optional[int] = None,
    ) -> list[Instance]:
        if self._built is None:
            self._built = (list(catalog().values()) if self.names is None
                           else [catalog_instance(n) for n in self.names])
        return [inst for inst in self._built if kind_ok(inst) and (
            max_size is None or inst.ground.size <= max_size)]


def _pregeometries(pool: InstancePool) -> list[Instance]:
    return pool.select(lambda i: i.pg is not None, pool.cap(TABLE_SUITE_MAX))


def _axiom_checks(
    subject: str,
    relation: TernaryRelation,
    op: Optional[ClosureOperator],
    axiom_ids: Sequence[AxiomId],
) -> list[CheckResult]:
    out = []
    for ax in axiom_ids:
        rep = check_axiom(relation, ax, op)
        out.append(CheckResult(subject, ax.value, rep.status, rep.witness))
    return out


def _cmp_check(subject: str, check: str, cmp: Comparison,
               accept: tuple[str, ...]) -> CheckResult:
    status = "pass" if cmp.verdict in accept else "fail"
    return CheckResult(subject, check, status,
                       cmp.witness if status == "fail" else None)


#: instance kind -> the relation ids the transformer-stack suites take
#: as bases
CATALOG_RELATION_IDS: dict[str, tuple[str, ...]] = {
    "pregeometry": ("int", "a", "cl"),
    "closure": ("int", "a"),
    "graph": ("st",),
    "order": ("div",),
}


def _catalog_relations(
    pool: InstancePool,
) -> list[tuple[str, TernaryRelation, ClosureOperator]]:
    """The `CATALOG_RELATION_IDS` relations of the selected instances,
    each paired with the instance's operator (`instance_operator`)."""
    return [(inst.name, relation(inst, rid), instance_operator(inst))
            for inst in pool.select(lambda i: True, pool.cap(STACK_SUITE_MAX))
            for rid in CATALOG_RELATION_IDS[inst.kind]]


# ---------------------------------------------------------------------------
# Suite bodies.  Each returns its checks in construction order.


def _suite_pregeom_axioms(pool: InstancePool) -> list[CheckResult]:
    out = []
    for inst in _pregeometries(pool):
        out += _axiom_checks(f"{inst.name}:cl", relation(inst, "cl"), inst.op,
                             PREGEOM_AXIOMS)
    return out


def _suite_am_eq(pool: InstancePool, rid: str) -> list[CheckResult]:
    """`aM` equals the relation `rid` on every selected pregeometry."""
    return [_cmp_check(f"{inst.name}:aM", f"eq:{rid}",
                       compare(relation(inst, "aM"), relation(inst, rid)),
                       ("equal",))
            for inst in _pregeometries(pool)]


RANDOM_RELATION_COUNT = 100
RANDOM_RELATION_SIZE = 4


def _suite_mon_preserve(pool: InstancePool) -> list[CheckResult]:
    """BMON-R on the M and m of every catalog base and random relation.
    BMON-R reads no closure, so they all go to one `check_axioms` call,
    which scans those of one size and class map at once."""
    subjects = [(label, r) for label, base, op in _catalog_relations(pool)
                for r in (monotonise_M(base, op), monotonise_m(base))]
    if pool.names is None:
        ground = GroundSet(RANDOM_RELATION_SIZE)
        ident = trivial_closure(ground)
        for seed in range(RANDOM_RELATION_COUNT):
            base = random_relation(ground, seed)
            subjects += [("rand", monotonise_M(base, ident)),
                         ("rand", monotonise_m(base))]
    reports = check_axioms([r for _, r in subjects], AxiomId.BMON_R)
    return [CheckResult(f"{label}:{r.name}", rep.axiom.value, rep.status,
                        rep.witness)
            for (label, r), rep in zip(subjects, reports)]


def _suite_c_preserve(pool: InstancePool) -> list[CheckResult]:
    out = []
    for inst in pool.select(lambda i: i.op is not None,
                            pool.cap(STACK_SUITE_MAX)):
        op = instance_operator(inst)
        # one base at a time: at n = 8 each whole table is 16 MB
        for build in (partial(relation, inst, "int"),
                      partial(relation, inst, "a"),
                      partial(random_relation, inst.ground, 0)):
            r = closure_extend_c(build(), op)
            out += _axiom_checks(f"{inst.name}:{r.name}", r, op,
                                 (AxiomId.CLO_R, AxiomId.NOR_R))
    return out


def _suite_mc_to_m(pool: InstancePool) -> list[CheckResult]:
    return [_mc_to_m_check(label, base, op)
            for label, base, op in _catalog_relations(pool)]


def _mc_to_m_check(label: str, base: TernaryRelation,
                   op: ClosureOperator) -> CheckResult:
    subject = f"{label}:{base.name}"
    nor = check_axiom(base, AxiomId.NOR_R).status == "pass"
    mon = check_axiom(base, AxiomId.MON_R).status == "pass"
    if not (nor and mon):
        return CheckResult(subject, "mc-to-M", "vacuous")
    lhs = closure_extend_c(monotonise_m(base), op)
    rhs = monotonise_M(base, op)
    clo = check_axiom(base, AxiomId.CLO_R, op).status == "pass"
    accept = ("equal",) if clo else ("equal", "implies")
    check = "mc-eq-M" if clo else "mc-to-M"
    return _cmp_check(subject, check, compare(lhs, rhs), accept)


def _suite_modularity(pool: InstancePool) -> list[CheckResult]:
    out = []
    for inst in pool.select(lambda i: i.pg is not None):
        pg = inst.pg
        assert pg is not None
        verdict = check_modular(pg)
        out.append(CheckResult(f"{inst.name}:modularity", "agree",
                               "pass" if verdict.agree else "fail"))
        expected = inst.name not in NONMODULAR
        ok = verdict.modular == expected
        out.append(CheckResult(
            f"{inst.name}:modularity",
            "modular" if expected else "nonmodular",
            "pass" if ok else "fail",
            None if ok else verdict.witnesses.get(5),
        ))
    return out


def _suite_dim_laws(pool: InstancePool) -> list[CheckResult]:
    out = []
    for inst in _pregeometries(pool):
        pg = inst.pg
        assert pg is not None
        out += _dim_law_checks(inst.name, pg, pool.cap(STACK_SUITE_MAX))
    return out


def _dim_law_checks(
    name: str, pg: Pregeometry, max_size: Optional[int] = STACK_SUITE_MAX
) -> list[CheckResult]:
    """The oracle check over (A, X) and, up to `max_size` elements (None:
    any), the three laws, each as a violation array with its least
    witness: additivity over (A, B), base antitonicity over (A, B, D)
    with B <= D, and submodularity over pairs (A, B) of closed sets."""
    dims = dim_table(pg)  # (A, X): dim(A/X)
    subject = f"{name}:dim"

    laws = [("oracle", first_true(dims != brute_dim_oracle(pg)))]

    if max_size is None or pg.ground.size <= max_size:
        masks = np.arange(pg.ground.subset_count)
        rank = dims[:, 0]
        below = masks[:, None] & ~masks == 0  # (B, D): B <= D
        laws += [
            ("additivity",
             first_true(rank[masks[:, None] | masks] != dims + rank)),
            ("base-antitone",
             first_true(below & (dims[:, :, None] < dims[:, None, :]))),
            ("submodular-closed", first_true(closed_pair_excess(pg) > 0)),
        ]
    return [CheckResult(subject, law, "pass" if bad is None else "fail", bad)
            for law, bad in laws]


GRAPH_SUITE_VERTICES = 5


def _graph_class_representatives(size: int) -> list[int]:
    """The least edge code in each isomorphism class of labeled graphs on
    `size` vertices, ascending: the codes that are their own canonical
    code with no vertex fixed."""
    codes = np.arange(1 << size * (size - 1) // 2)
    return np.flatnonzero(canonical_codes(codes, size, 0) == codes).tolist()


def _suite_rg_st(pool: InstancePool) -> list[CheckResult]:
    """The `st` axioms on every labeled graph with GRAPH_SUITE_VERTICES
    vertices, then free amalgamation; `pool` is ignored, because the
    suite quantifies over all labeled graphs, not the catalog.

    The axioms run on one graph per isomorphism class, its least edge
    code (34 graphs for 1024 at five vertices).  This is sound: `rel_st`
    and the identity closure commute with relabelling the vertices, and
    every axiom body uses only set operations, the relation and the
    closure, so each verdict is the same on all graphs of a class.  The
    report is that of a scan of all labeled graphs by ascending code: the
    least failing code is the least member of some failing class, which
    is that class's representative, and the representatives are scanned
    ascending, so the first one that fails an axiom gives its
    `graphs5#<code>` subject and, from its own table, the witness.
    """
    del pool
    return _st_axiom_unit() + _amalgam_unit()


def _st_axiom_unit() -> list[CheckResult]:
    """One `check_axioms` call per axiom over the representatives, which
    share one ground set and have no class rows, so each axiom is one
    scan of their layouts side by side.  Each relation's rows and
    layouts are built on first use and serve every axiom, and so do the
    layouts side by side, set once per axis (`shared`)."""
    size = GRAPH_SUITE_VERTICES
    ident = trivial_closure(GroundSet(size))
    codes = _graph_class_representatives(size)
    relations = [rel_st(graph_of_code(size, code)) for code in codes]
    shared: dict = {}
    out = []
    for ax in ST_AXIOMS:
        reports = check_axioms(relations, ax, ident, shared)
        failed = [(code, rep) for code, rep in zip(codes, reports)
                  if rep.status == "fail"]
        if failed:
            code, rep = failed[0]
            out.append(CheckResult(f"graphs{size}#{code}:st", ax.value,
                                   "fail", rep.witness))
        else:
            out.append(CheckResult(f"graphs{size}:st", ax.value,
                                   reports[0].status))
    return out


def _amalgam_unit() -> list[CheckResult]:
    """Free amalgamation sanity across small graph pairs.

    For every pair of graphs agreeing on a shared base, the amalgam must
    satisfy the edge-respecting independence on its defining triple, and
    relabelling the free vertices of either part must not change the
    amalgam's isomorphism type over the base.

    The nine (base, n1, n2) scans cover 3,572 pairs and 15,352 amalgams
    of relabelled parts.  They run on arrays of edge codes (see
    `_amalgam_scan`) rather than on a `Graph` per amalgam with one
    isomorphism test per relabelling.
    """
    for base_size in (1, 2, 3):
        for n1 in range(base_size + 1, 5):
            for n2 in range(n1, 5):
                if n1 + n2 - base_size > 6:
                    continue
                fail = _amalgam_scan(base_size, n1, n2)
                if fail is not None:
                    return [fail]
    return [CheckResult("amalgam", "unique-over-base", "pass"),
            CheckResult("amalgam", "st-on-parts", "pass")]


def _codes_fixing_base(size: int, base_size: int) -> np.ndarray:
    """Row b: the codes of every graph on `size` vertices that induces
    the base graph with code b on vertices 0..base_size-1, ascending."""
    slots = combinations(range(size), 2)
    base_pairs = sum(1 << k for k, (_, v) in enumerate(slots) if v < base_size)
    codes = np.arange(1 << size * (size - 1) // 2)
    off_base = codes[codes & base_pairs == 0]
    bases = np.arange(1 << base_size * (base_size - 1) // 2)
    on_base = relabel_codes(bases, base_size, [range(base_size)], size)[0]
    return on_base[:, None] | off_base[None, :]


def _amalgam_scan(base_size: int, n1: int, n2: int) -> Optional[CheckResult]:
    """The first failing amalgam of a graph g1 on n1 vertices and a graph
    g2 on n2 vertices over a common base on vertices 0..base_size-1.

    The amalgams form one (base code, g1, g2) array of codes.
    `st-on-parts` is a mask test on it, and `unique-over-base` compares
    canonical codes over the base of each amalgam and of the amalgams of
    every free relabelling of g1 or of g2.  The reported failure is the
    first failing cell in (base code, g1, g2) order, `st-on-parts` first
    within a cell.
    """
    subject = f"amalgam:{base_size}/{n1}/{n2}"
    size = n1 + n2 - base_size
    base_mask = (1 << base_size) - 1
    part1 = (1 << n1) - 1 & ~base_mask
    part2_mask = ((1 << size) - 1) & ~((1 << n1) - 1)
    head = tuple(range(base_size))
    lefts = _codes_fixing_base(n1, base_size)
    rights = _codes_fixing_base(n2, base_size)
    perms1 = [head + p for p in permutations(range(base_size, n1))]
    perms2 = [head + p for p in permutations(range(base_size, n2))]
    h = free_amalgam_codes(lefts, rights, base_size, n1, n2)
    relabelled = [
        h[None],
        free_amalgam_codes(relabel_codes(lefts, n1, perms1), rights,
                           base_size, n1, n2),
        free_amalgam_codes(lefts, relabel_codes(rights, n2, perms2),
                           base_size, n1, n2),
    ]
    canon = canonical_codes(np.concatenate(relabelled), size, base_size)
    st_bad = ~st_holds(h, size, part1, part2_mask, base_mask)
    bad = st_bad | (canon[1:] != canon[0]).any(axis=0)
    if not bad.any():
        return None
    if st_bad.flat[np.argmax(bad)]:
        return CheckResult(subject, "st-on-parts", "fail",
                           (part1, part2_mask, base_mask))
    return CheckResult(subject, "unique-over-base", "fail", None)


DLO_SUITE_MAX = 6


def _suite_dlo_div(pool: InstancePool) -> list[CheckResult]:
    del pool
    out = []
    for n in range(1, DLO_SUITE_MAX + 1):
        config = dlo_config(n)
        div = rel_div(config)
        ident = trivial_closure(config.ground)
        out += _axiom_checks(f"dlo{n}:div", div, ident, DIV_AXIOMS)
        if n == 4:
            rep = check_axiom(div, AxiomId.TRA_R)
            status = "pass" if rep.status == "fail" else "fail"
            out.append(CheckResult(f"dlo{n}:div", "TRA-R-fails", status,
                                   rep.witness))
    return out


_SUITE_BODIES: dict[str, Callable[[InstancePool], list[CheckResult]]] = {
    "pregeom-axioms": _suite_pregeom_axioms,
    "aM-eq-cl": partial(_suite_am_eq, rid="cl"),
    "aM-eq-am": partial(_suite_am_eq, rid="am"),
    "mon-preserve": _suite_mon_preserve,
    "c-preserve": _suite_c_preserve,
    "mc-to-M": _suite_mc_to_m,
    "modularity-5way": _suite_modularity,
    "dim-laws": _suite_dim_laws,
    "rg-st": _suite_rg_st,
    "dlo-div": _suite_dlo_div,
}


def _check_request(
    suite_ids: Sequence[str], instances: Optional[Sequence[str]]
) -> None:
    """Refuse an unknown suite id, then a repeated suite id, then unknown
    instance names, then a repeated instance name, then instance names
    when no suite takes catalog instances."""
    for suite_id in suite_ids:
        if suite_id not in _SUITE_BODIES:
            raise UnknownSuite(f"unknown suite: {suite_id!r}")
    if repeated := _repeated(suite_ids):
        raise UnknownSuite(f"repeated suites: {repeated}")
    if instances is not None:
        missing = [repr(n) for n in instances if n not in CATALOG_NAMES]
        if missing:
            raise UnknownInstance(f"unknown instances: {', '.join(missing)}")
        if repeated := _repeated(instances):
            raise UnknownInstance(f"repeated instances: {repeated}")
        if CATALOG_FREE_SUITES.issuperset(suite_ids):
            raise UnknownInstance("suites without catalog instances: "
                                  + ", ".join(suite_ids))


def _repeated(names: Sequence[str]) -> str:
    """The names given more than once, in order of first appearance."""
    return ", ".join(dict.fromkeys(n for n in names if names.count(n) > 1))


def run_suite(
    suite_id: str,
    instances: Optional[Sequence[str]] = None,
    pool: Optional[InstancePool] = None,
) -> SuiteResult:
    """Run one suite; `instances` restricts to named catalog entries.

    `pool` holds those entries when several suites share one build of
    them, and then the caller has checked the request as a whole
    (`run_suites`), which may name instances for a suite that takes none;
    by default the suite checks its request and builds its own.
    """
    if pool is None:
        _check_request([suite_id], instances)
        pool = InstancePool(instances)
    return SuiteResult(suite_id, _SUITE_BODIES[suite_id](pool))


def run_suites(
    suite_ids: Sequence[str],
    instances: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> list[SuiteResult]:
    """Run the suites in order on one shared `InstancePool`.

    Every suite id and instance name is checked before the first suite
    runs.  `workers` is ignored: suites run serially on the calling
    thread.  It stays only because the benchmark harness
    (`perfbench/run.py`) still passes it.
    """
    del workers
    _check_request(suite_ids, instances)
    pool = InstancePool(instances)
    return [run_suite(s, instances, pool) for s in suite_ids]


def render_report(results: Sequence[SuiteResult]) -> str:
    lines = []
    for res in results:
        lines.extend(res.result_lines())
    return "\n".join(lines) + "\n"


def render_summary(results: Sequence[SuiteResult]) -> str:
    width = max(len(r.suite) for r in results)
    lines = []
    for res in results:
        status = "pass" if res.passed else "FAIL"
        lines.append(
            f"{res.suite:<{width}}  {status}  checks={len(res.checks)}"
            f" failures={len(res.failures())}"
        )
    return "\n".join(lines) + "\n"
