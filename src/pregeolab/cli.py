"""Command-line interface.

Every run is fully determined by its argument vector and input files.

Exit codes: 0 success, 1 failure/counterexample where the subcommand
defines one (always for `verify`, under --strict elsewhere), 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import axioms, closure, geometry, instances, relcalc, verify
from .axioms import AxiomId, Goal
from .instances import Instance, instance_operator
from .lattice import GroundSet, format_mask, format_witness, parse_mask


class UsageError(Exception):
    pass


def load_instance(spec: str) -> Instance:
    if spec in instances.CATALOG_NAMES:
        return instances.catalog_instance(spec)
    path = Path(spec)
    if not path.exists():
        raise UsageError(
            f"--instance: {spec!r} is neither a catalog name nor a file"
        )
    try:
        return instances.parse_instance(path.read_text(encoding="utf-8"),
                                        name=path.stem)
    except (OSError, UnicodeDecodeError, instances.InstanceFormatError,
            closure.LawViolation) as exc:
        raise UsageError(f"--instance: {spec}: {exc}") from exc


def resolve_relation(inst: Instance, rel_id: str) -> relcalc.TernaryRelation:
    """`instances.relation`, with its errors as usage errors."""
    try:
        return instances.relation(inst, rel_id)
    except instances.RelationError as exc:
        raise UsageError(f"--relation: {exc}") from exc


def _parse_set(inst: Instance, flag: str, text: str) -> int:
    try:
        return parse_mask(text, inst.ground.size)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    relation = resolve_relation(inst, args.relation)
    op = instance_operator(inst)
    if args.all:
        reports = axioms.check_all(relation, op)
    else:
        if args.axiom is None:
            raise UsageError("--axiom: required unless --all is given")
        try:
            ax = AxiomId.parse(args.axiom)
        except ValueError as exc:
            raise UsageError(f"--axiom: {exc}") from exc
        reports = [axioms.check_axiom(relation, ax, op)]
    for rep in reports:
        print(rep.result_line())
    failed = any(rep.status == "fail" for rep in reports)
    return 1 if failed and args.strict else 0


def cmd_compare(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    ids = [part.strip() for part in args.relations.split(",")]
    if len(ids) != 2:
        raise UsageError("--relations: need exactly two ids, comma separated")
    r1 = resolve_relation(inst, ids[0])
    r2 = resolve_relation(inst, ids[1])
    cmp = axioms.compare(r1, r2)
    line = f"COMPARE {ids[0]} {ids[1]} {cmp.verdict}"
    if cmp.witness is not None:
        line += " witness=" + format_witness(cmp.witness)
    print(line)
    return 1 if cmp.verdict != "equal" and args.strict else 0


def _require_pg(inst: Instance) -> closure.Pregeometry:
    if inst.pg is None:
        raise UsageError(f"--instance: {inst.name} is not a pregeometry")
    return inst.pg


def _basis(args: argparse.Namespace) -> geometry.DimResult:
    inst = load_instance(args.instance)
    pg = _require_pg(inst)
    subset = _parse_set(inst, "--set", args.set)
    over = _parse_set(inst, "--over", args.over)
    return geometry.basis_of(pg, subset, over)


def cmd_dim(args: argparse.Namespace) -> int:
    res = _basis(args)
    print(f"dim={res.value} basis={format_mask(res.basis)}")
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    print(f"basis={format_mask(_basis(args).basis)}")
    return 0


def cmd_modular(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    pg = _require_pg(inst)
    verdict = geometry.check_modular(pg)
    print(verdict.describe())
    return 1 if args.strict and not verdict.modular else 0


def _parse_goal(text: str) -> Goal:
    premises = []
    target = None
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        negated = part.startswith("!")
        try:
            ax = AxiomId.parse(part[1:] if negated else part)
        except ValueError as exc:
            raise UsageError(f"--goal: {exc}") from exc
        if negated:
            if target is not None:
                raise UsageError("--goal: exactly one negated target allowed")
            target = ax
        else:
            premises.append(ax)
    if target is None:
        raise UsageError("--goal: need one negated axiom, e.g. 'SYM,!MON-R'")
    return Goal(tuple(premises), target)


def _search_instances(kind: Optional[str], max_n: int) -> list[Instance]:
    """The catalog instances a search visits, in catalog order."""
    return [
        inst for inst in instances.catalog().values()
        if inst.ground.size <= max_n and (not kind or inst.kind == kind)
    ]


def cmd_search(args: argparse.Namespace) -> int:
    try:
        rid = instances.relation_id(args.relation)[0]
    except instances.RelationError as exc:
        raise UsageError(f"--relation: {exc}") from exc
    if args.goal == "exchange-fail":
        for inst in _search_instances(args.kind, args.max_n):
            if inst.op is None:
                continue
            found = closure.has_exchange(inst.op)
            if isinstance(found, closure.ExchangeFailure):
                wit = (found.set_mask, 1 << found.a, 1 << found.b)
                print(f"FOUND {inst.name} witness={format_witness(wit)}")
                return 1 if args.strict else 0
        print("EXHAUSTED")
        return 0
    goal = _parse_goal(args.goal)
    if args.space == "catalog":
        candidates = [
            (inst.name, resolve_relation(inst, args.relation),
             instance_operator(inst))
            for inst in _search_instances(args.kind, args.max_n)
            if instances.defines(inst, rid)
        ]
    else:  # all relations on a 1-element ground set
        ident = closure.trivial_closure(GroundSet(1))
        candidates = [
            (r.name, r, ident) for r in axioms.enumerate_all_relations()
        ]
    hit = axioms.search_counterexample(goal, candidates)
    if hit is None:
        print("EXHAUSTED")
        return 0
    print(f"FOUND {hit.instance} witness={format_witness(hit.witness)}")
    return 1 if args.strict else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for suite, desc in verify.SUITES.items():
            print(f"{suite}: {desc}")
        return 0
    if args.suite == "all":
        suite_ids = list(verify.SUITES)
    else:
        suite_ids = [s.strip() for s in args.suite.split(",")]
    if args.instances == "":
        raise UsageError("--instances: no catalog names given")
    names = None if args.instances is None else args.instances.split(",")
    # opened (and truncated, like a shell redirection) before any suite
    # runs, so an unwritable path fails at once
    try:
        report = open(args.report, "w") if args.report else None
    except OSError as exc:
        raise UsageError(f"--report: {exc}") from exc
    with report or contextlib.nullcontext():
        try:
            results = verify.run_suites(suite_ids, names)
        except verify.UnknownInstance as exc:
            raise UsageError(f"--instances: {exc}") from exc
        except verify.UnknownSuite as exc:
            raise UsageError(f"--suite: {exc}") from exc
        sys.stdout.write(verify.render_summary(results))
        if report is not None:
            report.write(verify.render_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_list(args: argparse.Namespace) -> int:
    del args
    print("instances:")
    for inst in instances.catalog().values():
        print(f"  {inst.name:<10} {inst.kind:<12} n={inst.ground.size:<3}"
              f" {instances.CATALOG[inst.name][0]}")
    print("relations:")
    for rid, (desc, _, _) in instances.RELATIONS.items():
        print(f"  {rid:<10} {desc}")
    print("  opp(<id>)  the same relation with the two sides swapped")
    print("axioms:")
    print("  " + " ".join(ax.value for ax in AxiomId))
    print("suites:")
    for suite, desc in verify.SUITES.items():
        print(f"  {suite:<16} {desc}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pregeolab",
        description="finite closure operators, pregeometries and"
        " independence relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--instance", required=True,
                       help="catalog name or instance file path")

    p = sub.add_parser("check", help="check axioms on a relation")
    add_instance(p)
    p.add_argument("--relation", required=True)
    p.add_argument("--axiom")
    p.add_argument("--all", action="store_true", help="check every axiom")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compare", help="compare two relations as tables")
    add_instance(p)
    p.add_argument("--relations", required=True, help="two ids, e.g. cl,a")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("dim", help="relative dimension and greedy basis")
    add_instance(p)
    p.add_argument("--set", required=True)
    p.add_argument("--over", default="{}")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("basis", help="greedy basis of a set over a base")
    add_instance(p)
    p.add_argument("--set", required=True)
    p.add_argument("--over", default="{}")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("modular", help="five-condition modularity verdict")
    add_instance(p)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_modular)

    p = sub.add_parser("search", help="first counterexample in a search space")
    p.add_argument("--goal", required=True,
                   help="axiom list with one negated target, e.g."
                   " 'SYM,!MON-R', or 'exchange-fail'")
    p.add_argument("--relation", default="a",
                   help="relation id evaluated on each candidate instance")
    p.add_argument("--space", choices=("catalog", "enum1"), default="catalog")
    p.add_argument("--kind", choices=("pregeometry", "closure", "graph", "order"))
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", help="comma list or 'all'")
    p.add_argument("--instances", help="comma list of catalog names")
    p.add_argument("--report", help="write RESULT lines to this file")
    p.add_argument("--list", action="store_true",
                   help="print the suite binding table and exit")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("list", help="show catalog, relations, axioms, suites")
    p.set_defaults(fn=cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, closure.LawViolation, instances.InstanceFormatError,
            relcalc.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
