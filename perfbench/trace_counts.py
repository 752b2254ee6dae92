"""Work counts from a trace file written by `run.py --trace 1`.

    python3 perfbench/trace_counts.py .perfbench-out/check-large-seed1.jsonl

Prints the pass totals (table builds, distinct tables, `rel_st` and
`catalog()` calls) and, for command-line operations, the same counts per
operation.  Counts do not depend on timing, so they repeat exactly
between runs and seeds.
"""

from __future__ import annotations

import json
import sys
from collections import Counter


def counts(spans: list[dict]) -> Counter:
    c: Counter = Counter()
    tables = set()
    for s in spans:
        c[s["name"]] += 1
        if s["name"] == "relcalc.materialize" and s["attrs"]:
            c["builds"] += 1
            tables.add(s["attrs"]["key"])
    c["distinct tables"] = len(tables)
    return c


def line(label: str, c: Counter) -> str:
    return (f"{label}: builds={c['builds']} distinct={c['distinct tables']}"
            f" check_axiom={c['axioms.check_axiom']}"
            f" rel_st={c['instances.rel_st']}"
            f" catalog={c['instances.catalog']}")


def main(path: str) -> int:
    spans = [json.loads(text) for text in open(path)]
    by_id = {s["id"]: s for s in spans}
    per_op: dict[int, list[dict]] = {}
    for s in spans:
        top = s
        while top["parent"]:
            top = by_id[top["parent"]]
        if top["name"] == "cli.main":
            per_op.setdefault(top["id"], []).append(s)
    print(line("pass", counts(spans)))
    for sid in sorted(per_op, key=lambda i: by_id[i]["attrs"]["argv"]):
        print(line(by_id[sid]["attrs"]["argv"], counts(per_op[sid])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
