"""In-memory span tracer for pregeolab, installed from outside the library.

`Tracer.install()` replaces the public functions listed in `TRACED` with
timing wrappers at every module binding that refers to them, so calls
from inside the library (for example `axioms.materialize`, which is
`relcalc.materialize` imported by name, or `instances.operator_from_table`,
which is `closure.from_table` under another name) are traced too.
`Tracer.uninstall()` puts every original object back.

Each span is (id, name, start, end, parent id, thread id, attrs).  The
parent is the innermost open span of the same thread, so work a thread
pool runs has no parent.  Spans stay in memory until `write()`.

Hot inner helpers (`geometry.dim`, `closure.as_mask`, `lattice.*`) are not
wrapped: they run millions of times per pass and a span each would
measure the tracer, not the library.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

#: layer module -> public functions wrapped in that module
TRACED: dict[str, tuple[str, ...]] = {
    "relcalc": ("materialize",),
    "axioms": ("check_axiom", "check_all", "compare"),
    "instances": ("catalog", "rel_st"),
    "closure": ("from_table", "has_exchange"),
    "geometry": ("dim_table", "check_modular", "brute_dim_oracle"),
    "verify": ("run_suite", "run_suites"),
    "cli": ("main",),
}

#: axiom id -> scan family reported as axioms.scan.<family>.self_s
SCAN_FAMILY = {
    **dict.fromkeys(("EX", "SYM", "NOR-L", "NOR-R", "AREF", "CLO-L", "CLO-R",
                     "SCLO"), "3var"),
    **dict.fromkeys(("MON-L", "MON-R"), "mon"),
    **dict.fromkeys(("BMON-L", "BMON-R", "TRA-L", "TRA-R"), "chain"),
    **dict.fromkeys(("TRA-STRONG", "BMON-STRONG", "FREE"), "strong"),
}

SUITE_IDS = ("pregeom-axioms", "aM-eq-cl", "aM-eq-am", "mon-preserve",
             "c-preserve", "mc-to-M", "modularity-5way", "dim-laws", "rg-st",
             "dlo-div")

#: spans that only dispatch work; they do not count as library work when
#: measuring how many threads were busy
DISPATCH = frozenset({"verify.run_suites", "verify.run_suite", "cli.main"})

#: per-layer metric name -> (unit, better); the traced run prints exactly these
PER_LAYER: dict[str, tuple[str, str]] = {
    "relcalc.materialize.calls": ("count", "lower"),
    "relcalc.materialize.builds": ("count", "lower"),
    "relcalc.materialize.self_s": ("s", "lower"),
    "relcalc.cells_built": ("count", "lower"),
    "relcalc.useful_build_ratio": ("ratio", "higher"),
    "axioms.check_axiom.calls": ("count", "lower"),
    "axioms.check_axiom.self_s": ("s", "lower"),
    "axioms.scan.3var.self_s": ("s", "lower"),
    "axioms.scan.mon.self_s": ("s", "lower"),
    "axioms.scan.chain.self_s": ("s", "lower"),
    "axioms.scan.strong.self_s": ("s", "lower"),
    "axioms.compare.calls": ("count", "lower"),
    "axioms.compare.self_s": ("s", "lower"),
    "instances.catalog.calls": ("count", "lower"),
    "instances.catalog.s": ("s", "lower"),
    "instances.rel_st.calls": ("count", "lower"),
    "closure.from_table.calls": ("count", "lower"),
    "closure.from_table.s": ("s", "lower"),
    "closure.has_exchange.s": ("s", "lower"),
    "geometry.dim_table.s": ("s", "lower"),
    "geometry.dim_table.hit_ratio": ("ratio", "higher"),
    "geometry.check_modular.s": ("s", "lower"),
    "geometry.brute_dim_oracle.calls": ("count", "lower"),
    "geometry.brute_dim_oracle.s": ("s", "lower"),
    **{f"verify.suite.{sid}.s": ("s", "lower") for sid in SUITE_IDS},
    "verify.concurrency": ("ratio", "higher"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _materialize_attrs(args: tuple, kwargs: dict, result: Any) -> Optional[dict]:
    relation = args[0] if args else kwargs["r"]
    if relation.table is not None:
        return None
    table = result.table
    packed = np.packbits(table)  # one bit per cell: hashing 8x fewer bytes
    digest = hashlib.blake2b(packed, digest_size=16).hexdigest()
    return {"cells": int(table.size), "key": f"{result.name}/{digest}"}


def _check_axiom_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"axiom": result.axiom.value}


def _run_suite_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"suite": result.suite}


def _cli_main_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"argv": " ".join(args[0] if args else kwargs["argv"])}


ANNOTATE: dict[str, Callable[[tuple, dict, Any], Optional[dict]]] = {
    "cli.main": _cli_main_attrs,
    "relcalc.materialize": _materialize_attrs,
    "axioms.check_axiom": _check_axiom_attrs,
    "verify.run_suite": _run_suite_attrs,
}


class Tracer:
    """Records spans for the functions in `TRACED` while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for layer in TRACED:
            importlib.import_module(f"pregeolab.{layer}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pregeolab" or name.startswith("pregeolab.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"pregeolab.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATE.get(name)
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = annotate(args, kwargs, result) if ok and annotate else None
                spans.append((sid, name, start, end, parent,
                              threading.get_ident(), attrs))

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, name, start, end, parent, thread, attrs in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "thread": thread, "attrs": attrs}) + "\n")


def layer_metrics(spans: list[tuple], wall: float,
                  dim_cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed as in `PER_LAYER`.

    A span's self time is its duration minus the durations of its child
    spans, which run in the same thread and so do not overlap.
    `dim_cache` is the (hits, misses) increase of `geometry.dim_table`'s
    cache over the pass.  `trace.overhead_frac` is left to the caller.
    """
    child = defaultdict(float)
    for _sid, _name, start, end, parent, _thread, _attrs in spans:
        if parent:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    by_id = {}
    builds = cells = 0
    keys = set()
    for sid, name, start, end, parent, _thread, attrs in spans:
        by_id[sid] = (name, start, end, parent)
        dur = end - start
        own = dur - child[sid]
        calls[name] += 1
        total[name] += dur
        self_s[name] += own
        if name == "relcalc.materialize" and attrs:
            builds += 1
            cells += attrs["cells"]
            keys.add(attrs["key"])
        elif name == "axioms.check_axiom":
            family = SCAN_FAMILY.get(attrs["axiom"]) if attrs else None
            if family:
                self_s[f"axioms.scan.{family}"] += own
        elif name == "verify.run_suite" and attrs:
            total[f"verify.suite.{attrs['suite']}"] += dur

    def top_level(parent: int) -> bool:
        while parent:
            name, _s, _e, parent = by_id[parent]
            if name not in DISPATCH:
                return False
        return True

    busy = sum(end - start for sid, name, start, end, parent, _t, _a in spans
               if name not in DISPATCH and top_level(parent))
    hits, misses = dim_cache
    out = {
        "relcalc.materialize.calls": calls["relcalc.materialize"],
        "relcalc.materialize.builds": builds,
        "relcalc.materialize.self_s": self_s["relcalc.materialize"],
        "relcalc.cells_built": cells,
        "relcalc.useful_build_ratio": len(keys) / builds if builds else 0.0,
        "axioms.check_axiom.calls": calls["axioms.check_axiom"],
        "axioms.check_axiom.self_s": self_s["axioms.check_axiom"],
        **{f"axioms.scan.{fam}.self_s": self_s[f"axioms.scan.{fam}"]
           for fam in ("3var", "mon", "chain", "strong")},
        "axioms.compare.calls": calls["axioms.compare"],
        "axioms.compare.self_s": self_s["axioms.compare"],
        "instances.catalog.calls": calls["instances.catalog"],
        "instances.catalog.s": total["instances.catalog"],
        "instances.rel_st.calls": calls["instances.rel_st"],
        "closure.from_table.calls": calls["closure.from_table"],
        "closure.from_table.s": total["closure.from_table"],
        "closure.has_exchange.s": total["closure.has_exchange"],
        "geometry.dim_table.s": total["geometry.dim_table"],
        "geometry.dim_table.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "geometry.check_modular.s": total["geometry.check_modular"],
        "geometry.brute_dim_oracle.calls": calls["geometry.brute_dim_oracle"],
        "geometry.brute_dim_oracle.s": total["geometry.brute_dim_oracle"],
        **{f"verify.suite.{sid}.s": total[f"verify.suite.{sid}"]
           for sid in SUITE_IDS},
        "verify.concurrency": busy / wall if wall > 0 else 0.0,
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
    }
    return out
