"""pregeolab benchmark: three exhaustive-check workloads, one closed loop each.

Run from the repository root:

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 20 --trace 0

The process imports the library from `src/` of the checkout it runs in,
then repeats passes over the workload's operation list, one operation at
a time, until `--seconds` is used up (always at least one pass).  Every
output is checked against the seed outputs in `golden.json`, and in
`check-large` every `fail` witness is re-evaluated with the scalar route.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
adds one traced pass and reports the per-layer metrics instead.  The last
line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import tracer

# At most two threads: the two suite workers.  Keep numpy single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
TRACE_DIR = ROOT / ".perfbench-out"

WORKERS = 2
SETUP_PROBES = 7

#: end-to-end metric name -> unit; the untraced run prints exactly these
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def setup() -> None:
    """Import pregeolab from this checkout and build the catalog once."""
    if not (SRC / "pregeolab" / "__init__.py").is_file():
        raise SetupError(f"no pregeolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pregeolab
    from pregeolab import instances

    if Path(pregeolab.__file__).resolve().parent != SRC / "pregeolab":
        raise SetupError(f"imported pregeolab from {pregeolab.__file__}")
    instances.catalog()


def measure_setup(probes: int) -> float:
    """Median time from starting a fresh interpreter on this script until
    `setup()` has returned in it."""
    times = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SetupError("setup probe failed: " + proc.stderr.strip())
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Workloads.  An operation is a string id; a pass runs a list of them in
# order and returns {op: output lines}, or an exception for ops that raised.

Outputs = dict[str, "list[str] | BaseException"]

CATALOG_SUITES = ("pregeom-axioms", "aM-eq-cl", "aM-eq-am", "mon-preserve",
                  "c-preserve", "mc-to-M", "modularity-5way", "dim-laws",
                  "dlo-div")

#: raise CapExceeded at ground size >= 7, so check-large leaves them out
REFUSED_AT_N7 = ("MON-L", "MON-R", "TRA-STRONG", "BMON-STRONG", "FREE")


def check_large_ops() -> list[str]:
    from pregeolab.axioms import AxiomId

    ops = [f"check --instance {inst} --relation {rel} --all"
           for inst, rel in (("u36", "cl"), ("u36", "aM"), ("dlo6", "div"))]
    for inst, rel in (("gf2-7", "cl"), ("gf2-7", "aM"), ("gebert8", "a")):
        ops += [f"check --instance {inst} --relation {rel} --axiom {ax.value}"
                for ax in AxiomId if ax.value not in REFUSED_AT_N7]
    ops += ["compare --instance gf2-7 --relations aM,cl",
            "compare --instance gebert8 --relations a,sup"]
    return ops


def run_suites_pass(ops: list[str], workers: int) -> Outputs:
    from pregeolab import verify

    try:
        results = verify.run_suites(ops, workers=workers)
    except Exception as exc:  # every suite of the call failed
        return {op: exc for op in ops}
    return {res.suite: res.result_lines() for res in results}


def cli_pass(ops: list[str], workers: int) -> Outputs:
    del workers  # each operation is one in-process command-line call
    from pregeolab import cli

    out: Outputs = {}
    for op in ops:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op.split())
        except (Exception, SystemExit) as exc:
            out[op] = exc
            continue
        out[op] = (buf.getvalue().splitlines() if code == 0
                   else RuntimeError(f"exit code {code}"))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[], list[str]]
    run_pass: Callable[[list[str], int], Outputs]
    seeded: bool  # whether the seed permutes the operation order


WORKLOADS = {
    "verify-graphs": Workload("verify-graphs", lambda: ["rg-st"],
                              run_suites_pass, seeded=False),
    "verify-catalog": Workload("verify-catalog", lambda: list(CATALOG_SUITES),
                               run_suites_pass, seeded=True),
    "check-large": Workload("check-large", check_large_ops, cli_pass,
                            seeded=True),
}


# ---------------------------------------------------------------------------
# Output checks


def match_golden(golden: list[str], lines: list[str]) -> Optional[int]:
    """Number of lines the seed never produced, or None when a seed line is
    missing, changed or out of order."""
    rest = iter(lines)
    if all(line in rest for line in golden):
        return len(lines) - len(golden)
    return None


def witness_errors(op: str, lines: list[str]) -> list[str]:
    """`fail` RESULT lines of a `check` operation whose witness is not a
    violation under the scalar definitional route; [] for other ops."""
    from pregeolab import cli
    from pregeolab.axioms import AxiomId, evaluate_axiom_body
    from pregeolab.lattice import parse_mask

    argv = op.split()
    fails = [fields for fields in map(str.split, lines)
             if fields[:1] == ["RESULT"] and fields[3:4] == ["fail"]]
    if argv[0] != "check" or not fails:
        return []
    inst = cli.load_instance(argv[argv.index("--instance") + 1])
    rel_id = argv[argv.index("--relation") + 1]
    size = inst.ground.size
    bad = []
    for fields in fails:
        relation = cli.resolve_relation(inst, rel_id)  # no table: scalar fn
        try:
            ax = AxiomId.parse(fields[2])
            witness = tuple(parse_mask(m, size) for m in
                            fields[4].removeprefix("witness=").split(";"))
            holds = evaluate_axiom_body(relation, ax, witness,
                                        cli.instance_operator(inst))
        except (IndexError, ValueError):  # no or malformed witness
            holds = True
        if holds:
            bad.append(" ".join(fields))
    return bad


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    extra_lines: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, golden: dict[str, list[str]], outputs: Outputs) -> None:
        for op, lines in outputs.items():
            self.attempted += 1
            problem = self._problem(golden.get(op), op, lines)
            if problem:
                self.failed += 1
                self.errors.append(f"{op}: {problem}")

    def _problem(self, golden: Optional[list[str]], op: str, lines) -> str:
        if isinstance(lines, BaseException):
            return f"raised {lines!r}"
        if golden is None:
            return "no seed output recorded"
        extra = match_golden(golden, lines)
        if extra is None:
            return "a seed line is missing, changed or out of order"
        self.extra_lines += extra
        bad = witness_errors(op, lines)
        if bad:
            return "witness is not a violation: " + bad[0]
        return ""


# ---------------------------------------------------------------------------


def load_golden(workload: str) -> dict[str, list[str]]:
    if not GOLDEN.is_file():
        raise SetupError(f"missing seed outputs {GOLDEN}")
    return json.loads(GOLDEN.read_text())[workload]


def timed_pass(workload: Workload, ops: list[str]) -> tuple[float, Outputs]:
    start = time.perf_counter()
    outputs = workload.run_pass(ops, WORKERS)
    return time.perf_counter() - start, outputs


def untraced_passes(workload: Workload, ops: list[str], seconds: float,
                    golden: dict, tally: Tally) -> list[float]:
    """Closed loop: passes back to back until the next would overrun."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        wall, outputs = timed_pass(workload, ops)
        walls.append(wall)
        tally.record(golden, outputs)
        used = time.perf_counter() - start
        if used + statistics.median(walls) > seconds:
            return walls


def traced_pass(workload: Workload, ops: list[str], golden: dict,
                tally: Tally, trace_path: Path) -> tuple[float, dict]:
    from pregeolab import geometry

    before = geometry.dim_table.cache_info()
    t = tracer.Tracer()
    t.install()
    try:
        wall, outputs = timed_pass(workload, ops)
    finally:
        t.uninstall()
    after = geometry.dim_table.cache_info()
    tally.record(golden, outputs)
    metrics = tracer.layer_metrics(
        t.spans, wall, (after.hits - before.hits, after.misses - before.misses))
    t.write(trace_path)
    return wall, metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe_setup:
            setup()
            print(time.monotonic())
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        setup_s = None if args.trace else measure_setup(SETUP_PROBES)
        setup()
        golden = load_golden(workload.name)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = workload.ops()
    if workload.seeded:
        random.Random(args.seed).shuffle(ops)
    tally = Tally()
    walls = untraced_passes(workload, ops, args.seconds, golden, tally)
    wall_s = statistics.median(walls)
    if args.trace:
        trace_path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        traced_wall, values = traced_pass(workload, ops, golden, tally,
                                          trace_path)
        values["trace.overhead_frac"] = traced_wall / wall_s - 1
        units = {name: unit for name, (unit, _b) in tracer.PER_LAYER.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": rss_kb / 1024}
        units = END_TO_END

    for err in tally.errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    failed_frac = tally.failed / tally.attempted
    print(f"{workload.name} seed={args.seed} passes={len(walls)}"
          f" trace={args.trace} attempted={tally.attempted}"
          f" failed={tally.failed} failed_frac={failed_frac} (ratio)"
          f" extra_lines={tally.extra_lines}"
          + "".join(f" {k}={v} ({units[k]})" for k, v in values.items()
                    if k in END_TO_END))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
