"""Self-test of the benchmark harness.

Run from the repository root (about half a minute):

    python3 perfbench/selftest.py

It checks that a tampered output counts as a failed operation, that a
witness which is no violation is caught without help from the seed
outputs, that tracing leaves every module binding as it found it, that
the printed metric names are those in BENCHMARK.json, and that the
benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer

SMALL_OP = "check --instance dlo6 --relation div --all"

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def tally_of(golden_lines: list[str], lines: list[str]) -> run.Tally:
    tally = run.Tally()
    tally.record({SMALL_OP: golden_lines}, {SMALL_OP: lines})
    return tally


def test_tampering() -> None:
    golden = run.load_golden("check-large")[SMALL_OP]
    lines = run.cli_pass([SMALL_OP], run.WORKERS)[SMALL_OP]
    check(tally_of(golden, lines).failed == 0, "untouched output passes")

    flipped = [line.replace(" pass", " fail", 1) if " EX " in line else line
               for line in lines]
    check(tally_of(golden, flipped).failed == 1, "a changed seed line fails")
    check(tally_of(golden, lines[1:]).failed == 1, "a dropped seed line fails")
    check(tally_of(golden, lines[::-1]).failed == 1, "reordered seed lines fail")

    extra = tally_of(golden, lines + ["RESULT div NEW pass", "RESULT new"])
    check(extra.failed == 0 and extra.extra_lines == 2,
          "lines the seed never produced are counted, not failed")

    bogus = "RESULT div SYM fail witness={};{};{}"
    check(tally_of([], [bogus]).failed == 1,
          "a fail witness that is no violation fails without the seed lines")
    check(tally_of([], ["RESULT div SYM fail"]).failed == 1,
          "a fail line without a witness fails")
    real = [line for line in lines if " fail witness=" in line]
    check(bool(real) and tally_of([], real).failed == 0,
          "the seed's fail witnesses are violations under the scalar route")


def bindings() -> dict[tuple[str, str], int]:
    return {(name, attr): id(value)
            for name, mod in sys.modules.items()
            if name == "pregeolab" or name.startswith("pregeolab.")
            for attr, value in vars(mod).items()}


def test_restore() -> None:
    from pregeolab import axioms, cli, instances, relcalc  # noqa: F401

    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        check(axioms.materialize is not before[("pregeolab.relcalc",
                                                  "materialize")] and
              axioms.materialize is relcalc.materialize,
              "imported names are wrapped with their defining module")
        check(id(instances.operator_from_table)
              != before[("pregeolab.instances", "operator_from_table")],
              "aliased imports are wrapped")
        outputs = run.cli_pass([SMALL_OP], run.WORKERS)
    finally:
        t.uninstall()
    check(bindings() == before, "every wrapped binding is restored")
    check(not isinstance(outputs[SMALL_OP], BaseException)
          and any(s[1] == "cli.main" for s in t.spans),
          "the traced call ran and left spans")


def printed_metrics(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload",
         "verify-catalog", "--seed", "1", "--seconds", "0", "--trace",
         str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=False)
    if proc.returncode != 0:
        return {}
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "end-to-end names and units match")
    check(layer == tracer.PER_LAYER, "per-layer names, units and better match")
    for trace, expected in ((0, e2e), (1, {k: u for k, (u, _b) in layer.items()})):
        result = printed_metrics(trace)
        got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        check(got == expected and result.get("correct") is True,
              f"--trace {trace} prints exactly the BENCHMARK.json metrics")


def test_refuses_without_sources() -> None:
    bare = run.TRACE_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check-large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ it exits non-zero and prints no result")


def main() -> int:
    run.setup()
    test_tampering()
    test_restore()
    test_metric_names()
    test_refuses_without_sources()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
