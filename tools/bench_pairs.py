"""Run the benchmark on a parent checkout and one or more changed
checkouts, alternately, and write the runs and their summary as JSON.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload check-large --rounds 10 --seconds 20 --out bench.json

Each checkout is a directory holding `perfbench/run.py`.  Round i runs
`python perfbench/run.py --workload W --seed S+i --seconds T --trace 0`
once in each checkout, in its own directory and a fresh process, starting
with a different side each round (the parent first in round 0), and reads
the JSON object on the last line of standard output.  A change is named
NAME=DIR (`--change tentpole=../t`), or just DIR, named "change".

For every workload, change and end-to-end metric the file holds the
per-pair values, the median [q1, q3] of each side (inclusive quartiles),
how many pairs the change was better in, as BENCHMARK.json's `better`
says (lower when it does not say), and the failed operation counts.  It
also records the machine facts a reader needs to compare files: Python
and numpy versions, CPU count, platform and PYTHONDONTWRITEBYTECODE.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PARENT = "parent"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`: its metric values by name,
    with the attempted and failed operation counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {**values, "attempted": result["attempted"],
            "failed": result["failed"]}


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], name: str, better: dict[str, str]) -> dict:
    """The summary of change `name` against the parent over `runs`."""
    out: dict = {}
    for metric, direction in better.items():
        pairs = [(run[PARENT][metric], run[name][metric]) for run in runs]
        parent = spread([p for p, _ in pairs])
        change = spread([c for _, c in pairs])
        wins = sum(c < p if direction == "lower" else c > p for p, c in pairs)
        out[metric] = {
            "parent": parent, "change": change,
            "better_pairs": wins, "pairs": len(pairs),
            "median_diff": change["median"] - parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    out["failed"] = {side: sum(run[side]["failed"] for run in runs)
                     for side in (PARENT, name)}
    return out


def metric_directions(checkout: Path) -> dict[str, str]:
    """End-to-end metric -> "lower" or "higher", from the checkout's
    BENCHMARK.json, or the three metrics of perfbench/run.py without one."""
    spec = checkout / "BENCHMARK.json"
    if spec.is_file():
        return {m["name"]: m.get("better", "lower")
                for m in json.loads(spec.read_text())["end_to_end"]}
    return dict.fromkeys(("wall_s", "setup_s", "peak_rss_mb"), "lower")


def commit(checkout: Path):
    """The checkout's git commit, None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=False)
    except OSError:  # no git
        return None
    return proc.stdout.strip() or None


def machine() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=False).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy or None,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def parse_change(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    return (name, Path(path)) if sep else ("change", Path(text))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", action="append", required=True,
                        type=parse_change, help="DIR or NAME=DIR; repeatable")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    changes = dict(args.change)
    if PARENT in changes or len(changes) < len(args.change):
        parser.error("each --change needs a name of its own, not 'parent'")
    sides = {PARENT: args.parent, **changes}
    names = list(sides)
    better = metric_directions(next(iter(changes.values())))

    workloads = {}
    for workload in args.workload:
        runs = []
        for i in range(args.rounds):
            seed = args.seed + i
            order = names[i % len(names):] + names[:i % len(names)]
            run = {"seed": seed, "order": order}
            for side in order:
                run[side] = run_once(sides[side], workload, seed, args.seconds)
                print(f"{workload} seed={seed} {side}: "
                      + " ".join(f"{m}={run[side][m]:.4g}" for m in better),
                      file=sys.stderr)
            runs.append(run)
        workloads[workload] = {
            "runs": runs,
            "summary": {name: summarize(runs, name, better)
                        for name in changes},
        }
    report = {
        "sides": {side: {"dir": path.resolve().name, "commit": commit(path)}
                  for side, path in sides.items()},
        "method": {"rounds": args.rounds,
                   "seeds": [args.seed, args.seed + args.rounds - 1],
                   "seconds": args.seconds, "trace": 0, "better": better},
        "machine": machine(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
