import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

PEAK_RSS = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


def peak_rss(*args):
    return subprocess.run([sys.executable, str(PEAK_RSS), *args],
                          capture_output=True, text=True)


def test_peak_rss_prints_the_child_peak_and_passes_its_exit_code():
    ok = peak_rss("list")
    assert ok.returncode == 0 and ok.stderr == ""
    assert re.fullmatch(r"\d+\.\d MB  pregeolab list\n", ok.stdout)
    assert float(ok.stdout.split()[0]) > 1  # an interpreter with numpy
    bad = peak_rss("check", "--instance", "nope", "--relation", "a", "--all")
    assert bad.returncode == 2 and bad.stderr.startswith("error: --instance")
    assert bad.stdout.endswith(" MB  pregeolab check --instance nope "
                               "--relation a --all\n")


BENCH_PAIRS = PEAK_RSS.parent / "bench_pairs.py"

#: a stand-in for perfbench/run.py: its wall_s is the checkout's wall.txt
#: plus seed / 1000, and it logs each call to log.txt beside the checkout
FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = Path.cwd()
if (here / "broken").exists():
    sys.exit("no sources")
wall = float((here / "wall.txt").read_text()) + int(args["--seed"]) / 1000
with open(here.parent / "log.txt", "a") as log:
    print(here.name, args["--workload"], args["--seed"], args["--trace"],
          file=log)
print("check-large seed=... passes=3")
print(json.dumps({"correct": True, "attempted": 5,
                  "failed": int(here.name == "parent"),
                  "metrics": {"wall_s": {"value": wall, "unit": "s"},
                              "setup_s": {"value": 0.2, "unit": "s"},
                              "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}))
'''


def fake_checkout(root, name, wall):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / name / "wall.txt").write_text(str(wall))
    return root / name


def bench_pairs(*args, env=None):
    return subprocess.run([sys.executable, str(BENCH_PAIRS), *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_bench_pairs_alternates_sides_and_summarizes_pairs(tmp_path):
    parent = fake_checkout(tmp_path, "parent", 0.3)
    change = fake_checkout(tmp_path, "change", 0.2)
    out = tmp_path / "bench.json"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = bench_pairs("--parent", parent, "--change", change, "--workload",
                       "check-large", "--rounds", 4, "--seed", 7, "--seconds",
                       0.5, "--out", out, env=env)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "log.txt").read_text().splitlines() == [
        "parent check-large 7 0", "change check-large 7 0",
        "change check-large 8 0", "parent check-large 8 0",
        "parent check-large 9 0", "change check-large 9 0",
        "change check-large 10 0", "parent check-large 10 0"]
    report = json.loads(out.read_text())
    assert {side: facts["dir"] for side, facts in report["sides"].items()} \
        == {"parent": "parent", "change": "change"}
    runs = report["workloads"]["check-large"]["runs"]
    assert [run["seed"] for run in runs] == [7, 8, 9, 10]
    assert runs[1]["order"] == ["change", "parent"]
    assert runs[1]["parent"] == {"wall_s": 0.308, "setup_s": 0.2,
                                 "peak_rss_mb": 40.0, "attempted": 5,
                                 "failed": 1}
    summary = report["workloads"]["check-large"]["summary"]["change"]
    wall = summary["wall_s"]
    assert wall["better_pairs"] == wall["pairs"] == 4
    assert wall["parent"] == pytest.approx(
        {"median": 0.3085, "q1": 0.30775, "q3": 0.30925})
    assert wall["median_diff"] == pytest.approx(-0.1)
    assert summary["setup_s"]["better_pairs"] == 0
    assert summary["failed"] == {"parent": 4, "change": 0}
    facts = report["machine"]
    assert facts["PYTHONDONTWRITEBYTECODE"] == "1"
    assert facts["python"] == platform.python_version()
    assert facts["numpy"] and facts["cpus"] >= 1


def test_bench_pairs_rotates_named_changes_and_stops_on_a_failed_run(tmp_path):
    parent = fake_checkout(tmp_path, "parent", 0.3)
    first = fake_checkout(tmp_path, "first", 0.25)
    second = fake_checkout(tmp_path, "second", 0.35)
    out = tmp_path / "out.json"
    done = bench_pairs("--parent", parent, "--change", f"a={first}",
                       "--change", f"b={second}", "--workload", "w",
                       "--rounds", 3, "--out", out)
    assert done.returncode == 0, done.stderr
    runs = json.loads(out.read_text())["workloads"]["w"]["runs"]
    assert [run["order"] for run in runs] == [
        ["parent", "a", "b"], ["a", "b", "parent"], ["b", "parent", "a"]]
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summary["a"]["wall_s"]["better_pairs"] == 3
    assert summary["b"]["wall_s"]["better_pairs"] == 0
    (second / "broken").touch()
    failed = bench_pairs("--parent", parent, "--change", second,
                         "--workload", "w", "--rounds", 1, "--out",
                         tmp_path / "none.json")
    assert failed.returncode != 0 and "no sources" in failed.stderr
    assert not (tmp_path / "none.json").exists()
