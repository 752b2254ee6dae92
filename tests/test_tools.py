import re
import subprocess
import sys
from pathlib import Path

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
