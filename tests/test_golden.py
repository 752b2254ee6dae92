"""The recorded command output in tests/data/golden.txt must not change.

The file holds the `verify --suite all` report, `check --all` for five
relations on gebert4, u34 and u36, and `modular` on every catalog
pregeometry with at most six elements.  Each command's section starts
with a `$ pregeolab ...` line and holds what the command writes, stdout
then stderr; the verify section holds the report file instead.  The CI
workflow builds the same file through the installed console script.

Re-record only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden.txt
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from pregeolab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden.txt"

CHECK_INSTANCES = ("gebert4", "u34", "u36")
CHECK_RELATIONS = ("a", "aM", "ac", "amc", "cl")
MODULAR_INSTANCES = (
    "trivial3", "trivial4", "trivial5", "u23", "u34", "u36", "gf2-3", "gf3-4",
)


def _command(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main(list(argv))
    return f"$ pregeolab {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}"


def golden_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.txt"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["verify", "--suite", "all", "--report", str(report)])
        parts = ["$ pregeolab verify --suite all --report REPORT\n"
                 + report.read_text(encoding="utf-8")]
    parts += [_command("check", "--instance", inst, "--relation", rel, "--all")
              for inst in CHECK_INSTANCES for rel in CHECK_RELATIONS]
    parts += [_command("modular", "--instance", inst)
              for inst in MODULAR_INSTANCES]
    return "".join(parts)


def test_output_matches_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_text())
