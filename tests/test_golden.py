"""The recorded command output in tests/data/golden.txt must not change.

The file holds the `verify --suite all` report, then the output of each
command listed in tests/data/golden_commands.txt, in order (`check`
reports on the catalog up to n = 8, `modular` verdicts and `list`; the
list says what each one pins).  Each command's section starts with a
`$ pregeolab ...` line and holds what the command writes, stdout then
stderr; the verify section holds the report file instead.  The CI
workflow builds the same file from the same command list through the
installed console script.

Re-record only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden.txt
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from pregeolab.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.txt"
COMMANDS = DATA / "golden_commands.txt"


def commands() -> list[list[str]]:
    """The argument vectors of golden_commands.txt, in file order."""
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [line.split() for line in lines if line and not line.startswith("#")]


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
    parts += [_command(*argv) for argv in commands()]
    return "".join(parts)


def test_output_matches_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_text())
