"""The recorded command output in tests/data/golden.txt must not change.

The file holds the `verify --suite all` report, `check --all` for five
relations on gebert4, u34 and u36, `check --all` for dlo6 `div` (a
failing TRA-R chain witness), gf2-7 `cl` (the verdicts at n = 7),
gf2-7 `aM` and `am` (the monotonisations at n = 7, each with a failing
FREE witness), gf2-7 `sup` (failing CLO-L and CLO-R witnesses past
A = {}, with failing AREF, SCLO and FREE), gebert8 `a` (every axiom at
n = 8, with a failing FREE witness) and gebert8 `int` (failing CLO-L,
CLO-R and SCLO witnesses at n = 8, read after the earlier scans of the
same table), SCLO alone for gebert8 `a` (a pass at n = 8) and gf2-7
`sup` (a failing witness at n = 7), `modular` on every catalog
pregeometry with at most six elements, and `list`, which pins the
catalog's names, kinds, sizes and descriptions.  Each command's section
starts with a `$ pregeolab ...` line and holds what the command writes,
stdout then stderr; the verify section holds the report file instead.
The CI workflow builds the same file through the installed console
script.

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
LARGE_CHECKS = (
    ("dlo6", "div"), ("gf2-7", "cl"), ("gf2-7", "aM"), ("gf2-7", "am"),
    ("gf2-7", "sup"), ("gebert8", "a"), ("gebert8", "int"),
)
SCLO_CHECKS = (("gebert8", "a"), ("gf2-7", "sup"))
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
    parts += [_command("check", "--instance", inst, "--relation", rel, "--all")
              for inst, rel in LARGE_CHECKS]
    parts += [_command("check", "--instance", inst, "--relation", rel,
                       "--axiom", "SCLO")
              for inst, rel in SCLO_CHECKS]
    parts += [_command("modular", "--instance", inst)
              for inst in MODULAR_INSTANCES]
    parts.append(_command("list"))
    return "".join(parts)


def test_output_matches_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_text())
