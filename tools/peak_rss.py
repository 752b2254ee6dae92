"""Run one pregeolab command in a fresh process and print its peak RSS.

    python tools/peak_rss.py check --instance gebert8 --relation a --all

runs `pregeolab.cli.main` on the arguments in a child Python process,
with ROOT/src first on its import path (ROOT is the repository this
script lives in), drops the command's standard output, and prints one
line: the child's `ru_maxrss` in MB, then the command.  Interpreter
start and imports are included, as in a real command.  The exit status
is the command's.  Standard library only; `resource` needs a Unix.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

_MAIN = "import sys; from pregeolab.cli import main; sys.exit(main(sys.argv[1:]))"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    code = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env,
                          stdout=subprocess.DEVNULL).returncode
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KB on Linux
    print(f"{kb / 1024:.1f} MB  pregeolab {' '.join(argv)}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
