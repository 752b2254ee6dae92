"""Record the seed outputs every benchmark run is checked against.

Run from the repository root, on the commit whose outputs are the
reference, and commit the result:

    python3 perfbench/record_golden.py

Each workload's operations run once, in list order, with one worker.
The benchmark itself runs with two workers and a seeded order, so its
checks also confirm that neither changes a byte.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.setup()
    golden = {}
    for name, workload in run.WORKLOADS.items():
        outputs = workload.run_pass(workload.ops(), 1)
        broken = [op for op, lines in outputs.items()
                  if isinstance(lines, BaseException)]
        if broken:
            print(f"error: {name}: {broken[0]}: {outputs[broken[0]]!r}",
                  file=sys.stderr)
            return 1
        golden[name] = outputs
        print(f"{name}: {len(outputs)} operations,"
              f" {sum(map(len, outputs.values()))} lines")
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
