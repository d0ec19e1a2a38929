"""Record the sha256 of every output file of every workload, per seed.

Usage (from the root of a source checkout)::

    python3 perfbench/record_digests.py 0 31

runs each workload once, untraced, for every seed from the first to the last
number inclusive and writes ``perfbench/digests.json``.  ``run.py`` compares
a run's output digests with this table and prints ``outputs_identical``.
The committed table holds the digests of the commit that defined the
benchmark; re-record it only when a change to output bytes has been
explained.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(first: int, last: int) -> int:
    root = os.getcwd()
    table: dict = {}
    workdir = os.path.join(run.WORK, f"digests-{os.getpid()}")
    for name in workloads.NAMES:
        for seed in range(first, last + 1):
            w = workloads.make(name, seed)
            rep = run.run_rep(root, w, workdir, f"{name}-seed{seed}",
                              trace=False, timeout=170.0)
            check = run.check_rep(w, rep)
            shutil.rmtree(workdir, ignore_errors=True)
            if check["failed"] or check["wrong"]:
                print(f"{name} seed {seed}: "
                      f"{'; '.join(check['failed'] + check['wrong'])}",
                      file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = check["digests"]
            print(f"{name} seed {seed}: {len(check['digests'])} files")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
