"""Record the rank-1 each workload gives per seed, for run.py's output check.

Usage (from the root of a checkout of the code the table should pin):
    python3 perfbench/reference.py --workloads viper_sgm,fused_wide --seeds 0-23

Runs one untimed pass of the CLI path per (workload, seed) with the same
arguments as run.py and merges the eval CSV's rank-1 text into
perfbench/rank1_reference.json.  A change that is meant to move rank-1
regenerates the table and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    found: dict[str, dict[str, str]] = {}
    for name in args.workloads.split(","):
        for seed in range(first, last + 1):
            work = run.ROOT / ".perfbench_work" / f"ref-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                pipe = run.Pipeline(name, seed, work)
                pipe.reference = None
                pipe.setup(repeats=1)
                result = {s: pipe.run(s, first=True) for s in run.STAGES}
            finally:
                shutil.rmtree(work)
            found.setdefault(name, {})[str(seed)] = result["eval"]["rank1"]
            print(name, seed, result["eval"]["rank1"], flush=True)
    table = json.loads(run.REFERENCE.read_text())
    for name, seeds in found.items():
        table[name].update(seeds)
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    run.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
