#!/usr/bin/env python3
"""Record reference digests of the benchmark's data files.

Run from the repository root:

    python3 perfbench/record.py census-k12 polynomial-r13
    python3 perfbench/record.py reach-L128 bisect-L64 --seeds 0 1 2

Runs each workload's command once (once per seed for seeded workloads),
checks its outputs, and adds the digests of its data files to
``references.json``.  A reference that is already recorded and disagrees is
never overwritten: the script reports it and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[], help="seeds of the seeded workloads")
    args = parser.parse_args(argv)
    run.OUT_DIR.mkdir(exist_ok=True)
    references = run.load_references()
    status = 0
    for name in args.workloads:
        wl = run.WORKLOADS[name]
        keys = [str(s) for s in args.seeds] if wl.seeded else [run.UNSEEDED]
        for key in keys:
            argv_ = [*wl.argv, *(("--seed", key) if wl.seeded else ())]
            sample = run.run_command(argv_, wl.check)
            old = references.get(name, {}).get(key)
            if sample.problems or (old is not None and old != sample.digests):
                print(f"{name} seed {key}: not recorded: {sample.problems or 'differs from the recorded reference'}")
                status = 1
                continue
            references.setdefault(name, {})[key] = sample.digests
            print(f"{name} seed {key}: {sample.wall:.2f} s, recorded")
            with open(run.REFERENCES, "w") as fh:
                fh.write(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
