"""Record the exact simulated values the output check compares against.

    python3 perfbench/record.py [--seeds 0-31,1009] [--workloads a,b]

Run from the repository root.  Runs one untraced repetition of each
workload per seed and writes every cell's integers (and the explore
frontier and ordering flag) to ``perfbench/expected.json``, merging
with what is there.  Only a change to the simulated model may re-record;
a change to host speed or structure must reproduce these values as they
are.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import List

from run import HERE, run_rep
from workloads import NAMES


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def write(path: str, expected) -> None:
    """One line per (workload, seed), so a re-record diffs by seed."""
    workloads = []
    for workload in sorted(expected):
        seeds = sorted(expected[workload], key=int)
        rows = ",\n".join(
            f"  {json.dumps(seed)}: "
            f"{json.dumps(expected[workload][seed], sort_keys=True)}"
            for seed in seeds)
        workloads.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    with open(path, "w") as handle:
        handle.write("{\n" + ",\n".join(workloads) + "\n}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31,1009")
    parser.add_argument("--workloads", default=",".join(NAMES))
    args = parser.parse_args()
    root = os.getcwd()
    path = os.path.join(HERE, "expected.json")
    with open(path) as handle:
        expected = json.load(handle)
    tmp_root = os.path.join(root, ".perfbench_tmp", "record")
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(tmp_root)
    try:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                rep = run_rep(root, tmp_root, seed, workload, seed, False)
                if rep["mismatches"]:
                    print(f"{workload} seed {seed}: {rep['mismatches']}",
                          file=sys.stderr)
                    return 1
                extra = {key: rep["extra"][key]
                         for key in ("frontier", "ordering_ok")
                         if key in rep["extra"]}
                expected.setdefault(workload, {})[str(seed)] = {
                    "cells": rep["cells"], "extra": extra}
                print(f"{workload} seed {seed}: {len(rep['cells'])} cells",
                      flush=True)
                write(path, expected)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
