#!/usr/bin/env python3
"""Compute the stored reference maxima of the sphere-solving workloads.

Run from the repository root (takes several minutes per workload):

    python3 bench/make_references.py [--workload certify-small ...]

For every pool instance the reference is the larger of two high-effort
solves of the same GapProblem the program builds: multistart ascent with
many restarts and a high iteration cap, and the sampling oracle with many
samples.  A run then checks one-sided that each reported maximum is not
below its reference by more than workloads.SHORTFALL_TOL.  The instance
fingerprint lets a run detect a pool that no longer matches the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESTARTS = {"small": 512, "large": 256}
MAX_ITER = 5000
SAMPLES = {"small": 200_000, "large": 20_000}
MS_SEED, BF_SEED = 20200407, 3312


def reference(mods, workloads, inst) -> dict:
    problem = workloads.gap_problem(mods, inst)
    size = "small" if inst.n <= 8 else "large"
    ms = mods.gaps.solve_multistart(problem, restarts=RESTARTS[size], max_iter=MAX_ITER,
                                    seed=MS_SEED)
    bf = mods.gaps.solve_bruteforce(problem, samples=SAMPLES[size], seed=BF_SEED)
    return {
        "id": inst.id,
        "kind": inst.kind,
        "f": inst.spec,
        "n": inst.n,
        "fingerprint": inst.fingerprint(),
        "ref": max(ms.value, bf.value),
        "multistart": ms.value,
        "oracle": bf.value,
    }


def main(argv=None) -> int:
    from run import import_package, pin_threads

    pin_threads()
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", default=list(workloads.GAP_POOLS))
    args = ap.parse_args(argv)
    mods = import_package()
    for name in args.workload:
        t0 = time.perf_counter()
        rows = [reference(mods, workloads, inst) for inst in workloads.GAP_POOLS[name]()]
        doc = {
            "workload": name,
            "method": {"restarts": RESTARTS, "max_iter": MAX_ITER, "samples": SAMPLES,
                       "multistart_seed": MS_SEED, "oracle_seed": BF_SEED},
            "instances": rows,
        }
        path = os.path.join(BENCH_DIR, "references", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=0)
        print(f"{name}: {len(rows)} references in {time.perf_counter() - t0:.0f} s -> "
              f"{os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
