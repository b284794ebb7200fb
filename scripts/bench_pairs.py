#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, parent commit against this tree.

    python3 scripts/bench_pairs.py --parent REV --workload certify-small \\
        --pairs 10 --seed 301 --seconds 12 --claim certify-small:instances_per_s \\
        --out BENCH_N.json

The parent is exported with ``git archive REV`` into a temporary
directory, so nothing is written under .git; the change is the working
tree that holds this script.  Pair i of each workload runs at seed
SEED + i, the parent first when i is even, one run at a time, each
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` in
its own tree (a run writes its records under that tree's bench/out/).
The last line of each run's output, its JSON result, is kept.  For every
workload and every end-to-end metric of BENCHMARK.json the summary gives
both medians and quartiles, the parent's interquartile range, the pairs
each side wins in the metric's better direction (a tie goes to neither),
and the worsening of the change's median next to the metric's bound.  A
``--claim`` is met when the change wins at least nine pairs in ten and
its median is better than the parent's by more than the parent's
interquartile range.  The script exits 1 if any run exits non-zero, is
not correct or reports a failed instance.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def src_sha256(tree: str) -> str:
    """sha256 of ``find src -type f -name '*.py' | sort | xargs sha256sum`` in ``tree``."""
    paths = sorted(os.path.relpath(os.path.join(d, name), tree)
                   for d, _, names in os.walk(os.path.join(tree, "src"))
                   for name in names if name.endswith(".py"))
    lines = []
    for path in paths:
        with open(os.path.join(tree, path), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def export(rev: str, dest: str) -> str:
    """Unpack ``git archive rev`` into dest; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in ``tree``: its JSON result, flattened, with ``ok``."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    row = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           **{name: m["value"] for name, m in result["metrics"].items()}}
    row["ok"] = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return row


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list, metrics: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json: medians, quartiles, pair wins, worsening.

    ``runs`` holds one dict per run with ``pair``, ``side`` ("parent" or
    "change") and a value per metric name; ``metrics`` is BENCHMARK.json's
    ``end_to_end`` list, from which each metric takes ``better`` and
    ``bound``.  ``gain`` is the change of the median in the good direction,
    and ``worsening`` minus that relative to the parent's median.
    """
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        by_pair = {}
        for run in runs:
            if name in run:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run[name]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        values = {side: sorted(p[side] for p in pairs) for side in SIDES}
        parent, change = (statistics.median(values[side]) for side in SIDES)
        quartiles = {side: _quartiles(values[side]) for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for p in pairs:
            if p["change"] != p["parent"]:
                wins["change" if (p["change"] < p["parent"]) == lower else "parent"] += 1
        gain = (parent - change) if lower else (change - parent)
        out[name] = {"better": metric["better"], "pairs": len(pairs),
                     "parent_median": parent, "parent_quartiles": quartiles["parent"],
                     "parent_iqr": quartiles["parent"][1] - quartiles["parent"][0],
                     "change_median": change, "change_quartiles": quartiles["change"],
                     "wins": wins, "gain": gain, "worsening": -gain / abs(parent),
                     "bound": metric["bound"]}
    return out


def claim(summary: dict) -> dict:
    """Whether one metric's summary meets a claim: nine wins in ten, and a median gain
    beyond the parent's interquartile range."""
    return {"pairs_change_better": f"{summary['wins']['change']} of {summary['pairs']}",
            "parent_median": summary["parent_median"],
            "change_median": summary["change_median"],
            "parent_iqr": summary["parent_iqr"], "relative_gain": -summary["worsening"],
            "met": (summary["wins"]["change"] >= math.ceil(0.9 * summary["pairs"])
                    and summary["gain"] > summary["parent_iqr"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    bad = 0
    record = {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent_tree:
        commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "--no-optional-locks", "status", "--porcelain",
                                     "--", "src"], cwd=ROOT, capture_output=True,
                                    text=True).stdout.strip())
        record["parent"] = {"commit": commit, "src_sha256": src_sha256(parent_tree)}
        record["change"] = {"tree": "the working tree", "head": head,
                            "src_differs_from_head": dirty, "src_sha256": src_sha256(ROOT)}
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    row = {"pair": i, "seed": seed, "side": side,
                           **run_once(trees[side], workload, seed, args.seconds)}
                    runs.append(row)
                    bad += not row["ok"]
                    print(json.dumps(row), flush=True)
            record["workloads"][workload] = {"pairs": args.pairs, "runs": runs,
                                             "metrics": summarize(runs, metrics)}
    record["claims"] = {}
    for spec in args.claim:
        workload, metric = spec.split(":")
        record["claims"][spec] = claim(record["workloads"][workload]["metrics"][metric])
    record["command"] = (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                         "--trace 0")
    record["method"] = (f"Pair i of each workload ran at seed {args.seed} + i, one run at a "
                        "time, the parent first when i is even; the parent from a git archive "
                        "of its commit, the change from the working tree. Quartiles are "
                        "statistics.quantiles(n=4, method='inclusive'). Every run made is "
                        "listed.")
    record["environment"] = {"nproc": os.cpu_count(), "machine": platform.machine(),
                             "python": platform.python_version(), "numpy": np.__version__}
    record["failed_runs"] = bad
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:<14} {name:<16} parent {m['parent_median']:.6g}  change "
                  f"{m['change_median']:.6g}  worsening {m['worsening']:+.3f} (bound "
                  f"{m['bound']:g})  change wins {m['wins']['change']} of {m['pairs']}")
    for spec, c in record["claims"].items():
        print(f"claim {spec}: {'met' if c['met'] else 'NOT met'} ({c['pairs_change_better']}, "
              f"gain {c['relative_gain']:+.3f})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
