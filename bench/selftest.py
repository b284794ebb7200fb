#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. A tiny run of every workload, untraced and traced, prints a result line
   with exactly the metrics BENCHMARK.json lists, each with its unit; the
   traced run's layer summary adds up to its wall time, and the layers the
   workloads were chosen for carry the most self time.
2. A reference shifted above the true maximum marks its instance failed,
   through the library path and through the CLI path.
3. In a directory that holds only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TIMEOUT = 300


def run_bench(cwd, workload, trace, seconds="0.5"):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT, check=False)


def check_tiny_runs(spec) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name in want:
                assert any(line.startswith(name) for line in lines[:-1]), (w["name"], name)
            if trace:
                check_summary(w["name"], result["metrics"])
            print(f"ok  tiny run {w['name']} trace {trace}")


def check_summary(workload, metrics) -> None:
    path = os.path.join(BENCH_DIR, "out", f"summary-{workload}-seed0-trace1.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["untraced_ms"] >= 0.0, summary["untraced_ms"]
    assert abs(summary["self_plus_untraced_ms"] - summary["wall_ms"]) <= 1e-6 * summary["wall_ms"]
    layers = {k: v["self_ms"] for k, v in summary["spans"].items()
              if not k.startswith("bench.")}
    top = max(layers, key=layers.get)
    if workload == "certify-small":
        assert top == "gaps.solve_multistart", top
    if workload == "crosscheck":
        # at CLI defaults the oracle takes about 40% of the self time here,
        # second to multistart; no other workload calls it
        ranked = sorted(layers, key=layers.get, reverse=True)
        assert "gaps.solve_bruteforce" in ranked[:2], ranked[:3]
    elif "gaps.solve_bruteforce" in layers:
        raise AssertionError(f"{workload} calls the oracle")
    if workload == "classical":
        assert metrics["gaps.solve_multistart.calls"]["value"] == 0.0
        assert metrics["gaps.solve_bruteforce.calls"]["value"] == 0.0


def check_shifted_reference() -> None:
    sys.path.insert(0, BENCH_DIR)
    from run import import_package, pin_threads

    pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    mods = import_package()
    workdir = os.path.relpath(os.path.join(BENCH_DIR, "out", "inputs"), ROOT)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for name in ("certify-small", "crosscheck"):
            with open(os.path.join(BENCH_DIR, "references", f"{name}.json"),
                      encoding="utf-8") as fh:
                refs = json.load(fh)["instances"]
            pid = 0
            true_ref = refs[pid]["ref"]
            for shift, expect_ok in ((0.0, True), (1e-3, False)):
                refs[pid] = dict(refs[pid], ref=true_ref + shift)
                wl = workloads.WORKLOADS[name](mods, 0, refs, workdir)
                wl.generate()
                outcome = wl.check(pid, wl.call(pid, 0))
                assert outcome.ok is expect_ok and outcome.valid, (name, shift, outcome)
                if not expect_ok:
                    assert abs(outcome.shortfall - shift) < 1e-6, outcome
            print(f"ok  shifted reference fails its instance ({name})")
    finally:
        os.chdir(cwd)


def check_bare_directory() -> None:
    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, "certify-small", 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok  bare directory exits non-zero without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_bare_directory()
    check_shifted_reference()
    check_tiny_runs(spec)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
