#!/usr/bin/env python3
"""loewner-cert benchmark: one closed-loop client per workload.

Run from the repository root:

    python3 bench/run.py --workload certify-small --seed 1 --seconds 12 --trace 0

The program is used from ``src/`` as it stands (no install).  BLAS threads
are pinned to 1 and LOEWNER_CERT_THREADS is removed from the environment.
One client sends the next instance only after the previous one returned; a
run sends whole passes over the workload's pool, as many as come nearest to
``--seconds`` of program time.  Timings are corrected for the speed of a
shared CPU (see quiet.py).  Every output is checked (see workloads.py); the
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
budget untraced, then the same instances again with every public function
of the package wrapped by tracer.py, and reports per-layer figures; the
spans and a per-layer summary are written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PACKAGE_MODULES = ("gaps", "certify", "hermitian", "maps", "constants", "jsonio",
                   "cli", "scalarfn")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
# the traced run replays at most this many instances, to bound its memory
TRACE_CAP = 2000
# the tail percentile per workload, chosen so that at least ten samples lie
# beyond it in a run at the seed commit; a shorter run falls back down the
# ladder and says so
TAIL_PERCENTILE = {"certify-small": 90.0, "certify-large": 75.0,
                   "crosscheck": 90.0, "classical": 99.0}
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# instances are timed in batches of at least this much program time; a
# batch during which the machine's speed changed is run again at most
# RERUNS times (see quiet.py)
BATCH_S = 0.02
RERUNS = 3
# wall-time limit of one measuring loop, well inside a run's 180 s
MAX_WALL_S = 120.0


def pin_threads() -> bool:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop("LOEWNER_CERT_THREADS", None) is not None


def import_package():
    """Import the package afresh from src/ (dropping any earlier import)."""
    for name in [n for n in sys.modules
                 if n == "loewner_cert" or n.startswith("loewner_cert.")]:
        del sys.modules[name]
    importlib.import_module("loewner_cert")
    importlib.import_module("loewner_cert.cli")
    return types.SimpleNamespace(**{m: sys.modules[f"loewner_cert.{m}"]
                                    for m in PACKAGE_MODULES})


def environment(cert_threads_was_set: bool) -> dict:
    import numpy as np

    commit = None
    if os.path.isdir(".git"):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    src = os.path.join("src", "loewner_cert")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "LOEWNER_CERT_THREADS": "unset",
        "LOEWNER_CERT_THREADS_was_set_by_caller": cert_threads_was_set,
    }


def percentile(sorted_vals, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile of an ascending list.

    A Beta-weighted mean of all order statistics: with a few dozen samples
    from a wide, many-moded distribution it moves far less between runs
    than a single order statistic does.
    """
    import numpy as np

    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    sub = max(1, 20000 // n)
    x = (np.arange(n * sub) + 0.5) / (n * sub)
    logpdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    w = np.exp(logpdf - logpdf.max()).reshape(n, sub).sum(axis=1)
    return float(np.dot(w / w.sum(), np.asarray(sorted_vals, dtype=float)))


def beyond(n: int, p: float) -> int:
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(sorted_vals, preferred: float):
    """(percentile, value, samples beyond) with at least ten samples beyond."""
    n = len(sorted_vals)
    for p in (preferred,) + tuple(q for q in PERCENTILE_LADDER if q < preferred):
        if beyond(n, p) >= 10:
            return p, percentile(sorted_vals, p), beyond(n, p)
    return 50.0, percentile(sorted_vals, 50.0), beyond(n, 50.0)


class Runner:
    """Closed loop with one client; see quiet.py for the speed correction."""

    def __init__(self, wl, workloads_mod, speed, tracer=None):
        self.wl = wl
        self.Outcome = workloads_mod.Outcome
        self.speed = speed
        self.tracer = tracer
        self.rerun_batches = 0
        self.factors = []
        # probes and batches run again: not part of any timed result
        self.excluded_ns = 0
        if tracer is not None:
            self.inst_id = tracer.name_id("bench.instance")
            self.check_id = tracer.name_id("bench.check")

    def one(self, k: int, pid: int, solver_seed: int):
        """Time one call, then check its output; returns (seconds, Outcome)."""
        tr = self.tracer
        if tr is not None:
            tr.instance = k
            tr.enter(self.inst_id)
        failure = None
        t0 = time.perf_counter()
        try:
            out = self.wl.call(pid, solver_seed)
        except Exception as exc:  # an instance that raises is a failed instance
            failure = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.exit()
            tr.enter(self.check_id)
        if failure is None:
            try:
                outcome = self.wl.check(pid, out)
            except Exception as exc:  # malformed output fails the instance
                outcome = self.Outcome(False, None, f"check raised {type(exc).__name__}: {exc}")
        else:
            outcome = self.Outcome(False, None, failure)
        if tr is not None:
            tr.exit()
        return dt, outcome

    def until(self, items, budget_s: float, cap: int, pass_len: int = 0):
        """Closed loop over ``items``; returns one record per kept instance.

        With ``pass_len``, the loop sends whole passes over the pool, as
        many as come nearest to ``budget_s`` of program time (at least one
        unless a pass takes over twice the budget), so that every run sends
        the same instances whatever the run seed.  Instances run in batches
        of at least BATCH_S, bracketed by speed probes (see quiet.py); a
        batch during which the speed changed is run again, at most RERUNS
        times.  Program time is counted at the corrected speed; the loop
        also stops after MAX_WALL_S of wall time.  A record is (pid, solver
        seed, corrected seconds, Outcome, raw seconds).
        """
        source = iter(items)
        done, spent = [], 0.0
        start = time.perf_counter()
        before = self._probe()
        while len(done) < cap:
            take = []
            for attempt in range(RERUNS + 1):
                mark = self.tracer.mark() if self.tracer is not None else None
                t0 = time.perf_counter_ns()
                batch, spent_batch = [], 0.0
                for i in range(len(take) if attempt else cap):
                    if attempt:
                        pid, solver_seed = take[i]
                    elif batch and (spent_batch >= BATCH_S or len(done) + len(batch) >= cap
                                    or (pass_len and (len(done) + len(batch)) % pass_len == 0)):
                        break
                    else:
                        pid, solver_seed = next(source, (None, None))
                        if pid is None:
                            break
                        take.append((pid, solver_seed))
                    dt, outcome = self.one(len(done) + i, pid, solver_seed)
                    spent_batch += dt
                    batch.append((pid, solver_seed, dt, outcome))
                run_ns = time.perf_counter_ns() - t0
                after = self._probe()
                if self.speed.steady(before, after) or attempt == RERUNS:
                    break
                self.rerun_batches += 1
                self.excluded_ns += run_ns
                if mark is not None:
                    self.tracer.rewind(mark)
                before = after
            if not batch:
                break
            factor = self.speed.factor(before, after)
            self.factors.append(factor)
            done.extend((pid, seed, dt / factor, outcome, dt)
                        for pid, seed, dt, outcome in batch)
            spent += spent_batch / factor
            before = after
            if time.perf_counter() - start > MAX_WALL_S:
                break
            if not pass_len:
                if spent >= budget_s:
                    break
                continue
            per_pass = spent * pass_len / len(done)
            if len(done) % pass_len == 0:
                if spent + 0.5 * per_pass >= budget_s:
                    break
            elif spent >= budget_s and per_pass > 2.0 * budget_s:
                break  # a budget far below one pass (a quick look) ends mid-pass
        return done

    def _probe(self) -> float:
        g0 = time.perf_counter_ns()
        seconds = self.speed.probe()
        self.excluded_ns += time.perf_counter_ns() - g0
        return seconds


def setup(name, seed, workloads_mod, references, workdir, speed):
    """Import, generate the pool and warm up; repeated, the median is setup_s.

    Each repetition is bracketed by speed probes like a batch of instances
    (see quiet.py) and done again when the speed changed during it.
    """
    times = []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        for attempt in range(RERUNS + 1):
            t0 = time.perf_counter()
            mods = import_package()
            wl = workloads_mod.WORKLOADS[name](mods, seed, references, workdir)
            wl.generate()
            wl.warmup()
            dt = time.perf_counter() - t0
            after = speed.probe()
            steady = speed.steady(before, after)
            if steady or attempt == RERUNS:
                break
            before = after
        times.append(dt / speed.factor(before, after))
        before = after
    return mods, wl, times


def quality(done) -> dict:
    """Failed instances (any check), and whether every output was valid."""
    failed = [d for d in done if not d[3].ok]
    shorts = [d[3].shortfall for d in done if d[3].shortfall is not None]
    return {
        "attempted": len(done),
        "failed": len(failed),
        "invalid": sum(not d[3].valid for d in done),
        "fail_frac": len(failed) / len(done),
        "shortfall_max": max(shorts) if shorts else None,
        "checked_against_reference": len(shorts),
        "failures": [{"instance": d[0], "solver_seed": d[1],
                      "reason": d[3].reason or f"short of reference by {d[3].shortfall:.3e}"}
                     for d in failed[:20]],
    }


def end_to_end(name, done, setup_times) -> tuple[dict, dict]:
    lat = sorted(d[2] * 1e3 for d in done)
    p, tail_ms, n_beyond = tail(lat, TAIL_PERCENTILE[name])
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "instances_per_s": {"value": len(done) / (sum(lat) / 1e3), "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(lat, 50.0), "unit": "ms"},
        "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    notes = {"tail_percentile": p, "tail_samples_beyond": n_beyond, "samples": len(lat),
             "setup_s_samples": setup_times}
    return metrics, notes


def per_layer(workloads_mod, tracer, first, traced, wall_ns, factor) -> tuple[dict, dict]:
    """Per-layer figures of the traced pass; times are divided by ``factor``."""
    table = tracer.by_name()
    n = len(traced)

    def row(name):
        return table.get(name, [0, 0, 0, []])

    def layer(prefix):
        rows = [r for k, r in table.items() if k.startswith(prefix)]
        return sum(r[0] for r in rows), sum(r[2] for r in rows)

    ms = row("gaps.solve_multistart")
    bf = row("gaps.solve_bruteforce")
    build = row("gaps.build_gap_problem")
    eigh, eigvalsh = row("linalg.eigh"), row("linalg.eigvalsh")
    solves = [(args[0], res) for name, args, res in tracer.kept
              if name == "gaps.solve_multistart"]
    sweeps = [res.iterations for name, _, res in tracer.kept
              if name == "gaps.solve_bruteforce"]
    dumped = sum(len(res) for name, _, res in tracer.kept
                 if name == "jsonio.dumps_canonical")
    stationary = mismatch = 0
    for problem, res in solves:
        still = workloads_mod.tangent_gradient_norm(problem, res.maximizer) \
            <= workloads_mod.STATIONARY_TOL
        stationary += still
        mismatch += bool(res.converged) and not still
    herm_calls, herm_self = layer("hermitian.")
    maps_calls, maps_self = layer("maps.")
    q = quality(traced)

    def per(x_ns):
        return x_ns / 1e6 / n / factor

    m = {
        "gaps.solve_multistart.calls": (ms[0] / n, "1/inst"),
        "gaps.solve_multistart.self_ms": (per(ms[2]), "ms/inst"),
        "gaps.solve_multistart.ms_p50":
            (statistics.median(ms[3]) / 1e6 / factor if ms[3] else 0.0, "ms"),
        "gaps.solve_multistart.iterations":
            (statistics.fmean(r.iterations for _, r in solves) if solves else 0.0, "iter/call"),
        "gaps.solve_multistart.stationary_frac":
            (stationary / len(solves) if solves else 0.0, "ratio"),
        "gaps.solve_multistart.flag_mismatch": (mismatch, "count"),
        "gaps.solve_bruteforce.calls": (bf[0] / n, "1/inst"),
        "gaps.solve_bruteforce.self_ms": (per(bf[2]), "ms/inst"),
        "gaps.solve_bruteforce.sweeps": (statistics.fmean(sweeps) if sweeps else 0.0, "sweeps/call"),
        "gaps.build_gap_problem.calls": (build[0] / n, "1/inst"),
        "gaps.build_gap_problem.self_ms": (per(build[2]), "ms/inst"),
        "linalg.eigh_calls": (eigh[0] / n, "1/inst"),
        "linalg.eigvalsh_calls": (eigvalsh[0] / n, "1/inst"),
        "linalg.eig_ms": (per(eigh[1] + eigvalsh[1]), "ms/inst"),
        "linalg.eigh_per_instance": ((eigh[0] + eigvalsh[0]) / n, "1/inst"),
        "certify.self_ms": (per(layer("certify.")[1]), "ms/inst"),
        "hermitian.calls": (herm_calls / n, "1/inst"),
        "hermitian.self_ms": (per(herm_self), "ms/inst"),
        "maps.calls": (maps_calls / n, "1/inst"),
        "maps.self_ms": (per(maps_self), "ms/inst"),
        "constants.self_ms": (per(layer("constants.")[1]), "ms/inst"),
        "jsonio.load_ms": (per(row("jsonio.load_json_file")[1]), "ms/inst"),
        "jsonio.sha256_ms": (per(row("jsonio.sha256_file")[1]), "ms/inst"),
        "jsonio.dumps_ms": (per(row("jsonio.dumps_canonical")[1]), "ms/inst"),
        "jsonio.bytes_out": (dumped / n, "B/inst"),
        "cli.self_ms": (per(row("cli.main")[2]), "ms/inst"),
        "trace.overhead_frac":
            (sum(d[2] for d in traced) / sum(d[2] for d in first) - 1.0, "ratio"),
        "trace.instances": (n, "count"),
        "trace.untraced_ms": (per(wall_ns - sum(r[2] for r in table.values())), "ms/inst"),
        "check.fail_frac": (q["fail_frac"], "ratio"),
        "check.shortfall_max": (q["shortfall_max"] if q["shortfall_max"] is not None else 0.0,
                                "abs"),
    }
    summary = {
        "speed_factor": factor,
        "wall_ms": wall_ns / 1e6,
        "untraced_ms": (wall_ns - sum(r[2] for r in table.values())) / 1e6,
        "instances": n,
        "spans": {k: {"calls": r[0], "total_ms": r[1] / 1e6, "self_ms": r[2] / 1e6}
                  for k, r in sorted(table.items(), key=lambda kv: -kv[1][2])},
    }
    summary["self_plus_untraced_ms"] = (sum(v["self_ms"] for v in summary["spans"].values())
                                        + summary["untraced_ms"])
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    was_set = pin_threads()
    if not os.path.isfile(os.path.join("src", "loewner_cert", "__init__.py")):
        print("error: run from the repository root; src/loewner_cert not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    import workloads
    from quiet import NOMINAL_PROBE_S, SpeedProbe
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    references = None
    if args.workload in workloads.GAP_POOLS:
        path = os.path.join(BENCH_DIR, "references", f"{args.workload}.json")
        with open(path, encoding="utf-8") as fh:
            references = json.load(fh)["instances"]
    out_dir = os.path.join(BENCH_DIR, "out")
    workdir = os.path.relpath(os.path.join(out_dir, "inputs"))
    os.makedirs(out_dir, exist_ok=True)

    env = environment(was_set)
    speed = SpeedProbe()
    mods, wl, setup_times = setup(args.workload, args.seed, workloads, references, workdir,
                                  speed)
    runner = Runner(wl, workloads, speed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, 1 client)")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        done = runner.until(wl.schedule(), args.seconds, sys.maxsize, len(wl.pool))
        metrics, notes = end_to_end(args.workload, done, setup_times)
        q = quality(done)
        for key, m in metrics.items():
            extra = ""
            if key == "latency_tail_ms":
                extra = (f"  (p{notes['tail_percentile']:g}; {notes['tail_samples_beyond']} "
                         f"of {notes['samples']} samples beyond)")
            elif key == "setup_s":
                extra = f"  (median of {SETUP_REPEATS})"
            print(f"{key:<16} {m['value']:.6g} {m['unit']}{extra}")
        short = q["shortfall_max"]
        print(f"{'fail_frac':<16} {q['fail_frac']:.6g}  ({q['failed']} of {q['attempted']}; "
              f"{q['invalid']} with an invalid output)")
        print(f"{'shortfall_max':<16} "
              f"{'n/a' if short is None else format(short, '.3e')}  "
              f"({q['checked_against_reference']} instances with a reference)")
        detail = {"env": env, "args": vars(args), "metrics": metrics, "notes": notes,
                  "quality": q}
    else:
        first = runner.until(wl.schedule(), args.seconds / 2.0, TRACE_CAP, len(wl.pool))
        tracer = Tracer()
        traced_runner = Runner(wl, workloads, speed, tracer)
        tracer.install(mods)
        origin = time.perf_counter_ns()
        try:
            traced = traced_runner.until([(d[0], d[1]) for d in first], math.inf, len(first))
        finally:
            wall_ns = time.perf_counter_ns() - origin - traced_runner.excluded_ns
            tracer.uninstall()
        done = first + traced
        metrics, summary = per_layer(workloads, tracer, first, traced, wall_ns,
                                     statistics.median(traced_runner.factors))
        spans_path = os.path.join(out_dir, f"spans-{stem}.jsonl")
        tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed,
                                        "env": env}, origin)
        summary_path = os.path.join(out_dir, f"summary-{stem}.json")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        print(f"{'layer':<40} {'calls':>9} {'self_ms':>11}")
        for key, s in summary["spans"].items():
            print(f"{key:<40} {s['calls']:>9} {s['self_ms']:>11.3f}")
        print(f"{'untraced':<40} {'':>9} {summary['untraced_ms']:>11.3f}")
        print(f"{'wall (self + untraced)':<40} {'':>9} {summary['wall_ms']:>11.3f}")
        for key, m in metrics.items():
            print(f"{key:<40} {m['value']:.6g} {m['unit']}")
        print(f"spans written to {os.path.relpath(spans_path)}")
        q = quality(done)
        detail = {"env": env, "args": vars(args), "metrics": metrics, "quality": q,
                  "summary": os.path.relpath(summary_path)}

    runners = [runner] + ([traced_runner] if args.trace else [])
    factors = [f for r in runners for f in r.factors]
    detail["speed"] = {"batches": len(factors),
                       "batches_run_again": sum(r.rerun_batches for r in runners),
                       "factor_median": statistics.median(factors),
                       "factor_min": min(factors), "factor_max": max(factors),
                       "nominal_probe_s": NOMINAL_PROBE_S,
                       "raw_latency_p50_ms": percentile(sorted(d[4] * 1e3 for d in done), 50.0)}
    print(f"speed: median factor {detail['speed']['factor_median']:.3f} over "
          f"{len(factors)} batches ({detail['speed']['batches_run_again']} run again); "
          f"raw latency p50 {detail['speed']['raw_latency_p50_ms']:.6g} ms")
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for f in q["failures"][:5]:
        print(f"failed instance {f['instance']} (solver seed {f['solver_seed']}): {f['reason']}")
    print(json.dumps({"correct": q["invalid"] == 0, "attempted": q["attempted"],
                      "failed": q["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
