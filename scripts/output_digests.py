"""Print one sha256 for each report a same-bits change must leave unchanged.

  fuzz           stdout of ``fuzz --suite all --seed 42 --json``
  certify-small  every certificate of the certify-small pool, as canonical JSON
  certify-large  stdout of every ``--json`` command of the certify-large pool
  crosscheck     stdout of every ``--json`` command of the crosscheck pool
  bound-check    solve's value, upper, gap, maximizer, iterations, restarts
                 and repairs on bound_check.py's triple(k, seed) for each k
                 in its DIMS and seeds 0-29 (150 solves, 48 of which repair)

Each pool (from bench/workloads.py, read and not changed) runs at solver
seeds 0 and 1, in process.  The CLI reports embed the paths of their input
files, so the inputs are written under one fixed directory, INPUT_DIR, not
under TMPDIR: two trees give the same digests only when both write there.
BLAS runs on one thread (bench/run.py's ``pin_threads``), since the
certify-large digest moves with the thread count.  The digests of the
current tree are kept in scripts/output_digests.txt, and CI diffs this
script's output against it:

    PYTHONPATH=src python3 scripts/output_digests.py | diff scripts/output_digests.txt -

A change that means to move bits updates that file and says why.
"""

import contextlib
import hashlib
import io
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from run import pin_threads  # noqa: E402

pin_threads()  # before numpy is first imported

import workloads  # noqa: E402
from bound_check import DIMS, triple  # noqa: E402

from loewner_cert import certify, cli, gaps, maps, scalarfn  # noqa: E402
from loewner_cert.jsonio import dumps_canonical  # noqa: E402

INPUT_DIR = "/tmp/loewner-cert-output-digests"
SOLVER_SEEDS = (0, 1)
BOUND_CHECK_SEEDS = range(30)
MODS = types.SimpleNamespace(certify=certify, cli=cli, gaps=gaps, maps=maps,
                             scalarfn=scalarfn)


def _pool_outputs(name: str):
    workload = workloads.WORKLOADS[name](MODS, 0, None, INPUT_DIR)
    pool = workloads.GAP_POOLS[name]()
    workload.prepared = {inst.id: workload.prepare(inst) for inst in pool}
    for seed in SOLVER_SEEDS:
        for inst in pool:
            out = workload.call(inst.id, seed)
            # a certificate, or the CLI's (exit code, stdout, stderr)
            yield dumps_canonical(out.to_dict()) + "\n" if name == "certify-small" else out[1]


def _bound_check_outputs():
    """solve's results on the bound_check triples, the path that runs repairs."""
    for k in DIMS:
        for seed in BOUND_CHECK_SEEDS:
            res = gaps.solve(triple(k, seed), seed=seed)
            hexes = [None if v is None else float(v).hex() for v in (res.value, res.upper, res.gap)]
            yield repr((*hexes, res.iterations, res.restarts, res.repairs)).encode()
            yield res.maximizer.tobytes()


def digests() -> dict:
    fuzz = io.StringIO()
    with contextlib.redirect_stdout(fuzz):
        cli.main(["fuzz", "--suite", "all", "--seed", "42", "--json"])
    out = {"fuzz": hashlib.sha256(fuzz.getvalue().encode()).hexdigest()}
    for name in workloads.GAP_POOLS:
        h = hashlib.sha256()
        for text in _pool_outputs(name):
            h.update(text.encode())
        out[name] = h.hexdigest()
    h = hashlib.sha256()
    for chunk in _bound_check_outputs():
        h.update(chunk)
    out["bound-check"] = h.hexdigest()
    return out


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"{name:14} {digest}")
