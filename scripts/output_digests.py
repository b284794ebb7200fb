"""Print one sha256 for each report a same-bits change must leave unchanged.

  fuzz           stdout of ``fuzz --suite all --seed 42 --json``
  certify-small  every certificate of the certify-small pool, as canonical JSON
  certify-large  stdout of every ``--json`` command of the certify-large pool
  crosscheck     stdout of every ``--json`` command of the crosscheck pool
  bound-check    solve's value, upper, gap, maximizer, iterations, restarts
                 and repairs on bound_check.py's triple(k, seed) for each k
                 in its DIMS and seeds 0-29 (150 solves, 48 of which repair)
  near-commuting the same, on near_commuting(k, s) for k = 3-6 at solver
                 seed s = 0-29 (120 solves, 27 of which repair)

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

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from bound_check import DIMS, triple  # noqa: E402

from loewner_cert import certify, cli, gaps, maps, scalarfn  # noqa: E402
from loewner_cert.hermitian import hermitize, random_unitary  # noqa: E402
from loewner_cert.jsonio import dumps_canonical  # noqa: E402

INPUT_DIR = "/tmp/loewner-cert-output-digests"
SOLVER_SEEDS = (0, 1)
BOUND_CHECK_SEEDS = range(30)
NEAR_COMMUTING_DIMS = range(3, 7)
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


def near_commuting(k: int, seed: int, noise: float = 1e-2) -> gaps.GapProblem:
    """Three matrices with one random eigenbasis, each moved off it by ``noise``.

    On these the first start often stops short and the bound stays open, so
    solve runs its repair rounds.
    """
    rng = np.random.default_rng([27, k, seed])
    U = random_unitary(k, rng)
    mats = [hermitize((U * rng.uniform(-2, 2, k)) @ U.conj().T) for _ in range(3)]
    return gaps.GapProblem("gamma", *(M + noise * hermitize(rng.standard_normal((k, k)))
                                      for M in mats))


def _solve_outputs(problems):
    """solve's results on (problem, seed) pairs: the value, upper, gap and the counts, then x."""
    for prob, seed in problems:
        res = gaps.solve(prob, seed=seed)
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
    families = {
        "bound-check": ((triple(k, s), s) for k in DIMS for s in BOUND_CHECK_SEEDS),
        "near-commuting": ((near_commuting(k, s), s) for k in NEAR_COMMUTING_DIMS
                           for s in BOUND_CHECK_SEEDS),
    }
    for name, problems in families.items():
        h = hashlib.sha256()
        for chunk in _solve_outputs(problems):
            h.update(chunk)
        out[name] = h.hexdigest()
    return out


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"{name:14} {digest}")
