"""Search seeded problem families for bounds solve leaves open and values it loses.

Families, each at ``--per-k`` seeds s = 0, 1, ... per size k:

  complex        bound_check.triple(k, s): complex Hermitian triples, k = 3-16
  real           real symmetric triples, k = 3-16
  repeated       triples whose forms each repeat one eigenvalue k // 2 times,
                 each in its own random basis, k = 3-16
  near-1e-1 ...  output_digests.near_commuting(k, s, noise) at noise 1e-1,
                 1e-2 and 1e-3, k = 3-12
  gamma ...      gamma, delta, eta, theta and vartheta drawn by fuzz._draw on
                 the CONVEX_POS functions and windows, with a conjugation, a
                 pinching or a diagonal family in turn (gamma takes none),
                 n = 3-12

Each problem is solved at solver seed s.  Per family the script prints the
problems, the closed forms among them, and for the rest: the bounds left
open (gap > 1e-8 (1 + |value|)), the histogram of repair rounds (0, 1, 2,
...), ``lost`` (solve's value below the 64-restart value at seed s, less
1e-12 (1 + |v|)) and ``below`` (upper missing, or below the 64-restart value
or solve's own).  Exits 1 on any ``lost`` or ``below``; an open bound alone
is no failure.

    PYTHONPATH=src python3 scripts/solve_search.py --per-k 200
"""

import argparse
import sys
from collections import Counter
from functools import partial

import numpy as np
from bound_check import triple
from output_digests import near_commuting

from loewner_cert import GapProblem, build_gap_problem, solve, solve_multistart
from loewner_cert.fuzz import CONVEX_POS, _draw
from loewner_cert.hermitian import hermitize, random_unitary

TRIPLE_DIMS = range(3, 17)
NEAR_DIMS = range(3, 13)
FUZZ_DIMS = range(3, 13)
NOISES = (1e-1, 1e-2, 1e-3)
FUZZ_KINDS = ("gamma", "delta", "eta", "theta", "vartheta")


def real_triple(k: int, seed: int) -> GapProblem:
    rng = np.random.default_rng([2032, 1, k, seed])
    return GapProblem("gamma", *(A + A.T for A in rng.standard_normal((3, k, k))))


def repeated_triple(k: int, seed: int) -> GapProblem:
    rng = np.random.default_rng([2032, 2, k, seed])
    forms = []
    for _ in range(3):
        w = rng.uniform(-2.0, 2.0, k)
        w[:k // 2] = w[0]
        U = random_unitary(k, rng)
        forms.append(hermitize((U * w) @ U.conj().T))
    return GapProblem("gamma", *forms)


def fuzz_problem(kind: str, n: int, seed: int) -> GapProblem:
    rng = np.random.default_rng([2032, 3, FUZZ_KINDS.index(kind), n, seed])
    tag, f, lo, hi = CONVEX_POS[seed % len(CONVEX_POS)]
    # _draw's variants 1, 2 and 3: conjugation, pinching, diagonal
    return build_gap_problem(kind, f, *_draw(rng, kind, 1 + seed % 3, n, lo, hi))


def _sweep(dims, per_k: int, make):
    return ((k, s, make(k, s)) for k in dims for s in range(per_k))


def families(per_k: int) -> dict:
    """Family name -> generator of (k, seed, problem)."""
    out = {"complex": _sweep(TRIPLE_DIMS, per_k, triple),
           "real": _sweep(TRIPLE_DIMS, per_k, real_triple),
           "repeated": _sweep(TRIPLE_DIMS, per_k, repeated_triple)}
    for noise in NOISES:
        out[f"near-{noise:.0e}"] = _sweep(NEAR_DIMS, per_k, partial(near_commuting, noise=noise))
    for kind in FUZZ_KINDS:
        out[kind] = _sweep(FUZZ_DIMS, per_k, partial(fuzz_problem, kind))
    return out


def outcome(prob: GapProblem, seed: int) -> dict | None:
    """solve's result at ``seed`` against 64 restarts, or None for a closed form."""
    res = solve(prob, seed=seed)
    if res.solver != "multistart":
        return None
    v = solve_multistart(prob, restarts=64, seed=seed).value
    return {"open": res.gap is None or res.gap > 1e-8 * (1.0 + abs(res.value)),
            "repairs": res.repairs,
            "lost": res.value < v - 1e-12 * (1.0 + abs(v)),
            "below": res.upper is None or res.upper < max(v, res.value)}


def check(problems) -> dict:
    row = {"problems": 0, "closed_form": 0, "open": 0, "lost": 0, "below": 0}
    rounds = Counter()
    for _, seed, prob in problems:
        row["problems"] += 1
        out = outcome(prob, seed)
        if out is None:
            row["closed_form"] += 1
            continue
        rounds[out["repairs"]] += 1
        for key in ("open", "lost", "below"):
            row[key] += out[key]
    row["repairs"] = [rounds[r] for r in range(max(rounds, default=-1) + 1)]
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--per-k", type=int, default=200, help="seeds per family and size")
    args = ap.parse_args()
    total, rounds = Counter(), Counter()
    for name, problems in families(args.per_k).items():
        row = check(problems)
        print(f"{name:10}", row, flush=True)
        total.update({key: row[key] for key in ("problems", "closed_form", "open", "lost",
                                                "below")})
        rounds.update(dict(enumerate(row["repairs"])))
    print("total", {**total, "repairs": [rounds[r] for r in range(len(rounds))]})
    return 1 if total["lost"] or total["below"] else 0


if __name__ == "__main__":
    sys.exit(main())
