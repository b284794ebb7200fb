"""Check solve's certified bound on seeded random triples against 64 restarts.

For each dimension k, draws random complex Hermitian triples (C, S, D),
runs ``solve`` (8 starts, then the rest of the 64-start cap only while the
bound stays open) and ``solve_multistart`` with 64 restarts at the same
seed, and counts:

  closed   gap <= 1e-8 (1 + |value|)
  second   the second batch ran
  lost     solve's value below the 64-restart value - 1e-12 (1 + |v|)
  below    upper below the 64-restart value or below solve's own value

and the median and largest number of eigenvalue problems per bound.  Exits
1 if any value is lost or any bound falls below a feasible value.

    PYTHONPATH=src python3 scripts/bound_check.py --per-k 130
"""

import argparse
import sys

import numpy as np

from loewner_cert import GapProblem, solve, solve_multistart
from loewner_cert.hermitian import hermitize

DIMS = (3, 5, 8, 16)


def triple(k: int, seed: int) -> GapProblem:
    rng = np.random.default_rng([2026, k, seed])
    return GapProblem("gamma", *(hermitize(rng.standard_normal((k, k))
                                           + 1j * rng.standard_normal((k, k)))
                                 for _ in range(3)))


def check(k: int, count: int) -> dict:
    row = {"k": k, "triples": count, "closed": 0, "second": 0, "lost": 0, "below": 0}
    solves = []
    for seed in range(count):
        prob = triple(k, seed)
        res = solve(prob, seed=seed)
        v = solve_multistart(prob, restarts=64, seed=seed).value
        row["closed"] += res.gap is not None and res.gap <= 1e-8 * (1.0 + abs(res.value))
        row["second"] += res.restarts > 8
        row["lost"] += res.value < v - 1e-12 * (1.0 + abs(v))
        row["below"] += res.upper is None or res.upper < max(v, res.value)
        solves.append(res.eigensolves)
    row["eigensolves_median"] = float(np.median(solves))
    row["eigensolves_max"] = max(solves)
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--per-k", type=int, default=130, help="triples per dimension")
    args = ap.parse_args()
    rows = [check(k, args.per_k) for k in DIMS]
    for row in rows:
        print(row)
    total = {key: sum(r[key] for r in rows)
             for key in ("triples", "closed", "second", "lost", "below")}
    print("total", total)
    return 1 if total["lost"] or total["below"] else 0


if __name__ == "__main__":
    sys.exit(main())
