"""Check solve's certified bound on seeded random triples against 64 restarts.

For each dimension k, draws random complex Hermitian triples (C, S, D),
runs ``solve`` (one start, then up to three repair rounds, each from the
bound's worst node, while they raise the value and the bound stays open),
``solve_multistart`` with 64 restarts at the same seed, and the
sampling oracle (``solve_bruteforce`` at its cap of 20,000 samples, drawn
256 at a time) stopped at solve's bound, and counts:

  closed   gap <= 1e-8 (1 + |value|)
  repaired a repair round ran
  lost     solve's value below the 64-restart value - 1e-12 (1 + |v|)
  below    upper below the 64-restart value or below solve's own value
  oracle   the oracle's stops: at the bound, stalled, at the sweep cap
  above    the oracle's value above upper

and the median and largest number of eigenvalue problems and of Newton
iterations (every ascent it ran, summed) per solve, and of the oracle's
blocks (its draws) per call.  Exits
1 if any bound stays open, any value is lost or any bound falls below a
feasible value: the 64-restart value, solve's own or the oracle's.

    PYTHONPATH=src python3 scripts/bound_check.py --per-k 130
"""

import argparse
import sys

import numpy as np

from loewner_cert import GapProblem, solve, solve_bruteforce, solve_multistart
from loewner_cert.hermitian import hermitize

DIMS = (3, 5, 8, 16, 32)


def triple(k: int, seed: int) -> GapProblem:
    rng = np.random.default_rng([2026, k, seed])
    return GapProblem("gamma", *(hermitize(rng.standard_normal((k, k))
                                           + 1j * rng.standard_normal((k, k)))
                                 for _ in range(3)))


def check(k: int, count: int) -> dict:
    row = {"k": k, "triples": count, "closed": 0, "repaired": 0, "lost": 0,
           "below": 0, "oracle": {"bound": 0, "stalled": 0, "cap": 0},
           "oracle_blocks_median": 0.0, "oracle_blocks_max": 0, "above": 0}
    solves, iterations, blocks = [], [], []
    for seed in range(count):
        prob = triple(k, seed)
        res = solve(prob, seed=seed)
        v = solve_multistart(prob, restarts=64, seed=seed).value
        row["closed"] += res.gap is not None and res.gap <= 1e-8 * (1.0 + abs(res.value))
        row["repaired"] += res.repairs > 0
        row["lost"] += res.value < v - 1e-12 * (1.0 + abs(v))
        row["below"] += res.upper is None or res.upper < max(v, res.value)
        oracle = solve_bruteforce(prob, seed=seed, upper=res.upper)
        row["oracle"][oracle.stop] += 1
        row["above"] += res.upper is not None and oracle.value > res.upper
        solves.append(res.eigensolves)
        iterations.append(res.iterations)
        blocks.append(oracle.blocks)
    row["eigensolves_median"] = float(np.median(solves))
    row["eigensolves_max"] = max(solves)
    row["iterations_median"] = float(np.median(iterations))
    row["iterations_max"] = max(iterations)
    row["oracle_blocks_median"] = float(np.median(blocks))
    row["oracle_blocks_max"] = max(blocks)
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--per-k", type=int, default=130, help="triples per dimension")
    args = ap.parse_args()
    rows = [check(k, args.per_k) for k in DIMS]
    for row in rows:
        print(row)
    total = {key: sum(r[key] for r in rows)
             for key in ("triples", "closed", "repaired", "lost", "below", "above")}
    print("total", total)
    failed = (total["closed"] < total["triples"] or total["lost"] or total["below"]
              or total["above"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
