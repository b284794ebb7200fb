"""Randomized stress suites over the certified inequalities.

Each suite draws seeded random instances, checks the relevant
inequality or certificate, and returns a plain dict of counters that
serializes deterministically.  Reruns with the same seed and trial
counts produce identical output.
"""

from __future__ import annotations

import numpy as np

from .certify import (
    CLASSICAL_STATEMENTS,
    certify_order,
    verify_classical,
    verify_sandwich_pointwise,
)
from .gaps import (
    KINDS,
    NO_FAMILY_KINDS,
    ONE_OPERAND_KINDS,
    _check_count,
    _check_seed,
    _upper_bound,
    build_gap_problem,
    solve,
    solve_bruteforce,
    solve_multistart,
)
from .hermitian import random_dominated_pair, random_hermitian
from .maps import Diag, MapFamily, Pinch, identity_family, random_unital_family
from .scalarfn import (
    ScalarFunction,
    affine,
    exponential,
    neglog,
    parse_interval,
    power,
)

_POS_HALF = parse_interval("[0,inf)")

__all__ = [
    "SUITE_NAMES",
    "suite_gradient",
    "suite_sandwich",
    "suite_chebyshev",
    "suite_eta",
    "suite_gamma",
    "suite_classical",
    "suite_agreement",
    "run_fuzz",
]

# (tag, function, sample window) with the window strictly inside the domain;
# every other catalog is drawn from this list, in its order
GRADIENT_FUNCTIONS: tuple[tuple[str, ScalarFunction, float, float], ...] = (
    ("square", power(2), -1.2, 1.2),
    ("square_pos", power(2, _POS_HALF), 0.05, 2.2),
    ("cube", power(3), 0.05, 2.0),
    ("pow_3_2", power(1.5), 0.1, 2.2),
    ("inverse", power(-1), 0.25, 2.5),
    ("inv_sqrt", power(-0.5), 0.25, 2.5),
    ("exp", exponential(), -1.4, 1.4),
    ("neglog", neglog(), 0.2, 2.8),
    ("affine_up", affine(1.3, -0.4), -2.0, 2.0),
    ("affine_down", affine(-0.8, 0.6), -2.0, 2.0),
)

# positive windows for the entries whose gradient window reaches below zero
_POS_WINDOWS = {"exp": (0.3, 1.7), "affine_up": (0.3, 2.1), "affine_down": (0.3, 2.1)}
_POSITIVE = tuple((tag, f, *_POS_WINDOWS.get(tag, (lo, hi)))
                  for tag, f, lo, hi in GRADIENT_FUNCTIONS
                  if lo > 0 or tag in _POS_WINDOWS)

# convex functions on positive windows, safe for dominated-pair draws
CONVEX_POS = tuple(e for e in _POSITIVE if e[1].family != "affine")
INCREASING_POS = tuple(e for e in _POSITIVE if e[1].monotonicity == "increasing")
DECREASING_POS = tuple(e for e in _POSITIVE if e[1].monotonicity == "decreasing")

# sandwich instances may use any admitted family, including non-monotone
SANDWICH_FUNCTIONS = CONVEX_POS + tuple(
    e for e in GRADIENT_FUNCTIONS if e[0] in ("square", "affine_up", "affine_down"))

# Fixed tolerances and effort of the suites; certificates use
# certify.DEFAULT_TOL (1e-8), and solve its own fixed effort.
GRADIENT_TOL = 1e-12  # relative to 1 + |f(s)| + |f(t)| + |f'(s) (t - s)|
SANDWICH_VECTORS = 8  # unit vectors per sandwich instance
POSITIVITY_FLOOR = -1e-10  # least chebyshev, eta and ordered gamma value admitted
AGREE_RTOL = 1e-5  # |multistart - oracle| <= AGREE_RTOL * (1 + |oracle|)
AGREE_ONE_SIDED_TOL = 1e-7  # multistart may fall below the oracle by this much
AGREE_RESTARTS = 32
AGREE_SAMPLES = 4000
AGREE_MAX_DIM = 3


def _rng(seed, suite: str, i: int) -> np.random.Generator:
    # the suite's registry position keeps child seed streams disjoint
    return np.random.default_rng([int(seed), SUITE_NAMES.index(suite) + 1, int(i)])


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _unit_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return v / np.linalg.norm(v)


def _draw_family(rng: np.random.Generator, variant: int, n: int) -> MapFamily:
    variant %= 4
    if variant == 0:
        return identity_family(n)
    if variant == 1:
        count = int(rng.integers(1, 4))
        return random_unital_family(count, n, n, _subseed(rng))
    if variant == 2:
        perm = [int(v) for v in rng.permutation(n)]
        nb = int(rng.integers(1, n + 1))
        if nb == 1:
            blocks = (tuple(perm),)
        else:
            cuts = sorted(int(c) for c in
                          rng.choice(np.arange(1, n), size=nb - 1, replace=False))
            edges = [0] + cuts + [n]
            blocks = tuple(tuple(perm[a:b]) for a, b in zip(edges, edges[1:]))
        return MapFamily((Pinch(n, blocks),))
    return MapFamily((Diag(n),))


def _draw(rng: np.random.Generator, kind: str, i: int, n: int, lo: float, hi: float):
    """(a_ops, b_ops, family) of one ``kind`` instance; keep the order of the draws."""
    two = kind not in ONE_OPERAND_KINDS
    if kind in NO_FAMILY_KINDS:
        A = random_hermitian(n, lo, hi, rng)
        B = random_hermitian(n, lo, hi, rng) if two else None
        return A, B, None
    fam = _draw_family(rng, i, n)
    a_ops = [random_hermitian(d, lo, hi, rng) for d in fam.input_dims]
    b_ops = [random_hermitian(d, lo, hi, rng) for d in fam.input_dims] if two else None
    return a_ops, b_ops, fam


def suite_gradient(trials: int, seed=42) -> dict:
    """Scalar chord check: f(s) + f'(s)(t - s) <= f(t) on random draws."""
    failures = 0
    worst = np.inf
    for i, (tag, f, lo, hi) in enumerate(GRADIENT_FUNCTIONS):
        rng = _rng(seed, "gradient", i)
        s = rng.uniform(lo, hi, size=trials)
        t = rng.uniform(lo, hi, size=trials)
        fs, ft = f.value_array(s), f.value_array(t)
        lin = f.deriv_array(s) * (t - s)
        margin = ft - fs - lin
        tol = GRADIENT_TOL * (1.0 + np.abs(fs) + np.abs(ft) + np.abs(lin))
        failures += int(np.count_nonzero(margin < -tol))
        worst = min(worst, float(margin.min()))
    return {
        "suite": "gradient",
        "functions": len(GRADIENT_FUNCTIONS),
        "trials": int(trials),
        "failures": int(failures),
        "worst": worst,
    }


def suite_sandwich(trials: int, seed=42) -> dict:
    """Pointwise two-sided bound on random mapped families."""
    failures = 0
    worst = np.inf
    for i in range(trials):
        rng = _rng(seed, "sandwich", i)
        tag, f, lo, hi = SANDWICH_FUNCTIONS[i % len(SANDWICH_FUNCTIONS)]
        n = int(rng.integers(2, 7))
        a_list, b_list, fam = _draw(rng, "delta", i, n, lo, hi)
        k = fam.output_dim
        for _ in range(SANDWICH_VECTORS):
            x = _unit_vector(rng, k)
            res = verify_sandwich_pointwise(f, a_list, b_list, fam, x)
            gap = min(res.middle - res.lower, res.upper - res.middle)
            worst = min(worst, float(gap))
            if not res.ok:
                failures += 1
    return {
        "suite": "sandwich",
        "trials": int(trials),
        "vectors": SANDWICH_VECTORS,
        "failures": int(failures),
        "worst": worst,
    }


def _positivity_suite(kind: str, trials: int, seed) -> dict:
    failures = 0
    worst = np.inf
    for i in range(trials):
        rng = _rng(seed, kind, i)
        tag, f, lo, hi = CONVEX_POS[i % len(CONVEX_POS)]
        n = int(rng.integers(2, 6))
        problem = build_gap_problem(kind, f, *_draw(rng, kind, i, n, lo, hi))
        res = solve(problem, seed=_subseed(rng))
        worst = min(worst, float(res.value))
        if res.value < POSITIVITY_FLOOR:
            failures += 1
    return {
        "suite": kind,
        "trials": int(trials),
        "failures": int(failures),
        "worst": worst,
    }


def suite_chebyshev(trials: int, seed=42) -> dict:
    """The single-operator correlation gap is nonnegative for convex f."""
    return _positivity_suite("chebyshev", trials, seed)


def suite_eta(trials: int, seed=42) -> dict:
    """The mapped one-operand gap is nonnegative for convex f."""
    return _positivity_suite("eta", trials, seed)


def suite_gamma(trials: int, seed=42) -> dict:
    """Certify the two-operator bound on random pairs.

    Also solves max(10, trials // 2) ordered instances (one operand
    dominating the other, with matching monotonicity) where the computed
    constant can never be negative.
    """
    ordered = max(10, trials // 2)
    failures = 0
    worst_slack = np.inf
    for i in range(trials):
        rng = _rng(seed, "gamma", i)
        tag, f, lo, hi = CONVEX_POS[i % len(CONVEX_POS)]
        n = int(rng.integers(2, 5))
        A, B, _ = _draw(rng, "gamma", i, n, lo, hi)
        cert = certify_order(A, B, f, seed=_subseed(rng))
        worst_slack = min(worst_slack, cert.slack)
        if not cert.passed:
            failures += 1
    ordered_failures = 0
    worst_ordered = np.inf
    catalogs = (INCREASING_POS, DECREASING_POS)
    for i in range(ordered):
        rng = _rng(seed, "gamma", trials + i)
        catalog = catalogs[i % 2]
        tag, f, lo, hi = catalog[(i // 2) % len(catalog)]
        n = int(rng.integers(2, 5))
        big, small = random_dominated_pair(n, lo, hi, _subseed(rng))
        if catalog is INCREASING_POS:
            A, B = small, big  # A <= B, f increasing: constant stays >= 0
        else:
            A, B = big, small  # B <= A, f decreasing: same sign structure
        cert = certify_order(A, B, f, seed=_subseed(rng))
        gamma = cert.constants["gamma"]
        worst_ordered = min(worst_ordered, float(gamma))
        if gamma < POSITIVITY_FLOOR or not cert.passed:
            ordered_failures += 1
    return {
        "suite": "gamma",
        "trials": int(trials),
        "ordered": int(ordered),
        "failures": int(failures + ordered_failures),
        "certificate_failures": int(failures),
        "ordered_failures": int(ordered_failures),
        "worst_slack": float(worst_slack),
        "worst_ordered": float(worst_ordered),
    }


def suite_classical(trials: int, seed=42) -> dict:
    """Certified classical statements on random admissible pairs."""
    failures = 0
    worst = np.inf
    per_statement = {}
    # a statement's position in CLASSICAL_STATEMENTS fixes its seed stream
    for j, statement in enumerate(CLASSICAL_STATEMENTS):
        fails = 0
        for i in range(trials):
            cert = _classical_case(statement, i, _rng(seed, "classical", j * trials + i))
            worst = min(worst, cert.slack)
            if not cert.passed:
                fails += 1
        per_statement[statement] = int(fails)
        failures += fails
    return {
        "suite": "classical",
        "trials": int(trials),
        "failures": int(failures),
        "per_statement": per_statement,
        "worst": float(worst),
    }


def _classical_case(statement: str, i: int, rng: np.random.Generator):
    n = 2 + i % 3
    if statement in ("furuta", "lowner_heinz"):
        m = 0.2 + 0.6 * float(rng.uniform())
        M = m + 0.6 + 1.5 * float(rng.uniform())
        big, small = random_dominated_pair(n, m, M, _subseed(rng))
        if statement == "furuta":
            return verify_classical(statement, big, small, p=(1.5, 2.0, 3.0)[i % 3], m=m, M=M)
        return verify_classical(statement, small, big, p=(0.3, 0.5, 0.9)[i % 3])
    catalog = INCREASING_POS if statement == "alpha_beta_increasing" else DECREASING_POS
    tag, f, lo, hi = catalog[i % len(catalog)]
    A, B = random_dominated_pair(n, lo, hi, _subseed(rng))
    return verify_classical(statement, A, B, f=f, alpha=(0.7, 1.0, 1.6)[i % 3], m=lo, M=hi)


def suite_agreement(trials: int, seed=42) -> dict:
    """Multistart ascent versus the dense sampling solver on small instances.

    A trial fails unless the two agree, the ascent is not below the oracle,
    and the certified bound built around the better point (``_upper_bound``)
    is at least both values.
    """
    failures = 0
    worst = 0.0
    per_kind = {}
    for kind_idx, kind in enumerate(KINDS):
        fails = 0
        for i in range(trials):
            rng = _rng(seed, "agreement", kind_idx * trials + i)
            tag, f, lo, hi = CONVEX_POS[i % len(CONVEX_POS)]
            n = int(rng.integers(2, AGREE_MAX_DIM + 1))
            problem = build_gap_problem(kind, f, *_draw(rng, kind, i, n, lo, hi))
            res_m = solve_multistart(problem, restarts=AGREE_RESTARTS, seed=_subseed(rng))
            res_b = solve_bruteforce(problem, samples=AGREE_SAMPLES, seed=_subseed(rng))
            diff = abs(res_m.value - res_b.value)
            worst = max(worst, float(diff))
            close = diff <= AGREE_RTOL * (1.0 + abs(res_b.value))
            not_below = res_m.value >= res_b.value - AGREE_ONE_SIDED_TOL
            best = max(res_m, res_b, key=lambda r: r.value)
            upper = _upper_bound(problem, best.value, best.maximizer)[0]
            bounded = upper is not None and upper >= max(res_m.value, res_b.value)
            if not (close and not_below and bounded):
                fails += 1
        per_kind[kind] = int(fails)
        failures += fails
    return {
        "suite": "agreement",
        "trials": int(trials),
        "failures": int(failures),
        "per_kind": per_kind,
        "worst": float(worst),
    }


# name -> (suite, default trials); the order is the run order of "all"
# and fixes each suite's seed tag
_SUITES = {
    "gradient": (suite_gradient, 2000),
    "sandwich": (suite_sandwich, 60),
    "chebyshev": (suite_chebyshev, 150),
    "eta": (suite_eta, 60),
    "gamma": (suite_gamma, 40),
    "classical": (suite_classical, 30),
    "agreement": (suite_agreement, 8),
}
SUITE_NAMES = tuple(_SUITES)


def run_fuzz(suite: str = "all", trials: int | None = None, seed=42) -> dict:
    """Run one named suite, or every suite, and aggregate pass status."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if trials is not None:
        _check_count("trials", trials, f"need at least one trial, got {trials}")
    _check_seed(seed, generators=False)  # the report records it
    suites = {}
    for name in names:
        func, default_trials = _SUITES[name]
        suites[name] = func(default_trials if trials is None else int(trials), seed)
    passed = all(r["failures"] == 0 for r in suites.values())
    return {"seed": int(seed), "passed": bool(passed), "suites": suites}
