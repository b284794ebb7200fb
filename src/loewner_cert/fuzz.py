"""Randomized stress suites over the certified inequalities.

Each suite draws seeded random instances, checks the relevant
inequality or certificate, and returns a plain dict of counters that
serializes deterministically.  Reruns with the same seed and trial
counts produce identical output.
"""

from __future__ import annotations

import numpy as np

from .certify import certify_order, verify_classical, verify_sandwich_pointwise
from .gaps import KINDS, build_gap_problem, solve_bruteforce, solve_multistart
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

# (tag, function, sample window) with the window strictly inside the domain
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

# convex functions on positive windows, safe for dominated-pair draws
CONVEX_POS: tuple[tuple[str, ScalarFunction, float, float], ...] = (
    ("square_pos", power(2, _POS_HALF), 0.05, 2.2),
    ("cube", power(3), 0.05, 2.0),
    ("pow_3_2", power(1.5), 0.1, 2.2),
    ("inverse", power(-1), 0.25, 2.5),
    ("inv_sqrt", power(-0.5), 0.25, 2.5),
    ("exp", exponential(), 0.3, 1.7),
    ("neglog", neglog(), 0.2, 2.8),
)

INCREASING_POS: tuple[tuple[str, ScalarFunction, float, float], ...] = (
    ("square_pos", power(2, _POS_HALF), 0.05, 2.2),
    ("cube", power(3), 0.05, 2.0),
    ("pow_3_2", power(1.5), 0.1, 2.2),
    ("exp", exponential(), 0.3, 1.7),
    ("affine_up", affine(1.3, -0.4), 0.3, 2.1),
)

DECREASING_POS: tuple[tuple[str, ScalarFunction, float, float], ...] = (
    ("inverse", power(-1), 0.25, 2.5),
    ("inv_sqrt", power(-0.5), 0.25, 2.5),
    ("neglog", neglog(), 0.2, 2.8),
    ("affine_down", affine(-0.8, 0.6), 0.3, 2.1),
)

# sandwich instances may use any admitted family, including non-monotone
SANDWICH_FUNCTIONS: tuple[tuple[str, ScalarFunction, float, float], ...] = (
    CONVEX_POS
    + (
        ("square", power(2), -1.2, 1.2),
        ("affine_up", affine(1.3, -0.4), -2.0, 2.0),
        ("affine_down", affine(-0.8, 0.6), -2.0, 2.0),
    )
)

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


def suite_gradient(trials: int, seed=42, tol_scale: float = 1e-12) -> dict:
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
        tol = tol_scale * (1.0 + np.abs(fs) + np.abs(ft) + np.abs(lin))
        failures += int(np.count_nonzero(margin < -tol))
        worst = min(worst, float(margin.min()))
    return {
        "suite": "gradient",
        "functions": len(GRADIENT_FUNCTIONS),
        "trials_per_function": int(trials),
        "failures": int(failures),
        "worst": worst,
    }


def suite_sandwich(trials: int, seed=42, tol: float = 1e-8,
                   vectors: int = 8) -> dict:
    """Pointwise two-sided bound on random mapped families."""
    failures = 0
    worst = np.inf
    for i in range(trials):
        rng = _rng(seed, "sandwich", i)
        tag, f, lo, hi = SANDWICH_FUNCTIONS[i % len(SANDWICH_FUNCTIONS)]
        n = int(rng.integers(2, 7))
        fam = _draw_family(rng, i, n)
        a_list = [random_hermitian(d, lo, hi, rng) for d in fam.input_dims]
        b_list = [random_hermitian(d, lo, hi, rng) for d in fam.input_dims]
        k = fam.output_dim
        for _ in range(vectors):
            x = _unit_vector(rng, k)
            res = verify_sandwich_pointwise(f, a_list, b_list, fam, x, tol=tol)
            gap = min(res.middle - res.lower, res.upper - res.middle)
            worst = min(worst, float(gap))
            if not res.ok:
                failures += 1
    return {
        "suite": "sandwich",
        "trials": int(trials),
        "vectors": int(vectors),
        "failures": int(failures),
        "worst": worst,
    }


def _positivity_suite(name: str, kind: str, trials: int, seed,
                      floor: float, with_family: bool) -> dict:
    failures = 0
    worst = np.inf
    for i in range(trials):
        rng = _rng(seed, name, i)
        tag, f, lo, hi = CONVEX_POS[i % len(CONVEX_POS)]
        n = int(rng.integers(2, 6))
        if with_family:
            fam = _draw_family(rng, i, n)
            ops = [random_hermitian(d, lo, hi, rng) for d in fam.input_dims]
            problem = build_gap_problem(kind, f, ops, family=fam)
        else:
            problem = build_gap_problem(kind, f, random_hermitian(n, lo, hi, rng))
        res = solve_multistart(problem, restarts=8, max_iter=300,
                               seed=_subseed(rng))
        worst = min(worst, float(res.value))
        if res.value < floor:
            failures += 1
    return {
        "suite": name,
        "trials": int(trials),
        "failures": int(failures),
        "worst": worst,
    }


def suite_chebyshev(trials: int, seed=42, floor: float = -1e-10) -> dict:
    """The single-operator correlation gap is nonnegative for convex f."""
    return _positivity_suite("chebyshev", "chebyshev", trials, seed, floor, False)


def suite_eta(trials: int, seed=42, floor: float = -1e-10) -> dict:
    """The mapped one-operand gap is nonnegative for convex f."""
    return _positivity_suite("eta", "eta", trials, seed, floor, True)


def suite_gamma(trials: int, seed=42, ordered: int | None = None,
                tol: float = 1e-8, floor: float = -1e-10) -> dict:
    """Certify the two-operator bound on random pairs.

    Also solves ordered instances (one operand dominating the other,
    with matching monotonicity) where the computed constant can never
    be negative.
    """
    if ordered is None:
        ordered = max(10, trials // 2)
    failures = 0
    worst_slack = np.inf
    for i in range(trials):
        rng = _rng(seed, "gamma", i)
        tag, f, lo, hi = CONVEX_POS[i % len(CONVEX_POS)]
        n = int(rng.integers(2, 5))
        A = random_hermitian(n, lo, hi, rng)
        B = random_hermitian(n, lo, hi, rng)
        cert = certify_order(A, B, f, tol=tol, restarts=32, max_iter=400,
                             seed=_subseed(rng))
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
        cert = certify_order(A, B, f, tol=tol, restarts=32, max_iter=400,
                             seed=_subseed(rng))
        gamma = cert.constants["gamma"]
        worst_ordered = min(worst_ordered, float(gamma))
        if gamma < floor or not cert.passed:
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


def suite_classical(trials: int, seed=42, tol: float = 1e-8) -> dict:
    """Certified classical statements on random admissible pairs."""
    failures = 0
    worst = np.inf
    per_statement = {}
    furuta_p = (1.5, 2.0, 3.0)
    lh_p = (0.3, 0.5, 0.9)
    alphas = (0.7, 1.0, 1.6)

    cases = (
        ("furuta", lambda i, rng: _furuta_case(i, rng, furuta_p, tol)),
        ("lowner_heinz", lambda i, rng: _lh_case(i, rng, lh_p, tol)),
        ("alpha_beta_increasing",
         lambda i, rng: _alpha_beta_case(i, rng, INCREASING_POS, alphas,
                                         "alpha_beta_increasing", tol)),
        ("alpha_beta_decreasing",
         lambda i, rng: _alpha_beta_case(i, rng, DECREASING_POS, alphas,
                                         "alpha_beta_decreasing", tol)),
    )
    for j, (statement, build) in enumerate(cases):
        fails = 0
        for i in range(trials):
            cert = build(i, _rng(seed, "classical", j * trials + i))
            worst = min(worst, cert.slack)
            if not cert.passed:
                fails += 1
        per_statement[statement] = int(fails)
        failures += fails
    return {
        "suite": "classical",
        "trials_per_statement": int(trials),
        "failures": int(failures),
        "per_statement": per_statement,
        "worst": float(worst),
    }


def _furuta_case(i, rng, ps, tol):
    n = 2 + i % 3
    m = 0.2 + 0.6 * float(rng.uniform())
    M = m + 0.6 + 1.5 * float(rng.uniform())
    A, B = random_dominated_pair(n, m, M, _subseed(rng))
    return verify_classical("furuta", A, B, p=ps[i % len(ps)],
                            m=m, M=M, tol=tol)


def _lh_case(i, rng, ps, tol):
    n = 2 + i % 3
    m = 0.2 + 0.6 * float(rng.uniform())
    M = m + 0.6 + 1.5 * float(rng.uniform())
    big, small = random_dominated_pair(n, m, M, _subseed(rng))
    return verify_classical("lowner_heinz", small, big, p=ps[i % len(ps)],
                            tol=tol)


def _alpha_beta_case(i, rng, catalog, alphas, statement, tol):
    tag, f, lo, hi = catalog[i % len(catalog)]
    n = 2 + i % 3
    A, B = random_dominated_pair(n, lo, hi, _subseed(rng))
    return verify_classical(statement, A, B, f=f, alpha=alphas[i % len(alphas)],
                            m=lo, M=hi, tol=tol)


def suite_agreement(trials: int, seed=42, rel_tol: float = 1e-5,
                    one_sided_tol: float = 1e-7, restarts: int = 32,
                    samples: int = 4000, max_dim: int = 3,
                    max_iter: int = 3000) -> dict:
    """Multistart ascent versus the dense sampling solver on small instances.

    The iteration cap is generous; restarts leave the solver's batch
    as they converge, so easy instances do not pay for it.
    """
    failures = 0
    worst = 0.0
    per_kind = {}
    for kind_idx, kind in enumerate(KINDS):
        fails = 0
        for i in range(trials):
            rng = _rng(seed, "agreement", kind_idx * trials + i)
            tag, f, lo, hi = CONVEX_POS[i % len(CONVEX_POS)]
            n = int(rng.integers(2, max_dim + 1))
            if kind in ("gamma", "chebyshev"):
                A = random_hermitian(n, lo, hi, rng)
                if kind == "gamma":
                    B = random_hermitian(n, lo, hi, rng)
                    problem = build_gap_problem(kind, f, A, B)
                else:
                    problem = build_gap_problem(kind, f, A)
            else:
                fam = _draw_family(rng, i, n)
                a_list = [random_hermitian(d, lo, hi, rng) for d in fam.input_dims]
                if kind in ("delta", "theta"):
                    b_list = [random_hermitian(d, lo, hi, rng)
                              for d in fam.input_dims]
                    problem = build_gap_problem(kind, f, a_list, b_list, fam)
                else:
                    problem = build_gap_problem(kind, f, a_list, family=fam)
            res_m = solve_multistart(problem, restarts=restarts,
                                     max_iter=max_iter, seed=_subseed(rng))
            res_b = solve_bruteforce(problem, samples=samples,
                                     seed=_subseed(rng))
            diff = abs(res_m.value - res_b.value)
            worst = max(worst, float(diff))
            close = diff <= rel_tol * (1.0 + abs(res_b.value))
            not_below = res_m.value >= res_b.value - one_sided_tol
            if not (close and not_below):
                fails += 1
        per_kind[kind] = int(fails)
        failures += fails
    return {
        "suite": "agreement",
        "trials_per_kind": int(trials),
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
    suites = {}
    for name in names:
        func, default_trials = _SUITES[name]
        suites[name] = func(default_trials if trials is None else int(trials), seed)
    passed = all(r["failures"] == 0 for r in suites.values())
    return {"seed": int(seed), "passed": bool(passed), "suites": suites}
