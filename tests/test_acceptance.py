"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion N: PASS" line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import io

import numpy as np

from loewner_cert import (
    beta_point,
    build_gap_problem,
    calc,
    certify_order,
    chord_coeffs,
    find_order_violation,
    kantorovich,
    loewner_leq,
    min_eigenvalue,
    power,
    random_hermitian,
    random_unital_family,
    solve_bruteforce,
    solve_multistart,
    verify_sandwich_pointwise,
)
from loewner_cert.certify import DEFAULT_TOL
from loewner_cert.cli import main
from loewner_cert.fuzz import (
    AGREE_MAX_DIM,
    AGREE_ONE_SIDED_TOL,
    AGREE_RTOL,
    GRADIENT_TOL,
    POSITIVITY_FLOOR,
    SANDWICH_VECTORS,
    suite_agreement,
    suite_chebyshev,
    suite_classical,
    suite_eta,
    suite_gamma,
    suite_gradient,
    suite_sandwich,
)
from loewner_cert.gaps import _upper_bound


def test_criterion_01_gradient_inequality():
    assert GRADIENT_TOL == 1e-12
    rep = suite_gradient(10_000, seed=42)
    assert rep["failures"] == 0, rep
    print("criterion 1: PASS")


def test_criterion_02_sandwich_500():
    assert (DEFAULT_TOL, SANDWICH_VECTORS) == (1e-8, 8)
    rep = suite_sandwich(500, seed=42)
    assert rep["failures"] == 0, rep
    assert rep["worst"] >= -1e-8, rep
    print("criterion 2: PASS")


def test_criterion_03_positivity():
    assert POSITIVITY_FLOOR == -1e-10
    cheb = suite_chebyshev(1000, seed=42)
    assert cheb["failures"] == 0, cheb
    assert cheb["worst"] >= -1e-10, cheb
    eta = suite_eta(200, seed=42)
    assert eta["failures"] == 0, eta
    assert eta["worst"] >= -1e-10, eta
    print("criterion 3: PASS")


def test_criterion_04_gamma_certificates():
    assert (DEFAULT_TOL, POSITIVITY_FLOOR) == (1e-8, -1e-10)
    rep = suite_gamma(200, seed=42)
    assert rep["certificate_failures"] == 0, rep
    assert rep["ordered_failures"] == 0, rep
    assert rep["worst_ordered"] >= -1e-10, rep
    print("criterion 4: PASS")


def test_criterion_05_hand_derived_values():
    d01 = np.diag([0.0, 1.0]).astype(complex)
    d12 = np.diag([1.0, 2.0]).astype(complex)

    cert = certify_order(d01, d01, power(2))
    assert abs(cert.constants["gamma"] - 0.5) < 1e-6, cert.constants

    cert = certify_order(d01, d12, power(2))
    assert abs(cert.constants["gamma"] - 4.0) < 1e-6, cert.constants
    assert abs(cert.slack - 1.0) < 1e-6, cert.slack

    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    res = verify_sandwich_pointwise(power(2), d01, x=x)
    assert abs(res.lower - (-0.5)) < 1e-10
    assert abs(res.middle - 0.0) < 1e-10
    assert abs(res.upper - 0.5) < 1e-10
    print("criterion 5: PASS")


def test_criterion_06_constants():
    assert abs(kantorovich(1.0, 2.0, 2.0) - 1.125) < 1e-12
    assert abs(kantorovich(1.0, 4.0, 2.0) - 1.5625) < 1e-12
    for m, M in ((1.0, 2.0), (0.5, 3.0)):
        for p in (1.0 + 1e-6, 1.0 - 1e-6):
            assert abs(kantorovich(m, M, p) - 1.0) <= 1e-4
    assert abs(beta_point(power(2), 1.0, 3.0, 1.0)[0] - 1.0) < 1e-9
    assert abs(beta_point(power(2), 1.0, 3.0, 2.0)[0] - (-1.0)) < 1e-9
    coeffs = chord_coeffs(power(2), 1.0, 2.0)
    assert (coeffs.a_f, coeffs.b_f) == (3.0, -2.0)
    print("criterion 6: PASS")


def test_criterion_07_classical_statements():
    assert DEFAULT_TOL == 1e-8
    rep = suite_classical(200, seed=42)
    assert rep["failures"] == 0, rep

    from loewner_cert import verify_classical

    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    for p in (1.5, 2.0, 3.0):
        cert = verify_classical("furuta", A, B, p=p, tol=1e-8)
        assert cert.passed, (p, cert.slack)
    print("criterion 7: PASS")


def test_criterion_08_cube_order_violation():
    hit = find_order_violation(power(3), 2, 10_000, seed=42)
    assert hit is not None
    assert loewner_leq(hit.A, hit.B, tol=1e-12).holds
    assert hit.witness < -1e-8

    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert loewner_leq(A, B).holds
    diff = B @ B @ B - A @ A @ A
    assert np.allclose(diff, [[9.0, 4.0], [4.0, 1.0]])
    lam = min_eigenvalue(diff)
    assert lam < 0.0
    assert abs(lam - (5.0 - np.sqrt(32.0))) < 1e-12
    assert abs(min_eigenvalue(calc(power(3), B) - calc(power(3), A)) - lam) < 1e-10
    print("criterion 8: PASS")


def test_criterion_09_solver_agreement():
    assert (AGREE_RTOL, AGREE_ONE_SIDED_TOL, AGREE_MAX_DIM) == (1e-5, 1e-7, 3)
    rep = suite_agreement(100, seed=42)
    assert rep["failures"] == 0, rep

    # larger instances: only the one-sided bound is required
    rng = np.random.default_rng(2026)
    for kind in ("gamma", "delta", "eta", "theta", "vartheta", "chebyshev"):
        for n in (4, 5, 6):
            if kind in ("gamma", "chebyshev"):
                A = random_hermitian(n, 0.3, 1.8, rng)
                if kind == "gamma":
                    problem = build_gap_problem(
                        kind, power(2), A, random_hermitian(n, 0.3, 1.8, rng))
                else:
                    problem = build_gap_problem(kind, power(2), A)
            else:
                fam = random_unital_family(2, n, n, seed=int(rng.integers(2**31)))
                a_list = [random_hermitian(n, 0.3, 1.8, rng) for _ in range(2)]
                if kind in ("delta", "theta"):
                    b_list = [random_hermitian(n, 0.3, 1.8, rng) for _ in range(2)]
                    problem = build_gap_problem(kind, power(2), a_list, b_list, fam)
                else:
                    problem = build_gap_problem(kind, power(2), a_list, family=fam)
            rm = solve_multistart(problem, restarts=32, max_iter=3000, seed=7)
            rb = solve_bruteforce(problem, samples=3000, seed=11)
            assert rm.value >= rb.value - 1e-7, (kind, n, rm.value, rb.value)
            # a further check: the certified bound lies above both solvers
            upper = _upper_bound(problem, rm.value, rm.maximizer)[0]
            assert upper >= max(rm.value, rb.value), (kind, n, upper, rm.value, rb.value)
    print("criterion 9: PASS")


def test_criterion_10_fuzz_determinism():
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["fuzz", "--suite", "all", "--seed", "42", "--json"])
        return code, out.getvalue()

    code1, text1 = run()
    code2, text2 = run()
    assert code1 == 0 and code2 == 0
    assert text1.encode() == text2.encode()
    print("criterion 10: PASS")
