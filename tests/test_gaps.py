import threading

import numpy as np
import pytest

from loewner_cert import (
    BadDimensions,
    Conjugation,
    GapProblem,
    MapFamily,
    NonFinite,
    NotUnitalFamily,
    SpectrumOutsideDomain,
    build_gap_problem,
    exponential,
    gap_objective,
    identity_family,
    neglog,
    power,
    random_hermitian,
    random_unital_family,
    solve_bruteforce,
    solve_multistart,
)

A2 = np.diag([0.0, 1.0]).astype(complex)
B2 = np.diag([1.0, 2.0]).astype(complex)


def test_gamma_role_matrices():
    prob = build_gap_problem("gamma", power(2), A2, B2)
    assert prob.kind == "gamma" and prob.dim == 2
    # C = B f'(B), S = A, D = f'(B)
    assert np.allclose(prob.C, np.diag([2.0, 8.0]))
    assert np.allclose(prob.S, A2)
    assert np.allclose(prob.D, np.diag([2.0, 4.0]))


def test_chebyshev_role_matrices():
    prob = build_gap_problem("chebyshev", power(2), B2)
    assert np.allclose(prob.C, np.diag([2.0, 8.0]))
    assert np.allclose(prob.S, B2)
    assert np.allclose(prob.D, np.diag([2.0, 4.0]))


def test_gap_objective_hand_values():
    prob = build_gap_problem("gamma", power(2), A2, B2)
    # basis vectors: F(e1) = 2 - 0*2 = 2, F(e2) = 8 - 1*4 = 4
    assert gap_objective(prob, [1.0, 0.0]) == 2.0
    assert gap_objective(prob, [0.0, 1.0]) == 4.0


def test_eta_equals_delta_with_equal_operands():
    rng = np.random.default_rng(3)
    fam = random_unital_family(2, 3, 3, seed=5)
    ops = [random_hermitian(3, 0.3, 2.0, rng) for _ in range(2)]
    pd = build_gap_problem("delta", power(2), ops, ops, family=fam)
    pe = build_gap_problem("eta", power(2), ops, family=fam)
    assert np.array_equal(pd.C, pe.C)
    assert np.array_equal(pd.S, pe.S)
    assert np.array_equal(pd.D, pe.D)
    rd = solve_multistart(pd, restarts=16, seed=9)
    re_ = solve_multistart(pe, restarts=16, seed=9)
    assert rd.value == re_.value


def test_theta_vartheta_share_roles_when_operands_match():
    fam = random_unital_family(2, 2, 2, seed=8)
    rng = np.random.default_rng(4)
    ops = [random_hermitian(2, 0.3, 2.0, rng) for _ in range(2)]
    pt = build_gap_problem("theta", power(2), ops, ops, family=fam)
    pv = build_gap_problem("vartheta", power(2), ops, family=fam)
    assert np.array_equal(pt.C, pv.C)
    assert np.array_equal(pt.D, pv.D)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_gap_problem("sigma", power(2), A2, B2)


def test_gamma_rejects_family_and_lists():
    with pytest.raises(BadDimensions):
        build_gap_problem("gamma", power(2), A2, B2,
                          family=identity_family(2))
    with pytest.raises(BadDimensions):
        build_gap_problem("gamma", power(2), [A2, A2], [B2, B2])
    with pytest.raises(BadDimensions):
        build_gap_problem("gamma", power(2), A2)


def test_multi_operand_needs_family():
    ops = [B2, B2]
    with pytest.raises(BadDimensions):
        build_gap_problem("vartheta", power(2), ops)


def test_family_must_be_unital():
    from loewner_cert import Conjugation, MapFamily
    doubled = MapFamily((Conjugation(np.eye(2, dtype=complex)),) * 2)
    with pytest.raises(NotUnitalFamily):
        build_gap_problem("eta", power(2), [B2, B2], family=doubled)


def test_operand_spectrum_checked_against_domain():
    with pytest.raises(SpectrumOutsideDomain):
        build_gap_problem("chebyshev", neglog(), A2)  # eigenvalue 0


def test_solver_input_validation():
    prob = build_gap_problem("chebyshev", power(2), B2)
    with pytest.raises(BadDimensions):
        solve_multistart(prob, restarts=0)
    with pytest.raises(BadDimensions):
        solve_bruteforce(prob, samples=0)


def test_toy_gamma_half():
    # A = B = diag(0,1), f = t^2: with s = |x_2|^2 the objective is
    # 2s - 2s^2, maximized at s = 1/2 with value 1/2.
    prob = build_gap_problem("gamma", power(2), A2, A2)
    rm = solve_multistart(prob, restarts=32, seed=0)
    rb = solve_bruteforce(prob, samples=4000, seed=1)
    assert abs(rm.value - 0.5) < 1e-9
    assert abs(rb.value - 0.5) < 1e-9
    assert rm.solver == "multistart" and rb.solver == "bruteforce"
    assert rm.converged
    assert abs(np.linalg.norm(rm.maximizer) - 1.0) < 1e-12


def test_toy_gamma_endpoint_max():
    # A = diag(0,1), B = diag(1,2), f = t^2: objective 2 + 4s - 2s^2
    # peaks at the s = 1 end, value 4, maximizer e_2 up to phase.
    prob = build_gap_problem("gamma", power(2), A2, B2)
    rm = solve_multistart(prob, restarts=32, seed=0)
    rb = solve_bruteforce(prob, samples=4000, seed=1)
    assert abs(rm.value - 4.0) < 1e-9
    assert abs(rb.value - 4.0) < 1e-9
    assert abs(rm.maximizer[1]) > 0.999999


def test_dim1_closed_form():
    prob = GapProblem("chebyshev", np.array([[4.0 + 0j]]),
                      np.array([[2.0 + 0j]]), np.array([[2.0 + 0j]]))
    res = solve_bruteforce(prob, samples=50)
    assert res.value == 0.0
    assert res.maximizer[0] == 1.0 + 0.0j
    assert res.iterations == 0


def test_multistart_deterministic():
    prob = build_gap_problem("gamma", power(2), A2, B2)
    r1 = solve_multistart(prob, restarts=48, seed=7)
    r2 = solve_multistart(prob, restarts=48, seed=7)
    assert r1.value == r2.value
    assert np.array_equal(r1.maximizer, r2.maximizer)
    assert r1.iterations == r2.iterations


@pytest.mark.parametrize("kind", ["gamma", "chebyshev"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solvers_agree_on_random_instances(kind, seed):
    rng = np.random.default_rng([21, seed])
    n = int(rng.integers(2, 4))
    A = random_hermitian(n, 0.2, 2.0, rng)
    B = A + random_hermitian(n, 0.0, 0.7, rng)
    args = (A, B) if kind == "gamma" else (B,)
    prob = build_gap_problem(kind, power(2), *args)
    rm = solve_multistart(prob, restarts=32, seed=seed)
    rb = solve_bruteforce(prob, samples=4000, seed=seed + 100)
    assert abs(rm.value - rb.value) <= 1e-7 * (1.0 + abs(rb.value))
    # reported value is always the objective at the reported maximizer
    assert abs(gap_objective(prob, rm.maximizer) - rm.value) < 1e-12


def test_gamma_of_identity_function_is_rayleigh_max():
    from loewner_cert import affine
    rng = np.random.default_rng(33)
    A = random_hermitian(3, -1.0, 1.0, rng)
    B = random_hermitian(3, -1.0, 1.0, rng)
    prob = build_gap_problem("gamma", affine(1.0, 0.0), A, B)
    res = solve_multistart(prob, restarts=16, seed=2)
    assert abs(res.value - np.linalg.eigvalsh(B - A)[-1]) < 1e-9


def test_gamma_nonpositive_when_dominated_and_identity():
    from loewner_cert import affine, random_dominated_pair
    A, B = random_dominated_pair(3, 0.5, 2.0, seed=13)  # B <= A
    prob = build_gap_problem("gamma", affine(1.0, 0.0), A, B)
    res = solve_multistart(prob, restarts=16, seed=2)
    assert res.value <= 1e-10


def test_chebyshev_of_scalar_multiple_of_identity_is_zero():
    prob = build_gap_problem("chebyshev", power(2), 1.7 * np.eye(3))
    res = solve_multistart(prob, restarts=8, seed=0)
    assert abs(res.value) < 1e-12


def test_gamma_is_unitarily_invariant():
    from loewner_cert import random_unitary
    rng = np.random.default_rng(44)
    A = random_hermitian(3, 0.2, 1.8, rng)
    B = random_hermitian(3, 0.2, 1.8, rng)
    U = random_unitary(3, rng)
    base = solve_multistart(build_gap_problem("gamma", power(2), A, B),
                            restarts=32, seed=5)
    spun = solve_multistart(
        build_gap_problem("gamma", power(2),
                          U @ A @ U.conj().T, U @ B @ U.conj().T),
        restarts=32, seed=5)
    assert abs(base.value - spun.value) < 1e-6


def tangent_gradient_norm(problem, x):
    x = x / np.linalg.norm(x)
    Cx, Sx, Dx = problem.C @ x, problem.S @ x, problem.D @ x
    qS, qD = np.real(np.vdot(x, Sx)), np.real(np.vdot(x, Dx))
    G = 2.0 * (Cx - qD * Sx - qS * Dx)
    return float(np.linalg.norm(G - x * np.real(np.vdot(x, G))))


def test_converged_flag_belongs_to_best_restart():
    rng = np.random.default_rng([77, 131])
    A = random_hermitian(5, 0.2, 2.2, rng)
    B = random_hermitian(5, 0.2, 2.2, rng)
    prob = build_gap_problem("gamma", power(-0.5), A, B)
    res = solve_multistart(prob, seed=0)
    if res.converged:
        assert tangent_gradient_norm(prob, res.maximizer) <= 10 * 1e-10


@pytest.mark.parametrize("kind,n,f_idx", [
    ("gamma", 2, 3), ("gamma", 4, 1), ("gamma", 8, 2), ("delta", 3, 3),
    ("delta", 6, 4), ("gamma", 24, 0), ("delta", 24, 2),
])
def test_multistart_converges_in_few_iterations(kind, n, f_idx):
    f = (power(2), power(3), power(-0.5), power(1.5), neglog())[f_idx]
    rng = np.random.default_rng([95, n, f_idx])
    if kind == "gamma":
        prob = build_gap_problem(kind, f, random_hermitian(n, 0.2, 2.2, rng),
                                 random_hermitian(n, 0.2, 2.2, rng))
    else:
        fam = random_unital_family(2, n, n, seed=int(rng.integers(2**31)))
        a = [random_hermitian(n, 0.2, 2.2, rng) for _ in range(2)]
        b = [random_hermitian(n, 0.2, 2.2, rng) for _ in range(2)]
        prob = build_gap_problem(kind, f, a, b, family=fam)
    res = solve_multistart(prob, seed=3)
    assert res.converged
    assert tangent_gradient_norm(prob, res.maximizer) <= 1e-8
    assert res.iterations <= 60, res.iterations


def test_multistart_returns_on_non_finite_problem():
    # a NaN entry makes every trial step NaN; the line search must still stop
    C = np.diag([1.0, 2.0, 3.0]).astype(complex)
    C[0, 0] = np.nan
    prob = GapProblem("gamma", C, np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    out = []
    worker = threading.Thread(
        target=lambda: out.append(solve_multistart(prob, restarts=4, max_iter=20)),
        daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert out and not out[0].converged


def test_overflowing_image_names_operand_and_function():
    B = np.diag([800.0, 1.0]).astype(complex)
    with pytest.raises(NonFinite, match=r"f\(B\).*exp"):
        build_gap_problem("gamma", exponential(), A2, B)
    with pytest.raises(NonFinite, match=r"\(A\[1\]\).*exp"):
        build_gap_problem("eta", exponential(), [A2, B], family=MapFamily(
            (Conjugation(np.eye(2) / np.sqrt(2)),) * 2))
