import dataclasses
import hashlib
import math
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from loewner_cert import (
    KINDS,
    BadDimensions,
    BadParameter,
    Conjugation,
    DimensionMismatch,
    GapProblem,
    LoewnerCertError,
    MapFamily,
    NonFinite,
    NotHermitian,
    NotUnitalFamily,
    NotUnitVector,
    Pinch,
    SpectrumOutsideDomain,
    apply_spectral,
    build_gap_problem,
    exponential,
    gap_objective,
    identity_family,
    neglog,
    parse_function,
    power,
    random_hermitian,
    random_unital_family,
    random_unitary,
    solve,
    solve_bruteforce,
    solve_multistart,
)
from loewner_cert import fuzz, gaps
from loewner_cert.fuzz import AGREE_RTOL, suite_agreement
from loewner_cert.hermitian import hermitize

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


def test_gap_objective_refuses_a_vector_of_another_length():
    prob = _random_triple(4, 0)
    with pytest.raises(DimensionMismatch, match=r"^x has 3 entries, the gamma .* k = 4$"):
        gap_objective(prob, np.ones(3) / np.sqrt(3.0))


def test_gap_objective_refuses_a_vector_that_is_not_unit():
    prob = _random_triple(4, 0)
    x = np.ones(4) / 2.0
    assert abs(gap_objective(prob, x) - gap_objective(prob, x * (1.0 + 1e-11))) <= 1e-9
    with pytest.raises(NotUnitVector, match=r"^norm 10\.0 is not 1 within 1e-10"):
        gap_objective(prob, 10.0 * x)


def test_gap_objective_refuses_a_nan_vector():
    prob = _random_triple(4, 0)
    with pytest.raises(NotUnitVector, match=r"^norm nan is not 1 within 1e-10"):
        gap_objective(prob, [np.nan, 0.5, 0.5, 0.5])


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


def _unchecked_problem(kind, C, S, D):
    """A GapProblem built without __post_init__'s checks, for driving a solver on bad forms."""
    prob = object.__new__(GapProblem)
    for name, value in zip(("kind", "C", "S", "D", "_stack"),
                           (kind, C, S, D, np.stack([C, S, D]))):
        object.__setattr__(prob, name, value)
    return prob


def _both_paths(prob, x0, max_iter):
    """(bytes of x, converged, iterations) of the batch on the one column x0, and of
    _newton_ascent_one from x0."""
    X, conv, iters = gaps._newton_ascent(prob, x0[:, None], max_iter)
    x, converged, one_iters = gaps._newton_ascent_one(prob, x0, max_iter)
    return (X[:, 0].tobytes(), bool(conv[0]), iters), (x.tobytes(), converged, one_iters)


def test_multistart_returns_on_non_finite_problem():
    # GapProblem refuses NaN, so the ascent is driven on an unchecked
    # problem: a NaN entry makes every trial step NaN, and the line search
    # must still stop, in the batch and on one column, where both paths
    # stall after one iteration with the same bits
    C = np.diag([1.0, 2.0, 3.0]).astype(complex)
    C[0, 0] = np.nan
    eye = np.eye(3, dtype=complex)
    prob = _unchecked_problem("gamma", C, eye, eye)
    X0 = np.random.default_rng(0).standard_normal((3, 4)).astype(complex)
    out = []
    worker = threading.Thread(target=lambda: out.append(
        (gaps._newton_ascent(prob, X0, 20), _both_paths(prob, X0[:, 0], 20))), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    [(many, (batch, one))] = out
    assert not many[1].any()
    assert batch == one and batch[1:] == (False, 1)


def test_the_one_column_ascent_gives_the_bits_of_the_batch(monkeypatch):
    # bound_check.py's triples at k = 3-32, each run to convergence, capped
    # after two iterations and with none; the batch on one column is the
    # reference.  Some starts take Levenberg-Marquardt restarts: more
    # Newton steps than iterations
    calls = []
    solve = gaps._newton_solve
    monkeypatch.setattr(gaps, "_newton_solve", lambda A, R: calls.append(1) or solve(A, R))
    seen = {"restarts": 0, "capped": 0, "converged": 0}
    for k in (3, 4, 5, 8, 16, 32):
        for seed in range(4):
            prob = _bound_check_triple(k, seed)
            rng = np.random.default_rng([83, k, seed])
            x0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            for max_iter in (0, 2, 500):
                batch, one = _both_paths(prob, x0, max_iter)
                assert batch == one, (k, seed, max_iter)
                calls.clear()
                gaps._newton_ascent_one(prob, x0, max_iter)
                seen["restarts"] += len(calls) > one[2]
                seen["capped"] += max_iter == 2 and not one[1] and one[2] == 2
                seen["converged"] += one[1]
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("a_seed", [2, 3])
def test_degenerate_maxima_converge(a_seed):
    # vartheta under a pinching into two blocks: C, S and D are block
    # diagonal, so F ignores the relative phase of the blocks, and where
    # the maximizer spans both blocks the maximum lies on a circle
    fam = MapFamily((Pinch(4, ((0, 1), (2, 3))),))
    A = random_hermitian(4, 0.2, 2.0, np.random.default_rng([71, a_seed]))
    prob = build_gap_problem("vartheta", parse_function("power:2;dom=[0,inf)"), A, family=fam)
    assert gaps._exact(prob) is None
    x = solve_multistart(prob, restarts=64).maximizer
    assert min(np.linalg.norm(x[:2]), np.linalg.norm(x[2:])) ** 2 >= 0.3
    for seed in range(10):
        rng = np.random.default_rng([73, seed])
        X0 = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        X, conv, iters = gaps._newton_ascent(prob, X0, 500)
        assert conv[0] and iters <= 15, (seed, iters)
        assert tangent_gradient_norm(prob, X[:, 0]) <= 1e-10


def _step_inputs(prob, x, sigma):
    """A (with the shift sigma) and the rows x, g, u, w that _newton_solve reads."""
    Cx, Sx, Dx = prob.C @ x, prob.S @ x, prob.D @ x
    qS, qD = np.vdot(x, Sx).real, np.vdot(x, Dx).real
    G = 2.0 * (Cx - qD * Sx - qS * Dx)
    rho = np.vdot(x, G).real
    A = (rho + sigma) * np.eye(prob.dim) - 2.0 * (prob.C - qD * prob.S - qS * prob.D)
    horizontal = np.eye(prob.dim) - np.outer(x, x.conj())
    R = np.stack([x] + [horizontal @ v for v in (G, Sx, Dx)], axis=1)
    return A[None], R[None]


def _minus_hessian(prob, x, basis):
    """-Hess F at x in a real orthonormal basis of the horizontal space.

    Along x_t = (x + tE)/|x + tE| with E horizontal, each form is
    (q + 2t Re<Mx, E> + t^2 <ME, E>)/(1 + t^2 |E|^2), and the second
    derivative of F at t = 0 is <E, Hess E>; polarization gives the matrix.
    """
    forms = (prob.C, prob.S, prob.D)
    q = [np.vdot(x, M @ x).real for M in forms]

    def curvature(E):
        # first and second derivatives of <C x_t, x_t>, <S x_t, x_t>, <D x_t, x_t>
        d1 = [2.0 * np.vdot(M @ x, E).real for M in forms]
        d2 = [2.0 * (np.vdot(E, M @ E).real - qm * np.vdot(E, E).real)
              for M, qm in zip(forms, q)]
        return d2[0] - d2[1] * q[2] - 2.0 * d1[1] * d1[2] - q[1] * d2[2]

    n = len(basis)
    H = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            H[i, j] = 0.25 * (curvature(basis[i] + basis[j]) - curvature(basis[i] - basis[j]))
    return -H


def test_the_step_is_the_newton_step():
    # at random points and near local maxima: the det < 0 rule of
    # _newton_solve against eigvalsh of the real Hessian (2k - 2 square) on
    # the horizontal space, and at sigma = 0 the step against the solution
    # of the real Newton system
    counts = {"pd": 0, "not pd": 0, "newton": 0}
    for i in range(240):
        rng = np.random.default_rng([79, i])
        k = 3 + i % 6
        prob = _random_triple(k, 1000 + i)
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        if i % 2:  # a perturbed local maximum, where -Hess is often definite
            X = gaps._newton_ascent(prob, z[:, None], 500)[0]
            z = X[:, 0] + 0.03 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        x = z / np.linalg.norm(z)
        Q = np.linalg.qr(np.column_stack([x, np.eye(k)]))[0][:, 1:k]
        basis = list(Q.T) + list(1j * Q.T)
        H = _minus_hessian(prob, x, basis)
        low = np.linalg.eigvalsh(H)[0]
        low_K = np.linalg.eigvalsh(Q.conj().T @ _step_inputs(prob, x, 0.0)[0][0] @ Q)[0]
        scale = 1.0 + abs(low)
        # shifts on either side of the least eigenvalue; the step's K' maps x
        # to (1 + sigma) x, so sigma >= 0
        for sigma in {0.0, max(0.0, -low - 0.2 * scale), max(0.0, -low + 0.2 * scale)}:
            A, R = _step_inputs(prob, x, sigma)
            eta, pd = gaps._newton_solve(A, R)
            definite = low + sigma > 0.0
            # pd is never wrong, and exact wherever K + sigma is definite
            assert definite or not pd[0]
            if low_K + sigma > 1e-9 * scale:
                assert pd[0] == definite, (i, sigma)
                counts["pd" if definite else "not pd"] += 1
            if not pd[0]:
                assert np.array_equal(eta[0], R[0, :, 1])
                continue
            assert abs(np.vdot(x, eta[0])) <= 1e-12 * np.linalg.norm(eta[0])
            if sigma == 0.0:
                g = np.array([np.vdot(b, R[0, :, 1]).real for b in basis])
                exact = np.linalg.solve(H, g)
                got = np.array([np.vdot(b, eta[0]).real for b in basis])
                assert np.linalg.norm(got - exact) <= 1e-10 * np.linalg.norm(exact), i
                counts["newton"] += 1
    assert min(counts.values()) >= 50, counts


@pytest.mark.parametrize("bad", [2.5, float("nan"), True])
def test_fuzz_refuses_a_trial_count_that_is_not_an_integer(bad):
    with pytest.raises(BadDimensions, match=f"trials must be an integer >= 1, got {bad}"):
        fuzz.run_fuzz("gradient", bad)


@pytest.mark.parametrize("bad", [1.5, True, -1, None, np.random.default_rng(1)])
def test_fuzz_refuses_a_seed_it_cannot_record(bad):
    # the report records its seed: 1.5 and True would run seed 1
    with pytest.raises(BadParameter, match=r"^seed must be an integer >= 0, got "):
        fuzz.run_fuzz("gradient", 1, seed=bad)


def test_agreement_fails_a_trial_whose_bound_lies_below(monkeypatch):
    # the bound built around the better of the two points must hold both
    assert suite_agreement(1)["failures"] == 0
    monkeypatch.setattr(fuzz, "_upper_bound", lambda problem, value, x: (value - 1e-6, 0, None))
    assert suite_agreement(1)["per_kind"] == dict.fromkeys(KINDS, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("label", ["C", "S", "D"])
def test_gap_problem_refuses_non_finite_forms(label, bad):
    forms = {"C": B2.copy(), "S": A2.copy(), "D": B2.copy()}
    forms[label][1, 1] = bad
    with pytest.raises(NonFinite, match=rf"^{label} of the delta problem has a non-finite"):
        GapProblem("delta", **forms)


def test_gap_problem_refuses_a_form_that_is_not_hermitian():
    # the ascents read Re<Cx, x>, the Hermitian part of C, and the bound
    # only C's lower triangle: taken as it is, this complex Gaussian C gets
    # the value 6.1735 from solve and a "certified" upper bound of 5.7528
    rng = np.random.default_rng(187)
    C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A, B = rng.standard_normal((2, 3, 3))
    with pytest.raises(NotHermitian, match=r"^C of the gamma problem is not Hermitian$"):
        GapProblem("gamma", C, A + A.T, B + B.T)


@pytest.mark.parametrize("label", "CSD")
@pytest.mark.parametrize("entry,nudge", [((0, 1), 2.3e-16), ((1, 1), 1e-300j)])
def test_gap_problem_refuses_the_least_asymmetry(label, entry, nudge):
    # the test is exact, with no tolerance: an entry 2.3e-16 off its mirror,
    # or an imaginary part of 1e-300 on the diagonal
    forms = {"C": B2 + 0.5, "S": A2.copy(), "D": B2.copy()}
    forms[label][entry] += nudge
    with pytest.raises(NotHermitian, match=rf"^{label} of the delta problem is not Hermitian$"):
        GapProblem("delta", **forms)


# size 0 last: solve would raise numpy's unnamed ValueError on it, and
# solve_bruteforce NotUnitVector after a RuntimeWarning
@pytest.mark.parametrize("forms", [(A2, np.eye(3), B2), (A2, B2, np.eye(3)),
                                   (np.ones((2, 3)),) * 3, (np.ones(2),) * 3,
                                   (np.zeros((0, 0)),) * 3])
def test_gap_problem_refuses_forms_that_are_not_square_of_one_size(forms):
    with pytest.raises(DimensionMismatch, match=r"^C, S and D of the gamma problem must be "
                                                r"square matrices of one size >= 1, got"):
        GapProblem("gamma", *forms)


def test_a_real_problem_solves_to_the_bits_of_its_complex_copy():
    # a problem holds its forms in complex form, so a real one runs the
    # ascent, the bound and the repair on the very arrays of its copy
    rng = np.random.default_rng([5, 1])
    forms = [A + A.T for A in rng.standard_normal((3, 4, 4))]
    real = GapProblem("gamma", *forms)
    copy = GapProblem("gamma", *(X.astype(complex) for X in forms))
    assert real._stack.tobytes() == copy._stack.tobytes()
    got, want = solve(real, seed=1), solve(copy, seed=1)
    assert got.repairs == 1 and got.maximizer.tobytes() == want.maximizer.tobytes()
    assert dataclasses.replace(got, maximizer=None) == dataclasses.replace(want, maximizer=None)


def test_gap_problem_keeps_read_only_copies_of_its_forms():
    # the stack, norms and spectra are computed once per problem, so a
    # later write to the caller's arrays must not reach the problem
    ref = _bound_check_triple(5, 0)
    forms = [ref.C.copy(), ref.S.copy(), ref.D.copy()]
    prob = GapProblem("gamma", *forms)
    first = solve(prob, seed=0)
    forms[0] *= 2.0
    again = solve(prob, seed=0)
    assert (again.value, again.upper) == (first.value, first.upper)
    with pytest.raises(ValueError, match="read-only"):
        prob.C[0, 0] = 0.0


def test_overflowing_image_names_operand_and_function():
    B = np.diag([800.0, 1.0]).astype(complex)
    with pytest.raises(NonFinite, match=r"f\(B\).*exp"):
        build_gap_problem("gamma", exponential(), A2, B)
    with pytest.raises(NonFinite, match=r"\(A\[1\]\).*exp"):
        build_gap_problem("eta", exponential(), [A2, B], family=MapFamily(
            (Conjugation(np.eye(2) / np.sqrt(2)),) * 2))


def test_huge_operand_names_the_overflowing_image():
    # A + A^H used to overflow in hermitize and surface as NaN eigenvalues
    with pytest.raises(NonFinite, match=r"f\(A\) has a non-finite entry, f = power:2"):
        build_gap_problem("chebyshev", power(2), np.diag([1e308, 1.0]))


def test_overflowing_eigenvalue_names_operand():
    # the entries are finite, the eigenvalue 2e308 is not: NonFinite, checked
    # before the domain check that used to report "eigenvalues [inf]"
    huge = np.full((2, 2), 1e308)
    with pytest.raises(NonFinite, match="^A has an eigenvalue that overflows"):
        build_gap_problem("chebyshev", power(2), huge)
    with pytest.raises(NonFinite, match="^B has an eigenvalue that overflows"):
        build_gap_problem("gamma", neglog(), B2, huge)
    fam = MapFamily((Conjugation(np.eye(2) / np.sqrt(2)),) * 2)
    with pytest.raises(NonFinite, match=r"^B\[1\] has an eigenvalue that overflows"):
        build_gap_problem("theta", power(2), [B2, B2], [B2, huge], family=fam)


# a unital family from 3x3, 2x2 and 3x3 operands to 2x2 matrices: its
# operands are decomposed in two stacked calls, A[0] with A[2], then A[1]
_THIRDS = MapFamily(tuple(Conjugation(V / np.sqrt(3.0)) for V in (
    np.eye(3)[:, :2], np.eye(2), np.eye(3)[:, 1:])))


@pytest.mark.parametrize("spec", ["power:2", "exp", "neglog", "power:-0.5"])
def test_family_of_mixed_input_sizes_assembles_each_operand_alone(spec):
    # the stacked assembly gives the bits of the public path, which decomposes
    # and maps one matrix at a time
    f = parse_function(spec)
    rng = np.random.default_rng(17)
    a_ops, b_ops = ([random_hermitian(n, 0.3, 2.0, rng) for n in (3, 2, 3)] for _ in range(2))
    asm = gaps._assemble(f, a_ops, b_ops, _THIRDS)

    def images(X):
        return [apply_spectral(X, fn, f.domain)
                for fn in (f.value_array, f.deriv_array, lambda w: w * f.deriv_array(w))]

    T = _THIRDS.apply_sum(b_ops)
    mapped = [_THIRDS.apply_sum(ops) for ops in zip(*map(images, a_ops))]
    expected = [_THIRDS.apply_sum(a_ops), T, *mapped, *images(T)]
    assert asm.maps == 3
    for got, want in zip(list(vars(asm).values())[1:], expected, strict=True):
        assert np.array_equal(got, want)


def test_the_first_operand_at_fault_is_named():
    pos2, pos3 = np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0])
    neg2, neg3 = np.diag([-1.0, 2.0]), np.diag([1.0, -2.0, 3.0])
    huge2, huge3 = np.diag([1.0, 800.0]), np.diag([1.0, 2.0, 800.0])
    # a second operand that leaves the domain or overflows, in one stack with
    # the first
    with pytest.raises(SpectrumOutsideDomain, match=r"^B has eigenvalues \[-1\.0\]"):
        build_gap_problem("gamma", neglog(), pos2, neg2)
    with pytest.raises(NonFinite, match=r"^f\(B\) has a non-finite entry, f = exp"):
        build_gap_problem("gamma", exponential(), pos2, huge2)
    # the operands' order decides, not their stacks': A[2] is decomposed
    # with A[0], before A[1]
    with pytest.raises(SpectrumOutsideDomain, match=r"^A\[1\] has eigenvalues \[-1\.0\]"):
        build_gap_problem("eta", neglog(), [pos3, neg2, neg3], family=_THIRDS)
    with pytest.raises(NonFinite, match=r"^f\(A\[1\]\) has a non-finite entry"):
        build_gap_problem("eta", exponential(), [pos3, huge2, huge3], family=_THIRDS)
    f = parse_function("exp;dom=[0,inf)")
    with pytest.raises(NonFinite, match=r"^f\(A\[0\]\) has a non-finite entry"):
        build_gap_problem("eta", f, [huge3, neg2, pos3], family=_THIRDS)
    with pytest.raises(SpectrumOutsideDomain, match=r"^A\[1\] has"):
        build_gap_problem("eta", f, [pos3, neg2, huge3], family=_THIRDS)
    # an operand's spectrum comes before its images
    with pytest.raises(SpectrumOutsideDomain, match=r"^A\[0\] has"):
        build_gap_problem("eta", f, [np.diag([-1.0, 2.0, 800.0]), pos2, pos3],
                          family=_THIRDS)
    # the B_i, whose spectra come from stacked eigvalsh calls
    with pytest.raises(SpectrumOutsideDomain, match=r"^B\[1\] has"):
        build_gap_problem("delta", neglog(), [pos3, pos2, pos3], [pos3, neg2, neg3],
                          family=_THIRDS)


@settings(max_examples=50, deadline=None)
@given(e=st.integers(-300, 308), kind=st.sampled_from(KINDS),
       spec=st.sampled_from(["power:2", "exp", "neglog", "power:-1"]),
       seed=st.integers(0, 2**16))
def test_scaled_operands_build_finite_or_raise(e, kind, spec, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** e
    with np.errstate(over="ignore"):
        ops = [random_hermitian(3, 0.3, 2.0, rng) * scale for _ in range(4)]
    if kind in ("gamma", "chebyshev"):
        a, b, fam = ops[0], ops[1], None
    else:
        a, b, fam = ops[:2], ops[2:], random_unital_family(2, 3, 3, seed=seed)
    try:
        prob = build_gap_problem(kind, parse_function(spec), a, b, family=fam)
    except LoewnerCertError as err:
        assert "nan" not in str(err)  # names the overflow, not its NaN aftermath
        return
    assert all(np.isfinite(M).all() for M in (prob.C, prob.S, prob.D))


def test_nested_list_is_one_operand():
    A, B = [[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.5], [0.5, 3.0]]
    for kind in KINDS:
        fam = identity_family(2) if kind not in ("gamma", "chebyshev") else None
        listed = build_gap_problem(kind, power(2), A, B, family=fam)
        arrays = build_gap_problem(kind, power(2), np.array(A), np.array(B), family=fam)
        for M, N in zip((listed.C, listed.S, listed.D), (arrays.C, arrays.S, arrays.D)):
            assert np.array_equal(M, N)
    # lists of matrices, also of different sizes, stay lists
    fam = MapFamily((Conjugation(np.eye(2) / np.sqrt(2)),
                     Conjugation(np.vstack([np.eye(2), np.zeros((1, 2))]) / np.sqrt(2))))
    prob = build_gap_problem("eta", power(2), [A, np.diag([1.0, 2.0, 3.0])], family=fam)
    assert prob.dim == 2


def test_no_family_applies_no_map(monkeypatch):
    for name in ("apply_sum", "_map_sum"):
        monkeypatch.setattr(MapFamily, name, lambda self, ops: pytest.fail("map applied"))
    # Hermitian only within the tolerance: S is its Hermitian part
    A = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    for kind in ("gamma", "delta", "chebyshev"):
        prob = build_gap_problem(kind, power(2), A, B2)
        assert np.array_equal(prob.S, hermitize(A))


# -- oracle invariants ---------------------------------------------------


def _oracle_case(i):
    """Six seeded problems, k = 2..5, for the oracle invariants."""
    kind, n, f = [("gamma", 2, power(2)), ("chebyshev", 3, neglog()),
                  ("delta", 3, exponential()), ("eta", 4, power(-1)),
                  ("theta", 4, power(3)), ("vartheta", 5, neglog())][i]
    rng = np.random.default_rng(100 + i)
    ops = [random_hermitian(n, 0.3, 2.0, rng) for _ in range(4)]
    if kind in ("gamma", "chebyshev"):
        return build_gap_problem(kind, f, ops[0], ops[1])
    fam = random_unital_family(2, n, n, seed=200 + i)
    return build_gap_problem(kind, f, ops[:2], ops[2:], family=fam)


def _sampled_values(prob, samples, seed):
    rng = np.random.default_rng(seed)
    k = prob.dim
    Z = rng.standard_normal((k, samples)) + 1j * rng.standard_normal((k, samples))
    Z = Z / np.linalg.norm(Z, axis=0)
    q = np.einsum("ij,fik,kj->fj", Z.conj(), prob._stack, Z).real
    return Z, q[0] - q[1] * q[2]


# solve_bruteforce(_oracle_case(i), samples=2000, seed=i).value, as first recorded
_ORACLE_VALUES = (2.3250450958998394, 0.1421134855901076, 0.5636498993817605,
                  0.41762381183423103, 7.496696242054259, 0.4319705396762512)


# (value.hex(), iterations, converged) of
# solve_multistart(_oracle_case(i), restarts=16, seed=i), as recorded with
# the regularized Newton step: the ascent is pinned to the bit
_NEWTON_RESULTS = (("0x1.299b13e44eb82p+1", 7, True), ("0x1.230c652770cc4p-3", 8, True),
                   ("0x1.2096b8387a098p-1", 7, True), ("0x1.aba593976f7e0p-2", 7, True),
                   ("0x1.dfc9df08ead34p+2", 11, True), ("0x1.ba567c32fada8p-2", 9, True))


@pytest.mark.parametrize("i", range(6))
def test_newton_results_are_bit_stable(i):
    res = solve_multistart(_oracle_case(i), restarts=16, seed=i)
    assert (res.value.hex(), res.iterations, res.converged) == _NEWTON_RESULTS[i]


# (value.hex(), iterations, upper.hex(), eigensolves, repairs) of solve at
# solver seed ``seed`` on bound_check's triple(k, seed) and on two family
# problems: the one start, the bound and the repair rounds, pinned to the bit
_SOLVE_RESULTS = {
    ("triple", 3, 0): ("0x1.3fb11e93e23f7p+1", 15, "0x1.3fb11edaeb756p+1", 26, 1),
    ("triple", 3, 1): ("0x1.082a6a594db5cp+3", 5, "0x1.082a6a6cbadbap+3", 16, 0),
    ("triple", 4, 2): ("0x1.a12f90e554c7dp+1", 13, "0x1.a12f9109f9c26p+1", 42, 1),
    ("triple", 4, 3): ("0x1.ce2aee0a84d5fp+1", 6, "0x1.ce2aee3da119ap+1", 21, 0),
    ("triple", 5, 6): ("0x1.6c1bf7657730bp+2", 11, "0x1.6c1bf77d03b94p+2", 28, 1),
    ("triple", 6, 0): ("0x1.fcc88a0820954p+2", 10, "0x1.fcc88a1c08e82p+2", 56, 1),
    ("triple", 8, 1): ("0x1.af39caa18a2a0p+3", 13, "0x1.af39cae14d91cp+3", 35, 1),
    ("oracle_case", 4, 4): ("0x1.dfc9df08ead34p+2", 6, "0x1.dfc9df39a28d4p+2", 10, 0),
    ("oracle_case", 5, 5): ("0x1.ba567c32fad9cp-2", 9, "0x1.ba567c42af935p-2", 15, 0),
    ("triple", 16, 0): ("0x1.b0a32cbe93dc5p+4", 7, "0x1.b0a32d010541ep+4", 24, 0),
    ("triple", 32, 1): ("0x1.c6748f13df2ddp+5", 13, "0x1.c6748f3aaa55ap+5", 58, 1),
}


@pytest.mark.parametrize("case", list(_SOLVE_RESULTS))
def test_solve_results_are_bit_stable(case):
    source, k, seed = case
    prob = _bound_check_triple(k, seed) if source == "triple" else _oracle_case(k)
    res = solve(prob, seed=seed)
    assert res.solver == "multistart" and res.restarts == 1
    got = (res.value.hex(), res.iterations, res.upper.hex(), res.eigensolves, res.repairs)
    assert got == _SOLVE_RESULTS[case]
    assert res.upper >= res.value and res.gap <= gaps._gap_tol(res.value)


# (upper.hex(), eigensolves, worst) of _upper_bound around the one start
# solve_multistart(triple(k, seed), restarts=1, max_iter=max_iter, seed=seed),
# worst as the hex of (s, mu): closed, open at a node and open at a random
# start (max_iter 0), pinned to the bit
_BOUND_RESULTS = {
    (3, 5, 500): ("0x1.3c563379f7aacp+1", 15, ("0x1.e7aaaba7b0ee1p-2", "-0x1.f9bc44b5dfd49p-1")),
    (5, 6, 500): ("0x1.05dc72e1baf2ep+4", 5, ("0x1.2bc711e422acbp+1", "-0x1.552cf023c4e90p+3")),
    (4, 3, 500): ("0x1.ce2aee3da119ap+1", 21, None),
    (6, 0, 500): ("0x1.0e5c582e241fap+3", 25, ("0x1.3ac31e17949c4p+1", "-0x1.b9add42bf5fa4p+1")),
    (5, 0, 0): ("0x1.3569a10ed6f89p+3", 8, ("0x1.678eae957274dp+1", "-0x1.092e8bc686628p+3")),
    (8, 2, 0): ("0x1.7417968502206p+4", 8, ("-0x1.b3238b9482b15p+0", "0x1.78e512ceea8c4p-1")),
}


@pytest.mark.parametrize("case", list(_BOUND_RESULTS))
def test_bound_results_are_bit_stable(case):
    k, seed, max_iter = case
    prob = _bound_check_triple(k, seed)
    start = solve_multistart(prob, restarts=1, max_iter=max_iter, seed=seed)
    upper, evals, worst = gaps._upper_bound(prob, start.value, start.maximizer)
    worst = None if worst is None else tuple(float(v).hex() for v in worst)
    assert (upper.hex(), evals, worst) == _BOUND_RESULTS[case]


def _failing_eigensolver(monkeypatch, fail):
    """Make the bound's ``fail``-th eigenvalue problem (1-based) fail.

    Where LAPACK does not converge, numpy's eigh and eigvalsh gufuncs fill
    their outputs with NaN; the call returns that here.  Returns the list
    of the names of the calls made.
    """
    real = gaps._umath_linalg
    calls = []

    def counted(name):
        def call(H, **kwargs):
            calls.append(name)
            out = getattr(real, name)(H, **kwargs)
            if len(calls) != fail:
                return out
            return tuple(np.full_like(o, np.nan) for o in out) if name == "eigh_lo" \
                else np.full_like(out, np.nan)
        return call

    monkeypatch.setattr(gaps, "_umath_linalg", SimpleNamespace(
        eigh_lo=counted("eigh_lo"), eigvalsh_lo=counted("eigvalsh_lo"),
        cholesky_lo=real.cholesky_lo))
    return calls


@pytest.mark.parametrize("fail, name", [(1, "eigvalsh_lo"), (2, "eigvalsh_lo"),
                                        (3, "eigvalsh_lo"), (4, "eigh_lo"), (7, "eigh_lo"),
                                        (17, "eigh_lo"), (20, "eigvalsh_lo")])
def test_an_eigenvalue_problem_lapack_fails_leaves_the_bound_none(monkeypatch, fail, name):
    # the spectra of S and D, the first node's eigenvalues, the s* node's
    # eigenvectors (its first evaluation computes them at once), a node's
    # eigenvectors after its eigenvalues, a later node's eigenvectors, and
    # a split node that stops at its eigenvalues: NaN eigenvalues end as no
    # bound, with no exception and no RuntimeWarning (np.linalg would raise
    # LinAlgError).  A problem keeps its spectra of S and D, so the failing
    # bound runs on a fresh copy of the problem
    prob = _bound_check_triple(4, 3)
    start = solve_multistart(prob, restarts=1, seed=3)
    assert gaps._upper_bound(prob, start.value, start.maximizer)[0] is not None
    prob = _bound_check_triple(4, 3)
    calls = _failing_eigensolver(monkeypatch, fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        upper, evals, worst = gaps._upper_bound(prob, start.value, start.maximizer)
    assert calls[fail - 1] == name and (upper, worst) == (None, None)
    # every evaluation of h calls eigvalsh but the s* node's first, which
    # calls eigh alone
    assert evals == calls.count("eigvalsh_lo") + 1


def _sylvester(k):
    """The k x k Sylvester-Hadamard matrix (k a power of two): entries +-1, rows orthogonal."""
    W = np.ones((1, 1))
    while W.shape[0] < k:
        W = np.block([[W, W], [W, -W]])
    return W


@pytest.mark.parametrize("dtype", [complex, float])
def test_the_cholesky_certificate_refuses_a_top_just_above_its_bound(dtype):
    # H = W diag(w) W^T / 16 is exact in floats (every entry a sum of
    # +-w_j / 16 with w_j on a grid of 2^-52 and the sums below 2), so its
    # top eigenvalue is exactly 1 + eps.  That lies above the bound 1 by
    # eps, less than the rounding term (at least 2 eps |bound|): refused.
    # A bound above the top by more than the rounding term is proved
    eps = np.finfo(float).eps
    W = _sylvester(16)
    w = np.random.default_rng(5).integers(-32, 33, 16) / 1024.0
    w[3] = 1.0 + eps
    H = ((W * w) @ W / 16).astype(dtype)
    Wi = W.astype(np.int64)
    assert np.array_equal((H.real * 2.0**56).astype(np.int64),
                          (Wi * (w * 2.0**52).astype(np.int64)) @ Wi)
    with np.errstate(invalid="ignore"):  # a failed factor, as _upper_bound calls it
        assert not gaps._cholesky_below(H, 1.0)
        assert not gaps._cholesky_below(H, 1.0 + eps)
    assert gaps._cholesky_below(H, 1.0 + 1e-10)


def _counted_cholesky(monkeypatch, nan=False):
    """Count the certificate's factorizations (made in _cholesky_below), and
    their successes; with ``nan`` each one returns NaN, as a failed one does."""
    real = gaps._umath_linalg
    seen = {"tries": 0, "proved": 0}

    def cholesky_lo(M, **kwargs):
        L = real.cholesky_lo(M, **kwargs)
        if sys._getframe(2).f_code.co_name == "_cholesky_below":  # past gaps._cholesky
            if nan:
                L = np.full_like(L, np.nan)
            seen["tries"] += 1
            seen["proved"] += bool(np.isfinite(L[-1, -1]))
        return L

    monkeypatch.setattr(gaps, "_umath_linalg", SimpleNamespace(
        cholesky_lo=cholesky_lo, solve=real.solve, det=real.det, eigh_lo=real.eigh_lo,
        eigvalsh_lo=real.eigvalsh_lo))
    return seen


def test_a_nan_cholesky_factor_falls_back_to_the_eigenvalue_path(monkeypatch):
    # every certificate fails: each split node takes the eigenvalue path,
    # which gives the bound of the code without the certificate, bit for bit
    prob = _bound_check_triple(32, 0)
    start = solve_multistart(prob, restarts=1, seed=0)
    monkeypatch.setattr(gaps, "_CERT_DIM", 33)
    plain = gaps._upper_bound(prob, start.value, start.maximizer)
    monkeypatch.undo()
    seen = _counted_cholesky(monkeypatch, nan=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gaps._upper_bound(prob, start.value, start.maximizer)
    assert seen["tries"] > 0 and seen["proved"] == 0
    assert got == plain
    upper, _, worst = got
    assert worst is None and start.value <= upper <= start.value + gaps._gap_tol(start.value)


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_the_cholesky_certificate_runs_and_the_bound_holds_at_k32(monkeypatch, seed):
    prob = _bound_check_triple(32, seed)
    seen = _counted_cholesky(monkeypatch)
    res = solve(prob, seed=seed)
    monkeypatch.undo()
    assert seen["proved"] >= 1
    assert res.upper >= res.value and res.gap <= gaps._gap_tol(res.value)
    assert res.upper >= solve_multistart(prob, restarts=64, seed=seed).value
    assert res.upper >= solve_bruteforce(prob, seed=seed, upper=res.upper).value


# (iterations, converged flags, sha256 of X's bytes) of one eight-column
# _newton_ascent on _oracle_case(5) from seeded starts, at the default stop
# test (columns converge after 6 to 8 iterations), at 3e-16 (three converge,
# five stall, after 9 to 21) and at 0 (all stall, after 9 to 70)
_BATCH_RESULTS = {
    1e-10: (8, "11111111", "b52b7eb756aa762d0764245e01ce86f8418d61627c86fde05aa4193c97f6bbec"),
    3e-16: (22, "00110100", "256cbd64f552dd5a55ba49a048558e268dc59a8623f0f0ab1acb146870dc67d8"),
    0.0: (71, "00000000", "41e62e9f05c53808587e80aaf6f97e547aaa6c4f7fdde2122356eb241adfc088"),
}


@pytest.mark.parametrize("tol", list(_BATCH_RESULTS))
def test_batched_ascent_is_bit_stable(monkeypatch, tol):
    monkeypatch.setattr(gaps, "_STEP_TOL", tol)
    prob = _oracle_case(5)
    rng = np.random.default_rng(7)
    X0 = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    X, conv, iters = gaps._newton_ascent(prob, X0, 500)
    flags = "".join(str(int(c)) for c in conv)
    assert (iters, flags, hashlib.sha256(X.tobytes()).hexdigest()) == _BATCH_RESULTS[tol]


def test_wide_batched_ascent_is_bit_stable(monkeypatch):
    # k = 12: _colnorm sums each column pairwise from k = 8 on, so the
    # layout of the write-back's block reaches the bits; at this stop test
    # every column stalls, each after its own number of iterations (32 to 120)
    monkeypatch.setattr(gaps, "_STEP_TOL", 3e-16)
    prob = _bound_check_triple(12, 0)
    rng = np.random.default_rng(3)
    X0 = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    X, conv, iters = gaps._newton_ascent(prob, X0, 500)
    flags = "".join(str(int(c)) for c in conv)
    assert (iters, flags, hashlib.sha256(X.tobytes()).hexdigest()) == (
        120, "00000000", "fbb776f0a4750c35adbb247c8f22425fbb10a561256bcfeccea3395d782e5697")


@pytest.mark.parametrize("i", range(6))
def test_oracle_values_are_stable(i):
    res = solve_bruteforce(_oracle_case(i), samples=2000, seed=i)
    assert abs(res.value - _ORACLE_VALUES[i]) <= 1e-12 * abs(_ORACLE_VALUES[i])
    assert 1 <= res.iterations <= gaps._MAX_SWEEPS


@pytest.mark.parametrize("i", range(6))
def test_geodesic_ascent_never_lowers_a_column(i):
    prob = _oracle_case(i)
    Z, F0 = _sampled_values(prob, 12, seed=i)
    X, F, iters, _ = gaps._geodesic_ascent(prob._stack, Z)
    assert 1 <= iters <= gaps._MAX_SWEEPS
    assert np.all(F >= F0 - 1e-12 * (1.0 + np.abs(F0)))
    assert np.allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-14)
    assert np.allclose([gap_objective(prob, x) for x in X.T], F, rtol=0, atol=1e-12)


def test_geodesic_ascent_stops_at_the_iteration_cap(monkeypatch):
    prob = _oracle_case(5)
    Z, _ = _sampled_values(prob, 4, seed=1)
    for cap in (1, 2):
        monkeypatch.setattr(gaps, "_MAX_SWEEPS", cap)
        assert gaps._geodesic_ascent(prob._stack, Z)[2:] == (cap, "cap")


def _best_axis_gains(M, X):
    """Per column of X, the largest rise of F along the great circle through
    x and any phase 1, i of any coordinate axis, by _line_max from scratch."""
    k, b = X.shape
    MX = M @ X
    q = (X.conj() * MX).real.sum(axis=1)
    F = q[0] - q[1] * q[2]
    best = np.zeros(b)
    for j in range(k):
        for unit in (1.0, 1j):
            # the unit tangent at x toward e = unit e_j in the real inner product
            e = np.zeros((k, b), dtype=complex)
            e[j] = unit
            W = e - X * (X.conj() * e).real.sum(axis=0)
            nu = np.linalg.norm(W, axis=0)
            live = nu > 1e-10
            W = W / np.where(live, nu, 1.0)
            rows = np.stack([q, (W.conj() * MX).real.sum(axis=1),
                             (W.conj() * (M @ W)).real.sum(axis=1)], axis=1)
            Y = np.concatenate([rows[0], (rows[1][:, None] * rows[2]).reshape(9, b)])
            _, Fz = gaps._line_max(gaps._FOURIER @ Y)
            best = np.maximum(best, np.where(live, Fz - F, 0.0))
    return best, F


def _diagonal_triple():
    """A diagonal triple whose maximum 5/2 sits at a vertex of the weights
    |x_i|^2; the gradient steps alone stopped at 2 from some starts."""
    return GapProblem("gamma", np.diag([0.5, 0.5, 2, 2, 0, 0.5]),
                      np.diag([0, -1, 0, 0.5, 0.5, 0.5]), np.diag([-1, 2, 0.5, 0.5, -1, 0]))


@pytest.mark.parametrize("case", [("oracle_case", i) for i in range(6)]
                         + [("diagonal", seed) for seed in range(4)])
def test_a_stalled_ascent_leaves_no_coordinate_geodesic_that_rises(case):
    # "stalled" comes only after a coordinate sweep that gains nothing, so
    # from the columns it returns no axis geodesic rises past the stop test
    source, i = case
    prob = _oracle_case(i) if source == "oracle_case" else _diagonal_triple()
    Z, _ = _sampled_values(prob, 12, seed=i)
    X, F, _, stop = gaps._geodesic_ascent(prob._stack, Z)
    assert stop == "stalled"
    gains, F_out = _best_axis_gains(prob._stack, X)
    assert np.allclose(F_out, F, rtol=0, atol=1e-13 * (1.0 + np.abs(F).max()))
    assert gains.max() <= 1e-13 * (1.0 + np.abs(F).max())


@pytest.mark.parametrize("case", [("oracle_case", i) for i in range(6)]
                         + [("triple", k) for k in (3, 8, 16)])
def test_an_ascent_from_the_maximizer_stays_on_the_sphere(case):
    # at solve's maximizer |g| sits at the rounding level: the direction is
    # projected a second time, or its unit vector carries an x-component of
    # order one, the step leaves the sphere and F's polynomial no longer
    # reads F.  Four phases of the maximizer: one gradient step and one
    # sweep gain nothing, and no column moves
    source, i = case
    prob = _oracle_case(i) if source == "oracle_case" else _bound_check_triple(i, 0)
    res = solve(prob)
    upper = _certified_upper(prob)
    X0 = res.maximizer[:, None] * np.exp(1j * np.linspace(0.0, 3.0, 4))
    X, F, sweeps, stop = gaps._geodesic_ascent(prob._stack, X0)
    assert (sweeps, stop) == (2, "stalled")
    assert np.abs(np.linalg.norm(X, axis=0) - 1.0).max() <= 1e-14
    assert (1.0 - np.abs(X.conj().T @ res.maximizer)).max() <= 1e-12
    assert F.max() <= upper
    assert F.min() >= res.value - 1e-12 * (1.0 + abs(res.value))
    assert np.allclose([gap_objective(prob, x) for x in X.T], F, rtol=0,
                       atol=1e-13 * (1.0 + abs(res.value)))


def test_the_oracle_leaves_the_local_maximum_of_a_diagonal_triple():
    # every coordinate geodesic moves the weights |x_i|^2 along a ray
    # through a vertex of the simplex, and the coordinate ascent alone sent
    # all ten candidates to the local maximum 7/6; the maximum is 73/48
    C = np.diag([0.5, 2, 0.5, 0.5, 0, -1, 0.5, -1, 0])
    S = np.diag([0.5, 0.5, 2, 0.5, -1, 0.5, -1, 0.5, 0])
    D = np.diag([-1, 2, 0, 2, 0.5, 2, 0, 0.5, -1])
    prob = GapProblem("gamma", C, S, D)
    assert abs(solve(prob).value - 73 / 48) <= 1e-15
    res = solve_bruteforce(prob, samples=616, seed=143)
    assert abs(res.value - 73 / 48) <= 1e-12


@pytest.mark.parametrize("i", range(6))
def test_oracle_beats_its_best_sample_and_repeats(i):
    prob = _oracle_case(i)
    res = solve_bruteforce(prob, samples=500, seed=7)
    _, F = _sampled_values(prob, 500, seed=7)
    assert res.value >= F.max() - 1e-12 * (1.0 + abs(F.max()))
    again = solve_bruteforce(prob, samples=500, seed=7)
    assert again.value == res.value and again.iterations == res.iterations
    assert np.array_equal(again.maximizer, res.maximizer)


@pytest.mark.parametrize("samples", [1, 9, 10, 11, 2000])
@pytest.mark.parametrize("k", range(2, 7))
def test_oracle_starts_from_the_samples_complex_arithmetic_picks(k, samples, monkeypatch):
    ascent = gaps._geodesic_ascent
    starts = []

    def spy(M, X0, upper):
        starts.append(X0.copy())
        return ascent(M, X0, upper=upper)

    monkeypatch.setattr(gaps, "_geodesic_ascent", spy)
    rng = np.random.default_rng(k)
    for seed in range(3):
        prob = GapProblem("gamma", *(random_hermitian(k, -2.0, 2.0, rng) for _ in range(3)))
        res = solve_bruteforce(prob, samples=samples, seed=seed)
        # the ten best samples in complex arithmetic, by a full argsort: the
        # same samples in the same order, up to rounding
        Z, Fs = _sampled_values(prob, samples, seed)
        Z = Z[:, np.argsort(Fs)[::-1][:10]]
        assert starts[-1].shape == Z.shape
        assert np.allclose(starts[-1], Z, rtol=0, atol=1e-14)
        X, F, sweeps, _ = ascent(prob._stack, Z)
        x = X[:, int(np.argmax(F))]
        ref = gap_objective(prob, x / np.linalg.norm(x))
        assert abs(res.value - ref) <= 1e-14 * (1.0 + abs(ref))
        assert res.iterations == sweeps


def _crosscheck_instance_54():
    """The eta problem that the benchmark's crosscheck pool sends as instance 54.

    n = 4, f = power:-0.5 with spectra drawn from [0.25, 2.5], no family;
    the same seeded numpy calls as the benchmark's input generator.
    """
    rng = np.random.default_rng([200403312, sum(map(ord, "crosscheck")), 54])
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    Q = Q * (d / np.abs(d))
    H = (Q * rng.uniform(0.25, 2.5, size=4)) @ Q.conj().T
    return build_gap_problem("eta", parse_function("power:-0.5"), [0.5 * (H + H.conj().T)])


def test_oracle_reaches_the_maximum_of_crosscheck_instance_54():
    # at this seed the oracle once stopped at its sweep cap 1.7e-5 short,
    # and gap --oracle reported disagreement
    prob = _crosscheck_instance_54()
    v = solve(prob).value
    res = solve_bruteforce(prob, samples=20000, seed=1642437701)
    assert abs(res.value - v) <= AGREE_RTOL * (1.0 + abs(res.value))
    assert res.value >= v - 1e-12 * (1.0 + abs(v))


def _certified_upper(prob):
    """solve's bound, or for a closed-form result the bound around its maximizer."""
    res = solve(prob)
    if res.solver == "multistart":
        return res.upper
    return gaps._upper_bound(prob, res.value, res.maximizer)[0]


def _stopped_and_free(prob, samples, seed):
    """The oracle with and without the bound; checks the stop's invariants."""
    upper = _certified_upper(prob)
    tau = 1e-8 * (1.0 + abs(upper))
    free = solve_bruteforce(prob, samples=samples, seed=seed)
    stopped = solve_bruteforce(prob, samples=samples, seed=seed, upper=upper)
    assert free.stop in ("stalled", "cap")  # without a bound the oracle never claims one
    assert stopped.value >= upper - tau or stopped.stop == "cap"
    assert stopped.value <= upper
    if samples <= gaps._BLOCK_SAMPLES:
        # only then is the bounded call the free call's draw, stopped early;
        # past one block it draws other samples and sums every block's sweeps
        assert stopped.iterations <= free.iterations
    return stopped, free


@pytest.mark.parametrize("k", range(2, 7))
def test_oracle_stops_at_the_certified_bound(k):
    rng = np.random.default_rng(300 + k)
    for seed in range(3):
        prob = GapProblem("gamma", *(random_hermitian(k, -2.0, 2.0, rng) for _ in range(3)))
        stopped, _ = _stopped_and_free(prob, gaps._BLOCK_SAMPLES, seed)
        assert stopped.stop == "bound"


def test_oracle_stops_at_the_bound_on_crosscheck_instance_54():
    prob = _crosscheck_instance_54()
    for seed in (0, 1, 1642437701):
        stopped, free = _stopped_and_free(prob, 20000, seed)
        # without the bound the ascent ran for tens of sweeps on this problem
        assert stopped.stop == "bound" and stopped.iterations < free.iterations


# (value.hex(), iterations, sha256 of the maximizer's bytes, first 16) of
# solve_bruteforce(_oracle_case(i), samples=_BLOCK_SAMPLES, seed=i,
# upper=its certified bound), as recorded with blocks of 256 samples
_BOUNDED_ORACLE_RESULTS = (
    ("0x1.299b13e44eab0p+1", 2, "1939ef5e612a4415"),
    ("0x1.230c652450bf8p-3", 3, "a2f166b745c03a49"),
    ("0x1.2096b7d67657cp-1", 4, "0402ef4426762c64"),
    ("0x1.aba5938eb15e4p-2", 3, "a5958cec01dba3ad"),
    ("0x1.dfc9df08c1a60p+2", 5, "004c9099ad4c2e0d"),
    ("0x1.ba567bce3474cp-2", 7, "5250131cf6d5cce5"),
)


@pytest.mark.parametrize("i", range(6))
def test_oracle_with_a_bound_and_one_block_of_samples_is_one_draw(i):
    prob = _oracle_case(i)
    upper = _certified_upper(prob)
    block = gaps._BLOCK_SAMPLES
    res = solve_bruteforce(prob, samples=block, seed=i, upper=upper)
    digest = hashlib.sha256(res.maximizer.tobytes()).hexdigest()[:16]
    assert (res.value.hex(), res.iterations, digest) == _BOUNDED_ORACLE_RESULTS[i]
    assert (res.restarts, res.blocks, res.stop) == (block, 1, "bound")
    assert upper - 1e-8 * (1.0 + abs(upper)) <= res.value <= upper


def test_oracle_draws_blocks_until_it_reaches_the_bound_of_triple_8_61(monkeypatch):
    # one draw of 20,000 samples stalled 0.0136 below the bound at 31 of 40
    # seeds, these three among them; blocks of 256 reach it at all 40
    prob = _bound_check_triple(8, 61)
    upper = solve(prob, seed=61).upper
    tau = 1e-8 * (1.0 + abs(upper))
    block = gaps._BLOCK_SAMPLES
    for seed, blocks in ((0, 1), (1, 2), (2, 2)):
        free = solve_bruteforce(prob, samples=20000, seed=seed)
        assert free.stop == "stalled" and free.value < upper - 1e-3
        res = solve_bruteforce(prob, samples=20000, seed=seed, upper=upper)
        assert (res.stop, res.blocks, res.restarts) == ("bound", blocks, block * blocks)
        assert upper - tau <= res.value <= upper
    # under a bound that no unit vector reaches, seed 0's first block finds the
    # maximum and its second stalls 0.0136 below it: the result is the best block's
    ascend, best = gaps._geodesic_ascent, []

    def recorded(M, X0, upper=None):
        out = ascend(M, X0, upper=upper)
        best.append(float(out[1].max()))
        return out

    monkeypatch.setattr(gaps, "_geodesic_ascent", recorded)
    res = solve_bruteforce(prob, samples=2 * block, seed=0, upper=upper + 1.0)
    assert (res.stop, res.blocks) == ("stalled", 2)
    assert best[0] >= upper - tau and best[1] < upper - 1e-3
    assert res.value >= upper - tau


@pytest.mark.parametrize("k, seed, most", [(8, 61, 10), (16, 89, 5), (16, 117, 2)])
def test_oracle_blocks_reach_the_bound_of_the_hard_triples_at_40_seeds(k, seed, most):
    # one 20,000-sample draw stalls below the bound at 31, 5 and 8 of these
    # 40 seeds; no block size may leave one short, nor need more blocks
    # than the 10, 5 and 2 that blocks of 2,000 took
    prob = _bound_check_triple(k, seed)
    upper = solve(prob, seed=seed).upper
    for oracle_seed in range(40):
        res = solve_bruteforce(prob, seed=oracle_seed, upper=upper)
        assert res.stop == "bound" and res.blocks <= most, oracle_seed


@pytest.mark.parametrize("samples", [10, gaps._BLOCK_SAMPLES, gaps._BLOCK_SAMPLES + 1,
                                     2000, 2001, 4500])
@pytest.mark.parametrize("k", range(2, 6))
def test_oracle_never_draws_past_its_cap(k, samples):
    rng = np.random.default_rng(500 + k)
    prob = GapProblem("gamma", *(random_hermitian(k, -2.0, 2.0, rng) for _ in range(3)))
    upper = _certified_upper(prob)
    # a valid bound that no unit vector reaches: the oracle draws the whole cap
    loose = solve_bruteforce(prob, samples=samples, seed=k, upper=upper + 1.0)
    assert loose.stop in ("stalled", "cap") and loose.restarts == samples
    assert loose.blocks == -(-samples // gaps._BLOCK_SAMPLES)
    # its first block is the draw of a one-block call, from the same generator;
    # blocks are compared by the ascent's F, equal to the value up to rounding
    first = solve_bruteforce(prob, samples=min(samples, gaps._BLOCK_SAMPLES), seed=k,
                             upper=upper + 1.0)
    assert loose.value >= first.value - 1e-12 * (1.0 + abs(first.value))
    assert loose.iterations >= first.iterations
    res = solve_bruteforce(prob, samples=samples, seed=k, upper=upper)
    assert res.restarts == min(samples, gaps._BLOCK_SAMPLES * res.blocks)
    assert res.stop == "bound" or res.restarts == samples


def test_oracle_draws_nothing_at_dimension_1():
    prob = GapProblem("gamma", *(np.array([[v]], dtype=complex) for v in (3.0, 1.0, 2.0)))
    for upper in (None, 1.0):
        res = solve_bruteforce(prob, samples=500, upper=upper)
        assert (res.value, res.restarts, res.blocks, res.iterations) == (1.0, 0, 0, 0)


def test_line_max_beats_a_dense_grid():
    P = np.random.default_rng(3).standard_normal((5, 400))
    P[:, :100] *= np.logspace(-8, 8, 100)  # scales across 16 orders
    P[3:, 100:200] = 0.0  # degree-one polynomials
    P[1:3, 200:300] *= 1e-9  # nearly pure second harmonics, two equal peaks
    z, Fz = gaps._line_max(P)
    grid = np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)
    basis = np.stack([np.ones_like(grid), np.cos(grid), np.sin(grid),
                      np.cos(2.0 * grid), np.sin(2.0 * grid)])
    dense = (P.T @ basis).max(axis=1)
    assert np.all(Fz >= dense - 1e-12 * (1.0 + np.abs(dense)))
    # the returned value is F at the returned z
    at_z = np.stack([np.ones_like(z), np.cos(z), np.sin(z), np.cos(2.0 * z), np.sin(2.0 * z)])
    assert np.allclose((P * at_z).sum(axis=0), Fz, rtol=1e-14, atol=1e-14 * np.abs(P).max())


# -- exact maxima of commuting triples ---------------------------------

_ENTRIES = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
                     st.floats(-3.0, 3.0))


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 8), shape=st.sampled_from(["plain", "zero", "affine"]),
       seed=st.integers(0, 2**16), data=st.data())
def test_exact_path_maximizes_commuting_triples(k, shape, seed, data):
    # U diag(c) U^H, U diag(s) U^H, U diag(d) U^H; the sampled entries repeat
    c, s, d = (np.array(data.draw(st.lists(_ENTRIES, min_size=k, max_size=k)))
               for _ in range(3))
    if shape == "zero":
        [c, s, d][data.draw(st.integers(0, 2))][:] = 0.0
    elif shape == "affine":  # an affine f makes D = f'(T) a multiple of I
        d[:] = d[0]
    rng = np.random.default_rng(seed)
    U = random_unitary(k, rng)
    prob = GapProblem("gamma", *(hermitize((U * v) @ U.conj().T) for v in (c, s, d)))
    res = solve(prob)
    assert res.solver == "exact-commuting"
    assert (res.restarts, res.iterations, res.converged) == (0, 0, True)
    v = res.value
    assert abs(np.linalg.norm(res.maximizer) - 1.0) <= 1e-14
    assert v == gap_objective(prob, res.maximizer)
    assert v >= solve_multistart(prob, restarts=64).value - 1e-12 * (1.0 + abs(v))
    assert v >= _sampled_values(prob, 2000, seed)[1].max() - 1e-12 * (1.0 + abs(v))


def test_exact_path_splits_a_collision_of_the_first_combination(monkeypatch):
    # unit-scaled C = diag(p, 1) and S = diag(0, 1) have diagonal differences
    # r and -1 with r = _MIX[1] / _MIX[0], so with D = I the combination _MIX
    # of the three is a multiple of I and its eigenbasis is arbitrary;
    # F = <Cx,x> - <Sx,x> peaks at p
    r = gaps._MIX[1] / gaps._MIX[0]
    p = (1.0 + np.sqrt(1.0 - (1.0 - r * r) ** 2)) / (1.0 - r * r)
    U = random_unitary(2, np.random.default_rng(8))
    prob = GapProblem("gamma", *(hermitize((U * v) @ U.conj().T)
                                 for v in ([p, 1.0], [0.0, 1.0], [1.0, 1.0])))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A) or eigh(A))
    res = solve(prob)
    assert res.solver == "exact-commuting"
    assert len(calls) == 2  # the combination, then the run of both columns
    assert abs(res.value - p) <= 1e-14 * p


def test_exact_path_splits_columns_that_rounding_couples():
    # joint eigenvalues (c, s, d) of (-2, -2, 3) and (-2, 1, -2) sit 0.0064
    # apart in the combination _MIX, so its eigenvectors carry rounding of
    # about eps / 0.0064, above the off-diagonal tolerance: the first basis
    # fails and the split of coupled runs repairs it, with no monkeypatch
    c, s, d = np.full(4, -2.0), np.array([-2.0, -2.0, -2.0, 1.0]), np.array([-2.0, -2.0, 3.0, -2.0])
    U = random_unitary(4, np.random.default_rng(0))
    prob = GapProblem("gamma", *(hermitize((U * v) @ U.conj().T) for v in (c, s, d)))
    units = [X / np.linalg.norm(X) for X in (prob.C, prob.S, prob.D)]
    tol = gaps._COMMUTE_TOL * 4 * np.finfo(float).eps
    first = np.linalg.eigh(gaps._combine(gaps._MIX, units, 4))[1]
    assert not gaps._off_diagonal_within([first.conj().T @ X @ first for X in units], tol)
    res = solve(prob)
    assert res.solver == "exact-commuting"
    assert abs(res.value - 4.0) <= 1e-14 * 4.0  # at the vertex (-2, -2, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_chebyshev_is_the_operator_gruss_constant(n):
    # for f = t^2 the maximal covariance of t and f'(t) = 2t is (M - m)^2 / 2
    A = random_hermitian(n, -1.0, 2.5, np.random.default_rng([7, n]))
    m, M = np.linalg.eigvalsh(A)[[0, -1]]
    res = solve(build_gap_problem("chebyshev", power(2), A))
    assert res.solver == "exact-commuting"
    assert abs(res.value - (M - m) ** 2 / 2) <= 1e-12 * max(1.0, (M - m) ** 2 / 2)


@pytest.mark.parametrize("kind", ["gamma", "delta", "theta"])
def test_non_commuting_solve_is_multistart(kind):
    rng = np.random.default_rng([11, len(kind)])
    a, b = ([random_hermitian(3, 0.3, 2.0, rng) for _ in range(2)] for _ in range(2))
    if kind == "gamma":
        prob = build_gap_problem(kind, power(2), a[0], b[0])
    else:
        prob = build_gap_problem(kind, power(2), a, b,
                                 family=random_unital_family(2, 3, 3, seed=12))
    assert gaps._exact(prob) is None
    # the bound closes on the first start, which is solve_multistart's one start
    res, ref = solve(prob, seed=4), solve_multistart(prob, restarts=1, seed=4)
    assert res.solver == "multistart" and res.value == ref.value and res.repairs == 0
    assert res.maximizer.tobytes() == ref.maximizer.tobytes()
    assert (res.iterations, res.restarts, res.converged) == (
        ref.iterations, ref.restarts, ref.converged)
    v = solve_multistart(prob, restarts=16, seed=4).value
    assert res.value >= v - 1e-12 * (1.0 + abs(v))
    assert res.upper >= v and res.gap == res.upper - res.value
    assert res.gap <= gaps._gap_tol(res.value) and res.eigensolves > 0


def test_fixed_count_solvers_check_their_counts():
    # a count that is not an integer >= 1 is refused by name, not by numpy,
    # on a commuting and on a non-commuting problem
    prob = build_gap_problem("chebyshev", power(2), B2)
    rng = np.random.default_rng(61)
    dim3 = GapProblem("gamma", *(hermitize(rng.standard_normal((3, 3))) for _ in range(3)))
    for p in (prob, dim3):
        for bad in (2.5, True, 0):
            with pytest.raises(BadDimensions, match="restarts must be an integer >= 1"):
                solve_multistart(p, restarts=bad)
        with pytest.raises(BadDimensions, match="samples must be an integer >= 1, got 2.5"):
            solve_bruteforce(p, samples=2.5)


@pytest.mark.parametrize("args", [
    {"max_iter": float("nan")}, {"max_iter": float("inf")}, {"max_iter": "3"},
    {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True}, {"max_iter": False},
])
@pytest.mark.parametrize("ops", ["commuting", "dim2", "dim3"])
def test_solve_checks_solver_arguments_before_any_path(args, ops):
    # solve's ascent settings are constants; the fixed-count solve_multistart
    # still takes max_iter and checks it on every kind of problem
    C, S, D = (hermitize(np.random.default_rng([5, i]).standard_normal((3, 3)))
               for i in range(3))
    prob = {"commuting": build_gap_problem("chebyshev", power(2), B2),
            "dim2": GapProblem("gamma", C[:2, :2], S[:2, :2], D[:2, :2]),
            "dim3": GapProblem("gamma", C, S, D)}[ops]
    with pytest.raises(BadParameter, match="max_iter must be an integer >= 0"):
        solve_multistart(prob, **args)


@pytest.mark.parametrize("solver", [solve, solve_multistart, solve_bruteforce])
def test_a_negative_seed_is_refused_by_name(solver):
    # before any work: solve's closed form draws nothing, and would return;
    # the other two would fail inside numpy with an unnamed message.  A
    # generator or a seed sequence, as solve passes on, is taken
    prob = (build_gap_problem("chebyshev", power(2), B2) if solver is solve
            else _random_triple(3, 0))
    with pytest.raises(BadParameter, match=r"^seed must be an integer >= 0, got -1$"):
        solver(prob, seed=-1)
    for seed in (np.random.default_rng(1), np.random.SeedSequence(1)):
        solver(prob, seed=seed)


@pytest.mark.parametrize("seed", [1.5, True, None, "1", np.float64(2.0), [1, 2]])
@pytest.mark.parametrize("solver", [solve, solve_multistart, solve_bruteforce])
def test_a_seed_that_is_not_an_integer_is_refused_by_name(solver, seed):
    # before any work, as a negative one is; solve's closed form would
    # take any seed, and the others would fail inside numpy or draw from it
    prob = (build_gap_problem("chebyshev", power(2), B2) if solver is solve
            else _random_triple(3, 0))
    with pytest.raises(BadParameter, match=r"^seed must be an integer >= 0, got "):
        solver(prob, seed=seed)


@pytest.mark.parametrize("upper", [float("nan"), float("inf"), -float("inf"), True, "1.0",
                                   10 ** 400, 1.0 + 0.0j, np.array([1.0])],
                         ids=["nan", "inf", "-inf", "True", "str", "1e400", "complex", "array"])
@pytest.mark.parametrize("k", [1, 3])
def test_oracle_refuses_a_bound_that_is_not_a_finite_real_by_name(k, upper):
    # before any work: -inf stopped at "bound" after one block below the
    # maximum, True acted as a bound of 1.0, nan and inf drew the whole cap,
    # and "1.0" failed with an unnamed TypeError
    prob = (GapProblem("gamma", *(np.array([[v]], dtype=complex) for v in (3.0, 1.0, 2.0)))
            if k == 1 else _random_triple(3, 0))
    with pytest.raises(BadParameter, match=r"^upper must be a finite real number or None, got "):
        solve_bruteforce(prob, samples=4000, seed=1, upper=upper)


def test_oracle_takes_any_finite_real_bound():
    # None is no bound; a float, a numpy float and an integer are bounds
    prob = _random_triple(3, 0)
    top = solve(prob).upper
    for upper in (None, top, np.float64(top), math.ceil(top)):
        res = solve_bruteforce(prob, samples=4000, seed=1, upper=upper)
        assert res.value <= top and (res.stop == "bound") == (upper == top)


# -- exact maxima at dimension 2 ------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _random_dim2(seed):
    """A non-commuting 2 x 2 triple; some have a scalar form or mixed scales."""
    rng = np.random.default_rng([41, seed])
    forms = [hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
             for _ in range(3)]
    if seed % 10 == 1:  # a scalar S: F is affine in the Bloch vector
        forms[1] = rng.standard_normal() * np.eye(2, dtype=complex)
    elif seed % 10 == 2:
        forms = [10.0 ** rng.uniform(-3, 3) * M for M in forms]
    return GapProblem("gamma", *forms)


def _restart_maxima(prob, seed):
    """Distinct values, to 1e-8, of the converged restarts of solve_multistart."""
    rng = np.random.default_rng(seed)
    X0 = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    X, conv, _ = gaps._newton_ascent(prob, X0, 500)
    X = X[:, conv]
    qC, qS, qD = (X.conj() * (prob._stack @ X)).real.sum(axis=1)
    F = np.sort(qC - qS * qD)
    return 1 + np.count_nonzero(np.diff(F) > 1e-8 * (1.0 + np.abs(F[1:])))


def test_exact_dim2_reaches_the_maximum_of_random_triples():
    several = 0
    for seed in range(300):
        prob = _random_dim2(seed)
        assert gaps._exact(prob) is None
        res = solve(prob, seed=seed)
        assert res.solver == "exact-dim2"
        assert (res.restarts, res.iterations, res.converged) == (0, 0, True)
        v, tol = res.value, 1e-12 * (1.0 + abs(res.value))
        assert abs(np.linalg.norm(res.maximizer) - 1.0) <= 1e-14
        assert v == gap_objective(prob, res.maximizer)
        assert v >= solve_multistart(prob, restarts=64, seed=seed).value - tol
        assert v >= solve_bruteforce(prob, samples=20000, seed=seed).value - tol
        several += _restart_maxima(prob, seed) >= 2
    # 64 restarts find two or more distinct maxima on a good share of them
    assert several >= 30


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.1, 0.3, 0.7])
def test_exact_dim2_hard_case(eps):
    # S = sigma_x, D = sigma_y, C = 2 eps (sigma_x + sigma_y): b is orthogonal
    # to the least eigenvector of H, and max F = 1/2 + 2 eps^2 for eps < 1/sqrt 2
    prob = GapProblem("gamma", 2.0 * eps * (_SX + _SY), _SX, _SY)
    res = solve(prob)
    assert res.solver == "exact-dim2"
    assert abs(res.value - (0.5 + 2.0 * eps * eps)) <= 1e-14
    # rotated, the exact zeros of the hard case become rounding
    for seed in range(20):
        U = random_unitary(2, np.random.default_rng([43, seed]))
        spun = GapProblem("gamma", *(hermitize(U @ M @ U.conj().T)
                                     for M in (prob.C, prob.S, prob.D)))
        assert abs(solve(spun).value - (0.5 + 2.0 * eps * eps)) <= 1e-14


def test_exact_dim2_is_unitarily_invariant():
    for seed in range(50):
        prob = _random_dim2(seed)
        v = solve(prob).value
        U = random_unitary(2, np.random.default_rng([47, seed]))
        spun = GapProblem("gamma", *(hermitize(U @ M @ U.conj().T)
                                     for M in (prob.C, prob.S, prob.D)))
        assert abs(solve(spun).value - v) <= 1e-14 * (1.0 + abs(v))


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_exact_dim2_scales_without_warnings(scale):
    # F is unchanged by S -> a S, D -> D / a and scales by a under
    # C -> a C, S -> sqrt(a) S, D -> sqrt(a) D; RuntimeWarnings are errors here
    for seed in range(20):
        prob = _random_dim2(seed)
        v = solve(prob).value
        C, S, D = prob.C, prob.S, prob.D
        split = solve(GapProblem("gamma", C, scale * S, D / scale)).value
        assert abs(split - v) <= 1e-14 * (1.0 + abs(v))
        r = np.sqrt(scale)
        whole = solve(GapProblem("gamma", scale * C, r * S, r * D)).value
        assert abs(whole / scale - v) <= 1e-14 * (1.0 + abs(v))


def test_exact_dim2_never_runs_newton_cg(monkeypatch):
    def fail(*args):
        raise AssertionError("Newton-CG ran at k = 2")

    monkeypatch.setattr(gaps, "_newton_ascent", fail)
    monkeypatch.setattr(gaps, "_newton_ascent_one", fail)
    for seed in range(50):
        assert solve(_random_dim2(seed)).solver == "exact-dim2"
    for eps in (0.0, 0.5, 1.0):
        assert solve(GapProblem("gamma", eps * _SX, _SX, _SY)).solver == "exact-dim2"


def test_solve_labels_by_dimension_and_commutation():
    U = random_unitary(2, np.random.default_rng(53))
    commuting = GapProblem("gamma", *(hermitize((U * v) @ U.conj().T)
                                      for v in ([1.0, 3.0], [0.5, -1.0], [2.0, 0.25])))
    assert solve(commuting).solver == "exact-commuting"
    rng = np.random.default_rng(59)
    dim3 = GapProblem("gamma", *(hermitize(rng.standard_normal((3, 3))) for _ in range(3)))
    res = solve(dim3, seed=1)
    assert res.solver == "multistart" and res.restarts == 1  # the bound closes on one start
    # a non-finite problem is refused when it is built
    with pytest.raises(NonFinite, match=r"^C of the gamma problem has a non-finite entry"):
        GapProblem("gamma", np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex), _SX, _SY)


# -- certified upper bound ------------------------------------------------


def _random_triple(k, seed):
    rng = np.random.default_rng([71, k, seed])
    return GapProblem("gamma", *(hermitize(rng.standard_normal((k, k))
                                           + 1j * rng.standard_normal((k, k)))
                                 for _ in range(3)))


@pytest.mark.parametrize("k", [3, 5, 8, 16])
def test_bound_closes_above_the_64_restart_maximum(k):
    for seed in range(16):
        prob = _random_triple(k, seed)
        res = solve(prob, seed=seed)
        v = solve_multistart(prob, restarts=64, seed=seed).value
        assert res.solver == "multistart"
        assert res.upper >= v and res.upper >= res.value
        assert res.value >= v - 1e-12 * (1.0 + abs(v))
        assert res.gap == res.upper - res.value <= gaps._gap_tol(res.value)
        # each repair round adds at most two eigensolves and one bound
        assert res.restarts == 1 and res.repairs <= gaps._REPAIRS
        assert 5 <= res.eigensolves <= (1 + res.repairs) * (gaps._BOUND_EIGENSOLVES + 2)


@pytest.mark.parametrize("seed", [1, 3, 5, 6])
def test_bound_closes_where_the_top_eigenvalue_is_double(seed):
    # vartheta under one pinching: C, S and D share its blocks, and at the
    # maximum L = C - <Dx,x> S - <Sx,x> D has a double top eigenvalue, the
    # case in which one multiplier per interval left the bound open
    fam = MapFamily((Pinch(4, ((2, 1), (3,), (0,))),))
    A = random_hermitian(4, 0.2, 2.0, np.random.default_rng([67, seed]))
    prob = build_gap_problem("vartheta", power(2), A, family=fam)
    res = solve(prob)
    x = res.maximizer
    qS, qD = (np.vdot(x, X @ x).real for X in (prob.S, prob.D))
    w = np.linalg.eigvalsh(prob.C - qD * prob.S - qS * prob.D)
    assert w[-1] - w[-2] <= 1e-9 * (1.0 + abs(w[-1]))
    assert res.solver == "multistart" and res.gap <= gaps._gap_tol(res.value)
    assert res.upper >= solve_multistart(prob, restarts=64).value


def test_an_open_bound_with_no_worst_node_ends_after_the_start(monkeypatch):
    # with no Newton steps the first start keeps its random point, so the
    # bound stays open; a bound that names no worst node runs no repair,
    # and the start is reported as it stands, with its bound
    bound = gaps._upper_bound
    monkeypatch.setattr(gaps, "_upper_bound", lambda *args: (*bound(*args)[:2], None))
    prob = _random_triple(5, 0)
    v = solve_multistart(prob, restarts=64).value
    monkeypatch.setattr(gaps, "_MAX_ITER", 0)
    for seed in (3, 5):
        res = solve(prob, seed=seed)
        first = solve_multistart(prob, restarts=1, max_iter=0, seed=seed)
        assert res.value == first.value
        assert res.maximizer.tobytes() == first.maximizer.tobytes()
        assert (res.restarts, res.iterations, res.repairs) == (1, 0, 0)
        upper, evals, _ = bound(prob, first.value, first.maximizer)
        assert res.upper == upper >= v and res.gap > gaps._gap_tol(res.value)
        assert res.eigensolves == evals


def test_repair_rounds_lift_a_start_without_newton_steps(monkeypatch):
    # with no Newton steps each repair round keeps its S-lemma point as it
    # is; every round lifts the value and leaves the bound open, so all
    # _REPAIRS rounds run, each from the worst node of the bound around
    # the point of the round before, and the lowest bound is reported
    prob = _random_triple(5, 0)
    v = solve_multistart(prob, restarts=64).value
    monkeypatch.setattr(gaps, "_MAX_ITER", 0)
    for seed in (3, 5):
        res = solve(prob, seed=seed)
        first = solve_multistart(prob, restarts=1, max_iter=0, seed=seed)
        value, x = first.value, first.maximizer
        upper, evals, worst = gaps._upper_bound(prob, value, x)
        uppers = [upper]
        for _ in range(gaps._REPAIRS):
            assert worst is not None
            x = gaps._repair_point(prob, *worst)
            x = x / np.linalg.norm(x)  # as the ascent normalizes its start
            x = x / np.linalg.norm(x)
            assert gap_objective(prob, x) > value
            value = gap_objective(prob, x)
            upper, more, worst = gaps._upper_bound(prob, value, x)
            assert upper - value > gaps._gap_tol(value)
            uppers.append(upper)
            evals += 2 + more
        assert res.value == value and res.maximizer.tobytes() == x.tobytes()
        assert (res.restarts, res.iterations, res.repairs) == (1, 0, gaps._REPAIRS)
        assert res.upper == min(uppers) >= v and res.gap > gaps._gap_tol(res.value)
        assert res.eigensolves == evals


def _bound_check_triple(k, seed):
    """scripts/bound_check.py's random triple."""
    rng = np.random.default_rng([2026, k, seed])
    return GapProblem("gamma", *(hermitize(rng.standard_normal((k, k))
                                           + 1j * rng.standard_normal((k, k)))
                                 for _ in range(3)))


def test_a_repaired_solve_derives_each_problem_datum_once(monkeypatch):
    # the problem stacks C, S and D once, when it is built; the start and
    # the repair each run an ascent and a bound, and all of them read that
    # stack, one norm of each, one spectrum of S and of D and the ascent's
    # data (its basis of S, D and I, -2C and the shift floor) from the
    # problem, which stacks no S to build that basis
    ref = _bound_check_triple(3, 0)
    forms = {"C": ref.C.copy(), "S": ref.S.copy(), "D": ref.D.copy()}
    seen = []

    def counted(label, fn, first=lambda a: a, names="CSD"):
        def call(arg, *args, **kwargs):
            seen.extend((label, name) for name in names if first(arg) is forms[name])
            return fn(arg, *args, **kwargs)
        return call

    real = gaps._umath_linalg
    monkeypatch.setattr(gaps, "_umath_linalg", SimpleNamespace(
        cholesky_lo=real.cholesky_lo, solve=real.solve, det=real.det, eigh_lo=real.eigh_lo,
        eigvalsh_lo=counted("eigvalsh", real.eigvalsh_lo)))
    monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
    for name in ("stack", "concatenate"):
        monkeypatch.setattr(np, name, counted("stack", getattr(np, name), lambda a: a[0], "CS"))
    prob = GapProblem("gamma", forms["C"], forms["S"], forms["D"])
    assert seen == [("stack", "C")]
    seen.clear()
    forms.update(C=prob.C, S=prob.S, D=prob.D)
    res = solve(prob, seed=0)
    assert (res.solver, res.repairs) == ("multistart", 1)
    assert sorted(seen) == [("eigvalsh", "D"), ("eigvalsh", "S"), ("norm", "C"),
                            ("norm", "D"), ("norm", "S")]
    M, basis, C2, _ = prob._ascent
    assert not (M.flags.writeable or basis.flags.writeable or C2.flags.writeable)


@pytest.mark.parametrize("k, seed", [(3, 5), (5, 6)])
def test_one_repair_closes_where_the_start_falls_short(k, seed):
    prob = _bound_check_triple(k, seed)
    start = solve_multistart(prob, restarts=1, seed=seed)
    assert gaps._upper_bound(prob, start.value, start.maximizer)[2] is not None
    res = solve(prob, seed=seed)
    v = solve_multistart(prob, restarts=64, seed=seed).value
    assert (res.solver, res.restarts, res.repairs) == ("multistart", 1, 1)
    assert res.value > start.value and res.value >= v - 1e-12 * (1.0 + abs(v))
    assert res.upper >= v and res.gap <= gaps._gap_tol(res.value)


def test_a_real_problem_repairs():
    # real symmetric forms, held in complex form as every problem is, make
    # the repair's S-lemma point real; the ascent from it runs in complex
    # arithmetic as every other one does
    rng = np.random.default_rng([5, 1])
    prob = GapProblem("gamma", *(A + A.T for A in rng.standard_normal((3, 4, 4))))
    assert prob._stack.dtype == complex
    res = solve(prob, seed=1)
    v = solve_multistart(prob, restarts=64, seed=1).value
    assert (res.solver, res.restarts, res.repairs) == ("multistart", 1, 1)
    assert res.maximizer.dtype == complex and res.gap <= gaps._gap_tol(res.value)
    assert res.value >= v - 1e-12 * (1.0 + abs(v)) and res.upper >= v


def _near_commuting(k, seed):
    """scripts/output_digests.py's near-commuting triple."""
    rng = np.random.default_rng([27, k, seed])
    U = random_unitary(k, rng)
    mats = [hermitize((U * rng.uniform(-2, 2, k)) @ U.conj().T) for _ in range(3)]
    return GapProblem("gamma", *(M + 1e-2 * hermitize(rng.standard_normal((k, k)))
                                 for M in mats))


def test_repair_rounds_close_where_the_start_stops_short():
    # near-commuting triples on which the first start stops well below the
    # maximum with the bound open: the repair rounds reach the 512-start
    # maximum, where the bound closes, with no random start after the first
    for k, seed, repairs, top in ((3, 258, 1, 1.9324059718), (5, 59, 2, 2.4608261532),
                                  (6, 267, 2, 1.3596563880)):
        prob = _near_commuting(k, seed)
        assert gaps._exact(prob) is None
        first = solve_multistart(prob, 1, seed=0)
        assert gaps._upper_bound(prob, first.value, first.maximizer)[2] is not None
        assert first.value < top - 0.19
        res = solve(prob, seed=0)
        assert (res.solver, res.restarts, res.repairs) == ("multistart", 1, repairs)
        assert res.gap <= gaps._gap_tol(res.value)
        v = solve_multistart(prob, 512, seed=0).value
        assert abs(res.value - v) <= 1e-12 * (1.0 + abs(v))
        assert abs(res.value - top) <= 1e-10, (k, seed)


def test_a_near_commuting_start_at_the_maximum_closes_without_repairs():
    # near_commuting(3, 23): the first start holds the maximum 0.6158703005,
    # where 512 starts agree, and the bound closes on it, whose nodes once
    # stopped their multiplier search at 7 evaluations and left it open
    prob = _near_commuting(3, 23)
    res = solve(prob, seed=0)
    assert (res.solver, res.restarts, res.repairs) == ("multistart", 1, 0)
    assert res.gap <= gaps._gap_tol(res.value)
    v = solve_multistart(prob, 512, seed=0).value
    assert abs(res.value - v) <= 1e-12 * (1.0 + abs(v))
    assert abs(res.value - 0.6158703005) <= 1e-10


def test_repair_point_lies_on_its_slice_at_a_double_top():
    # in a random basis, H = C - sD - mu(S - sI) = diag(2, 2, 0, -1) at
    # s = 0.25, mu = 0.7, and S - sI is diag(1, -1) on its top eigenspace:
    # the mixed point has <Sv,v> = s, so F(v) = h(s, mu) = 2, while the
    # bound around a poor point is open at that node
    U = random_unitary(4, np.random.default_rng(89))
    s, mu = 0.25, 0.7
    S = np.diag([1.0, -1.0, 0.3, -0.5]) + s * np.eye(4)
    D = hermitize(np.random.default_rng(97).standard_normal((4, 4)))
    C = np.diag([2.0, 2.0, 0.0, -1.0]) + s * D + mu * (S - s * np.eye(4))
    prob = GapProblem("gamma", *(hermitize(U @ M @ U.conj().T) for M in (C, S, D)))
    x = U[:, 3]
    value = gap_objective(prob, x)
    assert 2.0 > value + gaps._gap_tol(value)
    assert gaps._upper_bound(prob, value, x)[2] is not None
    v = gaps._repair_point(prob, s, mu)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
    assert abs(np.vdot(v, prob.S @ v).real - s) <= 1e-14
    assert abs(gap_objective(prob, v) - 2.0) <= 1e-14
    assert gap_objective(prob, v) >= value + gaps._gap_tol(value)


def _repeated(draw_values, basis, r):
    """U diag(w) U^H for values w whose first r entries are equal."""
    w = np.array(draw_values)
    w[:r] = w[0]
    return hermitize((basis * w) @ basis.conj().T)


@given(k=st.integers(3, 6), data=st.data())
def test_solve_closes_where_s_and_d_have_repeated_eigenvalues(k, data):
    # non-commuting triples whose S and D each have a repeated eigenvalue,
    # in two different random bases: the top eigenvalue of the Lagrangian is
    # often double there, and Newton-CG meets flat directions
    seed = data.draw(st.integers(0, 2**32 - 1))
    rs, rd = (data.draw(st.integers(2, k - 1)) for _ in range(2))
    values = st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k, unique=True)
    rng = np.random.default_rng(seed)
    C = hermitize(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    S = _repeated(data.draw(values), random_unitary(k, rng), rs)
    D = _repeated(data.draw(values), random_unitary(k, rng), rd)
    prob = GapProblem("gamma", C, S, D)
    assume(gaps._exact(prob) is None)
    res = solve(prob, seed=seed)
    v = solve_multistart(prob, restarts=64, seed=seed).value
    assert res.solver == "multistart" and res.gap <= gaps._gap_tol(res.value)
    assert res.upper >= v and res.value >= v - 1e-12 * (1.0 + abs(v))
