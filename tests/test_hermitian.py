import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loewner_cert import (
    BadInterval,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    ParseError,
    apply_spectral,
    calc,
    certify_order,
    loewner_leq,
    matrix_from_obj,
    matrix_power,
    matrix_to_obj,
    min_eigenvalue,
    power,
    random_dominated_pair,
    random_hermitian,
    random_unitary,
    spectral_decompose,
)
from loewner_cert.hermitian import _by_size, _spectral_images, hermitize, require_hermitian
from loewner_cert.scalarfn import parse_function

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 6)


def test_require_hermitian_returns_the_exact_hermitian_part():
    rng = np.random.default_rng(12)
    H = random_hermitian(5, -2.0, 2.0, rng)
    A = H + 1e-14 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert not np.array_equal(A, A.conj().T)  # asymmetric at rounding level
    R = require_hermitian(A)
    assert R.tobytes() == hermitize(A).tobytes()
    assert np.array_equal(R, R.conj().T)
    # so hermitizing the checked operand again changes no bit
    assert hermitize(R).tobytes() == R.tobytes()


def test_require_hermitian_accepts_and_rejects():
    A = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert require_hermitian(A).dtype == complex
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        require_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_require_hermitian_rejects_non_finite(bad):
    A = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    A[1, 1] = bad
    with pytest.raises(NonFinite, match="operand B"):
        require_hermitian(A, name="operand B")
    with pytest.raises(NonFinite):
        certify_order(np.eye(2), A, power(2))


def test_require_hermitian_tolerates_rounding():
    A = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
    require_hermitian(A)


@given(n=dims, seed=seeds)
def test_spectral_decompose_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(n, -2.0, 3.0, rng)
    w, U = spectral_decompose(A)
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm((U * w) @ U.conj().T - A) <= 1e-10 * (1 + np.linalg.norm(A))


def test_calc_square_of_symmetry():
    # [[0,1],[1,0]] has spectrum {-1,1}; squaring gives the identity
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(calc(power(2), A), np.eye(2), atol=1e-14)


def test_calc_matches_power_series():
    # independent route: exp(A) via its Taylor series
    from loewner_cert import exponential

    rng = np.random.default_rng(3)
    A = random_hermitian(3, -1.0, 1.0, rng)
    series = np.zeros((3, 3), dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, 40):
        series += term
        term = term @ A / k
    assert np.linalg.norm(calc(exponential(), A) - series) < 1e-12


def test_calc_checks_domain():
    from loewner_cert import DomainError, neglog

    A = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(DomainError):
        calc(neglog(), A)


@given(n=dims, seed=seeds)
def test_matrix_power_halves(n, seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(n, 0.1, 2.0, rng)
    R = matrix_power(A, 0.5)
    assert np.linalg.norm(R @ R - A) <= 1e-10 * (1 + np.linalg.norm(A))


def test_matrix_power_integer_allows_indefinite():
    A = np.diag([-2.0, 3.0]).astype(complex)
    assert np.allclose(matrix_power(A, 2), np.diag([4.0, 9.0]))
    with pytest.raises(Exception):
        matrix_power(A, 0.5)  # negative spectrum has no real root


def test_apply_spectral_clamps_rounding():
    A = np.diag([-5e-12, 1.0]).astype(complex)
    from loewner_cert import parse_interval

    out = apply_spectral(A, np.sqrt, parse_interval("[0,inf)"))
    assert out[0, 0].real == 0.0


@pytest.mark.parametrize("spec", ["exp", "power:2", "power:1.5", "neglog", "power:-0.5",
                                  "affine:2,-1"])
def test_stacked_images_equal_the_single_image_path(spec):
    # five operands of three sizes: one eigh call and one product per size,
    # and every image has the bits of (U * g(w)) @ U* formed for its matrix alone
    f = parse_function(spec)
    rng = np.random.default_rng(7)
    mats = [random_hermitian(n, 0.2, 3.0, rng) for n in (3, 1, 3, 2, 3)]
    fns = {"f": f.value_array, "f'": f.deriv_array, "t f'": lambda w: w * f.deriv_array(w)}
    groups = _by_size(mats, np.linalg.eigh)
    assert [idx for idx, _ in groups] == [[0, 2, 4], [1], [3]]
    stacks = _spectral_images(groups, fns, f.domain, ["X"] * 5, spec)
    for X, stack in zip(mats, stacks, strict=True):
        w, U = np.linalg.eigh(X)
        assert stack.shape == (3, *X.shape)
        for image, fn in zip(stack, fns.values(), strict=True):
            assert np.array_equal(image, hermitize((U * fn(w)) @ U.conj().T))
        assert np.array_equal(stack[0], calc(f, X))


def test_loewner_leq_basics():
    A = np.diag([0.0, 1.0]).astype(complex)
    B = np.diag([1.0, 2.0]).astype(complex)
    chk = loewner_leq(A, B)
    assert chk.holds and math.isclose(chk.slack, 1.0)
    assert not loewner_leq(B, A).holds
    with pytest.raises(DimensionMismatch):
        loewner_leq(A, np.eye(3))


def test_loewner_leq_names_a_difference_that_overflows():
    # both operands are finite and B - A is not: numpy used to warn of the
    # overflow, and min_eigenvalue then raised an error naming neither operand
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"^B - A overflows$"):
            loewner_leq(np.diag([1e308, 1.0]), np.diag([-1e308, 1.0]))


def test_min_eigenvalue():
    assert min_eigenvalue(np.diag([3.0, -1.0, 2.0])) == -1.0


@pytest.mark.parametrize("A", [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.inf]]])
def test_min_eigenvalue_refuses_a_non_finite_entry(A):
    # LAPACK reads the NaN matrix as having least eigenvalue 0.0, so that it
    # would pass as positive semidefinite, and the other as nan with a warning
    with pytest.raises(NonFinite, match=r"^matrix has a non-finite entry$"):
        min_eigenvalue(A)


@given(n=dims, seed=seeds)
def test_random_unitary_is_unitary(n, seed):
    U = random_unitary(n, np.random.default_rng(seed))
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-12 * n


def test_random_unitary_deterministic():
    U1 = random_unitary(4, np.random.default_rng(9))
    U2 = random_unitary(4, np.random.default_rng(9))
    assert np.array_equal(U1, U2)


@given(n=dims, seed=seeds)
def test_random_hermitian_spectrum_window(n, seed):
    A = random_hermitian(n, 0.5, 2.0, np.random.default_rng(seed))
    w = np.linalg.eigvalsh(A)
    assert w[0] >= 0.5 - 1e-10 and w[-1] <= 2.0 + 1e-10


def test_random_hermitian_rejects_bad_window():
    with pytest.raises(BadInterval):
        random_hermitian(2, 2.0, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("lo,hi,message", [
    (-1e308, 1e308, r"^hi - lo exceeds the float range"),
    (0.0, math.inf, "^need a finite hi, got inf"),
    (math.nan, 1.0, "^need a finite lo, got nan"),
    (-math.inf, 1.0, "^need a finite lo, got -inf"),
])
def test_random_hermitian_names_a_window_beyond_the_float_range(lo, hi, message):
    # numpy's uniform used to raise its own OverflowError for these
    with pytest.raises(BadInterval, match=message):
        random_hermitian(2, lo, hi, np.random.default_rng(0))


@given(n=st.integers(1, 5), seed=seeds)
def test_random_dominated_pair_properties(n, seed):
    m, M = 0.5, 2.0
    A, B = random_dominated_pair(n, m, M, seed)
    assert loewner_leq(B, A, tol=1e-12).holds
    wa, wb = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
    assert wa[0] >= m - 1e-9 and wa[-1] <= M + 1e-9
    assert wb[0] >= m and wb[-1] <= M + 1e-9
    # c is maximal: B = A - P, or B has no room left above m
    rng = np.random.default_rng(seed)
    random_hermitian(n, m, M, rng)
    P = random_hermitian(n, 0.1, 1.0, rng)
    c = np.vdot(P, A - B).real / np.vdot(P, P).real
    assert abs(c - 1.0) <= 1e-12 or wb[0] - m <= 1e-12 * (1.0 + M)


def test_random_dominated_pair_without_room_is_an_equal_pair():
    # every eigenvalue of A lies within 1e-10 of m, so c would be below 1e-8
    A, B = random_dominated_pair(3, 1.0, 1.0 + 1e-10, seed=0)
    assert np.array_equal(A, B) and B is not A


def test_random_dominated_pair_names_a_congruence_that_overflows():
    # near the float maximum X = P^-1/2 (A - m'I) P^-1/2 overflows: seed 1
    # used to end in numpy's unnamed LinAlgError, after RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"^P\^-1/2 \(A - m'I\) P\^-1/2 overflows for "
                                            r"the window \[1.0, 1.7e\+308\]$"):
            random_dominated_pair(3, 1.0, 1.7e308, 1)


# sha256 of A's and B's bytes (first 16) of random_dominated_pair(*args), as
# recorded before the overflow check: a window that works keeps its bits
_DOMINATED_PAIRS = {
    (3, 0.5, 2.0, 7): "cb7186e11b1b30d0",
    (5, 1e-3, 1e3, 11): "47246ca342c4d1c5",
    (3, 1.0, 1.7e308, 0): "aed5d71529275348",
    (4, 1e300, 1e307, 2): "9da7947c15028ba8",
}


@pytest.mark.parametrize("args", list(_DOMINATED_PAIRS))
def test_random_dominated_pair_keeps_its_bits(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A, B = random_dominated_pair(*args)
    assert hashlib.sha256(A.tobytes() + B.tobytes()).hexdigest()[:16] == _DOMINATED_PAIRS[args]


def test_random_dominated_pair_rejects_bad_window():
    with pytest.raises(BadInterval):
        random_dominated_pair(2, -1.0, 2.0, 0)
    with pytest.raises(BadInterval):
        random_dominated_pair(2, 0.0, 2.0, 0)
    for m, M, name in ((1.0, math.inf, "M"), (math.nan, 2.0, "m"), (-math.inf, 2.0, "m")):
        with pytest.raises(BadInterval, match=f"^need a finite {name}, got"):
            random_dominated_pair(2, m, M, 0)


# -- JSON form ---------------------------------------------------------


def test_matrix_obj_roundtrip_real():
    A = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    obj = matrix_to_obj(A)
    assert "im" not in obj
    assert np.array_equal(matrix_from_obj(obj), A)


def test_matrix_obj_roundtrip_complex():
    A = np.array([[1.0, 1j], [-1j, 2.0]])
    obj = matrix_to_obj(A)
    assert obj["dim"] == 2 and "im" in obj
    assert np.array_equal(matrix_from_obj(obj), A)


@pytest.mark.parametrize("obj", [
    {}, {"dim": 2}, {"dim": 2, "re": [[1.0]]},
    {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0]]},
    [1, 2], "nope",
])
def test_matrix_from_obj_rejects(obj):
    with pytest.raises(ParseError):
        matrix_from_obj(obj)


@pytest.mark.parametrize("obj,message", [
    ({}, "matrix object needs 'dim' and 're'"),
    ({"dim": [2], "re": [[1.0, 0.0], [0.0, 1.0]]}, "'dim' must be an integer"),
    ({"dim": 2, "re": [[1.0]]}, "'re' must be 2x2 numbers, got shape"),
    ({"dim": 2, "re": [[1.0, 0.0], [0.0]]}, "'re' must be 2x2 numbers, got ragged"),
    ({"dim": 2, "re": [[1.0, "x"], [0.0, 1.0]]}, "'re' must be 2x2 numbers"),
    ({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0], [0.0, 0.0]]},
     "'im' must be 2x2 numbers, got ragged"),
    ({"dim": 2.9, "re": [[1.0, 0.0], [0.0, 1.0]]}, "'dim' must be an integer"),
    ({"dim": True, "re": [[1.0]]}, "'dim' must be an integer"),
    ({"dim": 0, "re": []}, "'dim' must be an integer >= 1$"),
    ({"dim": -2, "re": [[1.0]]}, "'dim' must be an integer >= 1$"),
])
def test_matrix_from_obj_names_source_and_precondition(obj, message):
    # the message names the file and the precondition, not numpy's words
    with pytest.raises(ParseError, match="^f.json: " + message):
        matrix_from_obj(obj, name="f.json")


@pytest.mark.parametrize("call", [require_hermitian, min_eigenvalue, matrix_to_obj,
                                  lambda Z: loewner_leq(Z, Z)])
def test_an_empty_matrix_is_refused_by_name(call):
    with pytest.raises(DimensionMismatch, match=r"^expected a square matrix of size >= 1, "
                                                r"got shape \(0, 0\)$"):
        call(np.zeros((0, 0)))


def test_matrix_from_obj_requires_hermitian():
    with pytest.raises(NotHermitian):
        matrix_from_obj({"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]})


def test_hermitize_projects():
    A = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    H = hermitize(A)
    assert np.array_equal(H, H.conj().T)
    # halving before adding: entries near the float maximum stay finite
    huge = np.diag([1e308, 1.0]).astype(complex)
    assert np.array_equal(hermitize(huge), huge)


# -- functional-calculus consistency ------------------------------------


def test_calc_cube_rank_one():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(calc(power(3), A), [[4.0, 4.0], [4.0, 4.0]], atol=1e-12)


def test_calc_exp_of_zero_is_identity():
    from loewner_cert import exponential
    assert np.allclose(calc(exponential(), np.zeros((3, 3))), np.eye(3),
                       atol=1e-14)


@given(seed=seeds, n=st.integers(1, 5))
def test_calc_affine_is_exact(seed, n):
    from loewner_cert import affine
    rng = np.random.default_rng(seed)
    A = random_hermitian(n, -2.0, 2.0, rng)
    got = calc(affine(1.7, -0.3), A)
    want = 1.7 * A - 0.3 * np.eye(n)
    assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))


@given(seed=seeds)
def test_calc_commutes_with_unitary_conjugation(seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(4, 0.2, 2.0, rng)
    U = random_unitary(4, rng)
    lhs = calc(power(2), U @ A @ U.conj().T)
    rhs = U @ calc(power(2), A) @ U.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@given(seed=seeds)
def test_pointwise_dominance_lifts_to_order(seed):
    # t^2 - (2t - 1) = (t - 1)^2 >= 0 on all of R
    from loewner_cert import affine
    rng = np.random.default_rng(seed)
    A = random_hermitian(3, -2.0, 2.0, rng)
    gap = calc(power(2), A) - calc(affine(2.0, -1.0), A)
    assert min_eigenvalue(gap) >= -1e-10


def test_loewner_example_pairs():
    low = np.array([[1.0, 1.0], [1.0, 1.0]])
    high = np.array([[2.0, 1.0], [1.0, 1.0]])
    chk = loewner_leq(low, high)
    assert chk.holds and abs(chk.slack) < 1e-14
    chk = loewner_leq(high, low)
    assert not chk.holds and abs(chk.slack - (-1.0)) < 1e-14


@given(seed=seeds)
def test_loewner_reflexive_and_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(3, -1.0, 1.0, rng)
    assert loewner_leq(A, A).holds
    B = A + random_hermitian(3, 0.1, 0.5, rng)
    # strict domination one way forbids the reverse
    if loewner_leq(A, B).slack > 1e-8:
        assert not loewner_leq(B, A).holds
