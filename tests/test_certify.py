import importlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loewner_cert import (
    BadDimensions,
    BadInterval,
    BadParameter,
    Conjugation,
    HypothesisViolated,
    LoewnerCertError,
    MapFamily,
    NonFinite,
    NotUnitalFamily,
    NotUnitVector,
    SpectrumOutsideDomain,
    affine,
    apply_spectral,
    build_gap_problem,
    calc,
    certify_jensen,
    certify_order,
    dumps_canonical,
    exponential,
    find_order_violation,
    kantorovich,
    loewner_leq,
    matrix_power,
    min_eigenvalue,
    neglog,
    parse_function,
    power,
    random_dominated_pair,
    random_hermitian,
    random_unital_family,
    random_unitary,
    verify_classical,
    verify_sandwich_pointwise,
)

from loewner_cert.hermitian import require_hermitian

D01 = np.diag([0.0, 1.0]).astype(complex)
D12 = np.diag([1.0, 2.0]).astype(complex)
# does not commute with D12, so gamma problems pairing them take the k = 2
# closed form
N12 = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
# does not commute with D123, so gamma problems pairing them take Newton-CG
D123 = np.diag([1.0, 2.0, 3.0]).astype(complex)
N123 = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, 0.3], [0.2, 0.3, 1.5]], dtype=complex)


def test_certify_order_toy_half():
    cert = certify_order(D01, D01, power(2), tol=1e-6)
    assert cert.statement == "gamma-order"
    assert abs(cert.constants["gamma"] - 0.5) < 1e-6
    # f(A) + gamma I - f(B) = diag(gamma, gamma): slack equals gamma
    assert abs(cert.slack - 0.5) < 1e-6
    assert cert.passed


def test_certify_order_toy_endpoint():
    cert = certify_order(D01, D12, power(2), tol=1e-6)
    assert abs(cert.constants["gamma"] - 4.0) < 1e-6
    assert abs(cert.slack - 1.0) < 1e-6
    assert cert.passed


def test_certify_order_affine_identity():
    cert = certify_order(D12, D12, affine(1.0, 0.0))
    assert abs(cert.constants["gamma"]) < 1e-12
    assert abs(cert.slack) < 1e-12
    assert cert.passed
    assert cert.solver["name"] == "exact-commuting"


def test_certify_order_affine_non_commuting():
    # gamma = lambda_max(B - A) = 1/2, and then A + gamma I - B has slack 0
    cert = certify_order(N12, D12, affine(1.0, 0.0))
    assert abs(cert.constants["gamma"] - 0.5) < 1e-12
    assert abs(cert.slack) < 1e-12
    assert cert.passed
    assert cert.solver["name"] == "exact-dim2" and cert.solver["restarts"] == 0
    # the same at k = 3, where Newton-CG finds gamma
    cert = certify_order(N123, D123, affine(1.0, 0.0))
    assert abs(cert.constants["gamma"] - np.linalg.eigvalsh(D123 - N123)[-1]) < 1e-12
    assert abs(cert.slack) < 1e-12
    assert cert.passed
    assert cert.solver["name"] == "multistart"


def test_slack_shifts_with_constant():
    rng = np.random.default_rng(5)
    A = random_hermitian(3, 0.2, 1.5, rng)
    B = random_hermitian(3, 0.2, 1.5, rng)
    cert = certify_order(A, B, power(2))
    g = cert.constants["gamma"]
    fA, fB = calc(power(2), A), calc(power(2), B)
    for c in (0.5, 2.0):
        shifted = min_eigenvalue(fA + (g + c) * np.eye(3) - fB)
        assert abs(shifted - (cert.slack + c)) < 1e-12


def test_certificate_serializes_canonically():
    cert = certify_order(D01, D12, power(2))
    text = dumps_canonical(cert.to_dict())
    assert text == dumps_canonical(cert.to_dict())
    assert '"statement":"gamma-order"' in text
    assert cert.inputs["function"] == "power:2;dom=(-inf,inf)"
    assert cert.solver["seed"] == 0 and cert.solver["restarts"] == 0


def test_non_commuting_certificate_records_restarts():
    # the bound closes on the first batch, so 8 of the 64 allowed starts run
    cert = certify_order(N123, D123, power(2))
    gamma = cert.constants["gamma"]
    assert cert.solver["name"] == "multistart"
    assert cert.solver["seed"] == 0 and cert.solver["restarts"] == 8
    assert cert.solver["upper"] >= gamma
    assert cert.solver["gap"] == cert.solver["upper"] - gamma <= 1e-8 * (1.0 + abs(gamma))
    assert cert.solver["eigensolves"] > 0
    cert = certify_order(N12, D12, power(2))
    assert cert.solver["name"] == "exact-dim2"
    assert cert.solver["seed"] == 0 and cert.solver["restarts"] == 0
    assert cert.solver["upper"] is None and cert.solver["gap"] is None
    assert cert.solver["eigensolves"] == 0


@pytest.mark.parametrize("kind", [
    "delta_forward", "eta_choi", "theta_reverse", "vartheta_reverse",
])
def test_jensen_certificates_pass(kind):
    rng = np.random.default_rng(17)
    fam = random_unital_family(2, 3, 3, seed=23)
    a_ops = [random_hermitian(3, 0.3, 1.8, rng) for _ in range(2)]
    b_ops = None
    if kind in ("delta_forward", "theta_reverse"):
        b_ops = [random_hermitian(3, 0.3, 1.8, rng) for _ in range(2)]
    cert = certify_jensen(kind, power(2), a_ops, b_ops, family=fam,
                          restarts=24, seed=4)
    assert cert.passed, (kind, cert.slack, cert.tol)
    assert cert.statement == kind


def test_eta_matches_delta_on_equal_operands():
    rng = np.random.default_rng(29)
    fam = random_unital_family(2, 2, 2, seed=31)
    ops = [random_hermitian(2, 0.4, 1.6, rng) for _ in range(2)]
    ce = certify_jensen("eta_choi", power(2), ops, family=fam, seed=2)
    cd = certify_jensen("delta_forward", power(2), ops, ops, family=fam, seed=2)
    assert ce.constants["eta"] == cd.constants["delta"]


def test_jensen_rejects_unknown_kind():
    with pytest.raises(ValueError):
        certify_jensen("zeta", power(2), [D12])


def test_sandwich_hand_values():
    # identity map, A = B = diag(0,1), f = t^2, x = (1,1)/sqrt(2):
    # exact chain (-1/2, 0, 1/2)
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    res = verify_sandwich_pointwise(power(2), D01, x=x)
    assert abs(res.lower - (-0.5)) < 1e-12
    assert abs(res.middle - 0.0) < 1e-12
    assert abs(res.upper - 0.5) < 1e-12
    assert res.ok
    lower, middle, upper, ok = res
    assert (lower, middle, upper, ok) == (res.lower, res.middle, res.upper, res.ok)


def test_nested_list_is_one_operand():
    A, B = [[0.5, 0.2], [0.2, 1.5]], [[1.0, 0.0], [0.0, 2.0]]
    x = np.array([0.6, 0.8])
    assert (verify_sandwich_pointwise(power(2), A, B, x=x)
            == verify_sandwich_pointwise(power(2), np.array(A), np.array(B), x=x))
    for kind in ("delta_forward", "theta_reverse"):
        listed = certify_jensen(kind, power(2), A, B, restarts=8, seed=1)
        arrays = certify_jensen(kind, power(2), np.array(A), np.array(B), restarts=8, seed=1)
        assert listed.constants == arrays.constants and listed.slack == arrays.slack


def test_sandwich_requires_unit_vector():
    with pytest.raises(NotUnitVector):
        verify_sandwich_pointwise(power(2), D01, x=np.array([1.0, 1.0]))
    with pytest.raises(NotUnitVector):
        verify_sandwich_pointwise(power(2), D01)


def test_sandwich_checks_operand_count():
    fam = random_unital_family(2, 2, 2, seed=1)
    with pytest.raises(BadDimensions):
        verify_sandwich_pointwise(power(2), [D01, D01], [D12],
                                  family=fam, x=np.array([1.0, 0.0]))


def test_sandwich_random_instances_ordered():
    rng = np.random.default_rng(41)
    fam = random_unital_family(3, 2, 3, seed=43)
    a_ops = [random_hermitian(2, 0.3, 1.9, rng) for _ in range(3)]
    b_ops = [random_hermitian(2, 0.3, 1.9, rng) for _ in range(3)]
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x /= np.linalg.norm(x)
        res = verify_sandwich_pointwise(power(3), a_ops, b_ops,
                                        family=fam, x=x)
        assert res.ok
        assert res.lower <= res.middle + 1e-8
        assert res.middle <= res.upper + 1e-8


# -- classical statements ----------------------------------------------


FURUTA_A = np.array([[2.0, 1.0], [1.0, 1.0]])
FURUTA_B = np.array([[1.0, 1.0], [1.0, 1.0]])


def test_furuta_explicit_witness():
    cert = verify_classical("furuta", FURUTA_A, FURUTA_B, p=3.0)
    assert cert.passed
    K = cert.constants["K"]
    m, M = cert.constants["m"], cert.constants["M"]
    w = np.linalg.eigvalsh(FURUTA_A)
    assert abs(m - w[0]) < 1e-12 and abs(M - w[1]) < 1e-12
    assert abs(K - kantorovich(m, M, 3.0)) < 1e-12
    # independent route: dense matmul, no functional calculus
    bound = K * (FURUTA_A @ FURUTA_A @ FURUTA_A) - FURUTA_B @ FURUTA_B @ FURUTA_B
    assert min_eigenvalue(bound) >= -1e-8
    assert abs(min_eigenvalue(bound) - cert.slack) < 1e-10


def test_furuta_random_pairs():
    for i, p in enumerate((1.5, 2.0, 3.0)):
        A, B = random_dominated_pair(3, 0.4, 2.5, seed=100 + i)
        cert = verify_classical("furuta", A, B, p=p)
        assert cert.passed, (p, cert.slack)


def test_furuta_hypothesis_checks():
    with pytest.raises(HypothesisViolated):
        verify_classical("furuta", FURUTA_B, FURUTA_A, p=3.0)  # order flipped
    with pytest.raises(HypothesisViolated):
        verify_classical("furuta", FURUTA_A, FURUTA_B, p=0.5)  # p < 1
    sing = np.diag([0.0, 1.0])
    with pytest.raises(HypothesisViolated):
        verify_classical("furuta", sing, np.zeros((2, 2)), p=2.0)  # A not PD
    with pytest.raises(HypothesisViolated):
        verify_classical("furuta", FURUTA_A, FURUTA_B, p=2.0, m=1.0, M=1.5)


def test_lowner_heinz_passes_and_checks_exponent():
    A, B = random_dominated_pair(3, 0.3, 2.0, seed=7)
    # dominated pair gives B <= A; the statement wants A <= B
    cert = verify_classical("lowner_heinz", B, A, p=0.5)
    assert cert.passed
    assert cert.constants == {"p": 0.5}
    with pytest.raises(HypothesisViolated):
        verify_classical("lowner_heinz", B, A, p=1.5)
    with pytest.raises(HypothesisViolated):
        verify_classical("lowner_heinz", A, B, p=0.5)  # order flipped


def test_alpha_beta_both_directions():
    A, B = random_dominated_pair(3, 0.4, 2.2, seed=19)
    up = verify_classical("alpha_beta_increasing", A, B, f=power(2), alpha=1.3)
    down = verify_classical("alpha_beta_decreasing", A, B, f=neglog(), alpha=1.0)
    assert up.passed and down.passed
    assert up.constants["alpha"] == 1.3
    assert "beta" in up.constants and "beta" in down.constants


def test_alpha_beta_hypothesis_checks():
    A, B = random_dominated_pair(2, 0.4, 2.0, seed=3)
    with pytest.raises(HypothesisViolated):
        verify_classical("alpha_beta_increasing", A, B, f=neglog())
    with pytest.raises(HypothesisViolated):
        verify_classical("alpha_beta_decreasing", A, B, f=power(2))
    with pytest.raises(HypothesisViolated):
        verify_classical("alpha_beta_increasing", A, B, f=power(2), alpha=-1.0)
    with pytest.raises(HypothesisViolated):
        verify_classical("alpha_beta_increasing", A, B, f=power(2),
                         m=5.0, M=6.0)


def test_hypotheses_come_before_the_domain_of_a_non_integral_power():
    # p = 1.5 and p = 0.5 need spectra in [0, inf); an indefinite A must
    # fail the statement's own hypothesis, not the functional calculus
    A = np.diag([1.0, -0.5])
    with pytest.raises(HypothesisViolated, match="furuta needs A > 0"):
        verify_classical("furuta", A, A - np.eye(2), p=1.5)  # B <= A
    with pytest.raises(HypothesisViolated, match="lowner_heinz needs A >= 0"):
        verify_classical("lowner_heinz", A, A + np.eye(2), p=0.5)  # A <= B


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_monotonicity_test_names_an_overflowing_derivative():
    # f(A) = A^-3 is finite, but f'(M) = -3 M^-4 at M = 2e-80 is not
    A, B = np.diag([1e-80, 2e-80]), np.diag([0.5e-80, 1e-80])
    with pytest.raises(NonFinite, match=r"^f'\(2e-80\) is not finite, f = power:-3"):
        verify_classical("alpha_beta_decreasing", A, B, f=power(-3))


def test_verify_classical_rejects_unknown():
    with pytest.raises(ValueError):
        verify_classical("unknown", FURUTA_A, FURUTA_B, p=2.0)


def test_verify_classical_names_an_overflowing_operand():
    # finite entries whose largest eigenvalue, 2e308, is beyond the float range
    big = np.full((2, 2), 1e308)
    with pytest.raises(NonFinite, match="^A has an eigenvalue that overflows"):
        verify_classical("lowner_heinz", big, big, p=0.5)
    with pytest.raises(NonFinite, match="^b.json has an eigenvalue that overflows"):
        verify_classical("lowner_heinz", {"a.json": np.zeros((2, 2))}, {"b.json": big},
                         p=0.5)
    with pytest.raises(BadDimensions):
        verify_classical("lowner_heinz", {"a": big, "b": big}, big, p=0.5)


# -- order violation search --------------------------------------------


def test_cube_violation_found():
    hit = find_order_violation(power(3), 2, 10_000, seed=42)
    assert hit is not None
    assert loewner_leq(hit.A, hit.B, tol=1e-12).holds
    direct = min_eigenvalue(calc(power(3), hit.B) - calc(power(3), hit.A))
    assert direct < -1e-8
    assert abs(direct - hit.witness) < 1e-12
    assert 0 <= hit.trial < 10_000


def test_monotone_functions_never_violate():
    assert find_order_violation(affine(2.0, 1.0), 2, 300, seed=0) is None
    assert find_order_violation(power(1.0), 2, 300, seed=0) is None


def test_certify_order_identity_function_general_pair():
    rng = np.random.default_rng(51)
    A = random_hermitian(3, -1.0, 1.5, rng)
    B = random_hermitian(3, -1.0, 1.5, rng)
    cert = certify_order(A, B, affine(1.0, 0.0), tol=1e-8)
    # B <= A + lambda_max(B - A) I is tight: slack 0
    lam = float(np.linalg.eigvalsh(B - A)[-1])
    assert abs(cert.constants["gamma"] - lam) < 1e-9
    assert abs(cert.slack) < 1e-9
    assert cert.passed


def test_delta_single_identity_map_hand_value():
    from loewner_cert import identity_family
    d01 = np.diag([0.0, 1.0]).astype(complex)
    cert = certify_jensen("delta_forward", power(2), [d01], [d01],
                          family=identity_family(2))
    assert abs(cert.constants["delta"] - 0.5) < 1e-6
    assert abs(cert.slack - 0.5) < 1e-6
    assert cert.passed


def test_theta_single_identity_equal_operands_passes():
    from loewner_cert import identity_family
    rng = np.random.default_rng(53)
    A = random_hermitian(3, 0.3, 1.7, rng)
    cert = certify_jensen("theta_reverse", power(2), [A], [A],
                          family=identity_family(3))
    assert cert.passed and cert.slack >= -1e-10


def test_sandwich_collapses_for_identity_function():
    rng = np.random.default_rng(57)
    fam = random_unital_family(2, 2, 2, seed=59)
    a_ops = [random_hermitian(2, 0.3, 1.9, rng) for _ in range(2)]
    b_ops = [random_hermitian(2, 0.3, 1.9, rng) for _ in range(2)]
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x /= np.linalg.norm(x)
    res = verify_sandwich_pointwise(affine(1.0, 0.0), a_ops, b_ops,
                                    family=fam, x=x)
    assert abs(res.lower - res.middle) < 1e-12
    assert abs(res.middle - res.upper) < 1e-12
    assert res.ok


def test_sandwich_scalar_case_is_two_sided_gradient_bound():
    a = np.array([[2.0]], dtype=complex)
    b = np.array([[1.0]], dtype=complex)
    res = verify_sandwich_pointwise(power(2), a, b, x=np.array([1.0]))
    # f'(b)(a-b) <= f(a)-f(b) <= f'(a)(a-b) at a=2, b=1, f=t^2
    assert abs(res.lower - 2.0) < 1e-12
    assert abs(res.middle - 3.0) < 1e-12
    assert abs(res.upper - 4.0) < 1e-12
    assert res.ok


def test_alpha_beta_explicit_window_unit_alpha():
    A, B = random_dominated_pair(3, 1.0, 3.0, seed=61)
    cert = verify_classical("alpha_beta_increasing", A, B, f=power(2),
                            alpha=1.0, m=1.0, M=3.0)
    assert cert.passed
    assert abs(cert.constants["beta"] - 1.0) < 1e-9


@pytest.fixture
def eigh_inputs(monkeypatch):
    """Record the matrices handed to numpy's eigh and the eigvalsh call count."""
    seen = {"eigh": [], "eigvalsh": 0}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counted_eigh(A, *args, **kwargs):
        seen["eigh"].append(np.array(A).tobytes())
        return eigh(A, *args, **kwargs)

    def counted_eigvalsh(A, *args, **kwargs):
        seen["eigvalsh"] += 1
        return eigvalsh(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return seen


def _bound_calls(cert):
    """(eigh, eigvalsh) calls of the certificate's bound: eigvalsh of S and D, then eigh."""
    n = cert.solver["eigensolves"]
    return (n - 2, 2) if n else (0, 0)


def test_certify_order_decomposes_each_operand_once(eigh_inputs):
    rng = np.random.default_rng(61)
    A, B = (random_hermitian(4, 0.3, 2.0, rng) for _ in range(2))
    cert = certify_order(A, B, power(2), restarts=4)
    bound_eigh, bound_eigvalsh = _bound_calls(cert)
    assert bound_eigh > 0  # the triple does not commute, so its maximum is bounded
    # A and B once each, then the bound's own eigenvalue problems
    assert len(eigh_inputs["eigh"]) == 2 + bound_eigh
    assert eigh_inputs["eigvalsh"] == 1 + bound_eigvalsh


@pytest.mark.parametrize("kind", ["delta_forward", "eta_choi",
                                  "theta_reverse", "vartheta_reverse"])
def test_certify_jensen_decomposes_each_operand_once(kind, eigh_inputs):
    m = 3
    rng = np.random.default_rng(62)
    fam = random_unital_family(m, 3, 3, seed=63)
    a_ops = [random_hermitian(3, 0.3, 2.0, rng) for _ in range(m)]
    b_ops = [random_hermitian(3, 0.3, 2.0, rng) for _ in range(m)]
    cert = certify_jensen(kind, power(2), a_ops, b_ops, fam, restarts=4)
    # the bound of a non-commuting triple decomposes its own matrices last
    bound_eigh, bound_eigvalsh = _bound_calls(cert)
    decomposed = eigh_inputs["eigh"][:len(eigh_inputs["eigh"]) - bound_eigh]
    assert len(decomposed) == len(set(decomposed))
    # each A_i and T once; eta's forms are functions of T, so its exact
    # path adds one decomposition and needs no bound.  The B_i of delta and
    # theta (eta and vartheta have none) get eigenvalues only, and the
    # slack one more
    two_sided = kind in ("delta_forward", "theta_reverse")
    exact = kind == "eta_choi"
    assert (bound_eigh > 0) == (not exact)
    assert len(decomposed) == m + 1 + exact
    assert eigh_inputs["eigvalsh"] == (m + 1 if two_sided else 1) + bound_eigvalsh


_CLASSICAL_ARGS = {"furuta": {"p": 1.5}, "lowner_heinz": {"p": 0.5},
                   "alpha_beta_increasing": {"f": power(2)},
                   "alpha_beta_decreasing": {"f": neglog()}}


@pytest.mark.parametrize("statement", sorted(_CLASSICAL_ARGS))
def test_verify_classical_decomposes_each_operand_once(statement, eigh_inputs):
    A, B = random_dominated_pair(3, 0.4, 2.2, seed=19)  # B <= A
    if statement == "lowner_heinz":
        A, B = B, A
    eigh_inputs["eigh"].clear()
    eigh_inputs["eigvalsh"] = 0
    cert = verify_classical(statement, A, B, **_CLASSICAL_ARGS[statement])
    assert cert.passed
    # A and B once each; the hull and the functional calculus read them,
    # and eigvalsh runs once on the order hypothesis and once on the slack
    assert len(eigh_inputs["eigh"]) == 2
    assert eigh_inputs["eigvalsh"] == 2


def test_order_violation_trial_takes_five_decompositions(eigh_inputs):
    random_dominated_pair(4, 0.5, 2.0, seed=3)
    # P's eigh and one eigvalsh give the dominated pair's c in closed form
    assert (len(eigh_inputs["eigh"]), eigh_inputs["eigvalsh"]) == (1, 1)
    eigh_inputs["eigh"].clear()
    eigh_inputs["eigvalsh"] = 0
    assert find_order_violation(affine(2.0, 1.0), 2, 3, seed=0) is None
    # per trial: the pair's two, f(A), f(B) and the witness
    assert (len(eigh_inputs["eigh"]), eigh_inputs["eigvalsh"]) == (3 * 3, 3 * 2)


@pytest.fixture
def hermitian_checks(monkeypatch):
    """Record the operand name of every require_hermitian call in the package."""
    names = []

    def counted(A, **kwargs):
        names.append(kwargs.get("name"))
        return require_hermitian(A, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if (mod_name.startswith("loewner_cert")
                and getattr(module, "require_hermitian", None) is require_hermitian):
            monkeypatch.setattr(module, "require_hermitian", counted)
    return names


def test_certify_order_checks_each_operand_once(hermitian_checks):
    rng = np.random.default_rng(64)
    A, B = (random_hermitian(4, 0.3, 2.0, rng) for _ in range(2))
    certify_order(A, B, power(2), restarts=4)
    assert hermitian_checks == ["A", "B"]


@pytest.mark.parametrize("statement", sorted(_CLASSICAL_ARGS))
def test_verify_classical_checks_each_operand_once(statement, hermitian_checks):
    A, B = random_dominated_pair(3, 0.4, 2.2, seed=19)  # B <= A
    if statement == "lowner_heinz":
        A, B = B, A
    assert verify_classical(statement, A, B, **_CLASSICAL_ARGS[statement]).passed
    assert hermitian_checks == ["A", "B"]


def test_order_violation_trial_checks_nothing(hermitian_checks):
    # the generated pairs are exactly Hermitian and go straight to eigh
    assert find_order_violation(power(3), 2, 200, seed=42) is not None
    assert hermitian_checks == []


def test_eta_certificate_maps_the_a_side_once(monkeypatch):
    calls = []
    apply_sum = MapFamily.apply_sum
    monkeypatch.setattr(MapFamily, "apply_sum",
                        lambda self, ops: calls.append(1) or apply_sum(self, ops))
    rng = np.random.default_rng(65)
    fam = random_unital_family(2, 3, 3, seed=66)
    a_ops = [random_hermitian(3, 0.3, 2.0, rng) for _ in range(2)]
    assert certify_jensen("eta_choi", power(2), a_ops, family=fam, restarts=4).passed
    # the unitality check, then sum Phi_i(A_i), which is also T, and the
    # f, f', t f' sums
    assert len(calls) == 5


@pytest.mark.parametrize("n", [0, -1])
def test_order_violation_needs_positive_dimension(n):
    with pytest.raises(BadDimensions, match=f"need dimension n >= 1, got {n}"):
        find_order_violation(power(3), n, 10, seed=0)


def _psd(w, rng) -> np.ndarray:
    Q = random_unitary(len(w), rng)
    return (Q * np.asarray(w)) @ Q.conj().T


@given(seed=st.integers(0, 2**32 - 1), zeros=st.integers(1, 3),
       bad=st.integers(0, 1))
def test_delta_forward_on_the_closed_endpoint_of_the_domain(seed, zeros, bad):
    # power:1.5 lives on [0, inf): B_i with eigenvalues at 0 (up to rounding)
    # are admitted, and one with an eigenvalue at -1e-6 is refused by name
    f = power(1.5)
    rng = np.random.default_rng(seed)
    fam = random_unital_family(2, 3, 3, seed=seed)
    a_ops = [_psd(rng.uniform(0.2, 2.0, 3), rng) for _ in range(2)]
    spectra = [np.r_[np.zeros(zeros), rng.uniform(0.2, 2.0, 3 - zeros)] for _ in range(2)]
    b_ops = [_psd(w, rng) for w in spectra]
    cert = certify_jensen("delta_forward", f, a_ops, b_ops, fam, restarts=4)
    assert cert.passed
    spectra[bad][0] = -1e-6
    b_ops[bad] = _psd(spectra[bad], rng)
    with pytest.raises(SpectrumOutsideDomain, match=rf"^B\[{bad}\] has eigenvalues") as exc:
        certify_jensen("delta_forward", f, a_ops, b_ops, fam, restarts=4)
    assert exc.value.offending == pytest.approx([-1e-6], rel=1e-6)


@given(seed=st.integers(0, 2**32 - 1), spec=st.sampled_from(["power:-1", "neglog"]),
       e=st.one_of(st.floats(3.0, 330.0), st.just(math.inf)), swap=st.booleans())
def test_near_singular_operand_certifies_or_names_the_failure(seed, spec, e, swap):
    # lambda_min of one operand is 10^-e: from 1e-3 through subnormal down to
    # 0, where rounding in the rotated basis may leave it just outside the
    # domain; the certificate is finite or a named error, and numpy never warns
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    A = _psd(np.r_[10.0 ** -e, rng.uniform(0.2, 2.0, n - 1)], rng)
    B = _psd(rng.uniform(0.2, 2.0, n), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cert = certify_order(*((B, A) if swap else (A, B)), parse_function(spec),
                                 restarts=4)
        except LoewnerCertError:
            return
    assert all(math.isfinite(v) for v in cert.constants.values())
    assert math.isfinite(cert.slack)


def test_sandwich_names_non_finite_operand():
    bad = D12.copy()
    bad[1, 1] = np.nan
    x = np.array([1.0, 0.0])
    with pytest.raises(NonFinite, match="^A has"):
        verify_sandwich_pointwise(power(2), bad, x=x)
    fam = random_unital_family(2, 2, 2, seed=1)
    with pytest.raises(NonFinite, match=r"^A\[1\] has"):
        verify_sandwich_pointwise(power(2), [D12, bad], family=fam, x=x)


def test_sandwich_rejects_non_unital_family():
    # Phi(X) = 2X doubles the identity; the two-sided bound needs Phi(I) = I
    doubled = MapFamily((Conjugation(np.sqrt(2.0) * np.eye(2)),))
    with pytest.raises(NotUnitalFamily):
        verify_sandwich_pointwise(power(2), np.diag([0.5, 1.0]), family=doubled,
                                  x=np.array([1.0, 0.0]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_certificates_refuse_a_bad_tolerance_before_any_work(tol, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A) or eigh(A))
    match = f"tol must be finite and >= 0, got {tol}"
    with pytest.raises(BadParameter, match=match):
        certify_order(N12, D12, power(2), tol=tol)
    with pytest.raises(BadParameter, match=match):
        certify_jensen("eta_choi", power(2), D12, tol=tol)
    with pytest.raises(BadParameter, match=match):
        verify_classical("furuta", D12, D01, p=2.0, tol=tol)
    assert calls == []


@pytest.mark.parametrize("ends,message", [
    ({"m": 1.0, "M": math.inf}, "need a finite M, got inf"),
    ({"m": -math.inf}, "need a finite m, got -inf"),
    ({"M": math.nan}, "need a finite M, got nan"),
])
@pytest.mark.parametrize("statement", ["alpha_beta_increasing", "furuta"])
def test_classical_window_ends_must_be_finite(ends, message, statement):
    A, B = np.diag([2.0, 3.0]), np.diag([1.0, 2.0])  # B <= A, spectra in [1, 3]
    with pytest.raises(BadInterval, match=message):
        verify_classical(statement, A, B, p=2.0, f=power(2), **ends)


# exp(800) and 1e103**3 are beyond the float range
EXP_HUGE = np.diag([800.0, 1.0]).astype(complex)
CUBE_HUGE = np.diag([2e103, 1.0]).astype(complex)
_HALVES = MapFamily((Conjugation(np.eye(2) / np.sqrt(2.0)),) * 2)


@pytest.mark.parametrize("form,image", [
    (lambda: calc(exponential(), EXP_HUGE, name="X"), r"f\(X\)"),
    (lambda: apply_spectral(EXP_HUGE, np.exp, name="X"), r"f\(X\)"),
    (lambda: matrix_power(CUBE_HUGE, 3, name="X"), r"f\(X\)"),
    (lambda: build_gap_problem("gamma", exponential(), D12, EXP_HUGE), r"f\(B\)"),
    (lambda: certify_order(D12, EXP_HUGE, exponential()), r"f\(B\)"),
    (lambda: certify_jensen("eta_choi", exponential(), [D12, EXP_HUGE], family=_HALVES),
     r"f\(A\[1\]\)"),
    (lambda: verify_sandwich_pointwise(exponential(), EXP_HUGE, x=np.array([1.0, 0.0])),
     r"f\(A\)"),
    (lambda: verify_classical("furuta", CUBE_HUGE, D01, p=3.0), r"f\(A\)"),
    (lambda: verify_classical("alpha_beta_increasing", EXP_HUGE, np.diag([799.0, 1.0]),
                              f=exponential()), r"f\(A\)"),
    (lambda: find_order_violation(exponential(), 2, 3, 0, lo=750.0, hi=800.0), r"f\(B\)"),
], ids=["calc", "apply_spectral", "matrix_power", "build_gap_problem", "certify_order",
        "certify_jensen", "verify_sandwich_pointwise", "furuta", "alpha_beta_increasing",
        "find_order_violation"])
def test_overflowing_image_names_its_operand(form, image):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite, match=rf"^{image} has a non-finite entry, f = "):
            form()


@pytest.mark.parametrize("lo,hi,name", [
    (1.0, math.inf, "hi"),
    (None, math.inf, "hi"),
    (math.nan, 2.0, "lo"),
    (math.nan, None, "lo"),
])
def test_violation_window_must_be_finite_before_any_draw(lo, hi, name, monkeypatch):
    certify_module = importlib.import_module("loewner_cert.certify")
    monkeypatch.setattr(certify_module, "random_dominated_pair",
                        lambda *args: pytest.fail("a pair was drawn"))
    with pytest.raises(BadInterval, match=f"^need a finite {name}, got"):
        find_order_violation(power(3), 2, 5, 0, lo=lo, hi=hi)
