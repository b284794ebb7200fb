"""Eigenvalue-slack certificates for operator order statements.

A certificate records the computed constants, the smallest eigenvalue of
the bound matrix minus the bounded one (the slack), and whether that
slack clears the tolerance.  Tolerances are scaled by one plus the
Frobenius norm of the bounding side so that large instances are not
penalized for honest rounding; a NaN, infinite or negative tolerance is
refused before any work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import beta as beta_const
from .constants import _check_ends, kantorovich
from .errors import (
    BadDimensions,
    BadParameter,
    HypothesisViolated,
    NotUnitVector,
)
from .gaps import (REVERSE_KINDS, _as_ops, _as_unit_vector, _assemble, _check_count,
                   _check_seed, _problem, solve)
from .hermitian import _by_size, _calc, _power, random_dominated_pair
from .maps import MapFamily
from .scalarfn import ScalarFunction

__all__ = [
    "Certificate",
    "SandwichResult",
    "OrderViolation",
    "JENSEN_KINDS",
    "CLASSICAL_STATEMENTS",
    "certify_order",
    "certify_jensen",
    "verify_sandwich_pointwise",
    "verify_classical",
    "find_order_violation",
]

DEFAULT_TOL = 1e-8
_HYP_TOL = 1e-10

# Jensen-type statement -> the gap kind whose maximum is its constant
JENSEN_KINDS = {
    "delta_forward": "delta",
    "eta_choi": "eta",
    "theta_reverse": "theta",
    "vartheta_reverse": "vartheta",
}
CLASSICAL_STATEMENTS = (
    "furuta",
    "lowner_heinz",
    "alpha_beta_increasing",
    "alpha_beta_decreasing",
)


@dataclass
class Certificate:
    """Outcome of one certified inequality check."""

    statement: str
    constants: dict
    slack: float
    tol: float
    passed: bool
    solver: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class SandwichResult(NamedTuple):
    """The three sides of the pointwise bound and whether they are ordered."""

    lower: float
    middle: float
    upper: float
    ok: bool


@dataclass
class OrderViolation:
    """A pair A <= B with f(A) <= f(B) failing by ``witness`` < 0."""

    A: np.ndarray
    B: np.ndarray
    witness: float
    trial: int


def _check_tol(tol) -> None:
    if not 0.0 <= tol < np.inf:
        raise BadParameter(f"tol must be finite and >= 0, got {tol}")


def _finish(statement, constants, bound_minus_bounded, ref, tol, solver, inputs) -> Certificate:
    tol_eff = tol * (1.0 + float(np.linalg.norm(ref)))  # ref: the bounding side
    slack = float(np.linalg.eigvalsh(bound_minus_bounded)[0])
    return Certificate(
        statement=statement,
        constants=constants,
        slack=slack,
        tol=tol_eff,
        passed=bool(slack >= -tol_eff),
        solver=solver,
        inputs=inputs,
    )


def _certify_gap(statement, kind, f, a_ops, b_ops, family, tol, seed) -> Certificate:
    """Solve the gap problem of ``kind`` and check the bound it gives."""
    _check_tol(tol)
    _check_seed(seed, generators=False)  # the certificate records it
    problem, asm = _problem(kind, f, a_ops, b_ops, family)
    res = solve(problem, seed=seed)
    # theta and vartheta bound sum Phi_i(f(A_i)) by f(T), the others the reverse
    upper, lower = (asm.fT, asm.Sf) if kind in REVERSE_KINDS else (asm.Sf, asm.fT)
    k = problem.dim
    sizes = {"dim": k} if kind == "gamma" else {"output_dim": k, "maps": asm.maps}
    return _finish(statement, {kind: res.value}, upper + res.value * np.eye(k) - lower, upper,
                   tol, res.record(seed), {**sizes, "function": f.spec_string()})


def certify_order(A, B, f: ScalarFunction, *, tol: float = DEFAULT_TOL,
                  seed=0) -> Certificate:
    """Certify f(B) <= f(A) + gamma * I with the computed gamma.

    Valid for any Hermitian A, B with spectra in f's domain; no order
    relation between A and B is assumed.
    """
    return _certify_gap("gamma-order", "gamma", f, A, B, None, tol, seed)


def certify_jensen(kind: str, f: ScalarFunction, a_ops, b_ops=None,
                   family: MapFamily | None = None, *, tol: float = DEFAULT_TOL,
                   seed=0) -> Certificate:
    """Certify one of the mapped Jensen-type bounds.

    delta_forward:    f(sum Phi_i(B_i)) <= sum Phi_i(f(A_i)) + delta * I
    eta_choi:         f(sum Phi_i(A_i)) <= sum Phi_i(f(A_i)) + eta * I
    theta_reverse:    sum Phi_i(f(A_i)) <= f(sum Phi_i(B_i)) + theta * I
    vartheta_reverse: sum Phi_i(f(A_i)) <= f(sum Phi_i(A_i)) + vartheta * I
    """
    if kind not in JENSEN_KINDS:
        raise ValueError(f"unknown jensen kind {kind!r}")
    return _certify_gap(kind, JENSEN_KINDS[kind], f, a_ops, b_ops, family, tol, seed)


def verify_sandwich_pointwise(f: ScalarFunction, a_ops, b_ops=None,
                              family: MapFamily | None = None, x=None) -> SandwichResult:
    """Evaluate the pointwise two-sided bound at one unit vector x.

    lower  = <sum Phi_i(A_i) x, x> <f'(T) x, x> - <T f'(T) x, x>
    middle = <sum Phi_i(f(A_i)) x, x> - <f(T) x, x>
    upper  = <sum Phi_i(A_i f'(A_i)) x, x> - <sum Phi_i(f'(A_i)) x, x> <T x, x>

    with T = sum Phi_i(B_i); ok means lower <= middle <= upper within DEFAULT_TOL.
    The bound holds for unital families only, so the family (identity
    when omitted) must be unital; ``b_ops`` None reuses the A side.  x must
    be a unit vector with one entry per row of T.
    """
    if x is None:
        raise NotUnitVector("a unit vector x is required")
    asm = _assemble(f, a_ops, b_ops, family)
    k = asm.T.shape[0]
    x = _as_unit_vector(x, k, f"the operands need {k}")

    def q(M) -> float:
        return float(np.real(x.conj() @ (M @ x)))

    lower = q(asm.SA) * q(asm.fpT) - q(asm.tfpT)
    middle = q(asm.Sf) - q(asm.fT)
    upper = q(asm.Stfp) - q(asm.Sfp) * q(asm.T)
    ok = (lower <= middle + DEFAULT_TOL) and (middle <= upper + DEFAULT_TOL)
    return SandwichResult(lower, middle, upper, bool(ok))


# -- classical statements ----------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolated(msg)


def _window(statement: str, spectra, m, M, what: str) -> tuple[float, float]:
    """[m, M], each end defaulting to the hull of ``spectra``, checked to hold them."""
    lo, hi = float(min(w[0] for w in spectra)), float(max(w[-1] for w in spectra))
    m_eff = lo if m is None else float(m)
    M_eff = hi if M is None else float(M)
    _require(0 < m_eff < M_eff, f"{statement} needs 0 < m < M")
    _require(lo >= m_eff - _HYP_TOL and hi <= M_eff + _HYP_TOL, f"{what} must lie in [m, M]")
    return m_eff, M_eff


def _one_operand(op, side: str):
    """(name, checked matrix) of one operand: a one-entry dict names it by its key."""
    ops = _as_ops(op, side)
    if len(ops) != 1:
        raise BadDimensions(f"{side} must be a single operand, got {len(ops)}")
    [(name, A)] = ops.items()
    return name, A


def verify_classical(statement: str, A, B, *, p: float | None = None,
                     f: ScalarFunction | None = None, alpha: float = 1.0,
                     m: float | None = None, M: float | None = None,
                     tol: float = DEFAULT_TOL) -> Certificate:
    """Check one classical order statement on a concrete pair.

    furuta:                 B <= A, A > 0  =>  B**p <= K(m, M, p) A**p, p >= 1
    lowner_heinz:           0 <= A <= B    =>  A**p <= B**p, 0 <= p <= 1
    alpha_beta_increasing:  B <= A, f increasing convex  =>  f(B) <= alpha f(A) + beta
    alpha_beta_decreasing:  B <= A, f decreasing convex  =>  f(A) <= alpha f(B) + beta

    [m, M] defaults to the spectral hull of the constrained operator(s).
    Each operand is checked once, and A and B are decomposed by one stacked
    call; the hypotheses, the hull and the functional calculus all read that
    decomposition.  Inputs that fail a hypothesis raise HypothesisViolated,
    a NaN or infinite m, M or p raises BadInterval before any work, and an
    overflowing image raises NonFinite.  A or B given as a one-entry dict is
    named by its key in errors (the CLI uses the file path), else by "A" or
    "B".
    """
    if statement not in CLASSICAL_STATEMENTS:
        raise ValueError(f"unknown classical statement {statement!r}")
    _check_tol(tol)
    _check_ends(m=m, M=M, p=p)
    a_name, A = _one_operand(A, "A")
    b_name, B = _one_operand(B, "B")
    if A.shape != B.shape:
        raise HypothesisViolated(f"shapes {A.shape} and {B.shape} differ")
    groups = _by_size([A, B], np.linalg.eigh)  # one group: A and B share a size
    wA, wB = groups[0][1][0]
    names = [a_name, b_name]
    inputs = {"dim": A.shape[0]}

    if statement == "furuta":
        _require(p is not None and p >= 1.0, "furuta needs an exponent p >= 1")
        _require(np.linalg.eigvalsh(A - B)[0] >= -_HYP_TOL, "furuta needs B <= A")
        _require(wA[0] > 0, "furuta needs A > 0")
        _require(wB[0] >= -_HYP_TOL, "furuta needs B >= 0")
        m_eff, M_eff = _window(statement, (wA,), m, M, "spectrum of A")
        Ap, Bp = _power(groups, p, names)
        K = kantorovich(m_eff, M_eff, p)
        constants = {"K": K, "p": float(p), "m": m_eff, "M": M_eff}
        bound, ref = K * Ap - Bp, K * Ap
    elif statement == "lowner_heinz":
        _require(p is not None and 0.0 <= p <= 1.0, "lowner_heinz needs p in [0, 1]")
        _require(wA[0] >= -_HYP_TOL, "lowner_heinz needs A >= 0")
        _require(np.linalg.eigvalsh(B - A)[0] >= -_HYP_TOL, "lowner_heinz needs A <= B")
        constants = {"p": float(p)}
        Ap, Bp = _power(groups, p, names)
        bound, ref = Bp - Ap, Bp
    else:  # alpha-beta statements
        _require(f is not None, f"{statement} needs a scalar function")
        _require(alpha > 0, f"{statement} needs alpha > 0")
        _require(np.linalg.eigvalsh(A - B)[0] >= -_HYP_TOL, f"{statement} needs B <= A")
        m_eff, M_eff = _window(statement, (wA, wB), m, M, "spectra of A and B")
        _require(f.domain.contains_interval(m_eff, M_eff),
                 f"[{m_eff}, {M_eff}] must lie inside the domain of f")
        fA, fB = _calc(groups, f, names)
        increasing = statement == "alpha_beta_increasing"
        # f convex means f' is nondecreasing, so one endpoint fixes the sign
        if increasing:
            _require(f.deriv(m_eff) >= -1e-12, "f must be increasing on [m, M]")
        else:
            _require(f.deriv(M_eff) <= 1e-12, "f must be decreasing on [m, M]")
        b_val = beta_const(f, m_eff, M_eff, alpha)
        constants = {"alpha": float(alpha), "beta": b_val, "m": m_eff, "M": M_eff}
        upper, lower = (alpha * fA, fB) if increasing else (alpha * fB, fA)
        bound, ref = upper + b_val * np.eye(len(fA)) - lower, upper
        inputs["function"] = f.spec_string()
    return _finish(statement, constants, bound, ref, tol, {"name": "eigh"}, inputs)


def _violation_window(f: ScalarFunction) -> tuple[float, float]:
    lo = f.domain.lo
    if np.isfinite(lo):
        start = max(lo, 0.0) + 0.05
        return start, start + 2.0
    return 0.5, 2.5


def find_order_violation(f: ScalarFunction, n: int, trials: int, seed,
                         lo: float | None = None, hi: float | None = None):
    """Search random ordered pairs A <= B for lambda_min(f(B) - f(A)) < -1e-8.

    Returns an OrderViolation (a witness that f does not preserve the
    order at dimension n) or None when no violation shows up.  The
    spectra window defaults to a band just inside f's domain.
    """
    _check_count("n", n, f"need dimension n >= 1, got {n}")
    _check_count("trials", trials, f"need at least one trial, got {trials}")
    _check_seed(seed, generators=False)
    _check_ends(lo=lo, hi=hi)
    if lo is None or hi is None:
        w_lo, w_hi = _violation_window(f)
        lo = w_lo if lo is None else lo
        hi = w_hi if hi is None else hi
    base = np.random.SeedSequence(seed)
    for t in range(trials):
        big, small = random_dominated_pair(n, lo, hi, [base.entropy, t])
        A, B = small, big  # A <= B, both exactly Hermitian
        fB, fA = _calc(_by_size([B, A], np.linalg.eigh), f, ["B", "A"])
        witness = float(np.linalg.eigvalsh(fB - fA)[0])
        if witness < -1e-8:
            return OrderViolation(A=A, B=B, witness=witness, trial=t)
    return None
