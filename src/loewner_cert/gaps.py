"""Sphere maximization problems behind the additive gap constants.

Every constant produced here is the maximum over unit vectors x of

    F(x) = <Cx, x> - <Sx, x> <Dx, x>

for a kind-specific triple of Hermitian matrices (C, S, D):

    gamma      C = B f'(B),            S = A,                    D = f'(B)
    delta      C = T f'(T),            S = sum Phi_i(A_i),       D = f'(T)
    eta        delta with B_i = A_i
    theta      C = sum Phi_i(A_i f'(A_i)), S = sum Phi_i(f'(A_i)), D = T
    vartheta   theta with B_i = A_i
    chebyshev  C = A f'(A),            S = A,                    D = f'(A)

with T = sum Phi_i(B_i).  The value of gamma makes f(B) <= f(A) + gamma*I
a certified inequality; delta/eta/theta/vartheta do the same for the
mapped Jensen-type bounds, and chebyshev is the covariance-style quantity
that is pointwise nonnegative for convex f.  Every kind reads its triple
from one spectral assembly that decomposes each A_i, and T, once; the B_i
need only their eigenvalues.

Two solvers are provided: a multistart Riemannian Newton ascent on the
complex unit sphere (the primary path) and a brute-force sampling oracle
that shares no iteration logic with it.  The oracle ascends its best
samples by exact maxima of F along great circles, each found from F's
five Fourier coefficients on that circle.  The gradient only picks the
circles, as Polak-Ribiere+ conjugate-gradient directions, and a sweep of
the coordinate circles confirms a stall; it takes no Hessian and no
linear solve, and every value it reports is F at a unit vector.
Given a certified upper bound, as ``gap --oracle`` gives it, the oracle
also stops once its best value is within 1e-8 (1 + |bound|) of the bound,
and draws its samples in blocks of _BLOCK_SAMPLES (256) until it gets
there or reaches its cap; that stop reads the dual bound only, never a
primal value.
``solve``, which the certificates and the CLI call, first tries two closed
forms.  When C, S and D commute (chebyshev, eta, vartheta without a family
and many diagonal or pinching families) the maximum lies on an edge of the
simplex of weights on their common eigenbasis, and one pass over the pairs
of eigenvectors finds it.  At k = 2, F is a quadratic on the Bloch sphere,
and a trust-region subproblem in R^3 gives its maximum.  Otherwise it runs
the ascent from one seeded start and bounds max F from above by S-lemma
duality (``_upper_bound``).  While that bound is more than 1e-8
(1 + |value|) above the value found, repair rounds rerun the ascent from
the bound's worst node, at most _REPAIRS of them, as long as each raises
the value.  ``solve_multistart`` is the fixed-count ascent alone.

The primary path is a regularized Newton ascent.  F is invariant
under x -> e^{i phi} x, so each iteration works in the horizontal space
{v : x^H v = 0}.  On it -Hess F is a Hermitian k x k compression plus a
real rank-two term, so each restart's step comes from one complex
Cholesky, one solve and a 2 x 2 Woodbury system: the Newton step of
(sigma - Hess F) eta = grad F with sigma = max(|grad F|, a small floor),
and where that is not positive definite a Levenberg-Marquardt shift
(``_newton_step``, ``_newton_ascent``).  Armijo backtracking along
x -> (x + t eta)/|x + t eta| makes every accepted step increase F.  A
restart stops once its tangent gradient norm is at most _STEP_TOL (1e-10)
or once the line search finds no increase (it stalls where it stands),
and _MAX_ITER (500) caps the outer iterations of every ascent that
``solve`` runs.  The result's ``iterations`` is the number of outer
iterations the batch ran, and ``converged`` is the stop-test flag of the
restart with the best value.  Several restarts run as one lockstep batch
(``_newton_ascent``).  One start, as in ``solve``'s first start and its
repairs, runs the batch's operations in the same order on k-vectors and
Python floats (``_newton_ascent_one``): the same bits, without numpy's
overhead on one-column arrays.  Every solver reads complex forms.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotUnitalFamily,
    NotUnitVector,
)
from .hermitian import _by_size, _check_spectra, _spectral_images, require_hermitian
from .maps import MapFamily, _frozen, check_unital_family
from .scalarfn import ScalarFunction

__all__ = [
    "KINDS",
    "GapProblem",
    "GapResult",
    "build_gap_problem",
    "gap_objective",
    "solve",
    "solve_multistart",
    "solve_bruteforce",
]

KINDS = ("gamma", "delta", "eta", "theta", "vartheta", "chebyshev")
# the kinds whose forms read the A side alone
ONE_OPERAND_KINDS = ("eta", "vartheta", "chebyshev")
# the kinds that take no map family: delta and eta under the identity map
NO_FAMILY_KINDS = ("gamma", "chebyshev")
# the reverse kinds, which bound sum Phi_i(f(A_i)) by f(T)
REVERSE_KINDS = ("theta", "vartheta")

# sufficient-increase fraction of the Newton line search
_ARMIJO = 1e-4
# longest tangent step tried first: x + eta turns x by at most atan(_MAX_STEP)
_MAX_STEP = 1.0
_MIN_STEP = 1e-18
# the Newton step's shift floor relative to |C| + |S| |D|, and the factors
# of its Levenberg-Marquardt restart and growth (_newton_step)
_SHIFT_FLOOR = 1e-8
_LM_FIRST = 3.0
_LM_GROWTH = 4.0
# Sigma^-1 of the Newton step's rank-two term T = U Sigma U^T
_SIGMA_INV = np.array([[0.0, 0.25], [0.25, 0.0]])
# the ascent's stop test on the tangent gradient norm, and the cap on the
# outer iterations of each ascent that solve runs; the bound, not these,
# says how close a reported value is to the maximum
_STEP_TOL = 1e-10
_MAX_ITER = 500

# commutators and off-diagonal parts count as zero below this many units
# of k * eps * (norm product); measured rounding stays under 1.3 units and
# non-commuting bench instances sit above 6e10
_COMMUTE_TOL = 16.0
# weights of the norm-scaled C, S, D whose eigenbasis diagonalizes a
# commuting triple (1 and powers of the inverse plastic number, so that no
# two distinct joint eigenvalues collide in the combination by accident)
_MIX = (1.0, 0.7548776662466927, 0.5698402909980532)
# cap on the Newton steps of the k = 2 secular equation; monotone from its
# lower bound, it took at most 10 on 2,000 random and 250 rotated hard-case
# triples
_DIM2_NEWTON = 100

_REFINE_CANDIDATES = 10
# samples per draw of the oracle while it has a bound (``solve_bruteforce``)
_BLOCK_SAMPLES = 256
# cap on the iterations of one oracle ascent: gradient steps and sweeps
_MAX_SWEEPS = 60
_LINE_GRID = 1024
_LINE_NEWTON = 2


@dataclass(frozen=True)
class GapProblem:
    """The data (C, S, D) of one sphere maximization, tagged by kind.

    The one place a sphere problem is normalized: C, S and D are views of
    one read-only, finite, exactly Hermitian, complex (3, k, k) copy, ``_stack``,
    k >= 1.  The problem computes once, on first use, what the solvers derive
    from them alone: their norms, the spectra of S and D, and the ascent's data.
    """

    kind: str
    C: np.ndarray
    S: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        # complex forms are taken as they are, without a copy
        forms = [np.asarray(getattr(self, label), dtype=complex) for label in "CSD"]
        shapes = [X.shape for X in forms]
        if len(set(shapes)) != 1 or len(shapes[0]) != 2 or not shapes[0][0] == shapes[0][1] > 0:
            raise DimensionMismatch(f"C, S and D of the {self.kind} problem must be square "
                                    f"matrices of one size >= 1, got shapes {shapes}")
        # read-only, so that no later write outdates the derived data
        stack = _frozen(np.stack(forms))
        object.__setattr__(self, "_stack", stack)
        # X - X* is exactly 0 where X is finite and Hermitian; the loop names a form at fault
        with np.errstate(all="ignore"):  # inf - inf is NaN, and X - X* may overflow
            valid = not (stack - stack.conj().swapaxes(1, 2)).any()
        for label, X in zip("CSD", stack):
            if not (valid or np.isfinite(X).all()):
                raise NonFinite(f"{label} of the {self.kind} problem has a non-finite entry")
            if not (valid or (X == X.conj().T).all()):
                raise NotHermitian(f"{label} of the {self.kind} problem is not Hermitian")
            object.__setattr__(self, label, X)

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @cached_property
    def _norms(self) -> tuple:
        """The Frobenius norms of C, S and D."""
        return tuple(float(np.linalg.norm(X)) for X in (self.C, self.S, self.D))

    @cached_property
    def _ascent(self) -> tuple:
        """What every Newton ascent on the problem reads, read-only: (M, basis, C2, floor).

        M is the stack as (3k, k), so that one matmul yields C V, S V and D V;
        coefficient rows times ``basis`` (S, D and I as (3, k k)) plus C2 = -2C
        give a Newton system; floor is the shift floor _SHIFT_FLOOR (|C| + |S| |D|)."""
        k = self.dim
        basis = np.empty((3, k, k), dtype=complex)
        basis[:2] = self._stack[1:]
        basis[2] = np.eye(k)
        nC, nS, nD = self._norms
        return (self._stack.reshape(3 * k, k), _frozen(basis).reshape(3, k * k),
                _frozen(-2.0 * self.C), _SHIFT_FLOOR * (nC + nS * nD))

    @cached_property
    def _spectra(self) -> tuple:
        """The ascending eigenvalues of S and of D, NaN where LAPACK fails (as in _upper_bound)."""
        with np.errstate(all="ignore"):
            return tuple(_eigvalsh(X) for X in (self.S, self.D))


@dataclass
class GapResult:
    """A maximizer of F, how it was found, and the certified bound ``upper``.

    ``gap`` is ``upper - value``; both are None where no bound was computed
    (the closed forms and the bare solvers).  ``eigensolves`` counts the
    eigenvalue problems of the bounds and of ``solve``'s repair rounds, and
    ``repairs`` counts those rounds; every bound counts the spectra of S
    and D, which are solved once per problem.  ``stop`` is why
    the oracle's ascent ended and ``blocks`` counts its draws of samples
    (``solve_bruteforce``); the other solvers leave them None and 0.
    """

    value: float
    maximizer: np.ndarray
    solver: str
    iterations: int
    restarts: int
    converged: bool = True
    upper: float | None = None
    gap: float | None = None
    eigensolves: int = 0
    repairs: int = 0
    stop: str | None = None
    blocks: int = 0

    def record(self, seed) -> dict:
        """The solver record of ``gap --json`` and of certificates."""
        return {"name": self.solver, "restarts": self.restarts,
                "iterations": self.iterations, "converged": self.converged,
                "upper": self.upper, "gap": self.gap, "eigensolves": self.eigensolves,
                "repairs": self.repairs, "seed": seed, "step_tol": _STEP_TOL,
                "max_iter": _MAX_ITER}


def gap_objective(problem: GapProblem, x) -> float:
    """F(x) = <Cx,x> - <Sx,x><Dx,x> for a unit vector x with one entry per row of C."""
    x = _as_unit_vector(x, problem.dim, f"the {problem.kind} problem needs k = {problem.dim}")
    qc = float(np.real(x.conj() @ (problem.C @ x)))
    qs = float(np.real(x.conj() @ (problem.S @ x)))
    qd = float(np.real(x.conj() @ (problem.D @ x)))
    return qc - qs * qd


def _as_unit_vector(x, k: int, needs: str) -> np.ndarray:
    """x as a complex k-vector of norm 1 within 1e-10, else an error that ``needs`` words."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.size != k:
        raise DimensionMismatch(f"x has {x.size} entries, {needs}")
    nrm = float(np.linalg.norm(x))
    if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
        raise NotUnitVector(f"norm {nrm} is not 1 within 1e-10")
    return x


def _rdot(U, V):
    """Column-wise real inner products Re<u_j, v_j>."""
    return (U.conj() * V).real.sum(axis=0)


def _colnorm(X):
    """np.linalg.norm(X, axis=0) by the same reduction, without its wrapper."""
    return np.sqrt(_rdot(X, X))


def _as_ops(ops, side: str) -> dict:
    """Name -> checked operand: ``side`` for one matrix, ``side[i]`` in a list.

    A matrix given as an array or a nested list is one operand: its first
    element is a row.  A dict names its operands by its keys (the CLI uses
    the file paths), and errors about an operand give its name.
    """
    if ops is None:
        return {}
    if isinstance(ops, dict):
        return {name: require_hermitian(A, name=name) for name, A in ops.items()}
    if len(ops) and np.ndim(ops[0]) == 1:
        return {side: require_hermitian(ops, name=side)}
    return {f"{side}[{i}]": require_hermitian(A, name=f"{side}[{i}]")
            for i, A in enumerate(ops)}


@dataclass(frozen=True)
class _Assembly:
    """Mapped sums and f, f', t f' images that every statement reads.

    With T = sum Phi_i(B_i): SA = sum Phi_i(A_i), and for g in (f, f', t f')
    Sg = sum Phi_i(g(A_i)) and gT = g(T).  ``maps`` counts the family.
    """

    maps: int
    SA: np.ndarray
    T: np.ndarray
    Sf: np.ndarray
    Sfp: np.ndarray
    Stfp: np.ndarray
    fT: np.ndarray
    fpT: np.ndarray
    tfpT: np.ndarray


def _assemble(f: ScalarFunction, a_ops, b_ops=None,
              family: MapFamily | None = None) -> _Assembly:
    """Decompose each A_i, and T, once and map their images.

    ``b_ops`` None reuses the A side.  Without a family A and B are single
    operands under the identity map, so the sums are the checked operands
    and their images, and T is B and shares its decomposition; a given
    family must match the operands and be unital, and its B_i need only
    their eigenvalues.  Operands of one size are decomposed by one stacked
    call, and each A_i goes through its map once, with its images, as one
    stack.  Every spectrum must lie inside f's domain and every image and
    mapped sum be finite.
    """
    a = _as_ops(a_ops, "A")
    if not a:
        raise BadDimensions("at least one A operand is required")
    b = a if b_ops is None else _as_ops(b_ops, "B")
    fns = {"f": f.value_array, "f'": f.deriv_array, "t f'": lambda w: w * f.deriv_array(w)}

    def images(named):
        names, mats = zip(*named)
        groups = _by_size(mats, np.linalg.eigh)
        return _spectral_images(groups, fns, f.domain, names, f.spec_string())

    if family is None:
        if len(a) != 1 or len(b) != 1:
            raise BadDimensions("without a map family A and B must be single operands")
        [A], [B] = a.values(), b.values()
        if B.shape != A.shape:
            raise DimensionMismatch("A and B must have the same size")
        stacks = images([*a.items(), *(() if b is a else b.items())])
        return _Assembly(1, A, B, *stacks[0], *stacks[-1])

    if len(a) != len(family) or len(b) != len(family):
        raise BadDimensions(
            f"family of {len(family)} maps needs as many A and B operands"
        )
    for phi, A, B in zip(family.maps, a.values(), b.values()):
        if A.shape[0] != phi.input_dim or B.shape[0] != phi.input_dim:
            raise DimensionMismatch("operand sizes must match the map input dims")
    unital = check_unital_family(family)
    if not np.isfinite(unital.defect):
        raise NotUnitalFamily("unitality defect overflows: sum_i Phi_i(I) is not finite")
    if not unital.holds:
        raise NotUnitalFamily(f"unitality defect {unital.defect:.3e}")

    stacks = [np.concatenate((A[None], X)) for A, X in zip(a.values(), images(a.items()))]
    if b is not a:  # the B_i need only their spectra checked
        _check_spectra(_by_size(list(b.values()), np.linalg.eigvalsh), f.domain, list(b))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sums = family._map_sum(stacks)
    if not np.isfinite(sums).all():
        raise NonFinite("a mapped sum over the A_i has a non-finite entry")
    T = sums[0] if b is a else family._map_sum(list(b.values()))
    [t_images] = images([("T", T)])
    return _Assembly(len(family), sums[0], T, *sums[1:], *t_images)


def _problem(kind: str, f: ScalarFunction, a_ops, b_ops=None,
             family: MapFamily | None = None):
    """build_gap_problem's GapProblem together with the _Assembly it reads."""
    if kind not in KINDS:
        raise ValueError(f"unknown gap kind {kind!r}")
    if kind in NO_FAMILY_KINDS and family is not None:
        raise BadDimensions(f"kind {kind} takes no map family")
    if kind in ONE_OPERAND_KINDS:
        b_ops = None
    elif b_ops is None:
        raise BadDimensions(f"kind {kind} needs B operands")
    asm = _assemble(f, a_ops, b_ops, family)
    if kind in REVERSE_KINDS:
        C, S, D = asm.Stfp, asm.Sfp, asm.T
    else:  # gamma and chebyshev are delta and eta under the identity map
        C, S, D = asm.tfpT, asm.SA, asm.fpT
    return GapProblem(kind, C, S, D), asm


def build_gap_problem(kind: str, f: ScalarFunction, a_ops, b_ops=None,
                      family: MapFamily | None = None) -> GapProblem:
    """Assemble (C, S, D) for one of the six kinds.

    ``a_ops``/``b_ops`` may be single matrices or lists matching the map
    family; eta, vartheta and chebyshev ignore ``b_ops`` and reuse the A
    side.  All operand spectra must lie inside f's domain; the family
    (identity when omitted) must be unital.
    """
    return _problem(kind, f, a_ops, b_ops, family)[0]


# -- LAPACK ---------------------------------------------------------------
# numpy.linalg's gufuncs at fixed signatures (complex but for the Newton step's 2 x 2
# real systems), looked up at each call: where LAPACK fails they give NaN, not an error.


def _lapack(name: str, signature: str):
    return lambda *args: getattr(_umath_linalg, name)(*args, signature=signature)


_eigvalsh = _lapack("eigvalsh_lo", "D->d")
_eigh = _lapack("eigh_lo", "D->dD")
_cholesky = _lapack("cholesky_lo", "D->D")
_solve = _lapack("solve", "DD->D")
_solve_real = _lapack("solve", "dd->d")
_det_real = _lapack("det", "d->d")


# -- multistart Riemannian Newton ascent --------------------------------


def _newton_solve(A, R):
    """(eta, pd): eta solves (K + T) eta = g in each row where pd holds, else eta = g.

    Each row is one restart.  ``A`` stacks its rho I - 2(C - qD S - qS D)
    plus any shift, and ``R`` its columns x, g, u and w: the iterate, the
    tangent gradient and the horizontal parts of Sx and Dx.  On the
    horizontal space x^perp, -Hess F = K + T, with K the compression of A
    and T = 4(u Re<w, .> + w Re<u, .>).  Since Ax = -g, K' = A + x g^H +
    g x^H + x x^H acts as K on x^perp and maps x to x, so one Cholesky of
    K' tests that K is positive definite and one solve gives
    K'^-1 [g, u, w].  In real form T = U Sigma U^T with U = [u, w] and
    Sigma = 4 [[0, 1], [1, 0]], so Woodbury gives eta from the 2 x 2 matrix
    N = Sigma^-1 + U^T K^-1 U, and by Haynsworth inertia additivity K + T is
    positive definite exactly when det N < 0.
    """
    x, g = R[:, :, 0], R[:, :, 1]
    xc = x.conj()
    K = A + x[:, :, None] * (x + g).conj()[:, None, :] + g[:, :, None] * xc[:, None, :]
    B = R[:, :, 1:]
    # a matrix LAPACK fails on gives NaN, and rows that are not pd are dropped
    with np.errstate(all="ignore"):
        pd = _cholesky(K)[:, -1, -1].real > 0.0
        Z = _solve(K, B)
        P = (B.conj().transpose(0, 2, 1) @ Z).real  # Re<b_i, K'^-1 b_j>
        N = P[:, 1:, 1:] + _SIGMA_INV
        pd &= _det_real(N) < 0.0
        y = _solve_real(N, P[:, 1:, :1])
        step = Z[:, :, 0] - (Z[:, :, 1:] @ y)[:, :, 0]
        # K'^-1 u and K'^-1 w keep x-components at the rounding level of
        # |u| and |w|; the line search needs that of |step|
        step -= x * (xc * step).sum(axis=1, keepdims=True)
    if not pd.all():
        step[~pd] = g[~pd]
    return step, pd


def _newton_step(A, R, sigma):
    """eta of each row, for both ascents: ``_newton_solve`` at the shift ``sigma`` in A.

    A row that is not pd is solved again, alone, at _LM_FIRST times its shift
    and then growing by _LM_GROWTH until it is (Levenberg-Marquardt); a shift
    that is not finite leaves eta = g.
    """
    eta, pd = _newton_solve(A, R)
    for i in [i for i, done in enumerate(pd.tolist()) if not done]:
        Ai, Ri, eye, shift = A[i:i + 1], R[i:i + 1], np.eye(A.shape[-1]), _LM_FIRST * sigma[i]
        while True:
            eta[i:i + 1], ok = _newton_solve(Ai + (shift - sigma[i]) * eye, Ri)
            if ok[0] or not math.isfinite(shift):
                break
            shift *= _LM_GROWTH
    return eta


def _newton_ascent(problem: GapProblem, X0, max_iter: int):
    """Lockstep regularized Newton ascent over the columns of X0; returns (X, converged, iters).

    A column leaves the batch when its tangent gradient norm is at most
    _STEP_TOL (converged) or when the line search finds no increase
    above _MIN_STEP (stalled).  With qM = <Mx,x>, the gradient g is the
    horizontal part of G = 2(Cx - qD Sx - qS Dx), and the Riemannian
    Hessian applied to a horizontal E is the horizontal part of

        2(CE - qD SE - qS DE) - 4(Sx Re<Dx,E> + Dx Re<Sx,E>) - Re<x,G> E.

    Each iteration solves (sigma - Hess) eta = g once (``_newton_step``),
    with sigma = max(|g|, _SHIFT_FLOOR (|C| + |S| |D|)) in Frobenius norms:
    the floor keeps the system well conditioned where g is tiny, as at a
    degenerate maximum with a flat direction, and larger shifts follow where
    sigma - Hess is not positive definite (Levenberg-Marquardt).  Armijo
    backtracking along x -> (x + t eta)/|x + t eta| then makes every accepted
    step increase F.
    """
    k = problem.dim
    M, basis, C2, floor = problem._ascent
    X = X0 / np.linalg.norm(X0, axis=0)
    b = X.shape[1]
    converged = np.zeros(b, dtype=bool)
    iters = 0
    work = np.arange(b)  # the live columns
    while True:
        # the live columns' x, g and the horizontal parts of Sx and Dx
        R = np.empty((4, k, work.size), dtype=complex)
        x = np.take(X, work, axis=1, out=R[0])
        xc = x.conj()
        MX = (M @ x).reshape(3, k, -1)
        Q = (xc * MX).real.sum(axis=1)  # qC, qS, qD
        qS, qD = Q[1], Q[2]
        G = 2.0 * (MX[0] - qD * MX[1] - qS * MX[2])
        rho = (xc * G).real.sum(axis=0)
        # projecting the small remainder again leaves an x-component at the
        # rounding level of |g| rather than |G|; the line search needs that
        g = np.subtract(G, x * rho, out=R[1])
        g -= x * (xc * g).sum(axis=0)
        gn = np.sqrt(_rdot(g, g))
        done = gn <= _STEP_TOL
        left = done.any()
        if left:
            converged[work[done]] = True
            live = ~done
        if (left and not live.any()) or iters == max_iter:
            break
        iters += 1
        if left:
            work, R, MX, Q, rho, gn = (work[live], R[..., live], MX[..., live], Q[:, live],
                                       rho[live], gn[live])
            qS, qD = Q[1], Q[2]
            x = R[0]
        np.subtract(MX[1:], x * Q[1:, None], out=R[2:])

        sigma = np.maximum(gn, floor)
        coef = 2.0 * Q[::-1]  # rows 2 qD, 2 qS, then rho + sigma
        coef[2] = rho + sigma
        A = (coef.T @ basis).reshape(-1, k, k) + C2
        eta = _newton_step(A, R.T, sigma).T

        # Armijo backtracking on the increase of F, evaluated without
        # cancellation so that tiny steps near a maximum stay measurable:
        # for x^H eta = 0 and x_t = (x + t eta)/|x + t eta|,
        #   <M x_t, x_t> - <M x, x>
        #     = (2t Re<Mx, eta> + t^2 (<M eta, eta> - <Mx, x>|eta|^2)) / (1 + t^2 |eta|^2)
        # |eta|^2, Re<Mx, eta> and Re<M eta, eta> from one product
        E = np.concatenate([eta[None], MX, (M @ eta).reshape(3, k, -1)])
        W = (eta.conj() * E).real.sum(axis=1)
        nn, lin = W[0], W[1:4]
        quad = W[4:] - Q * nn
        slope = 2.0 * (lin[0] - qD * lin[1] - qS * lin[2])
        t = np.minimum(1.0, _MAX_STEP / np.sqrt(nn))
        pending = np.ones(work.size, dtype=bool)
        lost = np.zeros(work.size, dtype=bool)
        while True:
            tt = t * t
            dC, dS, dD = (2.0 * t * lin + tt * quad) / (1.0 + tt * nn)
            gain = dC - qS * dD - dS * qD - dS * dD
            pending &= ~((gain > 0.0) & (gain >= _ARMIJO * t * slope))
            if not pending.any():
                break
            t = np.where(pending, 0.5 * t, t)
            lost |= pending & ~(t >= _MIN_STEP)
            pending &= ~lost
        if lost.any():  # stalled columns keep x and leave
            moved = ~lost
            work, x, eta, t = work[moved], x[:, moved], eta[:, moved], t[moved]
            if not work.size:
                break
        # Xn takes eta's column-major layout, in which _colnorm sums each
        # column in one fixed order (pairwise from k = 8 on)
        Xn = eta * t
        Xn += x
        Xn /= _colnorm(Xn)
        X[:, work] = Xn
    return X, converged, iters


def _newton_ascent_one(problem: GapProblem, x0, max_iter: int):
    """``_newton_ascent`` from the one start x0, bit for bit; returns (x, converged, iters).

    Each iteration runs the IEEE operations that the batch runs on one
    column, in the same order, and ``_newton_step`` on a one-row stack laid
    out as the batch's.  x, g, u and w are k-vectors, and the scalars of an
    iteration (qC, qS, qD, rho, sigma, |g|, the slope and the step t) and
    the whole line search are Python floats: what costs the batch its time
    on one column is numpy's overhead on one-element arrays.
    """
    k = problem.dim
    M, basis, C2, floor = problem._ascent
    R = np.empty((4, k), dtype=complex)  # x, g, u and w
    Rt = R.T[None]
    x = np.divide(x0, _colnorm(x0), out=R[0])
    iters = 0
    while True:
        xc = x.conj()
        MX = (M @ x).reshape(3, k)
        qC, qS, qD = (xc * MX).real.sum(axis=1).tolist()
        G = 2.0 * (MX[0] - qD * MX[1] - qS * MX[2])
        rho = float((xc * G).real.sum())
        g = np.subtract(G, x * rho, out=R[1])
        g -= x * (xc * g).sum()
        gn = math.sqrt(_rdot(g, g))
        if gn <= _STEP_TOL:
            return x, True, iters
        if iters == max_iter:
            return x, False, iters
        iters += 1
        np.subtract(MX[1], x * qS, out=R[2])
        np.subtract(MX[2], x * qD, out=R[3])

        sigma = max(gn, floor)
        A = (np.array([2.0 * qD, 2.0 * qS, rho + sigma]) @ basis).reshape(1, k, k) + C2
        eta = _newton_step(A, Rt, [sigma])[0]

        # the batch's Armijo backtracking, on Python floats
        E = np.concatenate([eta[None], MX, (M @ eta).reshape(3, k)])
        nn, lC, lS, lD, wC, wS, wD = (eta.conj() * E).real.sum(axis=1).tolist()
        aC, aS, aD = wC - qC * nn, wS - qS * nn, wD - qD * nn
        slope = 2.0 * (lC - qD * lS - qS * lD)
        root = math.sqrt(nn)
        # as the batch's np.minimum: a NaN stays NaN, and |eta| = 0 takes t = 1
        t = min(_MAX_STEP / root, 1.0) if root else 1.0
        while True:
            tt = t * t
            den = 1.0 + tt * nn
            dC = (2.0 * t * lC + tt * aC) / den
            dS = (2.0 * t * lS + tt * aS) / den
            dD = (2.0 * t * lD + tt * aD) / den
            gain = dC - qS * dD - dS * qD - dS * dD
            if gain > 0.0 and gain >= _ARMIJO * t * slope:
                break
            t = 0.5 * t
            if not t >= _MIN_STEP:  # stalled: x stays
                return x, False, iters
        xn = eta * t
        xn += x
        np.divide(xn, _colnorm(xn), out=x)


def solve_multistart(problem: GapProblem, restarts: int = 64, max_iter: int = _MAX_ITER,
                     seed=0) -> GapResult:
    """Best stationary value of F over ``restarts`` seeded sphere starts.

    The restarts run as one lockstep regularized Newton batch, and a single
    restart on its own with the same bits (module docstring), for at most
    ``max_iter`` outer iterations (none took more than 16 in ``fuzz --suite
    all --seed 42``); ``iterations`` counts them and ``converged`` is the
    stop-test flag of the restart that attains the returned value.
    """
    _check_count("restarts", restarts)
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise BadParameter(f"max_iter must be an integer >= 0, got {max_iter}")
    _check_seed(seed)
    k = problem.dim
    rng = np.random.default_rng(seed)
    X0 = rng.standard_normal((k, restarts)) + 1j * rng.standard_normal((k, restarts))
    return _ascend(problem, X0, max_iter)


def _ascend(problem: GapProblem, X0, max_iter: int) -> GapResult:
    """The ascent from the columns of X0, reported at its best column, normalized.

    One column runs ``_newton_ascent_one`` and more run as one batch, with
    the same bits.  The batch serves the agreement fuzz suite, bound_check
    and the tests: a loop of single ascents in its place took Tier-1 from
    25 to 55 s and ``fuzz --suite all --seed 42`` from 0.7 to 1.3 s.
    """
    if X0.shape[1] == 1:
        x, converged, iters = _newton_ascent_one(problem, X0[:, 0], max_iter)
    else:
        X, conv, iters = _newton_ascent(problem, X0, max_iter)
        qC, qS, qD = (X.conj() * (problem._stack @ X)).real.sum(axis=1)
        best = int(np.argmax(qC - qS * qD))
        x, converged = X[:, best], conv[best]
    x = x / np.linalg.norm(x)
    return GapResult(gap_objective(problem, x), x, "multistart", iterations=iters,
                     restarts=X0.shape[1], converged=bool(converged))


# -- exact maxima of commuting triples ----------------------------------


def _combine(weights, mats, k: int) -> np.ndarray:
    return sum((w * M for w, M in zip(weights, mats)), np.zeros((k, k), dtype=complex))


def _off_diagonal_within(mats, tol: float) -> bool:
    """Whether each matrix's off-diagonal part has norm <= tol (False on NaN)."""
    return all(np.linalg.norm(M - np.diag(np.diagonal(M))) <= tol for M in mats)


def _common_basis(units, k: int, tol: float):
    """Columns that diagonalize each unit-norm form in ``units`` to ``tol``, or None.

    The eigenbasis of the combination _MIX does, unless two distinct joint
    eigenvalues nearly collide in it.  The columns left coupled then lie in
    runs of nearly equal eigenvalues of the combination, contiguous in its
    ascending order.  Each such run is rotated by the eigenbasis of a
    combination of its blocks less their means, each weighted by its inner
    product with the largest of them: for two columns every such block is
    a multiple of one matrix, so the combination separates them by the
    squared norm of the forms' eigenvalue differences.
    """
    U = np.linalg.eigh(_combine(_MIX, units, k))[1]
    Y = [U.conj().T @ X @ U for X in units]
    if _off_diagonal_within(Y, tol):
        return U
    # entries below tol / k alone keep an off-diagonal part below tol
    coupled = np.zeros((k, k), dtype=bool)
    for M in Y:
        coupled |= np.abs(M) > tol / k
    coupled |= coupled.T  # rounding may leave |M_ij| and |M_ji| on either side
    np.fill_diagonal(coupled, False)
    # a run ends at i once no column up to i is coupled to one beyond it
    last = np.where(coupled.any(axis=1), k - 1 - np.argmax(coupled[:, ::-1], axis=1),
                    np.arange(k))
    start = 0
    for i in np.flatnonzero(np.maximum.accumulate(last) == np.arange(k)):
        if i > start:
            run, size = slice(start, i + 1), i + 1 - start
            blocks = [M[run, run] - np.trace(M[run, run]).real / size * np.eye(size)
                      for M in Y]
            top = max(blocks, key=np.linalg.norm)
            weights = [np.vdot(top, B).real for B in blocks]
            U[:, run] = U[:, run] @ np.linalg.eigh(_combine(weights, blocks, size))[1]
        start = i + 1
    return U if _off_diagonal_within([U.conj().T @ X @ U for X in units], tol) else None


def _exact(problem: GapProblem):
    """A unit maximizer of F when C, S and D commute, else None.

    On a common eigenbasis u_i, with p_i = |<x, u_i>|^2, F is
    c.p - (s.p)(d.p) on the simplex.  Its Hessian -(s d^T + d s^T) has
    rank <= 2, so on every face of dimension >= 2 it is indefinite or flat
    along some direction and a maximizer lies on an edge or a vertex.
    Along the edge p = t e_i + (1 - t) e_j, F = F_j + t a1 + t^2 a2 is a
    quadratic in t on [0, 1]; the pair (i, i) is the vertex u_i.
    """
    forms = (problem.C, problem.S, problem.D)
    k = problem.dim
    tol = _COMMUTE_TOL * k * np.finfo(float).eps
    units = []  # the nonzero forms scaled to unit norm; a zero form drops out
    for X in forms:
        top = float(np.abs(X).max())
        if top > 0.0:
            X = X / top  # first to the largest entry, so that no square underflows
            units.append(X / np.linalg.norm(X))
    for X, Y in combinations(units, 2):
        if not np.linalg.norm(X @ Y - Y @ X) <= tol:
            return None
    U = _common_basis(units, k, tol)
    if U is None:
        return None
    diag = [_rdot(U, X @ U) for X in forms]
    c, s, d = diag
    # (i, j) entries: differences of row i minus column j, F_j by column
    dc, ds, dd = (v[:, None] - v for v in diag)
    a1 = dc - s * dd - d * ds
    a2 = -ds * dd
    # concave edges peak at the clipped stationary point, the rest at an end
    peak = np.divide(-a1, 2.0 * a2, out=np.zeros_like(a1), where=a2 < 0.0)
    t = np.where(a2 < 0.0, np.clip(peak, 0.0, 1.0), (a1 + a2 > 0.0).astype(float))
    i, j = np.unravel_index(np.argmax(t * (a1 + t * a2) + (c - s * d)), t.shape)
    x = np.sqrt(t[i, j]) * U[:, i] + np.sqrt(1.0 - t[i, j]) * U[:, j]
    return x / np.linalg.norm(x)


# -- exact maxima at dimension 2 ----------------------------------------


def _bloch(M):
    """(m0, m) with M = m0 I + m . (sigma_x, sigma_y, sigma_z), halving before adding."""
    m0 = 0.5 * M[0, 0].real + 0.5 * M[1, 1].real
    m = np.array([0.5 * M[0, 1].real + 0.5 * M[1, 0].real,
                  0.5 * M[1, 0].imag - 0.5 * M[0, 1].imag,
                  0.5 * M[0, 0].real - 0.5 * M[1, 1].real])
    return m0, m


def _exact_dim2(problem: GapProblem):
    """A unit maximizer of F for a 2 x 2 problem, else None.

    With M = m0 I + m . sigma, <Mx, x> = m0 + m . r for the Bloch vector r
    of x, so F = const + g . r - (s . r)(d . r) with g = c - s0 d - d0 s,
    and a maximizer minimizes r^T H r - 2 b^T r on |r| = 1 for
    H = (s d^T + d s^T) / 2 and b = g / 2: a trust-region subproblem.  Its
    multiplier lambda is the least real eigenvalue of [[H, -I], [-b b^T, H]]
    (Gander, Golub & von Matt, 1989), and r = (H - lambda I)^-1 b.  Near the
    hard case that eigenvalue is a near double one, which ``eig`` can return
    as a complex pair, so lambda = h_1 - mu is found instead as the root of
    |r| = 1 in the eigenbasis of H: with beta = Q^T b and d_i = h_i - h_1,
    r_i = beta_i / (d_i + mu).  1 / |r| is concave and increasing in mu, so
    Newton steps from the lower bound max(|beta_1|, |beta| - d_3) rise
    monotonically to the root.  In the hard case, b orthogonal to the h_1
    eigenspace with |(H - h_1 I)^+ b| <= 1, mu = 0 and r adds the
    h_1 eigenvector that makes |r| = 1.  H and b are scaled first so that
    their largest entries are at most 1.
    """
    if problem.dim != 2:
        return None
    (_, c), (s0, s), (d0, d) = (_bloch(M) for M in (problem.C, problem.S, problem.D))
    g = c - s0 * d - d0 * s
    sig, dlt, gam = (float(np.abs(v).max()) for v in (s, d, g))
    # weights of s d^T and g, of which the larger is 1 (Python floats do
    # not warn when a product underflows or overflows)
    if gam <= sig * dlt:
        wH, wb = 1.0, (gam / sig / dlt if gam > 0.0 else 0.0)
    else:
        wH, wb = sig * dlt / gam, 1.0
    us, ud = (v / m if m > 0.0 else v for v, m in ((s, sig), (d, dlt)))
    H = 0.5 * wH * (np.outer(us, ud) + np.outer(ud, us))
    h, Q = np.linalg.eigh(H)
    beta = Q.T @ (0.5 * wb * (g / gam if gam > 0.0 else g))
    gap = h - h[0]
    low = gap == 0.0
    y = np.zeros(3)
    # the hard case: every |y_i| = |beta_i| / d_i <= 1 first, so none overflows
    if not beta[low].any() and np.all(np.abs(beta[~low]) <= gap[~low]):
        y[~low] = beta[~low] / gap[~low]
        if y @ y <= 1.0:
            y[0] = np.sqrt(1.0 - y @ y)
            return _bloch_to_vector(Q @ y)
    mu = max(float(np.linalg.norm(beta[low])), float(np.linalg.norm(beta)) - gap[-1], 0.0)
    for _ in range(_DIM2_NEWTON):
        shift = gap + mu
        y = np.divide(beta, shift, out=np.zeros(3), where=shift > 0.0)
        n = np.sqrt(y @ y)
        # Newton on 1/|r| - 1 = 0; |r| > 1 left of the root
        step = n * n * (n - 1.0) / np.divide(y * y, shift, out=np.zeros(3),
                                             where=shift > 0.0).sum()
        if not step > 4.0 * np.finfo(float).eps * mu:
            break
        mu += step
    return _bloch_to_vector(Q @ y)


def _bloch_to_vector(r):
    """A unit x whose Bloch vector is r / |r|."""
    rx, ry, rz = r / np.linalg.norm(r)
    if rz >= 0.0:
        a = np.sqrt(0.5 * (1.0 + rz))
        x = np.array([a, complex(rx, ry) / (2.0 * a)])
    else:
        a = np.sqrt(0.5 * (1.0 - rz))
        x = np.array([complex(rx, -ry) / (2.0 * a), a])
    return x / np.linalg.norm(x)


# -- certified upper bound ------------------------------------------------
#
# With A = C - sD the pairs (<Ax,x>, <Sx,x>) fill the numerical range of
# A + iS, which is convex (Toeplitz-Hausdorff), so by the S-lemma
# (Polik & Terlaky, SIAM Rev. 2007)
#
#     max F = max over s in [lambda_min S, lambda_max S] of min over mu of h(s, mu),
#     h(s, mu) = lambda_max(C - sD - mu(S - sI)),
#
# and h(s, mu(s)) bounds F on the slice <Sx,x> = s for any multiplier mu(s).
# _upper_bound takes mu piecewise linear between nodes, each node with the
# mu that (nearly) minimizes h there.  On [a, b] with w = b - a, t = s - a
# and kappa = (mu_a - mu_b) / w, h(s, mu(s)) = lambda_max(A0 + t A1) -
# kappa t^2, and lambda_max of an affine family is convex in t, so it lies
# below the chord of h_a, h_b plus max(kappa, 0) t (w - t), which has a
# closed-form maximum.  Its excess over the chord is second order in w even
# where the top eigenvalue at the maximum is double.

# solve's repair rounds at most, and the relative gap that closes a bound
_REPAIRS = 3
_GAP_RTOL = 1e-8
# eigenvalue problems per bound
_BOUND_EIGENSOLVES = 64
# eigenvalues this far below the top, relative to 1 + |top|, enter the
# curvature of h in mu; closer ones are treated as part of a double top,
# and span the top eigenspace of a repair
_CURV_GAP = 1e-9
# the size from which a split node first tries a Cholesky certificate in
# place of its eigenvalue problem (_upper_bound); at k = 8 and 12 the test
# and its model cost more than the eigvalsh they save
_CERT_DIM = 16


def _gap_tol(value: float) -> float:
    return _GAP_RTOL * (1.0 + abs(value))


def _cholesky_below(H, bound: float) -> bool:
    """Whether one Cholesky factorization proves lambda_max(H) <= ``bound``.

    It factors M = (bound - c) I - H, as Rump's test does (BIT 46 (2006)
    433-452), and holds where the factor runs to completion.  A
    floating-point Cholesky of a Hermitian M that runs to completion gives
    R^H R = M + E with |E| <= g |R^H| |R| and g = gamma_{k+1} (Demmel 1989;
    Higham 2002, Thm 10.3).  Each column has |r_j|^2 <= m_jj / (1 - g), so
    |E|_2 <= g / (1 - g) tr M and lambda_min(M) >= -g / (1 - g) tr M.  In
    complex arithmetic each operation carries a relative error of at most
    sqrt(2) gamma_4 < 6u in place of u (Higham 2002, sec. 3.6), so g = (k +
    1) 6u / (1 - (k + 1) 6u).  c is twice g / (1 - g) tr(bound I - H), which
    also covers the rounding of M's diagonal (u tr M), plus 4u |bound| for
    the rounding of the shift and of the diagonal against it, plus Rump's
    underflow term, taken four times for complex products: 16 k (2k + 2 +
    max m_jj) eta, with eta the least subnormal and tr M for max m_jj.  A
    failed factor is NaN throughout, as numpy's gufunc returns it.
    """
    k = H.shape[0]
    eps = np.finfo(float).eps
    gk = (k + 1) * 3.0 * eps  # (k + 1) 6u
    # tr(bound I - H), 0 where it is negative: then some h_jj > bound, and
    # a cut below 0 must not lift that diagonal entry of M
    trace = max(k * bound - float(H.diagonal().real.sum()), 0.0)
    cut = (2.0 * gk / (1.0 - 2.0 * gk) * trace + 2.0 * eps * abs(bound)
           + 16.0 * k * (2 * k + 2 + trace) * np.finfo(float).smallest_subnormal)
    return bool(np.isfinite(_cholesky((bound - cut) * np.eye(k) - H)[-1, -1]))


def _upper_bound(problem: GapProblem, value: float, x):
    """(upper, eigensolves, worst): a certified bound on max F, built around x.

    ``value`` is F at the unit vector x.  The first nodes are the ends of
    S's spectrum, each widened by its rounding, and s* = <Sx,x> with
    mu = <Dx,x>, where h(s*, mu) >= F(x) = value, so that node always goes
    on and its first evaluation computes eigenvectors at once.  Each node's
    mu then takes bracketed Newton steps on h (convex in mu) until its own
    tests or the bound's cap stop it, clamped to [lambda_min D - r,
    lambda_max D + r] with r the spread of D's spectrum: the best mu runs
    off to +-inf at the ends of S's spectrum.  An interval whose bound
    exceeds value + tau gets a node at its maximizing t, clipped to
    [0.05 w, 0.95 w], with mu interpolated from its neighbours.  Refining
    stops once every interval is within tau, once a node's own h exceeds
    value + tau (splitting cannot lower it), or after _BOUND_EIGENSOLVES
    evaluations of h.
    Every computed lambda_max carries k eps times a bound on the norm of
    its matrix (Weyl, for a backward-stable ``eigvalsh`` or ``eigh``), and
    every interval bound the rounding of its closed form.  An evaluation of
    h computes eigenvectors only where its node goes on, and counts as one
    eigenvalue problem either way.  Each interval's bound is kept until
    the interval is split.  ``upper`` is None if it is not finite or if
    LAPACK fails on any of its eigenvalue problems (NaN eigenvalues).
    ``worst`` is None where it closes (or is None); otherwise it is the
    (s, mu) of the highest node if its h exceeds value + tau, else the
    split point of the interval with the highest bound.

    From k = _CERT_DIM on, a split node may skip its eigenvalue problem.
    With mu interpolated, both new intervals keep the old kappa, and as the
    interval bound is concave and quadratic in t, the new interval of width
    t_i next to the end node with h_i is within aim = value + tau / 2 exactly
    when the new node's h is at most aim - max(sqrt(kappa) t_i - sqrt(aim -
    h_i), 0)^2; theta is the smaller of the two.  Where a concave model
    through (s*, value) and the end node farther from s* predicts h <= theta,
    ``_cholesky_below`` tries to prove lambda_max(H) <= theta - margin, with
    ``margin`` the rounding term of the eigenvalue path, which covers the
    forming of H.  Where it does, the node's h is theta, from one
    evaluation; where it does not (a failed or NaN factor), the same
    evaluation takes the eigenvalue path.
    """
    C, S, D = problem.C, problem.S, problem.D
    k = problem.dim
    eps = np.finfo(float).eps
    tau = _gap_tol(value)
    target, low, aim = value + tau, value - 10.0 * tau, value + 0.5 * tau
    eye, rk = np.eye(k), np.sqrt(k)
    nC, nS, nD = problem._norms
    evals = 2  # the spectra of S and D, solved once per problem
    certify = k >= _CERT_DIM
    ws, wd = problem._spectra
    with np.errstate(all="ignore"):  # a bound beyond the float range is None
        failed = np.isnan(ws[-1]) or np.isnan(wd[-1])
        r = wd[-1] - wd[0]
        mu_lo, mu_hi = wd[0] - r, wd[-1] + r
        pad = k * eps * nS
        s_lo, s_hi = ws[0] - pad, ws[-1] + pad

        def h(s, mu, theta=None, vectors=False):
            """h(s, mu) with its rounding margin, and h's slope and curvature in mu.

            Given ``theta``, a Cholesky test that h <= theta comes first, and
            where it holds the value is theta.  Where the node stops on this
            value (certified, at or below ``low``, or at the eigensolve cap)
            only eigenvalues are computed, if any, and the slope and
            curvature, which need eigenvectors, are None; ``vectors`` skips
            straight to them.
            """
            nonlocal evals, failed
            evals += 1
            P = S - s * eye
            H = C - s * D - mu * P
            margin = k * eps * (nC + abs(s) * nD + abs(mu) * (nS + abs(s) * rk))
            if theta is not None and _cholesky_below(H, theta - margin):
                return theta, None, None
            if not vectors:
                top = _eigvalsh(H)[-1]
                failed |= np.isnan(top)
                if top + margin <= low or evals >= _BOUND_EIGENSOLVES:
                    return top + margin, None, None
            w, V = _eigh(H)
            top = w[-1]
            failed |= np.isnan(top)
            c = V.conj().T @ (P @ V[:, -1])  # <v_i, P v> for the eigenvectors v_i
            rest = top - w[:-1] > _CURV_GAP * (1.0 + abs(top))
            curv = 2.0 * float((np.abs(c[:-1][rest]) ** 2 / (top - w[:-1][rest])).sum())
            return top + margin, -c[-1].real, curv

        def node(s, mu, theta=None, vectors=False):
            """(s, h, mu) for the least h found from ``mu`` by bracketed Newton.

            ``theta`` and ``vectors`` go to the first evaluation of h.
            """
            mu = min(max(mu, mu_lo), mu_hi)
            best = (np.inf, mu)
            left = right = None  # (mu, h, slope) with slope < 0, and > 0
            last = np.inf  # length of the previous step
            opts = (theta, vectors)
            while True:  # h stops handing out slopes at the bound's eigensolve cap
                hv, g, curv = h(s, mu, *opts)
                opts = ()
                best = min(best, (hv, mu))
                if g is None or hv <= low:
                    break
                if g < 0.0:
                    if mu >= mu_hi:
                        break
                    left = (mu, hv, g)
                else:
                    if mu <= mu_lo:
                        break
                    right = (mu, hv, g)
                # the Newton decrement g^2 / (2 curv) is within 0.1 tau (or g = 0)
                if g * g <= 0.2 * tau * curv:
                    break
                cross = None
                if left and right:  # the two tangents meet below min h
                    (ma, ha, ga), (mb, hb, gb) = left, right
                    cross = (hb - ha + ga * ma - gb * mb) / (ga - gb)
                    if best[0] - (ha + ga * (cross - ma)) <= 0.1 * tau:
                        break
                a = left[0] if left else mu_lo
                b = right[0] if right else mu_hi
                # h is convex but kinks where its top eigenvalue changes, and
                # there Newton steps can swing across the minimum: a step
                # that leaves the bracket or fails to halve the last one
                # goes to where the tangents cross, or to the open end
                step = mu - g / curv if curv > 0.0 else np.nan
                if not (a < step < b and abs(step - mu) <= 0.5 * last):
                    step = cross if cross is not None else (b if g < 0.0 else a)
                last = abs(step - mu)
                mu = step
            return s, *best

        def split(a, b, t):
            """(s, mu) at t into the interval from node a to b, clipped to [0.05 w, 0.95 w]."""
            w = b[0] - a[0]
            t = min(max(t, 0.05 * w), 0.95 * w)
            return a[0] + t, a[2] + (b[2] - a[2]) * (t / w)

        def ceiling(a, b, s):
            """theta for a split at s from node a to b, or None where no certificate is tried:
            an end node above aim, or a model h above theta."""
            (sa, ha, ma), (sb, hb, mb) = a, b
            if not (ha <= aim and hb <= aim):
                return None
            root = math.sqrt(max((ma - mb) / (sb - sa), 0.0))
            theta = aim - max(root * (s - sa) - math.sqrt(aim - ha),
                              root * (sb - s) - math.sqrt(aim - hb), 0.0) ** 2
            sf, hf = (sa, ha) if abs(sa - s_star) > abs(sb - s_star) else (sb, hb)
            model = value - (value - hf) * ((s - s_star) / (sf - s_star)) ** 2
            return theta if model <= theta else None

        def interval(a, b):
            """(bound on F over nodes a to b, the t where it peaks)."""
            (sa, ha, ma), (sb, hb, mb) = a, b
            w = sb - sa
            kappa = (ma - mb) / w if w > 0.0 else 0.0
            if not kappa > 0.0:
                return max(ha, hb), 0.5 * w
            t = min(max(0.5 * w + (hb - ha) / (2.0 * kappa * w), 0.0), w)
            bound = ha + (hb - ha) * (t / w) + kappa * t * (w - t)
            return bound + 4.0 * eps * (abs(ha) + abs(hb) + kappa * w * w), t

        qS, qD = (float(np.vdot(x, X @ x).real) for X in (S, D))
        s_star = min(max(qS, s_lo), s_hi)
        first = {s_lo: mu_hi, s_star: qD, s_hi: mu_lo}
        nodes = [node(s, mu, vectors=s == qS) for s, mu in sorted(first.items())]
        # bounds[i] = interval(nodes[i], nodes[i + 1])
        bounds = [interval(a, b) for a, b in zip(nodes, nodes[1:])]
        while True:
            upper = max(ub for ub, _ in bounds) if bounds else nodes[0][1]
            if (upper <= target or evals >= _BOUND_EIGENSOLVES
                    or max(n[1] for n in nodes) > target):
                break
            refined, kept = [], []
            for a, b, (ub, t) in zip(nodes, nodes[1:], bounds):
                refined.append(a)
                if ub > target and evals < _BOUND_EIGENSOLVES:
                    s, mu = split(a, b, t)
                    m = node(s, mu, ceiling(a, b, s) if certify else None)
                    refined.append(m)
                    kept += [interval(a, m), interval(m, b)]
                else:
                    kept.append((ub, t))
            nodes, bounds = refined + nodes[-1:], kept
        if failed or not np.isfinite(upper):
            return None, evals, None
        if upper <= target:
            return float(upper), evals, None
        s, h_top, mu = max(nodes, key=lambda n: n[1])
        if h_top > target:
            return float(upper), evals, (s, mu)
        (_, t), a, b = max(zip(bounds, nodes, nodes[1:]), key=lambda bp: bp[0][0])
        return float(upper), evals, split(a, b, t)


def _repair_point(problem: GapProblem, s: float, mu: float):
    """The S-lemma primal point of the node (s, mu), from two eigenvalue problems.

    P = S - sI is diagonalized on the top eigenspace of H = C - sD - mu P
    (eigenvalues within _CURV_GAP (1 + |top|) of the top).  Where its
    extreme eigenvectors there straddle 0, the unit v mixes them so that
    <Pv, v> = 0, and F(v) = <Hv, v> = h(s, mu); otherwise v is the one
    nearer 0.
    """
    P = problem.S - s * np.eye(problem.dim)
    w, V = np.linalg.eigh(problem.C - s * problem.D - mu * P)
    E = V[:, w >= w[-1] - _CURV_GAP * (1.0 + abs(w[-1]))]
    p, U = np.linalg.eigh(E.conj().T @ P @ E)
    lo, hi = E @ U[:, 0], E @ U[:, -1]
    if p[0] < 0.0 < p[-1]:  # the two are P-orthogonal, so the cross term drops
        v = np.sqrt(p[-1]) * lo + np.sqrt(-p[0]) * hi
    else:
        v = lo if abs(p[0]) <= abs(p[-1]) else hi
    return v / np.linalg.norm(v)


def _check_count(name: str, value, below: str | None = None) -> None:
    """Refuse a count that is not an integer >= 1; ``below`` words the error for one < 1."""
    message = f"{name} must be an integer >= 1, got {value}"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadDimensions(message)
    if value < 1:
        raise BadDimensions(below or message)


def _check_seed(seed, generators: bool = True) -> None:
    """Refuse by name a seed that is not an integer >= 0 (nor a bool); with ``generators``
    a numpy Generator or SeedSequence, which no report can record, passes too."""
    if generators and isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        return
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise BadParameter(f"seed must be an integer >= 0, got {seed!r}")


def _check_upper(upper) -> None:
    """Refuse by name a bound that is neither None nor a finite real number (nor a bool)."""
    if upper is None:
        return
    try:
        finite = (not isinstance(upper, bool) and isinstance(upper, numbers.Real)
                  and math.isfinite(upper))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise BadParameter(f"upper must be a finite real number or None, got {upper!r}")


def solve(problem: GapProblem, seed=0) -> GapResult:
    """Maximum of F: in closed form for a commuting triple or at k = 2, else bounded multistart.

    A commuting (C, S, D) gives solver "exact-commuting" and any other
    2 x 2 problem "exact-dim2", each with no restarts or iterations,
    converged, no bound, and the value of F at the closed-form maximizer.

    Any other problem gets solver "multistart": one seeded Newton start
    (``solve_multistart`` with one restart, bit for bit), returned as soon
    as ``_upper_bound`` closes on it, i.e. upper - value <= _GAP_RTOL
    (1 + |value|).  While it is open, at most _REPAIRS repair rounds run the
    ascent from ``_repair_point`` at the bound's worst node; a round whose
    value is higher takes its point and bounds it again, and one that gains
    nothing ends them.  The lowest bound is reported as it stands.  Every
    ascent runs at most _MAX_ITER outer iterations; on the 151 hard
    instances of the benchmark pools, at solver seeds 0 and 1, the one
    start took at most 11 and always closed.  ``restarts`` is 1,
    ``repairs`` counts the rounds and ``iterations`` the outer iterations
    of every ascent.
    """
    _check_seed(seed)
    for name, closed_form in (("exact-commuting", _exact), ("exact-dim2", _exact_dim2)):
        x = closed_form(problem)
        if x is not None:
            return GapResult(gap_objective(problem, x), x, name,
                             iterations=0, restarts=0, converged=True)
    res = solve_multistart(problem, 1, _MAX_ITER, seed=seed)
    upper, evals, worst = _upper_bound(problem, res.value, res.maximizer)
    iterations, repairs = res.iterations, 0
    while worst is not None and repairs < _REPAIRS:
        repairs += 1
        more = _ascend(problem, _repair_point(problem, *worst)[:, None], _MAX_ITER)
        evals += 2
        iterations += more.iterations
        if not more.value > res.value:
            break
        res = more
        again, extra, worst = _upper_bound(problem, res.value, res.maximizer)
        evals += extra
        # each bound holds whatever point it was built around, so the lower one stands
        upper = min(u for u in (upper, again) if u is not None)
        if upper - res.value <= _gap_tol(res.value):
            break
    gap = None if upper is None else upper - res.value
    return replace(res, iterations=iterations, upper=upper, gap=gap, eigensolves=evals,
                   repairs=repairs)


# -- brute-force oracle -------------------------------------------------
#
# The oracle holds (C, S, D) as one stack M of shape (3, k, k), and X with
# its three images, then those of the direction W, as one (7, k, b) block,
# so that each numpy call does the work of all three forms.  Along a
# geodesic x cos psi + W sin psi each form is q cos^2 psi + 2 Re<W, Mx>
# sin psi cos psi + <W, MW> sin^2 psi, so F is a trig polynomial of degree
# two in z = 2 psi.  One constant 5 x 12 matrix maps C's three numbers and
# the nine products of S's with D's to F's five Fourier coefficients, and
# ``_line_max`` maximizes F on all columns at once.  For a
# conjugate-gradient direction W they take one product M W and one of
# conj(W) with the six images; for a coordinate axis they come in closed
# form from x_j, (Mx)_j and M_jj, so an axis step forms no direction
# vector, and a move is one scaling of the block plus a multiple of
# column j of I, C, S, D.


def _fourier_map() -> np.ndarray:
    """The 5 x 12 matrix from (q, Re<W, Mx>, <W, MW>) rows to F's coefficients.

    Its columns act on C's row, then on the products S_i D_j of S's and D's
    rows, and its rows give the coefficients of 1, cos z, sin z, cos 2z and
    sin 2z.  Each form is a + b cos z + c sin z with (a, b, c) = L (q,
    Re<W, Mx>, <W, MW>), and vS vD has the coefficients u_S^T B_p u_D in
    terms of u = (a, b, c).
    """
    L = np.array([[0.5, 0.0, 0.5], [0.5, 0.0, -0.5], [0.0, 1.0, 0.0]])
    B = np.array([np.diag([1.0, 0.5, 0.5]),
                  [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                  [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                  np.diag([0.0, 0.5, -0.5]),
                  [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]]])
    lin = np.concatenate([L, np.zeros((2, 3))])
    return np.concatenate([lin, -(L.T @ B @ L).reshape(5, 9)], axis=1)


_FOURIER = _fourier_map()
_LINE_Z = np.linspace(0.0, 2.0 * np.pi, _LINE_GRID, endpoint=False)
_LINE_HARMONICS = np.array([[1.0], [2.0]])
_LINE_BASIS = np.stack([np.ones(_LINE_GRID), np.cos(_LINE_Z), np.sin(_LINE_Z),
                        np.cos(2.0 * _LINE_Z), np.sin(2.0 * _LINE_Z)])
# F' and F'' (rows) as coefficients of cos z, sin z, cos 2z, sin 2z in P
_LINE_SLOPES = np.array([[[0, 0, 1, 0, 0], [0, -1, 0, 0, 0], [0, 0, 0, 0, 2], [0, 0, 0, -2, 0]],
                         [[0, -1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, -4, 0],
                          [0, 0, 0, 0, -4]]], dtype=float)


def _line_max(P):
    """Maximum over z of F(z) = P0 + P1 cos z + P2 sin z + P3 cos 2z + P4 sin 2z.

    ``P`` holds one column of coefficients per problem; returns the
    maximizing z in [0, 2 pi) up to the last Newton step and F there.  The
    best of _LINE_GRID equispaced points seeds _LINE_NEWTON safeguarded
    Newton steps (taken only where F'' < 0, each clipped to 0.2), and the
    grid point is kept where they do not end higher.
    """
    b = P.shape[1]
    FG = P.T @ _LINE_BASIS
    i = FG.argmax(axis=1)
    z0, F0 = _LINE_Z[i], FG[np.arange(b), i]
    D = _LINE_SLOPES @ P  # F' and F'' as rows over (cos z, sin z, cos 2z, sin 2z)
    T = _LINE_BASIS[1:, i]
    z = z0
    for _ in range(_LINE_NEWTON):
        g = (D * T).sum(axis=1)
        dz = np.divide(g[0], g[1], out=np.zeros(b), where=g[1] < -1e-300)
        z = z - np.minimum(np.maximum(dz, -0.2), 0.2)
        angles = _LINE_HARMONICS * z
        T = np.empty((4, b))
        np.cos(angles, out=T[0::2])
        np.sin(angles, out=T[1::2])
    Fz = P[0] + (P[1:] * T).sum(axis=0)
    up = Fz > F0
    return np.where(up, z, z0), np.where(up, Fz, F0)


def _geodesic_ascent(M, X0, upper=None):
    """Exact line maximization along great circles, picked by conjugate gradients.

    Each iteration follows, for every column at once, the great circle
    through x and the Polak-Ribiere+ direction d = g + beta P(d_prev): g is
    the horizontal gradient, P the projection onto x^perp (transport by
    projection), d_prev the previous direction's velocity at the new point
    and beta = max(0, Re<g, g - P(g_prev)> / |g_prev|^2); d = g at the
    start, after a coordinate sweep, at every 2k-th iteration and wherever
    Re<g, d> <= 0.  An iteration that raises no column by more than
    1e-13 (1 + max |F|) is followed by one sweep of the great circles
    through x and each phase 1, i of each coordinate axis.  Every step is
    maximized by ``_line_max``, and a column moves only where F rises, so
    the ascent is monotone: the gradient only picks directions, and every
    value returned is F at a unit vector.
    ``M`` stacks (C, S, D); returns the normalized columns, their values of
    F, the number of iterations (each conjugate-gradient step and each
    sweep counts one) and why the ascent stopped: "bound" once the best F
    reaches ``upper`` - 1e-8 (1 + |upper|) (never without an ``upper``),
    "stalled" after a sweep that gains no more than the test above, so
    that no coordinate geodesic raises any column, or "cap" after
    _MAX_SWEEPS iterations.
    """
    k, b = X0.shape
    # X, its C, S, D images and those of the direction W; a step moves XM
    images = np.empty((7, k, b), dtype=complex)
    images[0] = X0
    XM = images[:4]
    x, MX, MW = images[0], images[1:4], images[4:]
    axes = None  # the coordinate axes' data, built at the first sweep
    # per form the rows (q, Re<W, Mx>, <W, MW>); q is kept current in V[:, 0]
    V = np.empty((3, 3, b))
    q, cr, w = rows = V.swapaxes(0, 1)
    # C's rows, then the products of S's rows with D's, for _FOURIER
    Y = np.empty((12, b))
    SD = Y[3:].reshape(3, 3, b)
    G = np.empty((3, b))  # cos^2 psi, 2 sin psi cos psi, sin^2 psi
    # g, the previous g and d, the last direction's velocity, as one stack
    # for their inner products with g
    GD = np.empty((3, k, b), dtype=complex)
    g, g_prev, d = GD

    def advance(live):
        """cos psi, sin psi of the best step along each column's W (psi = 0 unless F rises)."""
        Y[:3] = V[0]
        np.multiply(V[1, :, None], V[2], out=SD)
        z, Fz = _line_max(_FOURIER @ Y)
        psi = np.where(live & (Fz > F), 0.5 * z, 0.0)
        cs, sn = np.cos(psi), np.sin(psi)
        np.multiply(cs, cs, out=G[0])
        np.multiply(2.0 * sn, cs, out=G[1])
        np.multiply(sn, sn, out=G[2])
        # psi = 0 leaves q exactly as it is
        (V * G).sum(axis=1, out=q)
        np.subtract(q[0], q[1] * q[2], out=F)
        return cs, sn

    def project(v):
        """v minus its component along x, in place."""
        v -= x * (x.conj() * v).sum(axis=0)
        return v

    goal = np.inf if upper is None else upper - _gap_tol(upper)
    iters = 0
    swept = False
    restart = True  # the next step follows g alone
    while True:
        # (re)normalize X, which also kills the drift of the previous step;
        # the norms sum each column as one contiguous run, as the column-major
        # candidate block does (numpy sums those pairwise once k >= 8)
        x /= np.linalg.norm(np.asfortranarray(x), axis=0)
        np.matmul(M, x, out=MX)
        q[...] = (x.conj() * MX).real.sum(axis=1)
        F = q[0] - q[1] * q[2]
        # the tests on b values are cheaper on Python floats than in numpy
        values = F.tolist()
        gained = not iters or (max(map(operator.sub, values, values_before))
                               >= 1e-13 * (1.0 + max(map(abs, values))))
        stop = ("bound" if max(values) >= goal
                else "stalled" if swept and not gained
                else "cap" if iters == _MAX_SWEEPS else None)
        if stop:
            break
        iters += 1
        values_before = values
        swept = not gained
        if swept:
            if axes is None:
                E = np.concatenate([np.eye(k, dtype=complex)[None], M])
                Mjj = np.diagonal(M, axis1=1, axis2=2).real
                axes = [(j, unit == 1j, unit * E[:, :, j, None], Mjj[:, j, None])
                        for j in range(k) for unit in (1.0, 1j)]
            for j, imag, Ej, mjj in axes:
                # W = (e - cmix x) / nu for the axis e = unit e_j, cmix = Re<e, x>
                row = XM[:, j].imag if imag else XM[:, j].real
                cmix, r = row[0], row[1:]  # r = Re<e, Mx>
                nu2 = 1.0 - cmix * cmix
                inv2 = 1.0 / np.maximum(nu2, 1e-20)
                inv = np.sqrt(inv2)
                rq = r - cmix * q
                np.multiply(rq, inv, out=cr)
                np.multiply(mjj - cmix * (r + rq), inv2, out=w)
                cs, sn = advance(nu2 > 1e-20)
                # x cos psi + W sin psi, for x and its images at once
                sn *= inv
                XM *= cs - cmix * sn
                XM += Ej * sn
            restart = True
            continue
        # the horizontal part of G = 2(Cx - qD Sx - qS Dx); projecting the
        # small remainder again leaves an x-component at the rounding level
        # of |g| rather than |G|, as in _newton_ascent
        np.multiply(q[2], MX[1], out=g)
        np.subtract(MX[0], g, out=g)
        g -= q[1] * MX[2]
        g *= 2.0
        project(project(g))
        # the periodic restart: without it the steps crawl toward degenerate
        # maxima, and 15 of 1,120 diagonal triples ended at the cap short
        if restart or iters % (2 * k) == 0:
            gg = _rdot(g, g)
            d[...] = g
        else:
            # g is horizontal, so Re<g, P(v)> = Re<g, v>; a zero beta restarts
            gg, g_gprev, g_d = (g.conj() * GD).real.sum(axis=1)
            beta = np.divide(gg - g_gprev, gg_prev, out=np.zeros(b), where=gg_prev > 0.0)
            beta[(beta <= 0.0) | (gg + beta * g_d <= 0.0)] = 0.0
            # P(g + beta d_prev) = g + beta P(d_prev), projected a second
            # time: near a stationary point |d| sits at the rounding level of
            # the first projection's remainder, and W = d / |d| would carry an
            # x-component of order one and leave the sphere
            d *= beta
            d += g
            project(project(d))
        g_prev[...] = g
        gg_prev = gg
        restart = False
        nd = _colnorm(d)
        live = nd > 0.0
        W = d / np.where(live, nd, 1.0)
        np.matmul(M, W, out=MW)
        # Re<W, Mx> and <W, MW> of the three forms, from one product
        np.sum((W.conj() * images[1:]).real.reshape(2, 3, k, b), axis=2, out=rows[1:])
        cs, sn = advance(live)
        # the velocity at x cos psi + W sin psi, of length |d|
        np.multiply(W, cs, out=d)
        d -= x * sn
        d *= nd
        x *= cs
        x += W * sn
    return x, F, iters, stop


def solve_bruteforce(problem: GapProblem, samples: int = 20000, seed=0,
                     upper=None) -> GapResult:
    """Sampling oracle: random directions, then an ascent along great circles.

    Dimension 1 is closed form.  The best ten samples are polished by
    exact line maxima along conjugate-gradient geodesics, with a sweep of
    the coordinate geodesics to confirm a stall (``_geodesic_ascent``).
    Given a certified bound ``upper`` on max F,
    the ascent also stops once its best value is within 1e-8 (1 + |upper|)
    of it; the stop reads only ``upper``, never a primal value.  The ascent
    can settle on a local maximum, so the oracle wants ``samples`` >= 10:
    with one sample it stopped short on 15 of 3,000 random dimension-2
    triples, by up to 13% of 1 + |max|.

    Without ``upper`` the oracle draws all ``samples`` at once.  With it,
    ``samples`` is a cap: the oracle draws _BLOCK_SAMPLES at a time from
    the same generator and draws again only while the ascent of the last
    block stopped below the bound, for once the bound is closed some unit
    vector reaches it.  The best points of a large draw crowd into one
    basin, and fresh small blocks get past it: on ``bound_check``'s
    ``triple(8, 61)`` one 20,000-sample draw stalled below the bound at 31
    of 40 seeds, and blocks of 256 at none, after at most 7 blocks (blocks
    of 2,000 took up to 10).  A bound that no unit vector reaches draws the
    whole cap, 79 blocks.  ``upper`` must be None or a finite real number.
    The result is the best column of all blocks; ``restarts`` counts the
    samples drawn, ``blocks`` the draws, ``iterations`` the iterations of
    every ascent, and ``stop`` is why the last ascent ended.
    """
    _check_count("samples", samples)
    _check_seed(seed)
    _check_upper(upper)
    k = problem.dim
    if k == 1:  # every unit vector is a phase of the maximizer: nothing to draw
        x = np.array([1.0 + 0.0j])
        return GapResult(gap_objective(problem, x), x, "bruteforce", 0, 0, stop="stalled")
    M = problem._stack
    # the real form [[Re A, -Im A], [Im A, Re A]] of each matrix, so that
    # Re<Az, z> = y^T A_r y for the column y = (Re z, Im z)
    real = np.empty((3, 2 * k, 2 * k))
    real[:, :k, :k] = real[:, k:, k:] = M.real
    real[:, k:, :k] = M.imag
    np.negative(M.imag, out=real[:, :k, k:])
    rng = np.random.default_rng(seed)
    size = samples if upper is None else min(_BLOCK_SAMPLES, samples)
    drawn = iters = blocks = 0
    stop, best_F, x = None, -np.inf, None
    while stop != "bound" and drawn < samples:
        n = min(size, samples - drawn)
        # rows :k hold Re z and rows k: hold Im z of each sample z; one form
        # at a time, so that at most one 2k x n image is alive
        R = rng.standard_normal((2 * k, n))
        norm2 = (R * R).sum(axis=0)
        qC, qS, qD = ((R * (A @ R)).sum(axis=0) / norm2 for A in real)
        Fs = qC - qS * qD
        cut = n - min(_REFINE_CANDIDATES, n)
        top = np.argpartition(Fs, cut)[cut:]
        top = top[np.argsort(Fs[top])[::-1]]
        Z = R[:k, top] + 1j * R[k:, top]
        X, F, s, stop = _geodesic_ascent(M, Z / np.linalg.norm(Z, axis=0), upper=upper)
        drawn += n
        iters += s
        blocks += 1
        i = int(np.argmax(F))
        if x is None or F[i] > best_F:
            best_F, x = F[i], X[:, i] / np.linalg.norm(X[:, i])
    return GapResult(gap_objective(problem, x), x, "bruteforce", iters, drawn, stop=stop,
                     blocks=blocks)
