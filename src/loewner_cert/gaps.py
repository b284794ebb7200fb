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

Two solvers are provided: a multistart Riemannian Newton-CG ascent on the
complex unit sphere (the primary path) and a sampling plus coordinate
ascent brute-force oracle that shares no iteration logic with it: it uses
no gradient, no Hessian and no CG, only exact maxima of F along great
circles, each found from F's five Fourier coefficients on that circle.
``solve``, which the certificates and the CLI call, first tries two closed
forms.  When C, S and D commute (chebyshev, eta, vartheta without a family
and many diagonal or pinching families) the maximum lies on an edge of the
simplex of weights on their common eigenbasis, and one pass over the pairs
of eigenvectors finds it.  At k = 2, F is a quadratic on the Bloch sphere,
and a trust-region subproblem in R^3 gives its maximum.  Otherwise it runs
the multistart ascent on a first batch of 8 starts and bounds max F from
above by S-lemma duality (``_upper_bound``); the rest of its ``restarts``
cap runs only while that bound stays more than 1e-8 (1 + |value|) above
the value found.  ``solve_multistart`` is the fixed-count ascent alone.

The primary path runs all restarts as one lockstep batch.  F is invariant
under x -> e^{i phi} x, so each iteration works in the horizontal space
{v : x^H v = 0}: truncated conjugate gradients on (-Hess F) eta = grad F,
with Hessian-vector products only, give the step direction, and Armijo
backtracking along x -> (x + t eta)/|x + t eta| makes every accepted step
increase F.  A restart stops once its tangent gradient norm is at most
``step_tol``; ``max_iter`` caps the outer iterations of the batch.  The
result's ``iterations`` is the number of outer iterations the batch ran,
and ``converged`` is the stop-test flag of the restart with the best value.

The ascent holds the n restarts still running in stacked blocks: x and
its images Cx, Sx, Dx, then the CG direction p, its images and Hess p in
one (9, k, n) block, and the step eta, its images and the CG residual in a
(5, k, n) block.  One matmul fills the three images of a vector, each
combination of the forms is one product with a stack of coefficient rows
summed over the first axis, and one update moves eta, its images and the
residual.  Summation order is part of the arithmetic: numpy sums a
reduction axis that is contiguous in memory pairwise, which differs from a
running sum from 8 reals or 4 complex numbers on, and any other axis one
row at a time.  The ascent sums |eta|^2, Re<Mx, eta> and the norms of the
new iterates along contiguous columns and every other inner product row by
row; tests pin the resulting bits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import (
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    NonFinite,
    NotUnitalFamily,
)
from .hermitian import _checked_spectrum, _spectral_images, require_hermitian
from .maps import MapFamily, check_unital_family
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

# sufficient-increase fraction of the Newton-CG line search
_ARMIJO = 1e-4
# longest tangent step tried first: x + eta turns x by at most atan(_MAX_STEP)
_MAX_STEP = 1.0
_MIN_STEP = 1e-18
# CG treats curvature below this fraction of the curvature along the
# gradient as non-positive: near a degenerate maximum rounding leaves
# residuals in flat directions, and dividing by their curvature of order
# 1e-16 yields huge steps that no longer ascend
_CURV_FLOOR = 1e-12

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
_MAX_SWEEPS = 60
_LINE_GRID = 1024
_LINE_NEWTON = 2


@dataclass(frozen=True)
class GapProblem:
    """The data (C, S, D) of one sphere maximization, tagged by kind."""

    kind: str
    C: np.ndarray
    S: np.ndarray
    D: np.ndarray

    def __post_init__(self):  # so that every solver works on finite forms
        for label in ("C", "S", "D"):
            if not np.isfinite(getattr(self, label)).all():
                raise NonFinite(f"{label} of the {self.kind} problem has a non-finite entry")

    @property
    def dim(self) -> int:
        return self.C.shape[0]


@dataclass
class GapResult:
    """A maximizer of F, how it was found, and the certified bound ``upper``.

    ``gap`` is ``upper - value``; both are None where no bound was computed
    (the closed forms and the bare solvers).  ``eigensolves`` counts the
    bound's eigenvalue problems.
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

    def record(self, seed, step_tol: float, max_iter: int) -> dict:
        """The solver record of ``gap --json`` and of certificates."""
        return {"name": self.solver, "restarts": self.restarts,
                "iterations": self.iterations, "converged": self.converged,
                "upper": self.upper, "gap": self.gap, "eigensolves": self.eigensolves,
                "seed": seed, "step_tol": step_tol, "max_iter": max_iter}


def gap_objective(problem: GapProblem, x) -> float:
    """F(x) = <Cx,x> - <Sx,x><Dx,x> for a unit vector x."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    qc = float(np.real(x.conj() @ (problem.C @ x)))
    qs = float(np.real(x.conj() @ (problem.S @ x)))
    qd = float(np.real(x.conj() @ (problem.D @ x)))
    return qc - qs * qd


def _rdot(U, V):
    """Column-wise real inner products Re<u_j, v_j>."""
    return (U.conj() * V).real.sum(axis=0)


def _forms(C, S, D, X):
    return _rdot(X, C @ X), _rdot(X, S @ X), _rdot(X, D @ X)


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
    their eigenvalues.  Every spectrum must lie inside f's domain and every
    image and mapped sum be finite.
    """
    a = _as_ops(a_ops, "A")
    if not a:
        raise BadDimensions("at least one A operand is required")
    b = a if b_ops is None else _as_ops(b_ops, "B")
    fns = {"f": f.value_array, "f'": f.deriv_array, "t f'": lambda w: w * f.deriv_array(w)}

    def images(X, name):
        return _spectral_images(np.linalg.eigh(X), fns, f.domain, name, f.spec_string())

    if family is None:
        if len(a) != 1 or len(b) != 1:
            raise BadDimensions("without a map family A and B must be single operands")
        [(name, A)], [(b_name, B)] = a.items(), b.items()
        if B.shape != A.shape:
            raise DimensionMismatch("A and B must have the same size")
        a_images = images(A, name)
        t_images = a_images if b is a else images(B, b_name)
        return _Assembly(1, A, B, *a_images, *t_images)

    if len(a) != len(family) or len(b) != len(family):
        raise BadDimensions(
            f"family of {len(family)} maps needs as many A and B operands"
        )
    for phi, A, B in zip(family.maps, a.values(), b.values()):
        if A.shape[0] != phi.input_dim or B.shape[0] != phi.input_dim:
            raise DimensionMismatch("operand sizes must match the map input dims")
    unital = check_unital_family(family)
    if not unital.holds:
        raise NotUnitalFamily(f"unitality defect {unital.defect:.3e}")

    a_images = [images(A, name) for name, A in a.items()]
    if b is not a:  # the B_i need only their spectra checked
        for name, B in b.items():
            _checked_spectrum(np.linalg.eigvalsh(B), f.domain, name)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sums = [family.apply_sum(ops) for ops in (a.values(), *zip(*a_images))]
    if not all(np.isfinite(M).all() for M in sums):
        raise NonFinite("a mapped sum over the A_i has a non-finite entry")
    T = sums[0] if b is a else family.apply_sum(b.values())
    return _Assembly(len(family), sums[0], T, *sums[1:], *images(T, "T"))


def _problem(kind: str, f: ScalarFunction, a_ops, b_ops=None,
             family: MapFamily | None = None):
    """build_gap_problem's GapProblem together with the _Assembly it reads."""
    if kind not in KINDS:
        raise ValueError(f"unknown gap kind {kind!r}")
    if kind in ("gamma", "chebyshev") and family is not None:
        raise BadDimensions(f"kind {kind} takes no map family")
    if kind in ("eta", "vartheta", "chebyshev"):
        b_ops = None
    elif b_ops is None:
        raise BadDimensions(f"kind {kind} needs B operands")
    asm = _assemble(f, a_ops, b_ops, family)
    if kind in ("theta", "vartheta"):
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


# -- multistart Riemannian Newton-CG ascent ----------------------------


def _newton_ascent(C, S, D, X0, max_iter: int, step_tol: float):
    """Lockstep Newton-CG ascent over the columns of X0; returns (X, converged, iters).

    A column leaves the batch when its tangent gradient norm is at most
    ``step_tol`` (converged) or when the line search finds no increase
    above _MIN_STEP (stalled).  With qM = <Mx,x>, the gradient is the
    horizontal part of G = 2(Cx - qD Sx - qS Dx), and the Riemannian
    Hessian applied to a horizontal E is the horizontal part of

        2(CE - qD SE - qS DE) - 4(Sx Re<Dx,E> + Dx Re<Sx,E>) - Re<x,G> E.
    """
    k = C.shape[0]
    M = np.concatenate([C, S, D])  # one matmul yields C V, S V and D V
    X = X0 / np.linalg.norm(X0, axis=0)
    b = X.shape[1]
    converged = np.zeros(b, dtype=bool)
    stalled = np.zeros(b, dtype=bool)
    iters = 0
    while True:
        work = np.flatnonzero(~(converged | stalled))
        # x, Cx, Sx, Dx, then CG's p, Cp, Sp, Dp and Hess p
        XP = np.empty((9, k, work.size), dtype=complex)
        x = np.take(X, work, axis=1, out=XP[0])
        np.matmul(M, x, out=XP[1:4].reshape(3 * k, -1))
        xc = x.conj()
        Q = (xc * XP[1:4]).real.sum(axis=1)  # qC, qS, qD
        # coefficient rows of (Sx, Dx, p) in the Hessian, set for CG, and
        # of (Cv, Sv, Dv) in 2(Cv - qD Sv - qS Dv)
        coef = np.empty((6, 1, work.size))
        coef[3] = 2.0
        np.multiply(Q[:0:-1, None], -2.0, out=coef[4:])
        G = (XP[1:4] * coef[3:]).sum(axis=0)
        rad = (xc * G).real.sum(axis=0)
        # projecting the small remainder again leaves an x-component at the
        # rounding level of |g| rather than |G|; the line search needs that
        G -= x * rad
        G -= x * (xc * G).sum(axis=0)
        gn = np.sqrt(_rdot(G, G))
        done = gn <= step_tol
        converged[work[done]] = True
        live = ~done
        if not live.any() or iters == max_iter:
            break
        iters += 1
        work = work[live]
        XP, coef, Q, gn = XP.compress(live, axis=2), coef[..., live], Q[:, live], gn[live]
        coef[2] = rad[live]
        x, p, PH = XP[0], XP[4], XP[4:]
        PM = XP[5:8].reshape(3 * k, -1)
        Xc = XP[:4].conj()
        # 4 conj(Dx) and 4 conj(Sx): with p they give the coefficients
        # 4 Re<Dx,p> of Sx and 4 Re<Sx,p> of Dx
        Xc4 = 4.0 * Xc[3:1:-1]

        # truncated CG on (-Hess) eta = g; ER holds eta, its C, S, D images
        # and the residual r, which starts at g.  CG stops at non-positive
        # curvature of -Hess, and if that happens on the first step eta is
        # the gradient scaled to _MAX_STEP
        ER = np.zeros((5, k, work.size), dtype=complex)
        r = np.compress(live, G, axis=1, out=ER[4])
        p[...] = r
        rr = gn * gn
        tol2 = (gn * np.minimum(0.5, np.sqrt(gn))) ** 2
        cg = np.ones(work.size, dtype=bool)
        # exact CG ends within 2k - 2 steps, the real dimension of the
        # horizontal space
        for j in range(2 * k):
            np.matmul(M, p, out=PM)
            (Xc4 * p).real.sum(axis=1, out=coef[:2, 0])
            # the sums over (Sx, Dx, p) and over (Cp, Sp, Dp); Hess p is the
            # second less the first
            T = (XP[2:8] * coef).reshape(2, 3, k, -1).sum(axis=1)
            Hp = np.subtract(T[1], T[0], out=XP[8])
            Hp -= x * (Xc[0] * Hp).sum(axis=0)
            curv = (p.conj() * Hp).real.sum(axis=0)  # Re<p, Hess p>
            if j == 0:
                floor = _CURV_FLOOR * (curv / rr)
                pp = rr
            flat = curv >= floor * pp
            if j == 0 and flat.any():  # every column is still in CG
                ER[:4, :, flat] = PH[:4, :, flat] * (_MAX_STEP / gn[flat])
            cg &= ~flat
            # eta += alpha p and r -= alpha (-Hess p) for alpha = -rr / curv
            ER -= PH * np.divide(rr, curv, out=np.zeros(work.size), where=cg)
            rr_new = (r.conj() * r).real.sum(axis=0)
            cg &= rr_new > tol2
            if not cg.any():
                break
            beta = np.where(cg, rr_new / rr, 0.0)
            p *= beta
            p += r
            pp = rr_new + beta * beta * pp
            rr = np.where(cg, rr_new, rr)

        # Armijo backtracking on the increase of F, evaluated without
        # cancellation so that tiny steps near a maximum stay measurable:
        # for x^H eta = 0 and x_t = (x + t eta)/|x + t eta|,
        #   <M x_t, x_t> - <M x, x>
        #     = (2t Re<Mx, eta> + t^2 (<M eta, eta> - <Mx, x>|eta|^2)) / (1 + t^2 |eta|^2)
        # x's slot of Xc now holds conj(eta), so that one product, summed
        # column by column (module docstring), gives |eta|^2 and Re<Mx, eta>
        eta = ER[0]
        np.conjugate(eta, out=Xc[0])
        L = np.empty((4, work.size, k), dtype=complex).transpose(0, 2, 1)
        NL = np.multiply(Xc, eta, out=L).real.sum(axis=1)
        nn, lin = NL[0], NL[1:]
        quad = (Xc[0] * ER[1:4]).real.sum(axis=1) - Q * nn
        qS, qD = Q[1], Q[2]
        slope = 2.0 * (lin[0] - qD * lin[1] - qS * lin[2])
        t = np.minimum(1.0, _MAX_STEP / np.sqrt(nn))
        pending = np.ones(work.size, dtype=bool)
        while pending.any():
            tt = t * t
            dC, dS, dD = (2.0 * t * lin + tt * quad) / (1.0 + tt * nn)
            gain = dC - qS * dD - dS * qD - dS * dD
            pending &= ~((gain > 0.0) & (gain >= _ARMIJO * t * slope))
            t = np.where(pending, 0.5 * t, t)
            lost = pending & ~(t >= _MIN_STEP)
            stalled[work[lost]] = True
            pending &= ~lost
        moved = ~stalled[work]
        Xn = x[:, moved] + eta[:, moved] * t[moved]
        X[:, work[moved]] = Xn / np.linalg.norm(Xn, axis=0)
    return X, converged, iters


def solve_multistart(problem: GapProblem, restarts: int = 64, max_iter: int = 500,
                     step_tol: float = 1e-10, seed=0) -> GapResult:
    """Best stationary value of F over ``restarts`` seeded sphere starts.

    The restarts run as one lockstep Newton-CG batch (module docstring);
    ``iterations`` counts its outer iterations and ``converged`` is the
    stop-test flag of the restart that attains the returned value.
    """
    _check_solver_args(restarts, max_iter, step_tol)
    C, S, D = problem.C, problem.S, problem.D
    k = problem.dim
    rng = np.random.default_rng(seed)
    X0 = rng.standard_normal((k, restarts)) + 1j * rng.standard_normal((k, restarts))
    X, conv, iters = _newton_ascent(C, S, D, X0, max_iter, step_tol)
    qC, qS, qD = _forms(C, S, D, X)
    best = int(np.argmax(qC - qS * qD))
    x = X[:, best]
    x = x / np.linalg.norm(x)
    return GapResult(
        value=gap_objective(problem, x),
        maximizer=x,
        solver="multistart",
        iterations=iters,
        restarts=restarts,
        converged=bool(conv[best]),
    )


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

# starts of solve's first batch, and the relative gap that closes a bound
_FIRST_BATCH = 8
_GAP_RTOL = 1e-8
# eigenvalue problems per bound, and evaluations of h per node's multiplier
_BOUND_EIGENSOLVES = 64
_NODE_EVALS = 7
# eigenvalues this far below the top, relative to 1 + |top|, enter the
# curvature of h in mu; closer ones are treated as part of a double top
_CURV_GAP = 1e-9


def _gap_tol(value: float) -> float:
    return _GAP_RTOL * (1.0 + abs(value))


def _upper_bound(problem: GapProblem, value: float, x):
    """(upper, eigensolves): a certified bound on max F, built around x.

    ``value`` is F at the unit vector x.  The first nodes are the ends of
    S's spectrum, each widened by its rounding, and s* = <Sx,x> with
    mu = <Dx,x>, where h(s*, mu) = F(x) when x is a maximizer.  Each node's
    mu then takes bracketed Newton steps on h (convex in mu), at most
    _NODE_EVALS evaluations, clamped to [lambda_min D - r, lambda_max D + r]
    with r the spread of D's spectrum: the best mu runs off to +-inf at the
    ends of S's spectrum.  An interval whose bound exceeds value + tau gets
    a node at its maximizing t, clipped to the middle half, with mu
    interpolated from its neighbours.  Refining stops once every interval
    is within tau, once a node's own h exceeds value + tau (splitting
    cannot lower it), or after _BOUND_EIGENSOLVES eigenvalue problems.
    Every computed lambda_max carries k eps times a bound on the norm of
    its matrix (Weyl, for a backward-stable ``eigh``), and every interval
    bound the rounding of its closed form.  ``upper`` is None if it is not
    finite.
    """
    C, S, D = problem.C, problem.S, problem.D
    k = problem.dim
    eps = np.finfo(float).eps
    tau = _gap_tol(value)
    target, low = value + tau, value - 10.0 * tau
    eye = np.eye(k)
    nC, nS, nD = (float(np.linalg.norm(X)) for X in (C, S, D))
    evals = 2
    with np.errstate(all="ignore"):  # a bound beyond the float range is None
        ws, wd = np.linalg.eigvalsh(S), np.linalg.eigvalsh(D)
        r = wd[-1] - wd[0]
        mu_lo, mu_hi = wd[0] - r, wd[-1] + r
        pad = k * eps * nS
        s_lo, s_hi = ws[0] - pad, ws[-1] + pad

        def h(s, mu):
            """h(s, mu) with its rounding margin, and h's slope and curvature in mu."""
            nonlocal evals
            evals += 1
            P = S - s * eye
            w, V = np.linalg.eigh(C - s * D - mu * P)
            top = w[-1]
            c = V.conj().T @ (P @ V[:, -1])  # <v_i, P v> for the eigenvectors v_i
            rest = top - w[:-1] > _CURV_GAP * (1.0 + abs(top))
            curv = 2.0 * float((np.abs(c[:-1][rest]) ** 2 / (top - w[:-1][rest])).sum())
            norm = nC + abs(s) * nD + abs(mu) * (nS + abs(s) * np.sqrt(k))
            return top + k * eps * norm, -c[-1].real, curv

        def node(s, mu):
            """(s, h, mu) for the least h found from ``mu`` by bracketed Newton."""
            mu = min(max(mu, mu_lo), mu_hi)
            best = (np.inf, mu)
            left = right = None  # (mu, h, slope) with slope < 0, and > 0
            last = np.inf  # length of the previous step
            for _ in range(_NODE_EVALS):
                hv, g, curv = h(s, mu)
                best = min(best, (hv, mu))
                if hv <= low or evals >= _BOUND_EIGENSOLVES:
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
        first = {s_lo: mu_hi, min(max(qS, s_lo), s_hi): qD, s_hi: mu_lo}
        nodes = [node(s, mu) for s, mu in sorted(first.items())]
        while True:
            pairs = list(zip(nodes, nodes[1:]))
            bounds = [interval(a, b) for a, b in pairs] or [(nodes[0][1], 0.0)]
            upper = max(ub for ub, _ in bounds)
            if (upper <= target or evals >= _BOUND_EIGENSOLVES
                    or max(n[1] for n in nodes) > target):
                break
            refined = []
            for (a, b), (ub, t) in zip(pairs, bounds):
                refined.append(a)
                if ub > target and evals < _BOUND_EIGENSOLVES:
                    w = b[0] - a[0]
                    t = min(max(t, 0.25 * w), 0.75 * w)
                    refined.append(node(a[0] + t, a[2] + (b[2] - a[2]) * (t / w)))
            nodes = refined + nodes[-1:]
    return (float(upper) if np.isfinite(upper) else None), evals


def _check_solver_args(restarts, max_iter, step_tol) -> None:
    if not isinstance(restarts, numbers.Integral) or restarts < 1:
        raise BadDimensions(f"restarts must be an integer >= 1, got {restarts}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise BadParameter(f"max_iter must be an integer >= 0, got {max_iter}")
    if not 0.0 <= step_tol < np.inf:
        raise BadParameter(f"step_tol must be finite and >= 0, got {step_tol}")


def solve(problem: GapProblem, restarts: int = 64, max_iter: int = 500,
          step_tol: float = 1e-10, seed=0) -> GapResult:
    """Maximum of F: in closed form for a commuting triple or at k = 2, else bounded multistart.

    A commuting (C, S, D) gives solver "exact-commuting" and any other
    2 x 2 problem "exact-dim2", each with no restarts or iterations,
    converged, no bound, and the value of F at the closed-form maximizer.
    The solver arguments do not change either closed form, but are checked
    first and must be valid.

    Any other problem gets solver "multistart": the best of a first batch
    of min(_FIRST_BATCH, ``restarts``) seeded Newton-CG starts, returned as
    soon as ``_upper_bound`` closes on it, i.e. upper - value <= _GAP_RTOL
    (1 + |value|).  Otherwise the rest of the ``restarts`` cap runs as a
    second batch from the same generator, the better point is kept and
    bounded once more, and the lower of the two bounds is reported as it
    stands.  ``restarts`` and ``iterations`` count both batches; the first
    batch alone is ``solve_multistart`` with ``restarts`` = _FIRST_BATCH,
    bit for bit.
    """
    _check_solver_args(restarts, max_iter, step_tol)
    for name, closed_form in (("exact-commuting", _exact), ("exact-dim2", _exact_dim2)):
        x = closed_form(problem)
        if x is not None:
            return GapResult(gap_objective(problem, x), x, name,
                             iterations=0, restarts=0, converged=True)
    # both batches draw their starts from one generator
    rng = np.random.default_rng(seed)
    first = min(_FIRST_BATCH, restarts)
    res = solve_multistart(problem, first, max_iter, step_tol, seed=rng)
    upper, evals = _upper_bound(problem, res.value, res.maximizer)
    if restarts > first and not (upper is not None
                                 and upper - res.value <= _gap_tol(res.value)):
        more = solve_multistart(problem, restarts - first, max_iter, step_tol, seed=rng)
        iterations = res.iterations + more.iterations
        if more.value > res.value:
            res = more
            again, extra = _upper_bound(problem, res.value, res.maximizer)
            evals += extra
            # each bound holds whatever point it was built around
            upper = min((u for u in (upper, again) if u is not None), default=None)
        res = replace(res, iterations=iterations, restarts=restarts)
    gap = None if upper is None else upper - res.value
    return replace(res, upper=upper, gap=gap, eigensolves=evals)


# -- brute-force oracle -------------------------------------------------
#
# The oracle holds (C, S, D) as one stack M of shape (3, k, k), and X with
# its three images as one (4, k, b) block, so that each numpy call does the
# work of all three forms.  Along a geodesic x cos psi + W sin psi each form
# is q cos^2 psi + 2 Re<W, Mx> sin psi cos psi + <W, MW> sin^2 psi, so F is
# a trig polynomial of degree two in z = 2 psi.  One constant 5 x 12 matrix
# maps C's three numbers and the nine products of S's with D's to F's five
# Fourier coefficients, and ``_line_max`` maximizes F on all columns at
# once.  For a coordinate axis the three numbers come in closed form from
# x_j, (Mx)_j and M_jj, so an axis step forms no direction vector, and a
# move is one scaling of the block plus a multiple of column j of I, C, S, D.


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


def _coordinate_ascent(M, X0, max_sweeps: int = _MAX_SWEEPS):
    """Exact line maximization along spherical coordinate geodesics.

    Each sweep first follows one pattern geodesic, along the displacement
    since the start of the previous sweep (from the second sweep on), and
    then the geodesic through x and each phase 1, i of each coordinate
    axis, each maximized by ``_line_max``; a column moves only where F
    rises.  Monotone by construction; independent of the gradient solver
    it cross-checks.
    ``M`` stacks (C, S, D); returns the normalized columns, their values of
    F and the number of sweeps.
    """
    k, b = X0.shape
    XM = np.empty((4, k, b), dtype=complex)  # X and its C, S, D images
    XM[0] = X0
    E = np.concatenate([np.eye(k, dtype=complex)[None], M])
    Mjj = np.diagonal(M, axis1=1, axis2=2).real
    axes = [(j, unit == 1j, unit * E[:, :, j, None], Mjj[:, j, None])
            for j in range(k) for unit in (1.0, 1j)]
    # per form the rows (q, Re<W, Mx>, <W, MW>); q is kept current in V[:, 0]
    V = np.empty((3, 3, b))
    q, cr, w = V.swapaxes(0, 1)
    # C's rows, then the products of S's rows with D's, for _FOURIER
    Y = np.empty((12, b))
    SD = Y[3:].reshape(3, 3, b)
    G = np.empty((3, b))  # cos^2 psi, 2 sin psi cos psi, sin^2 psi

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

    sweeps = 0
    while True:
        # (re)normalize X, which also kills the drift of the previous sweep;
        # the norms sum each column as one contiguous run, as the column-major
        # candidate block does (numpy sums those pairwise once k >= 8)
        XM[0] /= np.linalg.norm(np.asfortranarray(XM[0]), axis=0)
        np.matmul(M, XM[0], out=XM[1:])
        q[...] = (XM[0].conj() * XM[1:]).real.sum(axis=1)
        F = q[0] - q[1] * q[2]
        if sweeps == max_sweeps or (sweeps and float(np.max(F - F_before))
                                    < 1e-13 * (1.0 + float(np.abs(F).max()))):
            break
        sweeps += 1
        F_before = F.copy()
        if sweeps > 1:
            # pattern step: the horizontal part of x - base, normalized
            W = XM[0] - base
            W -= XM[0] * (XM[0].conj() * W).sum(axis=0)
            norm = np.linalg.norm(W, axis=0)
            live = norm > 0.0
            W /= np.where(live, norm, 1.0)
            MW = M @ W
            Wc = W.conj()
            cr[...] = (Wc * XM[1:]).real.sum(axis=1)
            w[...] = (Wc * MW).real.sum(axis=1)
            cs, sn = advance(live)
            XM[0] *= cs
            XM[0] += W * sn
            XM[1:] *= cs
            XM[1:] += MW * sn
        base = XM[0].copy()
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
    return XM[0], F, sweeps


def solve_bruteforce(problem: GapProblem, samples: int = 20000, seed=0) -> GapResult:
    """Sampling oracle: random directions, then coordinate ascent.

    Dimension 1 is closed form.  The best ten samples are polished by
    geodesic coordinate ascent with one pattern step per sweep;
    ``iterations`` counts its sweeps.  The ascent can settle on a local
    maximum, so the oracle wants ``samples`` >= 10: with one sample it
    stopped short on 15 of 3,000 random dimension-2 triples, by up to
    13% of 1 + |max|.
    """
    if samples < 1:
        raise BadDimensions(f"need at least one sample, got {samples}")
    k = problem.dim
    if k == 1:
        x = np.array([1.0 + 0.0j])
        return GapResult(gap_objective(problem, x), x, "bruteforce", 0, samples)
    M = np.stack([problem.C, problem.S, problem.D])
    rng = np.random.default_rng(seed)
    # rows :k hold Re z and rows k: hold Im z of each sample z, so a column
    # is y = (Re z, Im z) and Re<Az, z> = y^T [[Re A, -Im A], [Im A, Re A]] y;
    # one form at a time, so that at most one 2k x samples image is alive
    R = rng.standard_normal((2 * k, samples))
    norm2 = (R * R).sum(axis=0)
    qC, qS, qD = ((R * (np.block([[A.real, -A.imag], [A.imag, A.real]]) @ R)).sum(axis=0)
                  / norm2 for A in M)
    Fs = qC - qS * qD
    cut = samples - min(_REFINE_CANDIDATES, samples)
    top = np.argpartition(Fs, cut)[cut:]
    top = top[np.argsort(Fs[top])[::-1]]
    Z = R[:k, top] + 1j * R[k:, top]
    X, F, sweeps = _coordinate_ascent(M, Z / np.linalg.norm(Z, axis=0))
    best = int(np.argmax(F))
    x = X[:, best] / np.linalg.norm(X[:, best])
    return GapResult(gap_objective(problem, x), x, "bruteforce", sweeps, samples)
