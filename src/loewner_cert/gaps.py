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
from one spectral assembly that decomposes each operand, and T, once.

Two solvers are provided: a multistart Riemannian Newton-CG ascent on the
complex unit sphere (the primary path) and a sampling plus coordinate
ascent brute-force oracle that shares no iteration logic with it.

The primary path runs all restarts as one lockstep batch.  F is invariant
under x -> e^{i phi} x, so each iteration works in the horizontal space
{v : x^H v = 0}: truncated conjugate gradients on (-Hess F) eta = grad F,
with Hessian-vector products only, give the step direction, and Armijo
backtracking along x -> (x + t eta)/|x + t eta| makes every accepted step
increase F.  A restart stops once its tangent gradient norm is at most
``step_tol``; ``max_iter`` caps the outer iterations of the batch.  The
result's ``iterations`` is the number of outer iterations the batch ran,
and ``converged`` is the stop-test flag of the restart with the best value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, DimensionMismatch, NonFinite, NotUnitalFamily
from .hermitian import _spectral_images, require_hermitian
from .maps import MapFamily, check_unital_family, identity_family
from .scalarfn import ScalarFunction

__all__ = [
    "KINDS",
    "GapProblem",
    "GapResult",
    "build_gap_problem",
    "gap_objective",
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

_GRID_RESOLUTION = 700
_REFINE_CANDIDATES = 10
_GEODESIC_GRID = 64
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class GapProblem:
    """The data (C, S, D) of one sphere maximization, tagged by kind."""

    kind: str
    C: np.ndarray
    S: np.ndarray
    D: np.ndarray

    @property
    def dim(self) -> int:
        return self.C.shape[0]


@dataclass
class GapResult:
    value: float
    maximizer: np.ndarray
    solver: str
    iterations: int
    restarts: int
    converged: bool = True


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
    """Name -> checked operand: ``side`` for one matrix, ``side[i]`` in a list."""
    if ops is None:
        return {}
    if isinstance(ops, np.ndarray) and ops.ndim == 2:
        return {side: require_hermitian(ops, name=side)}
    return {f"{side}[{i}]": require_hermitian(A, name=f"{side}[{i}]")
            for i, A in enumerate(ops)}


@dataclass(frozen=True)
class _Assembly:
    """Mapped sums and f, f', t f' images that every statement reads.

    With T = sum Phi_i(B_i): SA = sum Phi_i(A_i), and for g in (f, f', t f')
    Sg = sum Phi_i(g(A_i)) and gT = g(T).
    """

    family: MapFamily
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
    """Decompose each operand, and T, once and map their images.

    ``b_ops`` None reuses the A side.  Without a family A and B are single
    operands under the identity map, so T is B and shares its
    decomposition; a given family must match the operands and be unital.
    Every spectrum must lie inside f's domain and every image be finite.
    """
    a = _as_ops(a_ops, "A")
    if not a:
        raise BadDimensions("at least one A operand is required")
    b = a if b_ops is None else _as_ops(b_ops, "B")
    default = family is None
    if default:
        if len(a) != 1 or len(b) != 1:
            raise BadDimensions("without a map family A and B must be single operands")
        family = identity_family(next(iter(a.values())).shape[0])
    if len(a) != len(family) or len(b) != len(family):
        raise BadDimensions(
            f"family of {len(family)} maps needs as many A and B operands"
        )
    for phi, A, B in zip(family.maps, a.values(), b.values()):
        if A.shape[0] != phi.input_dim or B.shape[0] != phi.input_dim:
            raise DimensionMismatch("operand sizes must match the map input dims")
    if not default:
        unital = check_unital_family(family)
        if not unital.holds:
            raise NotUnitalFamily(f"unitality defect {unital.defect:.3e}")

    fns = (f.value_array, f.deriv_array, lambda w: w * f.deriv_array(w))

    def images(X, name):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            out = _spectral_images(X, fns, f.domain)
        for img, label in zip(out, ("f", "f'", "t f'")):
            if not np.isfinite(img).all():
                raise NonFinite(f"{label}({name}) has a non-finite entry, "
                                f"f = {f.spec_string()}")
        return out

    a_images = [images(A, name) for name, A in a.items()]
    T = family.apply_sum(b.values())
    if default:  # T is the single B operand and shares its decomposition
        [(name, B)] = b.items()
        t_images = a_images[0] if b is a else images(B, name)
    else:
        if b is not a:  # the B_i only need their spectra checked
            for B in b.values():
                _spectral_images(B, (), f.domain)
        t_images = images(T, "T")
    return _Assembly(family, family.apply_sum(a.values()), T,
                     *(family.apply_sum(col) for col in zip(*a_images)), *t_images)


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


def _horizontal(X, V):
    """Project the columns of V onto the horizontal spaces {v : x^H v = 0}."""
    return V - X * (X.conj() * V).sum(axis=0)


def _newton_ascent(C, S, D, X0, max_iter: int, step_tol: float):
    """Lockstep Newton-CG ascent over the columns of X0; returns (X, converged, iters).

    A column leaves the batch when its tangent gradient norm is at most
    ``step_tol`` (converged) or when the line search finds no increase
    above _MIN_STEP (stalled).  The Riemannian Hessian applied to a
    horizontal E is the horizontal part of

        2(CE - qD SE - qS DE) - 4(Sx Re<Dx,E> + Dx Re<Sx,E>) - Re<x,grad> E.
    """
    k = C.shape[0]
    M = np.concatenate([C, S, D])  # one matmul yields C V, S V and D V

    def images(V):
        MV = M @ V
        return MV[:k], MV[k:2 * k], MV[2 * k:]

    X = X0 / np.linalg.norm(X0, axis=0)
    b = X.shape[1]
    converged = np.zeros(b, dtype=bool)
    stalled = np.zeros(b, dtype=bool)
    iters = 0
    while True:
        work = np.flatnonzero(~(converged | stalled))
        Xw = X[:, work]
        CX, SX, DX = images(Xw)
        qC, qS, qD = _rdot(Xw, CX), _rdot(Xw, SX), _rdot(Xw, DX)
        G = 2.0 * (CX - SX * qD - DX * qS)
        rad = _rdot(Xw, G)
        # projecting the small remainder again leaves an x-component at the
        # rounding level of |g| rather than |G|; the line search needs that
        g = _horizontal(Xw, G - Xw * rad)
        gn = np.sqrt(_rdot(g, g))
        done = gn <= step_tol
        converged[work[done]] = True
        live = ~done
        if not live.any() or iters == max_iter:
            break
        iters += 1
        work = work[live]
        Xw, CX, SX, DX, g = (V[:, live] for V in (Xw, CX, SX, DX, g))
        qC, qS, qD, rad, gn = (v[live] for v in (qC, qS, qD, rad, gn))

        # truncated CG on (-Hess) eta = g, carrying C/S/D images of eta;
        # it stops at non-positive curvature, and if that happens on the
        # first step eta is the gradient scaled to _MAX_STEP
        eta = np.zeros_like(g)
        Ce, Se, De = eta.copy(), eta.copy(), eta.copy()
        r, p = g.copy(), g.copy()
        rr = gn * gn
        tol2 = (gn * np.minimum(0.5, np.sqrt(gn))) ** 2
        cg = np.ones(work.size, dtype=bool)
        # exact CG ends within 2k - 2 steps, the real dimension of the
        # horizontal space
        for j in range(2 * k):
            CP, SP, DP = images(p)
            Hp = (4.0 * (SX * _rdot(DX, p) + DX * _rdot(SX, p)) + rad * p
                  - 2.0 * (CP - SP * qD - DP * qS))
            Hp = _horizontal(Xw, Hp)
            kappa = _rdot(p, Hp)
            if j == 0:
                curv0 = kappa / rr
                pp = rr
            neg = cg & (kappa <= _CURV_FLOOR * curv0 * pp)
            if j == 0 and neg.any():
                w = _MAX_STEP / gn[neg]
                eta[:, neg], Ce[:, neg], Se[:, neg], De[:, neg] = (
                    V[:, neg] * w for V in (p, CP, SP, DP))
            cg &= ~neg
            alpha = np.where(cg, rr / np.where(cg, kappa, 1.0), 0.0)
            eta += p * alpha
            Ce += CP * alpha
            Se += SP * alpha
            De += DP * alpha
            r -= Hp * alpha
            rr_new = _rdot(r, r)
            cg &= rr_new > tol2
            if not cg.any():
                break
            beta = np.where(cg, rr_new / rr, 0.0)
            p = r + p * beta
            pp = rr_new + beta * beta * pp
            rr = np.where(cg, rr_new, rr)

        # Armijo backtracking on the increase of F, evaluated without
        # cancellation so that tiny steps near a maximum stay measurable:
        # for x^H eta = 0 and x_t = (x + t eta)/|x + t eta|,
        #   <M x_t, x_t> - <M x, x>
        #     = (2t Re<Mx, eta> + t^2 (<M eta, eta> - <Mx, x>|eta|^2)) / (1 + t^2 |eta|^2)
        nn = _rdot(eta, eta)
        lin = [_rdot(V, eta) for V in (CX, SX, DX)]
        quad = [_rdot(eta, V) - q * nn for V, q in zip((Ce, Se, De), (qC, qS, qD))]
        slope = 2.0 * (lin[0] - qD * lin[1] - qS * lin[2])
        t = np.minimum(1.0, _MAX_STEP / np.sqrt(nn))
        pending = np.ones(work.size, dtype=bool)
        while pending.any():
            den = 1.0 + t * t * nn
            dC, dS, dD = ((2.0 * t * l + t * t * q) / den for l, q in zip(lin, quad))
            gain = dC - qS * dD - dS * qD - dS * dD
            pending &= ~((gain > 0.0) & (gain >= _ARMIJO * t * slope))
            t = np.where(pending, 0.5 * t, t)
            lost = pending & ~(t >= _MIN_STEP)
            stalled[work[lost]] = True
            pending &= ~lost
        moved = ~stalled[work]
        Xn = Xw[:, moved] + eta[:, moved] * t[moved]
        X[:, work[moved]] = Xn / np.linalg.norm(Xn, axis=0)
    return X, converged, iters


def solve_multistart(problem: GapProblem, restarts: int = 64, max_iter: int = 500,
                     step_tol: float = 1e-10, seed=0) -> GapResult:
    """Best stationary value of F over ``restarts`` seeded sphere starts.

    The restarts run as one lockstep Newton-CG batch (module docstring);
    ``iterations`` counts its outer iterations and ``converged`` is the
    stop-test flag of the restart that attains the returned value.
    """
    if restarts < 1:
        raise BadDimensions(f"need at least one restart, got {restarts}")
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


# -- brute-force oracle -------------------------------------------------


def _sweep_dim2(C, S, D, resolution: int = _GRID_RESOLUTION) -> np.ndarray:
    """Best x = (cos t, e^{i phi} sin t) on a resolution^2 grid (dim 2 only)."""
    t = np.linspace(0.0, 0.5 * np.pi, resolution)
    ct, st = np.cos(t), np.sin(t)
    cs2 = 2.0 * ct * st
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    eph = np.exp(1j * phis)

    def parts(M):
        base = ct * ct * M[0, 0].real + st * st * M[1, 1].real
        cross = np.real(eph * M[0, 1])
        return base, cross

    baseC, crossC = parts(C)
    baseS, crossS = parts(S)
    baseD, crossD = parts(D)
    best_val = -np.inf
    best_ti = best_pj = 0
    chunk = 256
    for start in range(0, resolution, chunk):
        sl = slice(start, min(start + chunk, resolution))
        qC = baseC[:, None] + np.outer(cs2, crossC[sl])
        qS = baseS[:, None] + np.outer(cs2, crossS[sl])
        qD = baseD[:, None] + np.outer(cs2, crossD[sl])
        Fg = qC - qS * qD
        flat = int(np.argmax(Fg))
        val = float(Fg.flat[flat])
        if val > best_val:
            best_val = val
            best_ti, best_pj = divmod(flat, Fg.shape[1])
            best_pj += start
    return np.array([ct[best_ti], eph[best_pj] * st[best_ti]], dtype=complex)


def _geodesic_poly(z, a, b, c):
    """Value, first and second derivative of a + b cos z + c sin z."""
    cz, sz = np.cos(z), np.sin(z)
    val = a + b * cz + c * sz
    d1 = -b * sz + c * cz
    d2 = -b * cz - c * sz
    return val, d1, d2


def _coordinate_ascent(C, S, D, X0, max_sweeps: int = _MAX_SWEEPS):
    """Exact line maximization along spherical coordinate geodesics.

    Along the geodesic through x and (a phase of) a coordinate axis the
    three quadratic forms are degree-one trig polynomials in z = 2 psi,
    so F restricted to it is maximized by a coarse grid plus safeguarded
    Newton steps.  Monotone by construction; independent of the gradient
    solver it cross-checks.
    """
    X = np.array(X0, dtype=complex)
    X = X / np.linalg.norm(X, axis=0)
    k, b = X.shape
    CX, SX, DX = C @ X, S @ X, D @ X
    qC, qS, qD = _forms(C, S, D, X)
    F = qC - qS * qD
    zg = np.linspace(0.0, 2.0 * np.pi, _GEODESIC_GRID, endpoint=False)
    cg, sg = np.cos(zg), np.sin(zg)
    cols = np.arange(b)
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        F_before = F.copy()
        for j in range(k):
            for unit in (1.0, 1j):
                cmix = X[j].imag if unit == 1j else X[j].real
                nu2 = 1.0 - cmix * cmix
                live = nu2 > 1e-20
                if not live.any():
                    continue
                nu = np.sqrt(np.where(live, nu2, 1.0))
                dvec = np.zeros((k, 1), dtype=complex)
                dvec[j, 0] = unit
                W = (dvec - X * cmix) / nu
                CW = (unit * C[:, j][:, None] - CX * cmix) / nu
                SW = (unit * S[:, j][:, None] - SX * cmix) / nu
                DW = (unit * D[:, j][:, None] - DX * cmix) / nu
                qCw = np.real(np.sum(W.conj() * CW, axis=0))
                qSw = np.real(np.sum(W.conj() * SW, axis=0))
                qDw = np.real(np.sum(W.conj() * DW, axis=0))
                crC = np.real(np.sum(W.conj() * CX, axis=0))
                crS = np.real(np.sum(W.conj() * SX, axis=0))
                crD = np.real(np.sum(W.conj() * DX, axis=0))
                aC, bC = 0.5 * (qC + qCw), 0.5 * (qC - qCw)
                aS, bS = 0.5 * (qS + qSw), 0.5 * (qS - qSw)
                aD, bD = 0.5 * (qD + qDw), 0.5 * (qD - qDw)
                # F on the geodesic grid, one row per column of X
                QC = aC[:, None] + np.outer(bC, cg) + np.outer(crC, sg)
                QS = aS[:, None] + np.outer(bS, cg) + np.outer(crS, sg)
                QD = aD[:, None] + np.outer(bD, cg) + np.outer(crD, sg)
                FG = QC - QS * QD
                jbest = np.argmax(FG, axis=1)
                z0 = zg[jbest]
                F0 = FG[cols, jbest]
                z = z0.copy()
                for _ in range(6):
                    vC, dC, d2C = _geodesic_poly(z, aC, bC, crC)
                    vS, dS, d2S = _geodesic_poly(z, aS, bS, crS)
                    vD, dD, d2D = _geodesic_poly(z, aD, bD, crD)
                    g1 = dC - dS * vD - vS * dD
                    g2 = d2C - d2S * vD - 2.0 * dS * dD - vS * d2D
                    den = np.where(g2 < -1e-300, g2, -1.0)
                    step = np.where(g2 < -1e-300, g1 / den, 0.0)
                    z = z - np.clip(step, -0.2, 0.2)
                vC, _, _ = _geodesic_poly(z, aC, bC, crC)
                vS, _, _ = _geodesic_poly(z, aS, bS, crS)
                vD, _, _ = _geodesic_poly(z, aD, bD, crD)
                Fz = vC - vS * vD
                take_newton = Fz > F0
                zfin = np.where(take_newton, z, z0)
                Ffin = np.maximum(Fz, F0)
                move = live & (Ffin > F)
                if not move.any():
                    continue
                mc = np.flatnonzero(move)
                psi = 0.5 * zfin[mc]
                cp, sp = np.cos(psi), np.sin(psi)
                X[:, mc] = X[:, mc] * cp + W[:, mc] * sp
                CX[:, mc] = CX[:, mc] * cp + CW[:, mc] * sp
                SX[:, mc] = SX[:, mc] * cp + SW[:, mc] * sp
                DX[:, mc] = DX[:, mc] * cp + DW[:, mc] * sp
                czf, szf = np.cos(zfin[mc]), np.sin(zfin[mc])
                qC[mc] = aC[mc] + bC[mc] * czf + crC[mc] * szf
                qS[mc] = aS[mc] + bS[mc] * czf + crS[mc] * szf
                qD[mc] = aD[mc] + bD[mc] * czf + crD[mc] * szf
                F[mc] = qC[mc] - qS[mc] * qD[mc]
        # kill accumulated drift once per sweep
        X = X / np.linalg.norm(X, axis=0)
        CX, SX, DX = C @ X, S @ X, D @ X
        qC, qS, qD = _forms(C, S, D, X)
        F = qC - qS * qD
        if float(np.max(F - F_before)) < 1e-13 * (1.0 + float(np.abs(F).max())):
            break
    return X, F, sweeps


def solve_bruteforce(problem: GapProblem, samples: int = 20000, seed=0) -> GapResult:
    """Sampling oracle: random unit vectors, then coordinate ascent.

    Dimension 1 is closed form.  Dimension 2 additionally sweeps the
    parametrization x = (cos t, e^{i phi} sin t) on a dense grid (the
    global phase is irrelevant).  The best ten candidates are then
    polished by geodesic coordinate ascent.
    """
    if samples < 1:
        raise BadDimensions(f"need at least one sample, got {samples}")
    C, S, D = problem.C, problem.S, problem.D
    k = problem.dim
    if k == 1:
        x = np.array([1.0 + 0.0j])
        return GapResult(gap_objective(problem, x), x, "bruteforce", 0, samples)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((k, samples)) + 1j * rng.standard_normal((k, samples))
    Z = Z / np.linalg.norm(Z, axis=0)
    qC, qS, qD = _forms(C, S, D, Z)
    Fs = qC - qS * qD
    top = np.argsort(Fs)[::-1][:_REFINE_CANDIDATES]
    candidates = [Z[:, top]]
    if k == 2:
        candidates.append(_sweep_dim2(C, S, D)[:, None])
    X0 = np.concatenate(candidates, axis=1)
    X, F, sweeps = _coordinate_ascent(C, S, D, X0)
    best = int(np.argmax(F))
    x = X[:, best] / np.linalg.norm(X[:, best])
    return GapResult(gap_objective(problem, x), x, "bruteforce", sweeps, samples)
