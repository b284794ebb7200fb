"""Closed-form constants for multiplicative-additive order bounds.

chord_coeffs gives the secant line of a convex f over [m, M]; beta is the
largest gap between that secant and alpha * f, so that

    f(t) <= alpha * f(t) + beta   is replaced by   chord(t) <= alpha f(t) + beta

holding on all of [m, M].  kantorovich is the generalized Kantorovich
constant K(m, M, p) controlling B**p <= K * A**p under B <= A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInterval, DomainError, NonFinite, NonPositiveAlpha
from .scalarfn import ScalarFunction

__all__ = ["ChordCoefficients", "chord_coeffs", "beta", "beta_point", "kantorovich"]

_BISECT_TOL = 1e-12
_P_LIMIT_TOL = 1e-9


@dataclass(frozen=True)
class ChordCoefficients:
    """Secant coefficients: chord(t) = a_f * t + b_f on [m, M]."""

    a_f: float
    b_f: float
    m: float
    M: float

    def __iter__(self):
        return iter((self.a_f, self.b_f))

    def __call__(self, t: float) -> float:
        return self.a_f * t + self.b_f


def _check_ends(**ends) -> None:
    """Each window end given must be finite; None stands for a default end."""
    for name, value in ends.items():
        if value is not None and not math.isfinite(value):
            raise BadInterval(f"need a finite {name}, got {value}")


def _check_window(f: ScalarFunction, m: float, M: float) -> None:
    _check_ends(m=m, M=M)
    if not m < M:
        raise BadInterval(f"need m < M, got ({m}, {M})")
    if not f.domain.contains_interval(m, M):
        raise DomainError(f"[{m}, {M}] not inside domain {f.domain} of {f.spec_string()}")


def chord_coeffs(f: ScalarFunction, m: float, M: float) -> ChordCoefficients:
    """Coefficients of the secant of f over [m, M]; NonFinite if beyond the float range."""
    _check_window(f, m, M)
    with np.errstate(over="ignore"):  # reported below
        fm, fM = f.eval(m), f.eval(M)
    a_f = (fM - fm) / (M - m)
    b_f = (M * fm - m * fM) / (M - m)
    if not all(map(math.isfinite, (fm, fM, a_f, b_f))):
        raise NonFinite(f"the chord of {f.spec_string()} over [{m}, {M}] overflows")
    return ChordCoefficients(a_f, b_f, m, M)


def beta_point(f: ScalarFunction, m: float, M: float, alpha: float) -> tuple[float, float]:
    """Maximum of g(t) = a_f t + b_f - alpha f(t) on [m, M], with argmax.

    g is concave for convex f and alpha > 0, so the maximizer is an
    endpoint or the root of g'(t) = a_f - alpha f'(t), found by bisection
    to 1e-12 in t.
    """
    if not 0 < alpha < math.inf:
        raise NonPositiveAlpha(f"alpha must be finite and positive, got {alpha}")
    coeffs = chord_coeffs(f, m, M)

    def g(t: float) -> float:
        return coeffs(t) - alpha * f.eval(t)

    def gprime(t: float) -> float:
        # f' rises on [m, M] (f is convex): finite between the ends checked below
        return coeffs.a_f - alpha * float(f.deriv_array(np.array([t]))[0])

    candidates = [m, M]
    if coeffs.a_f - alpha * f.deriv(m) > 0 and coeffs.a_f - alpha * f.deriv(M) < 0:
        lo, hi = m, M
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if gprime(mid) > 0:
                lo = mid
            else:
                hi = mid
        candidates.append(0.5 * (lo + hi))
    t_star = max(candidates, key=g)
    return g(t_star), t_star


def beta(f: ScalarFunction, m: float, M: float, alpha: float) -> float:
    return beta_point(f, m, M, alpha)[0]


def kantorovich(m: float, M: float, p: float) -> float:
    """Generalized Kantorovich constant K(m, M, p) for 0 < m < M.

    K(m, M, p) = (m M^p - M m^p) / ((p - 1)(M - m))
                 * ((p - 1)/p * (M^p - m^p) / (m M^p - M m^p))^p,

    with the removable singularities at p = 0 and p = 1 routed to 1.
    A non-finite m, M or p raises BadInterval, and K beyond the float range NonFinite.
    """
    _check_ends(m=m, M=M, p=p)
    if not (0 < m < M):
        raise BadInterval(f"need 0 < m < M, got ({m}, {M})")
    p = float(p)
    if abs(p) <= _P_LIMIT_TOL or abs(p - 1.0) <= _P_LIMIT_TOL:
        return 1.0
    try:  # a float power raises OverflowError, and one that underflows to 0 can divide by it
        mp, Mp = m ** p, M ** p
        lead = (m * Mp - M * mp) / ((p - 1.0) * (M - m))
        base = (p - 1.0) / p * (Mp - mp) / (m * Mp - M * mp)
        K = lead * base ** p
    except (OverflowError, ZeroDivisionError):
        K = math.nan
    if not math.isfinite(K):
        raise NonFinite(f"K({m}, {M}, {p}) overflows or underflows the float range")
    return K
