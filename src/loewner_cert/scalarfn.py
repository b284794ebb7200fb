"""Differentiable convex scalar functions with closed-form derivatives.

Four families are admitted: powers t**p (p >= 1 or p <= 0), exp(t),
-log(t), and affine a*t + b.  Each function knows its domain interval and
whether it is monotone there; values and derivatives are exact closed
forms, so the gradient inequality

    f(s) + f'(s) * (t - s) <= f(t)

can be checked to near machine precision for any admitted function.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadInterval,
    DomainError,
    InvalidFunction,
    NonFinite,
    ParseError,
    SpectrumOutsideDomain,
)

__all__ = [
    "Interval",
    "ScalarFunction",
    "power",
    "exponential",
    "neglog",
    "affine",
    "check_gradient_inequality",
    "parse_function",
    "parse_interval",
]

_INF = float("inf")
# eigenvalues this close to a closed domain endpoint are snapped onto it
SPECTRUM_CLAMP_TOL = 1e-10


def _fmt_endpoint(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


@dataclass(frozen=True)
class Interval:
    """Real interval with independently open or closed finite endpoints."""

    lo: float = -_INF
    hi: float = _INF
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise BadInterval("interval endpoints must not be NaN")
        if not lo < hi:
            raise BadInterval(f"need lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # infinite endpoints are always open
        if math.isinf(lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)

    def contains(self, t: float) -> bool:
        above = t >= self.lo if self.lo_closed else t > self.lo
        below = t <= self.hi if self.hi_closed else t < self.hi
        return bool(above and below)

    def contains_interval(self, lo: float, hi: float) -> bool:
        return self.contains(lo) and self.contains(hi)

    def clamp_spectrum(self, w) -> np.ndarray:
        """Snap eigenvalues within SPECTRUM_CLAMP_TOL of a closed endpoint onto it.

        Open endpoints get no grace: values outside raise
        SpectrumOutsideDomain.  Returns the (possibly clamped) array.
        """
        w, inside = self._snap(w)
        if not inside.all():
            raise SpectrumOutsideDomain(w[~inside].tolist(), self)
        return w

    def _snap(self, w) -> tuple[np.ndarray, np.ndarray]:
        """(w snapped onto the closed endpoints, elementwise membership), for any shape.

        Membership is ``contains`` taken elementwise: NaN is outside.
        """
        w = np.array(w, dtype=float, copy=True)
        if self.lo_closed:
            w[np.abs(w - self.lo) <= SPECTRUM_CLAMP_TOL] = self.lo
        if self.hi_closed:
            w[np.abs(w - self.hi) <= SPECTRUM_CLAMP_TOL] = self.hi
        above = w >= self.lo if self.lo_closed else w > self.lo
        below = w <= self.hi if self.hi_closed else w < self.hi
        return w, above & below

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{_fmt_endpoint(self.lo)},{_fmt_endpoint(self.hi)}{rb}"


_INTERVAL_RE = re.compile(
    r"^\s*([\[\(])\s*([^,\s]+)\s*,\s*([^,\s\]\)]+)\s*([\]\)])\s*$"
)


def parse_interval(text: str) -> Interval:
    """Parse "(0,inf)", "[0.5,3]" and friends."""
    m = _INTERVAL_RE.match(text)
    if m is None:
        raise ParseError(f"malformed interval {text!r}")
    lb, lo_s, hi_s, rb = m.groups()
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ParseError(f"malformed interval endpoint in {text!r}") from exc
    try:
        return Interval(lo, hi, lo_closed=(lb == "["), hi_closed=(rb == "]"))
    except BadInterval as exc:
        raise ParseError(str(exc)) from exc


_REALS = Interval()
_POS_OPEN = Interval(0.0, _INF)
_POS_CLOSED = Interval(0.0, _INF, lo_closed=True)


def _is_even_power(p: float) -> bool:
    return p >= 2 and float(p).is_integer() and int(p) % 2 == 0


def _operand(w):
    """``w`` as a numpy float scalar if it is a float, else as a float array.

    A ufunc maps a numpy scalar through the loop it runs on arrays, so a
    scalar value has the bits of the same entry of an array, without
    building a one-element array.
    """
    return np.float64(w) if isinstance(w, float) else np.asarray(w, dtype=float)


@dataclass(frozen=True)
class ScalarFunction:
    """A convex function from one of the admitted families.

    ``params`` holds the family parameters (the exponent for powers, the
    slope and intercept for affine maps).  Values and derivatives outside
    ``domain`` raise DomainError; closed endpoints use the one-sided
    derivative.
    """

    family: str
    params: tuple
    domain: Interval

    # -- evaluation ---------------------------------------------------

    def _check(self, t: float) -> float:
        t = float(t)
        if not self.domain.contains(t):
            raise DomainError(f"{t} outside domain {self.domain} of {self.spec_string()}")
        return t

    def eval(self, t: float) -> float:
        return float(self.value_array(self._check(t)))

    __call__ = eval

    def deriv(self, t: float) -> float:
        """f'(t), the one checked scalar path: NonFinite where it overflows."""
        t = self._check(t)
        with np.errstate(all="ignore"):  # reported below
            d = float(self.deriv_array(t))
        if not math.isfinite(d):
            raise NonFinite(f"f'({t!r}) is not finite, f = {self.spec_string()}")
        return d

    def value_array(self, w) -> np.ndarray:
        """Vectorized values; callers must pre-validate the domain.

        A float gives a numpy scalar from the same ufunc loops as an array
        (see ``_operand``).
        """
        w = _operand(w)
        if self.family == "power":
            return np.power(w, self.params[0])
        if self.family == "exp":
            return np.exp(w)
        if self.family == "neglog":
            return -np.log(w)
        a, b = self.params
        return a * w + b

    def deriv_array(self, w) -> np.ndarray:
        w = _operand(w)
        if self.family == "power":
            p = self.params[0]
            if p == 0:
                return np.zeros_like(w)
            return p * np.power(w, p - 1.0)
        if self.family == "exp":
            return np.exp(w)
        if self.family == "neglog":
            return -1.0 / w
        return np.full_like(w, self.params[0])

    # -- metadata -----------------------------------------------------

    @property
    def monotonicity(self) -> str:
        """One of "increasing", "decreasing", "neither", on the domain.

        Weakly monotone counts: constants are tagged "increasing".  The
        only admitted family that can be non-monotone is an even power on
        a domain straddling zero.
        """
        lo, hi = self.domain.lo, self.domain.hi
        if self.family == "power":
            p = self.params[0]
            if p == 0:
                return "increasing"
            if p < 0:
                return "decreasing"
            if lo >= 0:
                return "increasing"
            if hi <= 0:
                return "decreasing"
            return "neither"
        if self.family == "exp":
            return "increasing"
        if self.family == "neglog":
            return "decreasing"
        return "increasing" if self.params[0] >= 0 else "decreasing"

    def spec_string(self) -> str:
        """Canonical textual form, e.g. "power:2;dom=[0,inf)"."""
        if self.family == "power":
            head = f"power:{_fmt_endpoint(self.params[0])}"
        elif self.family == "affine":
            a, b = self.params
            head = f"affine:{_fmt_endpoint(a)},{_fmt_endpoint(b)}"
        else:
            head = self.family
        return f"{head};dom={self.domain}"


# -- family constructors ---------------------------------------------


def power(p: float, domain: Interval | None = None) -> ScalarFunction:
    """t**p, admitted for p >= 1 or p <= 0.

    Default domains: the whole line for even integer exponents, [0, inf)
    for other exponents >= 1, and (0, inf) for p <= 0.
    """
    p = float(p)
    if not (p >= 1.0 or p <= 0.0):
        raise InvalidFunction(f"power exponent must satisfy p >= 1 or p <= 0, got {p}")
    if domain is None:
        if _is_even_power(p):
            domain = _REALS
        elif p >= 1.0:
            domain = _POS_CLOSED
        else:
            domain = _POS_OPEN
    else:
        if p >= 1.0 and not _is_even_power(p) and domain.lo < 0:
            raise InvalidFunction(
                f"power:{p} needs a nonnegative domain, got {domain}"
            )
        if p <= 0.0 and (domain.lo < 0 or (domain.lo == 0 and domain.lo_closed)):
            raise InvalidFunction(
                f"power:{p} needs a domain inside (0, inf), got {domain}"
            )
    return ScalarFunction("power", (p,), domain)


def exponential(domain: Interval | None = None) -> ScalarFunction:
    return ScalarFunction("exp", (), domain or _REALS)


def neglog(domain: Interval | None = None) -> ScalarFunction:
    """-log(t) on a subinterval of (0, inf)."""
    domain = domain or _POS_OPEN
    if domain.lo < 0 or (domain.lo == 0 and domain.lo_closed):
        raise InvalidFunction(f"neglog needs a domain inside (0, inf), got {domain}")
    return ScalarFunction("neglog", (), domain)


def affine(a: float, b: float, domain: Interval | None = None) -> ScalarFunction:
    return ScalarFunction("affine", (float(a), float(b)), domain or _REALS)


def check_gradient_inequality(f: ScalarFunction, s: float, t: float, tol: float = 0.0) -> bool:
    """True when f(s) + f'(s) (t - s) <= f(t) + tol."""
    return f.eval(s) + f.deriv(s) * (t - s) <= f.eval(t) + tol


# -- textual specs ---------------------------------------------------

# family -> (constructor taking its arguments then the domain, arity, usage)
_FAMILIES = {
    "power": (power, 1, "exactly one exponent"),
    "exp": (exponential, 0, "no arguments"),
    "neglog": (neglog, 0, "no arguments"),
    "affine": (affine, 2, "a slope and an intercept"),
}


def parse_function(spec: str) -> ScalarFunction:
    """Parse "power:3", "exp", "neglog", "affine:2,-1".

    An optional domain rides after a semicolon: "power:2;dom=[0,inf)".
    """
    parts = [p.strip() for p in spec.strip().split(";") if p.strip()]
    if not parts:
        raise ParseError("empty function spec")
    head, domain = parts[0], None
    for extra in parts[1:]:
        if extra.startswith("dom="):
            domain = parse_interval(extra[len("dom="):])
        else:
            raise ParseError(f"unrecognized function spec component {extra!r}")
    name, _, argtext = head.partition(":")
    name = name.strip()
    args = []
    if argtext:
        try:
            args = [float(a) for a in argtext.split(",")]
        except ValueError as exc:
            raise ParseError(f"malformed numeric arguments in {head!r}") from exc
    if name not in _FAMILIES:
        raise ParseError(f"unknown function family {name!r}")
    construct, arity, usage = _FAMILIES[name]
    if len(args) != arity:
        raise ParseError(f"{name} takes {usage}")
    try:
        return construct(*args, domain)
    except InvalidFunction as exc:
        raise ParseError(str(exc)) from exc
