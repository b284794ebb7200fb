"""Hermitian matrix utilities.

Spectral decomposition, functional calculus f(A) = U f(diag) U*, Loewner
order checks via the smallest eigenvalue of a difference, and seeded
generators for test instances.  Matrices are plain complex ndarrays; the
JSON form is {"dim": n, "re": [[...]], "im": [[...]]} with "im" optional.

An operand is checked once, where it enters, by ``require_hermitian``,
which returns its exact Hermitian part.  Code holding such a matrix passes
it to ``np.linalg.eigh`` directly and neither checks nor hermitizes it
again, nor their sums, differences and real multiples, nor their images
under the maps of a family; the public functions below still check their
own arguments.  Operands of one size are decomposed by one stacked
``eigh`` call (``_by_size``), and ``_spectral_images`` forms every image
f(A), f'(A), ... of a stack from one product (U * f(w)) @ U*: one domain
check, one hermitize and one finiteness check per stack.  Each result has
the bits of the same computation on one matrix, and ``_raise_first`` names
the first operand at fault and, for an image that overflows, the image and f.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import (
    BadInterval,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    ParseError,
    SpectrumOutsideDomain,
)
from .constants import _check_ends
from .scalarfn import Interval, ScalarFunction, _fmt_endpoint

__all__ = [
    "LoewnerCheck",
    "require_hermitian",
    "hermitize",
    "spectral_decompose",
    "apply_spectral",
    "calc",
    "matrix_power",
    "loewner_leq",
    "min_eigenvalue",
    "random_unitary",
    "random_hermitian",
    "random_dominated_pair",
    "matrix_to_obj",
    "matrix_from_obj",
]

HERMITIAN_RTOL = 1e-12


def as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DimensionMismatch(f"expected a square matrix of size >= 1, got shape {A.shape}")
    return A


def require_hermitian(A, *, name: str = "matrix") -> np.ndarray:
    """Return ``hermitize(A)``, raising NotHermitian on asymmetry.

    The tolerance scales with the largest entry: |A - A*| <= HERMITIAN_RTOL (1 + max|A|).
    A NaN or infinite entry raises NonFinite, naming the operand ``name``.
    """
    A = as_matrix(A)
    scale = 1.0 + float(np.abs(A).max())
    if not np.isfinite(scale):
        raise NonFinite(f"{name} has a non-finite entry")
    defect = float(np.abs(A - A.conj().T).max())
    if defect > HERMITIAN_RTOL * scale:
        raise NotHermitian(f"asymmetry {defect:.3e} exceeds {HERMITIAN_RTOL:.1e} * {scale:.3e}")
    return hermitize(A)


def hermitize(A) -> np.ndarray:
    """Project onto the Hermitian part; cheap insurance against rounding.

    Halving before adding keeps entries near the float maximum finite.  The
    result is exactly Hermitian (entry (i, j) and conj (j, i) sum the same
    two halves), so hermitizing it again changes no bit unless an entry is
    subnormal.  A stack of matrices is hermitized matrix by matrix.
    """
    H = 0.5 * np.asarray(A, dtype=complex)
    return H + H.conj().swapaxes(-1, -2)


def spectral_decompose(A) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of the checked A: ascending eigenvalues w and a unitary U."""
    return np.linalg.eigh(require_hermitian(A))


def _by_size(mats, decompose) -> list:
    """[(positions, decompose(stack))]: one call per size, on the matrices of that size.

    ``decompose`` is ``np.linalg.eigh`` or ``eigvalsh``; LAPACK runs the same
    routine on each matrix of a stack, so every result has the bits of a
    call on that matrix alone.  Sizes come in order of first appearance.
    """
    groups = {}
    for i, X in enumerate(mats):
        groups.setdefault(X.shape, []).append(i)
    return [(idx, decompose(np.array([mats[i] for i in idx]))) for idx in groups.values()]


def _clamped(w, domain: Interval | None):
    """(spectra ``w`` clamped onto ``domain``, per-spectrum flag: finite and inside)."""
    ok = np.isfinite(w).all(axis=-1)
    if domain is None:
        return w, ok
    w, inside = domain._snap(w)
    return w, ok & inside.all(axis=-1)


def _raise_first(faults, domain: Interval | None, names, f: str = "") -> None:
    """Raise for the first of ``faults`` (operand, spectrum, image label) in operand order.

    The label is None where the spectrum is at fault: it overflows or leaves ``domain``.
    """
    if not faults:
        return
    i, w, label = min(faults, key=lambda fault: fault[0])
    if label is not None:
        raise NonFinite(f"{label}({names[i]}) has a non-finite entry, f = {f}")
    if not np.isfinite(w).all():
        raise NonFinite(f"{names[i]} has an eigenvalue that overflows")
    try:
        domain.clamp_spectrum(w)
    except SpectrumOutsideDomain as exc:
        exc.args = (f"{names[i]} has {exc}",)
        raise


def _check_spectra(groups, domain: Interval | None, names) -> None:
    """Check spectra from stacked ``eigvalsh`` groups (see ``_by_size``) against ``domain``.

    The first operand at fault, in the order of ``names``, raises.
    """
    _raise_first([(i, wi, None) for idx, w in groups for i, wi, ok
                  in zip(idx, w, _clamped(w, domain)[1].tolist()) if not ok], domain, names)


def _spectral_images(groups, fns: dict, domain: Interval | None, names, f: str) -> list:
    """Per operand, the stack of its images g(X), one per label g -> callable in ``fns``.

    ``groups`` holds the stacked ``eigh`` pairs of the operands, one per
    size (see ``_by_size``), and ``names`` names the operands in order.
    Each group's spectra are checked and clamped onto ``domain`` at once,
    and every image of the group comes from one product (U * g(w)) @ U*,
    hermitized once and checked for finiteness once; it has the bits of
    that image formed alone.  ``_raise_first`` reports the first operand at
    fault, an image as "f'(A) has a non-finite entry, f = exp;dom=(-inf,inf)".
    """
    labels = list(fns)
    images = [None] * len(names)
    faults = []
    for idx, (w, U) in groups:
        wc, ok = _clamped(w, domain)
        F = np.empty((len(fns), *w.shape))
        with np.errstate(all="ignore"):  # a fault is reported below
            for row, fn in zip(F, fns.values()):
                row[...] = fn(wc)
            U = U[:, None]
            F = F.swapaxes(0, 1)[..., None, :]  # (operands, labels, 1, n)
            stack = hermitize((U * F) @ U.conj().swapaxes(-1, -2))
        bad = ~(ok[:, None] & np.isfinite(stack).all(axis=(-2, -1)))
        if bad.any():
            faults += [(idx[j], w[j], labels[c] if ok[j] else None) for j, c in np.argwhere(bad)]
        for j, i in enumerate(idx):
            images[i] = stack[j]
    _raise_first(faults, domain, names, f)
    return images


def _decomposed(A) -> list:
    """The ``_by_size`` groups of the checked A alone."""
    return _by_size([require_hermitian(A)], np.linalg.eigh)


def _image(groups, fn, domain: Interval | None, names, f: str) -> list:
    """The one image fn(X) of each operand: ``_spectral_images`` with the one label "f"."""
    return [stack[0] for stack in _spectral_images(groups, {"f": fn}, domain, names, f)]


def apply_spectral(A, fn, domain: Interval | None = None, name: str = "matrix") -> np.ndarray:
    """Apply a scalar callable to A through its eigenvalues.

    When a domain is given the spectrum is validated against it first;
    eigenvalues within SPECTRUM_CLAMP_TOL of a closed endpoint are snapped
    onto it so that rounding does not cause spurious rejections.  Errors
    about A name it ``name``, and an image that overflows raises NonFinite.
    """
    return _image(_decomposed(A), fn, domain, [name], getattr(fn, "__name__", "fn"))[0]


def _calc(groups, f: ScalarFunction, names) -> list:
    """f(X) of each operand, from the stacked ``eigh`` pairs ``groups``."""
    return _image(groups, f.value_array, f.domain, names, f.spec_string())


def calc(f: ScalarFunction, A, name: str = "matrix") -> np.ndarray:
    """Functional calculus f(A) for an admitted convex function."""
    return _calc(_decomposed(A), f, [name])[0]


def _power(groups, p: float, names) -> list:
    """X**p of each operand, from the stacked ``eigh`` pairs ``groups``.

    p other than 0, 1, 2, ... needs X >= 0.
    """
    p = float(p)
    domain = None if p.is_integer() and p >= 0 else Interval(0.0, float("inf"), lo_closed=True)
    return _image(groups, lambda w: np.power(w, p), domain, names, f"power:{_fmt_endpoint(p)}")


def matrix_power(A, p: float, name: str = "matrix") -> np.ndarray:
    """A**p through the spectrum; non-integer p requires A >= 0."""
    return _power(_decomposed(A), p, [name])[0]


class LoewnerCheck(NamedTuple):
    holds: bool
    slack: float


def min_eigenvalue(A) -> float:
    """The least eigenvalue of A's Hermitian part; a NaN or infinite entry raises NonFinite."""
    A = as_matrix(A)
    if not np.isfinite(A).all():
        raise NonFinite("matrix has a non-finite entry")
    return float(np.linalg.eigvalsh(hermitize(A))[0])


def loewner_leq(A, B, tol: float = 0.0) -> LoewnerCheck:
    """Check A <= B in the Loewner order; slack is lambda_min(B - A)."""
    A = require_hermitian(A)
    B = require_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    with np.errstate(over="ignore"):  # reported below
        diff = B - A
    if not np.isfinite(diff).all():
        raise NonFinite("B - A overflows")
    slack = min_eigenvalue(diff)
    return LoewnerCheck(slack >= -tol, slack)


# -- seeded generators ------------------------------------------------


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    ph = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return Q * ph


def random_hermitian(n: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian with spectrum drawn uniformly from [lo, hi], both finite."""
    _check_ends(lo=lo, hi=hi)
    if not lo < hi:
        raise BadInterval(f"need lo < hi, got ({lo}, {hi})")
    if not float(hi) - float(lo) < np.inf:
        raise BadInterval(f"hi - lo exceeds the float range, got ({lo}, {hi})")
    u = rng.uniform(lo, hi, size=n)
    Q = random_unitary(n, rng)
    return hermitize((Q * u) @ Q.conj().T)


def random_dominated_pair(n: int, m: float, M: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw (A, B) with B <= A and both spectra inside [m, M], 0 < m < M.

    A gets a uniform spectrum in [m, M]; B = A - c*P for a strictly
    positive random P.  B - m'I is congruent to X - cI with
    X = P^{-1/2} (A - m'I) P^{-1/2}, so c = min(1, lambda_min(X)) is the
    largest c in (0, 1] keeping lambda_min(B) >= m'; m' sits 4 n eps M
    above m so that lambda_min(B) >= m survives rounding.  m and M must be finite.
    """
    _check_ends(m=m, M=M)
    if not (0 < m < M):
        raise BadInterval(f"need 0 < m < M, got ({m}, {M})")
    rng = np.random.default_rng(seed)
    A = random_hermitian(n, m, M, rng)
    P = random_hermitian(n, 0.1, 1.0, rng)
    m_safe = m + 4 * n * np.finfo(float).eps * M
    w, U = np.linalg.eigh(P)
    s = 1.0 / np.sqrt(w)
    # X in P's eigenbasis: D^{-1/2} U* (A - m'I) U D^{-1/2}; it overflows
    # for M near the float maximum
    with np.errstate(all="ignore"):  # reported below
        X = s[:, None] * (U.conj().T @ (A - m_safe * np.eye(n)) @ U) * s
    if not np.isfinite(X).all():
        raise NonFinite(f"P^-1/2 (A - m'I) P^-1/2 overflows for the window [{m}, {M}]")
    c = min(1.0, float(np.linalg.eigvalsh(hermitize(X))[0]))
    if c < 1e-8:
        # no room below A; an exactly equal pair satisfies every postcondition
        return A, A.copy()
    return A, A - c * P


# -- JSON form ---------------------------------------------------------


def matrix_to_obj(A) -> dict:
    A = as_matrix(A)
    obj = {"dim": int(A.shape[0]), "re": A.real.tolist()}
    if np.abs(A.imag).max(initial=0.0) > 0.0:
        obj["im"] = A.imag.tolist()
    return obj


def _json_int(value) -> int:
    """``value`` as an int if it is integral, else ValueError.

    A bool, a non-integral number or a non-number is refused rather than
    truncated, so that a size or an index in a file is taken as written.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _square_field(obj: dict, key: str, n: int, name: str) -> np.ndarray:
    """obj[key] as an n x n float array, else ParseError naming ``name``."""
    try:
        M = np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError):  # ragged rows or non-numbers
        M = None
    if M is None or M.shape != (n, n):
        got = "ragged or non-numeric rows" if M is None else f"shape {M.shape}"
        raise ParseError(f"{name}: '{key}' must be {n}x{n} numbers, got {got}")
    return M


def matrix_from_obj(obj, name: str = "matrix") -> np.ndarray:
    """Parse the JSON form; ``name`` (e.g. the file path) labels every error."""
    if not isinstance(obj, dict) or "dim" not in obj or "re" not in obj:
        raise ParseError(f"{name}: matrix object needs 'dim' and 're' fields")
    try:
        n = _json_int(obj["dim"])
    except (TypeError, ValueError):
        n = 0
    if n < 1:
        raise ParseError(f"{name}: 'dim' must be an integer >= 1")
    re = _square_field(obj, "re", n, name)
    if obj.get("im") is not None:
        im = _square_field(obj, "im", n, name)
    else:
        im = np.zeros_like(re)
    return require_hermitian(re + 1j * im, name=name)
