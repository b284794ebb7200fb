"""Hermitian matrix utilities.

Spectral decomposition, functional calculus f(A) = U f(diag) U*, Loewner
order checks via the smallest eigenvalue of a difference, and seeded
generators for test instances.  Matrices are plain complex ndarrays; the
JSON form is {"dim": n, "re": [[...]], "im": [[...]]} with "im" optional.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadInterval,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    ParseError,
)
from .scalarfn import Interval, ScalarFunction

__all__ = [
    "SpectralDecomposition",
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
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def require_hermitian(A, *, name: str = "matrix") -> np.ndarray:
    """Return A as a complex ndarray, raising NotHermitian on asymmetry.

    The tolerance scales with the largest entry: |A - A*| <= HERMITIAN_RTOL (1 + max|A|).
    A NaN or infinite entry raises NonFinite, naming the operand ``name``.
    """
    A = as_matrix(A)
    scale = 1.0 + (float(np.abs(A).max()) if A.size else 0.0)
    if not np.isfinite(scale):
        raise NonFinite(f"{name} has a non-finite entry")
    defect = float(np.abs(A - A.conj().T).max()) if A.size else 0.0
    if defect > HERMITIAN_RTOL * scale:
        raise NotHermitian(f"asymmetry {defect:.3e} exceeds {HERMITIAN_RTOL:.1e} * {scale:.3e}")
    return A


def hermitize(A) -> np.ndarray:
    """Project onto the Hermitian part; cheap insurance against rounding.

    Halving before adding keeps entries near the float maximum finite.
    """
    H = 0.5 * np.asarray(A, dtype=complex)
    return H + H.conj().T


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and a unitary of matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        U = self.eigenvectors
        return (U * self.eigenvalues) @ U.conj().T


def spectral_decompose(A) -> SpectralDecomposition:
    A = require_hermitian(A)
    w, U = np.linalg.eigh(hermitize(A))
    return SpectralDecomposition(w, U)


def _spectral_images(dec: SpectralDecomposition, fns, domain: Interval | None = None,
                     name: str = "matrix") -> list:
    """fn(A) for each fn in ``fns`` from A's decomposition ``dec`` and one clamp.

    An eigenvalue beyond the float range raises NonFinite naming ``name``
    before the spectrum is checked against ``domain``.
    """
    w = dec.eigenvalues
    if not np.isfinite(w).all():
        raise NonFinite(f"{name} has an eigenvalue that overflows")
    if domain is not None:
        w = domain.clamp_spectrum(w)
    U = dec.eigenvectors
    return [hermitize((U * np.asarray(fn(w), dtype=float)) @ U.conj().T) for fn in fns]


def apply_spectral(A, fn, domain: Interval | None = None, name: str = "matrix") -> np.ndarray:
    """Apply a scalar callable to A through its eigenvalues.

    When a domain is given the spectrum is validated against it first;
    eigenvalues within SPECTRUM_CLAMP_TOL of a closed endpoint are snapped
    onto it so that rounding does not cause spurious rejections.  Errors
    about A name it ``name``.
    """
    return _spectral_images(spectral_decompose(A), (fn,), domain, name=name)[0]


def calc(f: ScalarFunction, A, name: str = "matrix") -> np.ndarray:
    """Functional calculus f(A) for an admitted convex function."""
    return apply_spectral(A, f.value_array, f.domain, name=name)


def _power(dec: SpectralDecomposition, p: float, name: str) -> np.ndarray:
    """A**p from A's decomposition; p other than 0, 1, 2, ... needs A >= 0."""
    p = float(p)
    domain = None if p.is_integer() and p >= 0 else Interval(0.0, float("inf"), lo_closed=True)
    return _spectral_images(dec, (lambda w: np.power(w, p),), domain, name=name)[0]


def matrix_power(A, p: float, name: str = "matrix") -> np.ndarray:
    """A**p through the spectrum; non-integer p requires A >= 0."""
    return _power(spectral_decompose(A), p, name)


class LoewnerCheck(NamedTuple):
    holds: bool
    slack: float


def min_eigenvalue(A) -> float:
    return float(np.linalg.eigvalsh(hermitize(A))[0])


def loewner_leq(A, B, tol: float = 0.0) -> LoewnerCheck:
    """Check A <= B in the Loewner order; slack is lambda_min(B - A)."""
    A = require_hermitian(A)
    B = require_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    slack = min_eigenvalue(B - A)
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
    """Random Hermitian with spectrum drawn uniformly from [lo, hi]."""
    if not lo < hi:
        raise BadInterval(f"need lo < hi, got ({lo}, {hi})")
    u = rng.uniform(lo, hi, size=n)
    Q = random_unitary(n, rng)
    return hermitize((Q * u) @ Q.conj().T)


def random_dominated_pair(n: int, m: float, M: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw (A, B) with B <= A and both spectra inside [m, M], 0 < m < M.

    A gets a uniform spectrum in [m, M]; B = A - c*P for a strictly
    positive random P.  B - m'I is congruent to X - cI with
    X = P^{-1/2} (A - m'I) P^{-1/2}, so c = min(1, lambda_min(X)) is the
    largest c in (0, 1] keeping lambda_min(B) >= m'; m' sits 4 n eps M
    above m so that lambda_min(B) >= m survives rounding.
    """
    if not (0 < m < M):
        raise BadInterval(f"need 0 < m < M, got ({m}, {M})")
    rng = np.random.default_rng(seed)
    A = random_hermitian(n, m, M, rng)
    P = random_hermitian(n, 0.1, 1.0, rng)
    m_safe = m + 4 * n * np.finfo(float).eps * M
    w, U = np.linalg.eigh(P)
    s = 1.0 / np.sqrt(w)
    # X in P's eigenbasis: D^{-1/2} U* (A - m'I) U D^{-1/2}
    X = s[:, None] * (U.conj().T @ (A - m_safe * np.eye(n)) @ U) * s
    c = min(1.0, min_eigenvalue(X))
    if c < 1e-8:
        # no room below A; an exactly equal pair satisfies every postcondition
        return A, A.copy()
    B = hermitize(A - c * P)
    return A, B


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
        raise ParseError(f"{name}: 'dim' must be an integer") from None
    re = _square_field(obj, "re", n, name)
    if obj.get("im") is not None:
        im = _square_field(obj, "im", n, name)
    else:
        im = np.zeros_like(re)
    return require_hermitian(re + 1j * im, name=name)
