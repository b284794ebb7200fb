"""Positive linear maps between matrix algebras and unital families.

Three variants: conjugation X -> V* X V, pinching onto a block-diagonal
index partition, and the diagonal restriction X -> diag(X).  A family
{Phi_i} is unital when sum_i Phi_i(I) = I; random unital families come
from slicing orthonormal columns of a Haar unitary into vertical blocks.

Maps are immutable: a conjugation keeps its own read-only copy of V, and
a pinch a read-only mask, so a family's unitality defect is computed once.
The public ``apply`` and ``MapFamily.apply_sum`` check their arguments.
The spectral assembly (``gaps._assemble``) holds matrices that are checked
and exactly Hermitian already, operands and their images alike; it maps
each operand's whole stack of them through its map at once with
``_map_sum`` and does not check them again.  Both paths run the same
arithmetic, matrix by matrix, so a stack maps to the bits of its matrices
mapped one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Union

import numpy as np

from .errors import BadDimensions, DimensionMismatch, NonFinite, ParseError
from .hermitian import _json_int, hermitize, random_unitary, require_hermitian

__all__ = [
    "Conjugation",
    "Pinch",
    "Diag",
    "PositiveLinearMap",
    "MapFamily",
    "UnitalCheck",
    "check_unital_family",
    "identity_family",
    "random_unital_family",
    "map_to_obj",
    "map_from_obj",
    "family_to_obj",
    "family_from_obj",
]

UNITAL_DEFECT_TOL = 1e-10


def _checked(phi, X) -> np.ndarray:
    """X checked as an argument of ``phi``: Hermitian, of its input size."""
    X = require_hermitian(X)
    n = phi.input_dim
    if X.shape[0] != n:
        raise DimensionMismatch(f"map expects {n}x{n}, got {X.shape}")
    return X


def _frozen(X: np.ndarray) -> np.ndarray:
    X.flags.writeable = False
    return X


@dataclass(frozen=True)
class Conjugation:
    """X -> V* X V for a fixed n-by-k matrix V, copied from the caller's array."""

    V: np.ndarray

    variant = "conjugation"

    def __post_init__(self):
        V = np.array(self.V, dtype=complex)
        if V.ndim != 2 or not V.size:
            raise BadDimensions(f"V must be a matrix with a row and a column, got shape {V.shape}")
        if not np.isfinite(V).all():
            raise NonFinite("conjugation map V has a non-finite entry")
        object.__setattr__(self, "V", _frozen(V))
        object.__setattr__(self, "_VH", _frozen(V.conj().T))

    @property
    def input_dim(self) -> int:
        return self.V.shape[0]

    @property
    def output_dim(self) -> int:
        return self.V.shape[1]

    def apply(self, X) -> np.ndarray:
        return self._map(_checked(self, X))

    def _map(self, X) -> np.ndarray:
        """V* X V, exactly Hermitian, for an exactly Hermitian X or a stack of them."""
        return hermitize(self._VH @ X @ self.V)


@dataclass(frozen=True)
class Pinch:
    """Block-diagonal restriction along a partition of {0, ..., dim-1}."""

    dim: int
    blocks: tuple

    variant = "pinch"

    def __post_init__(self):
        def index(i):
            try:
                return _json_int(i)
            except ValueError:
                raise BadDimensions(f"pinch block entry {i!r} is not an integer") from None

        if self.dim == 0:
            raise BadDimensions(f"a {self.variant} map needs dim >= 1, got {self.dim}")
        blocks = tuple(tuple(index(i) for i in blk) for blk in self.blocks)
        seen = [i for blk in blocks for i in blk]
        if self.dim < 0 or sorted(seen) != list(range(self.dim)):
            raise BadDimensions(f"blocks {blocks} do not partition range({self.dim})")
        kept = np.zeros((self.dim, self.dim), dtype=bool)
        for blk in blocks:
            kept[np.ix_(blk, blk)] = True
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_kept", _frozen(kept))

    @property
    def input_dim(self) -> int:
        return self.dim

    @property
    def output_dim(self) -> int:
        return self.dim

    def apply(self, X) -> np.ndarray:
        return self._map(_checked(self, X))

    def _map(self, X) -> np.ndarray:
        """X off the blocks set to 0, for an exactly Hermitian X or a stack of them."""
        return np.where(self._kept, X, 0.0)


class Diag(Pinch):
    """X -> diag(X); the pinch with singleton blocks."""

    variant = "diag"
    # its own entry, for tools that wrap each class's apply (bench/tracer.py)
    apply = Pinch.apply

    def __init__(self, dim: int):
        super().__init__(dim, tuple((i,) for i in range(dim)))


PositiveLinearMap = Union[Conjugation, Pinch]


class UnitalCheck(NamedTuple):
    holds: bool
    defect: float


@dataclass(frozen=True)
class MapFamily:
    """A finite family of positive maps with a common output dimension."""

    maps: tuple

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise BadDimensions("a map family needs at least one map")
        k = maps[0].output_dim
        if any(phi.output_dim != k for phi in maps):
            raise DimensionMismatch("maps in a family must share an output dimension")
        object.__setattr__(self, "maps", maps)

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def output_dim(self) -> int:
        return self.maps[0].output_dim

    @property
    def input_dims(self) -> tuple:
        return tuple(phi.input_dim for phi in self.maps)

    def apply_sum(self, ops) -> np.ndarray:
        """sum_i Phi_i(X_i), exactly Hermitian, for matching Hermitian operands."""
        ops = list(ops)
        if len(ops) != len(self.maps):
            raise DimensionMismatch(
                f"family of {len(self.maps)} maps got {len(ops)} operands"
            )
        return self._map_sum([_checked(phi, X) for phi, X in zip(self.maps, ops)])

    def _map_sum(self, ops) -> np.ndarray:
        """sum_i Phi_i(X_i) for exactly Hermitian X_i of the input sizes, unchecked.

        Each X_i may be a stack of matrices, all stacks of one length; the
        sum is then the stack of the sums.
        """
        k = self.output_dim
        total = np.zeros((*np.shape(ops[0])[:-2], k, k), dtype=complex)
        for phi, X in zip(self.maps, ops):
            total += phi._map(X)
        return total

    def unital_defect(self) -> float:
        """|sum_i Phi_i(I) - I|_F; not finite where the sum overflows.

        The maps are immutable, so it is computed once per family.
        """
        return self._defect

    @cached_property
    def _defect(self) -> float:
        with np.errstate(all="ignore"):  # callers test the defect's finiteness
            total = self._map_sum([np.eye(phi.input_dim, dtype=complex) for phi in self.maps])
            return float(np.linalg.norm(total - np.eye(self.output_dim)))


def check_unital_family(family: MapFamily) -> UnitalCheck:
    defect = family.unital_defect()
    return UnitalCheck(defect <= UNITAL_DEFECT_TOL, defect)


def identity_family(n: int) -> MapFamily:
    return MapFamily((Conjugation(np.eye(n, dtype=complex)),))


def random_unital_family(count: int, n: int, k: int, seed) -> MapFamily:
    """Random family of ``count`` conjugations from n-by-n to k-by-k.

    Slices k orthonormal columns of a (count*n)-dimensional Haar unitary
    into ``count`` vertical blocks V_i, so sum_i V_i* V_i = I_k exactly.
    Requires count * n >= k.
    """
    if count < 1 or n < 1 or k < 1:
        raise BadDimensions(f"need positive sizes, got ({count}, {n}, {k})")
    if count * n < k:
        raise BadDimensions(f"count*n = {count * n} cannot carry output dim {k}")
    rng = np.random.default_rng(seed)
    W = random_unitary(count * n, rng)
    cols = W[:, :k]
    return MapFamily(tuple(Conjugation(cols[i * n:(i + 1) * n, :]) for i in range(count)))


# -- JSON form ---------------------------------------------------------


def map_to_obj(phi: PositiveLinearMap) -> dict:
    if isinstance(phi, Conjugation):
        obj = {"variant": "conjugation", "V_re": phi.V.real.tolist()}
        if np.abs(phi.V.imag).max(initial=0.0) > 0.0:
            obj["V_im"] = phi.V.imag.tolist()
        return obj
    if isinstance(phi, Diag):  # before Pinch, its base class
        return {"variant": "diag", "dim": phi.dim}
    if isinstance(phi, Pinch):
        return {"variant": "pinch", "dim": phi.dim,
                "blocks": [list(blk) for blk in phi.blocks]}
    raise ParseError(f"unknown map type {type(phi).__name__}")


def _field(obj: dict, key: str, convert, what: str):
    """convert(obj[key]), else ParseError naming ``key``."""
    try:
        return convert(obj[key])
    except (TypeError, ValueError):  # ragged rows, non-numbers, non-lists
        raise ParseError(f"'{key}' must be {what}") from None


_floats = partial(np.asarray, dtype=float)


def map_from_obj(obj) -> PositiveLinearMap:
    """Parse the JSON form; a malformed field raises ParseError naming it."""
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ParseError("map object needs a 'variant' field")
    variant = obj["variant"]
    if variant == "conjugation":
        if "V_re" not in obj:
            raise ParseError("conjugation map needs 'V_re'")
        re = _field(obj, "V_re", _floats, "a matrix of numbers")
        im = _field(obj, "V_im", _floats, "a matrix of numbers") \
            if obj.get("V_im") is not None else np.zeros_like(re)
        if re.shape != im.shape or re.ndim != 2:
            raise ParseError("'V_re' and 'V_im' must be matrices of equal shape")
        return Conjugation(re + 1j * im)
    if variant == "pinch":
        if "dim" not in obj or "blocks" not in obj:
            raise ParseError("pinch map needs 'dim' and 'blocks'")
        blocks = _field(obj, "blocks",
                        lambda b: tuple(tuple(_json_int(i) for i in blk) for blk in b),
                        "a list of lists of integers")
        return Pinch(_field(obj, "dim", _json_int, "an integer"), blocks)
    if variant == "diag":
        if "dim" not in obj:
            raise ParseError("diag map needs 'dim'")
        return Diag(_field(obj, "dim", _json_int, "an integer"))
    raise ParseError(f"unknown map variant {variant!r}")


def family_to_obj(family: MapFamily) -> list:
    return [map_to_obj(phi) for phi in family.maps]


def family_from_obj(obj) -> MapFamily:
    if isinstance(obj, dict) and "maps" in obj:
        obj = obj["maps"]
    if not isinstance(obj, list):
        raise ParseError("map family must be a JSON list of maps")
    return MapFamily(tuple(map_from_obj(o) for o in obj))
