"""Deterministic JSON output and input helpers.

Reports are emitted with sorted keys, compact separators, and every
float printed with 17 significant digits so identical runs produce
byte-identical text and values round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ParseError

__all__ = ["format_float", "dumps_canonical", "load_json_file", "sha256_file"]


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x} cannot be serialized")
    return "%.17g" % x


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            parts.append(json.dumps(k) + ":" + _emit(obj[k]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    return _emit(obj)


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``; the one place a file is opened."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str):
    """(parsed JSON, sha256 hex digest) of the file at ``path``, from one read.

    The digest is of the very bytes parsed.  They are decoded as UTF-8 with
    universal newlines, as a text-mode read decodes them; bytes with no
    carriage return need no newline pass.
    """
    data = _read_bytes(path)
    text = data.decode("utf-8")
    if b"\r" in data:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return obj, hashlib.sha256(data).hexdigest()


def load_json_file(path: str):
    return _read_json(path)[0]


def sha256_file(path: str) -> str:
    return hashlib.sha256(_read_bytes(path)).hexdigest()
