"""The one JSON layout of every report and partition file siolab writes.

:func:`dumps` returns exactly
``json.dumps(_jsonify(obj), indent=2, sort_keys=True, allow_nan=False)``
but skips both the per-element :func:`_jsonify` walk and the pure-Python
encoder that ``json`` falls back to for ``indent``: a list of plain scalars,
or a list of equal-length rows of plain scalars (what ``ndarray.tolist()``
gives for index and point arrays), is recognized with C-level ``set(map(...))``
calls and written with one ``str.join``.  Everything else takes the recursive
path, which mirrors :func:`_jsonify` case by case.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

__all__ = ["dumps"]


def _jsonify(obj):
    """Recursively convert reports to JSON-safe structures.

    Non-finite floats become the strings "NaN" / "Infinity" / "-Infinity"
    (json.dumps runs with allow_nan=False, so nothing slips through);
    complex data becomes {"real": ..., "imag": ...}; tuple dict keys join
    with commas.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"real": _jsonify(obj.real), "imag": _jsonify(obj.imag)}
        return _jsonify(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return {"real": _jsonify(float(obj.real)), "imag": _jsonify(float(obj.imag))}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return "NaN"
        if np.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    return obj


def _key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _float_back(v):
    """Inverse of the non-finite float encoding used by :func:`_jsonify`."""
    if v == "NaN":
        return float("nan")
    if v == "Infinity":
        return float("inf")
    if v == "-Infinity":
        return float("-inf")
    return float(v)


_NON_FINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# Formatters of the plain scalar types, matched by exact type: bool
# subclasses int, and np.float64 subclasses float.
_SCALAR = {
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    str: _encode_str,
    type(None): lambda _: "null",
}


def _scalar(x) -> str:
    return _SCALAR[type(x)](x)


def _tokens(values: list, types: set) -> list[str]:
    """The JSON text of each plain scalar in ``values``, whose types are ``types``."""
    if types == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    fmt = _SCALAR[next(iter(types))] if len(types) == 1 else _scalar
    return list(map(fmt, values))


def _encode(obj, indent: str) -> str:
    fmt = _SCALAR.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return _encode_dict(obj, indent)
    if isinstance(obj, (list, tuple)):
        return _encode_list(obj, indent)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return _encode_dict({"real": obj.real, "imag": obj.imag}, indent)
        return _encode(obj.tolist(), indent)
    value = _jsonify(obj)
    if value is obj:  # str subclasses; json raises its TypeError on the rest
        return json.dumps(obj)
    return _encode(value, indent)


def _encode_dict(obj: dict, indent: str) -> str:
    items = {_key(k): v for k, v in obj.items()}
    if not items:
        return "{}"
    inner = indent + "  "
    body = (",\n" + inner).join(
        f"{_encode_str(k)}: {_encode(items[k], inner)}" for k in sorted(items)
    )
    return "{\n" + inner + body + "\n" + indent + "}"


def _encode_list(obj, indent: str) -> str:
    if not obj:
        return "[]"
    inner = indent + "  "
    types = set(map(type, obj))
    if types <= _SCALAR.keys():
        body = (",\n" + inner).join(_tokens(obj, types))
    else:
        body = _rows_body(obj, types, inner)
        if body is None:
            body = (",\n" + inner).join(_encode(v, inner) for v in obj)
    return "[\n" + inner + body + "\n" + indent + "]"


def _rows_body(obj, types: set, inner: str) -> str | None:
    """The body of a list of equal-length, non-empty rows of plain scalars,
    written as one join of the tokens interleaved with their separators;
    None for any other list."""
    if not types <= {list, tuple}:
        return None
    lengths = set(map(len, obj))
    if len(lengths) != 1 or 0 in lengths:
        return None
    flat = list(itertools.chain.from_iterable(obj))
    flat_types = set(map(type, flat))
    if not flat_types <= _SCALAR.keys():
        return None
    (k,) = lengths
    cell = inner + "  "
    within = ",\n" + cell
    between = "\n" + inner + "],\n" + inner + "[\n" + cell
    separators = ([within] * (k - 1) + [between]) * len(obj)
    separators[-1] = "\n" + inner + "]"
    pairs = zip(_tokens(flat, flat_types), separators)
    return "[\n" + cell + "".join(itertools.chain.from_iterable(pairs))


def dumps(obj) -> str:
    """``obj`` as indented, key-sorted JSON, with the :func:`_jsonify` encoding."""
    return _encode(obj, "")
