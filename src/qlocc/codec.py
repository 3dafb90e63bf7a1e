"""The JSON wire format of basis.v1, protocol.v1, shares.v1 and report.v1:
objects tagged with a ``schema`` (and a ``kind`` in shares.v1), two-space
indented, complex numbers as ``[re, im]`` pairs of finite numbers.  Every
decoding error is a ValueError naming the JSON path of the offending value,
e.g. ``states[0][2]: expected [re, im]``.
"""

import json

import numpy as np

_REQUIRED = object()
_FLOAT_MAX = float(np.finfo(float).max)


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def complex_pairs(a) -> list:
    """[re, im] float pairs, nested like the complex array ``a``."""
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def load(text: str, schema: str, kind: str | None = None) -> dict:
    """Parse a document and check its envelope."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("top level: nesting too deep") from None
    return envelope(doc, schema, kind)


def envelope(doc, schema: str, kind: str | None = None, path: str = "") -> dict:
    """Check that ``doc`` is an object tagged with ``schema`` (and ``kind``)."""
    _check(doc, dict, path or "top level")
    for key, want in (("schema", schema), ("kind", kind)):
        if want is not None and doc.get(key) != want:
            raise ValueError(f"{_join(path, key)}: expected {want!r}, got {doc.get(key)!r}")
    return doc


def field(doc: dict, key: str, kind, path: str = "", default=_REQUIRED):
    """``doc[key]`` checked to be an instance of ``kind`` (a type or tuple of
    types; a bool is never an int); ``default`` stands in for a missing key."""
    if key in doc:
        return _check(doc[key], kind, _join(path, key))
    if default is _REQUIRED:
        raise ValueError(f"{_join(path, key)}: missing")
    return default


def items(doc: dict, key: str, kind, path: str = "", length: int | None = None) -> list:
    """``doc[key]`` as a list of ``length`` entries (any number if None), each
    an instance of ``kind``."""
    where = _join(path, key)
    value = _list(field(doc, key, list, path), length, where)
    return [_check(x, kind, f"{where}[{n}]") for n, x in enumerate(value)]


def complex_array(doc: dict, key: str, shape: tuple[int, ...], path: str = "") -> np.ndarray:
    """``doc[key]`` decoded from nested [re, im] pairs into a complex array of
    exactly ``shape``."""

    def walk(value, dims, where):
        if dims:
            return [walk(x, dims[1:], f"{where}[{n}]")
                    for n, x in enumerate(_list(value, dims[0], where))]
        if not isinstance(value, list) or len(value) != 2:
            raise ValueError(f"{where}: expected [re, im]")
        for n, x in enumerate(value):
            # false for NaN and infinities, which json accepts, and for huge ints
            if not abs(_check(x, (int, float), f"{where}[{n}]")) <= _FLOAT_MAX:
                raise ValueError(f"{where}[{n}]: expected a finite number")
        re, im = value
        return complex(re, im)

    return np.array(walk(field(doc, key, list, path), shape, _join(path, key)), dtype=complex)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check(value, kind, where: str):
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ValueError(f"{where}: expected {' or '.join(k.__name__ for k in kinds)}")
    return value


def _list(value, length: int | None, where: str) -> list:
    _check(value, list, where)
    if length is not None and len(value) != length:
        raise ValueError(f"{where}: expected {length} entries, got {len(value)}")
    return value
