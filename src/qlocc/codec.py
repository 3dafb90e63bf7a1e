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
_NUMBER = (int, float)


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def complex_pairs(a) -> list:
    """[re, im] float pairs, nested like the complex array ``a``."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


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
    for n, x in enumerate(value):
        if not _is(x, kind):
            _check(x, kind, f"{where}[{n}]")
    return value


def complex_array(doc: dict, key: str, shape: tuple[int, ...], path: str = "") -> np.ndarray:
    """``doc[key]`` decoded from nested [re, im] pairs into a complex array of
    exactly ``shape``."""
    value = field(doc, key, list, path)
    try:
        _check_pairs(value, shape)
    except _Malformed as bad:
        where = _join(path, key) + "".join(f"[{n}]" for n in reversed(bad.path))
        raise ValueError(f"{where}: {bad.message}") from None
    # every leaf is a finite int or float now; numpy converts each as float() does
    return np.array(value, dtype=float).view(complex).reshape(shape)


class _Malformed(Exception):
    """A malformed entry found by `_check_pairs`: ``path`` holds its list
    indices innermost first, so a path is formatted only for a failure."""

    def __init__(self, message: str, *path: int):
        self.message, self.path = message, list(path)


def _check_pairs(value, dims: tuple[int, ...]) -> None:
    """Raise _Malformed at the first entry, depth first, that keeps ``value``
    from being nested lists of ``dims`` holding [re, im] pairs of finite
    numbers."""
    if not isinstance(value, list):
        raise _Malformed("expected list")
    if len(value) != dims[0]:
        raise _Malformed(f"expected {dims[0]} entries, got {len(value)}")
    if len(dims) > 1:
        inner = dims[1:]
        for n, x in enumerate(value):
            try:
                _check_pairs(x, inner)
            except _Malformed as bad:
                bad.path.append(n)
                raise
        return
    for n, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise _Malformed("expected [re, im]", n)
        for m, x in enumerate(pair):
            if not isinstance(x, _NUMBER) or isinstance(x, bool):
                raise _Malformed("expected int or float", m, n)
            # false for NaN and infinities, which json accepts, and for huge ints
            if not abs(x) <= _FLOAT_MAX:
                raise _Malformed("expected a finite number", m, n)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is(value, kind) -> bool:
    """isinstance(value, kind), except that a bool is never an int."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return isinstance(value, kinds) and (not isinstance(value, bool) or bool in kinds)


def _check(value, kind, where: str):
    if not _is(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ValueError(f"{where}: expected {' or '.join(k.__name__ for k in kinds)}")
    return value


def _list(value, length: int | None, where: str) -> list:
    _check(value, list, where)
    if length is not None and len(value) != length:
        raise ValueError(f"{where}: expected {length} entries, got {len(value)}")
    return value
