"""The JSON wire format of basis.v1, protocol.v1, shares.v1 and report.v1:
objects tagged with a ``schema`` (and a ``kind`` in shares.v1), two-space
indented, complex numbers as ``[re, im]`` pairs of finite numbers.  Every
decoding error is a ValueError naming the JSON path of the offending value,
e.g. ``states[0][2]: expected [re, im]``.
"""

import functools
import json
import math

import numpy as np

_REQUIRED = object()
_FLOAT_MAX = float(np.finfo(float).max)
_NUMBER = (int, float)


def dump(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, where a complex ndarray
    may stand for the nested [re, im] lists of its entries.

    One pass collects the document's leaves and its layout: its keys, list
    lengths and literals.  Each layout's ``%`` template is built once, and
    filled with the leaves: escaped strings, and the ints and finite floats
    themselves, which ``%s`` writes as json does.  A document json rejects
    raises the same exception type, except that one which contains itself
    raises RecursionError.
    """
    layout: list = []
    leaves: list = []
    _entries((doc,), layout, leaves)
    return _template(tuple(layout)) % tuple(leaves)


# layout tokens: n >= 0 opens a list of n entries, a tuple of keys a dict, a
# (None, shape) pair a complex array; the rest are these
_LEAF, _TRUE, _FALSE, _NULL = -1, -2, -3, -4
_LITERALS = {_LEAF: "%s", _TRUE: "true", _FALSE: "false", _NULL: "null"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_escape = json.encoder.encode_basestring_ascii


def _entries(values, layout: list, leaves: list) -> None:
    """Append the layout tokens and leaves of each value, exact types first."""
    for v in values:
        t = type(v)
        if t is float:
            layout.append(_LEAF)
            leaves.append(_float(v) if v - v else v)  # x - x is 0.0 for finite x only
        elif t is str:
            layout.append(_LEAF)
            leaves.append(_escape(v))
        elif t is int:
            layout.append(_LEAF)
            leaves.append(v)
        elif t is bool:
            layout.append(_TRUE if v else _FALSE)
        elif v is None:
            layout.append(_NULL)
        elif t is dict:
            layout.append(_keys(v))
            _entries(v.values(), layout, leaves)
        elif t is list or t is tuple:
            layout.append(len(v))
            _entries(v, layout, leaves)
        else:
            _other(v, layout, leaves)


# json's order of checks for a subclass, each with the base value json writes
_BASES = ((str, str.__str__), (int, int.__int__), (float, float.__float__),
          ((list, tuple), list), (dict, lambda d: dict(d.items())))


def _other(o, layout: list, leaves: list) -> None:
    """`_entries` for a complex array, a subclass or an error."""
    if type(o) is np.ndarray and o.dtype == complex:
        layout.append((None, o.shape))
        values = o.ravel().view(float).tolist()
        # a sum of finite floats is finite unless it overflows
        leaves += values if math.isfinite(sum(values)) else map(_float, values)
        return
    for kind, base in _BASES:
        if isinstance(o, kind):
            return _entries((base(o),), layout, leaves)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _float(x) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _keys(d: dict) -> tuple:
    """The keys of ``d`` as strings, converted as json converts them."""
    try:
        "".join(d)
    except TypeError:
        return tuple(map(_key, d))
    return tuple(d)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True or k is False or k is None:
        return json.dumps(k)
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


@functools.lru_cache(maxsize=128)
def _template(layout: tuple) -> str:
    tokens = iter(layout)
    return _fill(next(tokens), tokens, "\n")


def _fill(token, tokens, newline: str) -> str:
    """The template of the value that ``token`` starts, taking the tokens of
    its entries from ``tokens``; ``newline`` ends its own line."""
    inner = newline + "  "
    if type(token) is tuple:
        if token and token[0] is None:
            return _array(token[1], newline)
        return _block("{", [f"{_escape(k).replace('%', '%%')}: {_fill(next(tokens), tokens, inner)}"
                            for k in token], "}", newline)
    if token >= 0:
        return _block("[", [_fill(next(tokens), tokens, inner) for _ in range(token)], "]", newline)
    return _LITERALS[token]


def _array(shape: tuple, newline: str) -> str:
    """The template of nested lists of ``shape`` holding [re, im] pairs."""
    if not shape:
        return _block("[", ["%s", "%s"], "]", newline)
    return _block("[", [_array(shape[1:], newline + "  ")] * shape[0], "]", newline)


def _block(open_: str, entries: list, close: str, newline: str) -> str:
    if not entries:
        return open_ + close
    inner = newline + "  "
    return open_ + inner + ("," + inner).join(entries) + newline + close


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
    value = field(doc, key, list, path)
    if length is not None and len(value) != length:
        raise ValueError(f"{where}: expected {length} entries, got {len(value)}")
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


def _check_pairs(value: list, dims: tuple[int, ...]) -> None:
    """Raise _Malformed at the first entry, depth first, that keeps the list
    ``value`` from being nested lists of ``dims`` holding [re, im] pairs of
    finite numbers."""
    if len(value) != dims[0]:
        raise _Malformed(f"expected {dims[0]} entries, got {len(value)}")
    if len(dims) > 1:
        inner = dims[1:]
        for n, x in enumerate(value):
            try:
                if not isinstance(x, list):
                    raise _Malformed("expected list")
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

