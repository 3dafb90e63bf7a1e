"""The file boundary: malformed basis.v1, shares.v1 and protocol.v1 documents
are rejected with a ValueError naming the JSON path, and the CLI exits 2."""

import contextlib
import copy
import io
import json
import enum
import math
import warnings
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qlocc import (
    FamilyParams,
    ShareSet,
    a_basis,
    basis_from_json,
    basis_to_json,
    codec,
    protocol_from_json,
    protocol_to_json,
    walgate_pair_protocol,
)
from qlocc.cli import main
from qlocc.protocols import MAX_PROTOCOL_DEPTH
from qlocc.secretshare import share_set_from_json, share_set_to_json
from qlocc.states import GRAM_ATOL
from conftest import bench_workloads, reference_basis_from_json, reference_share_set_from_json

BASIS = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=math.pi / 4))
BASIS_DOC = json.loads(basis_to_json(BASIS))
SHARES_DOC = json.loads(share_set_to_json(ShareSet(message=2, copies=(BASIS[2],) * 3), BASIS))
PROTOCOL_DOC = json.loads(protocol_to_json(walgate_pair_protocol(BASIS[0], BASIS[1])))


def _with(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` replaced (or deleted when
    ``value`` is ``...``)."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is ...:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def _eliminate_chain(depth):
    """protocol.v1 text whose root is ``depth`` nested eliminate nodes; built
    as text because json cannot encode nesting this deep."""
    return ('{"schema": "protocol.v1", "copies": 1, "root": '
            + '{"kind": "eliminate", "index": 1, "child": ' * depth
            + '{"kind": "conclude", "index": 0}' + "}" * (depth + 1))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


MALFORMED_FILES = [
    ("analyze", {"schema": "basis.v1", "states": [1, 2, 3, 4]}, "states[0]"),
    ("analyze", [BASIS_DOC], "top level"),
    ("analyze", _with(BASIS_DOC, ("states", 1, 2), [1, 0, 0]), "states[1][2]"),
    ("analyze", _with(BASIS_DOC, ("states",), ...), "states"),
    ("analyze", _with(BASIS_DOC, ("states", 0, 3, 1), float("nan")), "states[0][3][1]"),
    ("analyze", _with(BASIS_DOC, ("schema",), "basis.v2"), "schema"),
    ("decode", _with(SHARES_DOC, ("copies",), 5), "copies"),
    ("decode", _with(SHARES_DOC, ("basis",), 3), "basis"),
    ("decode", _with(SHARES_DOC, ("basis", "states", 2), "x"), "basis.states[2]"),
    ("decode", _with(SHARES_DOC, ("message",), "2"), "message"),
]


@pytest.mark.parametrize("command,doc,path", MALFORMED_FILES)
def test_malformed_file_exits_2_naming_the_path(tmp_path, command, doc, path):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    if command == "analyze":
        argv = ["analyze", "--basis-file", str(f)]
    else:
        argv = ["secret-share", "decode", "--shares-file", str(f)]
    code, err = _run(argv)
    assert code == 2
    assert f"error: {path}:" in err
    assert "Traceback" not in err


OVERFLOWING_BASIS = [[[1e200, 1e200], [0, 0]], [[0, 0], [1, 0]]]  # its Gram matrix is NaN


@pytest.mark.parametrize("text,prefix", [
    (json.dumps(_with(PROTOCOL_DOC, ("root", "basis"), 3)), "root.basis"),
    (json.dumps(_with(PROTOCOL_DOC, ("root",), "x")), "root"),
    (json.dumps([PROTOCOL_DOC]), "top level"),
    (_eliminate_chain(5000), "top level"),
    (_eliminate_chain(MAX_PROTOCOL_DEPTH + 1), r"root\.child"),
    (json.dumps(_with(PROTOCOL_DOC, ("root", "basis"), OVERFLOWING_BASIS)),
     "measurement basis is not orthonormal"),
], ids=["number-basis", "string-root", "top-level-list", "5000-deep", "too-deep",
        "overflowing-basis"])
def test_malformed_protocol_raises_value_error(text, prefix):
    with pytest.raises(ValueError, match=f"^{prefix}"):
        protocol_from_json(text)


def test_decode_accepts_basis_within_gram_tolerance(tmp_path):
    # amplitudes rounded to 10 digits leave overlaps of a few 1e-11, inside
    # GRAM_ATOL; the pair subroutine must still build the decoding protocol
    doc = copy.deepcopy(SHARES_DOC)
    doc["basis"]["states"] = [[[round(x, 10) for x in pair] for pair in state]
                              for state in doc["basis"]["states"]]
    v = np.array([[complex(*pair) for pair in state] for state in doc["basis"]["states"]])
    assert 1e-11 < np.max(np.abs(v.conj() @ v.T - np.eye(4))) < GRAM_ATOL
    f = tmp_path / "shares.json"
    f.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["secret-share", "decode", "--shares-file", str(f)]) == 0
    result = json.loads(out.getvalue())
    assert result["decoded_message"] == 2 and result["matches_encoded"] is True


def test_protocol_at_the_depth_limit_decodes():
    assert protocol_from_json(_eliminate_chain(MAX_PROTOCOL_DEPTH)).copies == 1


HUGE = 1.3407807929942597e+154  # 2**512, whose square overflows to inf


@pytest.mark.parametrize("command,doc", [
    ("analyze", _with(BASIS_DOC, ("states", 0, 0), [HUGE, 0.0])),
    ("decode", _with(SHARES_DOC, ("basis", "states", 0, 1), [0, HUGE])),
], ids=["basis", "shares"])
def test_overflowing_amplitude_exits_2_without_warning(tmp_path, command, doc):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    if command == "analyze":
        argv = ["analyze", "--basis-file", str(f)]
    else:
        argv = ["secret-share", "decode", "--shares-file", str(f)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run(argv)
    assert code == 2
    assert err.endswith("ket norm inf is not 1\n")


# --- the loader against the one it replaced -------------------------------------

def _kets(kets) -> list:
    """Amplitude bytes and phase bytes (and type) of each ket."""
    return [(k.amplitudes.tobytes(), np.array(k.phase).tobytes(), type(k.phase)) for k in kets]


def _basis_outcome(load, text):
    """What loading ``text`` gives: the kets and label, or the error."""
    try:
        b = load(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return _kets(b), b.label, b.matrix().tobytes()


def _shares_outcome(load, text):
    try:
        share, b = load(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return (share.message, _kets(share.copies), share.party_assignment, share.security_warning,
            _kets(b), b.label)


def test_basis_loader_equals_reference_on_bench_documents():
    # seeded basis.v1 files of every kind the benchmark sends, in its compact
    # layout, and the same bases as this package writes them (indent=2)
    workloads = bench_workloads()
    rng = np.random.default_rng(20261019)
    texts = []
    for n in range(4 * len(workloads.BASIS_KINDS)):
        kind = workloads.BASIS_KINDS[n % len(workloads.BASIS_KINDS)]
        texts.append(workloads.basis_json(workloads.random_basis(kind, rng), f"bench-{n}-{kind}"))
    texts += [basis_to_json(basis_from_json(text)) for text in texts]
    texts.append(json.dumps(_with(BASIS_DOC, ("states", 0, 1), [0, -0.0])))  # ints, signed zero
    for text in texts:
        outcome = _basis_outcome(basis_from_json, text)
        assert outcome == _basis_outcome(reference_basis_from_json, text)
        assert isinstance(outcome[0], list)


@pytest.mark.parametrize("command,doc,path", MALFORMED_FILES)
def test_malformed_file_message_equals_reference(command, doc, path):
    text = json.dumps(doc)
    if command == "analyze":
        outcome = _basis_outcome(basis_from_json, text)
        assert outcome == _basis_outcome(reference_basis_from_json, text)
    else:
        outcome = _shares_outcome(share_set_from_json, text)
        assert outcome == _shares_outcome(reference_share_set_from_json, text)
    assert outcome[1].startswith(f"{path}:")


# --- fuzzing ------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every (key or index) path into ``doc`` below the top level."""
    if isinstance(doc, dict):
        entries = doc.items()
    elif isinstance(doc, list):
        entries = enumerate(doc)
    else:
        return
    for key, value in entries:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _documents(valid):
    """Text of ``valid`` with one entry replaced by an arbitrary JSON value
    or deleted, of an arbitrary JSON value, or arbitrary text."""
    mutated = st.builds(_with, st.just(valid), st.sampled_from(list(_paths(valid))),
                        JSON_VALUES | st.just(...))
    return (mutated | JSON_VALUES).map(json.dumps) | st.text(max_size=40)


FUZZ = settings(max_examples=100, deadline=None)


@FUZZ
@given(text=_documents(BASIS_DOC))
def test_fuzz_basis_file_exits_0_or_2(tmp_path_factory, text):
    f = tmp_path_factory.getbasetemp() / "fuzz_basis.json"
    f.write_text(text)
    assert _run(["analyze", "--basis-file", str(f)])[0] in (0, 2)


@FUZZ
@given(text=_documents(SHARES_DOC))
def test_fuzz_shares_file_exits_0_or_2(tmp_path_factory, text):
    f = tmp_path_factory.getbasetemp() / "fuzz_shares.json"
    f.write_text(text)
    assert _run(["secret-share", "decode", "--shares-file", str(f)])[0] in (0, 2)


@FUZZ
@given(text=_documents(BASIS_DOC))
def test_fuzz_basis_loader_equals_reference(text):
    assert _basis_outcome(basis_from_json, text) == \
        _basis_outcome(reference_basis_from_json, text)


@FUZZ
@given(text=_documents(SHARES_DOC))
def test_fuzz_shares_loader_equals_reference(text):
    assert _shares_outcome(share_set_from_json, text) == \
        _shares_outcome(reference_share_set_from_json, text)


@FUZZ
@given(text=_documents(PROTOCOL_DOC))
def test_fuzz_protocol_raises_only_value_error(text):
    try:
        protocol_from_json(text)
    except ValueError:
        pass


# --- the writer against json.dumps -----------------------------------------------

WRITER_TEXT = st.text(st.sampled_from('"\\%/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600')
                      | st.characters(exclude_categories=()), max_size=6)
WRITER_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf])
WRITER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64, max_value=10 ** 400)
    | WRITER_FLOATS | WRITER_FLOATS.map(np.float64) | WRITER_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(WRITER_TEXT | st.integers() | WRITER_FLOATS | st.booleans() | st.none(),
                      inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(doc=WRITER_VALUES)
def test_dump_equals_json_dumps(doc):
    assert codec.dump(doc) == json.dumps(doc, indent=2)


@settings(max_examples=100, deadline=None)
@given(a=hnp.arrays(complex, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
       transpose=st.booleans())
def test_dump_writes_complex_array_as_re_im_lists(a, transpose):
    a = a.T if transpose else a
    pairs = np.stack([a.real, a.imag], axis=-1).tolist()
    assert codec.dump({"x": [a, 1], "y": a}) == json.dumps({"x": [pairs, 1], "y": pairs}, indent=2)


class _Str(str):
    def __str__(self):
        return "str"

    def __repr__(self):
        return "repr"


class _Int(int):
    def __int__(self):
        return 7

    def __repr__(self):
        return "repr"

    def __index__(self):
        return 9


class _Float(float):
    def __float__(self):
        return 2.5

    def __repr__(self):
        return "repr"


class _Colour(enum.IntEnum):
    RED = 3


class _Scale(float, enum.Enum):
    HALF = 0.5


class _List(list):
    pass


class _Dict(dict):
    pass


class _ReversedDict(dict):
    def items(self):  # json writes what items() gives
        return list(super().items())[::-1]


_Point = namedtuple("_Point", "x y")

# subclasses of json's value types, which json writes as their base values
SUBCLASS_VALUES = [
    _Str('a"\u00e9'), _Int(-12), _Int(2 ** 70), _Float(0.1), _Float(math.nan),
    _Float(-math.inf), _Colour.RED, _Scale.HALF, OrderedDict([("b", 1), ("a", [2])]),
    _Point(_Int(1), [_Float(3.0)]), _List([_Str("x"), _Dict(k=_Colour.RED)]),
    _Dict(z=_List([]), y=OrderedDict()), _ReversedDict(a=1, b=_ReversedDict(c=2, d=3)),
]


@pytest.mark.parametrize("value", SUBCLASS_VALUES, ids=lambda v: type(v).__name__)
def test_dump_writes_subclasses_as_json_does(value):
    for doc in (value, [value], [1, [value, value]], {"k": value}, {"a": [{"b": value}]}):
        assert codec.dump(doc) == json.dumps(doc, indent=2)


def _nested(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


@pytest.mark.parametrize("doc", [
    object(), {"a": {1, 2}}, [b"x"], {(1,): 2}, np.int64(1), np.float32(1.0), [1j],
    np.zeros(2), np.zeros(2, np.complex64), _nested(100_000),
], ids=["object", "set", "bytes", "tuple-key", "int64", "float32", "complex", "real-array",
        "complex64-array", "too-deep"])
def test_dump_raises_as_json_does(doc):
    with pytest.raises(Exception) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(expected.type):
        codec.dump(doc)
