import json
import math
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphspectra.io
from graphspectra.buildings import family_presentation
from graphspectra.errors import GraphSpectraError, InvalidTransitionMatrix
from graphspectra.graphs import directed_edge_matrix, theta_graph
from graphspectra.io import (
    emit,
    k_theory_to_dict,
    load_matrix,
    load_presentation,
    load_sft,
    presentation_to_dict,
    round_floats,
)
from graphspectra.ktheory import AbelianGroup


def test_matrix_round_trip(tmp_path):
    em = directed_edge_matrix(theta_graph())
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [list(r) for r in em.matrix],
                                "labels": list(em.labels)}))
    assert load_matrix(path).matrix == em.matrix


def test_sft_with_involution(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "matrix": [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]],
        "involution": [[0, 2], [1, 3]],
    }))
    s = load_sft(path)
    assert s.involution == (2, 3, 0, 1)


def test_sft_with_an_unpaired_involution_letter_is_invalid():
    # the pair [0, 1] names no inverse for letter 2
    with pytest.raises(InvalidTransitionMatrix) as err:
        load_sft(Path(__file__).parent / "data" / "unpaired_involution.json")
    assert err.value.witness == (1, 0, None)


@st.composite
def matrix_files(draw):
    """(text, n): a matrix file of n letters with random JSON whitespace
    between tokens, its members in random order, optional labels and
    involution, and members repeated, of which json keeps the last."""
    n = draw(st.integers(0, 8))
    ws = st.text(" \t\n\r", max_size=2)
    values = {
        "matrix": st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                           min_size=n, max_size=n),
        "labels": st.one_of(st.lists(st.text(max_size=2), min_size=n, max_size=n),
                            st.lists(st.text(max_size=2), max_size=9), st.none()),
        "involution": st.one_of(
            st.permutations(range(n)).map(
                lambda p: [list(p[i:i + 2]) for i in range(0, len(p) - 1, 2)]),
            st.lists(st.lists(st.integers(-1, n), min_size=2, max_size=2), max_size=3)),
    }
    keys = draw(st.permutations(["matrix"] + draw(st.lists(st.sampled_from(list(values)),
                                                           max_size=4))))

    def write(value):
        if isinstance(value, list) and value:
            return "[" + ",".join(draw(ws) + write(v) + draw(ws) for v in value) + "]"
        return json.dumps(value) if value != [] else "[" + draw(ws) + "]"

    members = (draw(ws) + json.dumps(k) + draw(ws) + ":" + draw(ws) + write(draw(values[k]))
               + draw(ws) for k in keys)
    return draw(ws) + "{" + ",".join(members) + "}" + draw(ws), n


def _outcome(loader, path):
    """The EdgeMatrix a loader returns, or the type, witness and message
    of its error."""
    try:
        return loader(path)
    except GraphSpectraError as exc:
        return type(exc), exc.witness, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=matrix_files(), data=st.data())
def test_text_reader_agrees_with_json_loads(tmp_path_factory, drawn, data):
    """Both loaders give what they give through json.loads, on the file
    and on a one-character corruption of it; the text reader accepts
    every file of at least one letter."""
    text, n = drawn
    assert (graphspectra.io._dense_object(text) is not None) == (n > 0)
    marks = [i for i, c in enumerate(text) if c in '{}[]:," \t\n\r']  # half the time, one of these
    at = data.draw(st.one_of(st.integers(0, len(text) - 1), st.sampled_from(marks)))
    corrupt = text[:at] + data.draw(st.sampled_from('01 2[],{}:"-.e\t\x0b\xa0')) + text[at + 1:]
    path = tmp_path_factory.getbasetemp() / "matrix.json"
    for version in (text, corrupt):
        path.write_bytes(version.encode())
        for loader in (load_matrix, load_sft):
            fast = _outcome(loader, path)
            with mock.patch.object(graphspectra.io, "_dense_object", lambda text: None):
                assert fast == _outcome(loader, path)


def test_presentation_round_trip(tmp_path):
    p = family_presentation(2)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(presentation_to_dict(p)))
    loaded = load_presentation(path)
    assert loaded == p
    assert loaded.words == p.words


def test_k_theory_dict():
    out = k_theory_to_dict(AbelianGroup(2, (3,)), AbelianGroup(2))
    assert out == {"k0": {"rank": 2, "torsion": [3]}, "k1": {"rank": 2}}


def test_round_floats():
    value = round_floats({"x": 1.23456789012345678, "xs": [0.1 + 0.2]})
    assert value["x"] == float("1.23456789012")
    assert value["xs"][0] == 0.3


def test_emit_json_stable():
    report = {"b": 1.0 / 3.0, "a": [1, 2]}
    assert emit(report, "json") == emit(report, "json")


def _json_ready(obj):
    """Reference for the JSON writer: every float rounded to 12
    significant digits, a non-finite one replaced by its name."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _reference_json(report) -> bytes:
    return (json.dumps(_json_ready(report), indent=2, allow_nan=False) + "\n").encode()


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


@pytest.mark.parametrize("report", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}], "d": [{"e": [[]]}], "f": ()},
    {"plain": "x", "quoted": 'say "hi" \\ back', "control": "tab\tnl\n\x01",
     "non-ascii": "naïve ☃ 𝄞", "ключ": "ü"},
    {"t": True, "f": False, "n": None, "ints": [0, -1, 10 ** 30],
     "floats": [0.1 + 0.2, -0.0, 1e300, 1e-300, 2.5, 1 / 3, 123456789.123456789]},
    {"nan": float("nan"), "inf": [float("inf"), float("-inf")]},
    {1: "int key", 2.5: "float key", False: "bool key", None: "null key"},
    {"tuples": (1, (2, "x")), "subclasses": [_Str("s"), _Int(3), _Float(1 / 3),
                                             _List([1, _Dict(a=2.0)]), _Dict()]},
    [[[[{"deep": [1, [2, [3]]]}]]]],
], ids=["empty-object", "empty-array", "empty-containers", "strings", "scalars",
        "non-finite", "non-str-keys", "tuples-and-subclasses", "deep"])
def test_emit_json_matches_json_dumps(report):
    assert emit(report, "json") == _reference_json(report)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(report=st.dictionaries(st.text(max_size=4), _json_values, max_size=5))
def test_emit_json_matches_json_dumps_on_random_reports(report):
    assert emit(report, "json") == _reference_json(report)


def _building_report(q: int) -> dict:
    from graphspectra.cli import execute, parse_invocation
    plan = parse_invocation(["building", "--q", str(q), "--cover", "--validate",
                             "--links", "--stable-pairs", "--bm"])
    return execute(plan)[0]


def test_emit_json_of_a_building_report():
    report = _building_report(2)
    assert emit(report, "json") == _reference_json(report)


def test_emit_json_without_the_c_encoder(monkeypatch):
    """Where json has no C encoder, the compact pass is json's own
    pure-Python encoder, with the same text."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert graphspectra.io._compact([("a\x00", 1)]) == '[["a\\u0000"\x001]]'
    report = _building_report(2)
    assert emit(report, "json") == _reference_json(report)


# Leaves of a uniform list: strings holding the separator, the brackets
# and escapes the re-indent must not touch, and ints past 64 bits
_uniform_leaves = (
    st.sampled_from(["]", "[", ",", "\n", "\x00", '"', "\\", "\u2028", "naïve ☃ 𝄞",
                     "]\x00[", "]],\n[[", ""])
    | st.text(max_size=3) | st.booleans() | st.none()
    | st.integers(-10 ** 6, 10 ** 6)
    | st.integers(2 ** 64 - 2, 2 ** 64 + 2).flatmap(lambda n: st.sampled_from([n, -n])))


def _uniform(height: int):
    """Uniform trees of the given height: lists and tuples, mixed."""
    if height == 0:
        return _uniform_leaves
    inner = _uniform(height - 1)
    return (st.lists(inner, min_size=1, max_size=3)
            | st.lists(inner, min_size=1, max_size=3).map(tuple))


# Items that, planted in a uniform list, take it off the C pass or keep it
# on: a float, an empty container, a dict, a subclass, a leaf or a subtree
_odd_items = (
    st.floats() | st.sampled_from([[], (), {}])
    | st.dictionaries(st.text(max_size=2), _uniform_leaves, min_size=1, max_size=2)
    | st.text(max_size=2).map(_Str) | st.integers().map(_Int)
    | st.lists(_uniform_leaves, max_size=2).map(_List)
    | _uniform_leaves | _uniform(2))


@st.composite
def _planted(draw, tree, item):
    """``tree`` with one item, at a random position and depth, replaced
    by ``item``."""
    i = draw(st.integers(0, len(tree) - 1))
    old = tree[i]
    if type(old) in (list, tuple) and draw(st.booleans()):
        item = draw(_planted(old, item))
    return type(tree)([*tree[:i], item, *tree[i + 1:]])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data(), height=st.integers(1, 4), long=st.booleans(),
       plant=st.booleans(), as_tuple=st.booleans())
def test_emit_json_of_uniform_lists_matches_json_dumps(data, height, long, plant, as_tuple):
    tree = data.draw(st.lists(_uniform(height - 1), min_size=1, max_size=4))
    if long:
        # one short of, at or one past one or two chunks
        length = (graphspectra.io._CHUNK * data.draw(st.integers(1, 2))
                  + data.draw(st.integers(-1, 1)))
        tree = (tree * length)[:length]
    if plant:
        tree = data.draw(_planted(tree, data.draw(_odd_items)))
    if as_tuple:
        tree = tuple(tree)
    report = {"tree": tree, "nested": {"tree": tree}}
    assert emit(report, "json") == _reference_json(report)
    assert emit(tree, "json") == _reference_json(tree)


@pytest.mark.parametrize("tree", [lambda big: [[1, 2], (3, big)], lambda big: [big]],
                         ids=["uniform", "leaves"])
def test_emit_json_of_an_int_past_the_digit_limit_raises_what_json_raises(tree):
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("this interpreter has no int-to-str digit limit")
    report = {"x": tree(10 ** digits)}
    with pytest.raises(ValueError) as expected:
        json.dumps(report)
    with pytest.raises(ValueError) as err:
        emit(report, "json")
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("report", [{"x": {1, 2}}, {"x": [object()]}, {(1, 2): 0}])
def test_emit_json_rejects_what_json_rejects(report):
    with pytest.raises(TypeError):
        _reference_json(report)
    with pytest.raises(TypeError):
        emit(report, "json")


def test_emit_table_alignment():
    rows = [{"name": "x", "value": 1}, {"name": "longer", "value": 22}]
    text = emit({"rows": rows}, "table", rows).decode()
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == 3
