import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra.buildings import family_presentation
from graphspectra.errors import InvalidTransitionMatrix
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


def test_emit_json_of_a_building_report():
    from graphspectra.cli import execute, parse_invocation
    plan = parse_invocation(["building", "--q", "2", "--cover", "--validate", "--links",
                             "--stable-pairs", "--bm"])
    report, _ = execute(plan)
    assert emit(report, "json") == _reference_json(report)


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
