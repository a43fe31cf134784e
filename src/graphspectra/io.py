"""File formats and deterministic report emission.

Graphs travel as JSON objects with "vertices" and "edges" (id/src/dst),
matrices as row-major 0/1 arrays of JSON integers with an optional
index labeling (or as CSV rows of integers), SFTs as a matrix plus an
optional involution pair list, and presentations as alphabet / lambda /
words.  Reports are emitted with stable field ordering and every float
rounded to 12 significant digits, so identical inputs produce identical
bytes.  JSON output is strict RFC 8259: a non-finite float is written as
the string "Infinity", "-Infinity" or "NaN".  The JSON text has the
bytes of ``json.dumps(..., indent=2)`` but joins each container's items
once instead of going through json's pure-Python indenting encoder.  A
file that cannot be read or parsed raises InvalidInput.
"""

from __future__ import annotations

import csv
import io as _stdio
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .buildings import PolygonalPresentation, make_presentation
from .errors import InvalidInput, UsageError
from .graphs import EdgeMatrix, FiniteGraph
from .ktheory import AbelianGroup


def load_graph(source) -> FiniteGraph:
    data = _load_json(source)
    edges = tuple((e["id"], e["src"], e["dst"]) for e in _field(data, "edges"))
    return FiniteGraph(tuple(_field(data, "vertices")), edges)


def graph_to_dict(g: FiniteGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": eid, "src": src, "dst": dst} for eid, src, dst in g.edges],
    }


def load_matrix_rows(source) -> tuple:
    """Raw (rows, labels) from matrix JSON ({"matrix": rows, "labels":
    optional}) or CSV rows of integers; no shape validation."""
    return _matrix_file(source)[:2]


def _matrix_file(source) -> tuple:
    """(rows, labels, JSON object or {} for CSV).  The loaders share this
    rather than call one another, so one read is one io.load span when
    perfbench traces them."""
    if not isinstance(source, dict) and Path(source).suffix.lower() == ".csv":
        reader = csv.reader(_stdio.StringIO(_read(source), newline=""))
        rows = _int_rows(row for row in reader if row)
        return rows, tuple(str(i) for i in range(len(rows))), {}
    data = _load_json(source)
    rows = _json_rows(_array(data, "matrix"))
    labels = tuple(_array(data, "labels", optional=True)
                   or [str(i) for i in range(len(rows))])
    return rows, labels, data


def load_matrix(source) -> EdgeMatrix:
    """Matrix file as a validated square 0/1 EdgeMatrix."""
    rows, labels, _ = _matrix_file(source)
    return EdgeMatrix(rows, labels)


def load_sft(source) -> EdgeMatrix:
    """SFT of a matrix file; JSON may add an "involution" pair list."""
    rows, labels, data = _matrix_file(source)
    pairs = _array(data, "involution", optional=True)
    involution = None
    if pairs:
        involution = [None] * len(rows)
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
                    type(k) is int and 0 <= k < len(rows) for k in pair)):
                raise InvalidInput("involution pairs must be two letter indices",
                                   witness=pair)
            i, j = pair
            involution[i] = j
            involution[j] = i
        involution = tuple(involution)
    return EdgeMatrix(rows, labels, involution)


def presentation_to_dict(p: PolygonalPresentation) -> dict:
    return {
        "alphabet": list(p.alphabet),
        "lambda": [list(pair) for pair in p.lam],
        "words": list(p.words),
    }


def load_presentation(source) -> PolygonalPresentation:
    data = _load_json(source)
    alphabet = _array(data, "alphabet")
    pairs = _array(data, "lambda")
    words = _array(data, "words")
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise InvalidInput("lambda entries must be letter pairs", witness=pair)
    for word in words:
        if not isinstance(word, (list, tuple)):
            raise InvalidInput("words must be lists of letters", witness=word)
    letters = list(itertools.chain(alphabet, *pairs, *words))
    for letter in letters:
        if isinstance(letter, (list, dict)):
            raise InvalidInput("letters must be JSON scalars", witness=letter)
        # letters are sorted: all strings, or all numbers
        if letter is None or isinstance(letter, str) != isinstance(letters[0], str):
            raise InvalidInput("letters must be all strings or all numbers",
                               witness=letter)
    return make_presentation(tuple(alphabet), tuple(tuple(p) for p in pairs),
                             [tuple(w) for w in words])


def k_theory_to_dict(k0: AbelianGroup, k1: AbelianGroup) -> dict:
    return {
        "k0": {"rank": k0.rank, "torsion": list(k0.torsion)},
        "k1": {"rank": k1.rank},
    }


def _read(path) -> str:
    try:
        with open(path, newline="") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}", witness=str(path)) from None


def _load_json(source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        data = json.loads(_read(source))
    except ValueError as exc:
        raise InvalidInput(f"{source} is not JSON: {exc}", witness=str(source)) from None
    if not isinstance(data, dict):
        raise InvalidInput(f"{source} must hold a JSON object", witness=str(source))
    return data


def _field(data: dict, key: str):
    if key not in data:
        raise InvalidInput(f"missing field {key!r}", witness=key)
    return data[key]


def _array(data: dict, key: str, optional: bool = False) -> list:
    """A field that must hold an array; InvalidInput with the key as
    witness when it holds anything else.  An optional field that is
    absent or null reads as []."""
    value = data.get(key) if optional else _field(data, key)
    if value is None and optional:
        return []
    if not isinstance(value, (list, tuple)):
        raise InvalidInput(f"field {key!r} must be an array", witness=key)
    return value


def _json_rows(rows) -> tuple:
    """JSON rows as tuples; a row that is not an array of JSON integers
    (a fraction, string, boolean or null cell) is InvalidInput with the
    raw row as witness."""
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or not {int}.issuperset(map(type, row)):
            raise InvalidInput("matrix rows must hold JSON integers", witness=row)
        out.append(tuple(row))
    return tuple(out)


def _int_rows(rows) -> tuple:
    """CSV rows parsed with int(); a row with a cell that does not parse
    is InvalidInput with the row as witness."""
    out = []
    for row in rows:
        try:
            out.append(tuple(map(int, row)))
        except (TypeError, ValueError):
            raise InvalidInput("matrix rows must hold integers", witness=row) from None
    return tuple(out)


def round_floats(obj, significant: int = 12):
    """Round every float in a nested structure to ``significant`` digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{significant}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, significant) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, significant) for v in obj]
    return obj


def _json_float(x: float) -> str:
    """A float rounded to 12 significant digits as JSON; a non-finite one
    as its name, which JSON can carry only as a string."""
    if math.isfinite(x):
        return float.__repr__(float(f"{x:.12g}"))
    return '"NaN"' if math.isnan(x) else ('"Infinity"' if x > 0 else '"-Infinity"')


# JSON text of a leaf, by its exact type
_JSON_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj, level: int) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` with every float
    written by :func:`_json_float`, for an object nested ``level`` deep.

    Each container's items are joined once.  A leaf of a subclass type
    takes json's own rules, and a type json cannot write raises its
    TypeError.
    """
    leaf = _JSON_LEAF.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if isinstance(obj, dict):
        items = [(encode_basestring_ascii(k) if type(k) is str else _json_key(k))
                 + ": " + _json_text(v, level + 1) for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json_text(v, level + 1) for v in obj]
        brackets = "[]"
    elif isinstance(obj, float):
        return _json_float(obj)
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * level + brackets[1])


def _json_key(key) -> str:
    """A dict key that is not a str, as json writes it (or its error)."""
    return json.dumps({key: 0}, allow_nan=False)[1:-4]


def emit(report: dict, fmt: str, rows: list[dict] | None = None) -> bytes:
    """Render a report deterministically.

    json: the report object with insertion-ordered keys.
    csv: the tabular view (``rows``), header from the first row.
    table: aligned key/value or tabular text.
    """
    if fmt == "json":
        return (_json_text(report, 0) + "\n").encode()
    report = round_floats(report)
    if fmt == "csv":
        if rows is None:
            rows = _flatten_to_rows(report)
        rows = [round_floats(r) for r in rows]
        buf = _stdio.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().encode()
    if fmt == "table":
        if rows is None:
            rows = _flatten_to_rows(report)
        rows = [round_floats(r) for r in rows]
        if not rows:
            return b""
        cols = list(rows[0].keys())
        cells = [[str(r.get(c, "")) for c in cols] for r in rows]
        widths = [max(len(c), *(len(row[i]) for row in cells))
                  for i, c in enumerate(cols)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
        lines.extend("  ".join(v.ljust(w) for v, w in zip(row, widths))
                     for row in cells)
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unsupported format: {fmt}", witness=fmt)


def _flatten_to_rows(report: dict) -> list[dict]:
    """Default CSV flattening: one row of dotted-path scalars."""
    flat: dict = {}

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, (list, tuple)):
            flat[prefix] = json.dumps(obj)
        else:
            flat[prefix] = obj

    walk("", report)
    return [flat]
