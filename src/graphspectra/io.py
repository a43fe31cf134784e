"""File formats and deterministic report emission.

Matrices travel as row-major 0/1 arrays of JSON integers with an optional
index labeling (or as CSV rows of integers), SFTs as a matrix plus an
optional involution pair list, and presentations as alphabet / lambda /
words.  Reports are emitted with stable field ordering and every float
rounded to 12 significant digits, so identical inputs produce identical
bytes.  JSON output is strict RFC 8259: a non-finite float is written as
the string "Infinity", "-Infinity" or "NaN".  The JSON text has the
bytes of ``json.dumps(..., indent=2)`` without going through json's
pure-Python indenting encoder.  A list of lists whose leaves all sit at
one depth and are exact str, int, bool or None (a word or relation
list) is written by one compact pass of json's C encoder, with "\x00"
between items, and re-indented by one ``str.replace`` per level.  Any
other list (one holding a float, a dict, an empty container, a subclass
or items of mixed depth, or a list of leaves) joins its items' texts
once.  A long list is written in chunks of ``_CHUNK`` items.  The text
comes out as byte pieces, one per dict value and per chunk, which the
CLI writes in turn, so the whole text is never held twice.  A file that
cannot be read or parsed raises InvalidInput.
"""

from __future__ import annotations

import io as _stdio
import itertools
import json
import math
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import InvalidInput, UsageError

# The graphs, ktheory and buildings types in annotations are not imported
# here: each loader imports what it builds, so a run loads only its modules.


def load_matrix_rows(source) -> tuple:
    """Raw (rows, labels) from matrix JSON ({"matrix": rows, "labels":
    optional}) or CSV rows of integers; no shape validation."""
    return _matrix_file(source)[:2]


def _matrix_file(source) -> tuple:
    """(rows, labels, JSON object or {} for CSV).  The loaders share this
    rather than call one another, so one read is one io.load span when
    perfbench traces them."""
    if not isinstance(source, dict) and Path(source).suffix.lower() == ".csv":
        import csv
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
    from .graphs import EdgeMatrix
    rows, labels, _ = _matrix_file(source)
    return EdgeMatrix.from_rows(rows, labels)


def load_sft(source) -> EdgeMatrix:
    """SFT of a matrix file; JSON may add an "involution" pair list."""
    from .graphs import EdgeMatrix
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
    return EdgeMatrix.from_rows(rows, labels, involution)


def presentation_to_dict(p: PolygonalPresentation) -> dict:
    return {
        "alphabet": list(p.alphabet),
        "lambda": [list(pair) for pair in p.lam],
        "words": list(p.words),
    }


def load_presentation(source) -> PolygonalPresentation:
    from .buildings import make_presentation
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
        # letters are sorted: all strings, or all numbers (a boolean is
        # neither, and would equal the number 0 or 1)
        if (letter is None or isinstance(letter, bool)
                or isinstance(letter, str) != isinstance(letters[0], str)):
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

# Leaf types the C encoder writes as _JSON_LEAF does, and the containers
# a uniform list is made of
_UNIFORM_LEAVES = frozenset({str, int, bool, type(None)})
_UNIFORM_ARRAYS = frozenset({list, tuple})

# Items per chunk of a long list: each chunk is checked, encoded and
# re-indented on its own, and its text is one piece of the output
_CHUNK = 1000

# Compact JSON of a uniform list, with "\x00" between items; with no
# indent, json takes its C encoder when it has one.  A string's own NUL
# is escaped as \u0000, so every "\x00" is a separator
_compact = json.JSONEncoder(separators=("\x00", ": "), check_circular=False).encode


@cache
def _pads(level: int) -> tuple[str, str, str]:
    """The indent before the first item of a container nested ``level``
    deep, the separator before each further item, and the indent before
    its closing bracket."""
    first = "\n" + "  " * (level + 1)
    return first, "," + first, "\n" + "  " * level


@cache
def _reindent(level: int, k: int) -> tuple[list, str, str]:
    """For the items of a list nested ``level`` deep that is uniform of
    height ``k``: the (compact, indented) separator pairs, outermost
    first, and the openers and closers its first and last item start and
    end with.  Between two items of a container ``d`` levels below the
    list sit k-1-d closing brackets, the "\x00" and k-1-d opening ones."""
    pads = [_pads(level + d) for d in range(k)]

    def openers(d):
        return "".join("[" + pads[a][0] for a in range(d + 1, k))

    def closers(d):
        return "".join(pads[a][2] + "]" for a in reversed(range(d + 1, k)))

    seps = [("]" * (k - 1 - d) + "\x00" + "[" * (k - 1 - d),
             closers(d) + pads[d][1] + openers(d)) for d in range(k)]
    return seps, openers(0), closers(0)


def _height(items) -> int:
    """k when the non-empty list ``items`` is uniform of height k: every
    container below it is a non-empty list or tuple of exact type, and
    every leaf, k levels deep, is an exact str, int, bool or None.  0
    when it is not uniform."""
    k = 1
    while not (types := set(map(type, items))) <= _UNIFORM_LEAVES:
        if not (types <= _UNIFORM_ARRAYS and all(items)):
            return 0
        items = list(itertools.chain.from_iterable(items))
        k += 1
    return k


def _items_text(items, level: int, sep: str) -> str:
    """The texts of the non-empty ``items`` of a list nested ``level``
    deep, joined by ``sep``.  A uniform list of lists is encoded once by
    the C encoder and re-indented by one ``str.replace`` per level.  Any
    other list takes one step per item, with a str, int or float item
    written in place; so does a list of leaves, which that way is as fast
    as the C pass or faster (for str items at every length from 1 to
    1000)."""
    k = type(items[0]) in _UNIFORM_ARRAYS and _height(items)
    if k:
        seps, head, tail = _reindent(level, k)
        text = _compact(items)
        for old, new in seps:
            text = text.replace(old, new)
        return head + text[k:-k] + tail
    return sep.join([encode_basestring_ascii(v) if (t := type(v)) is str
                     else int.__repr__(v) if t is int else _json_float(v) if t is float
                     else _json_text(v, level + 1) for v in items])


def _json_write(obj, level: int, out: list, prefix: str = "") -> None:
    """Append ``prefix`` and ``json.dumps(obj, indent=2, allow_nan=False)``,
    with every float written by :func:`_json_float`, for an object nested
    ``level`` deep, to ``out`` as str pieces.

    A piece starts at each dict value and at each chunk of ``_CHUNK``
    items of a list, whose text comes from :func:`_items_text`; so no
    step copies a whole long list, and brackets and keys ride on the
    pieces next to them.  A leaf of a subclass type takes json's own
    rules, and a type json cannot write raises its TypeError.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append(prefix + "{}")
            return
        first, sep, last = _pads(level)
        prefix += "{" + first
        for key, value in obj.items():
            _json_write(value, level + 1, out, prefix + _json_key(key) + ": ")
            prefix = sep
        out[-1] += last + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append(prefix + "[]")
            return
        first, sep, last = _pads(level)
        if len(obj) <= _CHUNK:
            out.append(prefix + "[" + first + _items_text(obj, level, sep) + last + "]")
            return
        text = prefix + "[" + first + _items_text(obj[:_CHUNK], level, sep)
        for start in range(_CHUNK, len(obj), _CHUNK):
            out.append(text)
            text = sep + _items_text(obj[start:start + _CHUNK], level, sep)
        out.append(text + last + "]")
    else:
        leaf = _JSON_LEAF.get(type(obj))
        out.append(prefix + (leaf(obj) if leaf is not None else _json_float(obj)
                             if isinstance(obj, float) else json.dumps(obj)))


def _json_text(obj, level: int) -> str:
    """The text :func:`_json_write` appends, as one str."""
    out = []
    _json_write(obj, level, out)
    return "".join(out)


def _json_key(key) -> str:
    """A dict key as json writes it (or its error)."""
    if type(key) is str:
        return encode_basestring_ascii(key)
    return json.dumps({key: 0}, allow_nan=False)[1:-4]


def emit(report: dict, fmt: str, rows: list[dict] | None = None) -> bytes:
    """Render a report deterministically: the join of :func:`emit_pieces`."""
    return b"".join(emit_pieces(report, fmt, rows))


def emit_pieces(report: dict, fmt: str, rows: list[dict] | None = None) -> list[bytes]:
    """Render a report deterministically, as pieces to write in order.

    json: the report object with insertion-ordered keys.
    csv: the tabular view (``rows``), header from the first row.
    table: aligned key/value or tabular text.
    """
    if fmt == "json":
        out = []
        _json_write(report, 0, out)
        out[-1] += "\n"
        # each str piece is dropped as its bytes are made, so the text is
        # held once
        for i, text in enumerate(out):
            out[i] = text.encode()
        return out
    report = round_floats(report)
    if fmt == "csv":
        import csv
        if rows is None:
            rows = _flatten_to_rows(report)
        rows = [round_floats(r) for r in rows]
        buf = _stdio.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
        return [buf.getvalue().encode()]
    if fmt == "table":
        if rows is None:
            rows = _flatten_to_rows(report)
        rows = [round_floats(r) for r in rows]
        if not rows:
            return [b""]
        cols = list(rows[0].keys())
        cells = [[str(r.get(c, "")) for c in cols] for r in rows]
        widths = [max(len(c), *(len(row[i]) for row in cells))
                  for i, c in enumerate(cols)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
        lines.extend("  ".join(v.ljust(w) for v, w in zip(row, widths))
                     for row in cells)
        return [("\n".join(lines) + "\n").encode()]
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
