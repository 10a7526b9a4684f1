"""Versioned JSON/CSV encodings for tables, reports and group input files.

Documents hold numbers as they are: Python scalars and float64 or complex128
arrays.  ``json_text`` alone spells them, a complex number as an [re, im]
pair.  A ``classop-tables/2`` document states nothing twice: each irrep is
written on the group's generators only, and the group's breadth-first words
over them carry it to every element; each coupling table is its basis
alone, since the basis fixes its components, their multiplicities and the
coupling coefficients c[i, j, m, n] = conj(e[m, n, i, j]).  Floats in CSV
are rendered in scientific notation with 17 significant digits so diffs of
golden files are meaningful.  All writers are
deterministic: no timestamps, sorted keys.  Reports are rendered in either
format from the same dataclass records.  The only documents read back are
group descriptor files.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .groups import FiniteGroup, GroupConstructionError, _parse_count, build_group
from .representations import CharacterTable, Irrep
from .coupling import CouplingTable

__all__ = [
    "TABLES_SCHEMA",
    "REPORT_SCHEMA",
    "load_group_file",
    "tables_document",
    "json_text",
    "format_float",
    "csv_lines",
    "render_report",
]

TABLES_SCHEMA = "classop-tables/2"
REPORT_SCHEMA = "classop-report/1"


def load_group_file(path) -> FiniteGroup:
    """Read a group descriptor document (catalog / generators / table) from disk.  Its
    integers are counts or table entries, so one longer than the cap is refused unread."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh, parse_int=_parse_count)
        except RecursionError:
            raise GroupConstructionError(f"group file {str(path)!r} is nested too deeply") from None
    return build_group(spec)


def tables_document(
    group: FiniteGroup,
    table: CharacterTable,
    irreps_list: list[Irrep],
    coupling_tables: list[CouplingTable],
) -> dict:
    return {
        "schema": TABLES_SCHEMA,
        "group": {
            "name": group.name,
            "order": group.order,
            "labels": group.labels,
            "generators": group.generators,
            # the word of element x = 1 .. |G|-1 is parent[x - 1] * generators[slot[x - 1]]
            "words": {
                "parent": [group.bfs_words[x][0] for x in range(1, group.order)],
                "slot": [group.bfs_words[x][1] for x in range(1, group.order)],
            },
            "classes": [
                {
                    "base_element": c.base_element,
                    "members": list(c.members),
                    "centralizer": list(c.centralizer),
                }
                for c in table.classes
            ],
        },
        "character_table": {
            "dims": table.dims.tolist(),
            "values": table.values,
        },
        "irreps": [
            {
                "label": rep.label,
                "dim": rep.dim,
                "generator_images": rep.matrices[group.generators],
            }
            for rep in irreps_list
        ],
        "coupling": [coupling_table_document(t) for t in coupling_tables],
    }


def coupling_table_document(table: CouplingTable) -> dict:
    """The ``/2`` document of a table: sigma, its kind and the basis of each component."""
    return {
        "sigma": table.sigma,
        "kind": table.kind,
        # complex even where an SU(2) basis is real, so every entry is [re, im]
        "basis": {str(g): np.asarray(e, complex) for g, e in table.basis.items()},
    }


def format_float(x: float) -> str:
    return f"{float(x):.16e}"


def json_text(document) -> str:
    """The one JSON encoding of every document this package writes.

    The text is byte for byte what ``json.dumps`` writes with sorted keys and
    an indent of 2, plus a newline, once every float64 or complex128 array is
    its nested lists and every complex number its ``[re, im]`` pair.  With any
    indent the json module formats every value in a Python generator; here a
    flat list of ints, of strings or of floats is one ``join``, and so is an
    array, straight from its shape.  Object keys must be strings; any other
    key, like any value JSON has no form for, raises ``TypeError``.
    """
    return _text(document, "\n") + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii
_FLAT_FORMATS = {int: int.__repr__, float: float.__repr__, str: _ESCAPE}


def _text(o, nl: str) -> str:
    """One JSON value; ``nl`` is the newline and indent of its own line."""
    if isinstance(o, str):
        return _ESCAPE(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _spell_special(float.__repr__(o))
    if isinstance(o, (list, tuple)):
        return _list_text(o, nl)
    if isinstance(o, dict):
        return _dict_text(o, nl)
    if isinstance(o, complex):
        return _list_text([o.real, o.imag], nl)
    if isinstance(o, np.ndarray) and o.dtype in (np.float64, np.complex128):
        return _array_text(o, nl)
    return json.dumps(o)  # raises the json module's TypeError


def _dict_text(o: dict, nl: str) -> str:
    if not o:
        return "{}"
    inner = nl + "  "
    items = [_ESCAPE(k) + ": " + _text(v, inner) for k, v in sorted(o.items())]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _list_text(o: list, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    kind = type(o[0])
    if kind in _FLAT_FORMATS and set(map(type, o)) == {kind}:
        text = ("," + inner).join(map(_FLAT_FORMATS[kind], o))
        return "[" + inner + (_spell_special(text) if kind is float else text) + nl + "]"
    return "[" + inner + ("," + inner).join([_text(v, inner) for v in o]) + nl + "]"


def _array_text(a: np.ndarray, nl: str) -> str:
    """A float64 or complex128 array in one join, complex values as a trailing [re, im] axis.

    The leaves are the floats in row-major order, each on its own line.
    Between two leaves stands the separator of how many trailing axes roll
    over there: ``,`` alone, or ``r`` closing and ``r`` opening brackets.
    """
    if a.dtype == np.complex128:
        a = np.stack([a.real, a.imag], axis=-1)
    if a.size == 0 or a.ndim == 0:  # brackets without leaves, or one float
        return _text(a.tolist(), nl)
    depth = a.ndim
    indents = [nl + "  " * i for i in range(depth + 1)]

    def separator(r: int) -> str:
        closing = "".join(indents[i] + "]" for i in range(depth - 1, depth - r - 1, -1))
        opening = "".join(indents[i] + "[" for i in range(depth - r, depth))
        return closing + "," + opening + indents[depth]

    gaps = [separator(0)] * (a.shape[-1] - 1)
    for r, size in enumerate(reversed(a.shape[:-1]), 1):
        gaps = (gaps + [separator(r)]) * size
        gaps.pop()
    parts = [""] * (2 * a.size - 1)
    parts[0::2] = map(float.__repr__, a.ravel().tolist())
    parts[1::2] = gaps
    head = "[" + "".join(indents[i] + "[" for i in range(1, depth)) + indents[depth]
    tail = "".join(indents[i] + "]" for i in range(depth - 1, -1, -1))
    return head + _spell_special("".join(parts)) + tail


def _spell_special(text: str) -> str:
    """JSON's names for nan and infinities in a text of float reprs and separators."""
    if "n" not in text:  # no finite float repr has an "n"
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def csv_lines(header: list[str], rows: list[list]) -> list[str]:
    """Render CSV with deterministic full-precision floats."""
    def cell(v) -> str:
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float) or isinstance(v, np.floating):
            return format_float(v)
        if isinstance(v, complex) or isinstance(v, np.complexfloating):
            return f"{format_float(v.real)}{'+' if v.imag >= 0 else '-'}{format_float(abs(v.imag))}j"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return lines


# report column name -> dataclass field name, where the two differ
_COLUMN_RENAMES = {"cls": "class", "passed": "pass"}


def render_report(fmt: str, sections, **members) -> str:
    """A report as JSON or CSV text, built from lists of dataclass records.

    ``sections`` holds ``(json key, CSV title, record type, records)``; the
    columns are the record type's fields, in declaration order, renamed
    through ``_COLUMN_RENAMES``.  ``members`` are the other top-level JSON
    members (``config``, ``passed``, ...), which CSV output leaves out.  JSON
    text comes from ``json_text``, which writes a complex value as
    ``[re, im]``; in CSV every cell is rendered by ``csv_lines``.
    """
    columns = [[(f.name, _COLUMN_RENAMES.get(f.name, f.name)) for f in fields(record_type)]
               for _, _, record_type, _ in sections]
    if fmt == "json":
        document = {"schema": REPORT_SCHEMA, **members}
        for (key, _, _, records), cols in zip(sections, columns):
            document[key] = [{name: getattr(r, attr) for attr, name in cols} for r in records]
        return json_text(document)
    lines: list[str] = []
    for (_, title, _, records), cols in zip(sections, columns):
        lines.append(f"# {title}")
        lines.extend(csv_lines([name for _, name in cols], [[getattr(r, attr) for attr, _ in cols] for r in records]))
    return "\n".join(lines) + "\n"
