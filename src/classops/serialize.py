"""Versioned JSON/CSV encodings for tables, reports and group input files.

Documents hold numbers as they are: Python scalars and float64 or complex128
arrays.  ``json_text`` alone spells them, a complex number as an [re, im]
pair, in one pass whose chunks are joined once; a large array spells each
distinct bit pattern once, and since equal bits have an equal repr the text
is the same as with one repr per float.  A ``classop-tables/2`` document
states nothing twice: each irrep is written on the group's generators only,
and the group's breadth-first words over them carry it to every element;
each coupling table is its basis alone, since the basis fixes its
components, their multiplicities and the coupling coefficients
c[i, j, m, n] = conj(e[m, n, i, j]).  Floats in CSV are rendered in
scientific notation with 17 significant digits so diffs of golden files are
meaningful.  All writers are deterministic: no timestamps, sorted keys.
Reports are rendered in either format from the same dataclass records.  The
only documents read back are group descriptor files.
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import repeat

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
    indent the json module formats every value in a Python generator.  Here
    one pass appends chunks to one list, which is joined once, so no byte is
    copied once per nesting level; each distinct float of a large array is
    spelled once.  Object keys must be strings; any other key, like any value
    JSON has no form for, raises ``TypeError``.
    """
    out: list[str] = []
    _write(document, "\n", out)
    out.append("\n")
    return "".join(out)


_ESCAPE = json.encoder.encode_basestring_ascii
_FLAT_FORMATS = {int: int.__repr__, float: float.__repr__, str: _ESCAPE}
# From this many leaves an array spells each distinct float once.  Timed
# alone on a 2-core VM, np.unique costs 10 us a call and 2-4% per leaf when
# every value is distinct; at 256 leaves, 8 repeated values save 116 us where
# distinct ones lose 20 us.  json_text of the twelve tables-generic documents
# takes 75-79 ms (medians) at thresholds from 32 to 4096, against 165 ms with
# a repr per leaf at every size.
_SPELL_ONCE_MIN = 256


def _write(o, nl: str, out: list) -> None:
    """Append one JSON value to ``out``; ``nl`` is the newline and indent of its own line."""
    if isinstance(o, str):
        out.append(_ESCAPE(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_spell_special(float.__repr__(o)))
    elif isinstance(o, (list, tuple)):
        _write_list(o, nl, out)
    elif isinstance(o, dict):
        _write_dict(o, nl, out)
    elif isinstance(o, complex):
        _write_list([o.real, o.imag], nl, out)
    elif isinstance(o, np.ndarray) and o.dtype in (np.float64, np.complex128):
        _write_array(o, nl, out)
    else:
        out.append(json.dumps(o))  # raises the json module's TypeError


def _write_dict(o: dict, nl: str, out: list) -> None:
    inner = nl + "  "
    opening, comma = "{" + inner, "," + inner
    for k, v in sorted(o.items()):
        out.append(opening + _ESCAPE(k) + ": ")
        _write(v, inner, out)
        opening = comma
    out.append(nl + "}" if o else "{}")


def _write_list(o: list, nl: str, out: list) -> None:
    inner = nl + "  "
    kind = type(o[0]) if o else None
    if kind in _FLAT_FORMATS and set(map(type, o)) == {kind}:
        text = ("," + inner).join(map(_FLAT_FORMATS[kind], o))
        out += ("[" + inner, _spell_special(text) if kind is float else text, nl + "]")
        return
    opening, comma = "[" + inner, "," + inner
    for v in o:
        out.append(opening)
        _write(v, inner, out)
        opening = comma
    out.append(nl + "]" if o else "[]")


def _write_array(a: np.ndarray, nl: str, out: list) -> None:
    """A float64 or complex128 array, complex values as a trailing [re, im] axis.

    The leaves are the floats in row-major order, each on its own line.  From
    ``_SPELL_ONCE_MIN`` leaves on, ``float.__repr__`` runs once per distinct
    bit pattern, and the texts are gathered back to the leaves.  Equal bits
    have an equal repr, so the text is the one a repr per leaf writes; -0.0
    and each NaN payload keep their own pattern.  Between two leaves stands
    the separator of how many trailing axes roll over there: ``,`` alone, or
    ``r`` closing and ``r`` opening brackets.
    """
    if a.dtype == np.complex128:
        a = np.stack([a.real, a.imag], axis=-1)
    if a.size == 0 or a.ndim == 0:  # brackets without leaves, or one float
        _write(a.tolist(), nl, out)
        return
    values, inverse = a.ravel(), None
    if values.size >= _SPELL_ONCE_MIN:
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        values = bits.view(np.float64)
    leaves = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        leaves = list(map(_spell_special, leaves))
    if inverse is not None:
        leaves = np.array(leaves, dtype=object)[inverse].tolist()
    depth = a.ndim
    indents = [nl + "  " * i for i in range(depth + 1)]
    gaps, closing, opening = [], "", ""
    for i, size in zip(range(depth - 1, -1, -1), reversed(a.shape)):
        gaps = (gaps + [closing + "," + opening + indents[depth]]) * size
        gaps.pop()
        closing += indents[i] + "]"
        opening = indents[i] + "[" + opening
    out.append(opening[len(nl):] + indents[depth])  # the outermost "[" opens no line
    start = len(out)
    out += repeat(None, 2 * a.size - 1)
    out[start::2] = leaves
    out[start + 1::2] = gaps
    out.append(closing)


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
