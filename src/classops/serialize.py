"""Versioned JSON/CSV encodings for tables, reports and group input files.

Documents hold numbers as they are: Python scalars and float64 or complex128
arrays.  ``write_json`` alone spells them, a complex number as an [re, im]
pair, writing the text to its handle as it is made; a large array spells each
distinct bit pattern once, and since equal bits have an equal repr the text is
the same as with one repr per float.  A ``classop-tables/2`` document states
nothing twice: each irrep is written on the group's generators only, and the
group's breadth-first words over them carry it to every element; each
coupling table is its basis alone, since the basis fixes its components,
their multiplicities and the coupling coefficients c[i, j, m, n] =
conj(e[m, n, i, j]).  ``write_report`` writes a report, JSON or CSV, column
by column from lists of dataclass records.  Floats in CSV are rendered in
scientific notation with 17 significant digits so diffs of golden files are
meaningful.  All writers are deterministic: no timestamps, sorted keys.  The
only documents read back are group descriptor files.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter

import numpy as np

from .groups import FiniteGroup, GroupConstructionError, _parse_count, build_group
from .representations import CharacterTable, Irrep
from .coupling import CouplingTable

__all__ = [
    "TABLES_SCHEMA",
    "REPORT_SCHEMA",
    "load_group_file",
    "tables_document",
    "write_json",
    "json_text",
    "format_float",
    "csv_lines",
    "write_report",
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


def write_json(document, handle) -> None:
    """Write ``document`` to ``handle`` as ``json.dumps(..., indent=2, sort_keys=True)``
    plus a newline would, once every float64 or complex128 array is its nested lists
    and every complex number its ``[re, im]`` pair.  The text goes to ``handle.write``
    piece by piece as it is made, an outermost array row or a report section being one
    piece, so it is never held whole.  A key that is not a string, or a value JSON has
    no form for, raises ``TypeError``."""
    _write(document, "\n", handle.write)
    handle.write("\n")


def json_text(document) -> str:
    """The text ``write_json`` writes for ``document``, as one string."""
    buffer = io.StringIO()
    write_json(document, buffer)
    return buffer.getvalue()


@dataclass
class _Section:
    """A report section for ``_write``: its member names and one tuple of values per record."""

    names: list
    rows: list


_ESCAPE = json.encoder.encode_basestring_ascii
_BOOLEANS = {True: "true", False: "false"}
_COLUMN_KINDS = {int, float, np.float64, str, bool, complex, np.complex128}
# From this many leaves an array spells each distinct float once.  Timed
# alone on a 2-core VM, np.unique costs 10 us a call and 2-4% per leaf when
# every value is distinct; at 256 leaves, 8 repeated values save 116 us where
# distinct ones lose 20 us.  json_text of the twelve tables-generic documents
# takes 75-79 ms (medians) at thresholds from 32 to 4096, against 165 ms with
# a repr per leaf at every size.
_SPELL_ONCE_MIN = 256


def _write(o, nl: str, write) -> None:
    """Write one JSON value; ``nl`` is the newline and indent of its own line."""
    if isinstance(o, str):
        write(_ESCAPE(o))
    elif o is None or o is True or o is False:
        write("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        write(int.__repr__(o))
    elif isinstance(o, float):
        write(_spell_special(float.__repr__(o)))
    elif isinstance(o, (list, tuple)):
        _write_list(o, nl, write)
    elif isinstance(o, dict):
        inner = nl + "  "
        opening, comma = "{" + inner, "," + inner
        for k, v in sorted(o.items()):
            write(opening + _ESCAPE(k) + ": ")
            _write(v, inner, write)
            opening = comma
        write(nl + "}" if o else "{}")
    elif isinstance(o, complex):
        _write_list([o.real, o.imag], nl, write)
    elif isinstance(o, np.ndarray) and o.dtype in (np.float64, np.complex128):
        _write_array(o, nl, write)
    elif isinstance(o, _Section):
        _write_section(o, nl, write)
    else:
        write(json.dumps(o))  # raises the json module's TypeError


def _write_list(o, nl: str, write) -> None:
    inner = nl + "  "
    texts = _spell_column(o, inner)
    if texts is not None:  # values of one scalar type
        write("[" + inner + ("," + inner).join(texts) + nl + "]")
        return
    opening, comma = "[" + inner, "," + inner
    for v in o:
        write(opening)
        _write(v, inner, write)
        opening = comma
    write(nl + "]" if o else "[]")


def _write_array(a: np.ndarray, nl: str, write) -> None:
    """A float64 or complex128 array, complex values as a trailing [re, im] axis, one
    outermost row per chunk: each leaf, spelled by ``_float_texts`` over the whole array,
    on its own line, and between two leaves as many closing and opening brackets as
    trailing axes roll over there, around one comma."""
    if a.dtype == np.complex128:
        a = np.ascontiguousarray(a).view(np.float64).reshape(*a.shape, 2)
    if a.size == 0 or a.ndim < 2:  # brackets without leaves, one float or one flat list
        _write(a.tolist(), nl, write)
        return
    leaves, inner, depth, step = _float_texts(a.ravel()), nl + "  ", a.ndim - 1, a.size // len(a)
    indents = [inner + "  " * i for i in range(depth + 1)]
    gaps, closing, opening = [], "", ""  # those of one outermost row
    for i, size in zip(range(depth - 1, -1, -1), reversed(a.shape[1:])):
        gaps = (gaps + [closing + "," + opening + indents[depth]]) * size
        gaps.pop()
        closing += indents[i] + "]"
        opening = indents[i] + "[" + opening
    pieces, opening = [None] * (2 * step - 1), opening[len(inner):] + indents[depth]  # a row's "[" opens no line
    pieces[1::2] = gaps
    separator = "[" + inner
    for start in range(0, a.size, step):
        pieces[::2] = leaves[start:start + step]
        write(separator + opening + "".join(pieces) + closing)
        separator = "," + inner
    write(nl + "]")


def _float_texts(values):
    """JSON's spelling of each float of a sequence or 1-D float64 array; from
    ``_SPELL_ONCE_MIN`` values on, once per distinct bit pattern (equal bits, equal
    repr; -0.0 and each NaN payload keep their own), gathered into an object array."""
    inverse = None
    if len(values) >= _SPELL_ONCE_MIN:
        bits, inverse = np.unique(np.asarray(values, np.float64).view(np.uint64), return_inverse=True)
        values = bits.view(np.float64)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = list(map(_spell_special, texts))
    return texts if inverse is None else np.array(texts, dtype=object)[inverse]


def _spell_special(text: str) -> str:
    """JSON's names for nan and infinities in a text of float reprs and separators."""
    if "n" not in text:  # no finite float repr has an "n"
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _spell_column(values, nl: str):
    """The JSON text at ``nl`` of each value of a sequence of one scalar type, in one
    pass: each distinct string escaped once, floats by ``_float_texts``, complex
    values as two float columns inside ``[re, im]``.  None for mixed or other types."""
    kind = type(values[0]) if len(values) else None
    if kind not in _COLUMN_KINDS or (len(values) > 1 and set(map(type, values)) != {kind}):
        return None
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is float or kind is np.float64:
        return _float_texts(values)
    if kind is str:
        distinct = set(values)
        return list(map(dict(zip(distinct, map(_ESCAPE, distinct))).__getitem__, values))
    if kind is bool:
        return list(map(_BOOLEANS.__getitem__, values))
    parts, inner = _float_texts(np.array(values, np.complex128).view(np.float64)), nl + "  "
    return ["[" + inner + re + "," + inner + im + nl + "]" for re, im in zip(parts[::2], parts[1::2])]


def _write_section(section: _Section, nl: str, write) -> None:
    """Records as a list of JSON objects, in one chunk: each column spelled in one
    pass (one of mixed types value by value), each row's texts set between the
    pieces of one row template.  No record or one goes through ``_write`` as a list
    of objects: with one value per column a column pass costs more than it saves."""
    rows = len(section.rows)
    if rows < 2:
        _write([dict(zip(section.names, row)) for row in section.rows], nl, write)
        return
    row_nl, field_nl = nl + "  ", nl + "    "
    comma, pieces, columns = "," + field_nl, [], []
    for name, column in sorted(zip(section.names, zip(*section.rows))):
        texts = _spell_column(column, field_nl)
        if texts is None:  # JSON strings hold no raw newline, so the text re-indents
            texts = [json_text(v)[:-1].replace("\n", field_nl) for v in column]
        pieces.append(comma + _ESCAPE(name) + ": ")
        columns.append(texts)
    pieces[0] = row_nl + "}," + row_nl + "{" + pieces[0][1:]
    body = [None] * (2 * len(pieces) * rows)
    body[::2] = pieces * rows
    body[1::2] = chain.from_iterable(zip(*columns))
    body[0] = "[" + body[0][len(row_nl) + 2:]  # the first row follows the opening bracket
    body.append(row_nl + "}" + nl + "]")
    write("".join(body))


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


def write_report(fmt: str, sections, handle, **members) -> None:
    """Write a report as JSON or CSV to ``handle`` from ``sections``, each
    ``(json key, CSV title, record type, records)``.  The columns are the record
    type's fields in declaration order, renamed through ``_COLUMN_RENAMES``, read
    by one ``attrgetter`` pass; ``members`` are the other top-level JSON members
    (``config``, ``passed``, ...), which CSV leaves out."""
    read = []
    for key, title, record_type, records in sections:
        names = [f.name for f in fields(record_type)]
        rows = list(map(attrgetter(*names), records))
        if len(names) == 1:  # attrgetter of one name returns the value itself
            rows = [(v,) for v in rows]
        read.append((key, title, [_COLUMN_RENAMES.get(n, n) for n in names], rows))
    if fmt == "json":
        document = {"schema": REPORT_SCHEMA, **members}
        document.update((key, _Section(names, rows)) for key, _, names, rows in read)
        write_json(document, handle)
        return
    for _, title, names, rows in read:
        handle.write("\n".join([f"# {title}", *csv_lines(names, rows)]) + "\n")
