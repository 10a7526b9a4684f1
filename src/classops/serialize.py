"""Versioned JSON/CSV encodings for tables, reports and group input files.

Complex numbers are stored as [re, im] pairs; floats in CSV are rendered in
scientific notation with 17 significant digits so diffs of golden files are
meaningful.  All writers are deterministic: no timestamps, sorted keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .groups import FiniteGroup, build_group
from .representations import CharacterTable, Irrep
from .coupling import CouplingTable

__all__ = [
    "TABLES_SCHEMA",
    "REPORT_SCHEMA",
    "encode_complex",
    "encode_complex_array",
    "decode_complex_array",
    "load_group_file",
    "tables_document",
    "coupling_table_from_document",
    "write_json",
    "format_float",
    "csv_lines",
]

TABLES_SCHEMA = "classop-tables/1"
REPORT_SCHEMA = "classop-report/1"


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def encode_complex_array(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def decode_complex_array(data) -> np.ndarray:
    raw = np.asarray(data, dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def load_group_file(path) -> FiniteGroup:
    """Read a group descriptor document (catalog / generators / table) from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return build_group(spec)


def tables_document(
    group: FiniteGroup,
    table: CharacterTable,
    irreps_list: list[Irrep],
    coupling_tables: list[CouplingTable] | None = None,
) -> dict:
    doc = {
        "schema": TABLES_SCHEMA,
        "group": {
            "name": group.name,
            "order": group.order,
            "labels": group.labels,
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
            "values": encode_complex_array(table.values),
        },
        "irreps": [
            {
                "label": rep.label,
                "dim": rep.dim,
                "matrices": encode_complex_array(rep.matrices),
            }
            for rep in irreps_list
        ],
    }
    if coupling_tables is not None:
        doc["coupling"] = [coupling_table_document(t) for t in coupling_tables]
    return doc


def coupling_table_document(table: CouplingTable) -> dict:
    return {
        "sigma": table.sigma,
        "sigma_dim": table.sigma_dim,
        "kind": table.kind,
        "gammas": list(table.gammas),
        "multiplicities": {str(g): m for g, m in table.multiplicities.items()},
        "coefficients": {
            str(g): encode_complex_array(table.coeffs[g]) for g in table.gammas
        },
        "basis": {str(g): encode_complex_array(table.basis[g]) for g in table.gammas},
    }


def coupling_table_from_document(doc: dict) -> CouplingTable:
    gammas = [int(g) for g in doc["gammas"]]
    return CouplingTable(
        sigma=int(doc["sigma"]),
        sigma_dim=int(doc["sigma_dim"]),
        kind=doc["kind"],
        gammas=gammas,
        multiplicities={int(g): int(m) for g, m in doc["multiplicities"].items()},
        coeffs={int(g): decode_complex_array(doc["coefficients"][str(g)]) for g in gammas},
        basis={int(g): decode_complex_array(doc["basis"][str(g)]) for g in gammas},
    )


def format_float(x: float) -> str:
    return f"{float(x):.16e}"


def write_json(path, document: dict) -> None:
    text = json.dumps(document, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


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
