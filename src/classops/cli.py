"""Command-line verification tool.

Subcommands: finite-verify, su2-verify, wigner-eckart, scan, export-tables.
Reports are deterministic for a fixed config and seed (no timestamps, sorted
keys, fixed check order), and the exit status encodes pass/fail/usage-error
as 0/1/2.  The environment variable CLASSOPS_OUTPUT_DIR supplies a default
directory for bare output file names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .groups import FiniteGroup, GroupConstructionError, build_group, conjugacy_classes
from .representations import character_table, irreps
from .coupling import conjugation_decomposition
from .serialize import (
    REPORT_SCHEMA,
    csv_lines,
    format_float,
    load_group_file,
    tables_document,
    write_json,
)
from .su2 import SphereQuadrature, class_operator_quadrature, closed_form_eigenvalue
from . import verify

__all__ = ["RunConfig", "main", "run_finite_verify", "run_su2_verify", "run_wigner_eckart", "run_scan", "run_export_tables"]


@dataclass
class RunConfig:
    command: str
    group_spec: str = ""
    class_selector: str = "all"
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    fmt: str = "json"
    seed: int = 42
    n_theta: int = 32
    n_phi: int = 64
    max_spin_x2: int = 4
    psi: float | None = None
    j2: int | None = None
    n_random: int = 20

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in self.tolerances.values()):
            raise ValueError("tolerances must be finite and positive")
        if self.n_theta < 2 or self.n_phi < 2:
            raise ValueError("quadrature node counts must be >= 2")
        if self.n_random < 1:
            raise ValueError("--n-random must be >= 1")
        if self.max_spin_x2 < 1:
            raise ValueError("--max-spin-x2 must be >= 1")

    def echo(self) -> dict:
        return {
            "command": self.command,
            "group": self.group_spec,
            "class": self.class_selector,
            "tolerances": dict(sorted(self.tolerances.items())),
            "format": self.fmt,
            "seed": self.seed,
            "quadrature": [self.n_theta, self.n_phi],
            "max_spin_x2": self.max_spin_x2,
            "psi": self.psi,
            "j2": self.j2,
            "n_random": self.n_random,
        }


class UsageError(Exception):
    pass


def _resolve_group(spec: str) -> FiniteGroup:
    if spec.startswith("file:"):
        return load_group_file(spec[5:])
    if spec.startswith("catalog:"):
        spec = spec[8:]
    return build_group(spec)


def _select_classes(group: FiniteGroup, selector: str):
    classes = conjugacy_classes(group)
    if selector == "all":
        return classes
    element = group.element_index(selector)
    for c in classes:
        if element in c.members:
            return [c]
    raise UsageError(f"element {selector!r} not found in any class")


def _emit(cfg: RunConfig, document: dict, csv_sections: list[tuple[str, list[str], list[list]]]) -> None:
    if cfg.fmt == "json":
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    else:
        lines: list[str] = []
        for title, header, rows in csv_sections:
            lines.append(f"# {title}")
            lines.extend(csv_lines(header, rows))
        text = "\n".join(lines) + "\n"
    if cfg.output:
        out = Path(cfg.output)
        if not out.is_absolute() and os.environ.get("CLASSOPS_OUTPUT_DIR"):
            out = Path(os.environ["CLASSOPS_OUTPUT_DIR"]) / out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def run_finite_verify(cfg: RunConfig) -> int:
    group = _resolve_group(cfg.group_spec)
    group.validate()
    classes = _select_classes(group, cfg.class_selector)
    reports = verify.finite_class_suite(
        group, classes, seed=cfg.seed, n_random=cfg.n_random, tolerances=cfg.tolerances
    )
    passed = all(r.passed for r in reports)
    document = {
        "schema": REPORT_SCHEMA,
        "config": cfg.echo(),
        "checks": [
            {
                "check": r.check,
                "group": r.group,
                "class": r.cls,
                "max_deviation": r.max_deviation,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in reports
        ],
        "passed": passed,
    }
    rows = [[r.check, r.group, r.cls, r.max_deviation, r.tolerance, r.passed] for r in reports]
    _emit(cfg, document, [("finite-verify checks", ["check", "group", "class", "max_deviation", "tolerance", "pass"], rows)])
    return 0 if passed else 1


def run_su2_verify(cfg: RunConfig) -> int:
    tol = dict(verify.DEFAULT_TOLERANCES)
    tol.update(cfg.tolerances)
    if cfg.psi is not None or cfg.j2 is not None:
        if cfg.psi is None or cfg.j2 is None:
            raise UsageError("--psi and --j2 must be given together")
        quad = SphereQuadrature.build(cfg.n_theta, cfg.n_phi)
        target = closed_form_eigenvalue(cfg.j2, cfg.psi)  # validates the domain
        op = class_operator_quadrature(cfg.j2, cfg.psi, quad)
        err = float(np.max(np.abs(op - target * np.eye(cfg.j2 + 1))))
        rows = [(cfg.j2, cfg.psi, cfg.n_theta, cfg.n_phi, err, target)]
    else:
        rows = verify.su2_convergence_rows()
    final_order = max(r[2] for r in rows)
    final_errors = [r for r in rows if r[2] == final_order]
    passed = all(r[4] <= tol["su2_final_error"] for r in final_errors)
    document = {
        "schema": REPORT_SCHEMA,
        "config": cfg.echo(),
        "convergence": [
            {
                "j2": r[0],
                "psi": r[1],
                "n_theta": r[2],
                "n_phi": r[3],
                "max_abs_error": r[4],
                "closed_form_value": r[5],
            }
            for r in rows
        ],
        "passed": passed,
    }
    _emit(
        cfg,
        document,
        [("su2 class-operator convergence", ["j2", "psi", "n_theta", "n_phi", "max_abs_error", "closed_form_value"], [list(r) for r in rows])],
    )
    return 0 if passed else 1


def run_wigner_eckart(cfg: RunConfig) -> int:
    tol = dict(verify.DEFAULT_TOLERANCES)
    tol.update(cfg.tolerances)
    if cfg.group_spec.lower() in ("su2", "catalog:su2"):
        psi = cfg.psi if cfg.psi is not None else float(np.pi / 2)
        quad = SphereQuadrature.build(cfg.n_theta, cfg.n_phi)
        rows, reduced = verify.su2_wigner_eckart_report(
            cfg.max_spin_x2, psi, quad, tolerances=cfg.tolerances
        )
        skipped = []
        max_off = 0.0
        sparsity_ok = True
    else:
        group = _resolve_group(cfg.group_spec)
        group.validate()
        classes = _select_classes(group, cfg.class_selector)
        table = character_table(group, seed=cfg.seed)
        irreps_list = irreps(group, table, seed=cfg.seed)
        rows, reduced, skipped, max_off = [], [], [], 0.0
        for cls in classes:
            r, rr, sk, off = verify.wigner_eckart_report(
                group, cls, seed=cfg.seed, tolerances=cfg.tolerances,
                table=table, irreps_list=irreps_list,
            )
            rows.extend(r)
            reduced.extend(rr)
            skipped.extend({"class": group.labels[cls.base_element], **s} for s in sk)
            max_off = max(max_off, off)
        sparsity_ok = max_off <= tol["wigner_eckart_sparsity"]
    passed = all(r.passed for r in rows) and sparsity_ok
    document = {
        "schema": REPORT_SCHEMA,
        "config": cfg.echo(),
        "comparisons": [
            {
                "group": r.group,
                "sigma": r.sigma,
                "alpha": r.alpha,
                "k": r.k,
                "l": r.l,
                "g0": r.g0,
                "max_dev": r.max_dev,
                "pass": r.passed,
            }
            for r in rows
        ],
        "reduced_matrix_elements": [
            {
                "group": r.group,
                "sigma": r.sigma,
                "alpha": r.alpha,
                "l": r.l,
                "m": r.m,
                "g0": r.g0,
                "value": [r.value.real, r.value.imag],
            }
            for r in reduced
        ],
        "skipped": skipped,
        "max_off_pattern": max_off,
        "passed": passed,
    }
    sections = [
        (
            "wigner-eckart comparisons",
            ["group", "sigma", "alpha", "k", "l", "g0", "max_dev", "pass"],
            [[r.group, r.sigma, r.alpha, r.k, r.l, r.g0, r.max_dev, r.passed] for r in rows],
        ),
        (
            "reduced matrix elements",
            ["group", "sigma", "alpha", "l", "m", "g0", "value"],
            [[r.group, r.sigma, r.alpha, r.l, r.m, r.g0, r.value] for r in reduced],
        ),
    ]
    _emit(cfg, document, sections)
    return 0 if passed else 1


def run_scan(cfg: RunConfig) -> int:
    group = _resolve_group(cfg.group_spec)
    group.validate()
    classes = _select_classes(group, cfg.class_selector)
    irreps_list = irreps(group, character_table(group, seed=cfg.seed), seed=cfg.seed)
    all_rows, all_skipped = [], []
    for cls in classes:
        families, skipped = verify.scan_rows(group, cls, irreps_list, tolerances=cfg.tolerances)
        label = group.labels[cls.base_element]
        all_rows.extend((label, f) for f in families)
        all_skipped.extend({"class": label, **s} for s in skipped)
    document = {
        "schema": REPORT_SCHEMA,
        "config": cfg.echo(),
        "families": [
            {
                "class": label,
                "alpha": f.alpha,
                "column": f.column,
                "max_norm": f.max_norm,
                "vanishes": f.vanishes,
            }
            for label, f in all_rows
        ],
        "skipped": all_skipped,
        "passed": True,
    }
    rows = [[label, f.alpha, f.column, f.max_norm, f.vanishes] for label, f in all_rows]
    _emit(cfg, document, [("tensor-operator scan", ["class", "alpha", "column", "max_norm", "vanishes"], rows)])
    return 0


def run_export_tables(cfg: RunConfig) -> int:
    group = _resolve_group(cfg.group_spec)
    group.validate()
    table = character_table(group, seed=cfg.seed)
    irreps_list = irreps(group, table, seed=cfg.seed)
    coupling = [
        conjugation_decomposition(group, irreps_list, table, sigma)
        for sigma in range(len(irreps_list))
    ]
    document = tables_document(group, table, irreps_list, coupling)
    if not cfg.output:
        raise UsageError("export-tables requires --output")
    out = Path(cfg.output)
    if not out.is_absolute() and os.environ.get("CLASSOPS_OUTPUT_DIR"):
        out = Path(os.environ["CLASSOPS_OUTPUT_DIR"]) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, document)
    return 0


def _parse_tolerances(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"bad tolerance spec {pair!r}, expected name=value")
        name, value = pair.split("=", 1)
        if name not in verify.DEFAULT_TOLERANCES:
            raise UsageError(f"unknown tolerance {name!r}")
        out[name] = float(value)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classops",
        description="Numerical verification of weighted class-operator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_group=True):
        if needs_group:
            p.add_argument("--group", required=True, help="catalog:S3 | S3 | file:group.json | su2")
            p.add_argument("--class", dest="class_selector", default="all", help="base-element label/index or 'all'")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
        p.add_argument("--output", default=None)
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")

    p = sub.add_parser("finite-verify", help="per-class identity suite on the group algebra")
    common(p)
    p.add_argument("--n-random", type=int, default=20, help="random weights per class")

    p = sub.add_parser("su2-verify", help="SU(2) class-operator quadrature vs closed form")
    common(p, needs_group=False)
    p.add_argument("--psi", type=float, default=None)
    p.add_argument("--j2", type=int, default=None)
    p.add_argument("--quadrature", type=int, nargs=2, default=[32, 64], metavar=("N_THETA", "N_PHI"))

    p = sub.add_parser("wigner-eckart", help="Wigner-Eckart predictions vs brute force / quadrature")
    common(p)
    p.add_argument("--max-spin-x2", type=int, default=4, help="SU(2) mode: largest doubled spin")
    p.add_argument("--psi", type=float, default=None, help="SU(2) mode: class angle")
    p.add_argument("--quadrature", type=int, nargs=2, default=[24, 48], metavar=("N_THETA", "N_PHI"))

    p = sub.add_parser("scan", help="tensor-operator vanishing scan")
    common(p)

    p = sub.add_parser("export-tables", help="character/irrep/coupling tables as JSON")
    common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    quad = getattr(args, "quadrature", [32, 64])
    return RunConfig(
        command=args.command,
        group_spec=getattr(args, "group", ""),
        class_selector=getattr(args, "class_selector", "all"),
        tolerances=_parse_tolerances(args.tol),
        output=args.output,
        fmt=args.fmt,
        seed=args.seed,
        n_theta=quad[0],
        n_phi=quad[1],
        max_spin_x2=getattr(args, "max_spin_x2", 4),
        psi=getattr(args, "psi", None),
        j2=getattr(args, "j2", None),
        n_random=getattr(args, "n_random", 20),
    )


_RUNNERS = {
    "finite-verify": run_finite_verify,
    "su2-verify": run_su2_verify,
    "wigner-eckart": run_wigner_eckart,
    "scan": run_scan,
    "export-tables": run_export_tables,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _RUNNERS[args.command](cfg)
    except (UsageError, GroupConstructionError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
