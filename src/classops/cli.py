"""Command-line verification tool.

Subcommands: finite-verify, su2-verify, wigner-eckart, scan, export-tables.
Each command computes lists of dataclass records, which ``write_report``
writes, like ``write_json`` the tables document, to the handle ``_emit``
opens; an output file left unfinished is removed.  Reports are deterministic
for a fixed config and seed (no timestamps, sorted keys, fixed check order),
and the exit status encodes pass/fail/error as 0/1/2, where error covers
usage, malformed input and numerical breakdown.  The environment variable
CLASSOPS_OUTPUT_DIR supplies a default directory for bare output file names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .groups import FiniteGroup, build_group, conjugacy_classes
from .representations import character_table, irreps
from .coupling import TensorOperatorFamily, conjugation_decomposition
from .serialize import load_group_file, tables_document, write_json, write_report
from .su2 import sphere_rule_for_spin
from . import verify

__all__ = ["RunConfig", "main", "run_finite_verify", "run_su2_verify", "run_wigner_eckart", "run_scan", "run_export_tables"]


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """The settings of one command; its defaults are the command line's defaults.

    ``quadrature`` left at None becomes the smallest sphere rule that is exact
    for the command's largest spin, but never below a floor: 24 x 48 for
    ``wigner-eckart`` and 32 x 64 otherwise; the default ``su2-verify`` table
    lists the (n_theta, n_phi) pairs of ``verify.SU2_TABLE_RULES`` it runs.
    """

    command: str
    group: str = ""
    class_selector: str = "all"
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    fmt: str = "json"
    seed: int = 42
    quadrature: list | None = None
    max_spin_x2: int = 4
    psi: float | None = None
    j2: int | None = None
    n_random: int = 20

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in self.tolerances.values()):
            raise ValueError("tolerances must be finite and positive")
        if self.quadrature is not None and min(self.quadrature) < 2:
            raise ValueError("quadrature node counts must be >= 2")
        if self.quadrature is None:
            if self.command == "wigner-eckart":
                spin = 2 * self.max_spin_x2 if self.su2_mode else 0
                self.quadrature = list(sphere_rule_for_spin(spin, (24, 48)))
            elif self.command == "su2-verify" and self.j2 is None:
                self.quadrature = [list(rule) for rule in verify.SU2_TABLE_RULES]
            else:
                self.quadrature = list(sphere_rule_for_spin(self.j2 or 0, (32, 64)))
        if self.n_random < 1:
            raise ValueError("--n-random must be >= 1")
        if self.max_spin_x2 < 1:
            raise ValueError("--max-spin-x2 must be >= 1")

    @property
    def su2_mode(self) -> bool:
        return self.group.lower() in ("su2", "catalog:su2")

    def echo(self) -> dict:
        """The settings a report records: every field but the output path."""
        names = {"class_selector": "class", "fmt": "format"}
        return {names.get(k, k): v for k, v in vars(self).items() if k != "output"}


def _group_and_classes(cfg: RunConfig) -> tuple[FiniteGroup, list]:
    """The group named by --group and the classes --class selects."""
    spec = cfg.group
    group = load_group_file(spec[5:]) if spec.startswith("file:") else build_group(spec.removeprefix("catalog:"))
    classes = conjugacy_classes(group)
    if cfg.class_selector == "all":
        return group, classes
    return group, [classes[group.class_of[group.element_index(cfg.class_selector)]]]


def _tables(cfg: RunConfig, group: FiniteGroup) -> tuple:
    """The run's character table, irreps and the coupling table of every sigma, each built once."""
    table = character_table(group, seed=cfg.seed)
    irreps_list = irreps(group, table, seed=cfg.seed)
    return table, irreps_list, conjugation_decomposition(group, irreps_list, table)


def _emit(cfg: RunConfig, write) -> None:
    """Call ``write`` on the --output file, or on stdout without one.  A file
    that ``write`` leaves unfinished, by any exception, is removed."""
    if not cfg.output:
        write(sys.stdout)
        return
    out = Path(cfg.output)
    if not out.is_absolute() and os.environ.get("CLASSOPS_OUTPUT_DIR"):
        out = Path(os.environ["CLASSOPS_OUTPUT_DIR"]) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    handle = out.open("w", encoding="utf-8")
    try:
        with handle:
            write(handle)
    except BaseException:
        out.unlink(missing_ok=True)
        raise


def _report(cfg: RunConfig, sections: list, passed: bool, **members) -> int:
    _emit(cfg, partial(write_report, cfg.fmt, sections, config=cfg.echo(), passed=passed, **members))
    return 0 if passed else 1


def run_finite_verify(cfg: RunConfig) -> int:
    group, classes = _group_and_classes(cfg)
    checks = verify.finite_class_suite(
        group, classes, seed=cfg.seed, n_random=cfg.n_random, tolerances=cfg.tolerances
    )
    sections = [("checks", "finite-verify checks", verify.CheckReport, checks)]
    return _report(cfg, sections, verify.finite_checks_passed(checks))


def run_su2_verify(cfg: RunConfig) -> int:
    if (cfg.psi is None) != (cfg.j2 is None):
        raise UsageError("--psi and --j2 must be given together")
    if cfg.psi is None:
        if cfg.quadrature != [list(rule) for rule in verify.SU2_TABLE_RULES]:
            raise UsageError("--quadrature needs --j2 and --psi: the default table runs its own rules")
        rows = verify.su2_convergence_rows(rules=cfg.quadrature)
    else:
        rows = verify.su2_convergence_rows([cfg.j2], [cfg.psi], [cfg.quadrature])
    sections = [("convergence", "su2 class-operator convergence", verify.Su2ConvergenceRow, rows)]
    return _report(cfg, sections, verify.su2_convergence_passed(rows, cfg.tolerances))


def run_wigner_eckart(cfg: RunConfig) -> int:
    if cfg.su2_mode:
        psi = math.pi / 2 if cfg.psi is None else cfg.psi
        rows, reduced = verify.su2_wigner_eckart_report(
            cfg.max_spin_x2, psi, cfg.quadrature, tolerances=cfg.tolerances
        )
        skipped, max_off = [], 0.0
    else:
        group, classes = _group_and_classes(cfg)
        table, irreps_list, coupling = _tables(cfg, group)
        rows, reduced, skipped, max_off = [], [], [], 0.0
        for cls in classes:
            r, rr, sk, off = verify.wigner_eckart_report(
                group, cls, table, irreps_list, coupling, tolerances=cfg.tolerances
            )
            rows += r
            reduced += rr
            skipped += sk
            max_off = max(max_off, off)
    passed = verify.wigner_eckart_passed(rows, max_off, cfg.tolerances)
    sections = [
        ("comparisons", "wigner-eckart comparisons", verify.WignerEckartRow, rows),
        ("reduced_matrix_elements", "reduced matrix elements", verify.ReducedElementRow, reduced),
    ]
    return _report(cfg, sections, passed, skipped=skipped, max_off_pattern=max_off)


def run_scan(cfg: RunConfig) -> int:
    group, classes = _group_and_classes(cfg)
    table = character_table(group, seed=cfg.seed)
    irreps_list = irreps(group, table, seed=cfg.seed)
    families, skipped = [], []
    for cls in classes:
        f, s = verify.scan_rows(group, cls, table, irreps_list, tolerances=cfg.tolerances)
        families += f
        skipped += s
    sections = [("families", "tensor-operator scan", TensorOperatorFamily, families)]
    return _report(cfg, sections, verify.scan_passed(families), skipped=skipped)


def run_export_tables(cfg: RunConfig) -> int:
    if not cfg.output:
        raise UsageError("export-tables requires --output")
    group, _ = _group_and_classes(cfg)
    _emit(cfg, partial(write_json, tables_document(group, *_tables(cfg, group))))
    return 0


def _parse_tolerances(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"bad tolerance spec {pair!r}, expected name=value")
        name, value = pair.split("=", 1)
        if name not in verify.DEFAULT_TOLERANCES:
            raise UsageError(f"unknown tolerance {name!r}")
        out[name] = float(value)
    return out


# Every option, by flag.  No option has a default here: one left out stays out
# of the parsed namespace and takes its RunConfig default.
_OPTIONS = {
    "--group": dict(required=True, help="catalog:S3 | S3 | file:group.json | su2"),
    "--class": dict(dest="class_selector", help="base-element label/index or 'all'"),
    "--format": dict(dest="fmt", choices=["json", "csv"]),
    "--seed": dict(type=int),
    "--tol": dict(dest="tolerances", action="append", metavar="NAME=VALUE"),
    "--output": dict(),
    "--n-random": dict(type=int, help="random weights per class"),
    "--psi": dict(type=float, help="class angle"),
    "--j2": dict(type=int),
    "--quadrature": dict(type=int, nargs=2, metavar=("N_THETA", "N_PHI")),
    "--max-spin-x2": dict(type=int, help="SU(2) mode: largest doubled spin"),
}

# command -> (runner, help, options beyond --seed and --output)
_COMMANDS = {
    "finite-verify": (
        run_finite_verify, "per-class identity suite on the group algebra",
        ["--group", "--class", "--format", "--tol", "--n-random"],
    ),
    "su2-verify": (
        run_su2_verify, "SU(2) class-operator quadrature vs closed form",
        ["--format", "--tol", "--psi", "--j2", "--quadrature"],
    ),
    "wigner-eckart": (
        run_wigner_eckart, "Wigner-Eckart predictions vs brute force / quadrature",
        ["--group", "--class", "--format", "--tol", "--max-spin-x2", "--psi", "--quadrature"],
    ),
    "scan": (run_scan, "tensor-operator vanishing scan", ["--group", "--class", "--format", "--tol"]),
    "export-tables": (run_export_tables, "character/irrep/coupling tables as JSON", ["--group"]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classops",
        description="Numerical verification of weighted class-operator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in options + ["--seed", "--output"]:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


_PARSER = _build_parser()

# the wigner-eckart options (dest: flag) that each mode ignores, keyed by su2_mode
_IGNORED_BY_MODE = {
    True: {"class_selector": "--class"},
    False: {"psi": "--psi", "max_spin_x2": "--max-spin-x2", "quadrature": "--quadrature"},
}


def main(argv: list[str] | None = None) -> int:
    args = vars(_PARSER.parse_args(argv))
    try:
        if "tolerances" in args:
            args["tolerances"] = _parse_tolerances(args["tolerances"])
        cfg = RunConfig(**args)
        ignored = [flag for dest, flag in _IGNORED_BY_MODE[cfg.su2_mode].items() if dest in args]
        if cfg.command == "wigner-eckart" and ignored:
            raise UsageError(f"{', '.join(ignored)} has no effect in {cfg.group} wigner-eckart")
        return _COMMANDS[cfg.command][0](cfg)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        # usage and input errors (GroupConstructionError, UsageError and JSON
        # decoding are ValueErrors), numerical breakdown and a size that
        # cannot be allocated
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
