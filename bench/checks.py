"""Output checks for benchmark requests.

A request *fails* when the program itself says so: an exception, a non-zero
exit status, ``"passed": false`` or, for a library identity, a residual above
its gate.  A request is *wrong* when it passes but its output disagrees with
the checks here; one wrong request invalidates the whole run.

``judge`` returns (passed, problems): ``problems`` lists why a passing output
is wrong and is empty when the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

FINITE_CHECKS = {
    "spectral_form",
    "coset_factorization",
    "conjugation_covariance",
    "centralizer_invariance",
    "class_sum_expansion",
}
SU2_FINAL_ERROR = 1e-9       # verify.DEFAULT_TOLERANCES["su2_final_error"]
SCAN_VANISHING = 1e-10       # verify.DEFAULT_TOLERANCES["scan_vanishing"]
IDENTITY_GATE = 1e-9         # acceptance criterion 6, SU(2) part
ORTHOGONALITY_TOL = 1e-8


def _finite_verify(doc: dict, expect: dict) -> list[str]:
    problems = []
    checks = doc["checks"]
    if len(checks) != expect["checks"]:
        problems.append(f"{len(checks)} check records, expected {expect['checks']}")
    if {c["check"] for c in checks} != FINITE_CHECKS:
        problems.append("check names differ from the five identities")
    if doc["config"]["n_random"] != expect["n_random"] or expect["n_random"] < 1:
        problems.append("random-weight checks ran on the wrong number of samples")
    for c in checks:
        if not c["pass"] or not c["max_deviation"] <= c["tolerance"]:
            problems.append(f"{c['check']} passed with deviation {c['max_deviation']} > {c['tolerance']}")
    return problems


def closed_form(j2: int, psi: float) -> float:
    return math.sin((j2 + 1) * psi / 2) / ((j2 + 1) * math.sin(psi / 2))


def _su2_verify(doc: dict, expect: dict) -> list[str]:
    problems = []
    rows = doc["convergence"]
    if len(rows) != expect["rows"]:
        problems.append(f"{len(rows)} convergence rows, expected {expect['rows']}")
    for r in rows:
        want = closed_form(r["j2"], r["psi"])
        if abs(r["closed_form_value"] - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"closed_form_value {r['closed_form_value']} != {want} at j2={r['j2']}")
    final = max(r["n_theta"] for r in rows) if rows else 0
    if any(r["max_abs_error"] > SU2_FINAL_ERROR for r in rows if r["n_theta"] == final):
        problems.append("passed with a final-order error above the gate")
    return problems


def _wigner_eckart(doc: dict, expect: dict) -> list[str]:
    problems = []
    rows = doc["comparisons"]
    if not rows:
        problems.append("no comparisons: a pass on zero samples")
    if "comparisons" in expect and len(rows) != expect["comparisons"]:
        problems.append(f"{len(rows)} comparisons, expected {expect['comparisons']}")
    if any(not r["pass"] for r in rows):
        problems.append("report passed with a failing comparison")
    return problems


def _scan(doc: dict, expect: dict) -> list[str]:
    problems = []
    families = doc["families"]
    if not families and not doc["skipped"]:
        problems.append("scan covered no operator family")
    for f in families:
        if f["vanishes"] != (f["max_norm"] < SCAN_VANISHING):
            problems.append(f"family {f['alpha']}/{f['column']} vanishing flag disagrees with its norm")
    return problems


def character_table_problems(doc: dict) -> list[str]:
    """Row orthogonality and the dimension count of an exported table."""
    group = doc["group"]
    order = group["order"]
    sizes = np.array([len(c["members"]) for c in group["classes"]])
    raw = np.asarray(doc["character_table"]["values"], dtype=float)
    values = raw[..., 0] + 1j * raw[..., 1]
    dims = doc["character_table"]["dims"]
    problems = []
    if sizes.sum() != order or values.shape != (len(sizes), len(sizes)):
        return ["class sizes or table shape do not match the group order"]
    if sum(d * d for d in dims) != order or len(doc["irreps"]) != len(dims):
        problems.append("irrep dimensions do not add up to the group order")
    gram = (values * sizes) @ values.conj().T / order
    worst = float(np.max(np.abs(gram - np.eye(len(sizes)))))
    if not worst <= ORTHOGONALITY_TOL:
        problems.append(f"character table rows not orthonormal (deviation {worst:.2e})")
    return problems


def _export_tables(doc: dict, expect: dict) -> list[str]:
    problems = character_table_problems(doc)
    if doc["group"]["order"] != expect["order"]:
        problems.append(f"group order {doc['group']['order']}, expected {expect['order']}")
    return problems


_BY_COMMAND = {
    "finite-verify": _finite_verify,
    "su2-verify": _su2_verify,
    "wigner-eckart": _wigner_eckart,
    "scan": _scan,
    "export-tables": _export_tables,
}


def judge_cli(request: dict, status, text: str) -> tuple[bool, list[str]]:
    """Judge one CLI request from its exit status and report text.

    ``status`` is the integer returned by ``main`` or an exception name.
    """
    if status != 0:
        return False, []
    doc = json.loads(text)
    if doc.get("passed") is False:
        return False, []
    command = request["argv"][0]
    try:
        return True, _BY_COMMAND[command](doc, request["expect"])
    except (KeyError, TypeError, ValueError) as exc:
        return True, [f"report does not have the expected shape: {type(exc).__name__}: {exc}"]


def judge_identity(residual: float) -> tuple[bool, list[str]]:
    return bool(residual <= IDENTITY_GATE), []
