"""CLI behaviour: subcommands, exit codes, determinism, report schemas."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from classops import cli, coupling, verify
from classops.cli import main
from classops.groups import FiniteGroup, build_group
from classops.serialize import csv_lines, format_float
from classops.su2 import MAX_J2
from helpers import read_tables_2


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_finite_verify_s3(capsys):
    code, out, err = run(["finite-verify", "--group", "catalog:S3", "--class", "all"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "classop-report/1"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 15  # 3 classes x 5 checks
    assert {c["check"] for c in doc["checks"]} == {
        "spectral_form",
        "coset_factorization",
        "conjugation_covariance",
        "centralizer_invariance",
        "class_sum_expansion",
    }


def test_finite_verify_trivial_group(capsys):
    code, out, _ = run(["finite-verify", "--group", "catalog:C1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 5 and doc["passed"]


def test_finite_verify_single_class(capsys):
    code, out, _ = run(["finite-verify", "--group", "S3", "--class", "(1 2)"], capsys)
    assert code == 0
    assert len(json.loads(out)["checks"]) == 5


@pytest.mark.parametrize(
    "selector", ["\u0663", "3_0", "+3", " 3", "1" * 5000], ids=["arabic-indic", "underscore", "sign", "space", "5000-digits"]
)
def test_class_index_must_be_ascii_digits(selector, capsys):
    # int() would take an Arabic-Indic three, an underscore or a sign
    code, out, err = run(["finite-verify", "--group", "S3", "--class", selector], capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "GroupConstructionError"


def test_class_index_selects_that_element(capsys):
    code, by_index, _ = run(["finite-verify", "--group", "S3", "--class", "3"], capsys)
    assert code == 0
    label = build_group("S3").labels[3]
    code, by_label, _ = run(["finite-verify", "--group", "S3", "--class", label], capsys)
    assert code == 0
    assert json.loads(by_index)["checks"] == json.loads(by_label)["checks"]


def test_finite_verify_bad_group_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}))
    code, out, err = run(["finite-verify", "--group", f"file:{bad}"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "GroupConstructionError"


WRONG_SHAPE_DOCUMENTS = [
    [1, 2],
    {"table": [[0]], "labels": 5},
    {"table": 5},
    {"catalog": 5},
    {"catalog": {"family": "cyclic", "n": True}},   # a bool is an int to isinstance
    {"generators": 5},
    {"table": [[0, 1], [1]]},
]


@pytest.mark.parametrize("document", WRONG_SHAPE_DOCUMENTS, ids=json.dumps)
def test_wrong_shape_group_file_is_an_input_error(document, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    code, out, err = run(["finite-verify", "--group", f"file:{bad}"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GroupConstructionError"


@pytest.mark.parametrize("catalog", [{"family": "quaternion", "n": 5}, {"family": "quaternion"}])
def test_quaternion_group_file_other_than_q8_is_a_group_error(catalog, tmp_path, capsys):
    bad = tmp_path / "q.json"
    bad.write_text(json.dumps({"catalog": catalog}))
    code, out, err = run(["finite-verify", "--group", f"file:{bad}"], capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "GroupConstructionError", "message": "only Q8 is in the quaternion catalog"}


@pytest.mark.parametrize("document", [
    {"generators": ["(1 2 3)", "(1 2 3 4 5)"], "name": "A5"},
    {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "name": "C3t"},
], ids=["generators", "table"])
def test_a_group_file_keeps_its_name_and_refuses_one_not_a_string(document, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(document))
    code, out, _ = run(["finite-verify", "--group", f"file:{path}", "--n-random", "1"], capsys)
    assert code == 0 and {row["group"] for row in json.loads(out)["checks"]} == {document["name"]}
    path.write_text(json.dumps({**document, "name": 5}))
    code, out, err = run(["finite-verify", "--group", f"file:{path}"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "GroupConstructionError", "message": "'name' must be a string"}


def test_wrong_shape_group_file_from_a_new_process(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "classops.cli", "scan", "--group", f"file:{bad}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "GroupConstructionError"


@pytest.mark.parametrize("psi", ["inf", "nan"])
def test_su2_wigner_eckart_refuses_nonfinite_psi_before_evaluating(psi):
    # psi is validated before any Wigner matrix is evaluated: no numpy warning
    # may reach stderr ahead of the JSON error
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "classops.cli", "wigner-eckart", "--group", "su2", "--psi", psi],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "psi" in json.loads(lines[0])["message"]


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    probe = "import sys, classops.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_su2_verify_leaves_numpy_polynomial_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    probe = (
        "import contextlib, io, sys, classops.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = classops.cli.main(['su2-verify', '--j2', '4', '--psi', '1'])\n"
        "print(code, 'numpy.polynomial' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "0 False"


def test_an_unconverged_sphere_rule_is_an_input_error(capsys, monkeypatch):
    def stalled(theta, freqs, coeffs):
        return np.ones_like(theta), np.ones_like(theta)

    monkeypatch.setattr("classops.su2._legendre_cosine_series", stalled)
    code, out, err = run(["su2-verify", "--j2", "4", "--psi", "1"], capsys)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ArithmeticError" and doc["message"].endswith("did not converge")


def test_numerical_breakdown_is_an_input_error(capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise ArithmeticError("degenerate numerical spectrum persisted")

    monkeypatch.setattr(cli, "character_table", breakdown)
    code, out, err = run(["scan", "--group", "S3"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ArithmeticError", "message": "degenerate numerical spectrum persisted"}


def test_a_group_is_validated_once_where_it_is_built(tmp_path, capsys, monkeypatch):
    # a closure is a group by construction; a table from a file is checked by group_from_table
    calls = []
    validate = FiniteGroup.validate
    monkeypatch.setattr(FiniteGroup, "validate", lambda self: calls.append(self.order) or validate(self))
    assert run(["finite-verify", "--group", "S4", "--n-random", "1"], capsys)[0] == 0
    assert calls == []
    table = tmp_path / "c3.json"
    table.write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    assert run(["finite-verify", "--group", f"file:{table}", "--n-random", "1"], capsys)[0] == 0
    assert calls == [3]


def _cap_address_space():
    # the runs below ask for 87 TiB and 745 GiB at once; 16 GiB of address space
    # keeps that request refused however the machine overcommits
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 16 << 30 if hard == resource.RLIM_INFINITY else min(16 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("argv", [
    ["finite-verify", "--group", "S3", "--n-random", "1000000000000"],
    ["su2-verify", "--j2", "4", "--psi", "1", "--quadrature", "4", "100000000000"],
], ids=["finite-verify-n-random", "su2-verify-quadrature"])
def test_an_allocation_too_large_is_an_input_error(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "classops.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "MemoryError"


def test_deeply_nested_group_file_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["finite-verify", "--group", f"file:{deep}"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GroupConstructionError"


def test_cycle_point_above_the_cap_exits_before_the_closure(tmp_path, capsys, monkeypatch):
    def closure_must_not_run(*args, **kwargs):
        raise AssertionError("the closure ran for a generator above the point limit")

    monkeypatch.setattr("classops.groups._closure", closure_must_not_run)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"generators": ["(1 1000000)"]}))
    code, out, err = run(["finite-verify", "--group", f"file:{wide}"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "GroupConstructionError", "message": "points must be <= 10080 in '(1 1000000)'"}


@pytest.mark.parametrize("point", ["2_0", "\u0663", "b"])
def test_cycle_point_that_is_not_ascii_digits_is_a_group_error(point, tmp_path, capsys):
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"generators": [f"(1 {point})"]}))
    code, out, err = run(["finite-verify", "--group", f"file:{odd}"], capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "GroupConstructionError"


def test_finite_verify_missing_file(capsys):
    code, _, err = run(["finite-verify", "--group", "file:/nonexistent/g.json"], capsys)
    assert code == 2


def test_reports_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run(
            ["finite-verify", "--group", "catalog:Q8", "--seed", "7", "--output", str(out)],
            capsys,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_format(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run(
        ["finite-verify", "--group", "catalog:C4", "--format", "csv", "--output", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "check,group,class,max_deviation,tolerance,pass"
    assert len(lines) == 2 + 4 * 5


def test_tolerance_override_forces_failure(capsys):
    # S3's integer characters make its spectral form exact (deviation 0); C5's
    # irrational ones leave round-off of about 1e-16
    code, out, _ = run(
        ["finite-verify", "--group", "catalog:C5", "--tol", "spectral_form=1e-20"], capsys
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("argv, expected", [
    (["su2-verify", "--j2", "5", "--psi", "1", "--tol", "su2_final_error=1e-30"], 1),
    (["su2-verify", "--tol", "su2_final_error=1e-30"], 1),
    # S3's largest off-pattern entry is 6.1e-17; SU(2)'s pattern is exact
    (["wigner-eckart", "--group", "S3", "--tol", "wigner_eckart_sparsity=1e-300"], 1),
    (["wigner-eckart", "--group", "su2", "--max-spin-x2", "2", "--tol", "wigner_eckart_sparsity=1e-300"], 0),
], ids=["su2-point", "su2-table", "we-S3", "we-su2"])
def test_run_verdict_follows_its_tolerance(argv, expected, capsys):
    code, out, _ = run(argv, capsys)
    assert code == expected
    assert json.loads(out)["passed"] is (expected == 0)


def test_unknown_tolerance_rejected(capsys):
    code, _, err = run(["finite-verify", "--group", "S3", "--tol", "nope=1"], capsys)
    assert code == 2


def test_su2_verify_default_table(capsys):
    code, out, _ = run(["su2-verify"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = doc["convergence"]
    assert {r["j2"] for r in rows} == set(range(1, 13))
    assert len({round(r["psi"], 12) for r in rows}) == 6
    assert {r["n_theta"] for r in rows} == {4, 8, 16, 32, 64}
    assert len(rows) == 12 * 6 * 5
    assert doc["passed"] is True


def test_su2_verify_default_table_echoes_its_rules(capsys):
    code, out, _ = run(["su2-verify"], capsys)
    assert code == 0
    doc = json.loads(out)
    echoed = {tuple(rule) for rule in doc["config"]["quadrature"]}
    assert echoed == {(r["n_theta"], r["n_phi"]) for r in doc["convergence"]}
    assert len(echoed) == len(doc["config"]["quadrature"]) == 5
    # a rule the table would not run is refused, not echoed
    code, _, err = run(["su2-verify", "--quadrature", "10", "20"], capsys)
    assert code == 2
    assert "--quadrature" in json.loads(err)["message"]


def test_su2_verify_single_point(capsys):
    code, out, _ = run(["su2-verify", "--psi", "3.14159265", "--j2", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["convergence"]) == 1
    assert doc["convergence"][0]["max_abs_error"] < 1e-10


def test_su2_verify_rejects_boundary_psi(capsys):
    code, _, err = run(["su2-verify", "--psi", "0", "--j2", "1"], capsys)
    assert code == 2
    assert "psi" in json.loads(err)["message"]


def test_su2_verify_needs_both_flags(capsys):
    code, _, _ = run(["su2-verify", "--psi", "1.0"], capsys)
    assert code == 2


def test_su2_verify_large_spin_passes(capsys):
    code, out, _ = run(["su2-verify", "--j2", "80", "--psi", "1"], capsys)
    assert code == 0
    assert json.loads(out)["convergence"][0]["max_abs_error"] < 1e-9


def test_su2_verify_derives_the_rule_from_the_spin(capsys):
    # 32 x 64 nodes alias at j2 = 64 (error 5e-3 at psi = 2.5)
    code, out, _ = run(["su2-verify", "--j2", "64", "--psi", "2.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["quadrature"] == [33, 65]
    assert doc["convergence"][0]["max_abs_error"] < 1e-9
    # an explicit rule is honoured
    code, out, _ = run(["su2-verify", "--j2", "64", "--psi", "2.5", "--quadrature", "32", "64"], capsys)
    assert code == 1
    assert json.loads(out)["config"]["quadrature"] == [32, 64]


def test_su2_verify_refuses_spin_above_cap(capsys):
    code, _, err = run(["su2-verify", "--j2", str(MAX_J2 + 1), "--psi", "1"], capsys)
    assert code == 2
    assert "MAX_J2" in json.loads(err)["message"]


def test_finite_verify_rejects_zero_random_weights(capsys):
    code, out, err = run(["finite-verify", "--group", "S3", "--n-random", "0"], capsys)
    assert code == 2 and out == ""
    assert "n-random" in json.loads(err)["message"]


@pytest.mark.parametrize("max_spin_x2", ["0", "-1"])
def test_wigner_eckart_su2_rejects_empty_spin_range(max_spin_x2, capsys):
    code, out, err = run(["wigner-eckart", "--group", "su2", "--max-spin-x2", max_spin_x2], capsys)
    assert code == 2 and out == ""
    assert "max-spin-x2" in json.loads(err)["message"]


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-9"])
def test_rejects_tolerance_not_finite_and_positive(value, capsys):
    args = ["finite-verify", "--group", "S3", "--tol", f"spectral_form={value}"]
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert "finite and positive" in json.loads(err)["message"]


def test_wigner_eckart_finite(capsys):
    code, out, _ = run(
        ["wigner-eckart", "--group", "catalog:S3", "--class", "(1 2)"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["comparisons"]) == 9
    assert doc["skipped"][0]["reason"].startswith("no Z0-fixed columns")
    assert doc["max_off_pattern"] < 1e-10
    assert doc["reduced_matrix_elements"]


def test_wigner_eckart_su2_mode(capsys):
    code, out, _ = run(
        ["wigner-eckart", "--group", "su2", "--max-spin-x2", "4", "--quadrature", "24", "48"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {r["sigma"] for r in doc["comparisons"]} == {1, 2, 3, 4}


def test_wigner_eckart_su2_beyond_small_spins(capsys):
    # spins 4 and up of L(V^sigma) need Clebsch-Gordan coefficients whose
    # factorials exceed int64; the components reach doubled spin 16 here
    code, out, _ = run(["wigner-eckart", "--group", "su2", "--max-spin-x2", "8", "--psi", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["comparisons"]) == sum((s + 1) ** 2 for s in range(1, 9))


def test_wigner_eckart_su2_refuses_components_above_cap(capsys):
    args = ["wigner-eckart", "--group", "su2", "--max-spin-x2", str(MAX_J2 // 2 + 1)]
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert "MAX_J2" in json.loads(err)["message"]


def test_scan(capsys):
    code, out, _ = run(["scan", "--group", "catalog:S4", "--class", "all"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["families"]
    assert not any(f["vanishes"] for f in doc["families"])


# the report section whose rows decide each command's verdict (scan passes by
# construction, so its families are the rows it reports on)
_VERDICT_SECTIONS = {"finite-verify": "checks", "wigner-eckart": "comparisons", "scan": "families",
                     "su2-verify": "convergence"}


@pytest.mark.parametrize("argv", [
    *([cmd, "--group", group, "--class", "all"]
      for group in ("C1", "S1", "Q8", "table-D4") for cmd in ("finite-verify", "wigner-eckart", "scan")),
    ["su2-verify"],
    ["su2-verify", "--j2", "1", "--psi", "0.7"],
    ["wigner-eckart", "--group", "su2", "--max-spin-x2", "1"],
], ids=lambda argv: "-".join(argv[:3]))
def test_no_report_passes_on_an_empty_check_set(argv, tmp_path, capsys):
    if "table-D4" in argv:
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"table": build_group("D4").mult_table.tolist()}))
        argv = [f"file:{path}" if a == "table-D4" else a for a in argv]
    code, out, _ = run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and len(doc[_VERDICT_SECTIONS[argv[0]]]) >= 1


@pytest.mark.parametrize("argv,producer,empty", [
    (["finite-verify", "--group", "S3", "--class", "all"], "finite_class_suite", []),
    (["wigner-eckart", "--group", "S3", "--class", "all"], "wigner_eckart_report", ([], [], [], 0.0)),
    (["scan", "--group", "S3", "--class", "all"], "scan_rows", ([], [])),
    (["su2-verify"], "su2_convergence_rows", []),
], ids=["finite-verify", "wigner-eckart", "scan", "su2-verify"])
def test_an_empty_verdict_section_exits_2(argv, producer, empty, monkeypatch, capsys):
    # no command can produce zero rows today; should one ever do so, its
    # verdict refuses them rather than passing on nothing
    monkeypatch.setattr(verify, producer, lambda *args, **kwargs: empty)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError" and f"'{_VERDICT_SECTIONS[argv[0]]}'" in error["message"]


def _assert_close(a, b, where="$"):
    """The same JSON structure, every string, int and bool equal, every float within 1e-13."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), where
        for key in a:
            _assert_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert isinstance(b, float) and abs(a - b) <= 1e-13, (where, a, b)
    else:
        assert type(a) is type(b) and a == b, (where, a, b)


@pytest.mark.parametrize("argv", [
    ["finite-verify", "--group", "S4", "--class", "all"],
    ["wigner-eckart", "--group", "S4", "--class", "all"],
    ["export-tables", "--group", "S4"],
    ["wigner-eckart", "--group", "su2", "--max-spin-x2", "3"],
], ids=["finite-verify", "wigner-eckart", "export-tables", "su2-wigner-eckart"])
def test_a_chunk_bound_of_one_entry_keeps_every_row_and_verdict(argv, tmp_path, capsys, monkeypatch):
    # every chunked pass takes its slices from groups._chunks, so a bound of
    # one entry runs each pass one item at a time: the same rows and verdicts,
    # values within round-off (_matmul's size cutoff may change their bits)
    docs = []
    for bound in (None, 1):
        if bound is not None:
            monkeypatch.setattr("classops.groups._CHUNK_ENTRIES", bound)
        out = tmp_path / f"{bound}.json"
        code, _, _ = run(argv + ["--output", str(out)], capsys)
        assert code == 0
        docs.append(json.loads(out.read_text()))
    _assert_close(*docs)


def test_export_tables(tmp_path, capsys):
    out = tmp_path / "tables.json"
    code, _, _ = run(["export-tables", "--group", "catalog:D4", "--output", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "classop-tables/2"
    assert [r["dim"] for r in doc["irreps"]] == [1, 1, 1, 1, 2]
    group = build_group("D4")
    assert doc["group"]["generators"] == group.generators
    assert np.shape(doc["irreps"][4]["generator_images"]) == (2, 2, 2, 2)   # 2 generators, [re, im]
    assert set(doc["coupling"][4]) == {"sigma", "kind", "basis"}
    mats = read_tables_2(doc)[4]
    hom = np.einsum("aij,bjk->abik", mats, mats)
    assert np.max(np.abs(hom - mats[group.mult_table])) < 1e-11


def test_export_tables_requires_output(capsys):
    code, _, err = run(["export-tables", "--group", "catalog:C2"], capsys)
    assert code == 2


@pytest.mark.parametrize("option", [["--format", "csv"], ["--class", "zz"], ["--tol", "spectral_form=1"]])
def test_export_tables_refuses_options_it_would_ignore(option, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export-tables", "--group", "C2", "--output", str(tmp_path / "t.csv"), *option])
    assert exc.value.code == 2
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("option", [
    ["--group", "S3", "--psi", "1"],
    ["--group", "S3", "--max-spin-x2", "3"],
    ["--group", "S3", "--quadrature", "5", "6"],
    ["--group", "S3", "--psi", "1", "--max-spin-x2", "3", "--quadrature", "5", "6"],
    ["--group", "su2", "--class", "3"],
])
def test_wigner_eckart_refuses_options_its_mode_ignores(option, capsys):
    code, out, err = run(["wigner-eckart", *option], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_wigner_eckart_decomposes_each_irrep_once(capsys, monkeypatch):
    calls = []
    decompose = cli.conjugation_decomposition

    def counted(group, irreps_list, table):
        tables = decompose(group, irreps_list, table)
        calls.append([tab.sigma for tab in tables])
        return tables

    monkeypatch.setattr(cli, "conjugation_decomposition", counted)
    code, out, _ = run(["wigner-eckart", "--group", "S4", "--class", "all"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    assert calls == [[0, 1, 2, 3, 4]]   # one stacked call builds the table of every sigma


@pytest.mark.parametrize("command", ["wigner-eckart", "scan"])
def test_a_non_integer_z_fixed_dimension_exits_2(command, capsys, monkeypatch):
    build = cli.irreps

    def perturbed(*args, **kwargs):
        reps = build(*args, **kwargs)
        reps[3].matrices[0] *= 1 + 1e-6   # S4's first 3-dim irrep, at the identity
        return reps

    monkeypatch.setattr(cli, "irreps", perturbed)
    code, out, err = run([command, "--group", "S4", "--class", "(1 2)"], capsys)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ArithmeticError" and doc["message"].startswith("non-integer Z0-fixed dimension")


def test_a_class_request_runs_one_gram_schmidt_per_shape_block(capsys, monkeypatch):
    # D20 and the class of its 20-cycle: 4 1-dim and 9 2-dim irreps, 31
    # (sigma, gamma) pairs.  One pivoted Gram-Schmidt seeds each
    # (d_sigma, m, d_gamma) block of the decomposition of a 2-dim sigma,
    # (2, 1, 1) with 20 pairs and (2, 1, 2) with 8, and one re-seeds each of
    # them rotated; a 1-dim sigma needs none, and no irrep has a vector fixed
    # by the 20-cycle's centralizer, so the Z0-fixed bases are identities and
    # need none either.  Per sigma, per gamma and per irrep this took 66 calls.
    calls = []
    stacked = coupling._orthonormal_range

    def counted(matrices, ranks):
        calls.append(np.shape(matrices)[:-2])
        return stacked(matrices, ranks)

    monkeypatch.setattr(coupling, "_orthonormal_range", counted)
    cycle = "(" + " ".join(str(i) for i in range(1, 21)) + ")"
    code, out, _ = run(["wigner-eckart", "--group", "D20", "--class", cycle], capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    assert sorted(calls) == [(8,), (8,), (20,), (20,)]


def test_oversized_catalog_group_exits_before_the_closure(capsys, monkeypatch):
    def closure_must_not_run(*args, **kwargs):
        raise AssertionError("the closure ran for a catalog group above the order cap")

    monkeypatch.setattr("classops.groups._closure", closure_must_not_run)
    code, _, err = run(["finite-verify", "--group", "D100000", "--class", "0"], capsys)
    assert code == 2
    assert "too large" in json.loads(err)["message"]


@pytest.mark.parametrize("spec,message", [
    ("C\uff11\uff12", "unknown catalog group 'C\uff11\uff12'"),   # fullwidth digits one, two
    ("S\u0663", "unknown catalog group 'S\u0663'"),                 # Arabic-Indic digit three
    ("C" + "1" * 5000, "group too large: a 5000-digit catalog count exceeds the order cap"),
], ids=["fullwidth-digits", "arabic-indic-digit", "5000-digit-count"])
def test_catalog_name_takes_ascii_counts_below_the_cap(spec, message, capsys):
    code, out, err = run(["finite-verify", "--group", spec], capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "GroupConstructionError", "message": message}


@pytest.mark.parametrize("digits", [400, 5000])
def test_group_file_refuses_a_long_integer_before_reading_it(digits, tmp_path, capsys):
    # the json module's int() would refuse 5000 digits with its own message,
    # and take 400 digits whole, to be echoed in the order-cap message
    path = tmp_path / "group.json"
    path.write_text('{"catalog": {"family": "cyclic", "n": ' + "1" * digits + "}}")
    code, out, err = run(["finite-verify", "--group", f"file:{path}"], capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    message = f"group too large: a {digits}-digit catalog count exceeds the order cap"
    assert json.loads(err) == {"error": "GroupConstructionError", "message": message}


def test_export_tables_checks_output_before_the_group(capsys):
    code, _, err = run(["export-tables", "--group", "X9"], capsys)
    assert code == 2
    assert json.loads(err) == {"error": "UsageError", "message": "export-tables requires --output"}


def _csv_sections(text: str) -> list[list[list[str]]]:
    sections = []
    for line in text.splitlines():
        if line.startswith("# "):
            sections.append([])
        else:
            sections[-1].append(line.split(","))
    return sections


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, list):  # a complex number as [re, im]
        return csv_lines(["z"], [[complex(*value)]])[1]
    return str(value)


@pytest.mark.parametrize("argv, keys", [
    (["finite-verify", "--group", "S3"], ["checks"]),
    (["su2-verify", "--j2", "5", "--psi", "2.5"], ["convergence"]),
    (["wigner-eckart", "--group", "S3", "--class", "(1 2)"], ["comparisons", "reduced_matrix_elements"]),
    (["wigner-eckart", "--group", "su2", "--max-spin-x2", "2"], ["comparisons", "reduced_matrix_elements"]),
    (["scan", "--group", "S4"], ["families"]),
])
def test_csv_and_json_carry_the_same_records(argv, keys, capsys):
    code_json, out_json, _ = run([*argv, "--seed", "7"], capsys)
    code_csv, out_csv, _ = run([*argv, "--seed", "7", "--format", "csv"], capsys)
    assert code_json == code_csv == 0
    doc = json.loads(out_json)
    sections = _csv_sections(out_csv)
    assert len(sections) == len(keys)
    for key, (header, *rows) in zip(keys, sections):
        records = doc[key]
        assert records and len(rows) == len(records)
        for row, record in zip(rows, records):
            assert sorted(header) == sorted(record)
            assert row == [_csv_cell(record[name]) for name in header]


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CLASSOPS_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(["finite-verify", "--group", "catalog:C2", "--output", "sub/r.json"], capsys)
    assert code == 0
    assert (tmp_path / "sub" / "r.json").exists()


class _FailingAfterFirstChunk:
    """A handle that takes one chunk and then fails as a full disk does."""

    def __init__(self, handle):
        self.handle, self.chunks = handle, 0

    def write(self, text):
        if self.chunks:
            raise OSError(28, "No space left on device")
        self.chunks += 1
        return self.handle.write(text)


@pytest.mark.parametrize("argv, writer", [
    (["export-tables", "--group", "C12"], "write_json"),
    (["wigner-eckart", "--group", "S3"], "write_report"),
], ids=["export-tables", "report"])
def test_a_write_failing_partway_leaves_no_output_file(argv, writer, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.json"
    out.write_text("an older file")
    real = getattr(cli, writer)
    monkeypatch.setattr(cli, writer, lambda *args, **members: real(*args[:-1], _FailingAfterFirstChunk(args[-1]),
                                                                      **members))
    code, stdout, err = run([*argv, "--output", str(out)], capsys)
    assert code == 2 and stdout == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "OSError", "message": "[Errno 28] No space left on device"}
    assert not out.exists()
    # without a failure the same path gets the whole document
    monkeypatch.setattr(cli, writer, real)
    code, _, _ = run([*argv, "--output", str(out)], capsys)
    assert code == 0 and json.loads(out.read_text())
    # an exception from the chunk source itself propagates, and the file goes too
    monkeypatch.setattr(cli, "tables_document", lambda *args: {"a": 1.0, "b": object()})
    with pytest.raises(TypeError):
        main(["export-tables", "--group", "C12", "--output", str(out)])
    assert not out.exists()
