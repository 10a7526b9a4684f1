"""CLI behaviour: subcommands, exit codes, determinism, report schemas."""

import json

import numpy as np
import pytest

from classops.cli import main
from classops.serialize import decode_complex_array
from classops.su2 import MAX_J2


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


def test_finite_verify_bad_group_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}))
    code, out, err = run(["finite-verify", "--group", f"file:{bad}"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "GroupConstructionError"


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
    code, out, _ = run(
        ["finite-verify", "--group", "catalog:S3", "--tol", "spectral_form=1e-20"], capsys
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


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


def test_export_tables(tmp_path, capsys):
    out = tmp_path / "tables.json"
    code, _, _ = run(["export-tables", "--group", "catalog:D4", "--output", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "classop-tables/1"
    assert [r["dim"] for r in doc["irreps"]] == [1, 1, 1, 1, 2]
    mats = decode_complex_array(doc["irreps"][4]["matrices"])
    hom = np.einsum("aij,bjk->abik", mats, mats)
    from classops.groups import build_group

    group = build_group("D4")
    assert np.max(np.abs(hom - mats[group.mult_table])) < 1e-11


def test_export_tables_requires_output(capsys):
    code, _, err = run(["export-tables", "--group", "catalog:C2"], capsys)
    assert code == 2


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CLASSOPS_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(["finite-verify", "--group", "catalog:C2", "--output", "sub/r.json"], capsys)
    assert code == 0
    assert (tmp_path / "sub" / "r.json").exists()
