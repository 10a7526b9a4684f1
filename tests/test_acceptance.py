"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Every expected value is either computed by
an independent oracle inside the test or asserted against a closed form.
"""

import time

import numpy as np
import pytest

from classops.groups import build_group, conjugacy_classes, left_regular_matrix
from classops.representations import (
    character_table,
    irreps,
    isotypic_projector,
)
from classops.class_operators import (
    class_operator_from_classfunction,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)
from classops.coupling import (
    adapt_irreps_to_class,
    conjugation_decomposition,
    frobenius_multiplicity_check,
    product_expansion_residual_su2,
    su2_coupling_table,
    triple_product_residual_su2,
)
from classops.su2 import (
    SphereQuadrature,
    class_operator_quadrature,
    closed_form_eigenvalue,
    haar_random,
    su2_haar_quadrature,
)
from classops import verify
from helpers import CATALOG_LEQ_24, image, product_expansion_residual, regular_representation, triple_product_residual

PSI_GRID = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, np.pi, 3 * np.pi / 2)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_spectral_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for spec in ["C6", "S3", "D4", "Q8", "S4"]:
        group = build_group(spec)
        table = character_table(group)
        lam = regular_representation(group)
        for cls in conjugacy_classes(group):
            brute = image(group, lam, weighted_class_operator(group, cls.base_element, np.ones(group.order)))
            spectral = left_regular_matrix(group, spectral_class_operator(group, cls, table))
            worst = max(worst, float(np.max(np.abs(brute - spectral))))
    elapsed = time.perf_counter() - start
    report(
        "1 class-operator-spectral-form",
        worst < 1e-10 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_s3_spectral_values():
    group = build_group("S3")
    table = character_table(group)
    classes = conjugacy_classes(group)
    expected = {1: [1.0, -1.0, 0.0], 2: [1.0, 1.0, -0.5]}
    worst = 0.0
    for ci, eigenvalues in expected.items():
        op = left_regular_matrix(group, spectral_class_operator(group, classes[ci], table))
        for alpha, value in enumerate(eigenvalues):
            proj = left_regular_matrix(group, isotypic_projector(group, table, alpha))
            worst = max(worst, float(np.max(np.abs(op @ proj - value * proj))))
    report("2 s3-spectral-values", worst < 1e-10, f"max deviation {worst:.2e}")


def test_criterion_3_su2_closed_form():
    start = time.perf_counter()
    fine = SphereQuadrature.build(32, 64)
    coarse = SphereQuadrature.build(8, 64)
    worst_fine, ratio_ok = 0.0, True
    for j2 in range(1, 13):
        for psi in PSI_GRID:
            target = closed_form_eigenvalue(j2, psi) * np.eye(j2 + 1)
            err_fine = float(np.max(np.abs(class_operator_quadrature(j2, psi, fine) - target)))
            err_coarse = float(np.max(np.abs(class_operator_quadrature(j2, psi, coarse) - target)))
            worst_fine = max(worst_fine, err_fine)
            if not (err_coarse >= 10 * err_fine or (err_coarse < 1e-13 and err_fine < 1e-13)):
                ratio_ok = False
    elapsed = time.perf_counter() - start
    report(
        "3 su2-closed-form",
        worst_fine < 1e-9 and ratio_ok and elapsed < 5.0,
        f"max error {worst_fine:.2e}, coarse/fine ratio ok: {ratio_ok}, {elapsed:.2f}s",
    )


def test_criterion_4_factorization_and_covariance():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for spec in ["S3", "S4", "Q8"]:
        group = build_group(spec)
        lam = regular_representation(group)
        classes = conjugacy_classes(group)
        n = group.order
        for trial in range(200):
            cls = classes[trial % len(classes)]
            g0 = cls.base_element
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = int(rng.integers(n))
            op = image(group, lam, weighted_class_operator(group, g0, f))
            # factorization through the coset space
            through = image(group, lam, class_operator_from_classfunction(group, cls, transfer(group, cls, f)))
            worst = max(worst, float(np.max(np.abs(op - through))))
            # covariance
            conjugated = lam[g] @ op @ lam[group.inverse_table[g]]
            shifted = weighted_class_operator(group, g0, f[group.mult_table[group.inverse_table[g]]])
            worst = max(worst, float(np.max(np.abs(conjugated - image(group, lam, shifted)))))
            # right-centralizer invariance, exhaustive over Z0
            for h in cls.centralizer:
                moved = weighted_class_operator(group, g0, f[group.mult_table[:, h]])
                worst = max(worst, float(np.max(np.abs(image(group, lam, moved) - op))))
    elapsed = time.perf_counter() - start
    report(
        "4 factorization-covariance",
        worst < 1e-11 and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_wigner_eckart():
    start = time.perf_counter()
    worst_match, worst_off = 0.0, 0.0
    for spec in ["S3", "S4"]:
        group = build_group(spec)
        cls = conjugacy_classes(group)[1]
        assert group.labels[cls.base_element] == "(1 2)"  # the transposition class
        table = character_table(group)
        reps = irreps(group, table)
        coupling = [conjugation_decomposition(group, reps, table, s) for s in range(len(reps))]
        rows, reduced, skipped, max_off = verify.wigner_eckart_report(group, cls, table, reps, coupling)
        assert rows
        worst_match = max(worst_match, max(r.max_dev for r in rows))
        worst_off = max(worst_off, max_off)
    elapsed = time.perf_counter() - start
    report(
        "5 wigner-eckart",
        worst_match < 1e-9 and worst_off < 1e-10 and elapsed < 60.0,
        f"max match dev {worst_match:.2e}, off-pattern {worst_off:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_product_and_triple_identities():
    worst_finite = 0.0
    for spec in CATALOG_LEQ_24:
        group = build_group(spec)
        table = character_table(group)
        reps = irreps(group, table)
        for sigma in range(len(reps)):
            tab = conjugation_decomposition(group, reps, table, sigma)
            worst_finite = max(worst_finite, product_expansion_residual(group, reps, tab))
            for alpha in range(len(reps)):
                worst_finite = max(worst_finite, triple_product_residual(group, reps, tab, alpha))
    worst_su2 = 0.0
    samples = haar_random(np.random.default_rng(42), 50)
    for sigma2 in [1, 2, 3, 4]:  # spins up to 2
        tab = su2_coupling_table(sigma2)
        worst_su2 = max(worst_su2, product_expansion_residual_su2(tab, samples))
        for alpha2 in tab.gammas:
            band = (alpha2 + 2 * sigma2) // 2 + 2
            angles, weights = su2_haar_quadrature(2 * band + 3, band + 2, 4 * band + 6)
            worst_su2 = max(worst_su2, triple_product_residual_su2(tab, alpha2, angles, weights))
    report(
        "6 product-and-triple-identities",
        worst_finite < 1e-10 and worst_su2 < 1e-9,
        f"finite {worst_finite:.2e}, su2 {worst_su2:.2e}",
    )


def test_criterion_7_frobenius_multiplicities():
    mismatches = 0
    checked = 0
    for spec in CATALOG_LEQ_24:
        group = build_group(spec)
        table = character_table(group)
        reps = irreps(group, table)
        for cls in conjugacy_classes(group):
            for row in frobenius_multiplicity_check(group, cls, reps, table):
                checked += 1
                if not row.equal:
                    mismatches += 1
    report(
        "7 frobenius-multiplicity",
        mismatches == 0,
        f"{checked} (class, irrep) pairs, {mismatches} mismatches",
    )


def test_criterion_8_property_suites():
    failures = []
    # group axioms
    for spec in CATALOG_LEQ_24 + ["S5"]:
        group = build_group(spec)
        try:
            group.validate()
        except Exception as exc:  # noqa: BLE001 - report, do not mask
            failures.append(f"axioms[{spec}]: {exc}")
    # Schur orthogonality
    for spec in CATALOG_LEQ_24:
        group = build_group(spec)
        reps = irreps(group)
        for a, ra in enumerate(reps):
            for b, rb in enumerate(reps):
                ip = np.einsum("gij,gkl->ijkl", ra.matrices, rb.matrices.conj()) / group.order
                expected = (
                    np.einsum("ik,jl->ijkl", np.eye(ra.dim), np.eye(ra.dim)) / ra.dim
                    if a == b
                    else 0
                )
                if np.max(np.abs(ip - expected)) > 1e-10:
                    failures.append(f"schur[{spec},{a},{b}]")
    # projector algebra
    for spec in ["S3", "D4", "Q8", "S4"]:
        group = build_group(spec)
        table = character_table(group)
        projectors = [
            left_regular_matrix(group, isotypic_projector(group, table, alpha))
            for alpha in range(len(table.dims))
        ]
        if np.max(np.abs(sum(projectors) - np.eye(group.order))) > 1e-10:
            failures.append(f"projector-sum[{spec}]")
        for a, pa in enumerate(projectors):
            for b, pb in enumerate(projectors):
                expected = pa if a == b else 0
                if np.max(np.abs(pa @ pb - expected)) > 1e-10:
                    failures.append(f"projector-product[{spec},{a},{b}]")
    # quadrature weight normalization
    for n_theta, n_phi in [(4, 8), (16, 32), (32, 64), (64, 128)]:
        quad = SphereQuadrature.build(n_theta, n_phi)
        if abs(np.sum(quad.theta_weights) - 1.0) > 1e-14:
            failures.append(f"quadrature[{n_theta}]")
    report("8 property-suites", not failures, f"failures: {failures or 'none'}")
