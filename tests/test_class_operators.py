"""Weighted class operators: construction, covariance, transfer, spectral form."""

import numpy as np
import pytest

from classops.groups import build_group, conjugacy_classes, left_regular_matrix, regular_actions
from classops.representations import character_table, irreps
from classops.class_operators import (
    centralizer_invariance_check,
    class_left_translate,
    class_operator_from_classfunction,
    class_sum_element,
    covariance_conjugate,
    left_translate,
    right_translate,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)
from helpers import CATALOG_LEQ_24, literal_class_operator, regular_representation


def test_zero_weight():
    group = build_group("S3")
    for lam in (regular_representation(group), None):
        op = weighted_class_operator(group, lam, 1, np.zeros(6))
        assert np.max(np.abs(op.matrix)) == 0


def test_identity_base_point():
    group = build_group("Q8")
    rng = np.random.default_rng(0)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for lam in (regular_representation(group), None):
        op = weighted_class_operator(group, lam, 0, f)
        assert np.max(np.abs(op.matrix - f.mean() * np.eye(8))) < 1e-13


def test_matches_explicit_sum():
    group = build_group("S4")
    reps = irreps(group)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    for rep in reps[2:4]:
        op = weighted_class_operator(group, rep.matrices, 1, f)
        assert np.max(np.abs(op.matrix - literal_class_operator(group, rep.matrices, 1, f))) < 1e-12


def test_constant_weight_is_class_sum_operator():
    group = build_group("S3")
    cls = conjugacy_classes(group)[1]  # transpositions
    l0 = left_regular_matrix(group, class_sum_element(group, cls))
    for lam in (regular_representation(group), None):
        op = weighted_class_operator(group, lam, cls.base_element, np.ones(6))
        assert np.max(np.abs(op.matrix - l0)) < 1e-12


def test_linearity_in_weight():
    group = build_group("D4")
    rng = np.random.default_rng(2)
    f, g = (rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2))
    for lam in (regular_representation(group), None):
        a = weighted_class_operator(group, lam, 2, 2.0 * f + 1j * g).matrix
        b = 2.0 * weighted_class_operator(group, lam, 2, f).matrix
        c = 1j * weighted_class_operator(group, lam, 2, g).matrix
        assert np.max(np.abs(a - b - c)) < 1e-13


def test_dimension_mismatch():
    group = build_group("S3")
    with pytest.raises(ValueError):
        weighted_class_operator(group, np.zeros((5, 2, 2)), 0, np.ones(6))


@pytest.mark.parametrize("spec", ["S4", "Q8"])
def test_conjugation_covariance(spec):
    group = build_group(spec)
    n = group.order
    for lam in (regular_representation(group), None):
        rng = np.random.default_rng(3)
        for cls in conjugacy_classes(group):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            op = weighted_class_operator(group, lam, cls.base_element, f)
            for g in range(n):
                moved = covariance_conjugate(group, lam, op, g, tol=1e-11)
                direct = weighted_class_operator(group, lam, cls.base_element, left_translate(group, g, f))
                assert np.max(np.abs(moved.matrix - direct.matrix)) < 1e-11
            # identity conjugation leaves the operator unchanged
            same = covariance_conjugate(group, lam, op, 0)
            assert np.max(np.abs(same.matrix - op.matrix)) < 1e-14


def test_covariance_detects_broken_representation():
    group = build_group("S3")
    lam = regular_representation(group).copy()
    rng = np.random.default_rng(4)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    op = weighted_class_operator(group, lam, 1, f)
    broken = lam.copy()
    broken[3] = np.eye(6)  # no longer a homomorphism
    with pytest.raises(ArithmeticError):
        covariance_conjugate(group, broken, op, 3, tol=1e-11)


def test_central_conjugation_fixes_operator():
    # central g acts trivially on T(g0) under conjugation, any weight moves with lambda(g)
    group = build_group("Q8")
    lam = regular_representation(group)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    central = next(
        c.base_element for c in conjugacy_classes(group) if c.size == 1 and c.base_element != 0
    )
    cls = conjugacy_classes(group)[1]
    op = weighted_class_operator(group, lam, cls.base_element, f)
    moved = covariance_conjugate(group, lam, op, central)
    direct = weighted_class_operator(
        group, lam, cls.base_element, left_translate(group, central, f)
    )
    assert np.max(np.abs(moved.matrix - direct.matrix)) < 1e-12


@pytest.mark.parametrize("spec", ["C6", "S3", "S4"])
def test_centralizer_invariance(spec):
    group = build_group(spec)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    for lam in (regular_representation(group), None):
        for cls in conjugacy_classes(group):
            report = centralizer_invariance_check(group, lam, cls.base_element, f)
            assert report.passed, report
            assert report.max_deviation < 1e-12


def test_abelian_right_translation_trivial():
    group = build_group("C6")
    lam = regular_representation(group)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base = weighted_class_operator(group, lam, 2, f).matrix
    for h in range(6):  # Z0 = G for abelian groups
        shifted = weighted_class_operator(group, lam, 2, right_translate(group, h, f)).matrix
        assert np.max(np.abs(shifted - base)) < 1e-13


def test_transfer():
    group = build_group("S3")
    cls = conjugacy_classes(group)[1]
    assert np.allclose(transfer(group, cls, np.ones(6)), 1.0)
    # scaled delta spreads to (|G|/|Z0|) times the indicator of its coset
    for g in range(6):
        f = np.zeros(6, complex)
        f[g] = group.order
        smeared = transfer(group, cls, f)
        target = group.conjugate(cls.base_element, g)
        expected = np.zeros(cls.size, complex)
        expected[cls.members.index(target)] = group.order / len(cls.centralizer)
        assert np.allclose(smeared, expected)
    # mean-zero function supported on Z0 transfers to zero at the identity coset
    f = np.zeros(6, complex)
    h0, h1 = cls.centralizer
    f[h0], f[h1] = 1.0, -1.0
    smeared = transfer(group, cls, f)
    assert abs(smeared[cls.members.index(cls.base_element)]) < 1e-15


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_coset_factorization(spec):
    group = build_group(spec)
    n = group.order
    for lam in (regular_representation(group), None):
        rng = np.random.default_rng(8)
        for cls in conjugacy_classes(group):
            for _ in range(10):
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                direct = weighted_class_operator(group, lam, cls.base_element, f).matrix
                through = class_operator_from_classfunction(
                    group, lam, cls, transfer(group, cls, f)
                ).matrix
                assert np.max(np.abs(direct - through)) < 1e-11


def test_classfunction_operator_singleton_class():
    group = build_group("Q8")
    lam = regular_representation(group)
    central = next(
        c for c in conjugacy_classes(group) if c.size == 1 and c.base_element != 0
    )
    op = class_operator_from_classfunction(group, lam, central, np.array([2.5 - 1j]))
    assert np.max(np.abs(op.matrix - (2.5 - 1j) * lam[central.base_element])) < 1e-13


def test_classfunction_size_check():
    group = build_group("S3")
    lam = regular_representation(group)
    cls = conjugacy_classes(group)[1]
    with pytest.raises(ValueError):
        class_operator_from_classfunction(group, lam, cls, np.ones(5))
    with pytest.raises(ValueError):
        class_left_translate(group, cls, 1, np.ones(5))


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_intertwining_on_class_functions(spec):
    group = build_group(spec)
    lam = regular_representation(group)
    rng = np.random.default_rng(9)
    for cls in conjugacy_classes(group):
        phi = rng.standard_normal(cls.size) + 1j * rng.standard_normal(cls.size)
        op = class_operator_from_classfunction(group, lam, cls, phi).matrix
        for g in range(group.order):
            conjugated = lam[g] @ op @ lam[group.inverse_table[g]]
            moved = class_operator_from_classfunction(
                group, lam, cls, class_left_translate(group, cls, g, phi)
            ).matrix
            assert np.max(np.abs(conjugated - moved)) < 1e-12


def test_spectral_identity_class():
    group = build_group("S4")
    table = character_table(group)
    identity_class = conjugacy_classes(group)[0]
    op = spectral_class_operator(group, identity_class, table)
    assert np.max(np.abs(op - np.eye(group.order))) < 1e-10


def test_s3_spectral_eigenvalues_frozen():
    group = build_group("S3")
    table = character_table(group)
    classes = conjugacy_classes(group)
    # transposition class: eigenvalues (1, -1, 0) on blocks of dims (1, 1, 4)
    op = spectral_class_operator(group, classes[1], table)
    evals = np.sort(np.linalg.eigvalsh((op + op.conj().T) / 2))
    assert np.allclose(evals, [-1, 0, 0, 0, 0, 1], atol=1e-10)
    # 3-cycle class: eigenvalues (1, 1, -1/2)
    op = spectral_class_operator(group, classes[2], table)
    evals = np.sort(np.linalg.eigvalsh((op + op.conj().T) / 2))
    assert np.allclose(evals, [-0.5, -0.5, -0.5, -0.5, 1, 1], atol=1e-10)
    # eigenvalue matched to its isotypic block via projector support
    from classops.representations import isotypic_projector

    expectations = {1: [1.0, -1.0, 0.0], 2: [1.0, 1.0, -0.5]}
    for ci, expected in expectations.items():
        op = spectral_class_operator(group, classes[ci], table)
        for alpha in range(3):
            proj = isotypic_projector(group, table, alpha).matrix
            assert np.max(np.abs(op @ proj - expected[alpha] * proj)) < 1e-10


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_spectral_equals_bruteforce(spec):
    group = build_group(spec)
    table = character_table(group)
    for lam in (regular_representation(group), None):
        for cls in conjugacy_classes(group):
            brute = weighted_class_operator(
                group, lam, cls.base_element, np.ones(group.order)
            ).matrix
            assert np.max(np.abs(spectral_class_operator(group, cls, table) - brute)) < 1e-10


def test_class_operator_is_central():
    group = build_group("S4")
    table = character_table(group)
    for cls in conjugacy_classes(group):
        op = spectral_class_operator(group, cls, table)
        for g in [1, 7, 13, 20]:
            lam_g, rho_g = regular_actions(group, g)
            assert np.max(np.abs(op @ lam_g - lam_g @ op)) < 1e-10
            assert np.max(np.abs(op @ rho_g - rho_g @ op)) < 1e-10


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_class_sum_character_expansion(spec):
    group = build_group(spec)
    table = character_table(group)
    for ci, cls in enumerate(table.classes):
        expansion = np.zeros(group.order, dtype=complex)
        for alpha in range(len(table.dims)):
            expansion += table.values[alpha, ci].conjugate() * table.element_values(group, alpha)
        expansion /= group.order
        assert np.max(np.abs(class_sum_element(group, cls) - expansion)) < 1e-10
