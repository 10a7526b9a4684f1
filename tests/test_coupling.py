"""Coupling tables, Frobenius reciprocity, and the Wigner-Eckart factorization."""

import numpy as np
import pytest

from classops.groups import build_group, conjugacy_classes
from classops.representations import character_table, irreps
from classops.class_operators import weighted_class_operator
from classops.coupling import (
    adapt_irreps_to_class,
    clebsch_gordan,
    conjugation_decomposition,
    frobenius_multiplicity_check,
    product_expansion_residual,
    product_expansion_residual_su2,
    reduced_matrix_elements,
    su2_coupling_table,
    su2_z_fixed_basis,
    tensor_operator_scan,
    triple_product_residual,
    triple_product_residual_su2,
    wigner_eckart_bruteforce,
    wigner_eckart_matrix,
    z_fixed_basis,
)
from classops.su2 import (
    MAX_J2,
    SphereQuadrature,
    WignerD,
    fixed_column_index,
    haar_random,
    su2_haar_quadrature,
    weighted_class_operator_su2,
)
from helpers import CATALOG_LEQ_24, oracle_cg_ladder, regular_representation

RNG = np.random.default_rng(21)


def _tables_for(spec):
    group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    return group, table, reps


# ---------------------------------------------------------------------------
# finite coupling tables
# ---------------------------------------------------------------------------


def test_trivial_sigma_table():
    group, table, reps = _tables_for("S3")
    tab = conjugation_decomposition(group, reps, table, 0)
    assert tab.gammas == [0] and tab.multiplicities[0] == 1
    assert np.allclose(tab.coeffs[0], 1.0)


def test_s3_standard_decomposition():
    group, table, reps = _tables_for("S3")
    tab = conjugation_decomposition(group, reps, table, 2)
    assert tab.gammas == [0, 1, 2]
    assert [tab.multiplicity(g) for g in tab.gammas] == [1, 1, 1]
    # dimension count 4 = 1 + 1 + 2, and the multiplicity alias
    assert sum(tab.multiplicity(g) * reps[g].dim for g in tab.gammas) == 4
    assert tab.multiplicity(1) == 1 and tab.multiplicity(99) == 0


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_coupling_invariants(spec):
    group, table, reps = _tables_for(spec)
    for sigma in range(len(reps)):
        tab = conjugation_decomposition(group, reps, table, sigma)
        assert tab.unitarity_residual() < 1e-10
        assert tab.reconstruction_residual() < 1e-10
        assert sum(tab.multiplicity(g) * reps[g].dim for g in tab.gammas) == reps[sigma].dim ** 2
        # adapted copies transform with exactly the stored gamma matrices
        for g in RNG.integers(0, group.order, size=2):
            t_s = reps[sigma].matrices[g]
            for gamma in tab.gammas:
                lhs = np.einsum("ab,mnbc,dc->mnad", t_s, tab.basis[gamma], t_s.conj())
                rhs = np.einsum("qn,mqad->mnad", reps[gamma].matrices[g], tab.basis[gamma])
                assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_product_expansion_exhaustive_finite(spec):
    group, table, reps = _tables_for(spec)
    for sigma in range(len(reps)):
        tab = conjugation_decomposition(group, reps, table, sigma)
        assert product_expansion_residual(group, reps, tab) < 1e-10


def test_product_expansion_at_identity_reduces_to_unitarity():
    group, table, reps = _tables_for("S4")
    tab = conjugation_decomposition(group, reps, table, 3)
    assert product_expansion_residual(group, reps, tab, elements=[0]) < 1e-11


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_triple_product_exhaustive_finite(spec):
    group, table, reps = _tables_for(spec)
    for sigma in range(len(reps)):
        tab = conjugation_decomposition(group, reps, table, sigma)
        for alpha in range(len(reps)):
            assert triple_product_residual(group, reps, tab, alpha) < 1e-10


# ---------------------------------------------------------------------------
# SU(2): Clebsch-Gordan and coupling tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j1_2,j2_2", [(1, 1), (2, 2), (1, 2), (3, 3), (4, 2), (3, 4)])
def test_clebsch_gordan_against_ladder_oracle(j1_2, j2_2):
    ladder = oracle_cg_ladder(j1_2, j2_2)
    for j_2, expected in ladder.items():
        got = clebsch_gordan(j1_2, j2_2, j_2)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_clebsch_gordan_unitarity_and_selection():
    blocks = [clebsch_gordan(2, 2, j_2) for j_2 in (0, 2, 4)]
    stacked = np.concatenate([b.reshape(9, -1) for b in blocks], axis=1)
    assert np.max(np.abs(stacked @ stacked.T - np.eye(9))) < 1e-12
    assert np.max(np.abs(clebsch_gordan(1, 1, 1))) == 0  # parity-forbidden
    assert np.max(np.abs(clebsch_gordan(1, 1, 6))) == 0  # triangle-forbidden


@pytest.mark.parametrize("j1_2,j2_2", [(MAX_J2, 1), (MAX_J2, 8), (40, 40)])
def test_clebsch_gordan_orthogonality_up_to_max_spin(j1_2, j2_2):
    # the coefficients of all J form an orthogonal (d1 d2) x (d1 d2) matrix;
    # at these spins the factorials overflow a float by hundreds of orders
    blocks = [
        clebsch_gordan(j1_2, j2_2, j_2).reshape((j1_2 + 1) * (j2_2 + 1), -1)
        for j_2 in range(abs(j1_2 - j2_2), j1_2 + j2_2 + 1, 2)
    ]
    u = np.concatenate(blocks, axis=1)
    assert u.shape[0] == u.shape[1]
    assert np.max(np.abs(u.T @ u - np.eye(u.shape[0]))) < 1e-12


def test_spin_half_coupling_values():
    # the trivial component of L(V^1/2) is the normalized identity; the spin-1
    # copy is the (suitably phased) Pauli triple scaled by 1/sqrt(2)
    tab = su2_coupling_table(1)
    assert tab.gammas == [0, 2]
    singlet = tab.basis[0][0, 0]
    assert np.max(np.abs(singlet - np.eye(2) / np.sqrt(2))) < 1e-12
    triplet = tab.basis[2][0]
    for mat in triplet:
        assert abs(np.linalg.norm(mat) - 1) < 1e-12
        assert abs(np.trace(mat)) < 1e-12  # orthogonal to the identity
    # m = 0 member is proportional to sigma_3
    assert np.max(np.abs(np.abs(triplet[1]) - np.abs(np.diag([1, 1])) / np.sqrt(2))) < 1e-12
    assert abs(triplet[1][0, 1]) < 1e-12 and abs(triplet[1][1, 0]) < 1e-12


@pytest.mark.parametrize("sigma2", [1, 2, 3, 4])
def test_su2_coupling_invariants(sigma2):
    tab = su2_coupling_table(sigma2)
    assert tab.gammas == list(range(0, 2 * sigma2 + 1, 2))
    assert tab.unitarity_residual() < 1e-12
    assert tab.reconstruction_residual() < 1e-12
    g = haar_random(RNG, 1)[0]
    d_sigma = WignerD(sigma2)(g)
    for j_2 in tab.gammas:
        d_j = WignerD(j_2)(g)
        lhs = np.einsum("ab,mnbc,dc->mnad", d_sigma, tab.basis[j_2], d_sigma.conj())
        rhs = np.einsum("qn,mqad->mnad", d_j, tab.basis[j_2])
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("sigma2", [1, 2, 3, 4])
def test_product_expansion_su2_haar_samples(sigma2):
    tab = su2_coupling_table(sigma2)
    elements = haar_random(np.random.default_rng(77), 50)
    assert product_expansion_residual_su2(tab, elements) < 1e-9


@pytest.mark.parametrize("sigma2", [1, 2, 3, 4])
def test_triple_product_su2(sigma2):
    tab = su2_coupling_table(sigma2)
    for alpha2 in tab.gammas:
        band = (alpha2 + 2 * sigma2) // 2 + 2
        angles, weights = su2_haar_quadrature(2 * band + 3, band + 2, 4 * band + 6)
        assert triple_product_residual_su2(tab, alpha2, angles, weights) < 1e-9
    # a component not present in L(V^sigma) integrates to zero
    band = (6 + 2 * sigma2) // 2 + 2
    angles, weights = su2_haar_quadrature(2 * band + 3, band + 2, 4 * band + 6)
    assert triple_product_residual_su2(tab, 2 * sigma2 + 2, angles, weights) < 1e-9


# ---------------------------------------------------------------------------
# Z0-fixed bases and Frobenius reciprocity
# ---------------------------------------------------------------------------


def test_z_fixed_basis_trivial_irrep():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    zb = z_fixed_basis(0, reps[0].matrices, cls.centralizer)
    assert zb.m_alpha == 1


def test_z_fixed_basis_s3_standard():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]  # g0 = (1 2), Z0 = {e, (1 2)}
    zb = z_fixed_basis(2, reps[2].matrices, cls.centralizer)
    assert zb.m_alpha == 1
    w = zb.basis
    assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-12
    for h in cls.centralizer:
        # first column fixed, complement invariant
        assert np.max(np.abs(reps[2].matrices[h] @ w[:, 0] - w[:, 0])) < 1e-12
        image = reps[2].matrices[h] @ w[:, 1]
        assert abs(w[:, 0].conj() @ image) < 1e-12


def test_su2_z_fixed_basis():
    zb = su2_z_fixed_basis(4)
    assert zb.m_alpha == 1
    assert zb.basis[:, 0].tolist() == [0, 0, 1, 0, 0]  # m = 0 vector first
    assert su2_z_fixed_basis(3).m_alpha == 0


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_adapted_irreps_have_leading_fixed_columns(spec):
    group, table, reps = _tables_for(spec)
    for cls in conjugacy_classes(group):
        adapted, m_alphas = adapt_irreps_to_class(reps, cls)
        for rep, m_alpha in zip(adapted, m_alphas):
            if m_alpha == 0:
                continue
            for h in cls.centralizer:
                block = rep.matrices[h][:, :m_alpha]
                target = np.eye(rep.dim)[:, :m_alpha]
                assert np.max(np.abs(block - target)) < 1e-11


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_frobenius_reciprocity_exact(spec):
    group, table, reps = _tables_for(spec)
    for cls in conjugacy_classes(group):
        rows = frobenius_multiplicity_check(group, cls, reps, table)
        for row in rows:
            assert row.equal, (spec, cls.base_element, row)
        # the coset count is recovered: sum_alpha m^alpha n^alpha = |C0|
        assert sum(r.fixed_dim * reps[r.alpha].dim for r in rows) == cls.size


def test_frobenius_identity_class():
    group, table, reps = _tables_for("S4")
    rows = frobenius_multiplicity_check(group, conjugacy_classes(group)[0], reps, table)
    assert [r.fixed_dim for r in rows] == [1, 0, 0, 0, 0]


def test_frobenius_s3_transpositions():
    group, table, reps = _tables_for("S3")
    rows = frobenius_multiplicity_check(group, conjugacy_classes(group)[1], reps, table)
    assert [r.fixed_dim for r in rows] == [1, 0, 1]
    assert [r.induced_multiplicity for r in rows] == [1, 0, 1]


# ---------------------------------------------------------------------------
# Wigner-Eckart
# ---------------------------------------------------------------------------


def _full_wigner_eckart(spec, class_index, match_tol=1e-9, sparse_tol=1e-10):
    group, table, reps = _tables_for(spec)
    cls = conjugacy_classes(group)[class_index]
    g0 = cls.base_element
    adapted, m_alphas = adapt_irreps_to_class(reps, cls)
    tables = {s: conjugation_decomposition(group, adapted, table, s) for s in range(len(reps))}
    checked = 0
    for alpha in range(len(reps)):
        for k in range(reps[alpha].dim):
            for l in range(m_alphas[alpha]):
                brute = wigner_eckart_bruteforce(group, adapted, alpha, k, l, g0)
                for sigma in range(len(reps)):
                    pred, _ = wigner_eckart_matrix(
                        tables[sigma], alpha, reps[alpha].dim, range(m_alphas[alpha]),
                        k, l, adapted[sigma].matrices[g0], g0=g0,
                    )
                    d = reps[sigma].dim
                    expected = np.einsum("jv,ui->ijuv", np.eye(d), pred)
                    assert np.max(np.abs(brute[(sigma, sigma)] - expected)) < match_tol
                    off = brute[(sigma, sigma)] * (1.0 - np.eye(d))[None, :, None, :]
                    assert np.max(np.abs(off)) < sparse_tol
                    for gamma in range(len(reps)):
                        if gamma != sigma:
                            assert np.max(np.abs(brute[(sigma, gamma)])) < sparse_tol
                    checked += 1
    return checked


def test_wigner_eckart_s3_both_nontrivial_classes():
    assert _full_wigner_eckart("S3", 1) == 9
    assert _full_wigner_eckart("S3", 2) == 6


def test_wigner_eckart_d4():
    assert _full_wigner_eckart("D4", 1) > 0


def test_wigner_eckart_trivial_alpha_is_class_operator_eigenvalue():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    adapted, m_alphas = adapt_irreps_to_class(reps, cls)
    for sigma in range(3):
        tab = conjugation_decomposition(group, adapted, table, sigma)
        pred, rmes = wigner_eckart_matrix(
            tab, 0, 1, [0], 0, 0, adapted[sigma].matrices[cls.base_element], g0=cls.base_element
        )
        expected = (table.values[sigma, 1] / table.dims[sigma]) * np.eye(reps[sigma].dim)
        assert np.max(np.abs(pred - expected)) < 1e-10
        assert len(rmes) == 1


def test_wigner_eckart_rejects_unfixed_column():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    adapted, m_alphas = adapt_irreps_to_class(reps, cls)
    tab = conjugation_decomposition(group, adapted, table, 2)
    with pytest.raises(ValueError, match="not Z0-fixed"):
        wigner_eckart_matrix(tab, 2, 2, range(1), 0, 1, adapted[2].matrices[cls.base_element])


def test_reduced_matrix_elements_structure():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    g0 = cls.base_element
    adapted, m_alphas = adapt_irreps_to_class(reps, cls)
    tab = conjugation_decomposition(group, adapted, table, 2)
    rmes = reduced_matrix_elements(tab, 2, 2, 0, adapted[2].matrices[g0], g0=g0)
    assert len(rmes) == 1  # multiplicity of the standard in L(V^std) is 1
    assert rmes[0].alpha == 2 and rmes[0].sigma == 2 and rmes[0].g0 == g0
    # absent component gives no reduced elements
    assert reduced_matrix_elements(tab, 99, 1, 0, adapted[2].matrices[g0]) == []
    # base-point well-definedness: any h in Z0 leaves g0, hence the values, unchanged
    for h in cls.centralizer:
        conj_g0 = group.conjugate(g0, h)
        assert conj_g0 == g0
        again = reduced_matrix_elements(tab, 2, 2, 0, adapted[2].matrices[conj_g0], g0=conj_g0)
        assert abs(again[0].value - rmes[0].value) == 0


def test_wigner_eckart_su2_vs_quadrature():
    quad = SphereQuadrature.build(24, 48)
    for sigma2 in [1, 2, 3]:
        tab = su2_coupling_table(sigma2)
        for psi in [0.7, np.pi / 2]:
            t_sigma_g0 = WignerD(sigma2).euler(0.0, 0.0, psi)
            for alpha2 in tab.gammas:
                col = fixed_column_index(alpha2)
                for k in range(alpha2 + 1):
                    pred, _ = wigner_eckart_matrix(
                        tab, alpha2, alpha2 + 1, [col], k, col, t_sigma_g0
                    )
                    quadr = weighted_class_operator_su2(sigma2, psi, [(alpha2, k, 1.0)], quad)
                    assert np.max(np.abs(pred - quadr)) < 1e-8


def test_su2_spin_half_weight_matches_prediction():
    # j = 1/2 with an l = 1 matrix-element weight: the smallest nonscalar case
    quad = SphereQuadrature.build(24, 48)
    psi = 2 * np.pi / 3
    tab = su2_coupling_table(1)
    t_half_g0 = WignerD(1).euler(0.0, 0.0, psi)
    for k in range(3):
        pred, _ = wigner_eckart_matrix(tab, 2, 3, [1], k, 1, t_half_g0)
        quadr = weighted_class_operator_su2(1, psi, [(2, k, 1.0)], quad)
        assert np.max(np.abs(pred - quadr)) < 1e-10


# ---------------------------------------------------------------------------
# tensor-operator scan
# ---------------------------------------------------------------------------


def test_scan_regular_representation_never_vanishes():
    for spec, class_index in [("S3", 1), ("S4", 1), ("S4", 3)]:
        group, table, reps = _tables_for(spec)
        cls = conjugacy_classes(group)[class_index]
        adapted, m_alphas = adapt_irreps_to_class(reps, cls)
        for lam in (regular_representation(group), None):
            rows = tensor_operator_scan(group, lam, cls.base_element, adapted, m_alphas)
            assert rows and not any(r.vanishes for r in rows)
            assert {r.alpha for r in rows} == {a for a, m in enumerate(m_alphas) if m > 0}


def test_scan_sign_representation_kills_standard_family():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    adapted, m_alphas = adapt_irreps_to_class(reps, cls)
    sign_rep = adapted[1].matrices  # one-dimensional
    rows = tensor_operator_scan(group, sign_rep, cls.base_element, adapted, m_alphas)
    by_alpha = {r.alpha: r for r in rows}
    assert by_alpha[2].vanishes        # 2-dim family cannot fit in a 1-dim operator space
    assert not by_alpha[0].vanishes    # class operator itself survives (chi(g0) != 0)


def test_scan_trivial_alpha_never_vanishes_for_regular():
    group, table, reps = _tables_for("Q8")
    lam = regular_representation(group)
    for cls in conjugacy_classes(group):
        adapted, m_alphas = adapt_irreps_to_class(reps, cls)
        rows = tensor_operator_scan(group, lam, cls.base_element, adapted, m_alphas)
        trivial_rows = [r for r in rows if r.alpha == 0]
        assert trivial_rows and not trivial_rows[0].vanishes
