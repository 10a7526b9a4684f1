"""Character tables, irreps, projectors and matrix-element functions."""

import numpy as np
import pytest

from classops.groups import build_group, conjugacy_classes, inner_product
from classops.representations import (
    character_table,
    irreps,
    isotypic_projector,
    matrix_element_functions,
    schur_defect,
    unitarize,
)
from helpers import CATALOG_LEQ_24, oracle_character_table, regular_representation

S3_TABLE = np.array([[1, 1, 1], [1, -1, 1], [2, 0, -1]], dtype=complex)


def test_c2_table():
    table = character_table(build_group("C2"))
    assert np.allclose(table.values, [[1, 1], [1, -1]], atol=1e-12)


def test_s3_table_frozen():
    table = character_table(build_group("S3"))
    assert np.max(np.abs(table.values - S3_TABLE)) < 1e-10


def test_q8_table():
    table = character_table(build_group("Q8"))
    assert table.dims.tolist() == [1, 1, 1, 1, 2]
    # the 2-dim row: 2 at e, -2 on the central class, 0 elsewhere
    row = table.values[4]
    sizes = [c.size for c in table.classes]
    assert row[0] == pytest.approx(2)
    central = next(i for i, c in enumerate(table.classes) if c.size == 1 and c.base_element != 0)
    assert row[central] == pytest.approx(-2)
    assert all(abs(row[i]) < 1e-10 for i in range(5) if i not in (0, central))
    assert sum(sizes) == 8


@pytest.mark.parametrize("spec", CATALOG_LEQ_24 + ["S5"])
def test_table_orthogonality(spec):
    group = build_group(spec)
    table = character_table(group)
    k = len(table.classes)
    sizes = table.class_sizes
    gram = (table.values * sizes) @ table.values.conj().T / group.order
    assert np.max(np.abs(gram - np.eye(k))) < 1e-10
    col = table.values.conj().T @ table.values
    assert np.max(np.abs(col - np.diag(group.order / sizes))) < 1e-9
    assert int(np.sum(table.dims**2)) == group.order
    assert np.allclose(table.values[0], 1.0)


@pytest.mark.parametrize("spec", ["S3", "Q8", "D4", "S4", "C6"])
def test_table_matches_regular_commutant_oracle(spec):
    group = build_group(spec)
    table = character_table(group)
    values, dims = oracle_character_table(group)
    assert dims.tolist() == table.dims.tolist()
    assert np.max(np.abs(values - table.values)) < 1e-8


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_irreps_full_checks(spec):
    group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    assert [r.dim for r in reps] == table.dims.tolist()
    for alpha, rep in enumerate(reps):
        mats = rep.matrices
        assert np.max(np.abs(
            np.einsum("gij,gkj->gik", mats, mats.conj()) - np.eye(rep.dim)
        )) < 1e-12
        # homomorphism, exhaustive over all pairs
        products = np.einsum("aij,bjk->abik", mats, mats)
        assert np.max(np.abs(products - mats[group.mult_table])) < 1e-11
        # t(g^-1) = conj(t(g))^T
        assert np.max(np.abs(mats[group.inverse_table] - mats.conj().transpose(0, 2, 1))) < 1e-11
        assert schur_defect(mats, seed=alpha) < 1e-10
        assert np.max(np.abs(rep.character(table.classes) - table.values[alpha])) < 1e-10


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_schur_orthogonality(spec):
    group = build_group(spec)
    reps = irreps(group)
    for a, ra in enumerate(reps):
        for b, rb in enumerate(reps):
            ip = np.einsum("gij,gkl->ijkl", ra.matrices, rb.matrices.conj()) / group.order
            if a != b:
                assert np.max(np.abs(ip)) < 1e-10
            else:
                expected = np.einsum("ik,jl->ijkl", np.eye(ra.dim), np.eye(ra.dim)) / ra.dim
                assert np.max(np.abs(ip - expected)) < 1e-10


def test_s5_irreps():
    group = build_group("S5")
    table = character_table(group)
    reps = irreps(group, table)
    assert sorted(r.dim for r in reps) == [1, 1, 4, 4, 5, 5, 6]
    rng = np.random.default_rng(0)
    for rep in reps:
        mats = rep.matrices
        assert np.max(np.abs(
            np.einsum("gij,gkj->gik", mats, mats.conj()) - np.eye(rep.dim)
        )) < 1e-12
        for _ in range(200):
            a, b = rng.integers(0, group.order, size=2)
            assert np.max(np.abs(mats[a] @ mats[b] - mats[group.mul(a, b)])) < 1e-11


def test_c3_character_values():
    group = build_group("C3")
    reps = irreps(group)
    omega = np.exp(2j * np.pi / 3)
    one_dims = [r.matrices[:, 0, 0] for r in reps]
    generator_values = sorted(np.round(v[1], 9) for v in one_dims)
    assert generator_values == sorted(
        np.round(x, 9) for x in [1, omega, omega.conjugate()]
    )
    # conj(t)(g^k) is conj(omega^k) for the omega character
    chi = next(v for v in one_dims if abs(v[1] - omega) < 1e-12)
    for k in range(3):
        assert abs(np.conj(chi[k]) - np.conj(omega**k)) < 1e-12


def test_s3_standard_traces():
    group = build_group("S3")
    reps = irreps(group)
    std = reps[2]
    classes = conjugacy_classes(group)
    assert std.dim == 2
    traces = [np.trace(std.matrices[c.base_element]) for c in classes]
    assert np.allclose(traces, [2, 0, -1], atol=1e-12)


def test_d4_two_dim_rotation():
    group = build_group("D4")
    reps = irreps(group)
    rot_index = group.generator_indices[0]
    two_dim = next(r for r in reps if r.dim == 2)
    mat = two_dim.matrices[rot_index]
    # unitary rotation of order 4 with trace 0 and det 1: a 90-degree rotation
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
    assert abs(np.trace(mat)) < 1e-12
    assert abs(np.linalg.det(mat) - 1) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(mat, 4) - np.eye(2))) < 1e-12


@pytest.mark.parametrize("gens,order", [
    (["(1 2)", "(1 2 3)"], 6),           # S3 without the catalog tag
    (["(1 2 3 4)", "(2 4)"], 8),         # D4 without the catalog tag
    (["(1 2 3)", "(1 2)(3 4)"], 12),     # A4: generic 3-dim extraction
])
def test_generic_fallback_irreps(gens, order):
    group = build_group({"generators": gens})
    assert group.family is None and group.order == order
    table = character_table(group)
    reps = irreps(group, table)
    for alpha, rep in enumerate(reps):
        mats = rep.matrices
        assert np.max(np.abs(
            np.einsum("gij,gkj->gik", mats, mats.conj()) - np.eye(rep.dim)
        )) < 1e-12
        products = np.einsum("aij,bjk->abik", mats, mats)
        assert np.max(np.abs(products - mats[group.mult_table])) < 1e-11
        assert schur_defect(mats, seed=alpha) < 1e-10
        assert np.max(np.abs(rep.character(table.classes) - table.values[alpha])) < 1e-8


def test_projectors():
    group = build_group("S4")
    table = character_table(group)
    lam = regular_representation(group)
    total = np.zeros((group.order, group.order), dtype=complex)
    projectors = []
    for alpha in range(len(table.dims)):
        p = isotypic_projector(group, table, alpha).matrix
        projectors.append(p)
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.conj().T)) < 1e-11
        assert int(round(np.trace(p).real)) == table.dims[alpha] ** 2
        for g in [1, 5, 11]:
            assert np.max(np.abs(lam[g] @ p - p @ lam[g])) < 1e-11
        # restriction of left translation carries an n^alpha-fold multiple:
        # trace over the range is n^alpha chi^alpha(g)
        chi = table.element_values(group, alpha)
        for g in range(group.order):
            assert abs(np.trace(lam[g] @ p) - table.dims[alpha] * chi[g]) < 1e-9
        total += p
    assert np.max(np.abs(total - np.eye(group.order))) < 1e-10
    for a in range(len(projectors)):
        for b in range(len(projectors)):
            prod = projectors[a] @ projectors[b]
            expected = projectors[a] if a == b else 0
            assert np.max(np.abs(prod - expected)) < 1e-10


def test_projector_stack_argument_matches_default():
    group = build_group("S3")
    table = character_table(group)
    lam = regular_representation(group)
    for alpha in range(3):
        p1 = isotypic_projector(group, table, alpha).matrix
        p2 = isotypic_projector(group, table, alpha, lam).matrix
        assert np.max(np.abs(p1 - p2)) < 1e-12
    with pytest.raises(KeyError):
        isotypic_projector(group, table, 7)


def test_trivial_projector_is_averaging():
    group = build_group("Q8")
    table = character_table(group)
    p = isotypic_projector(group, table, 0).matrix
    assert np.max(np.abs(p - np.full((8, 8), 1 / 8))) < 1e-12


def test_matrix_element_functions():
    group = build_group("S3")
    table = character_table(group)
    reps = irreps(group, table)
    funcs, norm = matrix_element_functions(reps[0])
    assert norm == 1.0
    assert np.allclose(funcs[0, 0], 1.0)
    funcs, norm = matrix_element_functions(reps[2])
    assert norm == pytest.approx(np.sqrt(2))
    p = isotypic_projector(group, table, 2).matrix
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    ip = inner_product(group, funcs[i, j], funcs[k, l])
                    expected = 0.5 if (i, j) == (k, l) else 0.0
                    assert abs(ip - expected) < 1e-12
            # functions span the isotypic range
            assert np.max(np.abs(p @ funcs[i, j] - funcs[i, j])) < 1e-11


def test_unitarize_and_schur_defect():
    group = build_group("S3")
    reps = irreps(group)
    rng = np.random.default_rng(9)
    mats = reps[2].matrices.copy()
    s = np.eye(2) + 0.05 * rng.standard_normal((2, 2))
    noisy = np.einsum("ij,gjk,kl->gil", s, mats, np.linalg.inv(s))
    # conjugated rep is a homomorphism but not unitary; Weyl averaging restores it
    assert np.max(np.abs(np.einsum("gij,gkj->gik", noisy, noisy.conj()) - np.eye(2))) > 1e-3
    fixed = unitarize(noisy)
    assert np.max(np.abs(np.einsum("gij,gkj->gik", fixed, fixed.conj()) - np.eye(2))) < 1e-10
    # reducible representation has a large commutant defect
    reducible = np.array([np.kron(np.eye(2), m) for m in mats])
    assert schur_defect(reducible) > 1e-3


def test_canonical_row_ordering_deterministic():
    t1 = character_table(build_group("S4"))
    t2 = character_table(build_group("S4"))
    assert np.array_equal(t1.values, t2.values)
    assert t1.dims.tolist() == [1, 1, 2, 3, 3]
