"""Character tables, irreps, projectors and matrix-element functions."""

import json

import numpy as np
import pytest

import classops.cli
from classops import groups, representations
from classops.cli import main
from classops.coupling import _orthonormal_range
from classops.groups import build_group, conjugacy_classes, group_from_table, left_regular_matrix
from classops.representations import (
    CharacterTable,
    _canonical_row_order,
    _class_combination,
    _class_quotients,
    _dihedral_images,
    _one_dim_irrep,
    _kill_dust,
    _yor_adjacent_matrices,
    character_table,
    irreps,
    isotypic_projector,
    schur_defect,
)
from classops.serialize import load_group_file
from helpers import (
    CATALOG_LEQ_24,
    averaged_intertwiner,
    binary_icosahedral_group,
    group_mul,
    label_perms,
    oracle_canonical_row_order,
    oracle_character_table,
    oracle_class_constants,
    oracle_one_dim_irrep,
    oracle_orthonormal_range,
    oracle_regular_extraction,
    oracle_schur_defect,
    oracle_symmetric_irreps,
    oracle_yor_adjacent_matrices,
    regular_representation,
    spin_character,
    unitarize,
)

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


@pytest.mark.parametrize("spec", ["C60", "D30", "D60", "S5"])
def test_larger_tables_match_regular_commutant_oracle(spec):
    group = build_group(spec)
    table = character_table(group)
    values, dims = oracle_character_table(group)
    assert dims.tolist() == table.dims.tolist()
    assert np.max(np.abs(values - table.values)) < 1e-10


@pytest.mark.parametrize("spec", CATALOG_LEQ_24 + [
    "S5", "D30", "D60", "C150", ["(1 2 3)", "(1 2 3 4 5)"], ["(1 2)", "(1 2 3 4 5 6)"],
], ids=CATALOG_LEQ_24 + ["S5", "D30", "D60", "C150", "A5-generators", "S6-generators"])
def test_identity_column_is_the_dims_exactly(spec):
    group = build_group(spec if isinstance(spec, str) else {"generators": spec})
    table = character_table(group)
    assert table.classes[0].base_element == 0
    assert np.array_equal(table.values[:, 0].real, table.dims)
    assert np.array_equal(table.values[:, 0].imag, np.zeros(len(table.dims)))


def test_c600_table_matches_the_dual_group():
    # chi_j(r^e) = exp(2 pi i j e / n); each row is identified by its value on r
    n = 600
    group = build_group(f"C{n}")
    table = character_table(group)
    perms = label_perms(group)
    exponents = np.array([perms[c.base_element][0] for c in table.classes])
    generator = int(np.flatnonzero(exponents == 1)[0])
    j = np.rint(np.angle(table.values[:, generator]) * n / (2 * np.pi)).astype(int) % n
    assert np.array_equal(np.sort(j), np.arange(n))
    exact = np.exp(2j * np.pi * np.outer(j, exponents) / n)
    assert np.max(np.abs(table.values - exact)) < 1e-10


@pytest.mark.parametrize("spec", ["S5", "D30"])
def test_class_sums_match_dense_class_constants(spec):
    group = build_group(spec)
    classes = conjugacy_classes(group)
    k = len(classes)
    a = oracle_class_constants(group)
    class_of, quotient = _class_quotients(group, classes)
    # integer weights keep every sum exact, so both routes agree bit for bit
    rng = np.random.default_rng(3)
    coeff = rng.integers(-9, 10, k) + 1j * rng.integers(-9, 10, k)
    assert np.array_equal(_class_combination(class_of, quotient, coeff), np.tensordot(coeff, a, axes=1))
    # general weights: the sums run in another order, within a few ulp of |G|
    coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    combo = _class_combination(class_of, quotient, coeff)
    assert np.max(np.abs(combo - np.tensordot(coeff, a, axes=1))) < 1e-13 * group.order


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_irreps_full_checks(spec):
    group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    assert [r.dim for r in reps] == table.dims.tolist()
    bases = [c.base_element for c in table.classes]
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
        assert np.max(np.abs(np.trace(mats[bases], axis1=1, axis2=2) - table.values[alpha])) < 1e-10


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
            assert np.max(np.abs(mats[a] @ mats[b] - mats[group_mul(group, a, b)])) < 1e-11


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
    rot_index = group.element_index("(1 2 3 4)")
    two_dim = next(r for r in reps if r.dim == 2)
    mat = two_dim.matrices[rot_index]
    # unitary rotation of order 4 with trace 0 and det 1: a 90-degree rotation
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12
    assert abs(np.trace(mat)) < 1e-12
    assert abs(np.linalg.det(mat) - 1) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(mat, 4) - np.eye(2))) < 1e-12


def _no_regular_extraction(*args, **kwargs):
    raise AssertionError("a catalog irrep fell back to the generic extraction from the group algebra")


def _no_eigh(*args, **kwargs):
    raise AssertionError("a catalog group reached an eigensolve")


@pytest.mark.parametrize("spec", [f"S{n}" for n in range(1, 6)] + [f"D{n}" for n in range(1, 13)] + [
    "D15", "D20", "Q8", "C1", "C2", "C12", "C150",
])
def test_catalog_irreps_never_reach_the_regular_extraction(spec, monkeypatch):
    # catalog tables and irreps come from the generator images alone: no Dixon
    # eigensolve, no vector spun in the regular representation
    monkeypatch.setattr(representations, "_spun_images", _no_regular_extraction)
    monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
    group = build_group(spec)
    table = character_table(group)
    assert [r.dim for r in irreps(group, table)] == table.dims.tolist()


@pytest.mark.parametrize("spec", ["S3", "S4", "S5"])
def test_symmetric_irreps_match_young_form_element_by_element(spec):
    group = build_group(spec)
    expected = oracle_symmetric_irreps(group)
    for rep in (r for r in irreps(group) if r.dim > 1):
        assert np.all(rep.matrices.imag == 0)
        assert min(np.max(np.abs(rep.matrices - mats)) for mats in expected if mats.shape == rep.matrices.shape) < 1e-14


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_images_give_one_candidate_per_two_dim_irrep(n):
    assert len(_dihedral_images(n)) == (n - 1) // 2


@pytest.mark.parametrize("gens,order", [
    (["(1 2)", "(1 2 3)"], 6),           # S3 without the catalog tag
    (["(1 2 3 4)", "(2 4)"], 8),         # D4 without the catalog tag
    (["(1 2 3)", "(1 2)(3 4)"], 12),     # A4: one spun 3-dim irrep
    (["(1 2 3)", "(1 2 3 4 5)"], 60),    # A5: spun 3-, 4- and 5-dim irreps
])
def test_generic_fallback_irreps(gens, order):
    group = build_group({"generators": gens})
    assert group.family is None and group.order == order
    table = character_table(group)
    reps = irreps(group, table)
    bases = [c.base_element for c in table.classes]
    for alpha, rep in enumerate(reps):
        mats = rep.matrices
        assert np.max(np.abs(
            np.einsum("gij,gkj->gik", mats, mats.conj()) - np.eye(rep.dim)
        )) < 1e-12
        products = np.einsum("aij,bjk->abik", mats, mats)
        assert np.max(np.abs(products - mats[group.mult_table])) < 1e-11
        assert schur_defect(mats, seed=alpha) < 1e-10
        assert np.max(np.abs(np.trace(mats[bases], axis1=1, axis2=2) - table.values[alpha])) < 1e-8


def test_projectors():
    group = build_group("S4")
    table = character_table(group)
    lam = regular_representation(group)
    total = np.zeros((group.order, group.order), dtype=complex)
    projectors = []
    for alpha in range(len(table.dims)):
        p = left_regular_matrix(group, isotypic_projector(group, table, alpha))
        projectors.append(p)
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.conj().T)) < 1e-11
        assert int(round(np.trace(p).real)) == table.dims[alpha] ** 2
        for g in [1, 5, 11]:
            assert np.max(np.abs(lam[g] @ p - p @ lam[g])) < 1e-11
        # restriction of left translation carries an n^alpha-fold multiple:
        # trace over the range is n^alpha chi^alpha(g)
        chi = table.element_values(alpha)
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
        p1 = left_regular_matrix(group, isotypic_projector(group, table, alpha))
        # the projector summed over the regular stack, (n^alpha/|G|) sum_g conj(chi(g)) lambda(g)
        chi = table.element_values(alpha)
        p2 = table.dims[alpha] / group.order * np.einsum("g,gxy->xy", chi.conj(), lam)
        assert np.max(np.abs(p1 - p2)) < 1e-12
    with pytest.raises(KeyError):
        isotypic_projector(group, table, 7)


def test_trivial_projector_is_averaging():
    group = build_group("Q8")
    table = character_table(group)
    p = left_regular_matrix(group, isotypic_projector(group, table, 0))
    assert np.max(np.abs(p - np.full((8, 8), 1 / 8))) < 1e-12


def test_matrix_element_functions():
    group = build_group("S3")
    table = character_table(group)
    reps = irreps(group, table)
    # the functions g -> conj(t_ij(g)), orthonormal after scaling by sqrt(n^alpha)
    assert np.allclose(reps[0].matrices.conj().transpose(1, 2, 0)[0, 0], 1.0)
    funcs = reps[2].matrices.conj().transpose(1, 2, 0)
    p = left_regular_matrix(group, isotypic_projector(group, table, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    ip = funcs[i, j] @ funcs[k, l].conj() / group.order
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


@pytest.mark.parametrize("spec", [
    "S4", "S5", "D30", "C150", "C300", ["(1 2)", "(1 2 3 4 5 6)"],
], ids=["S4", "S5", "D30", "C150", "C300", "S6-generators"])
def test_canonical_row_order_matches_rounded_tuple_key(spec):
    table = character_table(build_group(spec))
    rng = np.random.default_rng(11)
    shuffled = rng.permutation(len(table.dims))
    values, dims = table.values[shuffled], table.dims[shuffled]
    order = _canonical_row_order(values, dims)
    assert np.array_equal(order, oracle_canonical_row_order(values, dims))
    assert np.array_equal(values[order], table.values)


def _cyclic_table_group(n):
    """C_n as a ``{"table": ...}`` group: no catalog family, greedy generators."""
    return build_group({"table": ((np.arange(n)[:, None] + np.arange(n)) % n).tolist()})


@pytest.mark.parametrize("spec", ["C60", "C150", "D60", "S5", "Q8", "D2", "A4-file", "S5-file", "C90-table", "2I"])
def test_one_dim_irreps_match_scalar_snapping_bit_for_bit(spec, tmp_path):
    # every group's 1-dim irreps are its table rows snapped once per class
    if spec == "2I":
        group, _ = binary_icosahedral_group()
    elif spec == "C90-table":
        group = _cyclic_table_group(90)
    elif spec.endswith("-file"):
        group = _generic_group(spec[:-5], tmp_path)
    else:
        group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    one = np.flatnonzero(table.dims == 1)
    snapped = _one_dim_irrep(group, table, one)
    for alpha, values in zip(one, snapped):
        expected = oracle_one_dim_irrep(group, table.values[alpha], table.class_of)
        assert np.array_equal(values, expected)
        assert np.array_equal(reps[alpha].matrices, expected)


def _one_dim_value_moved(table, group, row, col, value):
    values = table.values.copy()
    assert not set(group.generators) & set(table.classes[col].members)
    values[row, col] = value
    return CharacterTable(table.classes, values, table.dims, table.class_of)


def test_a_one_dim_row_that_is_no_homomorphism_is_refused(tmp_path):
    # each table moves one 1-dim value, at a class holding no generator, to another
    # root of unity of that class's order: the snap keeps it, the Cayley edges do not
    group = _generic_group("A4", tmp_path)
    table = character_table(group)
    col = int(np.flatnonzero(np.array([c.size for c in table.classes]) == 3)[0])   # (1 2)(3 4)
    assert abs(table.values[0, col] - 1) < 1e-12
    with pytest.raises(ArithmeticError, match="not homomorphisms"):
        irreps(group, _one_dim_value_moved(table, group, 0, col, -1.0))
    group = _cyclic_table_group(6)
    table = character_table(group)
    assert group.generators == [1]
    col = int(table.class_of[2])
    row = int(np.flatnonzero(np.abs(table.values[:, col].imag) > 0.5)[0])   # a cube root of unity at 2
    with pytest.raises(ArithmeticError, match="not homomorphisms"):
        irreps(group, _one_dim_value_moved(table, group, row, col, table.values[row, col].conjugate()))


@pytest.mark.parametrize("gens", [["(1 2 3)", "(1 2 3 4 5)"], ["(1 2)", "(1 2 3 4 5)"]], ids=["A5", "S5"])
def test_generic_irreps_stable_under_table_round_off(gens):
    group = build_group({"generators": gens})
    table = character_table(group)
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(table.values.shape) + 1j * rng.standard_normal(table.values.shape)
    perturbed = CharacterTable(table.classes, table.values + 1e-15 * noise, table.dims, table.class_of)
    before, after = irreps(group, table), irreps(group, perturbed)
    assert any(rep.dim > 1 for rep in before)
    for a, b in zip(before, after):
        assert np.max(np.abs(a.matrices - b.matrices)) < 1e-12


def test_orthonormal_range_takes_the_lowest_of_tied_columns():
    # columns 0 and 1 have equal norm; a 1e-15 push must not promote column 1
    proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
    pushed = proj.copy()
    pushed[1, 1] += 1e-15
    for p in (proj, pushed):
        assert np.max(np.abs(_orthonormal_range(p, 2) - np.eye(3)[:, :2])) < 1e-12
    # a projector whose columns are all translates of one vector: every norm ties
    group = build_group("S4")
    table = character_table(group)
    p = left_regular_matrix(group, isotypic_projector(group, table, 3))
    basis = _orthonormal_range(p, 9)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(9))) < 1e-12
    assert np.max(np.abs(p @ basis - basis)) < 1e-12
    first = p[:, 0] / np.linalg.norm(p[:, 0])
    assert np.max(np.abs(basis[:, 0] - first * abs(first[0]) / first[0])) < 1e-12
    rng = np.random.default_rng(4)
    noise = 1e-15 * (rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape))
    assert np.max(np.abs(_orthonormal_range(p + noise, 9) - basis)) < 1e-12
    # a stack with mixed ranks: each matrix keeps its own rank, pivots and ties
    # as alone, and its columns beyond its rank are zero
    tied = np.diag([0.0, 1.0, 1.0]).astype(complex)   # columns 1 and 2 tie
    small = [(proj, 2), (pushed, 2), (tied, 1), (tied, 2), (np.eye(3), 3), (np.zeros((3, 3)), 0)]
    got = _orthonormal_range(np.array([a for a, _ in small]), [rank for _, rank in small])
    assert got.shape == (6, 3, 3)
    for basis_k, (a, rank) in zip(got, small):
        assert np.max(np.abs(basis_k[:, :rank] - oracle_orthonormal_range(a, rank)), initial=0.0) < 1e-12
        assert not basis_k[:, rank:].any()
    assert np.max(np.abs(got[2][:, 0] - [0, 1, 0])) < 1e-12   # the lower of the tied columns
    big = _orthonormal_range(np.array([p, p + noise, p]), np.array([9, 9, 4]))
    assert np.max(np.abs(big[:2] - basis)) < 1e-12
    assert np.max(np.abs(big[2][:, :4] - basis[:, :4])) < 1e-12 and not big[2][:, 4:].any()


@pytest.mark.parametrize("spec", ["D20", "S5", "Q8", "A5"])
def test_schur_defect_matches_the_element_by_element_average(spec, monkeypatch):
    if spec == "A5":
        group = build_group({"generators": ["(1 2 3)", "(1 2 3 4 5)"], "name": "A5"})
    else:
        group = build_group(spec)
    reps = irreps(group)
    blocks = [np.stack([r.matrices for r in reps if r.dim == d]) for d in sorted({r.dim for r in reps}) if d > 1]
    reducible = np.stack([np.kron(reps[-1].matrices[g], np.eye(2)) for g in range(group.order)])
    for stack, seed in [(b, 3) for b in blocks] + [(reducible, 0)]:
        want = oracle_schur_defect(stack, seed=seed)
        assert abs(schur_defect(stack, seed=seed) - want) < 1e-12
        monkeypatch.setattr("classops.groups._CHUNK_ENTRIES", 1)   # one element per chunk
        assert abs(schur_defect(stack, seed=seed) - want) < 1e-12
        monkeypatch.undo()
    assert oracle_schur_defect(reducible) > 1e-3


# -- catalog tables read off the generator images -----------------------------


@pytest.mark.parametrize("spec", CATALOG_LEQ_24 + ["S1", "S2", "D1", "D2", "S5", "C150", "D60"])
def test_catalog_table_matches_dixon_on_the_same_multiplication_table(spec):
    group = build_group(spec)
    table = character_table(group)
    dixon = character_table(group_from_table(group.mult_table))
    assert table.catalog is not None and dixon.catalog is None
    # the same rows in the same order, within the Dixon route's round-off
    assert table.dims.tolist() == dixon.dims.tolist()
    assert np.max(np.abs(table.values - dixon.values)) < 1e-10


@pytest.mark.parametrize("spec", ["S3", "S4", "S5", "D12", "Q8", "C150"])
def test_catalog_rows_are_the_irreps_at_the_class_bases(spec):
    # above dimension 1 the table walks the words of the class bases only, irreps
    # every word: the same products, bit for bit, before the table's dust below
    # 1e-12 is zeroed; a 1-dim row is exp(2 pi i t / modulus), and its irrep is
    # snapped through the element order, within an ulp of it
    group = build_group(spec)
    table = character_table(group)
    bases = [c.base_element for c in table.classes]
    for alpha, rep in enumerate(irreps(group, table)):
        traces = _kill_dust(np.trace(rep.matrices[bases], axis1=1, axis2=2))
        if rep.dim > 1:
            assert np.array_equal(traces, table.values[alpha])
        else:
            assert np.max(np.abs(traces - table.values[alpha])) < 1e-15


@pytest.mark.parametrize("n", range(2, 8))
def test_young_form_matches_the_tableau_scan_bit_for_bit(n):
    for shape in representations._partitions(n):
        mats, dim = _yor_adjacent_matrices(shape)
        expected, expected_dim = oracle_yor_adjacent_matrices(shape)
        assert dim == expected_dim and np.array_equal(mats, expected)


def _young_off_by_a_millionth(shape, entry, monkeypatch):
    """Scale one entry of Young's form for ``shape`` by 1 + 1e-6."""
    def scaled(s):
        mats, dim = _yor_adjacent_matrices(s)
        if s == shape:
            mats = mats.copy()
            mats[entry] *= 1 + 1e-6
        return mats, dim

    monkeypatch.setattr(representations, "_yor_adjacent_matrices", scaled)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_young_entry_off_by_a_millionth_is_refused(n, monkeypatch):
    # S4 and S5 refuse in the table (a character moves by about 1e-6); in S3 an
    # off-diagonal entry of s_2 leaves every character at the class bases as it
    # is, and the irreps refuse it, off the words of the Cayley graph
    group = build_group(f"S{n}")
    for shape in [s for s in representations._partitions(n) if 1 < s[0] < n]:
        for entry in zip(*np.nonzero(_yor_adjacent_matrices(shape)[0])):
            _young_off_by_a_millionth(shape, entry, monkeypatch)
            with pytest.raises(ArithmeticError):
                character_table(group) if n > 3 else irreps(group)


def test_a_refused_young_entry_exits_2(monkeypatch, capsys):
    _young_off_by_a_millionth((3, 1), (0, 0, 0), monkeypatch)
    assert main(["finite-verify", "--group", "S4"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ArithmeticError"


# -- generic irreps spun from one vector of the group algebra -------------------

GENERATOR_FILES = {
    "A4": ["(1 2 3)", "(2 3 4)"],
    "S4": ["(1 2)", "(1 2 3 4)"],
    "A5": ["(1 2 3)", "(1 2 3 4 5)"],
    "S5": ["(1 2)", "(1 2 3 4 5)"],
    "D60": ["(" + " ".join(str(p) for p in range(1, 61)) + ")", "".join(f"({i} {62 - i})" for i in range(2, 31))],
    "S6g": ["(1 2)", "(1 2 3 4 5 6)"],
}


def _generic_group(spec, tmp_path):
    """A ``file:`` group document of generators, or the A5 table as a ``{"table": ...}`` document."""
    if spec == "A5-table":
        doc = {"table": build_group({"generators": GENERATOR_FILES["A5"]}).mult_table.tolist()}
    else:
        doc = {"generators": GENERATOR_FILES[spec], "name": spec}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    group = load_group_file(str(path))
    assert group.family is None
    return group


@pytest.mark.parametrize("spec", list(GENERATOR_FILES) + ["A5-table"])
def test_spun_irreps_are_unitarily_equivalent_to_the_regular_extraction(spec, tmp_path):
    group = _generic_group(spec, tmp_path)
    table = character_table(group)
    reps = irreps(group, table)
    for alpha in np.flatnonzero(table.dims > 1).tolist():
        new, old = reps[alpha].matrices, oracle_regular_extraction(group, table, alpha)
        assert np.max(np.abs(np.trace(new, axis1=1, axis2=2) - np.trace(old, axis1=1, axis2=2))) < 1e-10
        t = averaged_intertwiner(new, old, seed=alpha)
        scale = np.trace(t @ t.conj().T).real / reps[alpha].dim
        assert scale > 1e-12   # far above the round-off of an intertwiner between inequivalent irreps
        assert np.max(np.abs(t @ t.conj().T / scale - np.eye(reps[alpha].dim))) < 1e-10
        assert np.max(np.abs(new @ t - t @ old)) < 1e-10


@pytest.mark.parametrize("spec", ["A5", "S6g", "A5-table"])
def test_the_generic_route_never_builds_a_left_regular_matrix(spec, tmp_path, monkeypatch):
    def refuse(group, phi):
        raise AssertionError("dense left regular matrix requested")

    for module in (classops, groups):
        monkeypatch.setattr(module, "left_regular_matrix", refuse)
    assert not hasattr(representations, "left_regular_matrix")
    group = _generic_group(spec, tmp_path)
    table = character_table(group)
    assert [r.dim for r in irreps(group, table)] == table.dims.tolist()


def test_binary_icosahedral_irreps_carry_the_spin_characters():
    # 2I is a table group with greedy generators; restricted to it, the spin-j
    # irreps of SU(2) stay irreducible up to 2j = 5, so each is one of its rows
    group, quats = binary_icosahedral_group()
    assert group.order == 120 and group.family is None and len(group.generators) == 5
    table = character_table(group)
    assert table.dims.tolist() == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    traces = np.array([np.trace(rep.matrices, axis1=1, axis2=2) for rep in irreps(group, table)])
    for j2 in range(6):
        chi = spin_character(j2, quats)
        deviation = np.min(np.max(np.abs(traces - chi), axis=1))
        assert deviation < 1e-12, (j2, deviation)


def _off_by_a_millionth(table):
    """The table with one character of a row above dimension 1, away from the
    identity class and nonzero, scaled by 1 + 1e-6."""
    values = table.values.copy()
    row = int(np.flatnonzero(table.dims > 1)[0])
    col = int(np.flatnonzero(np.abs(values[row, 1:]) > 0.5)[0]) + 1
    values[row, col] *= 1 + 1e-6
    return CharacterTable(table.classes, values, table.dims, table.class_of)


def test_a_generic_character_off_by_a_millionth_is_refused(tmp_path, monkeypatch, capsys):
    group = _generic_group("A5", tmp_path)
    with pytest.raises(ArithmeticError):
        irreps(group, _off_by_a_millionth(character_table(group)))
    exact = classops.cli.character_table
    monkeypatch.setattr(classops.cli, "character_table", lambda g, seed=42: _off_by_a_millionth(exact(g, seed)))
    out = tmp_path / "tables.json"
    assert main(["export-tables", "--group", f"file:{tmp_path / 'group.json'}", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and not out.exists()
    assert json.loads(lines[0])["error"] == "ArithmeticError"
