"""Coupling tables, Frobenius reciprocity, and the Wigner-Eckart factorization."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from classops.groups import build_group, conjugacy_classes
from classops.representations import character_table, irreps
from classops.coupling import (
    adapt_irreps_to_class,
    clebsch_gordan,
    conjugation_decomposition,
    frobenius_multiplicity_check,
    product_expansion_residual_su2,
    rotate_coupling_table,
    su2_coupling_table,
    tensor_operator_scan,
    triple_product_residual_su2,
    _triple_sum_su2,
    wigner_eckart_bruteforce,
    wigner_eckart_matrix,
    z_fixed_bases,
)
from classops.coupling import _orthonormal_range
from classops.su2 import (
    MAX_J2,
    SphereQuadrature,
    WignerD,
    fixed_column_index,
    haar_random,
    su2_haar_quadrature,
    weighted_class_operator_su2,
)
from helpers import (
    CATALOG_LEQ_24,
    oracle_multiplicities,
    collect_bruteforce,
    dense_wigner_eckart_bruteforce,
    group_conjugate,
    oracle_cg_ladder,
    oracle_clebsch_gordan,
    oracle_conjugation_decomposition,
    oracle_conjugation_stack,
    oracle_rotate_coupling_table,
    oracle_tensor_operator_scan,
    oracle_triple_sum_su2,
    oracle_wigner_eckart_bruteforce,
    oracle_wigner_eckart_matrix,
    oracle_z_fixed_basis,
    product_expansion_residual,
    regular_representation,
    triple_product_residual,
    unitarity_residual,
)
from classops.serialize import load_group_file

RNG = np.random.default_rng(21)


def _tables_for(spec):
    group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    return group, table, reps


def _file_a5(tmp_path):
    """A5 read from a generator document: its irreps come from the generic extraction."""
    path = tmp_path / "a5.json"
    path.write_text('{"generators": ["(1 2 3)", "(1 2 3 4 5)"], "name": "A5"}')
    group = load_group_file(str(path))
    table = character_table(group)
    reps = irreps(group, table)
    return group, table, reps


# ---------------------------------------------------------------------------
# finite coupling tables
# ---------------------------------------------------------------------------


def _stacked_decomposition(group, reps, sigma: int, gamma: int, m: int) -> np.ndarray:
    """Copies e[m, q] of gamma in L(V^sigma) through the dense (|G|, d^2, d^2)
    conjugation stack: one tensordot per averaging operator K_q, seeds from K_0."""
    d, d_gamma = reps[sigma].dim, reps[gamma].dim
    pi = oracle_conjugation_stack(reps[sigma].matrices)
    k_ops = [
        (d_gamma / group.order) * np.tensordot(reps[gamma].matrices[:, q, 0].conj(), pi, axes=1)
        for q in range(d_gamma)
    ]
    seeds = _orthonormal_range(k_ops[0], m)
    return np.array([[(k @ seeds[:, mi]).reshape(d, d) for k in k_ops] for mi in range(m)])


# an irrep of each dimension 1..6: S3's sign and standard, S4's 3-dim and S5's
# 4-, 5- and 6-dim ones (L(V^6) of S5 holds its 4- and 5-dim irreps twice)
@pytest.mark.parametrize("dim", range(1, 7))
def test_conjugation_decomposition_matches_stack_oracle(dim):
    spec = {1: "S3", 2: "S3", 3: "S4"}.get(dim, "S5")
    group, table, reps = _tables_for(spec)
    sigma = max(i for i, rep in enumerate(reps) if rep.dim == dim)
    tab = conjugation_decomposition(group, reps, table)[sigma]
    for gamma in tab.gammas:
        stacked = _stacked_decomposition(group, reps, sigma, gamma, tab.multiplicities[gamma])
        assert np.max(np.abs(tab.basis[gamma] - stacked)) < 1e-13
    if dim == 6:
        assert max(tab.multiplicities.values()) == 2


def test_conjugation_decomposition_never_builds_the_stack():
    # The conjugation stack of S5's 6-dim irrep takes 120 * 36**2 * 16 B =
    # 2.5 MB.  Built from T(g) directly, the decomposition of every irrep of
    # S5 peaked at 1.10 MB traced (CPython 3.11, numpy 2.4), the largest
    # pieces being the sandwiches of one chunk of a shape block.
    group, table, reps = _tables_for("S5")
    sigma = max(i for i, rep in enumerate(reps) if rep.dim == 6)
    tracemalloc.start()
    try:
        tab = conjugation_decomposition(group, reps, table)[sigma]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unitarity_residual(tab) < 1e-12
    assert peak < 1_250_000, f"peak traced allocation {peak} B"


@pytest.mark.parametrize(
    "spec", ["S4", "D10", "Q8", "S5", ["(1 2 3)", "(1 2 3 4 5)"]], ids=["S4", "D10", "Q8", "S5", "A5-generators"]
)
def test_rotated_tables_match_a_fresh_decomposition(spec):
    group, table, reps = _tables_for(spec)
    tables = conjugation_decomposition(group, reps, table)
    for cls in conjugacy_classes(group):
        bases = z_fixed_bases(reps, table, cls.centralizer)
        adapted, _ = adapt_irreps_to_class(reps, bases)
        fresh_tables = conjugation_decomposition(group, adapted, table)
        for rotated, fresh in zip(rotate_coupling_table(tables, [zb.basis for zb in bases]), fresh_tables):
            assert rotated.gammas == fresh.gammas and rotated.multiplicities == fresh.multiplicities
            for gamma in fresh.gammas:
                assert np.max(np.abs(rotated.basis[gamma] - fresh.basis[gamma])) < 1e-12
            assert unitarity_residual(rotated) < 1e-12


def _max_gap(got: dict, want: dict) -> float:
    assert list(got) == list(want)
    assert {g: e.shape for g, e in got.items()} == {g: e.shape for g, e in want.items()}
    return max(float(np.max(np.abs(got[g] - want[g]))) for g in want)


@pytest.mark.parametrize("spec", ["S3", "S4", "D5", "D20", "Q8", "C30", "file:A5", "D60", "S5"])
def test_stacked_coupling_layer_matches_per_sigma_oracles(spec, tmp_path):
    # the decomposition of every sigma, the Z0-fixed bases of every irrep and
    # the rotation of every table, each a stacked pass over shape blocks,
    # against the loops over sigma, gamma and irrep they replaced
    group, table, reps = _file_a5(tmp_path) if spec == "file:A5" else _tables_for(spec)
    coupling = conjugation_decomposition(group, reps, table)
    assert [tab.sigma for tab in coupling] == list(range(len(reps)))
    for tab in coupling:
        assert _max_gap(tab.basis, oracle_conjugation_decomposition(group, reps, table, tab.sigma)) < 1e-13
    for cls in conjugacy_classes(group):
        bases = z_fixed_bases(reps, table, cls.centralizer)
        for rep, zb in zip(reps, bases):
            m_alpha, w = oracle_z_fixed_basis(rep.matrices, cls.centralizer)
            assert zb.m_alpha == m_alpha and np.max(np.abs(zb.basis - w)) < 1e-13
        w = [zb.basis for zb in bases]
        for tab, rotated in zip(coupling, rotate_coupling_table(coupling, w)):
            assert _max_gap(rotated.basis, oracle_rotate_coupling_table(tab, w)) < 1e-13


def test_decomposition_in_chunks_of_one_pair_matches_whole_blocks(monkeypatch):
    group, table, reps = _tables_for("S5")
    whole = conjugation_decomposition(group, reps, table)
    monkeypatch.setattr("classops.coupling._BLOCK_CHUNK_ENTRIES", 1)
    for tab, chunked in zip(whole, conjugation_decomposition(group, reps, table)):
        assert _max_gap(chunked.basis, tab.basis) < 1e-14


def test_a_non_integer_z_fixed_dimension_is_refused():
    group, table, reps = _tables_for("S4")
    cls = conjugacy_classes(group)[1]
    assert [zb.m_alpha for zb in z_fixed_bases(reps, table, cls.centralizer)][3:] == [0, 1]
    bad = replace(reps[3], matrices=reps[3].matrices.copy())
    bad.matrices[0] *= 1 + 1e-6   # the identity, in every centralizer: the trace of the average moves by 7.5e-7
    with pytest.raises(ArithmeticError, match="non-integer Z0-fixed dimension"):
        z_fixed_bases(reps[:3] + [bad, reps[4]], table, cls.centralizer)   # one block of two 3-dim irreps
    # a 1-dim irrep's fixed dimension is its character's Z0 average, read off the table
    bad_table = replace(table, values=table.values.copy())
    bad_table.values[1, 1] *= 1 + 1e-6   # the sign on the transpositions, two of the four elements of Z0
    with pytest.raises(ArithmeticError, match="non-integer Z0-fixed dimension"):
        z_fixed_bases(reps, bad_table, cls.centralizer)
    with pytest.raises(ValueError, match="4 irreps for a character table of 5 rows"):
        z_fixed_bases(reps[:4], table, cls.centralizer)


@pytest.mark.parametrize("spec", [
    "C1", "C2", "C7", "S3", "D4", "Q8", "D12", "S4", "S5", "C150", "C600",
    {"generators": ["(1 2 3)", "(1 2)(3 4)"], "name": "A4"},
    {"generators": ["(1 2 3)", "(1 2 3 4 5)"], "name": "A5"},
    {"generators": ["(1 2)", "(1 2 3 4 5 6)"], "name": "S6g"},
], ids=lambda spec: spec if isinstance(spec, str) else spec["name"])
def test_multiplicities_on_classes_equal_the_element_sum(spec):
    group, table, reps = _tables_for(spec)
    # every sigma of the small groups; a spread of them on the large cyclic ones
    tables = conjugation_decomposition(group, reps, table)
    for sigma in range(0, len(reps), 1 if len(reps) < 100 else 37):
        tab = tables[sigma]
        assert tab.multiplicities == oracle_multiplicities(table, sigma)


def test_a_perturbed_character_row_gives_a_non_integer_multiplicity():
    group, table, reps = _tables_for("S4")
    values = table.values.copy()
    values[3] *= 1 + 1e-6
    with pytest.raises(ArithmeticError, match="non-integer multiplicity"):
        conjugation_decomposition(group, reps, replace(table, values=values))

def test_trivial_sigma_table():
    group, table, reps = _tables_for("S3")
    tab = conjugation_decomposition(group, reps, table)[0]
    assert tab.gammas == [0] and tab.multiplicities[0] == 1
    assert np.allclose(tab.basis[0], 1.0)


def test_s3_standard_decomposition():
    group, table, reps = _tables_for("S3")
    tab = conjugation_decomposition(group, reps, table)[2]
    assert tab.gammas == [0, 1, 2]
    assert tab.multiplicities == {0: 1, 1: 1, 2: 1}
    # dimension count 4 = 1 + 1 + 2
    assert sum(m * reps[g].dim for g, m in tab.multiplicities.items()) == 4


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_coupling_invariants(spec):
    group, table, reps = _tables_for(spec)
    for sigma, tab in enumerate(conjugation_decomposition(group, reps, table)):
        assert unitarity_residual(tab) < 1e-10
        assert sum(m * reps[g].dim for g, m in tab.multiplicities.items()) == reps[sigma].dim ** 2
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
    for sigma, tab in enumerate(conjugation_decomposition(group, reps, table)):
        assert product_expansion_residual(group, reps, tab) < 1e-10


def test_expansions_tell_a_coefficient_from_its_conjugate():
    # C7 x| C3 has complex 3-dim irreps, so their coupling bases are complex:
    # c and conj(c) exchanged in either identity leave a residual near 1
    group, table, reps = _tables_for(["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"])
    assert group.order == 21 and max(np.abs(rep.matrices.imag).max() for rep in reps) > 0.1
    for sigma, tab in enumerate(conjugation_decomposition(group, reps, table)):
        assert product_expansion_residual(group, reps, tab) < 1e-10
        for alpha in range(len(reps)):
            assert triple_product_residual(group, reps, tab, alpha) < 1e-10


def test_product_expansion_at_identity_reduces_to_unitarity():
    group, table, reps = _tables_for("S4")
    tab = conjugation_decomposition(group, reps, table)[3]
    assert product_expansion_residual(group, reps, tab, elements=[0]) < 1e-11


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_triple_product_exhaustive_finite(spec):
    group, table, reps = _tables_for(spec)
    for sigma, tab in enumerate(conjugation_decomposition(group, reps, table)):
        for alpha in range(len(reps)):
            assert triple_product_residual(group, reps, tab, alpha) < 1e-10


# ---------------------------------------------------------------------------
# SU(2): Clebsch-Gordan and coupling tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j1_2,j2_2", [(1, 1), (2, 2), (1, 2), (3, 3), (4, 2), (3, 4)])
def test_clebsch_gordan_against_ladder_oracle(j1_2, j2_2):
    ladder = oracle_cg_ladder(j1_2, j2_2)
    got = clebsch_gordan(j1_2, j2_2)
    assert sorted(got) == sorted(ladder)
    for j_2, expected in ladder.items():
        assert np.max(np.abs(got[j_2] - expected)) < 1e-12


@pytest.mark.parametrize(
    "j1_2,j2_2", [(a, b) for a in range(13) for b in range(13)] + [(40, 40), (MAX_J2, 8)]
)
def test_clebsch_gordan_against_exact_racah_sum(j1_2, j2_2):
    # j1 != j2 included: blocks with M < j1 - j2 hold no m1 = j1 entry, and
    # with j1 > j2 the blocks are indexed by the other spin (exchange sign)
    got = clebsch_gordan(j1_2, j2_2)
    assert list(got) == list(range(abs(j1_2 - j2_2), j1_2 + j2_2 + 1, 2))
    for j_2, cg in got.items():
        assert cg.shape == (j1_2 + 1, j2_2 + 1, j_2 + 1)
        assert np.max(np.abs(cg - oracle_clebsch_gordan(j1_2, j2_2, j_2))) < 1e-13, j_2


def test_clebsch_gordan_unitarity_and_selection():
    blocks = clebsch_gordan(2, 2)
    stacked = np.concatenate([b.reshape(9, -1) for b in blocks.values()], axis=1)
    assert np.max(np.abs(stacked @ stacked.T - np.eye(9))) < 1e-12
    assert list(clebsch_gordan(1, 1)) == [0, 2]  # J = 1/2 parity-, J = 3 triangle-forbidden
    assert list(clebsch_gordan(0, 5)) == [5]


@pytest.mark.parametrize("j1_2,j2_2", [(MAX_J2, 1), (MAX_J2, 8), (40, 40)])
def test_clebsch_gordan_orthogonality_up_to_max_spin(j1_2, j2_2):
    # the coefficients of all J form an orthogonal (d1 d2) x (d1 d2) matrix;
    # at these spins the factorials overflow a float by hundreds of orders
    blocks = [cg.reshape((j1_2 + 1) * (j2_2 + 1), -1) for cg in clebsch_gordan(j1_2, j2_2).values()]
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
    assert unitarity_residual(tab) < 1e-12
    g = haar_random(RNG, 1)[0]
    d_sigma = WignerD(sigma2).euler(*g)
    for j_2 in tab.gammas:
        d_j = WignerD(j_2).euler(*g)
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


@pytest.mark.parametrize("sigma2", [1, 2, 3, 4])
def test_separated_triple_sum_matches_node_wise_oracle(sigma2):
    # on the exact Haar grids only zero phase orders survive; on random nodes,
    # every theta distinct, every order a and b counts
    random_angles = haar_random(np.random.default_rng(40 + sigma2), 50)
    assert len(np.unique(random_angles[:, 1])) == 50
    random_weights = np.random.default_rng(sigma2).uniform(0.5, 1.5, 50) / 50
    for alpha2 in [*su2_coupling_table(sigma2).gammas, 2 * sigma2 + 2]:
        band = (alpha2 + 2 * sigma2) // 2 + 2
        grid = su2_haar_quadrature(2 * band + 3, band + 2, 4 * band + 6)
        for angles, weights in [grid, (random_angles, random_weights)]:
            expect = oracle_triple_sum_su2(alpha2, sigma2, angles, weights)
            got = _triple_sum_su2(alpha2, sigma2, angles, weights)
            assert np.max(np.abs(got - expect)) < 1e-13


def test_separated_triple_sum_bins_random_nodes_in_bounded_chunks():
    # 50 Haar-random nodes, every theta, phi and psi distinct: binned over
    # the whole set the (theta, phi, psi) histogram would hold 50**3 weights,
    # and at alpha2 = 10, sigma2 = 4 one theta's term is 275**2 entries.  The
    # call peaks at 4.4 MiB traced.
    angles = haar_random(np.random.default_rng(3), 50)
    assert all(len(np.unique(column)) == 50 for column in angles.T)
    weights = np.random.default_rng(4).uniform(0.5, 1.5, 50) / 50
    tracemalloc.start()
    try:
        got = _triple_sum_su2(10, 4, angles, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, f"peak traced allocation {peak} B"
    assert np.max(np.abs(got - oracle_triple_sum_su2(10, 4, angles, weights))) < 1e-13


def test_su2_identities_refuse_misshaped_nodes():
    tab = su2_coupling_table(1)
    angles, weights = su2_haar_quadrature(7, 5, 14)
    with pytest.raises(ValueError, match=r"weights of shape \(1,\) for 490 nodes"):
        triple_product_residual_su2(tab, 2, angles, weights[:1])
    with pytest.raises(ValueError, match=r"shape \(N, 3\), got \(3, 490\)"):
        triple_product_residual_su2(tab, 2, angles.T, weights)
    with pytest.raises(ValueError, match=r"shape \(N, 3\), got \(3, 5\)"):
        product_expansion_residual_su2(tab, haar_random(np.random.default_rng(1), 5).T)
    with pytest.raises(ValueError, match=r"shape \(N, 3\), got \(3,\)"):
        product_expansion_residual_su2(tab, [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# Z0-fixed bases and Frobenius reciprocity
# ---------------------------------------------------------------------------


def test_z_fixed_basis_trivial_irrep():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    zb = z_fixed_bases(reps, table, cls.centralizer)[0]
    assert zb.m_alpha == 1


def test_z_fixed_basis_s3_standard():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]  # g0 = (1 2), Z0 = {e, (1 2)}
    zb = z_fixed_bases(reps, table, cls.centralizer)[2]
    assert zb.m_alpha == 1
    w = zb.basis
    assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-12
    for h in cls.centralizer:
        # first column fixed, complement invariant
        assert np.max(np.abs(reps[2].matrices[h] @ w[:, 0] - w[:, 0])) < 1e-12
        image = reps[2].matrices[h] @ w[:, 1]
        assert abs(w[:, 0].conj() @ image) < 1e-12


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_adapted_irreps_have_leading_fixed_columns(spec):
    group, table, reps = _tables_for(spec)
    for cls in conjugacy_classes(group):
        adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
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


def _class_weights(adapted, m_alphas):
    """Every weight (alpha, k, l) of a class, in report order."""
    return [(a, k, l) for a, rep in enumerate(adapted) for k in range(rep.dim) for l in range(m_alphas[a])]


def _full_wigner_eckart(spec, class_index, match_tol=1e-9, sparse_tol=1e-10):
    group, table, reps = _tables_for(spec)
    cls = conjugacy_classes(group)[class_index]
    g0 = cls.base_element
    adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
    tables = conjugation_decomposition(group, adapted, table)
    weights = _class_weights(adapted, m_alphas)
    brute = collect_bruteforce(group, adapted, g0, weights)
    predictions = {
        (sigma, alpha): wigner_eckart_matrix(
            tables[sigma], alpha, reps[alpha].dim, range(m_alphas[alpha]), adapted[sigma].matrices[g0]
        )[0]
        for sigma in range(len(reps)) for alpha in range(len(reps))
    }
    checked = 0
    for w, (alpha, k, l) in enumerate(weights):
        for sigma in range(len(reps)):
            d = reps[sigma].dim
            expected = np.einsum("jv,ui->ijuv", np.eye(d), predictions[(sigma, alpha)][k, l])
            assert np.max(np.abs(brute[(sigma, sigma)][w] - expected)) < match_tol
            off = brute[(sigma, sigma)][w] * (1.0 - np.eye(d))[None, :, None, :]
            assert np.max(np.abs(off)) < sparse_tol
            for gamma in range(len(reps)):
                if gamma != sigma:
                    assert np.max(np.abs(brute[(sigma, gamma)][w])) < sparse_tol
            checked += 1
    return checked


def test_wigner_eckart_s3_both_nontrivial_classes():
    assert _full_wigner_eckart("S3", 1) == 9
    assert _full_wigner_eckart("S3", 2) == 6


def test_wigner_eckart_d4():
    assert _full_wigner_eckart("D4", 1) > 0


@pytest.mark.parametrize("spec", ["S3", "D4", "S4"])
def test_bruteforce_convolution_matches_dense_operator(spec):
    group, table, reps = _tables_for(spec)
    worst = 0.0
    for cls in conjugacy_classes(group):
        adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
        weights = _class_weights(adapted, m_alphas)
        brute = collect_bruteforce(group, adapted, cls.base_element, weights)
        for w, (alpha, k, l) in enumerate(weights):
            dense = dense_wigner_eckart_bruteforce(group, adapted, alpha, k, l, cls.base_element)
            assert brute.keys() == dense.keys()
            for key in brute:
                worst = max(worst, float(np.max(np.abs(brute[key][w] - dense[key]))))
    assert worst <= 1e-13


@pytest.mark.parametrize("spec", ["S4", "D6", "Q8", "file:A5"])
def test_bruteforce_matches_per_support_oracle_on_every_class(spec, tmp_path):
    group, table, reps = _file_a5(tmp_path) if spec == "file:A5" else _tables_for(spec)
    worst = 0.0
    for cls in conjugacy_classes(group):
        adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
        weights = _class_weights(adapted, m_alphas)
        assert len(weights) == cls.size   # sum_alpha n^alpha m^alpha = |G/Z0|
        brute = collect_bruteforce(group, adapted, cls.base_element, weights)
        for w, (alpha, k, l) in enumerate(weights):
            oracle = oracle_wigner_eckart_bruteforce(group, adapted, alpha, k, l, cls.base_element)
            for key, value in oracle.items():
                worst = max(worst, float(np.max(np.abs(brute[key][w] - value))))
    assert worst <= 1e-13


def test_bruteforce_chunks_cover_every_column(monkeypatch):
    # with chunks of one column the streamed inner products are still the oracle's
    monkeypatch.setattr("classops.coupling._BRUTE_CHUNK_ENTRIES", 1)
    group, table, reps = _tables_for("S4")
    cls = conjugacy_classes(group)[3]
    adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
    weights = _class_weights(adapted, m_alphas)[::-1]   # any order of weights
    columns = [c for _, c, _ in wigner_eckart_bruteforce(group, adapted, cls.base_element, weights)]
    assert len(columns) == sum(rep.dim**2 for rep in reps)
    brute = collect_bruteforce(group, adapted, cls.base_element, weights)
    for w, (alpha, k, l) in enumerate(weights):
        oracle = oracle_wigner_eckart_bruteforce(group, adapted, alpha, k, l, cls.base_element)
        assert max(np.max(np.abs(brute[key][w] - v)) for key, v in oracle.items()) <= 1e-13


def test_wigner_eckart_trivial_alpha_is_class_operator_eigenvalue():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
    for sigma, tab in enumerate(conjugation_decomposition(group, adapted, table)):
        pred, reduced = wigner_eckart_matrix(tab, 0, 1, [0], adapted[sigma].matrices[cls.base_element])
        expected = (table.values[sigma, 1] / table.dims[sigma]) * np.eye(reps[sigma].dim)
        assert np.max(np.abs(pred[0, 0] - expected)) < 1e-10
        assert reduced.shape == (1, 1)


def test_reduced_matrix_elements_structure():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    g0 = cls.base_element
    adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
    tab = conjugation_decomposition(group, adapted, table)[2]
    pred, reduced = wigner_eckart_matrix(tab, 2, 2, [0], adapted[2].matrices[g0])
    assert pred.shape == (2, 1, 2, 2)   # rows k, listed columns l, then (u, i)
    assert reduced.shape == (1, 1)      # multiplicity of the standard in L(V^std) is 1
    # absent component gives no reduced elements and a zero prediction
    pred, absent = wigner_eckart_matrix(tab, 99, 1, [0], adapted[2].matrices[g0])
    assert absent.shape == (1, 0) and not pred.any()
    # base-point well-definedness: any h in Z0 leaves g0, hence the values, unchanged
    for h in cls.centralizer:
        conj_g0 = group_conjugate(group, g0, h)
        assert conj_g0 == g0
        _, again = wigner_eckart_matrix(tab, 2, 2, [0], adapted[2].matrices[conj_g0])
        assert abs(again[0, 0] - reduced[0, 0]) == 0


@pytest.mark.parametrize("spec", ["S3", "S4", "D5", "Q8", "file:A5"])
def test_wigner_eckart_kernel_equals_per_weight_oracle(spec, tmp_path):
    # every class, every sigma, every alpha, every weight (k, l): bit for bit
    group, table, reps = _file_a5(tmp_path) if spec == "file:A5" else _tables_for(spec)
    coupling = conjugation_decomposition(group, reps, table)
    compared = 0
    for cls in conjugacy_classes(group):
        bases = z_fixed_bases(reps, table, cls.centralizer)
        adapted, m_alphas = adapt_irreps_to_class(reps, bases)
        for tab in rotate_coupling_table(coupling, [zb.basis for zb in bases]):
            t_g0 = adapted[tab.sigma].matrices[cls.base_element]
            for alpha, (rep, m) in enumerate(zip(adapted, m_alphas)):
                pred, reduced = wigner_eckart_matrix(tab, alpha, rep.dim, range(m), t_g0)
                assert pred.shape == (rep.dim, m) + t_g0.shape
                assert reduced.shape == (m, tab.multiplicities.get(alpha, 0))
                for k in range(rep.dim):
                    for l in range(m):
                        want_pred, want_reduced = oracle_wigner_eckart_matrix(tab, alpha, rep.dim, k, l, t_g0)
                        assert np.array_equal(pred[k, l], want_pred)
                        assert np.array_equal(reduced[l], want_reduced)
                        compared += 1
    assert compared == sum(cls.size for cls in conjugacy_classes(group)) * len(reps)


@pytest.mark.parametrize("sigma2", range(1, 8))
def test_su2_wigner_eckart_kernel_equals_per_weight_oracle(sigma2):
    tab = su2_coupling_table(sigma2)
    t_sigma_g0 = WignerD(sigma2).euler(0.0, 0.0, 1.3)
    for alpha2 in tab.gammas:
        col = fixed_column_index(alpha2)
        pred, reduced = wigner_eckart_matrix(tab, alpha2, alpha2 + 1, [col], t_sigma_g0)
        assert pred.shape == (alpha2 + 1, 1, sigma2 + 1, sigma2 + 1) and reduced.shape == (1, 1)
        for k in range(alpha2 + 1):
            want_pred, want_reduced = oracle_wigner_eckart_matrix(tab, alpha2, alpha2 + 1, k, col, t_sigma_g0)
            assert np.array_equal(pred[k, 0], want_pred)
            assert np.array_equal(reduced[0], want_reduced)


def test_su2_coupling_tables_share_no_array_between_calls():
    # the spin-only plan is cached; what a call returns is its own
    first, second = su2_coupling_table(3), su2_coupling_table(3)
    expected = {j_2: e.copy() for j_2, e in second.basis.items()}
    for j_2, e in first.basis.items():
        e *= -1.0
        assert not np.shares_memory(e, second.basis[j_2])
    third = su2_coupling_table(3)
    for j_2, e in expected.items():
        assert np.array_equal(second.basis[j_2], e)
        assert np.array_equal(third.basis[j_2], e)
    cg = clebsch_gordan(2, 5)
    cg[3] *= 0.0
    assert np.max(np.abs(clebsch_gordan(2, 5)[3])) > 0.1


def test_su2_coupling_table_holds_one_array():
    # sigma = 40: the basis is 41**4 floats (21.6 MiB); a second, conjugated
    # and transposed copy of it would double what the table retains, and a
    # padded all-J Clebsch-Gordan array (d^4 floats) held beside the basis
    # would double the peak.  Each J's coefficients turn into its copy in
    # place; the eigensolve's (2d - 1, d, d) stacks are what the peak adds
    # (1.15x, CPython 3.11, numpy 2.4).
    tracemalloc.start()
    try:
        tab = su2_coupling_table(40)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    basis_bytes = sum(e.nbytes for e in tab.basis.values())
    assert basis_bytes == 41**4 * 8
    assert retained <= 1.1 * basis_bytes, f"table retains {retained} B for a {basis_bytes} B basis"
    assert peak <= 1.25 * basis_bytes, f"table build peaks at {peak} B for a {basis_bytes} B basis"


def test_wigner_eckart_su2_vs_quadrature():
    quad = SphereQuadrature.build(24, 48)
    for sigma2 in [1, 2, 3]:
        tab = su2_coupling_table(sigma2)
        for psi in [0.7, np.pi / 2]:
            t_sigma_g0 = WignerD(sigma2).euler(0.0, 0.0, psi)
            for alpha2 in tab.gammas:
                col = fixed_column_index(alpha2)
                pred, _ = wigner_eckart_matrix(tab, alpha2, alpha2 + 1, [col], t_sigma_g0)
                for k in range(alpha2 + 1):
                    quadr = weighted_class_operator_su2(sigma2, psi, [(alpha2, k, 1.0)], quad)
                    assert np.max(np.abs(pred[k, 0] - quadr)) < 1e-8


def test_su2_spin_half_weight_matches_prediction():
    # j = 1/2 with an l = 1 matrix-element weight: the smallest nonscalar case
    quad = SphereQuadrature.build(24, 48)
    psi = 2 * np.pi / 3
    tab = su2_coupling_table(1)
    t_half_g0 = WignerD(1).euler(0.0, 0.0, psi)
    pred, _ = wigner_eckart_matrix(tab, 2, 3, [1], t_half_g0)
    for k in range(3):
        quadr = weighted_class_operator_su2(1, psi, [(2, k, 1.0)], quad)
        assert np.max(np.abs(pred[k, 0] - quadr)) < 1e-10


# ---------------------------------------------------------------------------
# tensor-operator scan
# ---------------------------------------------------------------------------


def test_scan_regular_representation_never_vanishes():
    for spec, class_index in [("S3", 1), ("S4", 1), ("S4", 3)]:
        group, table, reps = _tables_for(spec)
        cls = conjugacy_classes(group)[class_index]
        adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
        for lam in (regular_representation(group), None):
            rows = tensor_operator_scan(group, lam, cls.base_element, adapted, m_alphas)
            assert rows and not any(r.vanishes for r in rows)
            assert {r.alpha for r in rows} == {a for a, m in enumerate(m_alphas) if m > 0}


def test_scan_sign_representation_kills_standard_family():
    group, table, reps = _tables_for("S3")
    cls = conjugacy_classes(group)[1]
    adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
    sign_rep = adapted[1].matrices  # one-dimensional
    rows = tensor_operator_scan(group, sign_rep, cls.base_element, adapted, m_alphas)
    by_alpha = {r.alpha: r for r in rows}
    assert by_alpha[2].vanishes        # 2-dim family cannot fit in a 1-dim operator space
    assert not by_alpha[0].vanishes    # class operator itself survives (chi(g0) != 0)


def test_scan_trivial_alpha_never_vanishes_for_regular():
    group, table, reps = _tables_for("Q8")
    lam = regular_representation(group)
    for cls in conjugacy_classes(group):
        adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
        rows = tensor_operator_scan(group, lam, cls.base_element, adapted, m_alphas)
        trivial_rows = [r for r in rows if r.alpha == 0]
        assert trivial_rows and not trivial_rows[0].vanishes


@pytest.mark.parametrize("spec", ["S4", "D6", "Q8"])
def test_scan_matches_per_weight_oracle(spec):
    group, table, reps = _tables_for(spec)
    for cls in conjugacy_classes(group):
        adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
        for representation in (None, reps[-1].matrices):
            args = (group, representation, cls.base_element, adapted, m_alphas)
            assert tensor_operator_scan(*args) == oracle_tensor_operator_scan(*args)


def test_scan_sees_a_corrupted_weight_as_the_oracle_does():
    group, table, reps = _tables_for("S4")
    cls = conjugacy_classes(group)[1]
    adapted, m_alphas = adapt_irreps_to_class(reps, z_fixed_bases(reps, table, cls.centralizer))
    clean = tensor_operator_scan(group, None, cls.base_element, adapted, m_alphas)
    alpha = max(a for a, m in enumerate(m_alphas) if m > 0 and adapted[a].dim > 1)
    corrupted = [replace(rep, matrices=rep.matrices.copy()) for rep in adapted]
    corrupted[alpha].matrices[:, -1, 0] *= 10.0   # the weight of (alpha, column 0, last i)
    rows = tensor_operator_scan(group, None, cls.base_element, corrupted, m_alphas)
    assert rows == oracle_tensor_operator_scan(group, None, cls.base_element, corrupted, m_alphas)
    assert [(r.alpha, r.column) for r, c in zip(rows, clean) if r.max_norm != c.max_norm] == [(alpha, 0)]
