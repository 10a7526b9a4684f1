"""Weighted class operators: construction, covariance, transfer, spectral form.

The library returns each operator as its group-algebra element; its image in a
per-element stack (``helpers.image``) is compared with the literal triple
product wherever a test works in a matrix representation.
"""

import numpy as np
import pytest

from classops.groups import build_group, conjugacy_classes, left_regular_matrix
from classops.representations import character_table, irreps
from classops.class_operators import (
    centralizer_invariance_deviation,
    class_operator_from_classfunction,
    covariance_deviation,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)
from classops.coupling import adapt_irreps_to_class, tensor_operator_scan
from helpers import (
    CATALOG_LEQ_24,
    class_sum,
    group_conjugate,
    image,
    literal_class_operator,
    regular_actions,
    regular_representation,
)


def test_zero_weight():
    group = build_group("S3")
    op = weighted_class_operator(group, 1, np.zeros(6))
    assert op.shape == (6,) and np.max(np.abs(op)) == 0


def test_identity_base_point():
    group = build_group("Q8")
    rng = np.random.default_rng(0)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    op = weighted_class_operator(group, 0, f)
    for lam in (regular_representation(group), None):
        assert np.max(np.abs(image(group, lam, op) - f.mean() * np.eye(8))) < 1e-13


def test_matches_explicit_sum():
    group = build_group("S4")
    reps = irreps(group)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    op = weighted_class_operator(group, 1, f)
    for rep in reps[2:4]:
        assert np.max(np.abs(image(group, rep.matrices, op) - literal_class_operator(group, rep.matrices, 1, f))) < 1e-12


def test_constant_weight_is_class_sum_operator():
    group = build_group("S3")
    cls = conjugacy_classes(group)[1]  # transpositions
    l0 = left_regular_matrix(group, class_sum(group, cls))
    op = weighted_class_operator(group, cls.base_element, np.ones(6))
    for lam in (regular_representation(group), None):
        assert np.max(np.abs(image(group, lam, op) - l0)) < 1e-12


def test_linearity_in_weight():
    group = build_group("D4")
    rng = np.random.default_rng(2)
    f, g = (rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2))
    a = weighted_class_operator(group, 2, 2.0 * f + 1j * g)
    b = 2.0 * weighted_class_operator(group, 2, f)
    c = 1j * weighted_class_operator(group, 2, g)
    assert np.max(np.abs(a - b - c)) < 1e-13


@pytest.mark.parametrize("spec", ["S4", "D6", "Q8"])
def test_weight_stack_rows_equal_single_calls_bit_for_bit(spec):
    group = build_group(spec)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((5, group.order)) + 1j * rng.standard_normal((5, group.order))
    elements = rng.integers(group.order, size=5)
    for cls in conjugacy_classes(group):
        g0 = cls.base_element
        op = weighted_class_operator(group, g0, stack)
        assert op.shape == (5, group.order)
        singles = [weighted_class_operator(group, g0, f) for f in stack]
        for row, single in zip(op, singles):
            assert np.array_equal(row, single)
        dev = covariance_deviation(group, g0, stack, op, elements)
        assert dev == max(covariance_deviation(group, g0, f, s, g) for f, s, g in zip(stack, singles, elements))
        # numpy may order the coset mean of a stack differently: equal to round-off
        for phi, f in zip(transfer(group, cls, stack), stack):
            assert np.max(np.abs(phi - transfer(group, cls, f))) <= 1e-15


def test_dimension_mismatch():
    # only the scan maps elements through a representation stack; a stack that
    # is not one square matrix per element is refused
    group = build_group("S3")
    cls = conjugacy_classes(group)[1]
    adapted, m_alphas = adapt_irreps_to_class(irreps(group), cls)
    for stack in (np.zeros((5, 2, 2)), np.zeros((6, 2, 3)), np.zeros((6, 4))):
        with pytest.raises(ValueError, match="wrong shape"):
            tensor_operator_scan(group, stack, cls.base_element, adapted, m_alphas)


@pytest.mark.parametrize("g0", [-1, 24])
def test_base_point_outside_the_group_is_refused(g0):
    # -1 would otherwise index the last element, and |G| would raise a bare IndexError
    group = build_group("S4")
    f = np.random.default_rng(0).standard_normal(24)
    with pytest.raises(ValueError, match="element index"):
        weighted_class_operator(group, g0, f)
    with pytest.raises(ValueError, match="element index"):
        centralizer_invariance_deviation(group, g0, f)


@pytest.mark.parametrize("spec", ["S4", "Q8"])
def test_conjugation_covariance(spec):
    group = build_group(spec)
    n = group.order
    lam = regular_representation(group)
    rng = np.random.default_rng(3)
    for cls in conjugacy_classes(group):
        g0 = cls.base_element
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        op = weighted_class_operator(group, g0, f)
        dense = image(group, lam, op)
        for g in range(n):
            assert covariance_deviation(group, g0, f, op, g) < 1e-11
            shifted = f[group.mult_table[group.inverse_table[g]]]  # f(g^-1 x)
            direct = image(group, lam, weighted_class_operator(group, g0, shifted))
            assert np.max(np.abs(lam[g] @ dense @ lam[group.inverse_table[g]] - direct)) < 1e-11
        # identity conjugation leaves the operator unchanged
        assert covariance_deviation(group, g0, f, op, 0) < 1e-14


def test_covariance_detects_an_operator_that_is_not_the_weights_image():
    # round-off on T(f; g0) itself, the size of the change on any other element
    group = build_group("S3")
    rng = np.random.default_rng(4)
    f = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    cls = conjugacy_classes(group)[1]
    op = weighted_class_operator(group, cls.base_element, f)
    broken = op.copy()
    broken[cls.members[-1]] += 1e-6  # no longer T(f; g0)
    for g in range(group.order):
        assert covariance_deviation(group, cls.base_element, f, op, g) < 1e-11
        assert covariance_deviation(group, cls.base_element, f, broken, g) > 1e-7


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
    op = weighted_class_operator(group, cls.base_element, f)
    assert covariance_deviation(group, cls.base_element, f, op, central) < 1e-11
    direct = weighted_class_operator(
        group, cls.base_element, f[group.mult_table[group.inverse_table[central]]]
    )
    moved = lam[central] @ image(group, lam, op) @ lam[group.inverse_table[central]]
    assert np.max(np.abs(moved - image(group, lam, direct))) < 1e-12
    assert np.max(np.abs(direct - op)) < 1e-12


@pytest.mark.parametrize("spec", ["C6", "S3", "S4"])
def test_centralizer_invariance(spec):
    group = build_group(spec)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    for cls in conjugacy_classes(group):
        assert centralizer_invariance_deviation(group, cls.base_element, f) < 1e-12


@pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "S4"])
def test_centralizer_invariance_at_every_class_member(spec):
    # g0 need not be the base element of its class: the translates run over
    # the centralizer of g0 itself
    group = build_group(spec)
    rng = np.random.default_rng(16)
    f = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    for cls in conjugacy_classes(group):
        for g0 in cls.members:
            dev = centralizer_invariance_deviation(group, g0, f)
            assert dev < 1e-12, (spec, group.labels[g0], dev)


def test_abelian_right_translation_trivial():
    group = build_group("C6")
    rng = np.random.default_rng(7)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base = weighted_class_operator(group, 2, f)
    for h in range(6):  # Z0 = G for abelian groups
        shifted = weighted_class_operator(group, 2, f[group.mult_table[:, h]])  # f(x h)
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
        target = group_conjugate(group, cls.base_element, g)
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
    lam = regular_representation(group)
    rng = np.random.default_rng(8)
    for cls in conjugacy_classes(group):
        for trial in range(10):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            direct = weighted_class_operator(group, cls.base_element, f)
            through = class_operator_from_classfunction(group, cls, transfer(group, cls, f))
            assert np.max(np.abs(direct - through)) < 1e-11
            if trial == 0:
                literal = literal_class_operator(group, lam, cls.base_element, f)
                assert np.max(np.abs(image(group, lam, through) - literal)) < 1e-11


def test_classfunction_operator_singleton_class():
    group = build_group("Q8")
    lam = regular_representation(group)
    central = next(
        c for c in conjugacy_classes(group) if c.size == 1 and c.base_element != 0
    )
    op = class_operator_from_classfunction(group, central, np.array([2.5 - 1j]))
    assert np.max(np.abs(image(group, lam, op) - (2.5 - 1j) * lam[central.base_element])) < 1e-13


@pytest.mark.parametrize("spec", ["S4", "D4", "Q8"])
def test_classfunction_weight_is_a_witness_of_its_operator(spec):
    # the weight constant on cosets, f(x) = phi(x g0 x^-1), transfers to phi and
    # gives the operator itself, so covariance measured on the class-function
    # operator reads round-off, not a false deviation
    group = build_group(spec)
    top = irreps(group, character_table(group))[-1].matrices
    rng = np.random.default_rng(0)
    t = group.mult_table
    for cls in conjugacy_classes(group):
        g0 = cls.base_element
        for shape in ((cls.size,), (3, cls.size)):
            phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            op = class_operator_from_classfunction(group, cls, phi)
            assert op.shape == shape[:-1] + (group.order,)
            weight = phi[..., np.searchsorted(cls.members, t[t[:, g0], group.inverse_table])]
            assert np.max(np.abs(transfer(group, cls, weight) - phi)) < 1e-13
            again = weighted_class_operator(group, g0, weight)
            assert np.max(np.abs(again - op)) < 1e-13, (spec, g0)
            elements = rng.integers(group.order, size=shape[:-1])
            assert covariance_deviation(group, g0, weight, op, elements) < 1e-11
            for row, f in zip(op.reshape(-1, group.order), weight.reshape(-1, group.order)):
                assert np.max(np.abs(image(group, top, row) - literal_class_operator(group, top, g0, f))) < 1e-12


def test_classfunction_size_check():
    group = build_group("S3")
    cls = conjugacy_classes(group)[1]
    with pytest.raises(ValueError):
        class_operator_from_classfunction(group, cls, np.ones(5))


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_intertwining_on_class_functions(spec):
    group = build_group(spec)
    lam = regular_representation(group)
    rng = np.random.default_rng(9)
    t = group.mult_table
    for cls in conjugacy_classes(group):
        phi = rng.standard_normal(cls.size) + 1j * rng.standard_normal(cls.size)
        op = image(group, lam, class_operator_from_classfunction(group, cls, phi))
        for g in range(group.order):
            conjugated = lam[g] @ op @ lam[group.inverse_table[g]]
            # left translation on class functions: the value at c is phi(g^-1 c g)
            translated = phi[np.searchsorted(cls.members, t[t[group.inverse_table[g], list(cls.members)], g])]
            moved = image(group, lam, class_operator_from_classfunction(group, cls, translated))
            assert np.max(np.abs(conjugated - moved)) < 1e-12


def test_spectral_identity_class():
    group = build_group("S4")
    table = character_table(group)
    identity_class = conjugacy_classes(group)[0]
    op = left_regular_matrix(group, spectral_class_operator(group, identity_class, table))
    assert np.max(np.abs(op - np.eye(group.order))) < 1e-10


def test_s3_spectral_eigenvalues_frozen():
    group = build_group("S3")
    table = character_table(group)
    classes = conjugacy_classes(group)
    # transposition class: eigenvalues (1, -1, 0) on blocks of dims (1, 1, 4)
    op = left_regular_matrix(group, spectral_class_operator(group, classes[1], table))
    evals = np.sort(np.linalg.eigvalsh((op + op.conj().T) / 2))
    assert np.allclose(evals, [-1, 0, 0, 0, 0, 1], atol=1e-10)
    # 3-cycle class: eigenvalues (1, 1, -1/2)
    op = left_regular_matrix(group, spectral_class_operator(group, classes[2], table))
    evals = np.sort(np.linalg.eigvalsh((op + op.conj().T) / 2))
    assert np.allclose(evals, [-0.5, -0.5, -0.5, -0.5, 1, 1], atol=1e-10)
    # eigenvalue matched to its isotypic block via projector support
    from classops.representations import isotypic_projector

    expectations = {1: [1.0, -1.0, 0.0], 2: [1.0, 1.0, -0.5]}
    for ci, expected in expectations.items():
        op = left_regular_matrix(group, spectral_class_operator(group, classes[ci], table))
        for alpha in range(3):
            proj = left_regular_matrix(group, isotypic_projector(group, table, alpha))
            assert np.max(np.abs(op @ proj - expected[alpha] * proj)) < 1e-10


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_spectral_equals_bruteforce(spec):
    group = build_group(spec)
    table = character_table(group)
    for lam in (regular_representation(group), None):
        for cls in conjugacy_classes(group):
            brute = image(group, lam, weighted_class_operator(group, cls.base_element, np.ones(group.order)))
            spectral = left_regular_matrix(group, spectral_class_operator(group, cls, table))
            assert np.max(np.abs(spectral - brute)) < 1e-10


def test_class_operator_is_central():
    group = build_group("S4")
    table = character_table(group)
    for cls in conjugacy_classes(group):
        op = left_regular_matrix(group, spectral_class_operator(group, cls, table))
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
            expansion += table.values[alpha, ci].conjugate() * table.element_values(alpha)
        expansion /= group.order
        # the class function 1 gives the class sum, bit for bit
        l0 = class_operator_from_classfunction(group, cls, np.ones(cls.size))
        assert np.array_equal(l0, class_sum(group, cls))
        assert np.max(np.abs(l0 - expansion)) < 1e-10
