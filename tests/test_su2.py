"""SU(2) elements, Wigner matrices, class-operator quadrature, weighted operators."""

import tracemalloc

import numpy as np
import pytest

from classops.su2 import (
    MAX_J2,
    SphereQuadrature,
    WignerD,
    class_operator_quadrature,
    closed_form_eigenvalue,
    fixed_column_index,
    haar_random,
    sphere_rule_for_spin,
    su2_haar_quadrature,
    weighted_class_operator_rows_su2,
    weighted_class_operator_su2,
)
from classops.coupling import su2_coupling_table
from classops.verify import SU2_TABLE_RULES, su2_convergence_rows, su2_wigner_eckart_report
from helpers import (
    oracle_gauss_legendre,
    oracle_little_d,
    oracle_phi_sum_class_operator,
    oracle_phi_sum_weighted_operator,
    oracle_su2_haar_quadrature,
    oracle_wigner_eckart_matrix,
    su2_euler_angles,
    su2_matrices,
    su2_product_angles,
)

RNG = np.random.default_rng(12)

PSI_GRID = [np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, np.pi, 3 * np.pi / 2]

# Pauli matrices sigma_1, sigma_2, sigma_3
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def test_element_invariants():
    # the defining representation takes Euler angles to SU(2), and the angles of
    # the conjugate transpose to the inverse
    rep = WignerD(1)
    m = rep.euler(0.7, 1.1, -0.4)
    assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-14
    assert abs(np.linalg.det(m) - 1) < 1e-14
    assert np.max(np.abs(m @ rep.euler(*su2_euler_angles(m.conj().T)) - np.eye(2))) < 1e-14


def test_euler_round_trip():
    specials = np.array([
        np.eye(2),
        -np.eye(2),
        np.diag([np.exp(0.3j), np.exp(-0.3j)]),
        [[0, np.exp(0.9j)], [-np.exp(-0.9j), 0]],
        [[0, 1], [-1, 0]],
    ], dtype=complex)
    angles = np.concatenate([haar_random(RNG, 300), su2_euler_angles(specials)])
    assert np.all((0 <= angles[:, 0]) & (angles[:, 0] < 2 * np.pi))
    assert np.all((0 <= angles[:, 1]) & (angles[:, 1] <= np.pi + 1e-12))
    assert np.all((-2 * np.pi <= angles[:, 2]) & (angles[:, 2] < 2 * np.pi))
    back = su2_euler_angles(su2_matrices(angles))
    assert np.max(np.abs(su2_matrices(back) - su2_matrices(angles))) < 1e-10
    assert np.max(np.abs(su2_matrices(angles[-5:]) - specials)) < 1e-10


def test_haar_random_angles_follow_the_scalar_rule_bit_for_bit():
    # the vectorized angles of the sphere points equal the per-element rule
    for seed in range(20):
        raw = np.random.default_rng(seed).standard_normal((64, 4))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        a, b = raw[:, 0] + 1j * raw[:, 1], raw[:, 2] + 1j * raw[:, 3]
        matrices = np.stack([np.stack([a, b], -1), np.stack([-b.conj(), a.conj()], -1)], -2)
        assert np.array_equal(haar_random(np.random.default_rng(seed), 64), su2_euler_angles(matrices))
    assert haar_random(RNG, 0).shape == (0, 3)


def test_exponential_map():
    # the Euler factors are one-parameter subgroups: g(t) = exp(i t/2 sigma3), h(t) = exp(i t/2 sigma1)
    import scipy.linalg

    def expm(t, axis):
        return scipy.linalg.expm(0.5j * t * PAULI[axis])

    rep = WignerD(1)
    for phi, theta, psi in haar_random(RNG, 10):
        product = expm(phi, 2) @ expm(theta, 0) @ expm(psi, 2)
        assert np.max(np.abs(su2_matrices([phi, theta, psi]) - product)) < 1e-12
        assert np.max(np.abs(rep.euler(phi, theta, psi) - product)) < 1e-12


@pytest.mark.parametrize("j2", [1, 2, 3, 4, 7, 12])
def test_wigner_homomorphism_and_unitarity(j2):
    rep = WignerD(j2)
    for _ in range(15):
        u, v = haar_random(RNG, 2)
        mu, mv = rep.euler(*u), rep.euler(*v)
        assert np.max(np.abs(mu @ mu.conj().T - np.eye(rep.dim))) < 1e-12
        assert np.max(np.abs(mu @ mv - rep.euler(*su2_product_angles(u, v)))) < 1e-10


def test_little_d_matches_factorial_oracle():
    # the factorial sum is accurate to round-off at these spins; 1e-13 is
    # about 450 ulp of 1.0, far below what a wrong sign or index would give
    theta = np.linspace(0.0, np.pi, 13)
    for j2 in range(0, 21):
        got = WignerD(j2).little_d(theta)
        assert np.max(np.abs(got - oracle_little_d(j2, theta))) < 1e-13, j2


def test_little_d_unitary_up_to_max_spin():
    theta = np.array([0.0, 0.37, 1.3, np.pi / 2, 2.6, np.pi, 5.1])
    for j2 in range(0, MAX_J2 + 1):
        d = WignerD(j2).little_d(theta)
        defect = np.max(np.abs(d @ d.transpose(0, 2, 1) - np.eye(j2 + 1)))
        assert defect <= 1e-12, (j2, defect)


@pytest.mark.parametrize("j2", [41, 80, MAX_J2])
def test_little_d_against_high_precision_sum(j2):
    # Wigner's factorial sum in 60-digit arithmetic, on a sample of entries
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(j2)
    theta = 1.9
    got = WignerD(j2).little_d(theta)
    entries = [(0, 0), (0, j2), (j2 // 2, j2 // 2)] + [tuple(rng.integers(0, j2 + 1, 2)) for _ in range(12)]
    with mpmath.workdps(60):
        c, s = mpmath.cos(mpmath.mpf(theta) / 2), mpmath.sin(mpmath.mpf(theta) / 2)
        fac = mpmath.factorial
        for r, col in entries:
            jp_m, jm_m = j2 - int(col), int(col)          # j + m, j - m for m = j - col
            jp_mp, jm_mp = j2 - int(r), int(r)
            shift = int(r) - int(col)                     # m - m'
            pref = mpmath.sqrt(fac(jp_m) * fac(jm_m) * fac(jp_mp) * fac(jm_mp))
            exact = mpmath.fsum(
                (-1) ** (k - shift) * pref / (fac(jp_m - k) * fac(k) * fac(jm_mp - k) * fac(k - shift))
                * c ** (j2 - 2 * k + shift) * s ** (2 * k - shift)
                for k in range(max(0, shift), min(jp_m, jm_mp) + 1)
            )
            assert abs(got[r, col] - float(exact)) < 1e-13, (r, col)


def test_spins_above_the_cap_are_refused():
    WignerD(MAX_J2)
    with pytest.raises(ValueError, match="MAX_J2"):
        WignerD(MAX_J2 + 1)
    with pytest.raises(ValueError, match="MAX_J2"):
        closed_form_eigenvalue(MAX_J2 + 1, 1.0)


def test_euler_on_arrays_matches_pointwise_calls():
    angles, _ = su2_haar_quadrature(3, 4, 5)
    for j2 in [0, 1, 4, 7]:
        rep = WignerD(j2)
        stacked = rep.euler(*angles.T)
        assert stacked.shape == (len(angles), j2 + 1, j2 + 1)
        pointwise = np.array([rep.euler(*a) for a in angles])
        assert np.max(np.abs(stacked - pointwise)) < 1e-15


def test_wigner_spin_half_is_defining_representation():
    rep = WignerD(1)
    angles = haar_random(RNG, 25)
    assert np.max(np.abs(rep.euler(*angles.T) - su2_matrices(angles))) < 1e-12


@pytest.mark.parametrize("j2", [0, 1, 2, 5, 9])
def test_wigner_character(j2):
    rep = WignerD(j2)
    for psi in [0.4, 1.0, 2.2, 3.9, 5.5]:
        trace = np.trace(rep.euler(0.0, 0.0, psi))
        expected = np.sin((j2 + 1) * psi / 2) / np.sin(psi / 2)
        assert abs(trace - expected) < 1e-11


def test_wigner_inverse_is_conjugate_transpose():
    rep = WignerD(4)
    for g in haar_random(RNG, 10):
        inverse = su2_euler_angles(su2_matrices(g).conj().T)
        assert np.max(np.abs(rep.euler(*inverse) - rep.euler(*g).conj().T)) < 1e-11


def test_ad_map_reproduces_class_sphere_direction():
    for _ in range(15):
        phi = RNG.uniform(0, 2 * np.pi)
        theta = RNG.uniform(0, np.pi)
        psi = RNG.uniform(-2 * np.pi, 2 * np.pi)
        # the adjoint map of g sends sigma3 to n . sigma
        g = WignerD(1).euler(phi, theta, psi)
        n_hat = 0.5 * np.einsum("aij,ji->a", PAULI, g @ PAULI[2] @ g.conj().T).real
        expected = np.array(
            [np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.cos(theta)]
        )
        assert np.max(np.abs(n_hat - expected)) < 1e-12


def test_sphere_quadrature_normalization_and_exactness():
    for n_theta in [2, 8, 31, 61, 64]:
        quad = SphereQuadrature.build(n_theta, 16)
        assert abs(np.sum(quad.theta_weights) - 1.0) < 1e-14
        # Gauss-Legendre in cos(theta): exact for degree <= 2 n - 1 polynomials
        x = np.cos(quad.theta)
        for k in range(2 * quad.n_theta - 1):
            numeric = np.sum(quad.theta_weights * x**k)
            exact = 0.0 if k % 2 else 1.0 / (k + 1)
            assert abs(numeric - exact) < 1e-13
    with pytest.raises(ValueError):
        SphereQuadrature.build(1, 16)
    with pytest.raises(TypeError):
        SphereQuadrature.build(2.5, 16)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 24, 31, 32, 61, 64, 65, 130, 200])
def test_sphere_rule_matches_the_decimal_gauss_legendre_rule(n):
    quad = SphereQuadrature.build(n, 2)
    theta, w = quad.theta, 2.0 * quad.theta_weights
    x, w_ref = oracle_gauss_legendre(n)
    assert np.max(np.abs(np.cos(theta) - x)) <= 1e-15
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-13
    # mirror-symmetric bit for bit; the middle node of an odd order is pi/2
    half = n // 2
    assert np.array_equal(theta[:half], np.pi - theta[::-1][:half])
    assert np.array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 4e-15
    if n % 2:
        assert theta[half] == np.pi / 2


def test_sphere_rule_needs_no_numpy_leggauss(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy's leggauss was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    quad = SphereQuadrature.build(32, 4)
    assert quad.theta.shape == quad.theta_weights.shape == (32,)


def test_sphere_rule_temporaries_stay_blocked():
    # an eigenvalue rule holds n^2 doubles (32 MB here); the blocked series peaks near 3.6 MiB
    tracemalloc.start()
    try:
        SphereQuadrature.build(2000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_closed_form_values():
    assert closed_form_eigenvalue(0, 1.234) == 1.0
    assert abs(closed_form_eigenvalue(2, np.pi) + 1 / 3) < 1e-15
    assert abs(closed_form_eigenvalue(1, np.pi / 2) - 1 / np.sqrt(2)) < 1e-15
    assert abs(closed_form_eigenvalue(1, 1e-9) - 1.0) < 1e-12  # small-angle limit
    for psi in [0.0, 2 * np.pi, -0.5, 7.0]:
        with pytest.raises(ValueError):
            closed_form_eigenvalue(1, psi)


@pytest.mark.parametrize("j2", list(range(0, 13)))
def test_quadrature_matches_closed_form(j2):
    quad = SphereQuadrature.build(32, 64)
    for psi in PSI_GRID:
        op = class_operator_quadrature(j2, psi, quad)
        lam = closed_form_eigenvalue(j2, psi)
        assert np.max(np.abs(op - lam * np.eye(j2 + 1))) < 1e-11
        # scalar matrix (Schur): off-diagonal part is numerically zero
        off = op - np.diag(np.diag(op))
        assert np.max(np.abs(off)) < 1e-12
        # trace consistency
        assert abs(np.trace(op) - (j2 + 1) * lam) < 1e-10


def test_quadrature_reference_values():
    quad = SphereQuadrature.build(16, 32)
    assert np.max(np.abs(class_operator_quadrature(0, 1.0, quad) - 1.0)) < 1e-14
    assert np.max(np.abs(class_operator_quadrature(1, np.pi, quad))) < 1e-12
    op = class_operator_quadrature(1, np.pi / 2, quad)
    assert np.max(np.abs(op - (1 / np.sqrt(2)) * np.eye(2))) < 1e-10
    with pytest.raises(ValueError):
        class_operator_quadrature(1, 0.0, quad)
    with pytest.raises(ValueError):
        class_operator_quadrature(1, 2 * np.pi, quad)


@pytest.mark.parametrize("rule", SU2_TABLE_RULES)
def test_quadrature_of_an_angle_sequence_stacks_the_single_angles(rule):
    quad = SphereQuadrature.build(*rule)
    for j2 in range(0, 13):
        stacked = class_operator_quadrature(j2, PSI_GRID, quad)
        assert stacked.shape == (len(PSI_GRID), j2 + 1, j2 + 1)
        assert np.array_equal(stacked, np.stack([class_operator_quadrature(j2, psi, quad) for psi in PSI_GRID]))
    with pytest.raises(ValueError):
        class_operator_quadrature(1, [1.0, 2 * np.pi], quad)
    with pytest.raises(ValueError):
        class_operator_quadrature(1, [[1.0]], quad)


@pytest.mark.parametrize("j2", [20, 21])
def test_sphere_rule_for_spin_is_tight(j2):
    # the derived rule is exact; one node fewer in either direction aliases
    def error(n_theta, n_phi):
        op = class_operator_quadrature(j2, 2.5, SphereQuadrature.build(n_theta, n_phi))
        return np.max(np.abs(op - closed_form_eigenvalue(j2, 2.5) * np.eye(j2 + 1)))

    n_theta, n_phi = sphere_rule_for_spin(j2, (2, 2))
    assert error(n_theta, n_phi) < 1e-13
    assert error(n_theta - 1, n_phi) > 1e-3
    assert error(n_theta, n_phi - 1) > 1e-3
    assert sphere_rule_for_spin(j2, (32, 64)) == (32, 64)


def test_quadrature_convergence_monotone():
    # errors fall (up to a 1e-13 floor) as n_theta doubles from 4 to 64
    for j2 in [1, 4, 7, 12]:
        for psi in PSI_GRID:
            errors = []
            for n_theta in [4, 8, 16, 32, 64]:
                quad = SphereQuadrature.build(n_theta, 2 * n_theta)
                op = class_operator_quadrature(j2, psi, quad)
                target = closed_form_eigenvalue(j2, psi) * np.eye(j2 + 1)
                errors.append(np.max(np.abs(op - target)))
            for coarse, fine in zip(errors, errors[1:]):
                assert fine <= coarse or fine < 1e-13, (j2, psi, errors)


def test_weighted_operator_trivial_weight():
    quad = SphereQuadrature.build(16, 32)
    for j2 in [1, 2, 4]:
        for psi in [0.9, 2.4]:
            weighted = weighted_class_operator_su2(j2, psi, [(0, 0, 1.0)], quad)
            plain = class_operator_quadrature(j2, psi, quad)
            assert np.max(np.abs(weighted - plain)) < 1e-12


def test_weighted_operator_linear_in_weight():
    quad = SphereQuadrature.build(16, 32)
    a = weighted_class_operator_su2(2, 1.1, [(2, 0, 1.0)], quad)
    b = weighted_class_operator_su2(2, 1.1, [(2, 1, 1.0)], quad)
    c = weighted_class_operator_su2(2, 1.1, [(2, 0, 2.0), (2, 1, -1j)], quad)
    assert np.max(np.abs(c - (2.0 * a - 1j * b))) < 1e-13


def test_weighted_operator_kills_nonconstant_weights_in_trivial_rep():
    quad = SphereQuadrature.build(16, 32)
    out = weighted_class_operator_su2(0, 1.3, [(2, 0, 1.0), (4, 3, 0.5)], quad)
    assert np.max(np.abs(out)) < 1e-12


def test_weighted_operator_rejects_half_integer_weight():
    quad = SphereQuadrature.build(8, 16)
    with pytest.raises(ValueError, match="no circle-fixed vector"):
        weighted_class_operator_su2(1, 1.0, [(1, 0, 1.0)], quad)
    with pytest.raises(ValueError):
        weighted_class_operator_su2(1, 1.0, [(2, 5, 1.0)], quad)
    with pytest.raises(ValueError):
        fixed_column_index(3)
    assert fixed_column_index(4) == 2


def test_weighted_rows_yield_every_row_of_each_spin_in_order():
    quad = SphereQuadrature.build(12, 24)
    j2, psi = 3, 2.3
    spins = [4, 0, 2]
    yielded = weighted_class_operator_rows_su2(j2, psi, spins, quad)
    assert [l2 for l2, _ in yielded] == spins
    for l2, rows in weighted_class_operator_rows_su2(j2, psi, spins, quad):
        assert rows.shape == (l2 + 1, j2 + 1, j2 + 1)
        for k in range(l2 + 1):
            expect = oracle_phi_sum_weighted_operator(j2, psi, [(l2, k, 1.0)], quad)
            assert np.max(np.abs(rows[k] - expect)) < 1e-13
    # spins and psi are refused at the call, before any row is asked for
    with pytest.raises(ValueError, match="no circle-fixed vector"):
        weighted_class_operator_rows_su2(j2, psi, [2, 1], quad)
    with pytest.raises(ValueError, match="psi"):
        weighted_class_operator_rows_su2(j2, 0.0, [2], quad)


# ---------------------------------------------------------------------------
# separated integrals: the closed-form phi moments against phi sums over the nodes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule", [(4, 8), (8, 5), (16, 3)])
def test_phi_closed_form_matches_node_sum_on_aliased_rules(rule):
    # weight differences reach n_phi here, so the phi rule aliases; the closed
    # form must give exactly what the nodes sum, aliasing included
    quad = SphereQuadrature.build(*rule)
    aliased = 0.0
    for j2 in range(13):
        for psi in PSI_GRID:
            expect = oracle_phi_sum_class_operator(j2, psi, quad)
            assert np.max(np.abs(class_operator_quadrature(j2, psi, quad) - expect)) < 1e-13
            aliased = max(aliased, float(np.max(np.abs(expect - np.diag(np.diag(expect))))))
        for l2 in range(0, 9, 2):
            for i in range(l2 + 1):
                terms = [(l2, i, 1.0), (l2 // 2 * 2, l2 // 2, 0.5 - 0.25j)]
                expect = oracle_phi_sum_weighted_operator(j2, 2.1, terms, quad)
                got = weighted_class_operator_su2(j2, 2.1, terms, quad)
                assert np.max(np.abs(got - expect)) < 1e-13
    assert aliased > 1e-3


def test_separated_integrals_match_node_sums_up_to_j2_40():
    for j2 in range(41):
        quad = SphereQuadrature.build(*sphere_rule_for_spin(j2, (2, 2)))
        for psi in (0.4, 2.9):
            expect = oracle_phi_sum_class_operator(j2, psi, quad)
            assert np.max(np.abs(class_operator_quadrature(j2, psi, quad) - expect)) < 1e-13
    for j2, rule in [(13, (24, 48)), (28, (21, 41)), (40, (41, 81)), (40, (12, 30))]:
        quad = SphereQuadrature.build(*rule)
        terms = [(0, 0, 1.0), (2, 1, -0.5j), (20, 3, 0.25), (40, 20, 1.5), (40, 33, 0.5 + 1j)]
        expect = oracle_phi_sum_weighted_operator(j2, 1.7, terms, quad)
        got = weighted_class_operator_su2(j2, 1.7, terms, quad)
        assert np.max(np.abs(got - expect)) < 1e-13


@pytest.mark.parametrize("j2", [41, 60, 80, 119, 120])
def test_class_operator_matches_node_sums_up_to_the_spin_cap(j2):
    # the J_y-eigenbasis sum against full little-d stacks and phi node sums,
    # on the floor rule, every table rule and one rule that aliases at an odd
    # n_phi; each angle of the sequence gets the bits of its own call.  The
    # Toeplitz factor and its transpose differ in entry (m', m) by (-1)^(m'-m),
    # so only odd aliasing can tell them apart.
    for rule in [sphere_rule_for_spin(j2, (32, 64)), *SU2_TABLE_RULES, (j2 // 4 + 1, j2 // 2 | 1)]:
        quad = SphereQuadrature.build(*rule)
        ops = class_operator_quadrature(j2, (0.4, 2.9), quad)
        for psi, op in zip((0.4, 2.9), ops):
            assert np.max(np.abs(op - oracle_phi_sum_class_operator(j2, psi, quad))) < 1e-13
            assert np.array_equal(op, class_operator_quadrature(j2, psi, quad))


def test_class_operator_builds_no_little_d_at_the_spin_cap(monkeypatch):
    # a (T, d, d) little-d stack at j2 = 120 on the 61 x 121 floor rule and the
    # T * d^3 sum over it peaked at 93 MB traced for two angles; in the J_y
    # eigenbasis the call peaked at 1.8 MB (CPython 3.11, numpy 2.4)
    quad = SphereQuadrature.build(*sphere_rule_for_spin(MAX_J2, (32, 64)))
    class_operator_quadrature(MAX_J2, [1.0, 2.0], quad)   # fills the eigenbasis cache

    def refuse(*args):
        raise AssertionError("class_operator_quadrature evaluated little-d")

    monkeypatch.setattr(WignerD, "little_d", refuse)
    monkeypatch.setattr("classops.su2._little_d_column", refuse)
    tracemalloc.start()
    try:
        class_operator_quadrature(MAX_J2, [1.0, 2.0], quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, f"peak traced allocation {peak} B"


@pytest.mark.parametrize("rule", [(24, 48), (6, 5)])
def test_batched_wigner_eckart_rows_match_per_term_operators(rule):
    # every (sigma, alpha, k) row of the report, half-integer sigma included,
    # against the prediction minus a per-term operator summed over the phi nodes
    psi = 1.3
    quad = SphereQuadrature.build(*rule)
    rows, _ = su2_wigner_eckart_report(8, psi, rule)
    it = iter(rows)
    for sigma2 in range(1, 9):
        tab = su2_coupling_table(sigma2)
        t_sigma_g0 = WignerD(sigma2).euler(0.0, 0.0, psi)
        for alpha2 in tab.gammas:
            col = fixed_column_index(alpha2)
            for k in range(alpha2 + 1):
                row = next(it)
                assert (row.sigma, row.alpha, row.k, row.l) == (sigma2, alpha2, k, col)
                pred, _ = oracle_wigner_eckart_matrix(tab, alpha2, alpha2 + 1, k, col, t_sigma_g0)
                expect = oracle_phi_sum_weighted_operator(sigma2, psi, [(alpha2, k, 1.0)], quad)
                assert abs(row.max_dev - np.max(np.abs(pred - expect))) < 1e-13
    assert next(it, None) is None


def test_convergence_rows_keep_the_per_point_order():
    batched = su2_convergence_rows()
    single = [
        row
        for j2 in range(1, 13)
        for psi in PSI_GRID
        for row in su2_convergence_rows([j2], [psi], SU2_TABLE_RULES)
    ]
    key = lambda r: (r.j2, r.psi, r.n_theta, r.n_phi, r.closed_form_value)  # noqa: E731
    assert [key(r) for r in batched] == [key(r) for r in single]
    assert max(abs(a.max_abs_error - b.max_abs_error) for a, b in zip(batched, single)) < 1e-14


def test_weighted_operator_covariance():
    # conjugating by D(g) translates the weight: the tensor-operator property
    quad = SphereQuadrature.build(24, 48)
    j2, l2, psi = 2, 2, 1.2
    rep = WignerD(j2)
    wrep = WignerD(l2)
    for g in haar_random(RNG, 5):
        d_g, d_weight = rep.euler(*g), wrep.euler(*g)
        for i in range(l2 + 1):
            op = weighted_class_operator_su2(j2, psi, [(l2, i, 1.0)], quad)
            conjugated = d_g @ op @ d_g.conj().T
            # lambda(g) conj(t_{i0}) = sum_s D_{si}(g) conj(t_{s0})
            coeffs = [(l2, s, d_weight[s, i]) for s in range(l2 + 1)]
            moved = weighted_class_operator_su2(j2, psi, coeffs, quad)
            assert np.max(np.abs(conjugated - moved)) < 1e-10


@pytest.mark.parametrize("counts", [(5, 4, 8), (9, 6, 18), (13, 8, 26), (2, 2, 2), (12, 8, 24), (19, 10, 38)])
def test_haar_quadrature_matches_its_own_formula_bit_for_bit(counts):
    angles, weights = su2_haar_quadrature(*counts)
    oracle_angles, oracle_weights = oracle_su2_haar_quadrature(*counts)
    assert np.array_equal(angles, oracle_angles) and np.array_equal(weights, oracle_weights)


def test_haar_quadrature_schur_orthogonality():
    angles, weights = su2_haar_quadrature(12, 8, 24)
    assert abs(np.sum(weights) - 1) < 1e-13
    rep1, rep2 = WignerD(1), WignerD(2)
    vals1 = np.array([rep1.euler(*a) for a in angles])
    vals2 = np.array([rep2.euler(*a) for a in angles])
    ip11 = np.einsum("n,nij,nkl->ijkl", weights, vals1.conj(), vals1)
    expected = np.einsum("ik,jl->ijkl", np.eye(2), np.eye(2)) / 2
    assert np.max(np.abs(ip11 - expected)) < 1e-13
    ip12 = np.einsum("n,nij,nkl->ijkl", weights, vals1.conj(), vals2)
    assert np.max(np.abs(ip12)) < 1e-13
    with pytest.raises(ValueError):
        su2_haar_quadrature(1, 4, 4)


def test_haar_random_is_approximately_uniform():
    # first moment of the defining representation vanishes under Haar
    samples = haar_random(np.random.default_rng(99), 40_000)
    mean = np.mean(su2_matrices(samples), axis=0)
    assert np.max(np.abs(mean)) < 0.02
