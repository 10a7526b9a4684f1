"""SU(2) elements, Wigner matrices, class-operator quadrature, weighted operators."""

import numpy as np
import pytest

from classops.su2 import (
    MAX_J2,
    PAULI,
    SU2Element,
    SphereQuadrature,
    WignerD,
    ad_map,
    class_operator_quadrature,
    closed_form_eigenvalue,
    fixed_column_index,
    haar_random,
    su2_haar_quadrature,
    weighted_class_operator_su2,
)
from helpers import oracle_little_d

RNG = np.random.default_rng(12)

PSI_GRID = [np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, np.pi, 3 * np.pi / 2]


def test_element_invariants():
    g = SU2Element.from_euler(0.7, 1.1, -0.4)
    m = g.matrix
    assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-14
    assert abs(np.linalg.det(m) - 1) < 1e-14
    assert np.max(np.abs((g * g.inverse()).matrix - np.eye(2))) < 1e-14


def test_renormalization_after_long_products():
    g = SU2Element.identity()
    step = SU2Element.from_euler(0.1, 0.2, 0.3)
    for _ in range(10_000):
        g = g * step
    assert abs(abs(g.a) ** 2 + abs(g.b) ** 2 - 1) < 1e-14


def test_euler_round_trip():
    specials = [
        SU2Element.identity(),
        SU2Element(-1, 0, renormalize=False),
        SU2Element(np.exp(0.3j), 0, renormalize=False),
        SU2Element(0, np.exp(0.9j), renormalize=False),
        SU2Element(0, 1, renormalize=False),
    ]
    for g in haar_random(RNG, 300) + specials:
        phi, theta, psi = g.euler_angles()
        assert 0 <= phi < 2 * np.pi
        assert 0 <= theta <= np.pi + 1e-12
        assert -2 * np.pi <= psi < 2 * np.pi
        h = SU2Element.from_euler(phi, theta, psi)
        assert abs(g.a - h.a) < 1e-10 and abs(g.b - h.b) < 1e-10


def test_exponential_map():
    for psi in [0.3, 1.2, 2.9]:
        direct = SU2Element.exp(np.array([0.0, 0.0, psi / 2]))
        euler = SU2Element.from_euler(0.0, 0.0, psi)
        assert abs(direct.a - euler.a) < 1e-13 and abs(direct.b - euler.b) < 1e-13
    assert abs(SU2Element.exp(np.zeros(3)).a - 1) == 0
    # exp matches the matrix exponential on random directions
    import scipy.linalg

    for _ in range(10):
        x = RNG.standard_normal(3)
        lhs = SU2Element.exp(x).matrix
        rhs = scipy.linalg.expm(1j * np.einsum("i,ijk->jk", x, PAULI))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("j2", [1, 2, 3, 4, 7, 12])
def test_wigner_homomorphism_and_unitarity(j2):
    rep = WignerD(j2)
    for _ in range(15):
        u, v = haar_random(RNG, 2)
        mu, mv = rep(u), rep(v)
        assert np.max(np.abs(mu @ mu.conj().T - np.eye(rep.dim))) < 1e-12
        assert np.max(np.abs(mu @ mv - rep(u * v))) < 1e-10


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
    for g in haar_random(RNG, 25):
        assert np.max(np.abs(rep(g) - g.matrix)) < 1e-12


@pytest.mark.parametrize("j2", [0, 1, 2, 5, 9])
def test_wigner_character(j2):
    rep = WignerD(j2)
    for psi in [0.4, 1.0, 2.2, 3.9, 5.5]:
        trace = np.trace(rep.euler(0.0, 0.0, psi))
        expected = np.sin((j2 + 1) * psi / 2) / np.sin(psi / 2)
        assert abs(trace - expected) < 1e-11
        assert abs(trace - rep.character(psi)) < 1e-11


def test_wigner_inverse_is_conjugate_transpose():
    rep = WignerD(4)
    for g in haar_random(RNG, 10):
        assert np.max(np.abs(rep(g.inverse()) - rep(g).conj().T)) < 1e-11


def test_ad_map():
    assert np.allclose(ad_map(SU2Element.identity()), np.eye(3))
    for _ in range(20):
        u, v = haar_random(RNG, 2)
        ru, rv = ad_map(u), ad_map(v)
        assert np.max(np.abs(ru @ ru.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(ru) - 1) < 1e-12
        assert np.max(np.abs(ru @ rv - ad_map(u * v))) < 1e-12
    # g(phi) is the rotation by phi about the 3-axis
    phi = 0.8
    r = ad_map(SU2Element.from_euler(phi, 0.0, 0.0))
    assert abs(r[2, 2] - 1) < 1e-14
    assert abs(np.trace(r) - (1 + 2 * np.cos(phi))) < 1e-12
    # direct conjugation of each Pauli matrix agrees
    g = SU2Element.from_euler(phi, 0.0, 0.0).matrix
    for a in range(3):
        conj = g @ PAULI[a] @ g.conj().T
        recon = sum(r[b, a] * PAULI[b] for b in range(3))
        assert np.max(np.abs(conj - recon)) < 1e-12


def test_ad_map_reproduces_class_sphere_direction():
    for _ in range(15):
        phi = RNG.uniform(0, 2 * np.pi)
        theta = RNG.uniform(0, np.pi)
        psi = RNG.uniform(-2 * np.pi, 2 * np.pi)
        r = ad_map(SU2Element.from_euler(phi, theta, psi))
        n_hat = r @ np.array([0.0, 0.0, 1.0])
        expected = np.array(
            [np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.cos(theta)]
        )
        assert np.max(np.abs(n_hat - expected)) < 1e-12


def test_sphere_quadrature_normalization_and_exactness():
    quad = SphereQuadrature.build(8, 16)
    assert abs(quad.total_weight - 1.0) < 1e-14
    # Gauss-Legendre in cos(theta): exact for degree <= 2 n - 1 polynomials
    x = np.cos(quad.theta)
    for k in range(2 * quad.n_theta - 1):
        numeric = np.sum(quad.theta_weights * x**k)
        exact = 0.0 if k % 2 else 1.0 / (k + 1)
        assert abs(numeric - exact) < 1e-13
    with pytest.raises(ValueError):
        SphereQuadrature.build(1, 16)


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


def test_weighted_operator_covariance():
    # conjugating by D(g) translates the weight: the tensor-operator property
    quad = SphereQuadrature.build(24, 48)
    j2, l2, psi = 2, 2, 1.2
    rep = WignerD(j2)
    wrep = WignerD(l2)
    for g in haar_random(RNG, 5):
        for i in range(l2 + 1):
            op = weighted_class_operator_su2(j2, psi, [(l2, i, 1.0)], quad)
            conjugated = rep(g) @ op @ rep(g).conj().T
            # lambda(g) conj(t_{i0}) = sum_s D_{si}(g) conj(t_{s0})
            coeffs = [(l2, s, wrep(g)[s, i]) for s in range(l2 + 1)]
            moved = weighted_class_operator_su2(j2, psi, coeffs, quad)
            assert np.max(np.abs(conjugated - moved)) < 1e-10


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
    mean = np.mean([g.matrix for g in samples], axis=0)
    assert np.max(np.abs(mean)) < 0.02
