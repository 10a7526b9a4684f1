"""SU(2): conjugacy-class geometry, Wigner matrices, and class-operator quadrature.

Conventions (all fixed by the Euler parametrization used here):

* group elements are [[a, b], [-conj(b), conj(a)]] with |a|^2 + |b|^2 = 1;
* g(t) = exp(i t/2 sigma3), h(theta) = exp(i theta/2 sigma1), and a general
  element is g(phi) h(theta) g(psi), so a = cos(theta/2) e^{i(phi+psi)/2} and
  b = i sin(theta/2) e^{i(phi-psi)/2};
* spins are stored as doubled integers j2 = 2j; the weight basis of spin j
  is ordered m = j, j-1, ..., -j; for integer spins the m = 0 column (index
  j2 // 2) is the vector fixed by the diagonal circle subgroup;
* the conjugacy class of g(psi), 0 < psi < 2pi, is the sphere of directions
  n(phi, theta) = (sin(theta)sin(phi), sin(theta)cos(phi), cos(theta)), and
  its invariant measure of total mass 1 is (1/4pi) sin(theta) dphi dtheta.

Spin-j matrices are evaluated through the factorized Euler form
D(g(phi,theta,psi)) = E(phi - pi/2) d(theta) E(psi + pi/2), where
E(t) = diag(e^{i m t}) and d(theta) = exp(-i theta J_y) is the standard
little-d matrix; the -pi/2 shifts account for the middle rotation being
generated by sigma1 rather than sigma2.  little-d is computed in the J_y
eigenbasis, d(theta) = V diag(e^{-i m theta}) V^H with V from ``eigh`` of the
tridiagonal J_y and the exact eigenvalues m (Feng, Wang, Yang & Jin, Phys.
Rev. E 92, 043307, 2015): no factorials and no cancelling sums, so it stays
unitary to round-off at every spin up to MAX_J2.  Whole grids of Euler angles
are evaluated at once, one little-d per distinct theta.
Class-sphere integrals separate: phi enters D-function products as phases
e^{i n (phi - pi/2)} whose uniform-rule sums are closed-form, aliasing included
(``_phi_average``), so only theta is summed.  The class operator sums it in the
J_y eigenbasis, where the weighted theta sum of d(theta) E(psi) d(theta)^T is a
Hadamard product with a Toeplitz matrix of 2d - 1 phase moments: no little-d is
built.  The weighted rows sum it over one little-d stack per spin and rule.
The theta rule is Gauss-Legendre in cos(theta), found by Newton's method in
theta on the cosine series of P_n(cos theta) (Swarztrauber, SIAM J. Sci.
Comput. 24, 2002): no eigensolve, and weights within 5e-15 relative up to
n = 1000, where an eigenvalue (Golub-Welsch) rule is off by 1.7e-12 at n = 61.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import _chunks

__all__ = [
    "MAX_J2",
    "WignerD",
    "SphereQuadrature",
    "sphere_rule_for_spin",
    "class_operator_quadrature",
    "closed_form_eigenvalue",
    "weighted_class_operator_rows_su2",
    "haar_random",
    "su2_haar_quadrature",
    "fixed_column_index",
]

# Largest accepted doubled spin.  Up to here the J_y-eigenbasis little-d is
# unitary to 1e-12 (tests/test_su2.py checks every j2 up to the cap).
MAX_J2 = 120


def haar_random(rng: np.random.Generator, count: int) -> np.ndarray:
    """Euler angles (phi, theta, psi) of ``count`` Haar-uniform samples, shape (count, 3).

    A sample is a uniform point x of the unit 3-sphere, the element with
    a = x0 + i x1 and b = x2 + i x3.  Its angles have phi in [0, 2pi), theta
    in [0, pi] and psi in [-2pi, 2pi), and compose back to it; where |b| (or
    |a|) is below 1e-15, phi (or psi) is 0.
    """
    raw = rng.standard_normal((count, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    abs_a, abs_b = np.hypot(raw[:, 0], raw[:, 1]), np.hypot(raw[:, 2], raw[:, 3])
    s = 2.0 * np.arctan2(raw[:, 1], raw[:, 0])                 # phi + psi, mod 4pi
    d = 2.0 * (np.arctan2(raw[:, 3], raw[:, 2]) - np.pi / 2)   # phi - psi, mod 4pi
    phi = np.where(abs_b < 1e-15, 0.0, np.where(abs_a < 1e-15, d, (s + d) / 2.0))
    psi = np.where(abs_b < 1e-15, s, np.where(abs_a < 1e-15, 0.0, (s - d) / 2.0))
    phi_mod = np.mod(phi, 2 * np.pi)
    psi = np.mod(psi + (phi - phi_mod) + 2 * np.pi, 4 * np.pi) - 2 * np.pi  # keeps phi+psi, phi-psi mod 4pi
    return np.stack([phi_mod, 2.0 * np.arctan2(abs_b, abs_a), psi], axis=1)


# ---------------------------------------------------------------------------
# Wigner matrices
# ---------------------------------------------------------------------------


def _check_spin(j2: int) -> int:
    j2 = int(j2)
    if j2 < 0:
        raise ValueError("doubled spin j2 must be >= 0")
    if j2 > MAX_J2:
        raise ValueError(f"doubled spin j2={j2} exceeds MAX_J2={MAX_J2}")
    return j2


@lru_cache(maxsize=None)
def _jy_eigenbasis(j2: int) -> np.ndarray:
    """Eigenvectors of J_y at spin j2/2, columns ordered by ascending eigenvalue.

    J_y = (J+ - J-)/2i is Hermitian and tridiagonal in the weight basis; its
    eigenvalues are exactly m = -j, ..., j, so only the eigenvectors are taken
    from ``eigh``.  The returned array is read-only because it is shared.
    """
    m = np.arange(j2, -j2 - 2, -2) / 2.0
    j = j2 / 2.0
    raise_coeff = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))   # <m+1| J+ |m>
    jy = np.diag(-0.5j * raise_coeff, 1) + np.diag(0.5j * raise_coeff, -1)
    vectors = np.linalg.eigh(jy)[1]
    vectors.flags.writeable = False
    return vectors


def _little_d_column(j2: int, theta: np.ndarray, col: int) -> np.ndarray:
    """Column ``col`` of WignerD(j2).little_d(theta), shape (T, d), at O(d^2) per node."""
    vectors = _jy_eigenbasis(j2)
    phases = np.exp(-1j * np.multiply.outer(theta, np.arange(-j2, j2 + 1, 2) / 2.0))
    return ((phases * vectors[col].conj()) @ vectors.T).real


class WignerD:
    """The spin-(j2/2) unitary irreducible representation of SU(2)."""

    def __init__(self, j2: int):
        self.j2 = _check_spin(j2)
        self.dim = self.j2 + 1
        self.m2 = np.arange(self.j2, -self.j2 - 2, -2)  # doubled weights, descending

    def weight_phases(self, t: float) -> np.ndarray:
        """Diagonal of E(t) = exp(i t J3) = diag(e^{i m t})."""
        return np.exp(0.5j * self.m2 * t)

    def little_d(self, theta) -> np.ndarray:
        """Standard d^j(theta) = exp(-i theta J2) = V diag(e^{-i m theta}) V^H.

        V is the J_y eigenbasis; the result is real, so the imaginary round-off
        is dropped.  Vectorized over theta: shape theta.shape + (d, d).
        """
        theta = np.asarray(theta, dtype=float)
        vectors = _jy_eigenbasis(self.j2)
        phases = np.exp(-1j * np.multiply.outer(theta, self.m2[::-1] / 2.0))
        return ((vectors * phases[..., None, :]) @ vectors.conj().T).real

    def euler(self, phi, theta, psi) -> np.ndarray:
        """D(g(phi) h(theta) g(psi)) via the shifted Euler factorization.

        The angles may be arrays of one broadcast shape S; the result then has
        shape S + (d, d).  little-d is evaluated once per distinct theta.
        """
        phi, theta, psi = np.broadcast_arrays(
            *(np.asarray(angle, dtype=float) for angle in (phi, theta, psi))
        )
        nodes, where = np.unique(theta, return_inverse=True)
        middle = self.little_d(nodes)[where.reshape(theta.shape)]
        left = self.weight_phases(phi[..., None] - np.pi / 2)
        right = self.weight_phases(psi[..., None] + np.pi / 2)
        out = middle * right[..., None, :]
        out *= left[..., :, None]
        return out


def fixed_column_index(j2: int) -> int:
    """Index of the circle-fixed (m = 0) column for an integer spin."""
    j2 = _check_spin(j2)
    if j2 % 2:
        raise ValueError("half-integer spins have no circle-fixed vector")
    return j2 // 2


# ---------------------------------------------------------------------------
# quadrature over the class sphere and over the whole group
# ---------------------------------------------------------------------------


def _legendre_cosine_series(theta: np.ndarray, freqs: np.ndarray, coeffs: np.ndarray):
    """P_n(cos theta) = sum_k coeffs_k cos(freqs_k theta), and -dP_n/dtheta, to
    round-off in the sum.

    A rounded product f theta is off by up to f ulp(theta)/2, by a different
    amount in every term, and a BLAS dot product adds errors of the size of
    its partial sums; each alone put errors growing with n into the weights
    (5e-14 relative at n = 200, and 3e-14 at n = 1000).  So each product is
    carried as angles + err exactly (theta's float32 part times an integer
    f < 2^29 is exact, and err enters to first order), and the terms are
    summed pairwise.
    """
    angles = np.multiply.outer(theta, freqs)
    high = theta.astype(np.float32)
    err = (np.multiply.outer(high, freqs) - angles) + np.multiply.outer(theta - high, freqs)
    cos, sin = np.cos(angles), np.sin(angles)
    return np.sum((cos - err * sin) * coeffs, axis=-1), np.sum((sin + err * cos) * (coeffs * freqs), axis=-1)


def _gauss_legendre_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of order n as angles theta = arccos(x), in ascending
    x, and weights summing to 2.

    Newton's method in theta on the cosine series of P_n(cos theta)
    (Swarztrauber, SIAM J. Sci. Comput. 24, 2002): three steps from Tricomi's
    estimate on the nodes with theta <= pi/2, then a fourth, summed to
    round-off (``_legendre_cosine_series``).  Its slope gives the weight
    2 / (dP_n/dtheta)^2, with no 1 - x^2 to lose the endpoint weights (Hale &
    Townsend, SIAM J. Sci. Comput. 35, 2013); a fourth step above 1e-14
    raises ArithmeticError.  The other half is the mirror image, and for odd
    n the middle node is pi/2.  Nodes go in the blocks of ``groups._chunks``,
    each (node, term) pair counted as two entries: the Newton step and the
    series hold several (nodes, terms) arrays at once.
    """
    i = np.arange(1.0, n + 1)
    g = np.cumprod(np.concatenate(([1.0], (2 * i - 1) / (2 * i))))  # g_k = C(2k, k) / 4^k
    # P_n(cos t) = sum_k g_k g_{n-k} cos((n - 2k) t); fold the terms k and n - k
    k = np.arange(n // 2 + 1)
    coeffs = np.where(2 * k == n, 1.0, 2.0) * g[k] * g[n - k]
    coeffs /= coeffs.sum()  # P_n(1) = 1 takes out the drift of the running product
    freqs = n - 2.0 * k
    slopes = coeffs * freqs
    count = (n + 1) // 2
    phi = (4.0 * np.arange(1, count + 1) - 1.0) * np.pi / (4 * n + 2)
    theta = phi + (1.0 - 1.0 / n) / (8.0 * n * n) / np.tan(phi)
    weights = np.empty(count)
    for chunk in _chunks(count, 2 * len(k)):
        block = theta[chunk]
        for _ in range(3):
            angles = np.multiply.outer(block, freqs)
            block += (np.cos(angles) @ coeffs) / (np.sin(angles) @ slopes)
        value, slope = _legendre_cosine_series(block, freqs, coeffs)
        if np.max(np.abs(value / slope)) > 1e-14:
            raise ArithmeticError(f"Gauss-Legendre nodes of order {n} did not converge")
        weights[chunk] = 2.0 / slope**2
        block += value / slope
    if n % 2:
        theta[-1] = np.pi / 2
    half = n // 2
    return np.concatenate((np.pi - theta[:half], theta[::-1])), np.concatenate((weights[:half], weights[::-1]))


@dataclass
class SphereQuadrature:
    """Product rule on the class sphere: Gauss-Legendre in cos(theta), uniform phi.

    Weights are normalized so the constant 1 integrates to 1; the theta rule
    is exact for polynomials of degree <= 2 n_theta - 1 in cos(theta).  The
    theta nodes and weights come from Newton's method in the angle on the
    cosine series of P_n(cos theta) (Swarztrauber 2002,
    ``_gauss_legendre_angles``): up to n_theta = 1000, cos(theta) is within
    5e-16 of the Gauss-Legendre nodes and the weights are within 5e-15
    relative.  The rule is mirror-symmetric bit for bit, and building it
    peaks below 4 MiB at any n_theta.
    """

    n_theta: int
    n_phi: int
    theta: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray

    @classmethod
    def build(cls, n_theta: int = 16, n_phi: int = 32) -> "SphereQuadrature":
        if n_theta < 2 or n_phi < 2:
            raise ValueError("node counts must be >= 2")
        if not isinstance(n_theta, (int, np.integer)):
            raise TypeError(f"n_theta must be an integer, received {n_theta!r}")
        theta, w = _gauss_legendre_angles(n_theta)
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        return cls(n_theta=n_theta, n_phi=n_phi, theta=theta, theta_weights=w / 2.0, phi=phi)


def sphere_rule_for_spin(j2: int, floor: tuple[int, int]) -> tuple[int, int]:
    """The smallest (n_theta, n_phi), no smaller than ``floor``, that integrates
    every integrand of doubled spin up to j2 exactly: 2 n_theta > j2, n_phi > j2."""
    return max(floor[0], j2 // 2 + 1), max(floor[1], j2 + 1)


def _check_psi(psi: float) -> float:
    psi = float(psi)
    if not 0.0 < psi < 2.0 * np.pi:
        raise ValueError("psi must lie strictly between 0 and 2*pi (central classes excluded)")
    return psi


def closed_form_eigenvalue(j2: int, psi: float) -> float:
    """sin((2j+1) psi/2) / ((2j+1) sin(psi/2)); the class-operator eigenvalue."""
    j2 = _check_spin(j2)
    psi = _check_psi(psi)
    return float(np.sin((j2 + 1) * psi / 2.0) / ((j2 + 1) * np.sin(psi / 2.0)))


def class_operator_quadrature(j2: int, psi, quad: SphereQuadrature) -> np.ndarray:
    """Quadrature of the class-operator integral in the spin-(j2/2) representation.

    Integrates D(g(phi) h(theta) g(psi) h(theta)^-1 g(phi)^-1) over the class
    sphere.  The theta sum sum_t w_t d(theta_t) E(psi) d(theta_t)^T is taken in
    the J_y eigenbasis, where d(theta) = V diag(e^{-i mu theta}) V^H: it is
    V [(V^H E(psi) V) o K] V^H with the Toeplitz K[a, b] = sum_t w_t
    e^{-i (a - b) theta_t}, so no little-d is built and each angle costs O(d^3)
    whatever the rule.  The uniform phi average of entry (m', m) is the
    closed-form moment of order m' - m on the rule (``_phi_average``), aliasing
    included.  ``psi`` is one angle, shape (d, d), or a 1-D sequence of
    angles, shape (len(psi), d, d); each angle gets the same bits alone or in
    a sequence.
    """
    rep = WignerD(j2)
    psis = np.asarray(psi, dtype=float)
    if psis.ndim > 1:
        raise ValueError("psi must be one angle or a 1-D sequence of angles")
    for angle in psis.ravel():
        _check_psi(angle)
    d = rep.dim
    vectors = _jy_eigenbasis(rep.j2)
    vectors_h = vectors.conj().T
    kern = np.exp(-1j * np.multiply.outer(np.arange(1 - d, d), quad.theta)) @ quad.theta_weights
    toeplitz = kern[_difference_index(d)]   # K[a, b] = kern[a - b]: row index minus column index
    adapted = (vectors_h * rep.weight_phases(psis.reshape(-1, 1, 1))) @ vectors
    out = (vectors @ (adapted * toeplitz) @ vectors_h) * _phi_average(d, [0], quad.n_phi)
    return out if psis.ndim else out[0]


def _phi_average(dim: int, shifts, n_phi: int) -> np.ndarray:
    """(1/P) sum_p e^{i n (phi_p - pi/2)} on the uniform P-point phi rule, e^{-i n pi/2}
    where P divides n and 0 otherwise, for n = m_i - m_l - shift = l - i - shift at
    every shift and entry (i, l): a (len(shifts), dim, dim) Toeplitz gather."""
    n = np.arange(1 - dim, dim) - np.asarray(shifts)[:, None]
    average = np.where(n % n_phi == 0, np.array([1, -1j, -1, 1j])[n % 4], 0)
    return average[:, _difference_index(dim).T]


def _difference_index(dim: int) -> np.ndarray:
    """index[a, b] = a - b + dim - 1: where a - b sits in a sequence over 1 - dim .. dim - 1."""
    return np.subtract.outer(np.arange(dim), np.arange(dim)) + (dim - 1)


def weighted_class_operator_rows_su2(j2: int, psi: float, weight_spins, quad: SphereQuadrature):
    """The weighted class operators of every row of each weight spin, one spin at a time.

    Yields (l2, rows) for each doubled weight spin l2 of ``weight_spins``, in
    order, where rows[k], shape (d, d), has the weight conj(D^{l}_{k, m=0}).
    The spins and psi are checked, and the core w_t d_t E(psi) d_t^T on every
    theta node is built once, before the first spin.  The phi sum is
    closed-form on the rule; each weight spin costs one column of little-d.
    """
    j2 = _check_spin(j2)
    psi = _check_psi(psi)
    spins = [int(l2) for l2 in weight_spins]
    for l2 in spins:
        fixed_column_index(l2)  # refuses half-integer weight spins: they have no circle-fixed vector
    rep = WignerD(j2)
    d_stack = rep.little_d(quad.theta)
    core = (d_stack * (quad.theta_weights[:, None, None] * rep.weight_phases(psi))) @ d_stack.transpose(0, 2, 1)
    return ((l2, _weighted_rows(core, l2, quad)) for l2 in spins)


def _weighted_rows(core: np.ndarray, l2: int, quad: SphereQuadrature) -> np.ndarray:
    """Weighted class operators for the weights conj(D^{l}_{k, m=0}) of every
    row k, shape (l2 + 1, d, d): one (k, T) @ (T, d^2) product with the core,
    entry (i, l) of row k masked by the phi moment of order m_i - m_l - m_k."""
    t, d = core.shape[:2]
    column = _little_d_column(l2, quad.theta, fixed_column_index(l2))   # (T, l2 + 1)
    out = (column.T @ core.reshape(t, d * d)).reshape(l2 + 1, d, d)
    out *= _phi_average(d, l2 // 2 - np.arange(l2 + 1), quad.n_phi)
    return out


def su2_haar_quadrature(
    n_phi: int, n_theta: int, n_psi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the normalized Haar integral over all of SU(2).

    Returns (angles, weights) with angles of shape (N, 3) holding Euler
    triples (phi, theta, psi) and weights summing to 1.  Exact for integrands
    that are band-limited below the node counts (matrix elements of small
    spins and their products).  The (phi, theta) rule is the class-sphere rule
    ``SphereQuadrature.build(n_theta, n_phi)``; psi runs uniformly over [-2pi, 2pi).
    """
    if n_psi < 2:
        raise ValueError("node counts must be >= 2")
    sphere = SphereQuadrature.build(n_theta, n_phi)
    psi = -2 * np.pi + 4 * np.pi * np.arange(n_psi) / n_psi
    angles = np.stack(np.meshgrid(sphere.phi, sphere.theta, psi, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.tile(np.repeat(sphere.theta_weights / n_phi / n_psi, n_psi), n_phi)
    return angles, weights
