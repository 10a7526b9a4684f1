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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_J2",
    "PAULI",
    "SU2Element",
    "WignerD",
    "SphereQuadrature",
    "class_operator_quadrature",
    "closed_form_eigenvalue",
    "weighted_class_operator_su2",
    "ad_map",
    "haar_random",
    "su2_haar_quadrature",
    "fixed_column_index",
]

# Largest accepted doubled spin.  Up to here the J_y-eigenbasis little-d is
# unitary to 1e-12 (tests/test_su2.py checks every j2 up to the cap).
MAX_J2 = 120

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


class SU2Element:
    """An SU(2) element stored by its Cayley-Klein parameters (a, b)."""

    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex, renormalize: bool = True):
        if renormalize:
            norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            if not 0.5 < norm < 2.0:
                raise ValueError("(a, b) is too far from the unit sphere")
            a, b = a / norm, b / norm
        self.a = complex(a)
        self.b = complex(b)

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls(1.0, 0.0, renormalize=False)

    @classmethod
    def from_euler(cls, phi: float, theta: float, psi: float) -> "SU2Element":
        a = np.cos(theta / 2) * np.exp(0.5j * (phi + psi))
        b = 1j * np.sin(theta / 2) * np.exp(0.5j * (phi - psi))
        return cls(a, b)

    @classmethod
    def exp(cls, vec: np.ndarray) -> "SU2Element":
        """exp(i x . sigma) for a real 3-vector x."""
        vec = np.asarray(vec, dtype=float)
        r = float(np.linalg.norm(vec))
        if r < 1e-300:
            return cls.identity()
        unit = vec / r
        a = np.cos(r) + 1j * np.sin(r) * unit[2]
        b = 1j * np.sin(r) * (unit[0] - 1j * unit[1])
        return cls(a, b)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]], dtype=complex
        )

    def __mul__(self, other: "SU2Element") -> "SU2Element":
        a = self.a * other.a + self.b * (-np.conj(other.b))
        b = self.a * other.b + self.b * np.conj(other.a)
        return SU2Element(a, b)

    def inverse(self) -> "SU2Element":
        return SU2Element(np.conj(self.a), -self.b, renormalize=False)

    def euler_angles(self) -> tuple[float, float, float]:
        """Angles (phi, theta, psi) with phi in [0, 2pi), theta in [0, pi],
        psi in [-2pi, 2pi), composing back to this element."""
        theta = 2.0 * np.arctan2(abs(self.b), abs(self.a))
        if abs(self.b) < 1e-15:
            phi, psi = 0.0, 2.0 * np.angle(self.a)
        elif abs(self.a) < 1e-15:
            psi, phi = 0.0, 2.0 * (np.angle(self.b) - np.pi / 2)
        else:
            s = 2.0 * np.angle(self.a)               # phi + psi, mod 4pi
            d = 2.0 * (np.angle(self.b) - np.pi / 2)  # phi - psi, mod 4pi
            phi, psi = (s + d) / 2.0, (s - d) / 2.0
        phi_mod = float(np.mod(phi, 2 * np.pi))
        psi = psi + (phi - phi_mod)                   # keep phi+psi, phi-psi intact mod 4pi
        psi = float(np.mod(psi + 2 * np.pi, 4 * np.pi) - 2 * np.pi)
        return phi_mod, float(theta), psi

    def __repr__(self) -> str:
        return f"SU2Element(a={self.a:.6f}, b={self.b:.6f})"


def haar_random(rng: np.random.Generator, count: int) -> list[SU2Element]:
    """Haar-uniform samples (uniform on the unit 3-sphere)."""
    raw = rng.standard_normal((count, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return [SU2Element(x[0] + 1j * x[1], x[2] + 1j * x[3], renormalize=False) for x in raw]


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

    def __call__(self, g: SU2Element) -> np.ndarray:
        return self.euler(*g.euler_angles())

    def character(self, psi: float) -> float:
        """Character of g(psi): sin((2j+1) psi/2) / sin(psi/2)."""
        half = psi / 2.0
        if abs(np.sin(half)) < 1e-12:
            sign = np.cos((self.j2 + 1) * half) / np.cos(half) if abs(np.cos(half)) > 1e-12 else 1.0
            return float(self.dim * np.sign(sign) if self.j2 else 1.0)
        return float(np.sin((self.j2 + 1) * half) / np.sin(half))


def fixed_column_index(j2: int) -> int:
    """Index of the circle-fixed (m = 0) column for an integer spin."""
    j2 = _check_spin(j2)
    if j2 % 2:
        raise ValueError("half-integer spins have no circle-fixed vector")
    return j2 // 2


# ---------------------------------------------------------------------------
# quadrature over the class sphere and over the whole group
# ---------------------------------------------------------------------------


@dataclass
class SphereQuadrature:
    """Product rule on the class sphere: Gauss-Legendre in cos(theta), uniform phi.

    Weights are normalized so the constant 1 integrates to 1; the theta rule
    is exact for polynomials of degree <= 2 n_theta - 1 in cos(theta).
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
        x, w = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(x)
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        return cls(n_theta=n_theta, n_phi=n_phi, theta=theta, theta_weights=w / 2.0, phi=phi)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.theta_weights))


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


def class_operator_quadrature(j2: int, psi: float, quad: SphereQuadrature) -> np.ndarray:
    """Quadrature of the class-operator integral in the spin-(j2/2) representation.

    Integrates D(g(phi) h(theta) g(psi) h(theta)^-1 g(phi)^-1) over the class
    sphere.  The uniform phi average multiplies entry (m', m) by the discrete
    phase mean of e^{i(m'-m)(phi - pi/2)}, which keeps the aliasing behaviour
    of the finite phi rule while letting the theta sum run vectorized.
    """
    j2 = _check_spin(j2)
    psi = _check_psi(psi)
    rep = WignerD(j2)
    d_stack = rep.little_d(quad.theta)                      # (T, d, d)
    # core = sum_t w_t d_t E(psi) d_t^T, contracted over (t, j) as one matmul
    left = (d_stack * quad.theta_weights[:, None, None]) * rep.weight_phases(psi)
    core = np.tensordot(left, d_stack, axes=([0, 2], [0, 2]))
    phase_mean = _phi_phases(quad.phi, rep.dim).mean(axis=1)[_difference_index(rep.dim)]
    return phase_mean * core


def _phi_phases(phi: np.ndarray, dim: int) -> np.ndarray:
    """e^{i k (phi - pi/2)} for every weight difference k = -(d-1), ..., d-1; shape (2d-1, P)."""
    return np.exp(1j * np.multiply.outer(np.arange(1 - dim, dim), phi - np.pi / 2.0))


def _difference_index(dim: int) -> np.ndarray:
    """Row of _phi_phases holding m_i - m_l for entry (i, l): m_i - m_l = l - i."""
    idx = np.arange(dim)
    return idx[None, :] - idx[:, None] + dim - 1


def weighted_class_operator_su2(
    j2: int,
    psi: float,
    weight_terms,
    quad: SphereQuadrature,
) -> np.ndarray:
    """Weighted class operator with a band-limited weight on the class sphere.

    ``weight_terms`` is an iterable of (l2, i, coeff): the weight function is
    sum coeff * conj(D^{l}_{i, m=0}) evaluated at the coset representative
    g(phi) h(theta).  Only integer l (even l2) is admissible; half-integer
    spins have no circle-fixed vector so no such weight exists.
    """
    j2 = _check_spin(j2)
    psi = _check_psi(psi)
    terms = [(int(l2), int(i), complex(c)) for (l2, i, c) in weight_terms]
    for l2, i, _ in terms:
        if l2 % 2:
            raise ValueError(
                "half-integer weight spin rejected: no circle-fixed vector exists"
            )
        if not 0 <= i <= l2:
            raise ValueError(f"weight row index {i} out of range for l2={l2}")
    rep = WignerD(j2)
    d_stack = rep.little_d(quad.theta)                      # (T, d, d)
    conj_core = (d_stack * rep.weight_phases(psi)) @ d_stack.transpose(0, 2, 1)  # d E(psi) d^T
    # weight values at each node
    values = np.zeros((quad.n_phi, quad.n_theta), dtype=complex)
    for l2, i, coeff in terms:
        wrep = WignerD(l2)
        col = fixed_column_index(l2)
        wd = wrep.little_d(quad.theta)[:, i, col]           # (T,)
        lphase = np.exp(0.5j * wrep.m2[i] * (quad.phi - np.pi / 2.0))
        right = wrep.weight_phases(np.pi / 2.0)[col]
        # D^{l}(g(phi)h(theta))_{i, col} = e^{i m_i (phi-pi/2)} d_{i,col}(theta) * right
        values += coeff * np.conj(np.multiply.outer(lphase, wd) * right)
    # sum over nodes of w_t f(phi, theta) E(phi-pi/2) core_t E(phi-pi/2)^H: the
    # phi sum only sees the weight difference m_i - m_l of entry (i, l)
    phi_sums = _phi_phases(quad.phi, rep.dim) @ (values * quad.theta_weights)  # (2d-1, T)
    out = np.einsum("til,ilt->il", conj_core, phi_sums[_difference_index(rep.dim)])
    return out / quad.n_phi


def ad_map(g: SU2Element) -> np.ndarray:
    """Adjoint action on the Lie algebra in the basis {i sigma_alpha}: SO(3) image."""
    m = g.matrix
    minv = g.inverse().matrix
    out = np.empty((3, 3))
    for alpha in range(3):
        conj = m @ PAULI[alpha] @ minv
        for beta in range(3):
            out[beta, alpha] = 0.5 * np.trace(PAULI[beta] @ conj).real
    return out


def su2_haar_quadrature(
    n_phi: int, n_theta: int, n_psi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the normalized Haar integral over all of SU(2).

    Returns (angles, weights) with angles of shape (N, 3) holding Euler
    triples (phi, theta, psi) and weights summing to 1.  Exact for integrands
    that are band-limited below the node counts (matrix elements of small
    spins and their products).
    """
    if min(n_phi, n_theta, n_psi) < 2:
        raise ValueError("node counts must be >= 2")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    psi = -2 * np.pi + 4 * np.pi * np.arange(n_psi) / n_psi
    angles = np.stack(np.meshgrid(phi, theta, psi, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.tile(np.repeat(w / 2.0 / n_phi / n_psi, n_psi), n_phi)
    return angles, weights
