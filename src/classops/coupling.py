"""Coupling tables for the conjugation representation and the Wigner-Eckart map.

Index conventions (kept rigidly throughout):

* For an irrep sigma of dimension d, the operator space L(V^sigma) is spanned
  by the matrix units E_ij, and the conjugation action A -> T(g) A T(g)^-1 has
  the vectorized (row-major) matrix kron(T(g), conj(T(g))).
* A coupling table stores one array per irreducible constituent gamma: the
  adapted orthonormal basis ``basis[gamma][m, n]`` (matrices on V^sigma) of
  its copies m.  The coupling coefficients of the expansion
  E_ij = sum c(sigma i; sigmabar j | gamma m n) e^gamma_mn are no second array:
  c[i, j, m, n] = conj(e^gamma_mn[i, j]), so ``c.conj()`` is the view
  ``basis[gamma].transpose(2, 3, 0, 1)`` and every consumer folds the
  conjugation into its einsum.  The adapted copies transform with exactly the
  stored irrep matrices of gamma, and both bases are orthonormal for the
  plain Frobenius inner product tr(A B^H), which makes the coefficient matrix
  exactly unitary.
* Multiplicity-copy bases and phases are fixed deterministically: the copy
  seeds are ``_orthonormal_range`` of the averaging operator
  K_0 = (n^gamma/|G|) sum_g conj(t^gamma_00(g)) T(g) (x) conj(T(g)), Gram-Schmidt
  with the lowest index among columns of (nearly) equal residual norm, and
  every copy, finite or SU(2), has its leading entry rotated positive by
  ``_fix_column_phases``.
* The coefficients belong to sigma alone; a class C0 only picks the Z0-fixed
  basis W_alpha of each irrep.  ``rotate_coupling_table`` carries one table per
  sigma into that basis and re-seeds its copies by the rule above, so it
  equals ``conjugation_decomposition`` of the adapted irreps up to round-off.
* SU(2) tables are labeled by doubled spins and built in closed form from
  Condon-Shortley Clebsch-Gordan coefficients conjugated by the spin-sigma
  conjugation intertwiner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, copysign, factorial, sqrt

import numpy as np

from .groups import FiniteGroup, ConjugacyClass
from .representations import (
    CharacterTable,
    Irrep,
    _fix_column_phases,
    _orthonormal_range,
)
from .class_operators import weighted_class_operator
from .su2 import WignerD

__all__ = [
    "CouplingTable",
    "ZFixedBasis",
    "FrobeniusRow",
    "TensorOperatorFamily",
    "conjugation_decomposition",
    "rotate_coupling_table",
    "su2_coupling_table",
    "clebsch_gordan",
    "z_fixed_basis",
    "adapt_irreps_to_class",
    "frobenius_multiplicity_check",
    "product_expansion_residual_su2",
    "triple_product_residual_su2",
    "wigner_eckart_matrix",
    "wigner_eckart_bruteforce",
    "tensor_operator_scan",
]


@dataclass
class CouplingTable:
    """Canonical decomposition of L(V^sigma) under conjugation; the components
    gamma are the keys of ``basis``, in insertion order."""

    sigma: int                    # irrep index (finite) or doubled spin (su2)
    kind: str                     # "finite" or "su2"
    basis: dict[int, np.ndarray]  # gamma -> (m, n_gamma, d, d)

    @property
    def sigma_dim(self) -> int:
        return next(iter(self.basis.values())).shape[-1]

    @property
    def gammas(self) -> list[int]:
        return list(self.basis)

    @property
    def multiplicities(self) -> dict[int, int]:
        return {gamma: e.shape[0] for gamma, e in self.basis.items()}


@dataclass
class ZFixedBasis:
    """Orthonormal basis whose first m_alpha vectors span the Z0-fixed subspace."""

    alpha: int
    m_alpha: int
    basis: np.ndarray


@dataclass
class FrobeniusRow:
    alpha: int
    fixed_dim: int
    induced_multiplicity: int

    @property
    def equal(self) -> bool:
        return self.fixed_dim == self.induced_multiplicity


@dataclass
class TensorOperatorFamily:
    """Scan record for the operator family T^{(alpha, column)}_i in one representation;
    ``cls`` labels the base element of the class."""

    cls: str
    alpha: int
    column: int
    max_norm: float
    vanishes: bool


# ---------------------------------------------------------------------------
# finite-group coupling tables
# ---------------------------------------------------------------------------


def conjugation_decomposition(
    group: FiniteGroup,
    irreps_list: list[Irrep],
    table: CharacterTable,
    sigma: int,
) -> CouplingTable:
    """Decompose L(V^sigma) and return the coupling coefficients.

    Multiplicities are sums over the classes C of the character table of
    |C| conj(chi^gamma(C)) |chi^sigma(C)|^2 / |G|.  Each gamma-block comes from the
    averages K_q F = (n^gamma/|G|) sum_g conj(t^gamma_{q0}(g)) T(g) F T(g)^H,
    summed over T(g) directly: the copy seeds F_m are ``_orthonormal_range`` of
    K_0 (one (d^2, |G|) @ (|G|, d^2) product), and the copies e_{m q} = K_q F_m
    transform with exactly the stored t^gamma.  Another basis of the irreps
    needs no new decomposition: see ``rotate_coupling_table``.
    """
    n, d, t_sigma = group.order, irreps_list[sigma].dim, irreps_list[sigma].matrices
    t_flat = t_sigma.reshape(n, d * d)
    mults = ((table.values.conj() * table.class_sizes) @ (np.abs(table.values[sigma]) ** 2)).real / n
    counts = np.rint(mults).astype(int)
    if (off := np.abs(mults - counts) > 1e-8).any():
        gamma = int(np.argmax(off))
        raise ArithmeticError(f"non-integer multiplicity {mults[gamma]} for component {gamma}")
    basis = {}
    for gamma in np.flatnonzero(counts).tolist():
        m = int(counts[gamma])
        d_gamma = irreps_list[gamma].dim
        w = (d_gamma / n) * irreps_list[gamma].matrices[:, :, 0].conj()  # w[g, q]
        # K_0[(a b), (c e)] = sum_g w[g, 0] T_ac(g) conj(T_be(g))
        k0 = (w[:, 0, None] * t_flat).T @ t_flat.conj()
        k0 = k0.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        seeds = _orthonormal_range(k0, m).T.reshape(m, d, d)  # deterministic phases
        sandwiches = (t_sigma[:, None] @ seeds @ t_sigma.conj().transpose(0, 2, 1)[:, None]).reshape(n, -1)
        basis[gamma] = (w.T @ sandwiches).reshape(d_gamma, m, d, d).transpose(1, 0, 2, 3)
    if sum(e.shape[0] * e.shape[1] for e in basis.values()) != d * d:
        raise ArithmeticError("component dimensions do not fill L(V^sigma)")
    return CouplingTable(sigma=sigma, kind="finite", basis=basis)


def rotate_coupling_table(table: CouplingTable, bases: list[np.ndarray]) -> CouplingTable:
    """The table of sigma for the irreps W_alpha^H T_alpha W_alpha, with no pass over G.

    Copies turn by e'_{m n} = sum_q (W_gamma)_{q n} W_sigma^H e_{m q} W_sigma and
    are re-seeded as ``conjugation_decomposition`` seeds them: E = [vec e'_{m 0}]
    spans the rotated K_0 = E E^H, so e_{m q} = sum_m' U_{m' m} e'_{m' q} with
    U = E^H ``_orthonormal_range``(E E^H, m).
    """
    d, w_sigma = table.sigma_dim, bases[table.sigma]
    basis = {}
    for gamma, copies in table.basis.items():
        m = copies.shape[0]
        e = bases[gamma].T @ (w_sigma.conj().T @ copies @ w_sigma).reshape(m, -1, d * d)
        lead = e[:, 0].T
        u = lead.conj().T @ _orthonormal_range(lead @ lead.conj().T, m)
        basis[gamma] = (u.T @ e.reshape(m, -1)).reshape(m, -1, d, d)
    return replace(table, basis=basis)


# ---------------------------------------------------------------------------
# SU(2) coupling tables (closed form)
# ---------------------------------------------------------------------------


def clebsch_gordan(j1_2: int, j2_2: int, j_2: int) -> np.ndarray:
    """Condon-Shortley <j1 m1 j2 m2 | J M> as an array (2j1+1, 2j2+1, 2J+1).

    Indices run over descending m (the Wigner-matrix weight order); doubled
    integer spins.  Racah's sum is evaluated exactly in integers in its
    binomial form, sum_k (-1)^k C(a, k) C(p, b-k) C(q, c-k), and each squared
    coefficient is rounded once (a correctly rounded integer quotient) before
    one float square root, so the result is accurate to a few ulp at any spin.
    """
    out = np.zeros((j1_2 + 1, j2_2 + 1, j_2 + 1))
    if (j1_2 + j2_2 + j_2) % 2 or j_2 < abs(j1_2 - j2_2) or j_2 > j1_2 + j2_2:
        return out
    a = (j1_2 + j2_2 - j_2) // 2        # j1 + j2 - J
    p = (j_2 + j1_2 - j2_2) // 2        # J + j1 - j2
    q = (j_2 - j1_2 + j2_2) // 2        # J - j1 + j2
    top = (j1_2 + j2_2 + j_2) // 2 + 1  # j1 + j2 + J + 1
    fac = [factorial(n) for n in range(top + 1)]
    den = fac[top] * fac[a] * fac[p] * fac[q]
    for i1, m1_2 in enumerate(range(j1_2, -j1_2 - 2, -2)):
        for i2, m2_2 in enumerate(range(j2_2, -j2_2 - 2, -2)):
            m_2 = m1_2 + m2_2
            if abs(m_2) > j_2:
                continue
            b, c = (j1_2 - m1_2) // 2, (j2_2 + m2_2) // 2   # j1 - m1, j2 + m2
            total = sum(
                (-1) ** k * comb(a, k) * comb(p, b - k) * comb(q, c - k)
                for k in range(max(0, b - p, c - q), min(a, b, c) + 1)
            )
            num = (
                (j_2 + 1)
                * fac[(j_2 + m_2) // 2]
                * fac[(j_2 - m_2) // 2]
                * fac[b]
                * fac[(j1_2 + m1_2) // 2]
                * fac[(j2_2 - m2_2) // 2]
                * fac[c]
                * total
                * total
            )
            out[i1, i2, (j_2 - m_2) // 2] = copysign(sqrt(num / den), total)
    return out


def _conjugation_intertwiner(j2: int) -> np.ndarray:
    """Y with conj(D^j(g)) = Y D^j(g) Y^H; Y[idx(m), idx(-m)] = (-1)^(j-m)."""
    d = j2 + 1
    y = np.zeros((d, d))
    for idx, m2 in enumerate(range(j2, -j2 - 2, -2)):
        y[idx, (j2 + m2) // 2] = (-1.0) ** ((j2 - m2) // 2)
    return y


def su2_coupling_table(sigma2: int) -> CouplingTable:
    """Coupling table of L(V^sigma) for SU(2); components are integer spins 0..2*sigma."""
    d = sigma2 + 1
    y = _conjugation_intertwiner(sigma2)
    basis = {}
    for j_2 in range(0, 2 * sigma2 + 1, 2):
        cg = clebsch_gordan(sigma2, sigma2, j_2)          # (d, d, dJ)
        e = np.einsum("jb,ibM->Mij", y, cg)               # e^J_M[i, j]
        basis[j_2] = _fix_column_phases(e.reshape(-1, 1)).reshape(1, j_2 + 1, d, d)  # one copy
    return CouplingTable(sigma=sigma2, kind="su2", basis=basis)


# ---------------------------------------------------------------------------
# Z0-fixed bases, adapted irreps, Frobenius reciprocity
# ---------------------------------------------------------------------------


def z_fixed_basis(alpha: int, matrices: np.ndarray, centralizer) -> ZFixedBasis:
    """Adapted basis from the centralizer average (1/|Z0|) sum_h T(h)."""
    d = matrices.shape[1]
    avg = matrices[list(centralizer)].mean(axis=0)
    m_alpha = int(round(np.trace(avg).real))
    if m_alpha == 0:
        return ZFixedBasis(alpha=alpha, m_alpha=0, basis=np.eye(d, dtype=complex))
    fixed = _orthonormal_range(avg, m_alpha)
    if m_alpha == d:
        return ZFixedBasis(alpha=alpha, m_alpha=d, basis=fixed)
    comp = _orthonormal_range(np.eye(d) - avg, d - m_alpha)
    return ZFixedBasis(alpha=alpha, m_alpha=m_alpha, basis=np.hstack([fixed, comp]))


def adapt_irreps_to_class(
    irreps_list: list[Irrep], cls: ConjugacyClass, bases: list[ZFixedBasis] | None = None
) -> tuple[list[Irrep], list[int]]:
    """Rotate every irrep so its leading basis vectors are Z0(g0)-fixed,
    T' = W^H T W with W the ``z_fixed_basis`` of each irrep (``bases``, if the
    caller already has them for this class)."""
    if bases is None:
        bases = [z_fixed_basis(ai, rep.matrices, cls.centralizer) for ai, rep in enumerate(irreps_list)]
    adapted = [replace(rep, matrices=zb.basis.conj().T @ rep.matrices @ zb.basis) for rep, zb in zip(irreps_list, bases)]
    return adapted, [zb.m_alpha for zb in bases]


def frobenius_multiplicity_check(
    group: FiniteGroup,
    cls: ConjugacyClass,
    irreps_list: list[Irrep],
    table: CharacterTable,
) -> list[FrobeniusRow]:
    """dim of the Z0-fixed subspace vs multiplicity in the coset permutation action.

    The two counts are equal by Frobenius reciprocity; both sides are computed
    independently (projector rank vs fixed-coset character inner product).
    """
    members = list(cls.members)
    # fix_counts[g] = #{c in C0 : g c = c g}, the coset permutation character
    fix_counts = np.count_nonzero(group.mult_table[:, members] == group.mult_table[members].T, axis=1)
    rows = []
    for ai, rep in enumerate(irreps_list):
        zb = z_fixed_basis(ai, rep.matrices, cls.centralizer)
        chi = table.element_values(ai)
        induced = np.sum(chi.conj() * fix_counts).real / group.order
        induced_int = int(round(induced))
        if abs(induced - induced_int) > 1e-8:
            raise ArithmeticError(f"non-integer induced multiplicity {induced}")
        rows.append(FrobeniusRow(alpha=ai, fixed_dim=zb.m_alpha, induced_multiplicity=induced_int))
    return rows


# ---------------------------------------------------------------------------
# Eq-style identities: product expansion and triple products
# ---------------------------------------------------------------------------


def _expansion_residual(
    t_sigma: np.ndarray, gamma_stacks: dict[int, np.ndarray], table: CouplingTable
) -> float:
    lhs = np.einsum("gir,gsp->girsp", t_sigma.conj(), t_sigma)
    rhs = np.zeros_like(lhs)
    for gamma, e in table.basis.items():  # c(sigma s; sigmabar i | gamma m q) = conj(e[m, q, s, i])
        rhs += np.einsum(
            "mqsi,gqn,mnpr->girsp", e, gamma_stacks[gamma], e.conj(), optimize=True
        )
    return float(np.max(np.abs(lhs - rhs)))


def product_expansion_residual_su2(table: CouplingTable, angles) -> float:
    """Max deviation in the matrix-element product expansion of SU(2), over the
    elements of Euler angles (phi, theta, psi), shape (N, 3)."""
    phi, theta, psi = np.asarray(angles, dtype=float).reshape(-1, 3).T
    t_sigma = WignerD(table.sigma).euler(phi, theta, psi)
    stacks = {j_2: WignerD(j_2).euler(phi, theta, psi) for j_2 in table.gammas}
    return _expansion_residual(t_sigma, stacks, table)


def _triple_residual(lhs: np.ndarray, n_alpha: int, e_alpha: np.ndarray | None) -> float:
    rhs = 0.0 if e_alpha is None else np.einsum("mksi,mlpr->klirsp", e_alpha, e_alpha.conj()) / n_alpha
    return float(np.max(np.abs(lhs - rhs)))


def triple_product_residual_su2(
    table: CouplingTable, alpha2: int, angles: np.ndarray, weights: np.ndarray
) -> float:
    """SU(2) version of the triple-product identity on quadrature nodes (phi,
    theta, psi), any node set; the sum separates (``_triple_sum_su2``)."""
    lhs = _triple_sum_su2(alpha2, table.sigma, angles, weights)
    return _triple_residual(lhs, alpha2 + 1, table.basis.get(alpha2))


def _triple_sum_su2(alpha2: int, sigma2: int, angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_g w_g conj(t^alpha_kl) conj(t^sigma_ir) t^sigma_sp, shape (k, l, i, r, s, p).

    The summand is e^{ia(phi - pi/2)} e^{ib(psi + pi/2)} d^alpha_kl d^sigma_ir
    d^sigma_sp with a = -m_k - m_i + m_s, b = -m_l - m_r + m_p, so per distinct
    theta it is the moment M[a, b] = sum_g w_g e^{ia(phi_g - pi/2)} e^{ib(psi_g + pi/2)}
    (one small matmul) times a product of little-d evaluated once per theta.
    """
    phi, theta, psi = np.asarray(angles, dtype=float).T
    d_alpha, d_sigma = alpha2 + 1, sigma2 + 1
    # a = k + i - s - alpha2/2 sits at position k + i - s + sigma2; b likewise over (l, r, p)
    orders = np.arange(d_alpha + 2 * sigma2) - sigma2 - alpha2 / 2
    left = _node_phases(phi - np.pi / 2, orders) * np.asarray(weights)[:, None]
    right = _node_phases(psi + np.pi / 2, orders)
    k, i, s = np.ix_(range(d_alpha), range(d_sigma), range(d_sigma))
    position = (k + i - s + sigma2).ravel()
    nodes, where = np.unique(theta, return_inverse=True)
    alpha_d, sigma_d = WignerD(alpha2).little_d(nodes), WignerD(sigma2).little_d(nodes)
    lhs = np.zeros((d_alpha * d_sigma**2,) * 2, dtype=complex)
    groups = np.split(np.argsort(where, kind="stable"), np.cumsum(np.bincount(where))[:-1])
    for t, group in enumerate(groups):
        moments = left[group].T @ right[group]
        d_prod = np.multiply.outer(alpha_d[t], np.multiply.outer(sigma_d[t], sigma_d[t]))
        lhs += moments[np.ix_(position, position)] * d_prod.transpose(0, 2, 4, 1, 3, 5).reshape(lhs.shape)
    return lhs.reshape((d_alpha, d_sigma, d_sigma) * 2).transpose(0, 3, 1, 4, 2, 5)


def _node_phases(angles: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """e^{i a x} for every node angle x and order a, one exp per distinct angle."""
    values, where = np.unique(angles, return_inverse=True)
    return np.exp(1j * np.multiply.outer(values, orders))[where]


# ---------------------------------------------------------------------------
# Wigner-Eckart: predictions with reduced matrix elements, brute force
# ---------------------------------------------------------------------------


def wigner_eckart_matrix(
    table: CouplingTable,
    alpha: int,
    n_alpha: int,
    columns,
    t_sigma_g0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted coefficients of the weighted class operators with the weights
    conj(t^alpha_kl), for every row k and every column l of the sequence
    ``columns``, with their reduced matrix elements.

    Returns pred[k, l, u, i] with
    n^sigma < lambda~(conj t^alpha_kl; g0) conj t^sigma_ij | conj t^gamma_uv >
    = delta_{gamma sigma} delta_{jv} pred[k, l, u, i], and
    reduced[l, m] = (1/n^alpha) sum_pr c(sigma p; sigmabar r | alpha m l) t^sigma_pr(g0),
    so that pred[k, l] = sum_m c(sigma u; sigmabar i | alpha m k)^* reduced[l, m].
    One einsum each, with c = conj(e^alpha) folded in.  The prediction holds
    for Z0-fixed columns l only (for adapted finite irreps 0..m_alpha-1, for
    SU(2) weight bases the m = 0 index), where the weight descends to G/Z0;
    the caller lists those.  Without alpha in L(V^sigma) every prediction is
    zero and there are no reduced matrix elements.
    """
    e = table.basis.get(alpha)
    if e is None:
        return np.zeros((n_alpha, len(columns)) + t_sigma_g0.shape, dtype=complex), np.zeros((len(columns), 0))
    reduced = np.einsum("mlpr,pr->lm", e.conj()[:, columns], t_sigma_g0) / n_alpha
    return np.einsum("mkui,lm->klui", e, reduced), reduced


# Complex entries of one intermediate of wigner_eckart_bruteforce (2 MB)
_BRUTE_CHUNK_ENTRIES = 1 << 17


def wigner_eckart_bruteforce(
    group: FiniteGroup,
    adapted: list[Irrep],
    g0: int,
    weights,
):
    """All inner products n^sigma <op_w conj t^sigma_ij | conj t^gamma_uv> by brute force.

    ``op_w`` is the weighted class operator on the group algebra with weight
    conj(t^alpha_kl), one for each (alpha, k, l) of ``weights``; one
    ``weighted_class_operator`` call pushes them all to the stack P
    (weights x |C0|).  Each op_w lives on C0 and acts as the convolution
    (op phi)(y) = sum_{c in C0} p(c) phi(c^-1 y), so with y = c x

        n^sigma <op_w phi | conj t> = (n^sigma/|G|) sum_x phi(x) sum_c p_w(c) t(c x).

    The translates t^gamma_uv(c x) are gathered from the stored matrices (the
    multiplication law of the irreps is not used).  Per chunk of columns
    (gamma, u, v), one P @ translates product gives the sums over c for every
    weight, and one (sum_sigma d_sigma^2, |G|) product takes the sums over x
    against every conj t^sigma_ij.  A chunk holds at most
    ``_BRUTE_CHUNK_ENTRIES`` numbers per intermediate, or one column.

    Yields (gamma, columns, block): ``columns`` slices the flattened (u, v) of
    gamma, and block[w, (sigma, i, j), (u, v)] holds the inner products of
    weight w, the rows running over every sigma in order.
    """
    n = group.order
    alpha, k, l = np.asarray(weights, dtype=np.intp).reshape(-1, 3).T
    dims = np.array([rep.dim for rep in adapted])
    coeffs = [rep.matrices.reshape(n, -1).T for rep in adapted]  # t^gamma[(u, v), x]
    stack = np.empty((len(alpha), n), dtype=complex)
    for a, t in enumerate(coeffs):  # irrep by irrep: no copy of all sum_gamma d_gamma^2 rows
        chosen = alpha == a
        stack[chosen] = t[k[chosen] * dims[a] + l[chosen]].conj()
    support = np.unique(group.mult_table[group.mult_table[:, g0], group.inverse_table])  # C0
    pushed = weighted_class_operator(group, g0, stack)[:, support]
    phi = np.concatenate([t.conj() * (d / n) for t, d in zip(coeffs, dims)])
    translates = group.mult_table[support]  # translates[c, x] = c x
    step = max(1, _BRUTE_CHUNK_ENTRIES // (n * max(len(support), len(pushed))))
    for gamma, d in enumerate(dims):
        for lo in range(0, d * d, step):
            columns = slice(lo, min(lo + step, d * d))
            rows = coeffs[gamma][columns]
            summed = pushed @ rows[:, translates]  # [(u, v), w, x] = sum_c p_w(c) t^gamma_uv(c x)
            block = phi @ summed.reshape(-1, n).T
            del summed  # not held while the caller reduces the block
            yield gamma, columns, block.reshape(len(phi), len(rows), -1).transpose(2, 0, 1)


def tensor_operator_scan(
    group: FiniteGroup,
    representation: np.ndarray | None,
    g0: int,
    adapted: list[Irrep],
    m_alphas: list[int],
    tol: float = 1e-10,
) -> list[TensorOperatorFamily]:
    """Which weighted-class-operator families vanish identically in this representation.

    For alpha admitting fixed columns, the family over i of
    T~(conj t^alpha_{i,col}; g0) is reported with its largest entry norm; an
    empirical answer, no claim beyond the computed instances.  The weights of
    every (alpha, col, i) are pushed as one stack of group-algebra elements a.
    ``representation`` is a per-element stack T of shape (|G|, d, d), each
    operator sum_g a(g) T(g) one (1, |G|) @ (|G|, d^2) product; ``None`` is the
    left regular one, whose operators are scanned as the elements themselves
    (every entry of lambda(a) is a coefficient of a).
    """
    n = group.order
    families = [(ai, col) for ai, m in enumerate(m_alphas) for col in range(m)]
    # rows (alpha, col, i) of weights conj(t^alpha_{i,col})
    stack = np.concatenate(
        [rep.matrices[:, :, :m].transpose(2, 1, 0).reshape(-1, n) for rep, m in zip(adapted, m_alphas)]
    ).conj()
    ops = weighted_class_operator(group, g0, stack)
    if representation is not None:
        t = np.asarray(representation)
        if t.ndim != 3 or t.shape[0] != n or t.shape[1] != t.shape[2]:
            raise ValueError("representation stack has wrong shape")
        ops = ops[..., None, :] @ t.reshape(n, -1)
    starts = np.cumsum([0] + [adapted[ai].dim for ai, _ in families[:-1]])
    worst = np.maximum.reduceat(np.abs(ops).reshape(len(stack), -1).max(axis=1), starts)
    return [
        TensorOperatorFamily(
            cls=group.labels[g0], alpha=ai, column=col, max_norm=float(w), vanishes=bool(w < tol)
        )
        for (ai, col), w in zip(families, worst)
    ]
