"""Coupling tables for the conjugation representation and the Wigner-Eckart map.

Index conventions (kept rigidly throughout):

* For an irrep sigma of dimension d, the operator space L(V^sigma) is spanned
  by the matrix units E_ij, and the conjugation action A -> T(g) A T(g)^-1 has
  the vectorized (row-major) matrix kron(T(g), conj(T(g))).
* A coupling table stores, for every irreducible constituent gamma, the
  coefficients ``coeffs[gamma][i, j, m, n] = c(sigma i; sigmabar j | gamma m n)``
  of the expansion E_ij = sum c(...) e^gamma_mn, together with the adapted
  orthonormal basis ``basis[gamma][m, n]`` (matrices on V^sigma).  The adapted
  copies transform with exactly the stored irrep matrices of gamma, and both
  bases are orthonormal for the plain Frobenius inner product tr(A B^H), which
  makes the coefficient matrix exactly unitary.
* Multiplicity-copy bases and phases are fixed deterministically: the copy
  seeds are a pivoted-QR basis of the range of the averaging operator
  P_00 = (n^gamma/|G|) sum_g conj(t^gamma_00(g)) Pi(g), with leading entries
  rotated positive.
* SU(2) tables are labeled by doubled spins and built in closed form from
  Condon-Shortley Clebsch-Gordan coefficients conjugated by the spin-sigma
  conjugation intertwiner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .su2 import WignerD, fixed_column_index

__all__ = [
    "CouplingTable",
    "ZFixedBasis",
    "ReducedMatrixElement",
    "FrobeniusRow",
    "TensorOperatorFamily",
    "conjugation_decomposition",
    "su2_coupling_table",
    "clebsch_gordan",
    "z_fixed_basis",
    "su2_z_fixed_basis",
    "adapt_irreps_to_class",
    "frobenius_multiplicity_check",
    "product_expansion_residual",
    "product_expansion_residual_su2",
    "triple_product_residual",
    "triple_product_residual_su2",
    "reduced_matrix_elements",
    "wigner_eckart_matrix",
    "wigner_eckart_bruteforce",
    "tensor_operator_scan",
]


@dataclass
class CouplingTable:
    """Canonical decomposition of L(V^sigma) under conjugation."""

    sigma: int                     # irrep index (finite) or doubled spin (su2)
    sigma_dim: int
    kind: str                      # "finite" or "su2"
    gammas: list[int]
    multiplicities: dict[int, int]
    coeffs: dict[int, np.ndarray]  # gamma -> (d, d, m, n_gamma)
    basis: dict[int, np.ndarray]   # gamma -> (m, n_gamma, d, d)

    def multiplicity(self, gamma: int) -> int:
        """m(sigma; gamma), a.k.a. the 3j symbol {sigma sigmabar gamma}."""
        return self.multiplicities.get(gamma, 0)

    def coefficient_matrix(self) -> np.ndarray:
        """Unitary change of basis, rows (i, j) and columns (gamma, m, n)."""
        d = self.sigma_dim
        cols = [
            self.coeffs[g].reshape(d * d, -1)
            for g in self.gammas
        ]
        return np.concatenate(cols, axis=1)

    def unitarity_residual(self) -> float:
        c = self.coefficient_matrix()
        eye = np.eye(c.shape[0])
        return float(
            max(
                np.max(np.abs(c @ c.conj().T - eye)),
                np.max(np.abs(c.conj().T @ c - eye)),
            )
        )

    def reconstruction_residual(self) -> float:
        """max over (i, j) of |E_ij - sum_gmn c(...) e^gamma_mn|."""
        d = self.sigma_dim
        worst = 0.0
        for i in range(d):
            for j in range(d):
                acc = np.zeros((d, d), dtype=complex)
                for g in self.gammas:
                    acc += np.einsum(
                        "mn,mnab->ab", self.coeffs[g][i, j], self.basis[g]
                    )
                target = np.zeros((d, d))
                target[i, j] = 1.0
                worst = max(worst, float(np.max(np.abs(acc - target))))
        return worst


@dataclass
class ZFixedBasis:
    """Orthonormal basis whose first m_alpha vectors span the Z0-fixed subspace."""

    alpha: int
    m_alpha: int
    basis: np.ndarray


@dataclass
class ReducedMatrixElement:
    sigma: int
    alpha: int
    l: int
    m: int
    g0: int
    value: complex


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
    """Scan record for the operator family T^{(alpha, column)}_i in one representation."""

    alpha: int
    column: int
    max_norm: float
    vanishes: bool


# ---------------------------------------------------------------------------
# finite-group coupling tables
# ---------------------------------------------------------------------------


def _conjugation_stack(matrices: np.ndarray) -> np.ndarray:
    """Vectorized conjugation representation: Pi[g] = kron(T(g), conj(T(g)))."""
    n, d = matrices.shape[0], matrices.shape[1]
    out = np.empty((n, d * d, d * d), dtype=complex)
    for g in range(n):
        out[g] = np.kron(matrices[g], matrices[g].conj())
    return out


def conjugation_decomposition(
    group: FiniteGroup,
    irreps_list: list[Irrep],
    table: CharacterTable,
    sigma: int,
) -> CouplingTable:
    """Decompose L(V^sigma) and return the coupling coefficients.

    The adapted basis of each gamma-isotypic block is built from the
    matrix-element averaging operators K_q = (n^gamma/|G|) sum_g
    conj(t^gamma_{q0}(g)) Pi(g): the range of K_0 carries one vector per
    multiplicity copy, and e_{m q} = K_q f_m then transforms with exactly the
    stored t^gamma matrices.
    """
    n = group.order
    t_sigma = irreps_list[sigma].matrices
    d = irreps_list[sigma].dim
    pi = _conjugation_stack(t_sigma)
    chi_sq = np.einsum("gii->g", t_sigma) * np.einsum("gii->g", t_sigma).conj()
    gammas, mults, coeffs, basis = [], {}, {}, {}
    for gamma in range(len(irreps_list)):
        chi_g = np.einsum("gii->g", irreps_list[gamma].matrices)
        mult = np.sum(chi_sq * chi_g.conj()).real / n
        m = int(round(mult))
        if abs(mult - m) > 1e-8:
            raise ArithmeticError(f"non-integer multiplicity {mult} for component {gamma}")
        if m == 0:
            continue
        t_gamma = irreps_list[gamma].matrices
        d_gamma = irreps_list[gamma].dim
        k_ops = [
            (d_gamma / n) * np.tensordot(t_gamma[:, q, 0].conj(), pi, axes=1)
            for q in range(d_gamma)
        ]
        seeds = _orthonormal_range(k_ops[0], m)  # (d^2, m), deterministic phases
        e = np.empty((m, d_gamma, d, d), dtype=complex)
        for mi in range(m):
            for q in range(d_gamma):
                e[mi, q] = (k_ops[q] @ seeds[:, mi]).reshape(d, d)
        c = np.conj(e).transpose(2, 3, 0, 1)  # c[i, j, m, q] = conj(e[m, q][i, j])
        gammas.append(gamma)
        mults[gamma] = m
        coeffs[gamma] = c
        basis[gamma] = e
    total = sum(mults[g] * irreps_list[g].dim for g in gammas)
    if total != d * d:
        raise ArithmeticError("component dimensions do not fill L(V^sigma)")
    return CouplingTable(
        sigma=sigma,
        sigma_dim=d,
        kind="finite",
        gammas=gammas,
        multiplicities=mults,
        coeffs=coeffs,
        basis=basis,
    )


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


def _fix_copy_phases(e: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Rotate each multiplicity copy so its first sizable entry is positive real."""
    e = e.copy()
    for mi in range(e.shape[0]):
        flat = e[mi].ravel()
        idx = np.flatnonzero(np.abs(flat) > tol)
        if idx.size:
            lead = flat[idx[0]]
            e[mi] *= np.abs(lead) / lead
    return e


def su2_coupling_table(sigma2: int) -> CouplingTable:
    """Coupling table of L(V^sigma) for SU(2); components are integer spins 0..2*sigma."""
    d = sigma2 + 1
    y = _conjugation_intertwiner(sigma2)
    gammas, mults, coeffs, basis = [], {}, {}, {}
    for j_2 in range(0, 2 * sigma2 + 1, 2):
        cg = clebsch_gordan(sigma2, sigma2, j_2)          # (d, d, dJ)
        e = np.einsum("jb,ibM->Mij", y, cg)               # e^J_M[i, j]
        e = _fix_copy_phases(e[None, ...])[0][None, ...]  # single copy, fixed phase
        e = e.reshape(1, j_2 + 1, d, d)
        gammas.append(j_2)
        mults[j_2] = 1
        basis[j_2] = e
        coeffs[j_2] = np.conj(e).transpose(2, 3, 0, 1)
    return CouplingTable(
        sigma=sigma2,
        sigma_dim=d,
        kind="su2",
        gammas=gammas,
        multiplicities=mults,
        coeffs=coeffs,
        basis=basis,
    )


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


def su2_z_fixed_basis(j2: int) -> ZFixedBasis:
    """Circle-fixed basis for spin j2/2: the m = 0 weight vector, if any, first."""
    d = j2 + 1
    if j2 % 2:
        return ZFixedBasis(alpha=j2, m_alpha=0, basis=np.eye(d, dtype=complex))
    order = [j2 // 2] + [i for i in range(d) if i != j2 // 2]
    return ZFixedBasis(alpha=j2, m_alpha=1, basis=np.eye(d, dtype=complex)[:, order])


def adapt_irreps_to_class(
    irreps_list: list[Irrep], cls: ConjugacyClass
) -> tuple[list[Irrep], list[int]]:
    """Rotate every irrep so its leading basis vectors are Z0(g0)-fixed."""
    adapted, m_alphas = [], []
    for ai, rep in enumerate(irreps_list):
        zb = z_fixed_basis(ai, rep.matrices, cls.centralizer)
        w = zb.basis
        mats = np.einsum("ij,gjk,kl->gil", w.conj().T, rep.matrices, w)
        adapted.append(Irrep(label=rep.label, dim=rep.dim, matrices=mats))
        m_alphas.append(zb.m_alpha)
    return adapted, m_alphas


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
    members = np.array(cls.members)
    fix_counts = np.empty(group.order)
    for g in range(group.order):
        fix_counts[g] = np.count_nonzero(
            group.mult_table[g, members] == group.mult_table[members, g]
        )
    rows = []
    for ai, rep in enumerate(irreps_list):
        zb = z_fixed_basis(ai, rep.matrices, cls.centralizer)
        chi = table.element_values(group, ai)
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
    for gamma in table.gammas:
        c = table.coeffs[gamma]
        rhs += np.einsum(
            "simq,gqn,prmn->girsp", c.conj(), gamma_stacks[gamma], c, optimize=True
        )
    return float(np.max(np.abs(lhs - rhs)))


def product_expansion_residual(
    group: FiniteGroup,
    irreps_list: list[Irrep],
    table: CouplingTable,
    elements=None,
) -> float:
    """Max deviation in the matrix-element product expansion, over the elements."""
    if elements is None:
        elements = np.arange(group.order)
    elements = np.asarray(elements)
    t_sigma = irreps_list[table.sigma].matrices[elements]
    stacks = {g: irreps_list[g].matrices[elements] for g in table.gammas}
    return _expansion_residual(t_sigma, stacks, table)


def product_expansion_residual_su2(table: CouplingTable, elements) -> float:
    """Same identity for SU(2), evaluated at explicit group elements."""
    angles = np.array([g.euler_angles() for g in elements], dtype=float).reshape(-1, 3).T
    t_sigma = WignerD(table.sigma).euler(*angles)
    stacks = {j_2: WignerD(j_2).euler(*angles) for j_2 in table.gammas}
    return _expansion_residual(t_sigma, stacks, table)


# Entries of one chunk of the node-wise outer product in _weighted_triple_sum.
_TRIPLE_CHUNK_ENTRIES = 1 << 17


def _weighted_triple_sum(
    weights: np.ndarray, t_alpha: np.ndarray, t_sigma: np.ndarray
) -> np.ndarray:
    """sum_g w_g conj(t_alpha)_kl conj(t_sigma)_ir t_sigma_sp, shape (k, l, i, r, s, p).

    Accumulated as a.T @ b over chunks of nodes, with rows a[g] = w_g conj(t_alpha(g))
    (x) conj(t_sigma(g)) and b[g] = t_sigma(g), so the (nodes, d_alpha^2 d_sigma^2)
    outer product never exists at once.
    """
    n, d_alpha, d_sigma = len(weights), t_alpha.shape[1], t_sigma.shape[1]
    left, right = t_alpha.reshape(n, -1), t_sigma.reshape(n, -1)
    acc = np.zeros((left.shape[1] * right.shape[1], right.shape[1]), dtype=complex)
    step = max(1, _TRIPLE_CHUNK_ENTRIES // acc.shape[0])
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        a = (weights[block, None] * left[block].conj())[:, :, None] * right[block, None, :].conj()
        acc += a.reshape(a.shape[0], -1).T @ right[block]
    return acc.reshape((d_alpha, d_alpha) + (d_sigma,) * 4)


def _triple_residual(
    t_alpha: np.ndarray,
    t_sigma: np.ndarray,
    weights: np.ndarray,
    n_alpha: int,
    c_alpha: np.ndarray | None,
) -> float:
    lhs = _weighted_triple_sum(weights, t_alpha, t_sigma)
    if c_alpha is None:
        rhs = np.zeros_like(lhs)
    else:
        rhs = (
            np.einsum("simk,prml->klirsp", c_alpha.conj(), c_alpha) / n_alpha
        )
    return float(np.max(np.abs(lhs - rhs)))


def triple_product_residual(
    group: FiniteGroup,
    irreps_list: list[Irrep],
    table: CouplingTable,
    alpha: int,
) -> float:
    """Residual of the averaged triple product against the coupling-coefficient form.

    Components gamma absent from L(V^sigma) must average to zero; that case is
    checked against an identically-zero right-hand side.
    """
    weights = np.full(group.order, 1.0 / group.order)
    return _triple_residual(
        irreps_list[alpha].matrices,
        irreps_list[table.sigma].matrices,
        weights,
        irreps_list[alpha].dim,
        table.coeffs.get(alpha),
    )


def triple_product_residual_su2(
    table: CouplingTable, alpha2: int, angles: np.ndarray, weights: np.ndarray
) -> float:
    """SU(2) version of the triple-product identity via Haar quadrature nodes."""
    phi, theta, psi = np.asarray(angles, dtype=float).T
    t_alpha = WignerD(alpha2).euler(phi, theta, psi)
    t_sigma = WignerD(table.sigma).euler(phi, theta, psi)
    return _triple_residual(
        t_alpha, t_sigma, np.asarray(weights), alpha2 + 1, table.coeffs.get(alpha2)
    )


# ---------------------------------------------------------------------------
# Wigner-Eckart: predictions, reduced matrix elements, brute force
# ---------------------------------------------------------------------------


def reduced_matrix_elements(
    table: CouplingTable,
    alpha: int,
    n_alpha: int,
    l: int,
    t_sigma_g0: np.ndarray,
    g0: int = -1,
) -> list[ReducedMatrixElement]:
    """(1/n^alpha) sum_pr c(sigma p; sigmabar r | alpha m l) t^sigma_pr(g0), per copy m."""
    c = table.coeffs.get(alpha)
    if c is None:
        return []
    vals = np.einsum("prm,pr->m", c[:, :, :, l], t_sigma_g0) / n_alpha
    return [
        ReducedMatrixElement(sigma=table.sigma, alpha=alpha, l=l, m=mi, g0=g0, value=complex(v))
        for mi, v in enumerate(vals)
    ]


def wigner_eckart_matrix(
    table: CouplingTable,
    alpha: int,
    n_alpha: int,
    fixed_columns,
    k: int,
    l: int,
    t_sigma_g0: np.ndarray,
    g0: int = -1,
) -> tuple[np.ndarray, list[ReducedMatrixElement]]:
    """Predicted coefficients of the weighted class operator with weight conj(t^alpha_kl).

    Returns the matrix M[u, i] with
    n^sigma < lambda~(conj t^alpha_kl; g0) conj t^sigma_ij | conj t^gamma_uv >
    = delta_{gamma sigma} delta_{jv} M[u, i], plus the reduced matrix elements.
    The column l must be Z0-fixed (for adapted finite irreps these are
    0..m_alpha-1, for SU(2) weight bases the m = 0 index) so the weight
    descends to the coset space.
    """
    if l not in tuple(fixed_columns):
        raise ValueError(
            f"column {l} is not Z0-fixed (fixed columns: {tuple(fixed_columns)}); "
            "weight does not descend to G/Z0"
        )
    rmes = reduced_matrix_elements(table, alpha, n_alpha, l, t_sigma_g0, g0=g0)
    d = table.sigma_dim
    pred = np.zeros((d, d), dtype=complex)
    c = table.coeffs.get(alpha)
    if c is not None:
        rme_vec = np.array([r.value for r in rmes])
        pred = np.einsum("uim,m->ui", c[:, :, :, k].conj(), rme_vec)
    return pred, rmes


def wigner_eckart_bruteforce(
    group: FiniteGroup,
    adapted: list[Irrep],
    alpha: int,
    k: int,
    l: int,
    g0: int,
) -> dict[tuple[int, int], np.ndarray]:
    """All inner products n^sigma <op conj t^sigma_ij | conj t^gamma_uv> by brute force.

    ``op`` is the weighted class operator on the group algebra with weight
    conj(t^alpha_kl), computed entirely from group_core/class_ops machinery;
    returns arrays indexed [i, j, u, v] for every (sigma, gamma) pair.
    """
    f = adapted[alpha].matrices[:, k, l].conj()
    op = weighted_class_operator(group, None, g0, f).matrix
    out = {}
    for si, srep in enumerate(adapted):
        applied = np.einsum("yx,xij->yij", op, srep.matrices.conj())
        for gi, grep in enumerate(adapted):
            vals = np.einsum("yij,yuv->ijuv", applied, grep.matrices) * (
                srep.dim / group.order
            )
            out[(si, gi)] = vals
    return out


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
    empirical answer, no claim beyond the computed instances.
    """
    rows = []
    for ai, rep in enumerate(adapted):
        for col in range(m_alphas[ai]):
            worst = 0.0
            for i in range(rep.dim):
                f = rep.matrices[:, i, col].conj()
                op = weighted_class_operator(group, representation, g0, f).matrix
                worst = max(worst, float(np.max(np.abs(op))))
            rows.append(
                TensorOperatorFamily(
                    alpha=ai, column=col, max_norm=worst, vanishes=worst < tol
                )
            )
    return rows
