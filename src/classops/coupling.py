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
  basis W_alpha of each irrep.  ``rotate_coupling_table`` carries the tables
  into that basis and re-seeds their copies by the rule above, so it equals
  ``conjugation_decomposition`` of the adapted irreps up to round-off.
* The finite layer works in stacked passes, one per shape block, never per
  sigma, gamma or irrep: the decomposition and the rotation take every
  (sigma, gamma) pair of one (d_sigma, multiplicity, d_gamma) at once, the
  Z0-fixed bases (``z_fixed_bases``) every irrep of one dimension, and the
  Wigner-Eckart predictions (``_wigner_eckart_stack``) every (sigma, alpha)
  pair of one shape.  ``_orthonormal_range`` runs its pivoted Gram-Schmidt
  on a whole stack, each matrix with its own rank.
* SU(2) tables are labeled by doubled spins.  ``clebsch_gordan`` takes the
  Condon-Shortley coefficients of every J from one ``eigh`` of J^2 over all
  M blocks (no factorials, no cancelling sums), and ``su2_coupling_table``
  turns each J's coefficients into its copy in place: the spin-sigma
  conjugation intertwiner is a signed index flip.  The SU(2) triple-product
  sum takes its phase moments from a per-chunk histogram of the node
  weights over their (theta, phi, psi) values (``_triple_sum_su2``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import groups
from .groups import FiniteGroup, ConjugacyClass, _chunks
from .representations import CharacterTable, Irrep
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
    "z_fixed_bases",
    "adapt_irreps_to_class",
    "frobenius_multiplicity_check",
    "product_expansion_residual_su2",
    "triple_product_residual_su2",
    "wigner_eckart_matrix",
    "wigner_eckart_bruteforce",
    "tensor_operator_scan",
]


def _orthonormal_range(matrices: np.ndarray, ranks) -> np.ndarray:
    """Deterministic orthonormal bases of the ranges of (approximate) projectors.

    ``matrices`` is one (r, c) matrix or a stack (..., r, c), and ``ranks``
    one rank per matrix (broadcast); the result is (..., r, max rank), each
    basis padded with zero columns beyond its own rank.  Gram-Schmidt with
    column pivoting, every matrix of the stack in the same step: each step
    takes the column of largest residual norm and, among the columns within
    a relative 1e-8 of it, the lowest index, so round-off never reorders
    columns of equal norm.  The pivot's residual is orthogonalized twice
    against the basis so far, the residual norms of all columns are
    downdated, and ``_fix_column_phases`` runs last.
    """
    a = np.asarray(matrices, dtype=complex)
    lead, (r, c) = a.shape[:-2], a.shape[-2:]
    a = a.reshape(-1, r, c)
    ranks = np.broadcast_to(ranks, lead).ravel()
    kmax, stack = int(ranks.max(initial=0)), np.arange(len(a))
    q = np.zeros((len(a), kmax, r), dtype=complex)  # the basis vectors as rows
    res = (np.abs(a) ** 2).sum(axis=1)
    for k in range(kmax):
        # squared norms within a relative 1e-8 of the largest norm
        v = a[stack, :, (res >= (1.0 - 1e-8) ** 2 * res.max(axis=1, keepdims=True)).argmax(axis=1)]
        done = q[:, :k]
        for _ in range(2 if k else 0):
            v = v - ((done.conj() @ v[:, :, None]).swapaxes(1, 2) @ done)[:, 0]
        q[:, k] = v / np.where(k < ranks, np.sqrt((np.abs(v) ** 2).sum(axis=1)), np.inf)[:, None]
        if k + 1 < kmax:
            res -= np.abs(q[:, k:k + 1].conj() @ a)[:, 0] ** 2
    return _fix_column_phases(q.reshape(-1, r).T).T.reshape(len(a), kmax, r).swapaxes(1, 2).reshape(*lead, r, kmax)


def _fix_column_phases(basis: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Rotate each column of an (r, k) matrix so its first entry above ``tol``
    is positive real; a column with none stays as it is."""
    above = np.abs(basis) > tol
    lead = basis[above.argmax(axis=0), np.arange(basis.shape[1])]
    found = above.any(axis=0)
    return np.where(found, basis * (np.abs(lead) / np.where(found, lead, 1.0)), basis)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks of matrices.  numpy makes one BLAS call per complex
    matrix of a stack, which for 32 or more 2 x 2 or 3 x 3 matrices costs more
    than the sum over the inner index as elementwise products of whole stacks
    (single-thread BLAS, x86-64: the elementwise sum wins from about 12 2 x 2
    and 32 3 x 3 matrices on, and takes 0.2-0.5 of the time at 100 or more)."""
    inner = a.shape[-1]
    if inner not in (2, 3) or max(a.size, b.size) < 32 * inner * inner:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    for c in range(1, inner):
        out = out + a[..., :, c:c + 1] * b[..., c:c + 1, :]
    return out


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack``, but a stack of one array is a view of it, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _blocks(keys) -> dict:
    """The positions of ``keys`` grouped by key, in order of first appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


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
) -> list[CouplingTable]:
    """Decompose L(V^sigma) of every irrep sigma and return the coupling
    coefficients, one table per irrep, in order.

    Multiplicities are the table's ``conjugation_multiplicities``, made once
    for every sigma.  Each gamma-block comes from the averages
    K_q F = (n^gamma/|G|) sum_g conj(t^gamma_{q0}(g)) T(g) F T(g)^H,
    summed over T(g) directly, in one stacked pass per shape block: the
    (sigma, gamma) pairs of one (d_sigma, multiplicity m, d_gamma), in the
    chunks of ``groups._chunks`` (a 1-dim sigma needs none: its copy is the
    1 x 1 identity).  The copy seeds F_m of a chunk are one
    ``_orthonormal_range`` of its stack of K_0
    (each one (d^2, |G|) @ (|G|, d^2) product), and its copies
    e_{m q} = K_q F_m, which transform with exactly the stored t^gamma, one
    product of the weights with the sandwiches T F T^H.  Another basis of the
    irreps needs no new decomposition: see ``rotate_coupling_table``.
    """
    n = group.order
    dims = np.array([rep.dim for rep in irreps_list])
    mults = table.conjugation_multiplicities
    counts = np.rint(mults).astype(int)
    if (off := np.abs(mults - counts) > 1e-8).any():
        sigma, gamma = np.argwhere(off.T)[0]
        raise ArithmeticError(f"non-integer multiplicity {mults[gamma, sigma]} for component {gamma} of irrep {sigma}")
    if (dims @ counts != dims**2).any():
        raise ArithmeticError("component dimensions do not fill L(V^sigma)")
    bases = [dict.fromkeys(np.flatnonzero(c).tolist()) for c in counts.T]  # gammas in order, filled below
    pairs = [(s, gamma) for s, basis in enumerate(bases) for gamma in basis]
    for (d, m, d_gamma), block in _blocks((dims[s], counts[g, s], dims[g]) for s, g in pairs).items():
        if d == 1:  # L(V^sigma) of a 1-dim sigma is the trivial irrep, spanned by the 1 x 1 identity
            for s, g in (pairs[i] for i in block):
                bases[s][g] = np.ones((1, 1, 1, 1), dtype=complex)
            continue
        weights = {}  # gamma -> w[q, g] = (n^gamma/|G|) conj(t^gamma_{q0}(g))
        for part in _chunks(len(block), max(n * m * d * d, d**4)):
            chunk = [pairs[i] for i in block[part]]
            for _, g in chunk:
                if g not in weights:
                    weights[g] = (d_gamma / n) * irreps_list[g].matrices[:, :, 0].T.conj()
            t = _stack([irreps_list[s].matrices for s, _ in chunk])  # (P, |G|, d, d)
            w = _stack([weights[g] for _, g in chunk])                        # (P, d_gamma, |G|)
            t_flat = t.reshape(len(chunk), n, d * d)
            # K_0[(a b), (c e)] = sum_g w[0, g] T_ac(g) conj(T_be(g))
            k0 = (w[:, 0, :, None] * t_flat).swapaxes(1, 2) @ t_flat.conj()
            k0 = k0.reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(-1, d * d, d * d)
            # seeds[b, (j, c)] = F_j[b, c], deterministic phases; T F is one flat product
            seeds = _orthonormal_range(k0, m).reshape(-1, d, d, m).swapaxes(2, 3).reshape(-1, d, m * d)
            sandwiches = _matmul(  # [g, (a, j), b] = (T F_j T^H)_ab
                (t.reshape(len(chunk), n * d, d) @ seeds).reshape(len(chunk), n, d * m, d), t.conj().swapaxes(2, 3)
            )
            copies = (w @ sandwiches.reshape(len(chunk), n, -1)).reshape(-1, d_gamma, d, m, d).transpose(0, 3, 1, 2, 4)
            for (s, g), e in zip(chunk, copies):
                bases[s][g] = e
    return [CouplingTable(sigma=s, kind="finite", basis=basis) for s, basis in enumerate(bases)]


def rotate_coupling_table(tables: list[CouplingTable], bases: list[np.ndarray]) -> list[CouplingTable]:
    """The tables of sigma for the irreps W_alpha^H T_alpha W_alpha, with no
    pass over G, every table of the list at once.

    Copies turn by e'_{m n} = sum_q (W_gamma)_{q n} W_sigma^H e_{m q} W_sigma and
    are re-seeded as ``conjugation_decomposition`` seeds them: E = [vec e'_{m 0}]
    spans the rotated K_0 = E E^H, so e_{m q} = sum_m' U_{m' m} e'_{m' q} with
    U = E^H ``_orthonormal_range``(E E^H, m).  Every (sigma, gamma) pair of one
    shape (d_sigma, m, d_gamma) takes one stacked pass.  The table of a 1-dim
    sigma, the trivial component alone, comes back as it is: the re-seeding
    undoes any phase a basis puts on it.
    """
    rotated = [dict(tab.basis) if tab.sigma_dim == 1 else dict.fromkeys(tab.basis) for tab in tables]
    pairs = [(i, gamma) for i, tab in enumerate(tables) if tab.sigma_dim > 1 for gamma in tab.basis]
    for (m, d_gamma, d, _), block in _blocks(tables[i].basis[g].shape for i, g in pairs).items():
        chunk = [pairs[j] for j in block]
        w_sigma = np.stack([bases[tables[i].sigma] for i, _ in chunk])[:, None, None]
        w_gamma = np.stack([bases[g] for _, g in chunk])[:, None]
        copies = np.stack([tables[i].basis[g] for i, g in chunk])  # (P, m, d_gamma, d, d)
        e = w_gamma.swapaxes(2, 3) @ (w_sigma.conj().swapaxes(3, 4) @ copies @ w_sigma).reshape(-1, m, d_gamma, d * d)
        lead = e[:, :, 0].swapaxes(1, 2)
        u = lead.conj().swapaxes(1, 2) @ _orthonormal_range(lead @ lead.conj().swapaxes(1, 2), m)
        for (i, g), r in zip(chunk, (u.swapaxes(1, 2) @ e.reshape(-1, m, d_gamma * d * d)).reshape(copies.shape)):
            rotated[i][g] = r
    return [replace(tab, basis=basis) for tab, basis in zip(tables, rotated)]


# ---------------------------------------------------------------------------
# SU(2) coupling tables (one eigensolve of J^2)
# ---------------------------------------------------------------------------


def clebsch_gordan(j1_2: int, j2_2: int) -> dict[int, np.ndarray]:
    """Condon-Shortley <j1 m1 j2 m2 | J M> of every J in j1 (x) j2, as
    {J2: array (2j1+1, 2j2+1, 2J+1)} in ascending J; doubled integer spins,
    indices over descending m (the Wigner-matrix weight order).

    J^2 - j1(j1+1) - j2(j2+1) is tridiagonal in each M block |m1, M - m1>,
    with the exact eigenvalues J(J+1) - j1(j1+1) - j2(j2+1) for the J >= |M|
    of the product, so one ``eigh`` gives every J of every block: the blocks
    are indexed by the m of the spin with fewer states (n of them) and
    padded with decoupled entries below the spectrum, so column c of each
    block is J = j1 + j2 - (n - 1 - c).  Signs: the highest weight has
    <j1 m1; j2 J-m1 | J J> of sign (-1)^(j1-m1) (Condon-Shortley), read off
    the alternating sum of its entries (at least 1 in size), and |J M-1> is
    J_- |J M> times a positive number, so each block takes the sign of its
    overlap with the lowered vector of the block above, of size
    sqrt(J(J+1) - M(M-1)) >= 1: no small coefficient decides a sign.  The
    other spin order follows by exchange, (-1)^(j1+j2-J).  Each J's array is
    a transposed view of its own (M, m, m') block of one buffer, m the spin
    with fewer states.  Block t of the (blocks, n, n) stack holds the states
    ia + ib = t (ia, ib the indices of m_a, m_b, a the spin with fewer
    states), and the ladder of column c runs over the blocks
    top <= t < blocks - top, top = n - 1 - c.  Everything is made on each
    call: the entries, ladders and layout are O(blocks n), about what the
    eigensolve costs at small spins and far less at large ones.
    """
    swap = j1_2 > j2_2
    a2, b2 = (j2_2, j1_2) if swap else (j1_2, j2_2)
    n, blocks = a2 + 1, a2 + b2 + 1
    ia = np.arange(n)
    t = np.arange(blocks)[:, None]
    ib = t - ia
    inside = (ib >= 0) & (ib <= b2)
    lower_a = np.sqrt((a2 - ia) * (ia + 1.0))                   # <m-1| J_- |m> at m = a - ia
    lower_b = np.sqrt(np.maximum((b2 - ib) * (ib + 1.0), 0.0))
    top = n - 1 - ia                                             # the block M = J of each column
    ladder = np.minimum(t, blocks - 1 - t) >= top                # -J <= M <= J
    h = np.zeros((blocks, n * n))
    pad = -1.0 - (a2 * (a2 + 2) + b2 * (b2 + 2)) / 4             # below the spectrum
    h[:, ::n + 1] = np.where(inside, (a2 - 2 * ia) * (b2 - 2 * ib) / 2.0, pad)  # 2 m_a m_b
    h[:, n::n + 1] = lower_a[:-1] * lower_b[:, 1:]               # <ia + 1| J_a^- J_b^+ |ia>
    vec = np.linalg.eigh(h.reshape(blocks, n, n))[1]
    lowered = lower_b[:-1, :, None] * vec[:-1]                   # J_- of block t in block t + 1's states
    lowered[:, 1:] += lower_a[:-1, None] * vec[:-1, :-1]
    flips = np.empty((blocks, n), dtype=bool)
    highest = (top * n * n)[:, None] + ia * n + ia[:, None]      # [c, ia] -> flat index of vec[top[c], ia, c]
    np.less(np.take(vec, highest) @ (-1.0) ** ia, 0, out=flips[0])
    np.less((vec[1:] * lowered).sum(axis=1), 0, out=flips[1:])
    flips[1:] &= ladder[1:] & ladder[:-1]
    odd = np.logical_xor.accumulate(flips) ^ ((top % 2 == 1) & swap)  # and the exchange sign
    inside = inside[:, :, None].astype(float)
    vec *= np.where(odd[:, None, :], -inside, inside)  # and zero on the padding
    # column c of its ladder's blocks is J's (M, m_a, m_b) array, whose
    # entry (M, ia, ib = M + first - ia) sits M (n (2b+1) + 1) + ia 2b floats
    # after the first; padded entries land on zeros of other states
    j_2 = a2 + b2 - 2 * top
    sizes = (j_2 + 1) * n * (b2 + 1)
    starts = np.cumsum(sizes) - sizes
    flat = np.zeros(int(sizes.sum()))
    strides = (8 * (n * (b2 + 1) + 1), 8 * b2)
    out = {}
    for c, (j, first, start, size) in enumerate(zip(j_2.tolist(), top.tolist(), starts.tolist(), sizes.tolist())):
        skew = np.ndarray((blocks - 2 * first, n), buffer=flat, offset=8 * (start + first), strides=strides)
        skew[...] = vec[first:blocks - first, :, c]
        out[j] = flat[start:start + size].reshape(j + 1, n, b2 + 1).transpose((2, 1, 0) if swap else (1, 2, 0))
    return out


def su2_coupling_table(sigma2: int) -> CouplingTable:
    """Coupling table of L(V^sigma) for SU(2); components are integer spins
    0..2*sigma, one copy each.

    The copy of J is e^J_M[i, j] = (-1)^J sum_b Y[j, b] <sigma i; sigma b | J M>
    with the conjugation intertwiner Y[idx(m), idx(-m)] = (-1)^(sigma-m), a
    signed index flip, so each ``clebsch_gordan`` array turns into its copy
    in place, with no second array.  The sign (-1)^J makes the leading entry
    e^J_J[0, J] = <sigma sigma; sigma J-sigma | J J> positive, the phase
    ``_fix_column_phases`` gives every copy.
    """
    flip = (-1.0) ** np.arange(sigma2 + 1)
    basis = {}
    for j_2, cg in clebsch_gordan(sigma2, sigma2).items():
        e = cg.transpose(2, 0, 1)[:, :, ::-1]           # e[M, i, j] = cg[i, d-1-j, M], a view
        e *= flip if j_2 % 4 == 0 else -flip
        basis[j_2] = e[None]
    return CouplingTable(sigma=sigma2, kind="su2", basis=basis)


# ---------------------------------------------------------------------------
# Z0-fixed bases, adapted irreps, Frobenius reciprocity
# ---------------------------------------------------------------------------


def z_fixed_bases(irreps_list: list[Irrep], table: CharacterTable, centralizer) -> list[ZFixedBasis]:
    """Adapted basis of every irrep from its centralizer average
    (1/|Z0|) sum_h T(h), one pass per irrep dimension; ``irreps_list`` holds
    one irrep per row of ``table``, in row order.

    A 1-dim irrep's average is the Z0 average of its character,
    sum_C chi(C) z_C / |Z0| with z_C the number of centralizer elements in
    class C (read off ``table.class_of``), one product for all of them.  Above
    dimension 1 the irreps are stacked in the chunks of ``groups._chunks``
    (an irrep larger than one chunk alone, as a view) and each chunk gathers
    its centralizer matrices at once.
    ``_z_fixed_stack`` takes the averages of one dimension together.
    """
    if len(irreps_list) != len(table.dims):
        raise ValueError(f"{len(irreps_list)} irreps for a character table of {len(table.dims)} rows")
    cent = np.asarray(centralizer)
    out = [None] * len(irreps_list)
    for rows in _blocks(rep.dim for rep in irreps_list).values():
        if irreps_list[rows[0]].dim == 1:
            counts = np.bincount(table.class_of[cent], minlength=len(table.classes))
            avg = (table.values[rows] @ counts / len(cent))[:, None, None]
        else:
            avg = np.concatenate([
                _stack([irreps_list[r].matrices for r in rows[chunk]])[:, cent].sum(axis=1)
                for chunk in _chunks(len(rows), irreps_list[rows[0]].matrices.size)
            ]) / len(cent)
        m_alphas, bases = _z_fixed_stack(avg)
        for r, m_alpha, basis in zip(rows, m_alphas.tolist(), bases):
            out[r] = ZFixedBasis(m_alpha=m_alpha, basis=basis)
    return out


def _z_fixed_stack(avg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m_alpha, W) for a stack (m, d, d) of centralizer averages.

    The trace of an average is the dimension m_alpha of the Z0-fixed subspace
    and must lie within 1e-8 of an integer (else ArithmeticError).  The fixed
    range (rank m_alpha) and the range of I - average (rank d - m_alpha; the
    identity when m_alpha = 0) come from one ``_orthonormal_range`` over the
    whole stack and are laid side by side, so the first m_alpha columns of W
    span the fixed subspace.
    """
    d, trace = avg.shape[-1], avg.trace(axis1=-2, axis2=-1)
    m_alpha = np.rint(trace.real).astype(int)
    if (off := np.abs(trace - m_alpha) > 1e-8).any():
        raise ArithmeticError(f"non-integer Z0-fixed dimension {trace[off].flat[0]}")
    if d == 1 or not m_alpha.any():  # the identity: 1-dim irreps, or no Z0-fixed vectors
        return m_alpha, np.zeros(avg.shape, dtype=complex) + np.eye(d)
    pair = np.stack([avg, np.eye(d) - avg])
    pair[1][m_alpha == 0] = np.eye(d)
    ranges = _orthonormal_range(pair, np.stack([m_alpha, d - m_alpha]))
    cols, m = np.arange(d), m_alpha[..., None]
    pick = np.where(cols < m, cols, ranges.shape[-1] + cols - m)  # fixed columns, then the complement's
    return m_alpha, np.take_along_axis(np.concatenate([ranges[0], ranges[1]], axis=-1), pick[..., None, :], axis=-1)


def adapt_irreps_to_class(irreps_list: list[Irrep], bases: list[ZFixedBasis]) -> tuple[list[Irrep], list[int]]:
    """Rotate every irrep so its leading basis vectors are Z0(g0)-fixed,
    T' = W^H T W with W the ``z_fixed_bases`` of each irrep for the class,
    one stacked product per dimension above 1; a 1-dim irrep is left as it
    is, as W^H T W = T.  Returns the adapted irreps and every m_alpha."""
    adapted = list(irreps_list)
    for rows in _blocks(rep.dim for rep in irreps_list).values():
        if irreps_list[rows[0]].dim > 1:
            w = np.stack([bases[r].basis for r in rows])[:, None]
            t = _stack([irreps_list[r].matrices for r in rows])
            for r, mats in zip(rows, _matmul(_matmul(w.conj().swapaxes(2, 3), t), w)):
                adapted[r] = replace(irreps_list[r], matrices=mats)
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
    for ai, zb in enumerate(z_fixed_bases(irreps_list, table, cls.centralizer)):
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


def _euler_columns(angles) -> np.ndarray:
    """phi, theta, psi of Euler angles given as an (N, 3) array; any other
    shape is refused."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != 3:
        raise ValueError(f"Euler angles must have shape (N, 3), got {angles.shape}")
    return angles.T


def product_expansion_residual_su2(table: CouplingTable, angles) -> float:
    """Max deviation in the matrix-element product expansion of SU(2), over the
    elements of Euler angles (phi, theta, psi), shape (N, 3)."""
    phi, theta, psi = _euler_columns(angles)
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
    theta, psi), shape (N, 3), with N real weights, any node set; the sum
    separates (``_triple_sum_su2``)."""
    lhs = _triple_sum_su2(alpha2, table.sigma, angles, weights)
    return _triple_residual(lhs, alpha2 + 1, table.basis.get(alpha2))


def _ranks(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``ids`` (integers below ``count``), ascending,
    and the rank of each entry among them: ``np.unique`` with
    ``return_inverse``, by a presence mask instead of a sort."""
    present = np.zeros(count, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[ids]


def _triple_sum_su2(alpha2: int, sigma2: int, angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_g w_g conj(t^alpha_kl) conj(t^sigma_ir) t^sigma_sp, shape (k, l, i, r, s, p).

    The summand is e^{ia(phi - pi/2)} e^{ib(psi + pi/2)} d^alpha_kl d^sigma_ir
    d^sigma_sp with a = -m_k - m_i + m_s, b = -m_l - m_r + m_p, so per distinct
    theta it is the moment M[a, b] = sum_g w_g e^{ia(phi_g - pi/2)} e^{ib(psi_g + pi/2)}
    times a product of little-d evaluated once per theta.  The nodes, sorted
    by theta, go in chunks; each chunk bins its weights by their (theta, phi,
    psi) values into a histogram W over the values it holds, takes the moments
    of all its thetas as the two products L^T W R with the phases L, R of those
    phi and psi, and sums every (k, i, s, l, r, p) in one contraction.  A
    chunk holds at most ``groups._CHUNK_ENTRIES`` numbers per theta-stacked
    intermediate (the histogram, bounded through its node count and the
    distinct phi and psi of the whole set, or the contraction, which takes
    at least one theta), so a product rule bins each chunk's nodes once and a
    node set with every angle distinct never makes a nodes^3 histogram.
    """
    phi, theta, psi = _euler_columns(angles)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != phi.shape:
        raise ValueError(f"weights of shape {weights.shape} for {len(phi)} nodes")
    d_alpha, d_sigma = alpha2 + 1, sigma2 + 1
    # a = k + i - s - alpha2/2 sits at position k + i - s + sigma2 of the orders; b likewise over (l, r, p)
    orders = np.arange(d_alpha + 2 * sigma2) - sigma2 - alpha2 / 2
    k, i, s = np.ix_(range(d_alpha), range(d_sigma), range(d_sigma))
    a = (k + i - s + sigma2).ravel()
    position = np.add.outer(a * len(orders), a).reshape((d_alpha, d_sigma, d_sigma) * 2)
    position = position.transpose(0, 3, 1, 4, 2, 5).ravel()  # flat (a, b) of each (k, l, i, r, s, p)
    order = np.argsort(theta, kind="stable")
    new_theta = np.diff(theta[order], prepend=np.nan) != 0
    t_sorted = np.cumsum(new_theta) - 1                          # theta index of each sorted node
    thetas = theta[order[new_theta]]
    phis, u_of = np.unique(phi, return_inverse=True)
    psis, v_of = np.unique(psi, return_inverse=True)
    left = np.exp(1j * np.multiply.outer(phis - np.pi / 2, orders))
    right = np.exp(1j * np.multiply.outer(psis + np.pi / 2, orders))
    alpha_d = WignerD(alpha2).little_d(thetas).reshape(len(thetas), -1, 1)
    sigma_d = WignerD(sigma2).little_d(thetas).reshape(len(thetas), -1)
    sigma_pairs = (sigma_d[:, :, None] * sigma_d[:, None, :]).reshape(len(thetas), 1, -1)  # d_ir d_sp
    lhs = np.zeros(len(position), dtype=complex)
    bound = groups._CHUNK_ENTRIES
    term = min(len(lhs), bound)  # one theta's terms; a larger one still takes its theta whole
    lo = 0
    while lo < len(order):
        span = t_sorted[lo:lo + bound] - t_sorted[lo] + 1  # thetas of the first n nodes
        n = np.arange(1, len(span) + 1)
        per_theta = np.maximum(np.minimum(n, len(phis)) * np.minimum(n, len(psis)), term)
        hi = lo + max(1, int(np.count_nonzero(span * per_theta <= bound)))
        nodes, t = order[lo:hi], t_sorted[lo:hi] - t_sorted[lo]
        u_values, u = _ranks(u_of[nodes], len(phis))
        v_values, v = _ranks(v_of[nodes], len(psis))
        shape = (t[-1] + 1, len(u_values), len(v_values))
        hist = np.bincount(
            (t * shape[1] + u) * shape[2] + v, weights=weights[nodes], minlength=np.prod(shape)
        ).reshape(shape)
        moments = (left[u_values].T @ hist @ right[v_values]).reshape(shape[0], -1)  # (thetas, (a, b))
        rows = slice(t_sorted[lo], t_sorted[lo] + shape[0])
        terms = np.take(moments, position, axis=1)                        # (thetas, (k, l, i, r, s, p))
        terms *= (alpha_d[rows] * sigma_pairs[rows]).reshape(shape[0], -1)  # d_kl d_ir d_sp
        lhs += terms.sum(axis=0)
        lo = hi
    return lhs.reshape((d_alpha, d_alpha) + (d_sigma,) * 4)


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
    so that pred[k, l] = sum_m c(sigma u; sigmabar i | alpha m k)^* reduced[l, m]
    (``_wigner_eckart_stack`` of the copies of alpha).  The prediction holds
    for Z0-fixed columns l only (for adapted finite irreps 0..m_alpha-1, for
    SU(2) weight bases the m = 0 index), where the weight descends to G/Z0;
    the caller lists those.  Without alpha in L(V^sigma) every prediction is
    zero and there are no reduced matrix elements.
    """
    e = table.basis.get(alpha)
    if e is None:
        return np.zeros((n_alpha, len(columns)) + t_sigma_g0.shape, dtype=complex), np.zeros((len(columns), 0))
    return _wigner_eckart_stack(e, n_alpha, columns, t_sigma_g0)


def _wigner_eckart_stack(
    copies: np.ndarray, n_alpha: int, columns, t_sigma_g0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``wigner_eckart_matrix`` from the copies (..., m, n_alpha, d, d) of alpha
    in L(V^sigma) and t^sigma(g0) (..., d, d), for any leading axes: a stack
    of (sigma, alpha) pairs of one shape takes one einsum each, with
    c = conj(e^alpha) folded in; pred and reduced gain the leading axes."""
    reduced = np.einsum("...mlpr,...pr->...lm", copies.conj()[..., columns, :, :], t_sigma_g0) / n_alpha
    return np.einsum("...mkui,...lm->...klui", copies, reduced), reduced


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
    against every conj t^sigma_ij.  The chunks of columns come from
    ``groups._chunks``, at least one column each.

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
    for gamma, d in enumerate(dims):
        for columns in _chunks(d * d, n * max(len(support), len(pushed))):
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
            cls=group.label(g0), alpha=ai, column=col, max_norm=float(w), vanishes=bool(w < tol)
        )
        for (ai, col), w in zip(families, worst)
    ]
