"""Irreducible unitary representations, characters and isotypic projectors.

Character tables come from Dixon's method: the common eigenvectors of the
class-sum matrices are the central characters, so one Hermitian eigensolve of
a random combination of class sums gives the whole table.  Concrete unitary
irreps of dimension 1 are roots of unity snapped from the characters.  Above
that, each catalog family gives only the images of its catalog generators
(dihedral 2x2 blocks, Young's orthogonal form for S_n, the standard Q8 pair),
and one rule, ``extend_from_generators``, carries them along the
breadth-first words to every element; any row no catalog candidate matches
is split out of the regular representation.  Row order of the
character table is canonical: trivial character first, then by (dimension,
lexicographic value order), and the irrep list follows the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .groups import FiniteGroup, ConjugacyClass, conjugacy_classes, left_regular_matrix

__all__ = [
    "Irrep",
    "CharacterTable",
    "character_table",
    "irreps",
    "isotypic_projector",
    "unitarize",
    "schur_defect",
    "extend_from_generators",
]


@dataclass
class Irrep:
    """A unitary irreducible representation given by per-element matrices."""

    label: str
    dim: int
    matrices: np.ndarray  # shape (|G|, dim, dim), complex


@dataclass
class CharacterTable:
    classes: list[ConjugacyClass]
    values: np.ndarray      # (num_irreps, num_classes)
    dims: np.ndarray        # (num_irreps,) integer dimensions
    class_of: np.ndarray    # element index -> class index

    @property
    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.class_of)

    def element_values(self, alpha: int) -> np.ndarray:
        """Character of row alpha as a function on the group."""
        return self.values[alpha][self.class_of]


# ---------------------------------------------------------------------------
# character table (Burnside-Dixon on class-algebra constants)
# ---------------------------------------------------------------------------


def _class_quotients(group: FiniteGroup, classes: list[ConjugacyClass]) -> tuple[np.ndarray, np.ndarray]:
    """class_of[x], and J[x, k] = class of x^-1 z_k (z_k the base of class k), so that
    a[i, j, k] = #{(x,y) in C_i x C_j : xy = z_k} = #{x in C_i : J[x, k] = j}."""
    class_of = np.empty(group.order, dtype=np.int64)
    for ci, c in enumerate(classes):
        class_of[list(c.members)] = ci
    bases = np.array([c.base_element for c in classes])
    return class_of, class_of[group.mult_table[group.inverse_table[:, None], bases]]


def _class_combination(class_of: np.ndarray, quotient: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_i coeff_i a[i] as a (k, k) matrix: one weighted count over J."""
    k = quotient.shape[1]
    jk, w = (quotient * k + np.arange(k)).ravel(), np.repeat(coeff[class_of], k)
    return (np.bincount(jk, w.real, k * k) + 1j * np.bincount(jk, w.imag, k * k)).reshape(k, k)


def character_table(group: FiniteGroup, seed: int = 42) -> CharacterTable:
    """Compute the full character table (Dixon's method).

    The class-sum matrices A_i (a[i] acting on the class labels) commute, and
    A_i omega = omega_i omega for each central character
    omega_i = |C_i| chi(C_i) / n, so their common eigenvectors are the omegas.
    Conjugating by diag(1/sqrt|C_i|) makes them normal, and A_{i^-1} = A_i^H
    in that gauge, so a random complex combination plus its adjoint is a
    Hermitian matrix whose eigenvectors, scaled back by sqrt|C_i| and set to 1
    at the identity class, are the omegas.  Degenerate spectra are retried
    with fresh random combinations, and runs of crowded eigenvalues are split
    again by the skew part of the combination.  The combination is one
    weighted count over J, so no (k, k, k) array is ever built.  Then
    n^2 = |G| / sum_i |omega_i|^2 / |C_i| and chi = n omega / |C|, all rows
    at once; chi(e) is n exactly.
    """
    classes = conjugacy_classes(group)
    k = len(classes)
    sizes = np.array([c.size for c in classes], dtype=float)
    class_of, quotient = _class_quotients(group, classes)
    d = np.sqrt(sizes)
    rng = np.random.default_rng(seed)
    vecs = None
    for _ in range(8):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        m = (_class_combination(class_of, quotient, coeff) / d[:, None]) * d[None, :]
        h = m + m.conj().T
        evals, evecs = np.linalg.eigh(h)
        if k == 1 or np.min(np.diff(np.sort(evals))) > 1e-8 * max(1.0, np.max(np.abs(evals))):
            vecs = evecs
            break
    if vecs is None:
        raise ArithmeticError(
            "degenerate numerical spectrum persisted; raise working precision"
        )
    vecs = _split_crowded_eigenvectors(m, evals, vecs)
    # one omega per row; the identity class is index 0 (classes start from base 0)
    omega = (vecs * d[:, None]).T
    omega /= omega[:, :1]
    omega[:, 0] = 1.0
    dim = np.sqrt(group.order / np.sum(np.abs(omega) ** 2 / sizes, axis=1))
    dims = np.rint(dim).astype(int)
    off = np.abs(dim - dims) > 1e-6
    if off.any():
        raise ArithmeticError(f"non-integer irrep dimension {dim[off][0]}; raise working precision")
    values = dims[:, None] * omega / sizes
    # kill numerical dust so sort keys and golden files are stable
    values.real[np.abs(values.real) < 1e-12] = 0.0
    values.imag[np.abs(values.imag) < 1e-12] = 0.0
    order = _canonical_row_order(values, dims)
    return CharacterTable(classes=classes, values=values[order], dims=dims[order], class_of=class_of)


def _split_crowded_eigenvectors(m: np.ndarray, evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Re-split the eigenvectors of h = m + m^H whose eigenvalues crowd together.

    eigh pins an eigenvector only to about eps |h| / gap, and k random
    eigenvalues come as close as about |h| / k^2.  Each run of eigenvalues
    closer than 1e-4 |h| still spans the right subspace to about 1e4 eps;
    inside it the omegas are the eigenvectors of the skew part of m, whose
    eigenvalues the crowding in h does not touch.  Rotates vecs in place.
    """
    close = np.diff(evals) < 1e-4 * np.max(np.abs(evals))
    if not close.any():
        return vecs
    # runs of consecutive close gaps, as [start, stop) in the sorted spectrum
    edges = np.diff(np.r_[0, close.astype(np.int8), 0])
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1
    cols = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
    m_cols = m @ vecs[:, cols]
    at = 0
    for a, b in zip(starts, stops):
        sub = vecs[:, a:b]
        g = sub.conj().T @ m_cols[:, at:at + b - a]
        at += b - a
        _, rot = np.linalg.eigh((g - g.conj().T) / 2j)
        vecs[:, a:b] = sub @ rot
    return vecs


def _canonical_row_order(values: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Trivial row first, then by dimension, then lexicographically by the
    (re, im) pairs of the row, each rounded to 9 decimals; stable on ties."""
    trivial = np.all(np.isclose(values, 1.0, atol=1e-9), axis=1)
    parts = np.stack([values.real, values.imag], axis=2).reshape(len(values), -1)
    keys = np.rint(parts * 1e9)
    # rint(x * 1e9) differs from Python's correctly rounded round(x, 9) only
    # where the product itself was rounded onto a half-integer
    for i in np.flatnonzero(np.abs(parts * 1e9 - keys) == 0.5):
        keys.flat[i] = round(round(float(parts.flat[i]), 9) * 1e9)
    return np.lexsort(np.vstack([keys.T[::-1], dims, ~trivial]))  # last key sorts first


# ---------------------------------------------------------------------------
# irreps
# ---------------------------------------------------------------------------


def extend_from_generators(group: FiniteGroup, generator_matrices: list[np.ndarray]) -> np.ndarray:
    """Extend the images of the generators, one per slot of ``group.generators``,
    to every element: the breadth-first word of x = parent * gen[slot] gives
    rho(x) = rho(parent) @ rho(gen[slot]), parents first.
    """
    dim = generator_matrices[0].shape[0] if generator_matrices else 1
    mats = np.zeros((group.order, dim, dim), dtype=complex)
    mats[0] = np.eye(dim)
    for x, (parent, slot) in group.bfs_words.items():
        mats[x] = mats[parent] @ generator_matrices[slot]
    return mats


def _one_dim_irrep(group: FiniteGroup, row: np.ndarray, class_of: np.ndarray) -> np.ndarray:
    """1-dim characters are homomorphisms into roots of unity; snap them exact, all
    elements at once, as cos + i sin of 2 pi k / ord(g) (the bits of exp(2j pi k / ord(g)))."""
    orders = group.element_orders()
    k = np.rint(np.angle(row[class_of]) / (2 * np.pi / orders)).astype(np.int64) % orders
    arg = 2 * np.pi * k / orders
    return (np.cos(arg) + 1j * np.sin(arg)).reshape(-1, 1, 1)


# -- Young's orthogonal form for S_n ----------------------------------------


def _partitions(n: int) -> list[tuple[int, ...]]:
    def rec(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return list(rec(n, n))


def _standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    n = sum(shape)

    def rec(filled: list[list[int]], value: int):
        if value > n:
            yield tuple(tuple(r) for r in filled)
            return
        for r, row_len in enumerate(shape):
            cur = len(filled[r])
            if cur < row_len and (r == 0 or len(filled[r - 1]) > cur):
                filled[r].append(value)
                yield from rec(filled, value + 1)
                filled[r].pop()

    return list(rec([[] for _ in shape], 1))


def _yor_adjacent_matrices(shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Young orthogonal matrices for the adjacent transpositions of S_n."""
    n = sum(shape)
    tableaux = _standard_tableaux(shape)
    index = {t: i for i, t in enumerate(tableaux)}
    dim = len(tableaux)

    def position(t, value):
        for r, row in enumerate(t):
            for c, entry in enumerate(row):
                if entry == value:
                    return r, c
        raise AssertionError

    mats = np.zeros((n - 1, dim, dim))
    for k in range(1, n):  # transposition swapping values k, k+1
        for ti, t in enumerate(tableaux):
            r1, c1 = position(t, k)
            r2, c2 = position(t, k + 1)
            axial = (c2 - r2) - (c1 - r1)
            mats[k - 1, ti, ti] = 1.0 / axial
            swapped = tuple(
                tuple(k + 1 if e == k else k if e == k + 1 else e for e in row) for row in t
            )
            if swapped in index:
                mats[k - 1, index[swapped], ti] = np.sqrt(1.0 - 1.0 / axial**2)
    return mats, dim


# -- catalog generator images -----------------------------------------------


def _symmetric_images(n: int) -> list[list[np.ndarray]]:
    """Images of (1 2) and of the n-cycle (1 2 ... n) = s_1 s_2 ... s_{n-1}."""
    out = []
    for shape in _partitions(n):
        adj, dim = _yor_adjacent_matrices(shape)
        if dim > 1:  # trivial/sign come from the 1-dim path
            out.append([adj[0], reduce(np.matmul, adj)])
    return out


def _dihedral_images(n: int) -> list[list[np.ndarray]]:
    """Images of the rotation and the reflection, one 2-dim irrep per 0 < h < n/2."""
    ref = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    omegas = [np.exp(2j * np.pi * h / n) for h in range(1, (n + 1) // 2)]
    return [[np.diag([omega, omega.conjugate()]), ref] for omega in omegas]


def _quaternion_images(n: int) -> list[list[np.ndarray]]:
    return [[np.array([[1j, 0], [0, -1j]]), np.array([[0, 1], [-1, 0]], dtype=complex)]]


# family -> n -> the catalog-generator images of each irrep of dimension > 1
_CATALOG_IMAGES = {
    "dihedral": _dihedral_images,
    "symmetric": _symmetric_images,
    "quaternion": _quaternion_images,
}


# -- generic extraction from the regular representation ----------------------


def _orthonormal_range(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Deterministic orthonormal basis of the range of an (approximate) projector.

    Gram-Schmidt with column pivoting: each step takes the column of largest
    residual norm and, among the columns within a relative 1e-8 of it, the
    lowest index, so round-off never reorders columns of equal norm.  The
    pivot's residual is orthogonalized twice against the basis so far, the
    residual norms of all columns are downdated, and ``_fix_column_phases``
    runs last.
    """
    a = np.asarray(matrix, dtype=complex)
    q = np.zeros((a.shape[0], rank), dtype=complex)
    res = (np.abs(a) ** 2).sum(axis=0)
    for k in range(rank):
        norms = np.sqrt(np.maximum(res, 0.0))
        v = a[:, (norms >= (1.0 - 1e-8) * norms.max()).argmax()]
        for _ in range(2 if k else 0):
            v = v - q[:, :k] @ (q[:, :k].conj().T @ v)
        q[:, k] = v / np.linalg.norm(v)
        if k + 1 < rank:
            res -= np.abs(q[:, k].conj() @ a) ** 2
    return _fix_column_phases(q)


def _fix_column_phases(basis: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Rotate each column so its first entry above ``tol`` is positive real."""
    basis = basis.copy()
    for col in range(basis.shape[1]):
        above = np.abs(basis[:, col]) > tol
        if above.any():
            lead = basis[above.argmax(), col]
            basis[:, col] *= np.abs(lead) / lead
    return basis


def _regular_extraction(
    group: FiniteGroup,
    table: CharacterTable,
    alpha: int,
    seed: int = 42,
) -> np.ndarray:
    """Cut one unitary copy of irrep alpha out of the regular representation.

    B = ``_orthonormal_range`` of the isotypic projector lambda(e_alpha) spans
    the (dim^2)-dimensional block.  Right convolution by a random r,
    R[g, x] = r(g^-1 x), commutes with every lambda(g), so B^H R B plus its
    adjoint is a Hermitian element of the commutant whose eigenspaces are
    dim-fold, one per multiplicity copy (Dixon 1970).  The lowest eigenspace
    V gets the basis ``_orthonormal_range(V V^H, dim)``, never LAPACK's
    arbitrary degenerate eigenvectors, and column j of every matrix is one
    gather and one product, mats[:, :, j] = w[g^-1 x, j] @ conj(w).  A fixed
    seed schedule retries accidental eigenvalue clustering.
    """
    n = group.order
    dim = int(table.dims[alpha])
    proj = left_regular_matrix(group, isotypic_projector(group, table, alpha))
    basis = _orthonormal_range(proj, dim * dim)          # |G| x dim^2
    inv_rows = group.mult_table[group.inverse_table, :]  # inv_rows[g, x] = g^-1 x
    rng = np.random.default_rng(seed)
    for _ in range(8):
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        small = basis.conj().T @ (r[inv_rows] @ basis)   # R restricted to the block
        evals, evecs = np.linalg.eigh(small + small.conj().T)
        groups_found = _cluster(evals, 1e-6 * max(1.0, np.abs(evals).max()))
        if len(groups_found) == dim and all(len(g) == dim for g in groups_found):
            v = evecs[:, groups_found[0]]
            w = basis @ _orthonormal_range(v @ v.conj().T, dim)  # |G| x dim orthonormal
            mats = np.empty((n, dim, dim), dtype=complex)
            for j in range(dim):
                mats[:, :, j] = w[:, j][inv_rows] @ w.conj()
            return unitarize(mats)
    raise ArithmeticError("multiplicity splitting stayed degenerate under the seed schedule")


def _cluster(sorted_values: np.ndarray, tol: float) -> list[list[int]]:
    groups: list[list[int]] = [[0]]
    for i in range(1, len(sorted_values)):
        if sorted_values[i] - sorted_values[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def unitarize(matrices: np.ndarray) -> np.ndarray:
    """Weyl trick: average the Gram matrix and conjugate by its square root."""
    gram = np.mean(np.einsum("gji,gjk->gik", matrices.conj(), matrices), axis=0)
    evals, evecs = np.linalg.eigh(gram)
    root = (evecs * np.sqrt(evals)) @ evecs.conj().T
    root_inv = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return root @ matrices @ root_inv


def schur_defect(matrices: np.ndarray, seed: int = 0) -> float:
    """Distance of the averaged commutant from scalars over two random
    Hermitian probes; ~0 iff irreducible."""
    n, dim = matrices.shape[0], matrices.shape[1]
    if dim == 1:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(2):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = x + x.conj().T
        avg = np.mean(matrices @ x @ matrices.conj().transpose(0, 2, 1), axis=0)
        scalar = np.trace(avg) / dim
        worst = max(worst, float(np.max(np.abs(avg - scalar * np.eye(dim)))))
    return worst


def irreps(group: FiniteGroup, table: CharacterTable | None = None, seed: int = 42) -> list[Irrep]:
    """One unitary irrep per character-table row, in row order."""
    if table is None:
        table = character_table(group, seed=seed)
    family, n = group.family or (None, 0)
    images = _CATALOG_IMAGES[family](n) if family in _CATALOG_IMAGES else []
    candidates = [extend_from_generators(group, gens) for gens in images]

    bases = np.array([c.base_element for c in table.classes])

    def trace_vector(mats: np.ndarray) -> np.ndarray:
        return np.trace(mats[bases], axis1=1, axis2=2)

    out: list[Irrep] = []
    for r in range(len(table.dims)):
        dim = int(table.dims[r])
        row = table.values[r]
        mats = None
        if dim == 1:
            mats = _one_dim_irrep(group, row, table.class_of)
        else:
            for cand in candidates:
                if cand.shape[1] == dim and np.max(np.abs(trace_vector(cand) - row)) < 1e-6:
                    mats = cand
                    break
            if mats is None:
                mats = _regular_extraction(group, table, r, seed=seed)
        if np.max(np.abs(trace_vector(mats) - row)) > 1e-8:
            raise ArithmeticError(f"constructed irrep {r} does not match its character row")
        if schur_defect(mats, seed=seed + r) > 1e-10:
            raise ArithmeticError(f"constructed irrep {r} failed the Schur irreducibility check")
        out.append(Irrep(label=f"irrep{r}", dim=dim, matrices=mats))
    return out


# ---------------------------------------------------------------------------
# central idempotents
# ---------------------------------------------------------------------------


def isotypic_projector(group: FiniteGroup, table: CharacterTable, alpha: int) -> np.ndarray:
    """The central idempotent e_alpha = (n^alpha/|G|) conj(chi^alpha) of the group algebra.

    A length-|G| vector; the isotypic projector of the regular representation
    is ``left_regular_matrix(group, e_alpha)``.
    """
    if alpha < 0 or alpha >= len(table.dims):
        raise KeyError(f"character row {alpha} missing")
    return (int(table.dims[alpha]) / group.order) * table.element_values(alpha).conj()
