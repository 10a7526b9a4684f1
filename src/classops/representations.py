"""Irreducible unitary representations, characters and isotypic projectors.

Character tables are computed Burnside-Dixon style from the class-algebra
structure constants; concrete unitary irreps come from explicit catalog
constructions (roots of unity, dihedral 2x2 blocks, Young's orthogonal form
for S_n, the standard Q8 pair) with a generic fallback that splits the regular
representation.  Row order of the character table is canonical: trivial
character first, then by (dimension, lexicographic value order), and the
irrep list follows the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .groups import FiniteGroup, ConjugacyClass, conjugacy_classes, left_regular_matrix

__all__ = [
    "Irrep",
    "CharacterTable",
    "IsotypicProjection",
    "character_table",
    "irreps",
    "isotypic_projector",
    "matrix_element_functions",
    "represent",
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

    def character(self, classes: list[ConjugacyClass]) -> np.ndarray:
        return np.array([np.trace(self.matrices[c.base_element]) for c in classes])


@dataclass
class CharacterTable:
    classes: list[ConjugacyClass]
    values: np.ndarray      # (num_irreps, num_classes)
    dims: np.ndarray        # (num_irreps,) integer dimensions

    @property
    def class_sizes(self) -> np.ndarray:
        return np.array([c.size for c in self.classes])

    def class_of_elements(self, group: FiniteGroup) -> np.ndarray:
        """Map element index -> class index."""
        class_of = np.empty(group.order, dtype=np.int64)
        for ci, c in enumerate(self.classes):
            class_of[list(c.members)] = ci
        return class_of

    def element_values(self, group: FiniteGroup, alpha: int) -> np.ndarray:
        """Character of row alpha as a function on the group."""
        return self.values[alpha][self.class_of_elements(group)]


@dataclass
class IsotypicProjection:
    alpha: int
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# character table (Burnside-Dixon on class-algebra constants)
# ---------------------------------------------------------------------------


def _class_constants(group: FiniteGroup, classes: list[ConjugacyClass]) -> np.ndarray:
    """a[i, j, k] = #{x in C_i : x^-1 z_k in C_j} = #{(x,y) in C_i x C_j : xy = z_k}."""
    k = len(classes)
    class_of = np.empty(group.order, dtype=np.int64)
    for ci, c in enumerate(classes):
        class_of[list(c.members)] = ci
    bases = np.array([c.base_element for c in classes])
    a = np.zeros((k, k, k))
    for i, c in enumerate(classes):
        for x in c.members:
            j = class_of[group.mult_table[group.inverse_table[x], bases]]
            a[i, j, np.arange(k)] += 1.0
    return a


def character_table(group: FiniteGroup, seed: int = 42, gap_tol: float = 1e-8) -> CharacterTable:
    """Compute the full character table.

    The class-sum matrices A_i (a[i] acting on the class labels) commute and
    share the eigenvectors omega^alpha with omega_i = |C_i| chi(C_i) / n.
    Conjugating by diag(1/sqrt|C_i|) makes them normal, and A_{i^-1} = A_i^H
    in that gauge, so a random complex combination plus its adjoint is a
    Hermitian matrix whose eigenvectors are the characters.  Degenerate
    spectra are retried with fresh random combinations.
    """
    classes = conjugacy_classes(group)
    k = len(classes)
    sizes = np.array([c.size for c in classes], dtype=float)
    a = _class_constants(group, classes)
    d = np.sqrt(sizes)
    a_tilde = np.empty_like(a)
    for i in range(k):
        a_tilde[i] = (a[i] / d[:, None]) * d[None, :]
    rng = np.random.default_rng(seed)
    vecs = None
    for _ in range(8):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        m = np.tensordot(coeff, a_tilde, axes=1)
        h = m + m.conj().T
        evals, evecs = np.linalg.eigh(h)
        if k == 1 or np.min(np.diff(np.sort(evals))) > gap_tol * max(1.0, np.max(np.abs(evals))):
            vecs = evecs
            break
    if vecs is None:
        raise ArithmeticError(
            "degenerate numerical spectrum persisted; raise working precision"
        )
    rows = []
    for col in range(k):
        v = vecs[:, col] * d          # back to the omega gauge
        j_star = int(np.argmax(np.abs(v)))
        omega = np.tensordot(a, v, axes=([2], [0]))[:, j_star] / v[j_star]
        dim_sq = group.order / np.sum(np.abs(omega) ** 2 / sizes)
        dim = np.sqrt(dim_sq)
        if abs(dim - round(dim)) > 1e-6:
            raise ArithmeticError(f"non-integer irrep dimension {dim}; raise working precision")
        rows.append(round(dim) * omega / sizes)
    values = np.array(rows)
    # kill numerical dust so sort keys and golden files are stable
    values.real[np.abs(values.real) < 1e-12] = 0.0
    values.imag[np.abs(values.imag) < 1e-12] = 0.0
    dims = values[:, [_identity_class_index(classes)]].real.round().astype(int).ravel()
    order = _canonical_row_order(values, dims)
    return CharacterTable(classes=classes, values=values[order], dims=dims[order])


def _identity_class_index(classes: list[ConjugacyClass]) -> int:
    for i, c in enumerate(classes):
        if c.base_element == 0:
            return i
    raise AssertionError("identity class missing")


def _canonical_row_order(values: np.ndarray, dims: np.ndarray) -> np.ndarray:
    def key(r: int):
        trivial = bool(np.allclose(values[r], 1.0, atol=1e-9))
        lex = tuple(
            (round(float(z.real), 9), round(float(z.imag), 9)) for z in values[r]
        )
        return (not trivial, int(dims[r]), lex)

    return np.array(sorted(range(values.shape[0]), key=key))


# ---------------------------------------------------------------------------
# irreps
# ---------------------------------------------------------------------------


def extend_from_generators(group: FiniteGroup, generator_matrices: list[np.ndarray]) -> np.ndarray:
    """Extend matrices assigned to the BFS generators to every element.

    Uses the breadth-first word table recorded at construction time, so it is
    only available for generator-built groups.
    """
    if group.bfs_words is None:
        raise ValueError("group carries no generator words")
    dim = generator_matrices[0].shape[0] if generator_matrices else 1
    mats = np.zeros((group.order, dim, dim), dtype=complex)
    mats[0] = np.eye(dim)
    for x in range(1, group.order):
        parent, slot = group.bfs_words[x]
        mats[x] = mats[parent] @ generator_matrices[slot]
    return mats


def _snap_root_of_unity(value: complex, order: int) -> complex:
    angle = np.angle(value)
    step = 2 * np.pi / order
    k = int(round(angle / step)) % order
    return np.exp(2j * np.pi * k / order)


def _one_dim_irrep(group: FiniteGroup, row: np.ndarray, class_of: np.ndarray) -> np.ndarray:
    """1-dim characters are homomorphisms into roots of unity; snap them exact."""
    vals = np.empty(group.order, dtype=complex)
    for g in range(group.order):
        vals[g] = _snap_root_of_unity(row[class_of[g]], group.element_order(g))
    return vals.reshape(-1, 1, 1)


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


def _adjacent_word(perm: tuple[int, ...]) -> list[int]:
    """Bubble-sort factorization: perm = s_{w[-1]} o ... o s_{w[0]}."""
    arr = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i)
                changed = True
    return word


def _symmetric_irreps(group: FiniteGroup) -> list[np.ndarray]:
    n = group.family[1]
    out = []
    for shape in _partitions(n):
        adj, dim = _yor_adjacent_matrices(shape)
        if dim == 1:
            continue  # trivial/sign come from the 1-dim path
        mats = np.empty((group.order, dim, dim), dtype=complex)
        for g, perm in enumerate(group.perms):
            m = np.eye(dim)
            for k in _adjacent_word(perm):
                m = adj[k] @ m
            mats[g] = m
        out.append(mats)
    return out


def _dihedral_irreps(group: FiniteGroup) -> list[np.ndarray]:
    n = group.family[1]
    if n < 3:
        return []
    out = []
    for h in range(1, (n + 1) // 2 + (1 if n % 2 == 0 else 0)):
        if 2 * h == n:
            continue
        omega = np.exp(2j * np.pi * h / n)
        rot = np.diag([omega, omega.conjugate()])
        ref = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        out.append(extend_from_generators(group, [rot, ref]))
    return out


def _quaternion_irrep(group: FiniteGroup) -> list[np.ndarray]:
    gen_i = np.array([[1j, 0], [0, -1j]])
    gen_j = np.array([[0, 1], [-1, 0]], dtype=complex)
    return [extend_from_generators(group, [gen_i, gen_j])]


# -- generic extraction from the regular representation ----------------------


def _orthonormal_range(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Deterministic orthonormal basis of the range of an (approximate) projector."""
    q, _, _ = scipy.linalg.qr(matrix, pivoting=True, mode="economic")
    basis = q[:, :rank]
    return _fix_column_phases(basis)


def _fix_column_phases(basis: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    basis = basis.copy()
    for col in range(basis.shape[1]):
        idx = np.flatnonzero(np.abs(basis[:, col]) > tol)
        if idx.size:
            lead = basis[idx[0], col]
            basis[:, col] *= np.abs(lead) / lead
    return basis


def _regular_extraction(
    group: FiniteGroup,
    table: CharacterTable,
    alpha: int,
    seed: int = 42,
) -> np.ndarray:
    """Cut one unitary copy of irrep alpha out of the regular representation.

    Projects onto the isotypic block of the left regular representation, then
    splits the (n^alpha)-fold multiplicity with a group-averaged random
    Hermitian operator; a fixed seed schedule retries accidental eigenvalue
    clustering.
    """
    n = group.order
    dim = int(table.dims[alpha])
    proj = isotypic_projector(group, table, alpha).matrix
    basis = _orthonormal_range(proj, dim * dim)          # |G| x dim^2
    # restriction of lambda(g): rows of the basis get permuted, lam(g) Q = Q[g^-1 x]
    inv_rows = group.mult_table[group.inverse_table, :]  # inv_rows[g, x] = g^-1 x
    rng = np.random.default_rng(seed)
    for _ in range(8):
        h = rng.standard_normal((dim * dim, dim * dim)) + 1j * rng.standard_normal((dim * dim, dim * dim))
        h = h + h.conj().T
        averaged = np.zeros_like(h)
        for g in range(n):
            lam_q = basis[inv_rows[g]]                   # lambda(g) applied to each basis column
            small = basis.conj().T @ lam_q               # dim^2 x dim^2 unitary
            averaged += small @ h @ small.conj().T
        averaged /= n
        evals, evecs = np.linalg.eigh(averaged)
        groups_found = _cluster(evals, 1e-6 * max(1.0, np.abs(evals).max()))
        if len(groups_found) == dim and all(len(g) == dim for g in groups_found):
            sub = _fix_column_phases(evecs[:, groups_found[0]])
            w = basis @ sub                              # |G| x dim orthonormal
            mats = np.empty((n, dim, dim), dtype=complex)
            for g in range(n):
                mats[g] = w.conj().T @ w[inv_rows[g]]
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
    return np.einsum("ij,gjk,kl->gil", root, matrices, root_inv)


def schur_defect(matrices: np.ndarray, seed: int = 0, trials: int = 2) -> float:
    """Distance of the averaged commutant from scalars; ~0 iff irreducible."""
    n, dim = matrices.shape[0], matrices.shape[1]
    if dim == 1:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = x + x.conj().T
        avg = np.mean(np.einsum("gij,jk,glk->gil", matrices, x, matrices.conj()), axis=0)
        scalar = np.trace(avg) / dim
        worst = max(worst, float(np.max(np.abs(avg - scalar * np.eye(dim)))))
    return worst


def irreps(group: FiniteGroup, table: CharacterTable | None = None, seed: int = 42) -> list[Irrep]:
    """One unitary irrep per character-table row, in row order."""
    if table is None:
        table = character_table(group, seed=seed)
    class_of = table.class_of_elements(group)
    family = group.family[0] if group.family else None
    candidates: list[np.ndarray] = []
    if family == "dihedral":
        candidates = _dihedral_irreps(group)
    elif family == "symmetric":
        candidates = _symmetric_irreps(group)
    elif family == "quaternion":
        candidates = _quaternion_irrep(group)

    def trace_vector(mats: np.ndarray) -> np.ndarray:
        return np.array([np.trace(mats[c.base_element]) for c in table.classes])

    out: list[Irrep] = []
    for r in range(len(table.dims)):
        dim = int(table.dims[r])
        row = table.values[r]
        mats = None
        if dim == 1:
            mats = _one_dim_irrep(group, row, class_of)
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
# projectors and matrix-element functions
# ---------------------------------------------------------------------------


def represent(group: FiniteGroup, representation: np.ndarray | None, a) -> np.ndarray:
    """The operator sum_g a(g) U(g) of a group-algebra element a.

    ``representation`` is a per-element stack of matrices, shape (|G|, d, d);
    ``None`` selects the left regular representation, in closed form.
    """
    if representation is None:
        return left_regular_matrix(group, a)
    t = np.asarray(representation)
    if t.shape[0] != group.order or t.shape[1] != t.shape[2]:
        raise ValueError("representation stack has wrong shape")
    return np.tensordot(a, t, axes=1)


def isotypic_projector(
    group: FiniteGroup,
    table: CharacterTable,
    alpha: int,
    representation: np.ndarray | None = None,
) -> IsotypicProjection:
    """P^alpha = (n^alpha/|G|) sum_g conj(chi^alpha(g)) U(g).

    ``representation`` is a per-element stack of unitary matrices; ``None``
    selects the left regular representation (computed in closed form).
    """
    if alpha < 0 or alpha >= len(table.dims):
        raise KeyError(f"character row {alpha} missing")
    dim = int(table.dims[alpha])
    chi_g = table.element_values(group, alpha)
    matrix = (dim / group.order) * represent(group, representation, chi_g.conj())
    return IsotypicProjection(alpha=alpha, matrix=matrix)


def matrix_element_functions(irrep: Irrep) -> tuple[np.ndarray, float]:
    """Functions g -> conj(t^alpha_ij(g)) plus their normalization sqrt(n^alpha).

    Returned array has shape (dim, dim, |G|); entry [i, j] is the coefficient
    vector of conj(t_ij).  After multiplying by sqrt(n^alpha) the functions
    are orthonormal for the group-algebra inner product.
    """
    funcs = np.conj(irrep.matrices).transpose(1, 2, 0)
    return funcs, float(np.sqrt(irrep.dim))
