"""Irreducible unitary representations, characters and isotypic projectors.

A 1-dim irrep is its character: every group's are snapped from the table
rows to roots of unity.  Every irrep above dimension 1 is held as the images
of the group's generators, which one rule extends along the breadth-first
words, a whole dimension at once.  A catalog family gives its own images
(dihedral 2x2 blocks, Young's orthogonal form for S_n, the standard Q8 pair)
and exponents of roots of unity for its 1-dim rows (zeta^a for C_n, signs for
D_n, S_n and Q8); its character table is read off these at the class bases,
along the words of those bases only.  A group without a family gets Dixon's
method: one Hermitian eigensolve of a random combination of class sums gives
the central characters, hence the whole table, and the images above
dimension 1 are spun from one vector of the group algebra.  Row order of the
character table is canonical: trivial character first, then by (dimension,
lexicographic value order), and the irrep list follows the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product

import numpy as np

from .groups import FiniteGroup, ConjugacyClass, conjugacy_classes

__all__ = [
    "Irrep",
    "CharacterTable",
    "character_table",
    "irreps",
    "isotypic_projector",
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
    # a catalog group's irreps above dimension 1, one (rows, (m, slots, d, d)
    # generator images) block per dimension d, which ``irreps`` extends
    catalog: list[tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False)

    @cached_property
    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.class_of)

    @cached_property
    def conjugation_multiplicities(self) -> np.ndarray:
        """M[gamma, sigma] = sum_C |C| conj(chi^gamma(C)) |chi^sigma(C)|^2 / |G|,
        the multiplicity of gamma in L(V^sigma), unrounded; one product for
        every sigma, made on first use."""
        weighted = self.values.conj() * self.class_sizes
        return (weighted @ (np.abs(self.values) ** 2).T).real / self.class_of.size

    def element_values(self, alpha: int) -> np.ndarray:
        """Character of row alpha as a function on the group."""
        return self.values[alpha][self.class_of]


# ---------------------------------------------------------------------------
# character table (Burnside-Dixon on class-algebra constants)
# ---------------------------------------------------------------------------


def _class_quotients(group: FiniteGroup, classes: list[ConjugacyClass]) -> tuple[np.ndarray, np.ndarray]:
    """class_of[x], and J[x, k] = class of x^-1 z_k (z_k the base of class k), so that
    a[i, j, k] = #{(x,y) in C_i x C_j : xy = z_k} = #{x in C_i : J[x, k] = j}."""
    class_of = group.class_of
    bases = np.array([c.base_element for c in classes])
    return class_of, class_of[group.mult_table[group.inverse_table[:, None], bases]]


def _class_combination(class_of: np.ndarray, quotient: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_i coeff_i a[i] as a (k, k) matrix: one weighted count over J."""
    k = quotient.shape[1]
    jk, w = (quotient * k + np.arange(k)).ravel(), np.repeat(coeff[class_of], k)
    return (np.bincount(jk, w.real, k * k) + 1j * np.bincount(jk, w.imag, k * k)).reshape(k, k)


def character_table(group: FiniteGroup, seed: int = 42) -> CharacterTable:
    """Compute the full character table: a catalog group's from its generator
    images (``_catalog_table``), any other group's by Dixon's method.

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
    if group.family is not None:
        return _catalog_table(group, classes)
    k = len(classes)
    sizes = np.array([c.size for c in classes], dtype=float)
    class_of, quotient = _class_quotients(group, classes)
    d = np.sqrt(sizes)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        m = (_class_combination(class_of, quotient, coeff) / d[:, None]) * d[None, :]
        evals, vecs = np.linalg.eigh(m + m.conj().T)
        if k == 1 or np.min(np.diff(np.sort(evals))) > 1e-8 * max(1.0, np.max(np.abs(evals))):
            break
    else:
        raise ArithmeticError("degenerate numerical spectrum persisted; raise working precision")
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
    values = _kill_dust(dims[:, None] * omega / sizes)
    order = _canonical_row_order(values, dims)
    return CharacterTable(classes=classes, values=values[order], dims=dims[order], class_of=class_of)


def _kill_dust(values: np.ndarray) -> np.ndarray:
    """Zero parts below 1e-12, in place, so sort keys and golden files are stable."""
    values.real[np.abs(values.real) < 1e-12] = 0.0
    values.imag[np.abs(values.imag) < 1e-12] = 0.0
    return values


def _catalog_table(group: FiniteGroup, classes: list[ConjugacyClass]) -> CharacterTable:
    """A catalog group's table, read off its generator images: each 1-dim row
    from the slot counts of the class bases' words, each row above that the
    traces at the bases, extended along the words of the bases only.

    The gates: one row per class, sum d^2 = |G|, and column orthogonality
    with the identity class, sum_chi chi(1) chi(C) = 0 within 1e-8 on every
    other class; ``irreps`` checks each extended irrep on top of these.
    """
    family, n = group.family
    one_dim, images = _CATALOG_IMAGES[family]
    exponents, modulus = one_dim(n)
    bases = np.array([c.base_element for c in classes])
    stacks = _stacks_by_dim(images(n))
    needed = _ancestors(group, bases)
    values = np.concatenate(
        [_one_dim_values(exponents, modulus, _word_counts(group)[bases])]
        + [np.trace(extend_from_generators(group, stack, needed)[:, bases], axis1=2, axis2=3) for stack in stacks]
    )
    dims = np.concatenate([np.ones(len(exponents), dtype=int)] + [np.full(len(s), s.shape[-1]) for s in stacks])
    k = len(classes)
    if len(dims) != k or int(np.sum(dims**2)) != group.order:
        raise ArithmeticError(
            f"{group.name}: {len(dims)} catalog irreps with sum d^2 = {int(np.sum(dims**2))}, "
            f"for {k} classes and order {group.order}"
        )
    off = np.max(np.abs(dims @ values[:, 1:]), initial=0.0)
    if not off <= 1e-8:
        raise ArithmeticError(f"{group.name}: catalog characters are not orthogonal off the identity ({off:.1e})")
    values = _kill_dust(values)
    order = _canonical_row_order(values, dims)
    row = np.argsort(order)   # table row of each catalog irrep
    ends = np.cumsum([len(exponents)] + [len(s) for s in stacks])
    catalog = [(row[a:b], s) for a, b, s in zip(ends[:-1], ends[1:], stacks)]
    return CharacterTable(classes, values[order], dims[order], group.class_of, catalog)


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
    trivial = np.all(np.abs(values - 1.0) <= 1e-9 + 1e-5, axis=1)   # np.isclose(values, 1, atol=1e-9)
    parts = np.stack([values.real, values.imag], axis=2).reshape(len(values), -1)
    keys = np.rint(parts * 1e9)
    # rint(x * 1e9) differs from Python's correctly rounded round(x, 9) only
    # where the product itself was rounded onto a half-integer
    for i in np.flatnonzero(np.abs(parts * 1e9 - keys) == 0.5):
        keys.flat[i] = round(round(float(parts.flat[i]), 9) * 1e9)
    # one stable sort of whole rows: (not trivial, dim, keys...) as int64 with the
    # sign bit flipped, big-endian, compare bytewise in the order of their tuples
    rows = np.column_stack([~trivial, dims, keys]).astype(np.int64) ^ np.int64(-(2**63))
    rows = np.ascontiguousarray(rows.astype(">i8"))
    return np.argsort(rows.view(f"V{rows.strides[0]}").ravel(), kind="stable")


# ---------------------------------------------------------------------------
# irreps
# ---------------------------------------------------------------------------


def extend_from_generators(group: FiniteGroup, images: np.ndarray, elements: set[int] | None = None) -> np.ndarray:
    """Extend a stack (m, slots, d, d) of generator images, one per slot of
    ``group.generators`` for each of m representations of one dimension, to an
    (m, |G|, d, d) stack, all m in one walk: the breadth-first word of
    x = parent * gen[slot] gives rho(x) = rho(parent) @ rho(gen[slot]), parents
    first.  With ``elements`` (closed under taking parents) it walks only
    their words, and every other element stays 0.
    """
    m, d = images.shape[0], images.shape[-1]
    mats = np.zeros((m, group.order, d, d), dtype=complex)
    mats[:, 0] = np.eye(d)
    for x, (parent, slot) in group.bfs_words.items():
        if elements is None or x in elements:
            mats[:, x] = mats[:, parent] @ images[:, slot]
    return mats


def _ancestors(group: FiniteGroup, elements: np.ndarray) -> set[int]:
    """The elements together with every element on their breadth-first words."""
    found: set[int] = set()
    for x in elements.tolist():
        while x and x not in found:
            found.add(x)
            x = group.bfs_words[x][0]
    return found


def _word_counts(group: FiniteGroup) -> np.ndarray:
    """counts[x, s]: how often generator slot s occurs in the breadth-first word
    of x, for every x at once by pointer doubling along the parents."""
    n = group.order
    parent = np.zeros(n, dtype=np.int64)
    counts = np.zeros((n, len(group.generators)), dtype=np.int64)
    if group.bfs_words:
        xs = np.fromiter(group.bfs_words, dtype=np.int64, count=n - 1)
        words = np.array(list(group.bfs_words.values()), dtype=np.int64)
        parent[xs], counts[xs, words[:, 1]] = words[:, 0], 1
    # counts[x] sums the slots of x's word from x down to, not including, parent[x]
    while parent.any():
        counts += counts[parent]
        parent = parent[parent]
    return counts


def _one_dim_values(exponents: np.ndarray, modulus: int, counts: np.ndarray) -> np.ndarray:
    """Row i at each element x of ``counts``: exp(2 pi i t / modulus) with
    t = counts[x] . exponents[i], as cos + i sin."""
    arg = 2 * np.pi * ((exponents @ counts.T) % modulus) / modulus
    return np.cos(arg) + 1j * np.sin(arg)


def _one_dim_irrep(group: FiniteGroup, table: CharacterTable, rows: np.ndarray) -> np.ndarray:
    """The 1-dim irreps of ``rows`` as an (m, |G|, 1, 1) stack.  A 1-dim
    character is a homomorphism into roots of unity: each row is snapped once
    per class, to cos + i sin of 2 pi k / ord at the class base (the bits of
    exp(2j pi k / ord)), and gathered to every element."""
    orders = group.element_orders()[[c.base_element for c in table.classes]]
    k = np.rint(np.angle(table.values[rows]) / (2 * np.pi / orders)).astype(np.int64) % orders
    arg = 2 * np.pi * k / orders
    return (np.cos(arg) + 1j * np.sin(arg))[:, table.class_of, None, None]


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


def _row_words(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The standard Young tableaux of a shape, each as its row word: value v
    sits in row word[v - 1].  Values are placed in turn, each row tried from
    the top, which lists the words in lexicographic order and fixes the basis
    order of Young's form."""
    words: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), (0,) * len(shape))]   # (word, row lengths)
    for _ in range(sum(shape)):
        words = [
            (word + (r,), lengths[:r] + (cur + 1,) + lengths[r + 1:])
            for word, lengths in words
            for r, cur in enumerate(lengths)
            if cur < shape[r] and (r == 0 or lengths[r - 1] > cur)
        ]
    return [word for word, _ in words]


def _yor_adjacent_matrices(shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Young orthogonal matrices for the adjacent transpositions of S_n: s_k
    has 1/a on the diagonal and sqrt(1 - 1/a^2) where it swaps k and k + 1
    into another standard tableau, a the axial distance from k to k + 1."""
    n = sum(shape)
    words = _row_words(shape)
    index = {word: i for i, word in enumerate(words)}
    dim = len(words)
    mats = np.zeros((n - 1, dim, dim))
    for ti, word in enumerate(words):
        # content[v - 1] = column - row of value v
        filled, content = [0] * len(shape), []
        for r in word:
            content.append(filled[r] - r)
            filled[r] += 1
        for k in range(1, n):  # transposition swapping values k, k+1
            axial = content[k] - content[k - 1]
            mats[k - 1, ti, ti] = 1.0 / axial
            swapped = word[:k - 1] + (word[k], word[k - 1]) + word[k + 1:]
            if word[k - 1] != word[k] and swapped in index:
                mats[k - 1, index[swapped], ti] = math.sqrt(1.0 - 1.0 / axial**2)
    return mats, dim


# -- catalog generator images -----------------------------------------------


def _symmetric_images(n: int) -> list[list[np.ndarray]]:
    """Images of (1 2) and of the n-cycle (1 2 ... n) = s_1 s_2 ... s_{n-1}."""
    out = []
    for shape in _partitions(n):
        if 1 < shape[0] < n:  # the one row (trivial) and the one column (sign) are _symmetric_one_dim
            adj, _ = _yor_adjacent_matrices(shape)
            out.append([adj[0], reduce(np.matmul, adj)])
    return out


def _dihedral_images(n: int) -> list[list[np.ndarray]]:
    """Images of the rotation and the reflection, one 2-dim irrep per 0 < h < n/2."""
    ref = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    omegas = [np.exp(2j * np.pi * h / n) for h in range(1, (n + 1) // 2)]
    return [[np.diag([omega, omega.conjugate()]), ref] for omega in omegas]


def _quaternion_images(n: int) -> list[list[np.ndarray]]:
    return [[np.array([[1j, 0], [0, -1j]]), np.array([[0, 1], [-1, 0]], dtype=complex)]]


def _all_signs(slots: int) -> np.ndarray:
    """Every choice of +-1 on the generator slots, as exponents over modulus 2."""
    return np.array(list(product((0, 1), repeat=slots)), dtype=np.int64).reshape(2**slots, slots)


def _cyclic_one_dim(n: int) -> tuple[np.ndarray, int]:
    """chi_a(r) = zeta^a, a = 0 .. n-1; C1 has no generator."""
    if n == 1:
        return np.zeros((1, 0), dtype=np.int64), 1
    return np.arange(n, dtype=np.int64)[:, None], n


def _dihedral_one_dim(n: int) -> tuple[np.ndarray, int]:
    """Signs on the rotation and the reflection, the rotation's only for even n;
    D1 and D2 are generated by one and two reflections, each sign free."""
    signs = _all_signs(min(n, 2))
    return (signs[signs[:, 0] == 0] if n > 2 and n % 2 else signs), 2


def _symmetric_one_dim(n: int) -> tuple[np.ndarray, int]:
    """Trivial and sign: (1 2) is odd, and the n-cycle has sign (-1)^(n-1)."""
    if n < 3:
        return _all_signs(n - 1), 2
    return np.array([[0, 0], [1, (n - 1) % 2]], dtype=np.int64), 2


def _stacks_by_dim(images: list[list[np.ndarray]]) -> list[np.ndarray]:
    """The generator images of the irreps of each dimension as one (m, slots, d, d) stack."""
    dims = sorted({gens[0].shape[0] for gens in images})
    return [np.array([gens for gens in images if gens[0].shape[0] == d], dtype=complex) for d in dims]


# family -> (n -> (exponents, modulus) of the 1-dim irreps,
#            n -> the catalog-generator images of each irrep of dimension > 1)
_CATALOG_IMAGES = {
    "cyclic": (_cyclic_one_dim, lambda n: []),
    "dihedral": (_dihedral_one_dim, _dihedral_images),
    "symmetric": (_symmetric_one_dim, _symmetric_images),
    "quaternion": (lambda n: (_all_signs(2), 2), _quaternion_images),
}


# -- generic irreps: one vector of the group algebra, spun ---------------------


def _spun_images(group: FiniteGroup, table: CharacterTable, rows: np.ndarray, seed: int) -> np.ndarray:
    """Generator images (m, slots, d, d) of the irreps of ``rows``, all of one
    dimension d > 1, each spun from one vector of its isotypic block (Dixon 1970).

    Right convolution by r = sum_h c_h delta_h + conj(c_h) delta_{h^-1}, four
    seeded h, is Hermitian and commutes with every left translation; on the
    block of row alpha it acts on the d copies as one d x d matrix, so Arnoldi
    from e_alpha closes in d steps, for every row at once.  The Ritz vector
    with the least residual over spectral gap lies in one copy (a residual
    below 1e-12 |r|_1 is round-off, and the widest gap decides); ``_spin``
    gives the copy an orthonormal basis W, and rho(s) = W^H lambda(s) W.  A
    row is taken once lambda(s) W = W rho(s) within 1e-10; the rest retry
    with the next r of a fixed seed schedule, and ArithmeticError ends it
    after eight.
    """
    n, dim, m = group.order, int(table.dims[rows[0]]), len(rows)
    t, inv = group.mult_table, group.inverse_table
    left = t[inv[group.generators]]   # (lambda(s) f)(x) = f(s^-1 x) = f[left[s, x]]
    e = np.array([isotypic_projector(group, table, r) for r in rows.tolist()])
    images, todo, rng = np.empty((m, len(left), dim, dim), complex), np.arange(m), np.random.default_rng(seed)
    for _ in range(8):
        h, c = rng.integers(0, n, 4), rng.standard_normal(8).view(complex)
        terms, coeff = t[:, inv[np.concatenate([h, inv[h]])]], np.concatenate([c, c.conj()])
        q, rq, height = np.zeros((len(todo), dim + 1, n), complex), np.empty((len(todo), dim, n), complex), []
        q[:, 0] = e[todo] / np.linalg.norm(e[todo], axis=1, keepdims=True)
        for k in range(dim):
            v = rq[:, k] = q[:, k][:, terms] @ coeff   # (f r)(x) = sum_h r(h) f(x h^-1)
            for _ in range(2):
                v = v - (q[:, :k + 1].swapaxes(1, 2) @ (q[:, :k + 1].conj() @ v[:, :, None]))[:, :, 0]
            height.append(np.linalg.norm(v, axis=1))
            q[:, k + 1] = v / np.maximum(height[-1], 1e-300)[:, None]
        closed = np.min(height[:-1], axis=0, initial=np.inf) > 1e-8 * np.abs(coeff).sum()   # no breakdown before step d
        evals, evecs = np.linalg.eigh(q[:, :dim].conj() @ rq.swapaxes(1, 2))
        gap = np.diff(evals, axis=1, prepend=-np.inf, append=np.inf)
        ritz = evecs.swapaxes(1, 2) @ q[:, :dim]
        residual = np.sum(np.abs(evecs.swapaxes(1, 2) @ rq - evals[..., None] * ritz) ** 2, axis=2)
        bound = np.maximum(residual, (1e-12 * np.abs(coeff).sum()) ** 2) / np.minimum(gap[:, 1:], gap[:, :-1]) ** 2
        done, best = np.zeros(len(todo), bool), np.argmin(bound, axis=1)
        for i in np.flatnonzero(closed):
            w = _spin(ritz[i, best[i]], dim, left)
            if w is not None:
                images[todo[i]] = w.conj().T @ w[left]
                done[i] = np.max(np.abs(w[left] - w @ images[todo[i]])) <= 1e-10
        todo = todo[~done]
        if not len(todo):
            return images
    raise ArithmeticError(f"irreps {rows[todo].tolist()} did not split off under the seed schedule")


def _spin(f: np.ndarray, dim: int, left: np.ndarray) -> np.ndarray | None:
    """An orthonormal basis (|G|, dim) of the span of f under the translations
    ``left``, in rounds: the last round's new vectors, translated, less their part
    in the basis, join it largest first while above 1e-4 in norm (None if short)."""
    w = np.zeros((len(f), dim), complex)
    w[:, 0], k, added = f / np.sqrt(np.vdot(f, f).real), 1, [0]
    while k < dim and added:
        cand, added = w[:, added][left].transpose(1, 0, 2).reshape(len(f), -1), []
        for _ in range(2):
            cand -= w[:, :k] @ (w[:, :k].conj().T @ cand)
        while k < dim and (norms := np.einsum("xj,xj->j", cand.conj(), cand).real).max() > 1e-8:
            v = cand[:, norms.argmax()] - w[:, :k] @ (w[:, :k].conj().T @ cand[:, norms.argmax()])
            w[:, k] = v / np.sqrt(np.vdot(v, v).real)
            cand -= np.outer(w[:, k], w[:, k].conj() @ cand)
            added, k = added + [k], k + 1
    return w if k == dim else None


# Complex entries of one intermediate of schur_defect (2 MB)
_SCHUR_CHUNK_ENTRIES = 1 << 17


def schur_defect(matrices: np.ndarray, seed: int = 0) -> float:
    """Distance of the averaged commutant from scalars over two random
    Hermitian probes; ~0 iff irreducible.  ``matrices`` is one (|G|, d, d)
    stack, or (m, |G|, d, d) for m irreps of one dimension, checked at once
    (the largest defect).  T X for both probes X is one (m |G| d, d) @ (d, 2d)
    product, and the averages (1/|G|) sum_g T X T^H one batched
    (2d, |G| d) @ (|G| d, d) product per irrep, both over chunks of elements
    of at most ``_SCHUR_CHUNK_ENTRIES`` numbers.
    """
    dim, rng = matrices.shape[-1], np.random.default_rng(seed)
    mats = matrices.reshape(-1, *matrices.shape[-3:])
    m, n = mats.shape[:2]
    probes = []
    for _ in range(2):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        probes.append(x + x.conj().T)
    probes = np.concatenate(probes, axis=1)  # [X_0 | X_1]
    avg = np.zeros((m, 2 * dim, dim), dtype=complex)
    step = max(1, _SCHUR_CHUNK_ENTRIES // (2 * m * dim * dim))
    for lo in range(0, n, step):
        t = mats[:, lo:lo + step]
        c = t.shape[1]
        tx = (t.reshape(-1, dim) @ probes).reshape(m, c, dim, 2, dim)  # [i, g, a, p, b] = (T_g X_p)_ab
        t_h = t.conj().swapaxes(2, 3).reshape(m, c * dim, dim)          # [i, (g, b), e] = conj(T_g)_eb
        avg += tx.transpose(0, 3, 2, 1, 4).reshape(m, 2 * dim, c * dim) @ t_h
    avg = avg.reshape(m, 2, dim, dim) / n
    scalar = np.trace(avg, axis1=-2, axis2=-1)[..., None, None] / dim
    return float(np.max(np.abs(avg - scalar * np.eye(dim))))


def irreps(group: FiniteGroup, table: CharacterTable | None = None, seed: int = 42) -> list[Irrep]:
    """One unitary irrep per character-table row, in row order.

    The 1-dim irreps are the rows snapped to roots of unity
    (``_one_dim_irrep``).  Every irrep above dimension 1 is a stack of
    generator images: a catalog table carries its own, and any other table's
    are spun out of the group algebra (``_spun_images``); each dimension is
    extended to every element in one walk.  Every dimension is checked on
    every edge of the Cayley graph within 1e-10, each above 1 by one Schur
    check within 1e-10, and every irrep must match its character row within
    1e-8.
    """
    if table is None:
        table = character_table(group, seed=seed)
    one = np.flatnonzero(table.dims == 1)
    values = _one_dim_irrep(group, table, one)
    blocks = table.catalog
    if blocks is None:
        blocks = [(rows, _spun_images(group, table, rows, seed))
                  for rows in (np.flatnonzero(table.dims == d) for d in np.unique(table.dims[table.dims > 1]))]
    done = [(one, values, values[:, group.generators])]
    done += [(rows, extend_from_generators(group, images), images) for rows, images in blocks]
    for rows, mats, images in done:
        # rho(x g) = rho(x) rho(g) on every edge of the Cayley graph, not only on the words' spanning tree
        for slot, g in enumerate(group.generators):
            if np.max(np.abs(mats @ images[:, slot:slot + 1] - mats[:, group.mult_table[:, g]])) > 1e-10:
                raise ArithmeticError(f"constructed irreps {rows.tolist()} are not homomorphisms")
        if mats.shape[-1] > 1 and schur_defect(mats, seed=seed) > 1e-10:
            raise ArithmeticError(f"constructed irreps {rows.tolist()} failed the Schur irreducibility check")
    bases, stacks = np.array([c.base_element for c in table.classes]), [None] * len(table.dims)
    for rows, mats, _ in done:
        off = np.max(np.abs(np.trace(mats[:, bases], axis1=2, axis2=3) - table.values[rows]), axis=1) > 1e-8
        if off.any():
            raise ArithmeticError(f"constructed irrep {rows[off][0]} does not match its character row")
        for r, m in zip(rows.tolist(), mats):
            stacks[r] = m
    return [Irrep(label=f"irrep{r}", dim=int(d), matrices=m) for r, (d, m) in enumerate(zip(table.dims, stacks))]


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
