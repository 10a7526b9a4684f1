"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a different route than the
library code under test: set-based orbit enumeration for classes, the dense
stack of left-translation matrices and the literal triple product for weighted
class operators, commutant diagonalization of the regular representation for
characters, a highest-weight/lowering recursion for Clebsch-Gordan
coefficients, and Wigner's factorial sum for the SU(2) little-d matrix.  The
slow loops that the table pipeline replaced stay here as references compared
bit for bit: composing every pair of permutations (parsed back from the
cycle-notation labels) for the multiplication table, the dense (k, k, k)
class-constant tensor (it checks the weighted class sums of
``_class_combination``; the characters themselves are read off the
eigenvectors), the per-element search for coset representatives, the
rounded-tuple sort key of the character-table rows and the per-element
root-of-unity snapping of the 1-dim irreps.  The S_n irreps, which the
library extends from the images of two generators, are compared within
round-off with Young's orthogonal form multiplied out element by element
along a bubble-sort factorization of each permutation.  The dense
conjugation stack (one ``np.kron`` per element) is the reference route of the
coupling decomposition, which sums over the irrep matrices instead.
The library returns every finite class operator as its group-algebra
element; ``image`` maps an element through a per-element stack (the dense
regular one of ``regular_representation`` or an irrep's matrices) for the
literal triple product to be compared with, ``class_sum`` writes the
normalized class sum out coefficient by coefficient, and the dense
|G| x |G| matrices (``regular_actions``, ``dense_wigner_eckart_bruteforce``)
exist only here.  The
library checks a class with every weight in one stack; the loops it replaced,
one weight at a time, are the oracles here: ``oracle_finite_class_suite``
(the same random draws, one push-forward per weight and per right translate),
``oracle_wigner_eckart_bruteforce`` (the convolution summed support element
by support element), ``oracle_wigner_eckart_rows`` (the comparison weight by
weight and sigma by sigma) and ``oracle_tensor_operator_scan``.  The library
predicts every weight (k, l) of an (alpha, sigma) pair with two einsums on
the stored basis; ``oracle_wigner_eckart_matrix`` predicts one weight at a
time from the coupling coefficients c = conj(basis) written out as an array;
``collect_bruteforce`` assembles the library's streamed inner products.  The SU(2)
integrals separate in the library (phi in closed form on the rule, one theta
sum); here the phi sums run over the rule's nodes as a (2d-1, P) phase table,
and the triple product runs node by node over full Wigner-D stacks.
Every document the package writes is compared with the standard library's
indent-2 JSON rendering, which the package reproduces without calling it.
The package writes ``classop-tables/2`` documents and reads none back;
``read_tables_2`` here rebuilds each irrep from its generator images along
the written words, one breadth-first level per product, and checks the
rebuilt characters against the written table.
What no command, demo or benchmark calls lives here rather than in the
library: the product, inverse and conjugate of single finite-group
elements, the finite product-expansion and triple-product identities, the
coefficient matrix of a coupling table with its unitarity residual, the
decoding of written [re, im] arrays, and SU(2) elements as 2 x 2 matrices
with the per-element Euler-angle rule that ``haar_random`` vectorizes.
"""

from __future__ import annotations

import json
from math import factorial

import numpy as np

from classops.groups import FiniteGroup, conjugacy_classes, left_regular_matrix, parse_cycles
from classops.representations import _partitions, _yor_adjacent_matrices
from classops.class_operators import (
    class_operator_from_classfunction,
    covariance_deviation,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)
from classops.coupling import (
    TensorOperatorFamily,
    _expansion_residual,
    _triple_residual,
    wigner_eckart_bruteforce,
)
from classops.su2 import WignerD, fixed_column_index
from classops.verify import DEFAULT_TOLERANCES, CheckReport, ReducedElementRow, WignerEckartRow, _random_weight

CATALOG_LEQ_24 = ["C1", "C2", "C3", "C4", "C6", "D3", "D4", "D5", "Q8", "S3", "S4"]
ACCEPTANCE_GROUPS = ["C6", "S3", "D4", "Q8", "S4"]


def group_mul(group: FiniteGroup, a: int, b: int) -> int:
    return int(group.mult_table[a, b])


def group_inv(group: FiniteGroup, a: int) -> int:
    return int(group.inverse_table[a])


def group_conjugate(group: FiniteGroup, x: int, by: int) -> int:
    """Return ``by * x * by^-1``."""
    return int(group.mult_table[group.mult_table[by, x], group.inverse_table[by]])


def oracle_classes(group: FiniteGroup) -> list[set[int]]:
    """Brute-force conjugacy classes over the Cayley table, set-based."""
    remaining = set(range(group.order))
    out = []
    while remaining:
        base = min(remaining)
        orbit = {group_conjugate(group, base, x) for x in range(group.order)}
        out.append(orbit)
        remaining -= orbit
    return out


def label_perms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The permutation image of every element, parsed back from its cycle-notation label."""
    degree = max(len(parse_cycles(label)) for label in group.labels)
    return [parse_cycles(label, degree) for label in group.labels]


def oracle_mult_table(group: FiniteGroup) -> np.ndarray:
    """Multiplication table by composing every pair of permutation images."""
    perms = label_perms(group)
    index = {p: i for i, p in enumerate(perms)}
    table = np.empty((group.order, group.order), dtype=np.int64)
    for a in range(group.order):
        for b in range(group.order):
            table[a, b] = index[tuple(perms[a][x] for x in perms[b])]
    return table


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


def oracle_symmetric_irreps(group: FiniteGroup) -> list[np.ndarray]:
    """Young's orthogonal form of every irrep of S_n of dimension > 1, in
    partition order, one product of adjacent-transposition matrices per element."""
    perms = label_perms(group)
    out = []
    for shape in _partitions(group.family[1]):
        adj, dim = _yor_adjacent_matrices(shape)
        if dim == 1:
            continue
        mats = np.empty((group.order, dim, dim), dtype=complex)
        for g, perm in enumerate(perms):
            m = np.eye(dim)
            for k in _adjacent_word(perm):
                m = adj[k] @ m
            mats[g] = m
        out.append(mats)
    return out


def oracle_class_constants(group: FiniteGroup) -> np.ndarray:
    """a[i, j, k] = #{x in C_i : x^-1 z_k in C_j}, the dense (k, k, k) tensor."""
    classes = conjugacy_classes(group)
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


def oracle_conjugation_stack(matrices: np.ndarray) -> np.ndarray:
    """Pi[g] = kron(T(g), conj(T(g))), one np.kron per element."""
    n, d = matrices.shape[0], matrices.shape[1]
    out = np.empty((n, d * d, d * d), dtype=complex)
    for g in range(n):
        out[g] = np.kron(matrices[g], matrices[g].conj())
    return out


def oracle_coset_reps(group: FiniteGroup, base: int) -> tuple[int, ...]:
    """For each member c of the class of base (ascending), the smallest x with x base x^-1 = c."""
    first: dict[int, int] = {}
    for x in range(group.order):
        first.setdefault(group_conjugate(group, base, x), x)
    return tuple(first[c] for c in sorted(first))


def oracle_one_dim_irrep(group: FiniteGroup, row: np.ndarray, class_of: np.ndarray) -> np.ndarray:
    """Each chi(g) snapped to the nearest ord(g)-th root of unity, one scalar exp per element."""
    vals = np.empty(group.order, dtype=complex)
    for g in range(group.order):
        order, power = 1, g
        while power != 0:
            power, order = group_mul(group, power, g), order + 1
        k = int(round(np.angle(row[class_of[g]]) / (2 * np.pi / order))) % order
        vals[g] = np.exp(2j * np.pi * k / order)
    return vals.reshape(-1, 1, 1)


def oracle_canonical_row_order(values: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Row order of a character table by the Python sort key on rounded value tuples."""

    def key(r: int):
        trivial = bool(np.allclose(values[r], 1.0, atol=1e-9))
        lex = tuple(
            (round(float(z.real), 9), round(float(z.imag), 9)) for z in values[r]
        )
        return (not trivial, int(dims[r]), lex)

    return np.array(sorted(range(values.shape[0]), key=key))


def regular_actions(group: FiniteGroup, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutation matrices of the left and right regular actions of g.

    ``lam`` realizes (lam(g) f)(x) = f(g^-1 x), ``rho`` realizes
    (rho(g) f)(x) = f(x g); the two commute.
    """
    n = group.order
    lam = np.zeros((n, n), dtype=complex)
    rho = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    lam[group.mult_table[g, cols], cols] = 1.0
    rho[cols, group.mult_table[cols, g]] = 1.0
    return lam, rho


def image(group: FiniteGroup, representation, a: np.ndarray) -> np.ndarray:
    """The operator sum_g a(g) T(g) of a group-algebra element a (or a stack of
    them, shape (r, |G|)) in the representation given by the per-element stack
    T, shape (|G|, d, d): one (1, |G|) @ (|G|, d^2) product per element.  With
    ``None`` it is the dense left regular matrix lambda(a) of a single a."""
    if representation is None:
        return left_regular_matrix(group, a)
    t = np.asarray(representation)
    return (a[..., None, :] @ t.reshape(group.order, -1)).reshape(a.shape[:-1] + t.shape[1:])


def class_sum(group: FiniteGroup, cls) -> np.ndarray:
    """The normalized class sum L0 = (1/|C0|) sum_{g in C0} g, coefficient by coefficient."""
    coeffs = np.zeros(group.order, dtype=complex)
    for g in cls.members:
        coeffs[g] = 1.0 / cls.size
    return coeffs


def dense_wigner_eckart_bruteforce(group: FiniteGroup, adapted, alpha: int, k: int, l: int, g0: int) -> dict:
    """wigner_eckart_bruteforce of one weight through the dense |G| x |G| operator and two einsums."""
    f = adapted[alpha].matrices[:, k, l].conj()
    op = left_regular_matrix(group, weighted_class_operator(group, g0, f))
    out = {}
    for si, srep in enumerate(adapted):
        applied = np.einsum("yx,xij->yij", op, srep.matrices.conj())
        for gi, grep in enumerate(adapted):
            out[(si, gi)] = np.einsum("yij,yuv->ijuv", applied, grep.matrices) * (srep.dim / group.order)
    return out


def collect_bruteforce(group: FiniteGroup, adapted, g0: int, weights) -> dict:
    """The chunks ``wigner_eckart_bruteforce`` yields, assembled into one array per
    (sigma, gamma), indexed [w, i, j, u, v]."""
    dims = [rep.dim for rep in adapted]
    starts = np.cumsum([0] + [d * d for d in dims])
    full = {g: np.full((len(weights), starts[-1], d * d), np.nan, dtype=complex) for g, d in enumerate(dims)}
    for gamma, columns, block in wigner_eckart_bruteforce(group, adapted, g0, weights):
        full[gamma][:, :, columns] = block
    assert not any(np.isnan(a).any() for a in full.values()), "a column of inner products was never yielded"
    return {
        (s, g): full[g][:, starts[s]:starts[s + 1]].reshape(-1, ds, ds, dg, dg)
        for s, ds in enumerate(dims) for g, dg in enumerate(dims)
    }


def oracle_wigner_eckart_bruteforce(group: FiniteGroup, adapted, alpha: int, k: int, l: int, g0: int) -> dict:
    """wigner_eckart_bruteforce of one weight, its convolution summed support
    element by support element: (op phi)(y) = sum_c p(c) phi(c^-1 y)."""
    f = adapted[alpha].matrices[:, k, l].conj()
    pushed = weighted_class_operator(group, g0, f)
    support = np.flatnonzero(pushed)
    shifts = group.mult_table[group.inverse_table[support]]   # shifts[s, y] = c_s^-1 y
    n, out = group.order, {}
    for si, srep in enumerate(adapted):
        phi = srep.matrices.conj()
        applied = np.zeros_like(phi)
        for c, shift in zip(support, shifts):
            applied += pushed[c] * phi[shift]
        applied = applied.transpose(1, 2, 0).reshape(-1, n)
        for gi, grep in enumerate(adapted):
            prod = np.dot(applied, grep.matrices.reshape(n, -1)) * (srep.dim / n)
            out[(si, gi)] = prod.reshape((srep.dim,) * 2 + (grep.dim,) * 2)
    return out


def oracle_wigner_eckart_matrix(table, alpha: int, n_alpha: int, k: int, l: int, t_sigma_g0: np.ndarray):
    """wigner_eckart_matrix of the one weight conj(t^alpha_kl): (pred[u, i], reduced[m])
    from two einsums on the explicit coefficients c = conj(basis).transpose(2, 3, 0, 1)."""
    if alpha not in table.basis:
        return np.zeros(t_sigma_g0.shape, dtype=complex), np.zeros(0, dtype=complex)
    c = np.conj(table.basis[alpha]).transpose(2, 3, 0, 1)
    reduced = np.einsum("prm,pr->m", c[:, :, :, l], t_sigma_g0) / n_alpha
    return np.einsum("uim,m->ui", c[:, :, :, k].conj(), reduced), reduced


def oracle_wigner_eckart_rows(group: FiniteGroup, adapted, m_alphas, tables, g0: int, bruteforce=None):
    """wigner_eckart_report's comparison, weight by weight and sigma by sigma:
    (rows, reduced_rows, max_off_pattern) from ``oracle_wigner_eckart_matrix``
    and a per-weight brute force (``oracle_wigner_eckart_bruteforce`` unless given)."""
    bruteforce = bruteforce or oracle_wigner_eckart_bruteforce
    tol = DEFAULT_TOLERANCES["wigner_eckart_match"]
    rows, reduced_rows, max_off = [], [], 0.0
    for alpha in range(len(adapted)):
        for k in range(adapted[alpha].dim):
            for l in range(m_alphas[alpha]):
                brute = bruteforce(group, adapted, alpha, k, l, g0)
                for sigma in range(len(adapted)):
                    pred, reduced = oracle_wigner_eckart_matrix(
                        tables[sigma], alpha, adapted[alpha].dim, k, l, adapted[sigma].matrices[g0]
                    )
                    if k == 0:
                        reduced_rows.extend(
                            ReducedElementRow(group.name, sigma, alpha, l, m, group.labels[g0], complex(v))
                            for m, v in enumerate(reduced)
                        )
                    d = adapted[sigma].dim
                    dev = float(np.abs(brute[(sigma, sigma)] - np.einsum("jv,ui->ijuv", np.eye(d), pred)).max())
                    off = brute[(sigma, sigma)] * (1.0 - np.eye(d))[None, :, None, :]
                    max_off = max([max_off, float(np.abs(off).max())] + [
                        float(np.abs(brute[(sigma, gamma)]).max()) for gamma in range(len(adapted)) if gamma != sigma
                    ])
                    rows.append(WignerEckartRow(group.name, sigma, alpha, k, l, group.labels[g0], dev, dev <= tol))
    return rows, reduced_rows, max_off


def oracle_tensor_operator_scan(group: FiniteGroup, representation, g0: int, adapted, m_alphas, tol: float = 1e-10):
    """tensor_operator_scan with one weighted_class_operator call per weight."""
    rows = []
    for ai, rep in enumerate(adapted):
        for col in range(m_alphas[ai]):
            worst = 0.0
            for i in range(rep.dim):
                op = image(group, representation, weighted_class_operator(group, g0, rep.matrices[:, i, col].conj()))
                worst = max(worst, float(np.max(np.abs(op))))
            rows.append(TensorOperatorFamily(group.labels[g0], ai, col, worst, worst < tol))
    return rows


def oracle_finite_class_suite(group: FiniteGroup, table, classes=None, seed: int = 42, n_random: int = 20) -> list:
    """finite_class_suite weight by weight, drawing the same random sequence: one
    weighted_class_operator, transfer and covariance per random weight, one per
    right translate of the centralizer weight."""
    tol = DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    n = group.order
    reports = []

    def record(check, cls, dev):
        reports.append(CheckReport(check, group.name, group.labels[cls.base_element], float(dev), tol[check], bool(dev <= tol[check])))

    for cls in classes or conjugacy_classes(group):
        g0 = cls.base_element
        average = weighted_class_operator(group, g0, np.ones(n))
        record("spectral_form", cls, np.max(np.abs(average - spectral_class_operator(group, cls, table))))
        dev_fact = dev_cov = 0.0
        for _ in range(n_random):
            f = _random_weight(rng, n)
            op = weighted_class_operator(group, g0, f)
            through = class_operator_from_classfunction(group, cls, transfer(group, cls, f))
            dev_fact = max(dev_fact, float(np.max(np.abs(op - through))))
            dev_cov = max(dev_cov, covariance_deviation(group, g0, f, op, int(rng.integers(n))))
        f = _random_weight(rng, n)
        base = weighted_class_operator(group, g0, f)
        dev_cent = 0.0
        for h in cls.centralizer:
            shifted = weighted_class_operator(group, g0, f[group.mult_table[:, h]])  # f(x h)
            dev_cent = max(dev_cent, float(np.max(np.abs(shifted - base))))
        record("coset_factorization", cls, dev_fact)
        record("conjugation_covariance", cls, dev_cov)
        record("centralizer_invariance", cls, dev_cent)
        expansion = table.values[:, table.class_of[g0]].conj() @ table.values / n
        record("class_sum_expansion", cls, np.max(np.abs(class_sum(group, cls) - expansion[table.class_of])))
    return reports


def oracle_multiplicities(table, sigma: int) -> dict[int, int]:
    """m(sigma; gamma) = (1/|G|) sum_g conj(chi^gamma(g)) |chi^sigma(g)|^2 over
    the elements, each rounded to the nearest integer; zeros left out."""
    chars = table.values[:, table.class_of]
    mults = (chars.conj() @ (np.abs(chars[sigma]) ** 2)).real / len(table.class_of)
    return {gamma: round(m) for gamma, m in enumerate(mults.tolist()) if round(m)}


def regular_representation(group: FiniteGroup) -> np.ndarray:
    """Dense stack of left-translation permutation matrices, shape (|G|, |G|, |G|)."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    cols = np.arange(n)
    for g in range(n):
        mats[g, group.mult_table[g, cols], cols] = 1.0
    return mats


def literal_class_operator(group: FiniteGroup, representation, g0: int, f) -> np.ndarray:
    """(1/|G|) sum_x f(x) T(x) T(g0) T(x^-1), written as an explicit element loop."""
    dim = representation.shape[1]
    acc = np.zeros((dim, dim), dtype=complex)
    for x in range(group.order):
        acc += f[x] * representation[x] @ representation[g0] @ representation[group_inv(group, x)]
    return acc / group.order


def oracle_character_table(group: FiniteGroup, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Characters via commutant diagonalization of the regular representation.

    Each class-sum multiplication operator acts on the isotypic block alpha as
    the scalar chi^alpha(C_i)/n^alpha with block dimension (n^alpha)^2; joint
    eigenvalues plus multiplicities recover the table without touching the
    class-algebra structure constants.  Returns (values, dims), canonically
    ordered like the production table.
    """
    classes = conjugacy_classes(group)
    mats = [left_regular_matrix(group, class_sum(group, c)) for c in classes]
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    combo = sum(c * m for c, m in zip(coeff, mats))
    herm = combo + combo.conj().T
    evals, evecs = np.linalg.eigh(herm)
    # cluster eigenvalues into isotypic blocks
    blocks: list[list[int]] = [[0]]
    tol = 1e-8 * max(1.0, float(np.max(np.abs(evals))))
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] <= tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    rows, dims = [], []
    for block in blocks:
        v = evecs[:, block[0]]
        j_star = int(np.argmax(np.abs(v)))
        mu = np.array([(m @ v)[j_star] / v[j_star] for m in mats])
        n = int(round(np.sqrt(len(block))))
        assert n * n == len(block), "block dimension is not a perfect square"
        rows.append(n * mu)
        dims.append(n)
    values = np.array(rows)
    values.real[np.abs(values.real) < 1e-10] = 0.0
    values.imag[np.abs(values.imag) < 1e-10] = 0.0
    dims = np.array(dims)

    def key(r: int):
        trivial = bool(np.allclose(values[r], 1.0, atol=1e-8))
        lex = tuple((round(float(z.real), 8), round(float(z.imag), 8)) for z in values[r])
        return (not trivial, int(dims[r]), lex)

    order = sorted(range(len(rows)), key=key)
    return values[order], dims[order]


def _lowering_coeff(j2: int, m2: int) -> float:
    """<j, m-1| J_- |j, m> = sqrt(j(j+1) - m(m-1)) in doubled-integer inputs."""
    j, m = j2 / 2.0, m2 / 2.0
    return float(np.sqrt(j * (j + 1) - m * (m - 1)))


def oracle_cg_ladder(j1_2: int, j2_2: int) -> dict[int, np.ndarray]:
    """Clebsch-Gordan via highest-weight states and lowering, Condon-Shortley.

    Returns {J2: array (2j1+1, 2j2+1, 2J+1)} over all J in the product;
    indices descend in m like the library convention.
    """
    d1, d2 = j1_2 + 1, j2_2 + 1
    m1s = list(range(j1_2, -j1_2 - 2, -2))
    m2s = list(range(j2_2, -j2_2 - 2, -2))
    out: dict[int, np.ndarray] = {}
    # states[J2][M2] = vector in the product basis (d1*d2)
    states: dict[int, dict[int, np.ndarray]] = {}
    for j_2 in range(j1_2 + j2_2, abs(j1_2 - j2_2) - 2, -2):
        # highest-weight state at M = J, orthogonal to all higher-J states there
        m_2 = j_2
        basis_pairs = [
            (i1, i2)
            for i1, a in enumerate(m1s)
            for i2, b in enumerate(m2s)
            if a + b == m_2
        ]
        space = np.zeros((len(basis_pairs), d1 * d2))
        for row, (i1, i2) in enumerate(basis_pairs):
            space[row, i1 * d2 + i2] = 1.0
        constraints = [
            states[jj][m_2] for jj in states if m_2 in states[jj]
        ]
        vec = None
        for trial in range(len(basis_pairs)):
            cand = space[trial].astype(complex)
            for c in constraints:
                cand = cand - (c.conj() @ cand) * c
            if np.linalg.norm(cand) > 1e-8:
                # project onto the M-weight space spanned by remaining freedom
                for c2 in constraints:
                    cand = cand - (c2.conj() @ cand) * c2
                vec = cand / np.linalg.norm(cand)
                break
        assert vec is not None
        # Condon-Shortley: component with largest m1 is positive real
        lead = next(
            vec[i1 * d2 + i2]
            for i1, a in enumerate(m1s)
            for i2, b in enumerate(m2s)
            if a + b == m_2 and abs(vec[i1 * d2 + i2]) > 1e-12
        )
        vec = vec * (abs(lead) / lead)
        states[j_2] = {m_2: vec}
        # lower through the multiplet
        current = vec
        while m_2 > -j_2:
            lowered = np.zeros(d1 * d2, dtype=complex)
            for i1, a in enumerate(m1s):
                for i2, b in enumerate(m2s):
                    amp = current[i1 * d2 + i2]
                    if abs(amp) < 1e-300:
                        continue
                    if a > -j1_2:
                        lowered[(i1 + 1) * d2 + i2] += amp * _lowering_coeff(j1_2, a)
                    if b > -j2_2:
                        lowered[i1 * d2 + (i2 + 1)] += amp * _lowering_coeff(j2_2, b)
            lowered /= _lowering_coeff(j_2, m_2)
            m_2 -= 2
            states[j_2][m_2] = lowered
            current = lowered
    for j_2, mult in states.items():
        arr = np.zeros((d1, d2, j_2 + 1))
        for im, m_2 in enumerate(range(j_2, -j_2 - 2, -2)):
            arr[:, :, im] = mult[m_2].real.reshape(d1, d2)
        out[j_2] = arr
    return out


def oracle_little_d(j2: int, theta) -> np.ndarray:
    """d^j(theta) from the explicit factorial sum (Wigner's formula), entry by entry.

    Accurate to round-off for small spins only: the alternating sum loses
    unitarity from j2 ~ 40 on and overflows a float from j2 ~ 100 on.
    """
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    m2 = np.arange(j2, -j2 - 2, -2)
    out = np.zeros(theta.shape + (j2 + 1, j2 + 1))
    for r, mp2 in enumerate(m2):
        for col, mm2 in enumerate(m2):
            jp_m, jm_m = (j2 + mm2) // 2, (j2 - mm2) // 2
            jp_mp, jm_mp = (j2 + mp2) // 2, (j2 - mp2) // 2
            shift = (mm2 - mp2) // 2
            pref = np.sqrt(
                float(factorial(jp_m) * factorial(jm_m) * factorial(jp_mp) * factorial(jm_mp))
            )
            acc = np.zeros(theta.shape)
            for k in range(max(0, shift), min(jp_m, jm_mp) + 1):
                denom = factorial(jp_m - k) * factorial(k) * factorial(jm_mp - k) * factorial(k - shift)
                power = c ** (j2 - 2 * k + shift) * s ** (2 * k - shift)
                acc = acc + (-1) ** (k - shift) * pref / denom * power
            out[..., r, col] = acc
    return out


def _phi_phases(phi: np.ndarray, dim: int) -> np.ndarray:
    """e^{i k (phi - pi/2)} for every weight difference k = -(d-1), ..., d-1; shape (2d-1, P)."""
    return np.exp(1j * np.multiply.outer(np.arange(1 - dim, dim), phi - np.pi / 2.0))


def _difference_index(dim: int) -> np.ndarray:
    """Row of _phi_phases holding m_i - m_l for entry (i, l): m_i - m_l = l - i."""
    idx = np.arange(dim)
    return idx[None, :] - idx[:, None] + dim - 1


def oracle_phi_sum_class_operator(j2: int, psi: float, quad) -> np.ndarray:
    """class_operator_quadrature with its phi average summed over the rule's nodes."""
    rep = WignerD(j2)
    d_stack = rep.little_d(quad.theta)
    left = (d_stack * quad.theta_weights[:, None, None]) * rep.weight_phases(psi)
    core = np.tensordot(left, d_stack, axes=([0, 2], [0, 2]))
    return _phi_phases(quad.phi, rep.dim).mean(axis=1)[_difference_index(rep.dim)] * core


def oracle_phi_sum_weighted_operator(j2: int, psi: float, weight_terms, quad) -> np.ndarray:
    """weighted_class_operator_su2 with the weight tabulated on every (phi, theta)
    node and the phi sum taken over the rule's nodes."""
    rep = WignerD(j2)
    d_stack = rep.little_d(quad.theta)
    conj_core = (d_stack * rep.weight_phases(psi)) @ d_stack.transpose(0, 2, 1)
    values = np.zeros((quad.n_phi, quad.n_theta), dtype=complex)
    for l2, i, coeff in weight_terms:
        wrep = WignerD(l2)
        col = fixed_column_index(l2)
        wd = wrep.little_d(quad.theta)[:, i, col]
        lphase = np.exp(0.5j * wrep.m2[i] * (quad.phi - np.pi / 2.0))
        right = wrep.weight_phases(np.pi / 2.0)[col]
        values += coeff * np.conj(np.multiply.outer(lphase, wd) * right)
    phi_sums = _phi_phases(quad.phi, rep.dim) @ (values * quad.theta_weights)
    out = np.einsum("til,ilt->il", conj_core, phi_sums[_difference_index(rep.dim)])
    return out / quad.n_phi


def oracle_su2_haar_quadrature(n_phi: int, n_theta: int, n_psi: int) -> tuple[np.ndarray, np.ndarray]:
    """su2_haar_quadrature with its Gauss-Legendre theta rule and uniform phi
    grid built here rather than taken from SphereQuadrature.build."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    psi = -2 * np.pi + 4 * np.pi * np.arange(n_psi) / n_psi
    angles = np.stack(np.meshgrid(phi, theta, psi, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.tile(np.repeat(w / 2.0 / n_phi / n_psi, n_psi), n_phi)
    return angles, weights


def oracle_triple_sum_su2(alpha2: int, sigma2: int, angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_g w_g conj(t^alpha_kl) conj(t^sigma_ir) t^sigma_sp node by node, from the
    full Wigner-D stacks on every node; shape (k, l, i, r, s, p)."""
    phi, theta, psi = np.asarray(angles, dtype=float).T
    t_alpha = WignerD(alpha2).euler(phi, theta, psi)
    t_sigma = WignerD(sigma2).euler(phi, theta, psi)
    return _weighted_triple_sum(np.asarray(weights), t_alpha, t_sigma)


def coefficient_matrix(table) -> np.ndarray:
    """Unitary change of basis E^H of a coupling table, rows (i, j) and columns
    (gamma, m, n), where the rows (gamma, m, n) of E are the flattened e^gamma_mn."""
    d = table.sigma_dim
    return np.concatenate([table.basis[g].reshape(-1, d * d) for g in table.gammas]).conj().T


def unitarity_residual(table) -> float:
    c = coefficient_matrix(table)
    eye = np.eye(c.shape[0])
    return float(max(np.max(np.abs(c @ c.conj().T - eye)), np.max(np.abs(c.conj().T @ c - eye))))


def product_expansion_residual(group: FiniteGroup, irreps_list, table, elements=None) -> float:
    """Max deviation in the finite matrix-element product expansion, over the
    elements (all of them by default)."""
    elements = np.arange(group.order) if elements is None else np.asarray(elements)
    t_sigma = irreps_list[table.sigma].matrices[elements]
    stacks = {g: irreps_list[g].matrices[elements] for g in table.gammas}
    return _expansion_residual(t_sigma, stacks, table)


# Entries of one chunk of the node-wise outer product in _weighted_triple_sum.
_TRIPLE_CHUNK_ENTRIES = 1 << 17


def _weighted_triple_sum(weights: np.ndarray, t_alpha: np.ndarray, t_sigma: np.ndarray) -> np.ndarray:
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


def triple_product_residual(group: FiniteGroup, irreps_list, table, alpha: int) -> float:
    """Residual of the finite group-averaged triple product against the
    coupling-coefficient form; a component alpha absent from L(V^sigma) must
    average to zero."""
    weights = np.full(group.order, 1.0 / group.order)
    lhs = _weighted_triple_sum(weights, irreps_list[alpha].matrices, irreps_list[table.sigma].matrices)
    return _triple_residual(lhs, irreps_list[alpha].dim, table.basis.get(alpha))


def su2_matrices(angles) -> np.ndarray:
    """[[a, b], [-conj(b), conj(a)]] at Euler angles (phi, theta, psi), shape (..., 2, 2),
    with a = cos(theta/2) e^{i(phi+psi)/2} and b = i sin(theta/2) e^{i(phi-psi)/2}."""
    phi, theta, psi = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    a = np.cos(theta / 2) * np.exp(0.5j * (phi + psi))
    b = 1j * np.sin(theta / 2) * np.exp(0.5j * (phi - psi))
    return np.stack([np.stack([a, b], axis=-1), np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)


def su2_euler_angles(matrices) -> np.ndarray:
    """Euler angles (phi, theta, psi) of SU(2) matrices, shape (..., 3), one
    element at a time in Python scalars: phi in [0, 2pi), theta in [0, pi],
    psi in [-2pi, 2pi); where |b| (or |a|) is below 1e-15, phi (or psi) is 0."""
    matrices = np.asarray(matrices)
    out = []
    for m in matrices.reshape(-1, 2, 2):
        a, b = complex(m[0, 0]), complex(m[0, 1])
        theta = 2.0 * np.arctan2(abs(b), abs(a))
        if abs(b) < 1e-15:
            phi, psi = 0.0, 2.0 * np.angle(a)
        elif abs(a) < 1e-15:
            psi, phi = 0.0, 2.0 * (np.angle(b) - np.pi / 2)
        else:
            s = 2.0 * np.angle(a)               # phi + psi, mod 4pi
            d = 2.0 * (np.angle(b) - np.pi / 2)  # phi - psi, mod 4pi
            phi, psi = (s + d) / 2.0, (s - d) / 2.0
        phi_mod = float(np.mod(phi, 2 * np.pi))
        psi = psi + (phi - phi_mod)
        out.append((phi_mod, float(theta), float(np.mod(psi + 2 * np.pi, 4 * np.pi) - 2 * np.pi)))
    return np.array(out).reshape(matrices.shape[:-2] + (3,))


def su2_product_angles(u, v) -> np.ndarray:
    """Euler angles of the products u v of the elements at angles u and v."""
    return su2_euler_angles(su2_matrices(u) @ su2_matrices(v))


def decode_complex_array(data) -> np.ndarray:
    """A parsed JSON array of [re, im] pairs as a complex array."""
    raw = np.asarray(data, dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def read_tables_2(document: dict, tol: float = 1e-8) -> list[np.ndarray]:
    """Every irrep of a parsed ``classop-tables/2`` document on every element,
    shape (|G|, d, d), rebuilt from its generator images along the words.

    Raises ``ValueError`` when the words do not reach every element or a
    rebuilt character is further than ``tol`` (the bound ``irreps()``
    checks) from the written character table.
    """
    if document["schema"] != "classop-tables/2":
        raise ValueError(f"not a classop-tables/2 document: {document['schema']!r}")
    group = document["group"]
    n = group["order"]
    parent = np.array([0] + group["words"]["parent"], dtype=np.int64)
    slot = np.array([0] + group["words"]["slot"], dtype=np.int64)
    class_of = np.empty(n, dtype=np.int64)
    for ci, c in enumerate(group["classes"]):
        class_of[c["members"]] = ci
    values = decode_complex_array(document["character_table"]["values"])
    out = []
    for alpha, rep in enumerate(document["irreps"]):
        d = rep["dim"]
        # reshaped first: with no generators the written array is a bare []
        raw = np.asarray(rep["generator_images"], dtype=float).reshape(len(group["generators"]), d, d, 2)
        gens = decode_complex_array(raw)
        mats = np.empty((n, d, d), dtype=complex)
        mats[0] = np.eye(d)
        done = np.zeros(n, dtype=bool)
        done[0] = True
        while not done.all():
            ready = ~done & done[parent]
            if not ready.any():
                raise ValueError("the words do not reach every element")
            mats[ready] = mats[parent[ready]] @ gens[slot[ready]]
            done |= ready
        drift = np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - values[alpha][class_of]))
        if not drift <= tol:
            raise ValueError(f"irrep {alpha}: rebuilt characters are {drift:.1e} from the table")
        out.append(mats)
    return out


def oracle_json_text(document) -> str:
    """The json module's own rendering of what ``serialize.json_text`` writes:
    float64 and complex128 arrays become their nested lists, and every complex
    number its [re, im] pair, before ``json.dumps`` sees the document."""
    return json.dumps(_nested_lists(document), indent=2, sort_keys=True) + "\n"


def _nested_lists(o):
    if isinstance(o, np.ndarray) and o.dtype in (np.float64, np.complex128):
        o = o.tolist()
    if isinstance(o, complex):
        return [o.real, o.imag]
    if isinstance(o, (list, tuple)):
        return [_nested_lists(v) for v in o]
    if isinstance(o, dict):
        return {k: _nested_lists(v) for k, v in o.items()}
    return o
