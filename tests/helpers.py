"""Independent oracles shared by the test modules.

Everything here recomputes expected values through a different route than the
library code under test: set-based orbit enumeration for classes, the dense
stack of left-translation matrices and the literal triple product for weighted
class operators, commutant diagonalization of the regular representation for
characters, a highest-weight/lowering recursion for Clebsch-Gordan
coefficients, and Wigner's factorial sum for the SU(2) little-d matrix.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from classops.groups import FiniteGroup, conjugacy_classes, left_regular_matrix
from classops.class_operators import class_sum_element

CATALOG_LEQ_24 = ["C1", "C2", "C3", "C4", "C6", "D3", "D4", "D5", "Q8", "S3", "S4"]
ACCEPTANCE_GROUPS = ["C6", "S3", "D4", "Q8", "S4"]


def oracle_classes(group: FiniteGroup) -> list[set[int]]:
    """Brute-force conjugacy classes over the Cayley table, set-based."""
    remaining = set(range(group.order))
    out = []
    while remaining:
        base = min(remaining)
        orbit = {group.conjugate(base, x) for x in range(group.order)}
        out.append(orbit)
        remaining -= orbit
    return out


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
        acc += f[x] * representation[x] @ representation[g0] @ representation[group.inv(x)]
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
    mats = [left_regular_matrix(group, class_sum_element(group, c)) for c in classes]
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
