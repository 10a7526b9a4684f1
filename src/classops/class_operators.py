"""Weighted class operators on finite groups.

The central map sends a weight function f on G (or a class function on
G/Z0 ~ C0) to the operator average of conjugated representation matrices.
Everything here is normalized so that the weight identically 1 reproduces the
multiplication operator of the class sum on the group algebra: the invariant
measure on G/Z0 has total mass 1, matching the normalized Haar sum on G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, ConjugacyClass, _as_coeffs, conjugacy_classes
from .representations import CharacterTable, character_table, isotypic_projector, represent

__all__ = [
    "WeightedClassOperator",
    "CheckReport",
    "weighted_class_operator",
    "covariance_deviation",
    "covariance_conjugate",
    "centralizer_invariance_check",
    "transfer",
    "class_left_translate",
    "left_translate",
    "right_translate",
    "class_operator_from_classfunction",
    "spectral_class_operator",
    "class_sum_element",
]


@dataclass
class WeightedClassOperator:
    """T(f; g0) in a concrete representation, with its defining data."""

    g0: int
    weight: np.ndarray
    matrix: np.ndarray


@dataclass
class CheckReport:
    """One verification record, as emitted by the CLI report files."""

    check: str
    group: str
    cls: str
    max_deviation: float
    tolerance: float
    passed: bool


def left_translate(group: FiniteGroup, g: int, f) -> np.ndarray:
    """(lambda(g) f)(x) = f(g^-1 x)."""
    f = _as_coeffs(group, f)
    return f[group.mult_table[group.inverse_table[g]]]


def right_translate(group: FiniteGroup, h: int, f) -> np.ndarray:
    """(rho(h) f)(x) = f(x h)."""
    f = _as_coeffs(group, f)
    return f[group.mult_table[:, h]]


def weighted_class_operator(
    group: FiniteGroup,
    representation: np.ndarray | None,
    g0: int,
    f,
) -> WeightedClassOperator:
    """T(f; g0) = (1/|G|) sum_x f(x) T(x) T(g0) T(x^-1), computed on the class C0.

    T(x) T(g0) T(x^-1) = T(x g0 x^-1), so f is pushed forward along
    x -> x g0 x^-1 to the element transfer(f)/|C0| supported on C0 ~ G/Z0,
    which is represented once (``represent``; ``None`` is the left regular one).
    """
    f = _as_coeffs(group, f)
    n = group.order
    image = group.mult_table[group.mult_table[:, g0], group.inverse_table]  # x g0 x^-1
    pushed = (np.bincount(image, f.real, n) + 1j * np.bincount(image, f.imag, n)) / n
    return WeightedClassOperator(g0=g0, weight=f, matrix=represent(group, representation, pushed))


def covariance_deviation(
    group: FiniteGroup,
    representation: np.ndarray | None,
    op: WeightedClassOperator,
    g: int,
) -> tuple[WeightedClassOperator, float]:
    """T(g) T(f; g0) T(g)^-1 and its largest deviation from T(lambda(g) f; g0)."""
    if representation is None:
        p = group.mult_table[group.inverse_table[g]]  # lambda(g) A lambda(g)^-1 = A[g^-1 x, g^-1 y]
        conjugated = op.matrix[np.ix_(p, p)]
    else:
        t = np.asarray(representation)
        conjugated = t[g] @ op.matrix @ t[group.inverse_table[g]]
    shifted = left_translate(group, g, op.weight)
    direct = weighted_class_operator(group, representation, op.g0, shifted)
    dev = float(np.max(np.abs(conjugated - direct.matrix)))
    return WeightedClassOperator(g0=op.g0, weight=shifted, matrix=conjugated), dev


def covariance_conjugate(
    group: FiniteGroup,
    representation: np.ndarray | None,
    op: WeightedClassOperator,
    g: int,
    tol: float = 1e-10,
) -> WeightedClassOperator:
    """Conjugate T(f; g0) by T(g) and assert it equals T(lambda(g) f; g0).

    A tolerance violation means the representation is not a homomorphism or a
    normalization got double-applied somewhere.
    """
    moved, dev = covariance_deviation(group, representation, op, g)
    if dev > tol * max(1.0, op.matrix.shape[0]):
        raise ArithmeticError(
            f"covariance identity violated (deviation {dev:.3e}); "
            "representation or normalization bug"
        )
    return moved


def centralizer_invariance_check(
    group: FiniteGroup,
    representation: np.ndarray | None,
    g0: int,
    f,
    tol: float = 1e-12,
) -> CheckReport:
    """Verify T(rho(h) f; g0) = T(f; g0) for every h in the centralizer of g0."""
    cls = _class_of(group, g0)
    base = weighted_class_operator(group, representation, g0, f)
    worst = 0.0
    for h in cls.centralizer:
        shifted = weighted_class_operator(group, representation, g0, right_translate(group, h, f))
        worst = max(worst, float(np.max(np.abs(shifted.matrix - base.matrix))))
    return CheckReport(
        check="centralizer_invariance",
        group=group.name,
        cls=group.labels[cls.base_element],
        max_deviation=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


def _class_of(group: FiniteGroup, g0: int) -> ConjugacyClass:
    for c in conjugacy_classes(group):
        if g0 in c.members:
            return c
    raise ValueError(f"element {g0} not found in any class")


def transfer(group: FiniteGroup, cls: ConjugacyClass, f) -> np.ndarray:
    """Average f over right Z0-cosets: ftilde(x.) = (1/|Z0|) sum_h f(x h).

    The result is a class function indexed like ``cls.members`` (via the fixed
    coset-representative table).
    """
    f = _as_coeffs(group, f)
    reps = np.array(cls.coset_reps)
    z = np.array(cls.centralizer)
    coset_elements = group.mult_table[reps[:, None], z[None, :]]
    return f[coset_elements].mean(axis=1)


def class_left_translate(group: FiniteGroup, cls: ConjugacyClass, g: int, phi) -> np.ndarray:
    """Left translation transported to class functions: value at c is phi(g^-1 c g)."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (cls.size,):
        raise ValueError(f"class function must have length {cls.size}")
    member_index = {c: k for k, c in enumerate(cls.members)}
    ginv = group.inverse_table[g]
    out = np.empty_like(phi)
    for k, c in enumerate(cls.members):
        out[k] = phi[member_index[group.mult_table[group.mult_table[ginv, c], g]]]
    return out


def class_operator_from_classfunction(
    group: FiniteGroup,
    representation: np.ndarray | None,
    cls: ConjugacyClass,
    phi,
) -> WeightedClassOperator:
    """Ttilde(phi; g0) = (1/|C0|) sum over the class of phi(x.) T(x g0 x^-1).

    For any f with transfer(f) = phi this equals weighted_class_operator(f):
    the factorization through G/Z0.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (cls.size,):
        raise ValueError(f"class function must have length {cls.size}")
    weight = np.zeros(group.order, dtype=complex)
    weight[list(cls.members)] = phi  # descent witness; informational only
    matrix = represent(group, representation, weight) / cls.size
    return WeightedClassOperator(g0=cls.base_element, weight=weight, matrix=matrix)


def class_sum_element(group: FiniteGroup, cls: ConjugacyClass) -> np.ndarray:
    """Coefficient vector of the normalized class sum L0 = (1/|C0|) sum_{g in C0} g."""
    coeffs = np.zeros(group.order, dtype=complex)
    coeffs[list(cls.members)] = 1.0 / cls.size
    return coeffs


def spectral_class_operator(
    group: FiniteGroup,
    cls: ConjugacyClass,
    table: CharacterTable | None = None,
) -> np.ndarray:
    """Spectral form of the class operator on the group algebra.

    sum_alpha chi^alpha(C0)/n^alpha P^alpha with the isotypic projectors of
    the regular representation; equals weighted_class_operator with weight 1.
    """
    if table is None:
        table = character_table(group)
    class_index = next(
        i for i, c in enumerate(table.classes) if c.base_element == cls.base_element
    )
    out = np.zeros((group.order, group.order), dtype=complex)
    for alpha in range(len(table.dims)):
        proj = isotypic_projector(group, table, alpha).matrix
        out += (table.values[alpha, class_index] / table.dims[alpha]) * proj
    return out
