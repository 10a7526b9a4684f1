"""Weighted class operators on finite groups.

The central map sends a weight function f on G (or a class function on
G/Z0 ~ C0) to the operator average of conjugated representation matrices.
Everything here is normalized so that the weight identically 1 reproduces the
multiplication operator of the class sum on the group algebra: the invariant
measure on G/Z0 has total mass 1, matching the normalized Haar sum on G.

The identities are measured here as deviations; ``verify`` decides whether
they pass, against its tolerances.

Wherever a representation may be ``None`` it is the left regular one, and an
operator in it is carried as its group-algebra element a: lambda(a) is
``left_regular_matrix(group, a)``, whose entries are the coefficients of a,
so every deviation measured on a is the deviation of the operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, ConjugacyClass, _as_coeffs
from .representations import CharacterTable, character_table, represent

__all__ = [
    "WeightedClassOperator",
    "weighted_class_operator",
    "covariance_deviation",
    "centralizer_invariance_deviation",
    "transfer",
    "class_operator_from_classfunction",
    "spectral_class_operator",
    "class_sum_element",
]


@dataclass
class WeightedClassOperator:
    """T(f; g0) in a concrete representation, with its defining data:
    ``matrix`` is T(weight; g0), whichever function built it.

    For the left regular representation (``None``) ``matrix`` holds the
    group-algebra element a with T(f; g0) = ``left_regular_matrix(group, a)``.
    """

    g0: int
    weight: np.ndarray
    matrix: np.ndarray


# Coefficients in one stack of right translates in centralizer_invariance_deviation
_STACK_ENTRIES = 1 << 14


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
    ``f`` may also be a stack of weights, shape (r, |G|): one ``np.bincount``
    over the bins image + |G| * row pushes every row, summed in the order of a
    single call, and ``matrix`` gets the leading axis r.  g0 must be an
    element index, 0 <= g0 < |G|.
    """
    f = _as_coeffs(group, f, stack=True)
    n = group.order
    if not 0 <= g0 < n:
        raise ValueError(f"g0 = {g0} is not an element index of a group of order {n}")
    image = group.mult_table[group.mult_table[:, g0], group.inverse_table]  # x g0 x^-1
    bins = (image + n * np.arange(f.size // n)[:, None]).ravel()
    pushed = np.bincount(bins, f.real.ravel(), f.size) + 1j * np.bincount(bins, f.imag.ravel(), f.size)
    return WeightedClassOperator(g0=g0, weight=f, matrix=represent(group, representation, pushed.reshape(f.shape) / n))


def covariance_deviation(
    group: FiniteGroup,
    representation: np.ndarray | None,
    op: WeightedClassOperator,
    g,
) -> tuple[WeightedClassOperator, float]:
    """T(g) T(f; g0) T(g)^-1 and its largest deviation from T(lambda(g) f; g0).

    For an operator of stacked weights ``g`` holds one element per weight.
    """
    g = np.asarray(g)
    g_inv = group.inverse_table[g]
    if representation is None:
        # lambda(g) lambda(a) lambda(g)^-1 = lambda(g a g^-1), with coefficient a(g^-1 y g) at y
        moved = group.mult_table[group.mult_table[g_inv], g[..., None]]
        conjugated = np.take_along_axis(op.matrix, moved, axis=-1)
    else:
        t = np.asarray(representation)
        conjugated = t[g] @ op.matrix @ t[g_inv]
    shifted = np.take_along_axis(op.weight, group.mult_table[g_inv], axis=-1)  # f(g^-1 x)
    direct = weighted_class_operator(group, representation, op.g0, shifted)
    dev = float(np.max(np.abs(conjugated - direct.matrix), initial=0.0))
    return WeightedClassOperator(g0=op.g0, weight=shifted, matrix=conjugated), dev


def centralizer_invariance_deviation(
    group: FiniteGroup,
    representation: np.ndarray | None,
    g0: int,
    f,
) -> float:
    """Largest deviation of T(rho(h) f; g0) from T(f; g0) over every h in the
    centralizer of g0, any member of its class.

    The right translates are pushed as stacks of at most ``_STACK_ENTRIES``
    coefficients, all of them at once for groups of order up to 128.
    """
    t = group.mult_table
    f = _as_coeffs(group, f)
    base = weighted_class_operator(group, representation, g0, f).matrix  # refuses a bad g0 before t[:, g0]
    centralizer = np.flatnonzero(t[:, g0] == t[g0])[1:]  # ascending; drops the identity, whose translate is f
    step = max(1, _STACK_ENTRIES // group.order)
    worst = 0.0
    for lo in range(0, len(centralizer), step):
        translates = f[t[:, centralizer[lo:lo + step]].T]  # row h: f(x h)
        shifted = weighted_class_operator(group, representation, g0, translates).matrix
        worst = max(worst, float(np.max(np.abs(shifted - base))))
    return worst


def transfer(group: FiniteGroup, cls: ConjugacyClass, f) -> np.ndarray:
    """Average f over right Z0-cosets: ftilde(x.) = (1/|Z0|) sum_h f(x h).

    The result is a class function indexed like ``cls.members`` (via the fixed
    coset-representative table); a stack of weights (r, |G|) gives one per row.
    """
    f = _as_coeffs(group, f, stack=True)
    reps = np.array(cls.coset_reps)
    z = np.array(cls.centralizer)
    coset_elements = group.mult_table[reps[:, None], z[None, :]]
    return f[..., coset_elements].mean(axis=-1)


def class_operator_from_classfunction(
    group: FiniteGroup,
    representation: np.ndarray | None,
    cls: ConjugacyClass,
    phi,
) -> WeightedClassOperator:
    """Ttilde(phi; g0) = (1/|C0|) sum over the class of phi(x.) T(x g0 x^-1).

    For any f with transfer(f) = phi this equals weighted_class_operator(f):
    the factorization through G/Z0.  A stack of class functions (r, |C0|)
    gives a stack of operators.  The returned ``weight`` is such an f, the one
    constant on cosets: f(x) = phi(x g0 x^-1), so T(weight; g0) = ``matrix``.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape[-1:] != (cls.size,) or phi.ndim > 2:
        raise ValueError(f"class function must have length {cls.size}")
    on_class = np.zeros(phi.shape[:-1] + (group.order,), dtype=complex)
    on_class[..., list(cls.members)] = phi
    matrix = represent(group, representation, on_class)
    matrix /= cls.size
    t, g0 = group.mult_table, cls.base_element
    weight = phi[..., np.searchsorted(cls.members, t[t[:, g0], group.inverse_table])]  # members ascend
    return WeightedClassOperator(g0=g0, weight=weight, matrix=matrix)


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

    sum_alpha chi^alpha(C0)/n^alpha e_alpha over the central idempotents
    e_alpha = (n^alpha/|G|) conj(chi^alpha); the dims cancel, leaving
    (1/|G|) sum_alpha chi^alpha(C0) conj(chi^alpha), one product over the
    table.  Equals weighted_class_operator with weight 1.  Summed on the k
    classes, returned as a length-|G| element.
    """
    if table is None:
        table = character_table(group)
    column = table.values[:, table.class_of[cls.base_element]]
    on_classes = (column.conj() @ table.values).conj() / group.order
    return on_classes[table.class_of]
