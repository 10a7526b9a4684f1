"""Weighted class operators on finite groups.

The central map sends a weight function f on G (or a class function on
G/Z0 ~ C0) to the operator average of conjugated representation matrices.
Everything here is normalized so that the weight identically 1 reproduces the
multiplication operator of the class sum on the group algebra: the invariant
measure on G/Z0 has total mass 1, matching the normalized Haar sum on G.

The identities are measured here as deviations; ``verify`` decides whether
they pass, against its tolerances.

The conjugation average is the image of one group-algebra element a, supported
on the class C0, so each operator here is returned as a itself: in a
representation given by a per-element stack T it is sum_g a(g) T(g), and in
the left regular one it is ``left_regular_matrix(group, a)``, whose entries are
the coefficients of a, so every deviation measured on a is the deviation of
the operators.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup, ConjugacyClass, _as_coeffs, _chunks
from .representations import CharacterTable

__all__ = [
    "weighted_class_operator",
    "covariance_deviation",
    "centralizer_invariance_deviation",
    "transfer",
    "class_operator_from_classfunction",
    "spectral_class_operator",
]


def weighted_class_operator(group: FiniteGroup, g0: int, f) -> np.ndarray:
    """T(f; g0) = (1/|G|) sum_x f(x) T(x) T(g0) T(x^-1), as its group-algebra element.

    T(x) T(g0) T(x^-1) = T(x g0 x^-1), so f is pushed forward along
    x -> x g0 x^-1 to the element transfer(f)/|C0| supported on C0 ~ G/Z0.
    ``f`` may also be a stack of weights, shape (r, |G|): one ``np.bincount``
    over the bins image + |G| * row pushes every row, summed in the order of a
    single call, and the result gets the leading axis r.  g0 must be an
    element index, 0 <= g0 < |G|.
    """
    f = _as_coeffs(group, f, stack=True)
    n = group.order
    if not 0 <= g0 < n:
        raise ValueError(f"g0 = {g0} is not an element index of a group of order {n}")
    image = group.mult_table[group.mult_table[:, g0], group.inverse_table]  # x g0 x^-1
    bins = (image + n * np.arange(f.size // n)[:, None]).ravel()
    pushed = np.bincount(bins, f.real.ravel(), f.size) + 1j * np.bincount(bins, f.imag.ravel(), f.size)
    return pushed.reshape(f.shape) / n


def covariance_deviation(group: FiniteGroup, g0: int, f, op: np.ndarray, g) -> float:
    """Largest deviation of lambda(g) T(f; g0) lambda(g)^-1 from T(lambda(g) f; g0).

    ``op`` is the element ``weighted_class_operator(group, g0, f)``; for a
    stack of weights ``g`` holds one element per weight.
    """
    f = _as_coeffs(group, f, stack=True)
    g = np.asarray(g)
    g_inv = group.inverse_table[g]
    # lambda(g) lambda(a) lambda(g)^-1 = lambda(g a g^-1), with coefficient a(g^-1 y g) at y
    moved = group.mult_table[group.mult_table[g_inv], g[..., None]]
    conjugated = np.take_along_axis(op, moved, axis=-1)
    shifted = np.take_along_axis(f, group.mult_table[g_inv], axis=-1)  # f(g^-1 x)
    return float(np.max(np.abs(conjugated - weighted_class_operator(group, g0, shifted)), initial=0.0))


def centralizer_invariance_deviation(group: FiniteGroup, g0: int, f) -> float:
    """Largest deviation of T(rho(h) f; g0) from T(f; g0) over every h in the
    centralizer of g0, any member of its class.

    The right translates are pushed in stacks of ``groups._chunks``, one
    row of |G| coefficients per centralizer element, counted as 8 |G|
    entries: a stack and its pushes hold about five arrays of its size at
    once, and a one-class suite on C1000 stays below 4 MB.
    """
    t = group.mult_table
    f = _as_coeffs(group, f)
    base = weighted_class_operator(group, g0, f)  # refuses a bad g0 before t[:, g0]
    centralizer = np.flatnonzero(t[:, g0] == t[g0])[1:]  # ascending; drops the identity, whose translate is f
    worst = 0.0
    for chunk in _chunks(len(centralizer), 8 * group.order):
        translates = f[t[:, centralizer[chunk]].T]  # row h: f(x h)
        shifted = weighted_class_operator(group, g0, translates)
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


def class_operator_from_classfunction(group: FiniteGroup, cls: ConjugacyClass, phi) -> np.ndarray:
    """Ttilde(phi; g0) = (1/|C0|) sum over the class of phi(x.) T(x g0 x^-1), as its element.

    For any f with transfer(f) = phi this equals weighted_class_operator(f):
    the factorization through G/Z0.  phi identically 1 gives the normalized
    class sum L0 = (1/|C0|) sum_{g in C0} g.  A stack of class functions
    (r, |C0|) gives a stack of elements.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape[-1:] != (cls.size,) or phi.ndim > 2:
        raise ValueError(f"class function must have length {cls.size}")
    on_class = np.zeros(phi.shape[:-1] + (group.order,), dtype=complex)
    on_class[..., list(cls.members)] = phi
    on_class /= cls.size
    return on_class


def spectral_class_operator(group: FiniteGroup, cls: ConjugacyClass, table: CharacterTable) -> np.ndarray:
    """Spectral form of the class operator on the group algebra.

    sum_alpha chi^alpha(C0)/n^alpha e_alpha over the central idempotents
    e_alpha = (n^alpha/|G|) conj(chi^alpha); the dims cancel, leaving
    (1/|G|) sum_alpha chi^alpha(C0) conj(chi^alpha), one product over the
    table.  Equals weighted_class_operator with weight 1.  Summed on the k
    classes, returned as a length-|G| element.
    """
    column = table.values[:, table.class_of[cls.base_element]]
    on_classes = (column.conj() @ table.values).conj() / group.order
    return on_classes[table.class_of]
