"""Verification drivers: each returns plain records that reports are built from.

These functions are the bodies of the CLI subcommands and are reused verbatim
by the acceptance test suite, so the command-line tool and the tests always
agree on what was checked.  The library measures deviations; every verdict,
a deviation against a tolerance of ``DEFAULT_TOLERANCES``, is taken here, for
one record (``passed``) or for a whole run (``su2_convergence_passed``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, ConjugacyClass, conjugacy_classes
from .representations import CharacterTable, Irrep, character_table
from .class_operators import (
    centralizer_invariance_deviation,
    class_operator_from_classfunction,
    covariance_deviation,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)
from .coupling import (
    CouplingTable,
    adapt_irreps_to_class,
    rotate_coupling_table,
    su2_coupling_table,
    tensor_operator_scan,
    wigner_eckart_bruteforce,
    wigner_eckart_matrix,
    z_fixed_basis,
)
from .su2 import (
    MAX_J2,
    SphereQuadrature,
    WignerD,
    class_operator_quadrature,
    closed_form_eigenvalue,
    fixed_column_index,
    weighted_class_operator_rows_su2,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "CheckReport",
    "finite_class_suite",
    "Su2ConvergenceRow",
    "su2_convergence_rows",
    "su2_convergence_passed",
    "WignerEckartRow",
    "ReducedElementRow",
    "wigner_eckart_report",
    "su2_wigner_eckart_report",
    "wigner_eckart_passed",
    "scan_rows",
]

DEFAULT_TOLERANCES = {
    "spectral_form": 1e-10,
    "coset_factorization": 1e-11,
    "conjugation_covariance": 1e-11,
    "centralizer_invariance": 1e-11,
    "class_sum_expansion": 1e-10,
    "su2_final_error": 1e-9,
    "wigner_eckart_match": 1e-9,
    "wigner_eckart_sparsity": 1e-10,
    "scan_vanishing": 1e-10,
}


@dataclass
class CheckReport:
    """One verification record, as emitted by the CLI report files."""

    check: str
    group: str
    cls: str
    max_deviation: float
    tolerance: float
    passed: bool


def _random_weight(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def finite_class_suite(
    group: FiniteGroup,
    classes: list[ConjugacyClass] | None = None,
    seed: int = 42,
    n_random: int = 20,
    tolerances: dict | None = None,
    table: CharacterTable | None = None,
) -> list[CheckReport]:
    """The five per-class identities on the group algebra.

    For each selected class: the spectral form of the class operator against
    the conjugation average with weight 1, the factorization through G/Z0 on
    random weights, conjugation covariance, right-centralizer invariance, and
    the character expansion of the class sum.  Operators of the left regular
    representation are compared as their group-algebra elements, so no
    |G| x |G| matrix is built.  The ``n_random`` weights of a class and their
    covariance elements are drawn in turn (weight, element, weight, ...), then
    checked as one stack: one push-forward, one transfer and one conjugation
    gather for all of them.
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    if table is None:
        table = character_table(group, seed=seed)
    if classes is None:
        classes = conjugacy_classes(group)
    rng = np.random.default_rng(seed)
    n = group.order
    reports: list[CheckReport] = []

    def record(check: str, cls: ConjugacyClass, dev: float) -> None:
        reports.append(
            CheckReport(
                check=check,
                group=group.name,
                cls=group.labels[cls.base_element],
                max_deviation=float(dev),
                tolerance=tol[check],
                passed=bool(dev <= tol[check]),
            )
        )

    for cls in classes:
        g0 = cls.base_element
        # spectral form == conjugation average with weight 1
        average = weighted_class_operator(group, g0, np.ones(n))
        spectral = spectral_class_operator(group, cls, table)
        record("spectral_form", cls, np.max(np.abs(average - spectral)))
        # coset factorization + covariance on the stacked weights, then centralizer invariance
        weights = np.empty((n_random, n), dtype=complex)
        elements = np.empty(n_random, dtype=np.intp)
        for i in range(n_random):
            weights[i], elements[i] = _random_weight(rng, n), rng.integers(n)
        op = weighted_class_operator(group, g0, weights)
        through = class_operator_from_classfunction(group, cls, transfer(group, cls, weights))
        record("coset_factorization", cls, np.max(np.abs(op - through), initial=0.0))
        record("conjugation_covariance", cls, covariance_deviation(group, g0, weights, op, elements))
        record("centralizer_invariance", cls, centralizer_invariance_deviation(group, g0, _random_weight(rng, n)))
        # class-sum expansion in irreducible characters, a class function
        expansion = table.values[:, table.class_of[g0]].conj() @ table.values / n
        class_sum = class_operator_from_classfunction(group, cls, np.ones(cls.size))
        record("class_sum_expansion", cls, np.max(np.abs(class_sum - expansion[table.class_of])))
    return reports


@dataclass
class Su2ConvergenceRow:
    j2: int
    psi: float
    n_theta: int
    n_phi: int
    max_abs_error: float
    closed_form_value: float


# the (n_theta, n_phi) sphere rules of the default convergence table
SU2_TABLE_RULES = ((4, 8), (8, 16), (16, 32), (32, 64), (64, 128))


def su2_convergence_rows(
    j2_values=range(1, 13),
    psi_values=(np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, np.pi, 3 * np.pi / 2),
    rules=SU2_TABLE_RULES,
) -> list[Su2ConvergenceRow]:
    """Class-operator quadrature error against the closed form, for every
    (j2, psi) and every sphere rule (n_theta, n_phi), in that nesting order;
    each (j2, rule) runs every angle in one quadrature call and one error
    reduction."""
    j2_values, psi_values = [int(j2) for j2 in j2_values], [float(psi) for psi in psi_values]
    # the closed form validates spin and angle before any rule is built
    targets = [[closed_form_eigenvalue(j2, psi) for psi in psi_values] for j2 in j2_values]
    quads = [SphereQuadrature.build(n_theta, n_phi) for n_theta, n_phi in rules]
    rows = []
    for j2, j2_targets in zip(j2_values, targets):
        scalars = np.array(j2_targets)[:, None, None] * np.eye(j2 + 1)
        errors = [
            np.abs(class_operator_quadrature(j2, psi_values, quad) - scalars).max(axis=(1, 2)).tolist()
            for quad in quads
        ]
        for p, (psi, target) in enumerate(zip(psi_values, j2_targets)):
            for quad, errs in zip(quads, errors):
                rows.append(Su2ConvergenceRow(j2, psi, quad.n_theta, quad.n_phi, errs[p], target))
    return rows


def su2_convergence_passed(rows: list[Su2ConvergenceRow], tolerances: dict | None = None) -> bool:
    """True when every row of the finest rule is within ``su2_final_error``."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}["su2_final_error"]
    finest = max(r.n_theta for r in rows)
    return all(r.max_abs_error <= tol for r in rows if r.n_theta == finest)


@dataclass
class WignerEckartRow:
    group: str
    sigma: int
    alpha: int
    k: int
    l: int
    g0: str
    max_dev: float
    passed: bool


@dataclass
class ReducedElementRow:
    group: str
    sigma: int
    alpha: int
    l: int
    m: int
    g0: str
    value: complex


def wigner_eckart_report(
    group: FiniteGroup,
    cls: ConjugacyClass,
    table: CharacterTable,
    irreps_list: list[Irrep],
    coupling: list[CouplingTable],
    tolerances: dict | None = None,
):
    """Compare the Wigner-Eckart prediction with brute-force inner products.

    ``table`` and ``irreps_list`` are the run's character table and irreps,
    and ``coupling`` their ``conjugation_decomposition`` of every sigma; each
    class rotates it into its Z0-fixed bases.
    Returns (rows, reduced_rows, skipped, max_off_pattern): one row per
    (alpha, k, l, sigma), the reduced-matrix-element table, notes for alpha
    without Z0-fixed columns, and the largest off-pattern magnitude seen.
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    g0 = cls.base_element
    g0_label = group.labels[g0]
    bases = [z_fixed_basis(ai, rep.matrices, cls.centralizer) for ai, rep in enumerate(irreps_list)]
    adapted, m_alphas = adapt_irreps_to_class(irreps_list, cls, bases)
    tables = [rotate_coupling_table(tab, [zb.basis for zb in bases]) for tab in coupling]
    weights = [(alpha, k, l) for alpha, rep in enumerate(adapted) for k in range(rep.dim) for l in range(m_alphas[alpha])]
    # kernel[sigma][alpha] = (pred[k, l, u, i], reduced[l, m]); predictions[sigma] stacks rows (alpha, k, l)
    kernel = [
        [wigner_eckart_matrix(tab, alpha, rep.dim, range(m), adapted[tab.sigma].matrices[g0])
         for alpha, (rep, m) in enumerate(zip(adapted, m_alphas))]
        for tab in tables
    ]
    predictions = [np.concatenate([pred.reshape(-1, *pred.shape[2:]) for pred, _ in preds]) for preds in kernel]
    dims = [rep.dim for rep in adapted]
    starts = np.cumsum([0] + [d * d for d in dims])
    dev = np.zeros((len(adapted), len(weights)))
    max_off = 0.0
    for gamma, columns, block in wigner_eckart_bruteforce(group, adapted, g0, weights):
        # the rows sigma = gamma hold the pattern delta_jv pred[k, l, u, i]; every other entry is off it
        d = dims[gamma]
        i, j = np.divmod(np.arange(d * d), d)
        u, v = i[columns], j[columns]
        on_pattern = j[:, None] == v
        rows_of_gamma = slice(starts[gamma], starts[gamma + 1])
        expect = predictions[gamma][:, u, i[:, None]] * on_pattern
        dev[gamma] = np.maximum(dev[gamma], np.abs(block[:, rows_of_gamma] - expect).max(axis=(1, 2)))
        off = np.abs(block)
        off[:, rows_of_gamma][:, on_pattern] = 0.0
        max_off = max(max_off, float(off.max()))
    rows: list[WignerEckartRow] = []
    reduced_rows: list[ReducedElementRow] = []
    for (alpha, k, l), devs in zip(weights, dev.T.tolist()):
        for sigma, deviation in enumerate(devs):
            reduced = kernel[sigma][alpha][1][l]
            _add_comparison(rows, reduced_rows, (group.name, sigma, alpha, k, l, g0_label), deviation, reduced, tol)
    return rows, reduced_rows, _skipped(g0_label, m_alphas), max_off


def su2_wigner_eckart_report(
    max_spin_x2: int,
    psi: float,
    rule: tuple[int, int],
    tolerances: dict | None = None,
):
    """Blockwise SU(2) comparison: sphere quadrature vs coupling prediction.

    The weights run over every component of L(V^sigma), up to doubled spin
    2 * max_spin_x2, which must not exceed MAX_J2; ``rule`` is the
    (n_theta, n_phi) sphere rule, built only once the spin range is accepted.
    Each sigma takes the quadrature of every alpha, all its rows k, from one
    ``weighted_class_operator_rows_su2`` call, and predicts them with one
    ``wigner_eckart_matrix`` call per alpha.
    """
    if 2 * max_spin_x2 > MAX_J2:
        raise ValueError(
            f"max_spin_x2={max_spin_x2} needs weights of doubled spin {2 * max_spin_x2}, "
            f"above MAX_J2={MAX_J2}"
        )
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    quad = SphereQuadrature.build(*rule)
    rows: list[WignerEckartRow] = []
    reduced_rows: list[ReducedElementRow] = []
    g0_label = f"g(psi={psi:.6g})"
    for sigma2 in range(1, max_spin_x2 + 1):
        tab = su2_coupling_table(sigma2)
        quadrature = weighted_class_operator_rows_su2(sigma2, psi, tab.gammas, quad)  # refuses psi first
        t_sigma_g0 = WignerD(sigma2).euler(0.0, 0.0, psi)
        for alpha2, quadr in quadrature:
            col = fixed_column_index(alpha2)
            pred, reduced = wigner_eckart_matrix(tab, alpha2, alpha2 + 1, [col], t_sigma_g0)
            devs = np.abs(pred[:, 0] - quadr).max(axis=(1, 2))
            for k, dev in enumerate(devs.tolist()):
                _add_comparison(rows, reduced_rows, ("SU2", sigma2, alpha2, k, col, g0_label), dev, reduced[0], tol)
        del tab, quadrature, quadr, pred   # free sigma's O(d^4) table before the next one is built
    return rows, reduced_rows


def wigner_eckart_passed(rows: list[WignerEckartRow], max_off: float, tolerances: dict | None = None) -> bool:
    """True when every row passed and no entry off the pattern exceeds ``wigner_eckart_sparsity``."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}["wigner_eckart_sparsity"]
    return all(r.passed for r in rows) and max_off <= tol


def _add_comparison(rows, reduced_rows, key, dev, reduced, tol) -> None:
    """Record one Wigner-Eckart comparison, keyed by (group, sigma, alpha, k, l,
    g0), and at k = 0 the reduced matrix elements ``reduced[m]`` of its column l."""
    group, sigma, alpha, k, l, g0 = key
    rows.append(WignerEckartRow(group, sigma, alpha, k, l, g0, dev, bool(dev <= tol["wigner_eckart_match"])))
    if k == 0:
        reduced_rows.extend(ReducedElementRow(group, sigma, alpha, l, m, g0, complex(v)) for m, v in enumerate(reduced))


def _skipped(label: str, m_alphas: list[int]) -> list[dict]:
    return [
        {"class": label, "alpha": alpha, "reason": "no Z0-fixed columns; operator family necessarily zero"}
        for alpha, m in enumerate(m_alphas)
        if m == 0
    ]


def scan_rows(
    group: FiniteGroup,
    cls: ConjugacyClass,
    irreps_list: list[Irrep],
    tolerances: dict | None = None,
):
    """Tensor-operator vanishing scan in the regular representation, on
    group-algebra elements."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    adapted, m_alphas = adapt_irreps_to_class(irreps_list, cls)
    families = tensor_operator_scan(
        group, None, cls.base_element, adapted, m_alphas, tol=tol["scan_vanishing"]
    )
    return families, _skipped(group.labels[cls.base_element], m_alphas)
