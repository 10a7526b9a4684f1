"""Verification drivers: each returns plain records that reports are built from.

These functions are the bodies of the CLI subcommands and are reused verbatim
by the acceptance test suite, so the command-line tool and the tests always
agree on what was checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, ConjugacyClass, conjugacy_classes
from .representations import CharacterTable, Irrep, character_table, irreps
from .class_operators import (
    CheckReport,
    centralizer_invariance_check,
    class_operator_from_classfunction,
    class_sum_element,
    covariance_deviation,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)
from .coupling import (
    adapt_irreps_to_class,
    conjugation_decomposition,
    tensor_operator_scan,
    wigner_eckart_bruteforce,
    wigner_eckart_matrix,
)
from .su2 import SphereQuadrature, class_operator_quadrature, closed_form_eigenvalue

__all__ = [
    "DEFAULT_TOLERANCES",
    "finite_class_suite",
    "su2_convergence_rows",
    "WignerEckartRow",
    "ReducedElementRow",
    "wigner_eckart_report",
    "su2_wigner_eckart_report",
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
    the character expansion of the class sum.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
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

    class_index = {c.base_element: i for i, c in enumerate(table.classes)}
    for cls in classes:
        g0 = cls.base_element
        # spectral form == conjugation average with weight 1
        average = weighted_class_operator(group, None, g0, np.ones(n)).matrix
        spectral = spectral_class_operator(group, cls, table)
        record("spectral_form", cls, np.max(np.abs(average - spectral)))
        # coset factorization + covariance + centralizer invariance
        dev_fact = dev_cov = 0.0
        for _ in range(n_random):
            f = _random_weight(rng, n)
            op = weighted_class_operator(group, None, g0, f)
            through = class_operator_from_classfunction(group, None, cls, transfer(group, cls, f))
            dev_fact = max(dev_fact, float(np.max(np.abs(op.matrix - through.matrix))))
            _, dev = covariance_deviation(group, None, op, int(rng.integers(n)))
            dev_cov = max(dev_cov, dev)
        centralizer = centralizer_invariance_check(
            group, None, g0, _random_weight(rng, n), tol=tol["centralizer_invariance"]
        )
        record("coset_factorization", cls, dev_fact)
        record("conjugation_covariance", cls, dev_cov)
        reports.append(centralizer)
        # class-sum expansion in irreducible characters
        ci = class_index[g0]
        expansion = np.zeros(n, dtype=complex)
        for alpha in range(len(table.dims)):
            expansion += table.values[alpha, ci].conjugate() * table.element_values(group, alpha)
        expansion /= n
        record("class_sum_expansion", cls, np.max(np.abs(class_sum_element(group, cls) - expansion)))
    return reports


def su2_convergence_rows(
    j2_values=range(1, 13),
    psi_values=(np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, np.pi, 3 * np.pi / 2),
    theta_orders=(4, 8, 16, 32, 64),
    phi_factor: int = 2,
) -> list[tuple]:
    """Convergence table rows (j2, psi, n_theta, n_phi, max_abs_error, closed_form_value)."""
    rows = []
    quads = {n: SphereQuadrature.build(n, phi_factor * n) for n in theta_orders}
    for j2 in j2_values:
        for psi in psi_values:
            target = closed_form_eigenvalue(j2, psi)
            for n_theta in theta_orders:
                op = class_operator_quadrature(j2, psi, quads[n_theta])
                err = float(np.max(np.abs(op - target * np.eye(j2 + 1))))
                rows.append((int(j2), float(psi), n_theta, phi_factor * n_theta, err, target))
    return rows


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
    seed: int = 42,
    tolerances: dict | None = None,
    table: CharacterTable | None = None,
    irreps_list: list[Irrep] | None = None,
):
    """Compare the Wigner-Eckart prediction with brute-force inner products.

    Returns (rows, reduced_rows, skipped, max_off_pattern): one row per
    (alpha, k, l, sigma), the reduced-matrix-element table, notes for alpha
    without Z0-fixed columns, and the largest off-pattern magnitude seen.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    if table is None:
        table = character_table(group, seed=seed)
    if irreps_list is None:
        irreps_list = irreps(group, table, seed=seed)
    g0 = cls.base_element
    g0_label = group.labels[g0]
    adapted, m_alphas = adapt_irreps_to_class(irreps_list, cls)
    tables = {s: conjugation_decomposition(group, adapted, table, s) for s in range(len(adapted))}
    rows: list[WignerEckartRow] = []
    reduced_rows: list[ReducedElementRow] = []
    skipped = []
    max_off = 0.0
    for alpha in range(len(adapted)):
        if m_alphas[alpha] == 0:
            skipped.append(
                {
                    "alpha": alpha,
                    "reason": "no Z0-fixed columns; operator family necessarily zero",
                }
            )
            continue
        for k in range(adapted[alpha].dim):
            for l in range(m_alphas[alpha]):
                brute = wigner_eckart_bruteforce(group, adapted, alpha, k, l, g0)
                for sigma in range(len(adapted)):
                    pred, rmes = wigner_eckart_matrix(
                        tables[sigma],
                        alpha,
                        adapted[alpha].dim,
                        range(m_alphas[alpha]),
                        k,
                        l,
                        adapted[sigma].matrices[g0],
                        g0=g0,
                    )
                    d = adapted[sigma].dim
                    expect = np.einsum("jv,ui->ijuv", np.eye(d), pred)
                    dev = float(np.max(np.abs(brute[(sigma, sigma)] - expect)))
                    off = brute[(sigma, sigma)] * (1.0 - np.eye(d))[None, :, None, :]
                    max_off = max(max_off, float(np.max(np.abs(off))))
                    for gamma in range(len(adapted)):
                        if gamma != sigma:
                            max_off = max(max_off, float(np.max(np.abs(brute[(sigma, gamma)]))))
                    rows.append(
                        WignerEckartRow(
                            group=group.name,
                            sigma=sigma,
                            alpha=alpha,
                            k=k,
                            l=l,
                            g0=g0_label,
                            max_dev=dev,
                            passed=bool(dev <= tol["wigner_eckart_match"]),
                        )
                    )
                    if k == 0:
                        reduced_rows.extend(
                            ReducedElementRow(
                                group=group.name,
                                sigma=sigma,
                                alpha=alpha,
                                l=l,
                                m=r.m,
                                g0=g0_label,
                                value=r.value,
                            )
                            for r in rmes
                        )
    return rows, reduced_rows, skipped, max_off


def su2_wigner_eckart_report(
    max_spin_x2: int = 4,
    psi: float = np.pi / 2,
    quad: SphereQuadrature | None = None,
    tolerances: dict | None = None,
):
    """Blockwise SU(2) comparison: sphere quadrature vs coupling prediction.

    The weights run over every component of L(V^sigma), up to doubled spin
    2 * max_spin_x2, which must not exceed MAX_J2.
    """
    from .coupling import su2_coupling_table
    from .su2 import MAX_J2, WignerD, fixed_column_index, weighted_class_operator_su2

    if 2 * max_spin_x2 > MAX_J2:
        raise ValueError(
            f"max_spin_x2={max_spin_x2} needs weights of doubled spin {2 * max_spin_x2}, "
            f"above MAX_J2={MAX_J2}"
        )
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    if quad is None:
        quad = SphereQuadrature.build(24, 48)
    rows: list[WignerEckartRow] = []
    reduced_rows: list[ReducedElementRow] = []
    g0_label = f"g(psi={psi:.6g})"
    for sigma2 in range(1, max_spin_x2 + 1):
        tab = su2_coupling_table(sigma2)
        t_sigma_g0 = WignerD(sigma2).euler(0.0, 0.0, psi)
        for alpha2 in tab.gammas:
            col = fixed_column_index(alpha2)
            for k in range(alpha2 + 1):
                pred, rmes = wigner_eckart_matrix(
                    tab, alpha2, alpha2 + 1, [col], k, col, t_sigma_g0
                )
                quadr = weighted_class_operator_su2(sigma2, psi, [(alpha2, k, 1.0)], quad)
                dev = float(np.max(np.abs(pred - quadr)))
                rows.append(
                    WignerEckartRow(
                        group="SU2",
                        sigma=sigma2,
                        alpha=alpha2,
                        k=k,
                        l=col,
                        g0=g0_label,
                        max_dev=dev,
                        passed=bool(dev <= tol["wigner_eckart_match"]),
                    )
                )
                if k == 0:
                    reduced_rows.extend(
                        ReducedElementRow(
                            group="SU2",
                            sigma=sigma2,
                            alpha=alpha2,
                            l=col,
                            m=r.m,
                            g0=g0_label,
                            value=r.value,
                        )
                        for r in rmes
                    )
    return rows, reduced_rows


def scan_rows(
    group: FiniteGroup,
    cls: ConjugacyClass,
    irreps_list: list[Irrep],
    tolerances: dict | None = None,
):
    """Tensor-operator vanishing scan in the regular representation."""
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    adapted, m_alphas = adapt_irreps_to_class(irreps_list, cls)
    families = tensor_operator_scan(
        group, None, cls.base_element, adapted, m_alphas, tol=tol["scan_vanishing"]
    )
    skipped = [
        {"alpha": ai, "reason": "no Z0-fixed columns; operator family necessarily zero"}
        for ai, m in enumerate(m_alphas)
        if m == 0
    ]
    return families, skipped
