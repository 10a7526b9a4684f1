"""Wigner-Eckart factorization of weighted class operators, finite and SU(2).

For a weight taken from an irreducible family of functions on the conjugacy
class, the matrix coefficients of the weighted class operator factor into a
coupling coefficient times a reduced matrix element.  Both sides are computed
independently: a brute-force operator on the group algebra (finite case) or a
sphere quadrature (SU(2)), against the coupling-table prediction.  The
finite coupling tables of every sigma are decomposed in one call and rotated
into the class's Z0-fixed bases in another, as the wigner-eckart command
does for every class.
"""

import numpy as np

from classops import (
    adapt_irreps_to_class,
    build_group,
    character_table,
    conjugacy_classes,
    conjugation_decomposition,
    irreps,
    rotate_coupling_table,
    su2_coupling_table,
    wigner_eckart_bruteforce,
    wigner_eckart_matrix,
    z_fixed_bases,
)
from classops.su2 import SphereQuadrature, WignerD, fixed_column_index, weighted_class_operator_rows_su2

# -- finite case: S3, transposition class ------------------------------------
group = build_group("S3")
table = character_table(group)
reps = irreps(group, table)
cls = conjugacy_classes(group)[1]
g0 = cls.base_element
bases = z_fixed_bases(reps, table, cls.centralizer)  # one pass per irrep dimension
adapted, m_alphas = adapt_irreps_to_class(reps, bases)
print(f"S3, class of {group.labels[g0]}; fixed-subspace dims per irrep: {m_alphas}")

alpha, sigma = 2, 2  # standard weight family, standard block
tables = rotate_coupling_table(conjugation_decomposition(group, reps, table), [zb.basis for zb in bases])
tab = tables[sigma]
# the brute force takes every weight (alpha, k, l) at once and streams the inner
# products by columns (gamma, u, v); keep the rows and columns of (sigma, sigma)
weights = [(alpha, k, 0) for k in range(adapted[alpha].dim)]
d = adapted[sigma].dim
first_row = sum(rep.dim**2 for rep in adapted[:sigma])
brute = np.zeros((len(weights), d * d, d * d), dtype=complex)
for gamma, columns, block in wigner_eckart_bruteforce(group, adapted, g0, weights):
    if gamma == sigma:
        brute[:, :, columns] = block[:, first_row:first_row + d * d]
brute = brute.reshape(-1, d, d, d, d)  # [weight, i, j, u, v]
# one kernel call predicts every weight (k, l) of the pair (alpha, sigma):
# pred[k, l, u, i] and the reduced matrix elements reduced[l, m]
pred, reduced = wigner_eckart_matrix(tab, alpha, adapted[alpha].dim, [0], adapted[sigma].matrices[g0])
print(f"  reduced matrix element of column 0: {reduced[0, 0]:+.6f}")
for k in range(adapted[alpha].dim):
    dev = max(np.max(np.abs(brute[k][:, j, :, j] - pred[k, 0].T)) for j in range(d))
    print(f"  weight conj(t^std_{{{k},0}}): prediction vs brute force: {dev:.2e}")

# -- SU(2): spin-1/2 block, spin-1 weight -------------------------------------
print("\nSU(2), sigma = 1/2, class angle psi = pi/2, weight spin l = 1")
sigma2, alpha2, psi = 1, 2, np.pi / 2
quad = SphereQuadrature.build(24, 48)
su2_tab = su2_coupling_table(sigma2)
col = fixed_column_index(alpha2)
t_g0 = WignerD(sigma2).euler(0.0, 0.0, psi)
pred, reduced = wigner_eckart_matrix(su2_tab, alpha2, alpha2 + 1, [col], t_g0)
print(f"  reduced matrix element of the m = 0 column: {reduced[0, 0]:+.6f}")
# one weighted class operator per row k of the spin-l weights, from one little-d column
(_, quadrature_rows), = weighted_class_operator_rows_su2(sigma2, psi, [alpha2], quad)
for k, quadr in enumerate(quadrature_rows):
    print(f"  weight conj(D^1_{{{k},0}}): prediction vs quadrature: {np.max(np.abs(pred[k, 0] - quadr)):.2e}")
