"""Weighted conjugacy-class operators for finite groups and SU(2).

The package computes intertwining maps from weight functions on a conjugacy
class into operator algebras, exactly up to floating tolerance for finite
groups and by spectral quadrature for SU(2), and numerically verifies the
spectral form of the class operator and the Wigner-Eckart factorization of
weighted class operators with explicit reduced matrix elements.
"""

from .groups import (
    ConjugacyClass,
    FiniteGroup,
    GroupConstructionError,
    build_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    group_from_generators,
    group_from_table,
    left_regular_matrix,
    quaternion_group,
    symmetric_group,
)
from .representations import (
    CharacterTable,
    Irrep,
    character_table,
    irreps,
    isotypic_projector,
)
from .class_operators import (
    centralizer_invariance_deviation,
    class_operator_from_classfunction,
    covariance_deviation,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)
from .su2 import (
    SphereQuadrature,
    WignerD,
    class_operator_quadrature,
    closed_form_eigenvalue,
    haar_random,
    su2_haar_quadrature,
    weighted_class_operator_rows_su2,
)
from .coupling import (
    CouplingTable,
    FrobeniusRow,
    TensorOperatorFamily,
    ZFixedBasis,
    adapt_irreps_to_class,
    clebsch_gordan,
    conjugation_decomposition,
    frobenius_multiplicity_check,
    product_expansion_residual_su2,
    rotate_coupling_table,
    su2_coupling_table,
    tensor_operator_scan,
    triple_product_residual_su2,
    wigner_eckart_bruteforce,
    wigner_eckart_matrix,
    z_fixed_bases,
)
from .verify import CheckReport

__version__ = "0.1.0"
