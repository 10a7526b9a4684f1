"""Which weighted-class-operator families vanish, representation by representation.

Every irrep alpha with a Z0-fixed vector yields a family of weighted class
operators transforming like alpha under conjugation.  Whether a family is
identically zero depends on the target representation; there is no known
general criterion, so this scans concrete cases: in the regular
representation nothing vanishes, while small irreps kill the families that
cannot fit inside their operator space.
"""

import numpy as np

from classops import (
    adapt_irreps_to_class,
    build_group,
    character_table,
    conjugacy_classes,
    frobenius_multiplicity_check,
    irreps,
    tensor_operator_scan,
)

group = build_group("S4")
table = character_table(group)
reps = irreps(group, table)
cls = conjugacy_classes(group)[1]
print(f"group S4, class of {group.labels[cls.base_element]}")

print("\nFrobenius reciprocity (fixed-vector dim == induced multiplicity):")
for row in frobenius_multiplicity_check(group, cls, reps, table):
    mark = "==" if row.equal else "!="
    print(
        f"  irrep {row.alpha} (dim {reps[row.alpha].dim}): "
        f"{row.fixed_dim} {mark} {row.induced_multiplicity}"
    )

adapted, m_alphas = adapt_irreps_to_class(reps, cls)
# None scans the group-algebra elements themselves, i.e. the regular representation
print("\nscan in the regular representation:")
for fam in tensor_operator_scan(group, None, cls.base_element, adapted, m_alphas):
    status = "vanishes" if fam.vanishes else f"max norm {fam.max_norm:.4f}"
    print(f"  family (alpha={fam.alpha}, column={fam.column}): {status}")

print("\nscan in the 2-dimensional irrep (operator space is only 4-dimensional):")
two_dim = adapted[2].matrices  # the per-element stack (|G|, 2, 2) each element is mapped through
for fam in tensor_operator_scan(group, two_dim, cls.base_element, adapted, m_alphas):
    status = "vanishes" if fam.vanishes else f"max norm {fam.max_norm:.4f}"
    print(f"  family (alpha={fam.alpha}, column={fam.column}): {status}")
