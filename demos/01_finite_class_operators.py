"""Class operators on a finite group, from three directions that must agree.

Builds S3, forms the operator that multiplies the group algebra by the
normalized sum over the transposition class, and shows that
(1) averaging conjugates x g0 x^-1 over the group,
(2) integrating a class function over the conjugacy class,
(3) the spectral sum of character values over isotypic projectors
give the same operator, with the eigenvalues chi(C0)/n predicted per block.
Each route returns the operator as its group-algebra element a;
left_regular_matrix(group, a) is its matrix on the group algebra.
Then a random weight demonstrates the factorization through G/Z0.
"""

import numpy as np

from classops import (
    build_group,
    character_table,
    class_operator_from_classfunction,
    conjugacy_classes,
    left_regular_matrix,
    spectral_class_operator,
    transfer,
    weighted_class_operator,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

group = build_group("S3")
classes = conjugacy_classes(group)
table = character_table(group)

print(f"group {group.name}, order {group.order}")
print("elements:", ", ".join(group.labels))
for cls in classes:
    members = ", ".join(group.labels[m] for m in cls.members)
    print(f"class of {group.labels[cls.base_element]}: {{{members}}}, |Z0| = {len(cls.centralizer)}")

cls = classes[1]  # transpositions
print(f"\n-- class operator for the class of {group.labels[cls.base_element]} --")

# each operator is a group-algebra element (a coefficient vector of length |G|)
brute = weighted_class_operator(group, cls.base_element, np.ones(group.order))
via_class_fn = class_operator_from_classfunction(group, cls, np.ones(cls.size))
spectral = spectral_class_operator(group, cls, table)

print("brute-force conjugation average, as an element:", brute.real)
print("max |brute - class-function route|:", np.max(np.abs(brute - via_class_fn)))
print("max |brute - spectral form|      :", np.max(np.abs(brute - spectral)))

print("\npredicted eigenvalues chi(C0)/n per irrep:",
      np.round(table.values[:, 1] / table.dims, 6).real)
matrix = left_regular_matrix(group, brute)
print("its matrix on the group algebra:\n", matrix.real)
print("actual spectrum:", np.round(np.sort(np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)), 6))

print("\n-- factorization of a random weight through G/Z0 --")
rng = np.random.default_rng(0)
f = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
smeared = transfer(group, cls, f)
print("weight on G:", np.round(f, 3))
print("its average over right Z0-cosets (a function on the class):", np.round(smeared, 3))
direct = weighted_class_operator(group, cls.base_element, f)
through = class_operator_from_classfunction(group, cls, smeared)
print("max |T(f; g0) - T~(transfer f; g0)|:", np.max(np.abs(direct - through)))
