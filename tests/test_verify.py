"""Resource footprint of the verification drivers and identity checks."""

import tracemalloc

from classops.coupling import su2_coupling_table, triple_product_residual_su2
from classops.groups import build_group, conjugacy_classes
from classops.su2 import su2_haar_quadrature
from classops.verify import finite_class_suite


def test_finite_suite_never_allocates_a_dense_regular_stack():
    # A dense (|G|, |G|, |G|) complex stack of left-translation matrices for S5
    # takes 120**3 * 16 B = 27.6 MB.  The suite works on (|G|, |G|) matrices
    # only: this call peaked at 2.0 MB traced (CPython 3.11, numpy 2.4).  8 MB
    # leaves room for library changes and stays far below one dense stack.
    group = build_group("S5")
    cls = conjugacy_classes(group)[1]
    tracemalloc.start()
    try:
        reports = finite_class_suite(group, [cls], n_random=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reports and all(r.passed for r in reports)
    assert peak < 8_000_000, f"peak traced allocation {peak} B"


def test_su2_triple_product_accumulates_in_chunks():
    # sigma2 = 3, alpha2 = 6 on the 19 x 10 x 38 Haar grid: the node-wise outer
    # product conj(t_alpha) (x) conj(t_sigma) has 7220 x 784 complex entries,
    # 90.6 MB at once.  Accumulated over chunks of nodes the call peaked at
    # 12.3 MB traced (CPython 3.11, numpy 2.4), mostly the two D stacks.
    table = su2_coupling_table(3)
    angles, weights = su2_haar_quadrature(19, 10, 38)
    assert len(angles) == 7220
    tracemalloc.start()
    try:
        residual = triple_product_residual_su2(table, 6, angles, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual < 1e-9
    assert peak < 32_000_000, f"peak traced allocation {peak} B"
