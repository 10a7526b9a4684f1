"""Resource footprint of the verification drivers."""

import tracemalloc

from classops.groups import build_group, conjugacy_classes
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
