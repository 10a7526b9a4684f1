"""Resource footprint of the verification drivers, identity checks and table builders."""

import tracemalloc

import numpy as np
import pytest

import classops
from classops.coupling import su2_coupling_table, triple_product_residual_su2
from classops.groups import build_group, conjugacy_classes
from classops.representations import CharacterTable, character_table, irreps
from classops.su2 import su2_haar_quadrature
from classops.verify import finite_class_suite, scan_rows, wigner_eckart_report


def test_finite_suite_never_allocates_a_dense_regular_stack():
    # A dense (|G|, |G|, |G|) complex stack of left-translation matrices for S5
    # takes 120**3 * 16 B = 27.6 MB.  The suite works on length-|G| vectors:
    # this call peaked at 0.07 MB traced (CPython 3.11, numpy 2.4), and at
    # 2.0 MB with (|G|, |G|) matrices.  8 MB leaves room for library changes
    # and stays far below one dense stack.
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


def test_su2_triple_product_sums_phase_moments_per_theta():
    # sigma2 = 3, alpha2 = 6 on the 19 x 10 x 38 Haar grid: the node-wise outer
    # product conj(t_alpha) (x) conj(t_sigma) has 7220 x 784 complex entries,
    # 90.6 MB at once, and its chunked accumulation over the two D stacks
    # peaked at 12.3 MB traced.  Summed per distinct theta from phase moments
    # the call peaked at 4.1 MB (CPython 3.11, numpy 2.4): the two
    # (nodes, phase orders) tables and the (112, 112) sums.
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
    assert peak < 6_000_000, f"peak traced allocation {peak} B"


def test_character_table_never_builds_the_class_constant_tensor():
    # C200 has k = 200 classes: a dense (k, k, k) float tensor of class
    # constants takes 200**3 * 8 B = 64 MB, and its gauged copy as much again.
    # Class sums counted from the (|G|, k) table of x^-1 z_k classes peaked at
    # 8.9 MB traced (CPython 3.11, numpy 2.4); 4.4 MB of it are the Python
    # sort keys of the canonical row order.
    group = build_group("C200")
    conjugacy_classes(group)
    tracemalloc.start()
    try:
        table = character_table(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.dims.tolist() == [1] * 200
    assert peak < 32_000_000, f"peak traced allocation {peak} B"


@pytest.mark.parametrize("spec", ["S4", "D10"])
def test_finite_checks_never_build_a_left_regular_matrix(spec, monkeypatch):
    # Catalog irreps never reach the generic extraction, the one remaining
    # user of the dense |G| x |G| operator, so every finite check must run on
    # group-algebra elements alone.
    def refuse(group, phi):
        raise AssertionError("dense left regular matrix requested")

    for module in (classops, classops.groups, classops.representations):
        monkeypatch.setattr(module, "left_regular_matrix", refuse)
    group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    assert all(r.passed for r in finite_class_suite(group, n_random=2, table=table))
    for cls in conjugacy_classes(group):
        families, _ = scan_rows(group, cls, reps)
        assert families and not any(f.vanishes for f in families)
        rows, _, _, _ = wigner_eckart_report(group, cls, table=table, irreps_list=reps)
        assert rows and all(r.passed for r in rows)


def test_finite_suite_at_order_1000_stays_below_one_dense_matrix():
    # One (|G|, |G|) complex matrix of C1000 takes 16 MB.  The suite on one
    # class with a given table peaked at 0.34 MB traced (CPython 3.11,
    # numpy 2.4); carrying regular operators as dense matrices it peaked at
    # 136 MB.  The table is the closed form chi_j(r^e) = exp(2 pi i j e / n),
    # which the suite's own spectral and class-sum checks then verify.
    n = 1000
    group = build_group(f"C{n}")
    classes = conjugacy_classes(group)
    exponents = np.array([perm[0] for perm in group.perms])
    values = np.exp(2j * np.pi * np.outer(np.arange(n), exponents) / n)
    table = CharacterTable(classes=classes, values=values, dims=np.ones(n, dtype=int), class_of=np.arange(n))
    tracemalloc.start()
    try:
        reports = finite_class_suite(group, [classes[7]], n_random=1, table=table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 5 and all(r.passed for r in reports)
    assert peak < 4_000_000, f"peak traced allocation {peak} B"
