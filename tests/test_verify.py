"""Resource footprint of the verification drivers, identity checks and table
builders, and the batched drivers against their per-weight oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import classops
from classops import verify
from classops.coupling import (
    adapt_irreps_to_class,
    conjugation_decomposition,
    rotate_coupling_table,
    su2_coupling_table,
    triple_product_residual_su2,
    z_fixed_bases,
)
from classops.groups import build_group, conjugacy_classes
from classops.representations import CharacterTable, character_table, irreps
from classops.serialize import load_group_file
from classops.su2 import su2_haar_quadrature
from classops.verify import DEFAULT_TOLERANCES, finite_class_suite, scan_rows, wigner_eckart_report
from helpers import oracle_finite_class_suite, oracle_wigner_eckart_bruteforce, oracle_wigner_eckart_rows


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
    # No library route builds the dense |G| x |G| operator (representations
    # does not even import it), so every finite check must run on
    # group-algebra elements alone.
    def refuse(group, phi):
        raise AssertionError("dense left regular matrix requested")

    assert not hasattr(classops.representations, "left_regular_matrix")
    for module in (classops, classops.groups):
        monkeypatch.setattr(module, "left_regular_matrix", refuse)
    group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    assert all(r.passed for r in finite_class_suite(group, n_random=2, table=table))
    coupling = conjugation_decomposition(group, reps, table)
    for cls in conjugacy_classes(group):
        families, _ = scan_rows(group, cls, table, reps)
        assert families and not any(f.vanishes for f in families)
        rows, _, _, _ = wigner_eckart_report(group, cls, table, reps, coupling)
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
    exponents = np.arange(n)  # the closure lists r^e at index e
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


def _group(spec, tmp_path):
    if spec != "file:A5":
        return build_group(spec)
    path = tmp_path / "a5.json"
    path.write_text('{"generators": ["(1 2 3)", "(1 2 3 4 5)"], "name": "A5"}')
    return load_group_file(str(path))


@pytest.mark.parametrize("spec", ["Q8", "S4", "D6", "C12", "file:A5"])
def test_finite_suite_matches_per_weight_oracle(spec, tmp_path):
    group = _group(spec, tmp_path)
    table = character_table(group)
    got = finite_class_suite(group, seed=11, table=table)
    want = oracle_finite_class_suite(group, table, seed=11)
    assert [(r.check, r.cls, r.tolerance, r.passed) for r in got] == [
        (r.check, r.cls, r.tolerance, r.passed) for r in want
    ]
    assert all(r.passed for r in got)
    assert max(abs(a.max_deviation - b.max_deviation) for a, b in zip(got, want)) <= 1e-15


def _class_setup(group, cls, table, reps):
    """The report's own route to the adapted irreps and rotated coupling tables."""
    coupling = conjugation_decomposition(group, reps, table)
    bases = z_fixed_bases(reps, table, cls.centralizer)
    adapted, m_alphas = adapt_irreps_to_class(reps, bases)
    return coupling, adapted, m_alphas, rotate_coupling_table(coupling, [zb.basis for zb in bases])


@pytest.mark.parametrize("spec", ["S4", "D6", "Q8", "file:A5"])
def test_wigner_eckart_report_matches_per_weight_oracle(spec, tmp_path):
    group = _group(spec, tmp_path)
    table = character_table(group)
    reps = irreps(group, table)
    for cls in conjugacy_classes(group):
        coupling, adapted, m_alphas, tables = _class_setup(group, cls, table, reps)
        rows, reduced, _, max_off = wigner_eckart_report(group, cls, table, reps, coupling)
        want, want_reduced, want_off = oracle_wigner_eckart_rows(group, adapted, m_alphas, tables, cls.base_element)
        assert reduced == want_reduced   # every (alpha, l, sigma, m), in report order, bit for bit
        assert [(r.sigma, r.alpha, r.k, r.l, r.passed) for r in rows] == [
            (r.sigma, r.alpha, r.k, r.l, r.passed) for r in want
        ]
        assert max(abs(a.max_dev - b.max_dev) for a, b in zip(rows, want)) <= 1e-13
        assert abs(max_off - want_off) <= 1e-13


def _s4_transpositions():
    group = build_group("S4")
    table = character_table(group)
    reps = irreps(group, table)
    cls = conjugacy_classes(group)[1]
    return group, table, reps, cls, _class_setup(group, cls, table, reps)


def test_wigner_eckart_report_fails_on_a_corrupted_irrep_as_the_oracle_does(monkeypatch):
    group, table, reps, cls, (coupling, adapted, m_alphas, tables) = _s4_transpositions()
    alpha = next(a for a, rep in enumerate(adapted) if rep.dim == 2)
    corrupted = [replace(rep, matrices=rep.matrices.copy()) for rep in adapted]
    moved = next(g for g in range(group.order) if g not in (0, cls.base_element))
    corrupted[alpha].matrices[moved] *= -1.0   # no longer a homomorphism
    monkeypatch.setattr(verify, "adapt_irreps_to_class", lambda *args: (corrupted, m_alphas))
    rows, _, _, max_off = wigner_eckart_report(group, cls, table, reps, coupling)
    want, _, want_off = oracle_wigner_eckart_rows(group, corrupted, m_alphas, tables, cls.base_element)
    assert not all(r.passed for r in rows)
    assert [r.passed for r in rows] == [r.passed for r in want]
    sparsity = DEFAULT_TOLERANCES["wigner_eckart_sparsity"]
    assert (max_off > sparsity) == (want_off > sparsity)


def test_wigner_eckart_report_fails_on_an_off_pattern_block(monkeypatch):
    # one inner product of (sigma, gamma = trivial) with sigma != gamma lifted above the sparsity bound
    group, table, reps, cls, (coupling, adapted, m_alphas, tables) = _s4_transpositions()
    sigma, lift = len(reps) - 1, 10 * DEFAULT_TOLERANCES["wigner_eckart_sparsity"]
    first_row = sum(rep.dim**2 for rep in reps[:sigma])
    batched = verify.wigner_eckart_bruteforce

    def lifted_batched(*args):
        for gamma, columns, block in batched(*args):
            if gamma == 0:
                block = block.copy()
                block[0, first_row, 0] += lift
            yield gamma, columns, block

    def lifted_oracle(*args):
        out = oracle_wigner_eckart_bruteforce(*args)
        if args[2:5] == (0, 0, 0):   # the first weight
            out[(sigma, 0)] = out[(sigma, 0)].copy()
            out[(sigma, 0)][0, 0, 0, 0] += lift
        return out

    monkeypatch.setattr(verify, "wigner_eckart_bruteforce", lifted_batched)
    rows, _, _, max_off = wigner_eckart_report(group, cls, table, reps, coupling)
    want, _, want_off = oracle_wigner_eckart_rows(group, adapted, m_alphas, tables, cls.base_element, lifted_oracle)
    assert all(r.passed for r in rows) and all(r.passed for r in want)
    assert max_off > DEFAULT_TOLERANCES["wigner_eckart_sparsity"]
    assert want_off > DEFAULT_TOLERANCES["wigner_eckart_sparsity"]


def test_wigner_eckart_report_fails_on_conjugated_coupling_tables():
    # C7 x| C3 has complex 3-dim irreps, so conj(basis) is a wrong table.  Only
    # the identity's class passes with it: there only the trivial irrep has
    # Z0-fixed vectors, and its coupling copy, the identity over sqrt(d), is real.
    group = build_group({"generators": ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]})
    table = character_table(group)
    reps = irreps(group, table)
    coupling = conjugation_decomposition(group, reps, table)
    conjugated = [replace(tab, basis={g: e.conj() for g, e in tab.basis.items()}) for tab in coupling]
    classes = conjugacy_classes(group)
    assert group.order == 21 and len(classes) == 5
    for cls in classes:
        rows, _, _, max_off = wigner_eckart_report(group, cls, table, reps, coupling)
        assert verify.wigner_eckart_passed(rows, max_off)
        rows, _, _, max_off = wigner_eckart_report(group, cls, table, reps, conjugated)
        identity = cls.base_element == 0
        assert verify.wigner_eckart_passed(rows, max_off) == identity
        assert identity or max(r.max_dev for r in rows) > 0.1


def test_wigner_eckart_report_reduces_one_column_chunks_like_whole_blocks(monkeypatch):
    # S4 fits each gamma in one chunk; in chunks of one column every deviation
    # and the off-pattern maximum must still gather over all chunks.  A
    # corrupted irrep makes the deviations large and different per column.
    group, table, reps, cls, (coupling, adapted, m_alphas, tables) = _s4_transpositions()
    corrupted = [replace(rep, matrices=rep.matrices.copy()) for rep in adapted]
    corrupted[-1].matrices[5] *= -1.0
    monkeypatch.setattr(verify, "adapt_irreps_to_class", lambda *args: (corrupted, m_alphas))
    whole = wigner_eckart_report(group, cls, table, reps, coupling)
    monkeypatch.setattr("classops.groups._CHUNK_ENTRIES", 1)
    chunked = wigner_eckart_report(group, cls, table, reps, coupling)
    assert not all(r.passed for r in whole[0])
    assert [(r.sigma, r.alpha, r.k, r.l, r.passed) for r in chunked[0]] == [
        (r.sigma, r.alpha, r.k, r.l, r.passed) for r in whole[0]
    ]
    assert max(abs(a.max_dev - b.max_dev) for a, b in zip(chunked[0], whole[0])) <= 1e-13
    assert whole[3] > 0.1 and abs(chunked[3] - whole[3]) <= 1e-13


# ---------------------------------------------------------------------------
# no verdict on zero rows
# ---------------------------------------------------------------------------


def test_finite_verdict_refuses_no_checks():
    with pytest.raises(ValueError, match="no rows in section 'checks'"):
        verify.finite_checks_passed([])
    check = verify.CheckReport("spectral_form", "S3", "e", 0.0, 1e-10, True)
    assert verify.finite_checks_passed([check]) and not verify.finite_checks_passed([replace(check, passed=False)])


def test_su2_convergence_verdict_refuses_no_rows():
    # an empty list used to fail inside max() with "max() arg is an empty sequence"
    with pytest.raises(ValueError, match="no rows in section 'convergence'"):
        verify.su2_convergence_passed([])
    assert verify.su2_convergence_passed(verify.su2_convergence_rows([1], [0.7], [(32, 64)]))


def test_wigner_eckart_verdict_refuses_no_rows():
    with pytest.raises(ValueError, match="no rows in section 'comparisons'"):
        verify.wigner_eckart_passed([], 0.0)
    row = verify.WignerEckartRow("S3", 0, 0, 0, 0, "e", 0.0, True)
    assert verify.wigner_eckart_passed([row], 0.0) and not verify.wigner_eckart_passed([row], 1.0)


def test_scan_verdict_refuses_no_families():
    with pytest.raises(ValueError, match="no rows in section 'families'"):
        verify.scan_passed([])
    group = build_group("S3")
    table = character_table(group)
    families, _ = scan_rows(group, conjugacy_classes(group)[1], table, irreps(group, table))
    assert verify.scan_passed(families)
