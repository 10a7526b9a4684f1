"""Group construction, conjugacy structure, and group-algebra operations."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from classops import cli, groups
from classops.groups import (
    FiniteGroup,
    GroupConstructionError,
    build_group,
    conjugacy_classes,
    cycle_notation,
    group_from_table,
    left_regular_matrix,
    parse_cycles,
)
from classops.serialize import load_group_file
from helpers import (
    CATALOG_LEQ_24,
    binary_icosahedral_group,
    group_conjugate,
    group_inv,
    group_mul,
    oracle_classes,
    oracle_conjugacy_classes,
    oracle_coset_reps,
    oracle_mult_table,
    regular_actions,
)


@pytest.mark.parametrize("spec,order", [
    ("C1", 1), ("C2", 2), ("C6", 6), ("S3", 6), ("D4", 8), ("Q8", 8), ("S4", 24), ("S5", 120),
])
def test_catalog_orders(spec, order):
    group = build_group(spec)
    assert group.order == order
    group.validate()  # exhaustive <= 60, sampled above


def test_trivial_group():
    group = build_group("C1")
    assert group.order == 1
    classes = conjugacy_classes(group)
    assert len(classes) == 1
    assert classes[0].members == (0,)
    assert classes[0].centralizer == (0,)


@pytest.mark.parametrize("spec,n_classes", [("S3", 3), ("Q8", 5), ("S4", 5), ("D4", 5), ("C4", 4)])
def test_class_counts_match_bruteforce(spec, n_classes):
    group = build_group(spec)
    classes = conjugacy_classes(group)
    brute = oracle_classes(group)
    assert len(classes) == n_classes
    assert len(brute) == n_classes
    assert [set(c.members) for c in classes] == brute


@pytest.mark.parametrize("spec", CATALOG_LEQ_24)
def test_class_structure(spec):
    group = build_group(spec)
    classes = conjugacy_classes(group)
    seen = set()
    for c in classes:
        assert c.base_element == min(c.members)
        assert not seen & set(c.members)
        seen |= set(c.members)
        assert len(c.members) * len(c.centralizer) == group.order
        # centralizer closed under product and inverse
        cent = set(c.centralizer)
        assert all(group_mul(group, a, b) in cent for a in cent for b in cent)
        assert all(group_inv(group, a) in cent for a in cent)
        # coset representatives hit each member
        for k, member in enumerate(c.members):
            assert group_conjugate(group, c.base_element, c.coset_reps[k]) == member
    assert seen == set(range(group.order))
    assert [c.base_element for c in classes] == sorted(c.base_element for c in classes)


def test_s3_class_sizes_and_centralizers():
    group = build_group("S3")
    classes = conjugacy_classes(group)
    assert [c.size for c in classes] == [1, 3, 2]
    assert [len(c.centralizer) for c in classes] == [6, 2, 3]


def test_abelian_classes_are_singletons():
    group = build_group("C4")
    for c in conjugacy_classes(group):
        assert c.size == 1
        assert c.centralizer == tuple(range(4))


def test_deterministic_element_order():
    a = build_group("S4")
    b = build_group("S4")
    assert a.labels == b.labels
    assert np.array_equal(a.mult_table, b.mult_table)


def test_cycle_notation_round_trip():
    for text in ["e", "(1 2)", "(1 2 3)(4 5)", "(2 4)"]:
        perm = parse_cycles(text)
        assert parse_cycles(cycle_notation(perm)) == perm
    assert parse_cycles("(1, 2, 3)") == parse_cycles("(1 2 3)")
    with pytest.raises(GroupConstructionError):
        parse_cycles("(1 2")
    with pytest.raises(GroupConstructionError):
        parse_cycles("(1 1)")


@pytest.mark.parametrize("text", ["(1 2_0)", "(1 \u0663)", "(a b)", "(1 +2)", "(1 2.0)"])
def test_cycle_points_must_be_ascii_decimal_numbers(text):
    # int() alone would read "2_0" as 20 and the Arabic-Indic digit three as 3
    with pytest.raises(GroupConstructionError, match="is not a decimal number"):
        parse_cycles(text)


def test_cycle_point_with_more_digits_than_int_parses_is_above_the_cap():
    with pytest.raises(GroupConstructionError, match="points must be <= 10080"):
        parse_cycles("(1 " + "9" * 5000 + ")")
    assert parse_cycles("(1 0002)") == parse_cycles("(1 2)")


def test_cycle_points_above_the_order_cap_are_refused_before_allocating():
    # the largest catalog cyclic group moves every point up to the cap
    assert len(parse_cycles(f"(1 {groups.DEFAULT_ORDER_CAP})")) == groups.DEFAULT_ORDER_CAP
    tracemalloc.start()
    try:
        with pytest.raises(GroupConstructionError, match="points must be <= 10080"):
            parse_cycles("(3 1000000)(1 2)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the image of a million points would be 8 MB of list alone


def test_ragged_table_is_refused_with_the_shape_message():
    with pytest.raises(GroupConstructionError, match="'table' must be a square array of integer element indices"):
        build_group({"table": [[0, 1], [1]]})


def test_build_group_descriptors():
    by_dict = build_group({"catalog": {"family": "symmetric", "n": 3}})
    assert by_dict.order == 6
    by_gens = build_group({"generators": ["(1 2)", "(1 2 3)"]})
    assert by_gens.order == 6
    table = build_group("C2").mult_table
    by_table = build_group({"table": table.tolist()})
    assert by_table.order == 2
    with pytest.raises(GroupConstructionError):
        build_group({"catalog": {"family": "monster", "n": 1}})
    with pytest.raises(GroupConstructionError):
        build_group("X9")
    with pytest.raises(GroupConstructionError):
        build_group({"table": [[0, 1], [1, 1]]})


@pytest.mark.parametrize("family,n", [
    ("cyclic", 1), ("cyclic", 6), ("dihedral", 1), ("dihedral", 2), ("dihedral", 5),
    ("symmetric", 1), ("symmetric", 4), ("quaternion", 8),
])
def test_every_catalog_spelling_builds_the_same_group(family, n):
    letter = family[0]
    spellings = [f"{letter.upper()}{n}", f"{letter}{n}", f" {letter.upper()}{n} ", f"{letter.upper()}0{n}"] + [
        {"catalog": {"family": name, "n": n}} for name in (family, family.upper(), family.capitalize())
    ]
    expected = getattr(groups, f"{family}_group")(n)
    for spec in spellings:
        group = build_group(spec)
        assert np.array_equal(group.mult_table, expected.mult_table), spec
        assert (group.name, group.labels, group.family) == (expected.name, expected.labels, expected.family), spec


@pytest.mark.parametrize("spec", ["Q5", "q4", {"catalog": {"family": "quaternion", "n": 5}}, {"catalog": {"family": "quaternion"}}])
def test_quaternion_catalog_holds_only_q8_in_both_forms(spec):
    with pytest.raises(GroupConstructionError, match="only Q8"):
        build_group(spec)
    assert groups.quaternion_group().order == 8


def test_non_associative_table_rejected():
    # latin square with identity that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 4, 3, 2, 0],
        [2, 3, 0, 4, 1],
        [3, 2, 4, 1, 0],
        [4, 0, 1, 0, 3],
    ]
    with pytest.raises(GroupConstructionError):
        group_from_table(table)


def test_order_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 100)
    with pytest.raises(GroupConstructionError, match="too large"):
        build_group({"generators": ["(1 2)", "(1 2 3 4 5 6 7)"]})


def _closure_must_not_run(*args, **kwargs):
    raise AssertionError("the closure ran for a catalog group above the order cap")


@pytest.mark.parametrize("spec,cap", [
    ("C10081", 10080), ("D5041", 10080), ("D100000", 10080),
    ({"catalog": {"family": "cyclic", "n": 20000}}, 10080),
    ("C11", 10), ("D1", 1), ("D2", 3), ("S5", 100), ("Q8", 7),
])
def test_oversized_catalog_group_refused_before_closure(spec, cap, monkeypatch):
    monkeypatch.setattr(groups, "_closure", _closure_must_not_run)
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", cap)
    with pytest.raises(GroupConstructionError, match="too large"):
        build_group(spec)


@pytest.mark.parametrize("spec,cap", [("C10", 10), ("D1", 2), ("D2", 4), ("D5", 10), ("S5", 120), ("Q8", 8)])
def test_catalog_group_at_the_order_cap_is_built(spec, cap, monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", cap)
    assert build_group(spec).order == cap


@pytest.mark.parametrize("spec", [
    "S4", "D30", "C150", ["(1 2 3)", "(1 2 3 4 5)"], ["(1 2)", "(1 2 3 4 5 6)"],
], ids=["S4", "D30", "C150", "A5-generators", "S6-generators"])
def test_closure_table_matches_composition_oracle(spec):
    group = build_group(spec)
    assert np.array_equal(group.mult_table, oracle_mult_table(group))


@pytest.mark.parametrize("spec", [
    "S5", "D30", "C150", ["(1 2 3)", "(1 2 3 4 5)"],
], ids=["S5", "D30", "C150", "A5-generators"])
def test_coset_reps_are_the_smallest_conjugators(spec):
    group = build_group(spec)
    for cls in conjugacy_classes(group):
        assert cls.coset_reps == oracle_coset_reps(group, cls.base_element)


def test_associativity_exhaustive_small():
    for spec in ["S3", "Q8", "D4"]:
        t = build_group(spec).mult_table
        n = t.shape[0]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert t[t[a, b], c] == t[a, t[b, c]]


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------


def product(group, phi, psi):
    """The group-algebra product phi psi = left_regular_matrix(phi) @ psi."""
    return left_regular_matrix(group, phi) @ psi


def test_convolution_identity():
    group = build_group("S3")
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    delta = np.zeros(6, dtype=complex)
    delta[0] = 1
    assert np.allclose(product(group, delta, psi), psi, atol=1e-14)


def test_convolution_of_deltas():
    group = build_group("S3")
    n = group.order
    for a in range(n):
        for b in range(n):
            da = np.zeros(n, complex); da[a] = 1
            db = np.zeros(n, complex); db[b] = 1
            expected = np.zeros(n, complex)
            expected[group_mul(group, a, b)] = 1
            assert np.allclose(product(group, da, db), expected)


def test_convolution_of_constants():
    group = build_group("D4")
    one = np.ones(group.order, dtype=complex)
    assert np.allclose(product(group, one, one), group.order * one)


@pytest.mark.parametrize("spec", ["S3", "Q8", "S4"])
def test_convolution_associative(spec):
    group = build_group(spec)
    rng = np.random.default_rng(1)
    n = group.order
    for _ in range(10):
        phi, psi, chi = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
        left = product(group, product(group, phi, psi), chi)
        right = product(group, phi, product(group, psi, chi))
        assert np.max(np.abs(left - right)) < 1e-12


def test_convolution_size_mismatch():
    group = build_group("S3")
    with pytest.raises(ValueError):
        left_regular_matrix(group, np.ones(5))
    with pytest.raises(ValueError):
        left_regular_matrix(group, np.ones((2, 6)))


def test_left_regular_matrix_on_deltas():
    group = build_group("S3")
    n = group.order
    delta_e = np.zeros(n, complex); delta_e[0] = 1
    assert np.allclose(left_regular_matrix(group, delta_e), np.eye(n))
    for a in range(n):
        delta_a = np.zeros(n, complex); delta_a[a] = 1
        lam_a, _ = regular_actions(group, a)
        assert np.allclose(left_regular_matrix(group, delta_a), lam_a)


def test_left_regular_matrix_is_convolution():
    group = build_group("Q8")
    rng = np.random.default_rng(3)
    n = group.order
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = left_regular_matrix(group, phi)
    # (phi psi)(x) = sum_g phi(g) psi(g^-1 x), summed literally
    expected = [sum(phi[g] * psi[group_mul(group, group_inv(group, g), x)] for g in range(n)) for x in range(n)]
    assert np.allclose(m @ psi, expected)


@pytest.mark.parametrize("spec", ["S4", "Q8"])
def test_regular_actions_homomorphism(spec):
    group = build_group(spec)
    rng = np.random.default_rng(4)
    lam_e, rho_e = regular_actions(group, 0)
    assert np.allclose(lam_e, np.eye(group.order))
    assert np.allclose(rho_e, np.eye(group.order))
    for _ in range(20):
        g, h = rng.integers(0, group.order, size=2)
        lam_g, rho_g = regular_actions(group, g)
        lam_h, rho_h = regular_actions(group, h)
        lam_gh, rho_gh = regular_actions(group, group_mul(group, g, h))
        assert np.allclose(lam_g @ lam_h, lam_gh)
        assert np.allclose(rho_g @ rho_h, rho_gh)
        assert np.allclose(lam_g @ rho_h, rho_h @ lam_g)


def test_translation_covariance_of_multiplication_operator():
    # lambda(g) o M(phi) = M(lambda(g) phi), and conjugation acts on the
    # kernel by the adjoint translation lambda(g) rho(g)
    group = build_group("S4")
    rng = np.random.default_rng(5)
    n = group.order
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = left_regular_matrix(group, phi)
    for g in rng.integers(0, n, size=8):
        lam_g, rho_g = regular_actions(group, g)
        left_shift = phi[group.mult_table[group.inverse_table[g]]]
        assert np.max(np.abs(lam_g @ m - left_regular_matrix(group, left_shift))) < 1e-13
        adjoint = left_shift[group.mult_table[:, g]]  # phi(g^-1 x g)
        assert np.max(
            np.abs(lam_g @ m @ lam_g.conj().T - left_regular_matrix(group, adjoint))
        ) < 1e-13


def test_element_index_resolution():
    group = build_group("S3")
    assert group.element_index("(1 2)") == group.labels.index("(1 2)")
    assert group.element_index(3) == 3
    assert group.element_index("2") == 2
    with pytest.raises(GroupConstructionError):
        group.element_index("(9 9)")


@pytest.mark.parametrize("text", ["(2 1)", "()", "(1 2)(3)", "(1 2)(1 3)", "(1 4)", "(1 2 3 4 5 6 7)"])
def test_element_index_takes_a_permutation_only_in_its_own_label(text):
    # each of these parses to a permutation, or to none of S3's, and names no element
    group = build_group("S3")
    with pytest.raises(GroupConstructionError, match=rf"^unknown element {re.escape(repr(text))}$"):
        group.element_index(text)


def test_element_index_reads_e_and_a_zero_padded_index():
    group = build_group("S3")
    assert group.element_index("e") == 0
    assert group.element_index("004") == 4
    with pytest.raises(GroupConstructionError, match="^element index 7 out of range$"):
        group.element_index("007")
    # every label names its own element
    assert [group.element_index(label) for label in group.labels] == list(range(group.order))


@pytest.fixture
def counted_labels(monkeypatch):
    calls = []

    def counting(perm):
        calls.append(len(perm))
        return cycle_notation(perm)

    monkeypatch.setattr(groups, "cycle_notation", counting)
    return calls


def test_a_closure_formats_no_label(counted_labels):
    group = build_group("C1500")
    assert counted_labels == []
    assert group.label(1) == "(1 " + " ".join(str(p) for p in range(2, 1501)) + ")"
    assert len(counted_labels) == 1


def test_finite_verify_formats_only_the_labels_it_prints(counted_labels, capsys):
    from classops.cli import main

    assert main(["finite-verify", "--group", "C1500", "--class", "7", "--n-random", "1"]) == 0
    assert len(counted_labels) == 1   # the class label, once for its five records
    assert {c["class"] for c in json.loads(capsys.readouterr().out)["checks"]} == {build_group("C1500").label(7)}


def test_a_built_c1500_keeps_its_images_in_one_compact_array():
    # the int64 table is 18 MB; the (1500, 1500) uint16 images 4.5 MB more, and no labels
    tracemalloc.start()
    try:
        group = build_group("C1500")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.perms.shape == (1500, 1500) and group.perms.itemsize == 2
    assert retained < 23 * 2**20, f"retained {retained} B"


@pytest.mark.parametrize("spec", ["D4", ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]], ids=["D4", "C7xC3"])
def test_table_group_gets_a_greedy_generating_set_and_its_words(spec):
    group = build_group({"table": build_group(spec).mult_table.tolist()})
    t, gens, n = group.mult_table, group.generators, group.order
    subgroup = {0}
    for g in gens:
        # the lowest-index element outside the subgroup of the earlier generators
        assert g == min(set(range(n)) - subgroup)
        subgroup |= {g}
        while True:
            grown = subgroup | {group_mul(group, a, b) for a in subgroup for b in subgroup}
            if grown == subgroup:
                break
            subgroup = grown
    assert subgroup == set(range(n))
    assert len(gens) <= np.log2(n)
    assert sorted(group.bfs_words) == list(range(1, n))
    seen = {0}
    for x, (parent, slot) in group.bfs_words.items():   # discovery order: parents first
        assert parent in seen and t[parent, gens[slot]] == x
        seen.add(x)


@pytest.mark.parametrize("spec", ["C150", "D60-file", "S6g-file", "C1", "S2", "Q8"])
def test_labels_are_made_in_one_pass_byte_for_byte_as_cycle_notation(spec, tmp_path, counted_labels):
    if spec.endswith("-file"):
        gens = {"D60": ["(" + " ".join(str(p) for p in range(1, 61)) + ")",
                        "".join(f"({i} {62 - i})" for i in range(2, 31))],
                "S6g": ["(1 2)", "(1 2 3 4 5 6)"]}[spec[:-5]]
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"generators": gens}))
        group = load_group_file(str(path))
    else:
        group = build_group(spec)
    labels = group.labels
    assert counted_labels == []   # no label made one element at a time
    expected = [cycle_notation(group.perms[x].tolist()) for x in range(group.order)]
    assert [label.encode() for label in labels] == [label.encode() for label in expected]
    assert labels[0] == "e" and len(set(labels)) == group.order


# ---------------------------------------------------------------------------
# conjugacy classes as one orbit pass, fields made on first read
# ---------------------------------------------------------------------------

_FILE_GENERATORS = {
    "A4": ["(1 2 3)", "(2 3 4)"],
    "S4": ["(1 2)", "(1 2 3 4)"],
    "A5": ["(1 2 3)", "(1 2 3 4 5)"],
    "S5": ["(1 2)", "(1 2 3 4 5)"],
}


def _group_for(spec, tmp_path):
    if spec.startswith("file:"):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"generators": _FILE_GENERATORS[spec[5:]], "name": spec[5:]}))
        return load_group_file(str(path))
    if spec == "2I":
        return binary_icosahedral_group()[0]
    if spec == "D12-table":   # no generators: the orbits of every element's conjugation
        group = FiniteGroup(build_group("D12").mult_table)
        assert group.generators is None
        return group
    return build_group(spec)


@pytest.mark.parametrize("spec", [
    "C1", "S1", "D1", "D2", "Q8", "C12", "D20", "C30", "S5", "D60", "C150",
    "file:A4", "file:S4", "file:A5", "file:S5", "2I", "D12-table",
])
def test_orbit_classes_match_the_per_class_oracle(spec, tmp_path):
    group = _group_for(spec, tmp_path)
    want = oracle_conjugacy_classes(group)
    got = conjugacy_classes(group)
    assert [(c.base_element, c.members, c.centralizer, c.coset_reps) for c in got] == want
    class_of = np.empty(group.order, dtype=np.int64)
    for k, (_, members, _, _) in enumerate(want):
        class_of[list(members)] = k
    assert np.array_equal(group.class_of, class_of)
    assert [c.size for c in got] == [len(members) for _, members, _, _ in want]


def test_orbit_classes_hold_no_square_intermediate():
    # C1500's table is 18 MB of int64 and a (|G|, |G|) bool mask 2.25 MB; the
    # orbit pass gathers one (1, |G|) map and peaked at 0.46 MB traced
    # (CPython 3.11, numpy 2), nearly all of it the 1500 classes themselves
    group = build_group("C1500")
    tracemalloc.start()
    try:
        classes = conjugacy_classes(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 1500
    assert peak < 1_500_000, f"peak traced allocation {peak} B"


def _made_on_first_read(group) -> dict:
    """class index -> the lazy fields each class has made so far."""
    made = {}
    for k, c in enumerate(conjugacy_classes(group)):
        fields = [name for name in ("centralizer", "coset_reps") if name in c.__dict__]
        if fields:
            made[k] = fields
    return made


@pytest.mark.parametrize("command,reads", [
    ("finite-verify", ["centralizer", "coset_reps"]),
    ("scan", ["centralizer"]),
    ("wigner-eckart", ["centralizer"]),
], ids=["finite-verify", "scan", "wigner-eckart"])
def test_a_one_class_request_makes_only_its_own_class_fields(command, reads, monkeypatch, capsys):
    built = []

    def build_and_keep(spec):
        built.append(build_group(spec))
        return built[-1]

    monkeypatch.setattr(cli, "build_group", build_and_keep)
    assert cli.main([command, "--group", "D12", "--class", "(1 2 3 4 5 6 7 8 9 10 11 12)"]) == 0
    capsys.readouterr()
    (group,) = built
    selected = int(group.class_of[group.element_index("(1 2 3 4 5 6 7 8 9 10 11 12)")])
    assert _made_on_first_read(group) == {selected: reads}
