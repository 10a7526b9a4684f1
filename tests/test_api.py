"""The public names of the package, and the library calls the benchmark makes."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import classops
import classops.cli
from classops import coupling, su2, verify

MODULES = ["groups", "representations", "class_operators", "su2", "coupling", "verify", "serialize", "cli"]
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"classops.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"classops.{name}.__all__ names {missing}"


def test_every_package_level_name_resolves():
    public = [n for n in vars(classops) if not n.startswith("_")]
    exported = {n for name in MODULES for n in getattr(importlib.import_module(f"classops.{name}"), "__all__", [])}
    # every name the package re-exports is one a module exports
    assert not [n for n in public if n not in exported and n not in MODULES]


def _defines(statement, name: str) -> bool:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return statement.name == name
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _referenced(statements) -> set[str]:
    """Names used by a Name or an Attribute node, or imported by name; strings do not count."""
    names = set()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreached_names(root: Path) -> list[str]:
    """``module.name`` for every ``__all__`` name of ``classops`` that nothing
    references from the library (outside ``__init__`` and the name's own
    definition), the demos or the bench."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for pattern in ("src/classops/*.py", "demos/*.py", "bench/*.py")
             for path in sorted(root.glob(pattern)) if path.name != "__init__.py"}
    used = {path: _referenced(tree.body) for path, tree in trees.items()}
    unreached = []
    for module in MODULES:
        own = root / "src" / "classops" / f"{module}.py"
        elsewhere = set().union(*(names for path, names in used.items() if path != own))
        body = [(st, _referenced([st])) for st in trees[own].body]
        exported = next(ast.literal_eval(st.value) for st, _ in body if _defines(st, "__all__"))
        for name in exported:
            if name not in elsewhere and not any(name in names for st, names in body if not _defines(st, name)):
                unreached.append(f"{module}.{name}")
    return unreached


def test_every_exported_name_is_reached_by_the_library_a_demo_or_the_bench():
    # a name only tests call is an oracle: it belongs in tests/helpers.py
    assert unreached_names(ROOT) == []


def _loaded_attributes(tree, skip) -> set[str]:
    """Attribute names read (``.name`` in a load) anywhere in tree except under the node skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    return names


def unread_group_attributes(root: Path) -> list[str]:
    """Every attribute ``FiniteGroup.__init__`` sets on self that nothing reads,
    outside that ``__init__``, in the library (but its ``__init__`` module),
    the demos or the bench."""
    trees = {path.relative_to(root).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
             for pattern in ("src/classops/*.py", "demos/*.py", "bench/*.py")
             for path in sorted(root.glob(pattern)) if path.name != "__init__.py"}
    cls = next(n for n in trees["src/classops/groups.py"].body
               if isinstance(n, ast.ClassDef) and n.name == "FiniteGroup")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    set_names = [t.attr for n in ast.walk(init) if isinstance(n, (ast.Assign, ast.AnnAssign))
                 for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                 if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"]
    read = set().union(*(_loaded_attributes(tree, init) for tree in trees.values()))
    return [name for name in set_names if name not in read]


def test_every_group_attribute_is_read_outside_the_constructor():
    # an attribute only the constructor touches is state nothing needs
    assert unread_group_attributes(ROOT) == []


def test_removed_names_are_gone_and_check_records_live_in_verify():
    for name in ("covariance_conjugate", "centralizer_invariance_check", "su2_z_fixed_basis"):
        assert not hasattr(classops, name), name
    assert not hasattr(classops.class_operators, "CheckReport")
    assert not hasattr(su2, "_class_operators")
    assert not hasattr(classops.FiniteGroup, "elements")
    for name in ("encode_complex", "encode_complex_array", "write_json", "coupling_table_from_document",
                 "decode_complex_array"):
        assert not hasattr(classops.serialize, name), name
    removed = {
        classops.groups: ("convolve", "inner_product"),
        classops.class_operators: (
            "left_translate", "right_translate", "class_left_translate", "WeightedClassOperator", "class_sum_element",
        ),
        classops.representations: ("matrix_element_functions", "IsotypicProjection", "represent", "_CatalogImages"),
        su2: ("ad_map", "PAULI", "SU2Element", "_weighted_core"),
        coupling: ("product_expansion_residual", "triple_product_residual", "_weighted_triple_sum", "z_fixed_basis"),
        classops.Irrep: ("character",),
        su2.WignerD: ("__call__", "character"),
        su2.SphereQuadrature: ("total_weight",),
        classops.CouplingTable: ("multiplicity", "coefficient_matrix", "unitarity_residual"),
    }
    for owner, names in removed.items():
        for name in names:
            assert name not in vars(owner) and not hasattr(classops, name), name
    assert not hasattr(classops.CouplingTable, "reconstruction_residual")
    assert not hasattr(classops.cli.RunConfig, "tolerance")
    assert classops.CheckReport is verify.CheckReport
    assert classops.centralizer_invariance_deviation is classops.class_operators.centralizer_invariance_deviation


@pytest.mark.parametrize("call", ["product_expansion", "triple_product"])
def test_benchmark_library_calls(call):
    # bench/worker.run_library: the SU(2) identities at sigma = 2, as it calls them
    sigma2 = 2
    table = coupling.su2_coupling_table(sigma2)
    if call == "product_expansion":
        samples = su2.haar_random(np.random.default_rng(5), 20)
        residual = coupling.product_expansion_residual_su2(table, samples)
    else:
        for alpha2 in (0, 2, 4, 6):
            band = (alpha2 + 2 * sigma2) // 2 + 2
            angles, weights = su2.su2_haar_quadrature(2 * band + 3, band + 2, 4 * band + 6)
            residual = coupling.triple_product_residual_su2(table, alpha2, angles, weights)
            assert residual < 1e-12, alpha2
    assert residual < 1e-12
