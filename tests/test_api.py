"""The public names of the package, and the library calls the benchmark makes."""

import importlib

import numpy as np
import pytest

import classops
import classops.cli
from classops import coupling, su2, verify

MODULES = ["groups", "representations", "class_operators", "su2", "coupling", "verify", "serialize", "cli"]


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


def test_removed_names_are_gone_and_check_records_live_in_verify():
    for name in ("covariance_conjugate", "centralizer_invariance_check", "su2_z_fixed_basis"):
        assert not hasattr(classops, name), name
    assert not hasattr(classops.class_operators, "CheckReport")
    assert not hasattr(su2, "_class_operators")
    assert not hasattr(classops.FiniteGroup, "elements")
    for name in ("encode_complex", "encode_complex_array", "write_json"):
        assert not hasattr(classops.serialize, name), name
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
