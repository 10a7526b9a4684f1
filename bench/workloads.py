"""Seeded request lists for the classops benchmark.

A workload is a fixed multiset of requests: which commands run, on which
groups, at which sizes.  The seed varies only what leaves the amount of work
unchanged: the request order, the ``--seed`` each request passes to the
program, which member of a conjugacy class names it, the class angle psi, the
point labels of generator-built groups and the Haar samples of the library
identities.  Figures from different seeds are therefore comparable, and the
same seed always gives byte-identical request lists and group documents.

Each request is a dict:

* ``id``: stable name, unique within the list;
* ``kind``: ``"cli"`` (argv for ``classops.cli.main``) or ``"lib"``
  (a library identity call, see ``worker.run_library``);
* ``finite``: whether the request names a finite group;
* ``expect``: what ``checks.py`` needs to judge the output.

Known-failing inputs are kept out of the timed lists and sent once per run as
the *limit probe* (``probe``), so that the timed loop measures work the
program completes while the failures stay visible.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("finite-classops", "tables-generic", "su2-spins")

# Why each workload exists; the same lines are in BENCHMARK.json.
WHY = {
    "finite-classops": (
        "finite-verify, wigner-eckart and scan on catalog groups of order 8-40: "
        "time goes to weighted_class_operator over the dense regular stack"
    ),
    "tables-generic": (
        "export-tables on generator-built and large cyclic groups: closure, k^3 "
        "character table, generic irreps, coupling decomposition and JSON writing"
    ),
    "su2-spins": (
        "su2-verify, wigner-eckart --group su2 and the SU(2) library identities "
        "across spins: little-d, Clebsch-Gordan, sphere and Haar quadrature"
    ),
}

# ---------------------------------------------------------------------------
# finite-classops: catalog groups, every class, per-class requests
# ---------------------------------------------------------------------------

# (group, --n-random or None for the program default of 20).  Every class of
# each group is verified, one request per class.  D15 and D20 use fewer random
# weights so that one pass stays near eight seconds; their
# centralizer-invariance sweep (|Z0| operators per class) is unchanged.
FINITE_VERIFY = [
    ("Q8", None), ("C12", None), ("D6", None), ("D8", None), ("D10", None),
    ("S4", None), ("D12", None), ("C20", None), ("D15", 4), ("D20", 2),
]
# wigner-eckart / scan with --class all: the program loops over the classes
# itself, which is where it recomputes the character table per class.
WIGNER_ECKART_ALL = ["S4", "D10"]
SCAN_ALL = ["Q8", "D12"]
# wigner-eckart / scan, one request per class.
WIGNER_ECKART_EACH = ["D12", "D20"]
SCAN_EACH = ["S4", "C30"]

# ---------------------------------------------------------------------------
# tables-generic: generator-built groups (file: documents) and cyclic groups
# ---------------------------------------------------------------------------


def _dihedral_generators(n: int) -> list[str]:
    rotation = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    pairs = [(i, n + 2 - i) for i in range(2, (n + 1) // 2 + 1) if i != n + 2 - i]
    reflection = "".join(f"({a} {b})" for a, b in pairs)
    return [rotation, reflection]


# name -> (degree, generators in 1-based cycle notation)
GENERATOR_GROUPS = {
    "A4": (4, ["(1 2 3)", "(2 3 4)"]),
    "S4": (4, ["(1 2)", "(1 2 3 4)"]),
    "A5": (5, ["(1 2 3)", "(1 2 3 4 5)"]),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "D60": (60, _dihedral_generators(60)),
    "D5": (5, _dihedral_generators(5)),
    "D6": (6, _dihedral_generators(6)),
    "Q8": (8, ["(1 3 2 4)(5 7 6 8)", "(1 5 2 6)(3 8 4 7)"]),
}
EXPORT_FILE = ["A4", "S4", "A5", "S5", "D60"]
EXPORT_CYCLIC = ["C60", "C90", "C120", "C150"]
# small generator-built groups: wigner-eckart and scan per class, twice per
# pass with different --seed (cheap requests that carry the per-request cost
# of closure, character table and generic irreps), and one export each.
SMALL_FILE = ["A4", "S4", "D5", "D6", "Q8"]

# ---------------------------------------------------------------------------
# su2-spins
# ---------------------------------------------------------------------------

# su2-verify single points, each at a seeded psi: every doubled spin 1..48 and
# again 1..32.  At the default 32x64 quadrature the error stays below 5e-11
# up to j2 = 48 for every psi; from j2 = 62 on it exceeds the 1e-9 gate (see
# the limit probe).
SU2_POINT_J2 = list(range(1, 49)) + list(range(1, 33))
SU2_DEFAULT_TABLE_REPEATS = 2
SU2_WIGNER_ECKART_MAX_SPIN = list(range(1, 8))   # 8 and up raise TypeError today
SU2_IDENTITY_SIGMA2 = [1, 2, 3]                  # sigma2 = 4 takes ~15 s
SU2_HAAR_SAMPLES = 50

# Inputs that fail at the commit this benchmark was defined on (psi = 1).
# They run once per run after the timed loop, never inside it.
PROBE_SU2_J2 = [80, 100, 120]            # FAIL, OverflowError, OverflowError
PROBE_SU2_MAX_SPIN = [8, 12]             # TypeError in clebsch_gordan

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"classops-bench/{workload}/{seed}")


def _cli(rid: str, argv: list[str], finite: bool, **expect) -> dict:
    return {"id": rid, "kind": "cli", "argv": argv, "finite": finite, "expect": expect}


def _relabel(degree: int, generators: list[str], rng: random.Random) -> list[str]:
    """The same group on relabelled points, generators in seeded order."""
    images = list(range(1, degree + 1))
    rng.shuffle(images)

    def move(cycle_text: str) -> str:
        cycles = cycle_text.strip("()").split(")(")
        return "".join(
            "(" + " ".join(str(images[int(p) - 1]) for p in c.split()) + ")" for c in cycles
        )

    out = [move(g) for g in generators]
    rng.shuffle(out)
    return out


def _class_selectors(group, rng: random.Random) -> list[str]:
    """For every conjugacy class, the label of a seeded member."""
    from classops.groups import conjugacy_classes

    return [group.labels[rng.choice(c.members)] for c in conjugacy_classes(group)]


def _finite_classops(rng: random.Random) -> tuple[list[dict], dict]:
    from classops.groups import build_group, conjugacy_classes

    reqs = []
    seed = lambda: str(rng.randrange(1, 10**6))  # noqa: E731
    for name, n_random in FINITE_VERIFY:
        group = build_group(name)
        extra = [] if n_random is None else ["--n-random", str(n_random)]
        for i, sel in enumerate(_class_selectors(group, rng)):
            argv = ["finite-verify", "--group", name, "--class", sel, "--seed", seed()] + extra
            reqs.append(_cli(f"fv-{name}-{i}", argv, True, checks=5, n_random=n_random or 20))
    for cmd, names in (("wigner-eckart", WIGNER_ECKART_ALL), ("scan", SCAN_ALL)):
        for name in names:
            classes = len(conjugacy_classes(build_group(name)))
            argv = [cmd, "--group", name, "--class", "all", "--seed", seed()]
            reqs.append(_cli(f"{cmd}-{name}-all", argv, True, classes=classes))
    for cmd, names in (("wigner-eckart", WIGNER_ECKART_EACH), ("scan", SCAN_EACH)):
        for name in names:
            for i, sel in enumerate(_class_selectors(build_group(name), rng)):
                argv = [cmd, "--group", name, "--class", sel, "--seed", seed()]
                reqs.append(_cli(f"{cmd}-{name}-{i}", argv, True, classes=1))
    return reqs, {}


def _tables_generic(rng: random.Random, docs_dir: str) -> tuple[list[dict], dict]:
    from classops.groups import build_group

    seed = lambda: str(rng.randrange(1, 10**6))  # noqa: E731
    documents = {}
    groups = {}
    for name, (degree, gens) in GENERATOR_GROUPS.items():
        doc = {"generators": _relabel(degree, gens, rng), "name": name}
        documents[f"{name}.json"] = doc
        groups[name] = build_group(doc)
    spec = lambda name: f"file:{docs_dir}/{name}.json"  # noqa: E731
    reqs = []
    for name in dict.fromkeys(EXPORT_FILE + SMALL_FILE):
        argv = ["export-tables", "--group", spec(name), "--seed", seed()]
        reqs.append(_cli(f"export-{name}-file", argv, True, order=groups[name].order))
    for name in EXPORT_CYCLIC:
        argv = ["export-tables", "--group", name, "--seed", seed()]
        reqs.append(_cli(f"export-{name}", argv, True, order=int(name[1:])))
    for copy in range(2):
        for name in SMALL_FILE:
            for cmd in ("wigner-eckart", "scan"):
                for i, sel in enumerate(_class_selectors(groups[name], rng)):
                    argv = [cmd, "--group", spec(name), "--class", sel, "--seed", seed()]
                    reqs.append(_cli(f"{cmd}-{name}-file-{i}-{copy}", argv, True, classes=1))
    return reqs, documents


def _su2_point(rid: str, j2: int, psi: str) -> dict:
    return _cli(rid, ["su2-verify", "--j2", str(j2), "--psi", psi], False, rows=1)


def _su2_wigner_eckart(rid: str, max_spin_x2: int, psi: str) -> dict:
    argv = ["wigner-eckart", "--group", "su2", "--max-spin-x2", str(max_spin_x2), "--psi", psi]
    rows = sum((s + 1) ** 2 for s in range(1, max_spin_x2 + 1))
    return _cli(rid, argv, False, comparisons=rows)


def _su2_spins(rng: random.Random) -> tuple[list[dict], dict]:
    psi = lambda: repr(round(rng.uniform(0.1, 2 * math.pi - 0.1), 6))  # noqa: E731
    reqs = [
        _su2_point(f"su2-point-{j2}-{SU2_POINT_J2[:i].count(j2)}", j2, psi())
        for i, j2 in enumerate(SU2_POINT_J2)
    ]
    for i in range(SU2_DEFAULT_TABLE_REPEATS):
        reqs.append(_cli(f"su2-table-{i}", ["su2-verify"], False, rows=360))
    reqs += [_su2_wigner_eckart(f"su2-we-{m}", m, psi()) for m in SU2_WIGNER_ECKART_MAX_SPIN]
    for sigma2 in SU2_IDENTITY_SIGMA2:
        reqs.append({
            "id": f"su2-product-{sigma2}", "kind": "lib", "finite": False,
            "call": "product_expansion", "sigma2": sigma2,
            "haar_seed": rng.randrange(1, 10**6), "samples": SU2_HAAR_SAMPLES, "expect": {},
        })
        for alpha2 in range(0, 2 * sigma2 + 1, 2):
            reqs.append({
                "id": f"su2-triple-{sigma2}-{alpha2}", "kind": "lib", "finite": False,
                "call": "triple_product", "sigma2": sigma2, "alpha2": alpha2, "expect": {},
            })
    return reqs, {}


def generate(workload: str, seed: int, docs_dir: str) -> tuple[list[dict], dict]:
    """(requests in seeded order, {file name: group document}) for one pass.

    ``docs_dir`` is the directory, relative to the checkout root, where the
    caller writes the group documents; ``file:`` specs point there.
    """
    rng = _rng(workload, seed)
    if workload == "finite-classops":
        reqs, docs = _finite_classops(rng)
    elif workload == "tables-generic":
        reqs, docs = _tables_generic(rng, docs_dir)
    elif workload == "su2-spins":
        reqs, docs = _su2_spins(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if len({r["id"] for r in reqs}) != len(reqs):
        raise ValueError("request ids must be unique")
    rng.shuffle(reqs)
    return reqs, docs


def probe(workload: str) -> list[dict]:
    """The limit probe of a workload: known-failing inputs, in a fixed order."""
    if workload != "su2-spins":
        return []
    return [_su2_point(f"probe-su2-point-{j2}", j2, "1") for j2 in PROBE_SU2_J2] + [
        _su2_wigner_eckart(f"probe-su2-we-{m}", m, "1") for m in PROBE_SU2_MAX_SPIN
    ]
