"""Spans around the public functions of each classops module.

The wrappers live in the benchmark, not in the program: ``Tracer.install``
replaces every binding of each listed function in every loaded ``classops``
module (``verify`` and ``coupling`` import several functions by name, and
``classops/__init__`` re-exports them), each binding with its own wrapper.
Methods are wrapped on their class.  Spans stay in memory; ``summary`` turns
them into per-function calls, total and self time, and ``write`` saves them
as JSON lines.

Self time is a span's duration minus the durations of the wrapped spans it
directly contains.  ``<module>.errors`` counts exceptions that left a listed
function of that module, each exception once per module.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer (classops module) -> functions; "Class.method" names a method.
LAYERS = {
    "groups": ["build_group", "conjugacy_classes"],
    "representations": [
        "character_table", "irreps", "regular_representation", "isotypic_projector",
    ],
    "class_operators": [
        "weighted_class_operator", "transfer",
        "class_operator_from_classfunction", "spectral_class_operator",
    ],
    "coupling": [
        "conjugation_decomposition", "adapt_irreps_to_class", "wigner_eckart_bruteforce",
        "tensor_operator_scan", "su2_coupling_table", "clebsch_gordan",
        "triple_product_residual_su2",
    ],
    "su2": [
        "WignerD.little_d", "WignerD.euler", "class_operator_quadrature",
        "weighted_class_operator_su2", "su2_haar_quadrature",
    ],
    "verify": [
        "finite_class_suite", "wigner_eckart_report", "su2_wigner_eckart_report",
        "su2_convergence_rows", "scan_rows",
    ],
    "serialize": ["tables_document", "write_json", "load_group_file"],
    "cli": ["main", "_emit"],
}

SPAN_NAMES = [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs]


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, request, start, end, parent index)
        self.request = ""
        self.absent: list[str] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self.regular_bytes = 0         # largest |G|^3 * 16 requested, computed
        self._stack: list[int] = []
        self._seen: dict[str, dict[int, BaseException]] = {layer: {} for layer in LAYERS}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "classops" or name.startswith("classops."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"classops.{layer}")
            for fname in names:
                span = f"{layer}.{fname}"
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(home, cls_name, None)
                    original = getattr(cls, meth, None) if cls is not None else None
                    if original is None:
                        self.absent.append(span)
                        continue
                    setattr(cls, meth, self._wrap(span, original))
                    continue
                original = getattr(home, fname, None)
                if original is None:
                    self.absent.append(span)
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, self._wrap(span, original))

    def _wrap(self, span: str, fn):
        tracer = self
        layer = span.split(".")[0]
        sizes = span == "representations.regular_representation"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sizes and args:
                tracer.regular_bytes = max(tracer.regular_bytes, 16 * args[0].order ** 3)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                seen = tracer._seen[layer]
                if id(exc) not in seen:
                    seen[id(exc)] = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span, tracer.request, start, end, parent)

        return wrapper

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        children = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, _, start, end, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children[i]
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, request, start, end, parent in self.spans:
                fh.write(json.dumps([name, request, start, end, parent]) + "\n")
