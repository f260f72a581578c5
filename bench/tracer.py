"""Outside-in tracer: spans around the public functions of homsensor.

The tracer wraps functions from outside the package.  `cli`,
`estimation` and `continuum` import library names directly, so each
wrapper is rebound in every homsensor module that holds the original
object, not only in the defining module.  Spans stay in memory; the
caller summarizes them when the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# (module, attribute, counts points): the layer boundaries that are
# traced.  "Material.index" is a method and is patched on the class.
# Points are counted for the calls that broadcast over their inputs.
TRACED = (
    ("cli", "load_config", False),
    ("cli", "write_csv", False),
    ("cli", "write_metadata", False),
    ("tmm", "calibrate_stack", False),
    ("tmm", "stack_response", True),
    ("tmm", "response_derivatives", False),
    ("tmm", "load_stack", False),
    ("materials", "Material.index", True),
    ("quantum_stats", "bs_point", False),
    ("quantum_stats", "hom_click_distribution", False),
    ("quantum_stats", "coherent_output_means", False),
    ("quantum_stats", "poisson_pair_grid", False),
    ("estimation", "fisher_from_distribution", False),
    ("estimation", "fisher_hom", False),
    ("estimation", "fisher_classical", False),
    ("estimation", "fisher_report", False),
    ("estimation", "fisher_decomposition", False),
    ("estimation", "phi_ab_scan", False),
    ("estimation", "uncertainty_budget", False),
    ("continuum", "continuum_fisher", False),
    ("continuum", "quadrature_grid", False),
    ("continuum", "continuum_hom_moments", False),
    ("continuum", "continuum_classical_means", False),
)


def layer_name(module: str, attribute: str) -> str:
    """Metric prefix of a traced function: `<module>.<function>`."""
    return "%s.%s" % (module, attribute.rsplit(".", 1)[-1])


def points_of(result) -> int:
    """Points a broadcasting call evaluated, read from its result."""
    return int(np.size(getattr(result, "T", result)))


class Tracer:
    """One span per wrapped call: [name, start, end, parent, points]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn, count_points: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if count_points:
                span[4] = points_of(result)
            return result
        return traced

    def summary(self) -> dict:
        """{name: {"calls", "points", "self_ms"}} over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, points), child in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "points": 0,
                                        "self_ms": 0.0})
            row["calls"] += 1
            row["points"] += points
            row["self_ms"] += 1e3 * (end - start - child)
        return out


def install(tracer: Tracer, modules: dict, traced=TRACED) -> int:
    """Wrap each traced function and rebind it wherever it is held.

    modules maps a short name ("tmm") to the module object; every
    module's attribute that is the original object is replaced by the
    wrapper.  Returns the number of bindings replaced.
    """
    replaced = 0
    for module, attribute, count_points in traced:
        owner = modules[module]
        if "." in attribute:  # a method: patch the class once
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(layer_name(module, attribute),
                                             cls.__dict__[method],
                                             count_points))
            replaced += 1
            continue
        original = getattr(owner, attribute)
        wrapper = tracer.wrap(layer_name(module, attribute), original,
                              count_points)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    replaced += 1
    return replaced
