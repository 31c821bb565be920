"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced public function in every fqzeta
module that holds a reference to it (so `from .gauges import hodge` in
specialvalues is caught too), and replaces the hot QqElement/FiniteField
operators on their classes with call counters.  Spans (layer, start, end,
parent) are kept in a list and turned into metrics, and written out, when
the run ends.  Untraced runs never import this module.
"""

import functools
import json
import sys
import time
from collections import Counter

# layer -> functions whose calls are that layer's spans: (module, name) for
# module functions, (module, class, name) for methods.
SPANS = {
    "plinalg.snf": [("plinalg", "smith_normal_form")],
    "plinalg.lattice": [("plinalg", n) for n in (
        "lattice_canonical", "lattice_contains", "lattice_equal",
        "lattice_sum", "lattice_intersect", "lattice_quotient_divisors",
        "semilinear_preimage")],
    "gauges.hodge": [("gauges", "hodge")],
    "isocrystals.slopes": [("isocrystals", "newton_slopes_exact"),
                           ("isocrystals", "newton_slopes_qq"),
                           ("isocrystals", "Isocrystal", "slopes")],
    "isocrystals.semisimple": [("isocrystals", "semisimple_at")],
    "isocrystals.eigenproduct": [("isocrystals", "eigenproduct_excluding")],
    "polys.tensor_poly": [("polys", "tensor_poly")],
    "lfun.assemble": [("lfun", "assemble")],
    "lfun.series": [("lfun", "rational_series"),
                    ("lfun", "euler_product_series")],
    "geometry.point_counts": [("geometry", "point_counts")],
    "geometry.package": [("geometry", "package")],
    "gammamodules.zf": [("gammamodules", "z_of_f")],
    "specialvalues.verify_padic": [("specialvalues", "verify_padic")],
    "specialvalues.verify_elladic": [("specialvalues", "verify_elladic")],
    "serialize.parse": [("serialize", "parse_json")],
    "serialize.dump": [("serialize", "dump_json")],
    "cli": [("cli", "main")],
}

# counter -> operator methods it counts
COUNTS = {
    "padics.qq_mul_calls": ("padics", "QqElement", "__mul__"),
    "padics.qq_add_calls": ("padics", "QqElement", "__add__"),
    "padics.qq_inverse_calls": ("padics", "QqElement", "inverse"),
    "padics.frobenius_calls": ("padics", "QqElement", "frobenius"),
    "padics.ff_mul_calls": ("padics", "FiniteField", "mul"),
}

# reported metric -> (unit, how it is read off the spans and counters)
METRICS = {
    **{name: ("count", ("count", name)) for name in COUNTS},
    "plinalg.snf_calls": ("count", ("calls", "plinalg.snf")),
    "plinalg.snf_s": ("s", ("time", "plinalg.snf")),
    "plinalg.lattice_calls": ("count", ("calls", "plinalg.lattice")),
    "plinalg.lattice_s": ("s", ("time", "plinalg.lattice")),
    "gauges.hodge_calls": ("count", ("calls", "gauges.hodge")),
    "gauges.hodge_s": ("s", ("time", "gauges.hodge")),
    "gauges.hodge_self_s": ("s", ("self", "gauges.hodge")),
    "isocrystals.slopes_s": ("s", ("time", "isocrystals.slopes")),
    "isocrystals.semisimple_s": ("s", ("time", "isocrystals.semisimple")),
    "isocrystals.eigenproduct_s": ("s", ("time", "isocrystals.eigenproduct")),
    "polys.tensor_poly_calls": ("count", ("calls", "polys.tensor_poly")),
    "polys.tensor_poly_s": ("s", ("time", "polys.tensor_poly")),
    "lfun.assemble_calls": ("count", ("calls", "lfun.assemble")),
    "lfun.assemble_s": ("s", ("time", "lfun.assemble")),
    "lfun.series_s": ("s", ("time", "lfun.series")),
    "geometry.point_counts_s": ("s", ("time", "geometry.point_counts")),
    "geometry.package_self_s": ("s", ("self", "geometry.package")),
    "gammamodules.zf_s": ("s", ("time", "gammamodules.zf")),
    "specialvalues.verify_padic_self_s":
        ("s", ("self", "specialvalues.verify_padic")),
    "specialvalues.verify_elladic_self_s":
        ("s", ("self", "specialvalues.verify_elladic")),
    "serialize.parse_s": ("s", ("time", "serialize.parse")),
    "serialize.dump_s": ("s", ("time", "serialize.dump")),
    "serialize.bytes_out": ("bytes", ("count", "serialize.bytes_out")),
    "cli.self_s": ("s", ("self", "cli")),
}


def _fqzeta_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fqzeta" or name.startswith("fqzeta."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, f):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(f)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return f(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def _dump_span(self, f):
        traced, counts = self._span("serialize.dump", f), self.counts

        @functools.wraps(f)
        def dump(*args, **kwargs):
            text = traced(*args, **kwargs)
            counts["serialize.bytes_out"] += len(text.encode("utf-8"))
            return text
        return dump

    def _counter(self, key, f):
        counts = self.counts

        @functools.wraps(f)
        def counted(*args):
            counts[key] += 1
            return f(*args)
        return counted

    # -- installing ----------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        modules = _fqzeta_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, targets in SPANS.items():
            for target in targets:
                module = by_name["fqzeta." + target[0]]
                if len(target) == 3:
                    cls = getattr(module, target[1])
                    self._set(cls, target[2],
                              self._span(layer, cls.__dict__[target[2]]))
                    continue
                orig = getattr(module, target[1])
                wrapped = (self._dump_span(orig) if layer == "serialize.dump"
                           else self._span(layer, orig))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, attr, wrapped)
        for key, (mod, cls_name, meth) in COUNTS.items():
            cls = getattr(by_name["fqzeta." + mod], cls_name)
            self._set(cls, meth, self._counter(key, cls.__dict__[meth]))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reading -------------------------------------------------------------

    def totals(self):
        """Per layer: calls, time (outermost spans of the layer only, so
        recursion is not counted twice) and self time (span minus the
        spans directly inside it)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for idx, (layer, start, end, parent) in enumerate(spans):
            calls[layer] += 1
            own[layer] += end - start - child[idx]
            up = parent
            while up >= 0 and spans[up][0] != layer:
                up = spans[up][3]
            if up < 0:
                total[layer] += end - start
        return {"calls": calls, "time": total, "self": own,
                "count": self.counts}

    def metrics(self, passes):
        """Every per-layer metric, per pass over the item set."""
        totals = self.totals()
        out = {}
        for name, (unit, (kind, key)) in METRICS.items():
            out[name] = {"value": totals[kind][key] / passes, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
