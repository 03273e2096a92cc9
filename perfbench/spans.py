"""Span tracing around curvemul's coarse entry points, from outside the library.

A wrapper is installed at every module binding of the same function object
(``find_irreducible`` lives in ``gf``, ``function_field`` and the package
namespace, for instance), and on the classes for methods, so that calls made
through any import path are seen.  Per-element field operations are never
wrapped.  Spans are kept in memory and written out when the pass ends.
"""

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, job."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, job, self_s, ok]
        self.counts = defaultdict(int)   # work done, by the hooks below
        self._stack = []     # [span index, time covered by children]
        self.job = None
        self.on = False

    def call(self, name, fn, args, kwargs, hook=None):
        if not self.on:
            return fn(*args, **kwargs)
        parent = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.job, 0.0, False]
        self.spans.append(span)
        frame = [idx, 0.0]
        self._stack.append(frame)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span[6] = True
            if hook is not None:
                span[0] = hook(self, result, args, kwargs) or name
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            dur = span[2] - span[1]
            span[5] = dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "self_s", "ok"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _wrapper(tracer, name, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)
    return traced


def _verify_hook(tracer, report, args, kwargs):
    """Name the span after the mode the report names; count its products."""
    name = "ccma.verify." + report.mode
    tracer.counts[name + ".products"] += report.pairs_checked
    return name


def _file_bytes_hook(tracer, result, args, kwargs):
    """save_formula and load_formula both take the path last."""
    tracer.counts["ccma.formula_io.bytes"] += os.path.getsize(kwargs.get("path", args[-1]))


def install(tracer):
    """Wrap the entry points named in the README's layer table."""
    import curvemul
    from curvemul import bounds, ccma, cli, gf
    from curvemul import function_field as ff
    modules = [curvemul, gf, ff, ccma, bounds, cli]

    def functions(name, targets, hook=None):
        for fn in targets:
            wrapped = _wrapper(tracer, name, fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)

    def methods(name, classes, attr):
        for cls in classes:
            if attr in vars(cls):
                setattr(cls, attr, _wrapper(tracer, name, vars(cls)[attr]))

    functions("gf.find_irreducible", [gf.find_irreducible])
    canonical = vars(gf.FieldTower)["canonical"].__func__
    gf.FieldTower.canonical = classmethod(_wrapper(tracer, "gf.tower", canonical))

    curves = [ff.ProjectiveLine, ff.EllipticCurve]
    functions("function_field.curve_search", [ff.curve_search])
    functions("function_field.best_stat_curves", [ff.best_stat_curves])
    methods("function_field.point_count", curves, "point_count")
    methods("function_field.riemann_roch", curves, "riemann_roch")
    methods("function_field.places", curves, "places")
    methods("function_field.divisor_class_is_principal", curves,
            "divisor_class_is_principal")

    functions("ccma.construct", [ccma.construct_case1, ccma.construct_case3])
    functions("ccma.verify", [ccma.verify], hook=_verify_hook)
    functions("ccma.compose", [ccma.compose])
    functions("ccma.brute_force", [ccma.brute_force_symmetric_rank])
    functions("ccma.formula_io", [ccma.save_formula, ccma.load_formula],
              hook=_file_bytes_hook)

    functions("bounds.best_bound", [bounds.best_bound])
    functions("bounds.comparison_table", [bounds.comparison_table])
    functions("bounds.asymptotic", [bounds.asymptotic_bounds, bounds.cacr_bounds])

    functions("cli.main", [cli.main])


def _has_ancestor(spans, span, prefix):
    parent = span[3]
    while parent is not None:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


SPANS = ("gf.find_irreducible", "gf.tower",
         "function_field.curve_search", "function_field.best_stat_curves",
         "function_field.point_count", "function_field.riemann_roch",
         "function_field.places", "function_field.divisor_class_is_principal",
         "ccma.construct", "ccma.verify.exhaustive", "ccma.verify.sampled",
         "ccma.compose", "ccma.brute_force", "ccma.formula_io",
         "bounds.best_bound", "bounds.comparison_table", "bounds.asymptotic",
         "cli.main")


def layer_metrics(tracer):
    """calls and self_s for every span name (0 where the layer did not run),
    plus the ratios and rates measured at the same boundaries."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    rr_in_construct = 0
    formulas = 0
    for span in tracer.spans:
        name = span[0]
        calls[name] += 1
        self_s[name] += span[5]
        if name == "function_field.riemann_roch" and _has_ancestor(tracer.spans, span,
                                                                   "ccma.construct"):
            rr_in_construct += 1
        if name == "ccma.construct" and span[6]:
            formulas += 1
    out = {}
    for name in SPANS:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out["ccma.construct.rr_per_formula"] = rr_in_construct / formulas if formulas else 0.0
    for mode in ("exhaustive", "sampled"):
        name = "ccma.verify." + mode
        busy = self_s[name]
        out[name + ".products_per_s"] = tracer.counts[name + ".products"] / busy if busy else 0.0
    out["ccma.formula_io.bytes"] = tracer.counts["ccma.formula_io.bytes"]
    return out
