"""Span tracing of jetgeo's layers, installed from outside the package.

`install` wraps the entry points of each jetgeo module in place: module
functions wherever a jetgeo module holds a reference to them, and methods
on their classes.  A wrapper records a span (name, start, end, parent span)
only while `Tracer.active` is set, so setup and output checks stay out of
the trace.  The untraced benchmark run never calls `install`.

Spans are kept in flat arrays and written out once, when the run ends.
`layer_metrics` reduces them to the per-layer figures the benchmark
reports: call counts, time in each layer, and each module's self time
(span time minus the time its child spans cover).
"""
from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array

import numpy as np

MODULES = ("expr", "jets", "metric", "curvature", "invariants", "family", "geodesics", "cli")
MAX_LEVEL = 8


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        # counting done for the trace runs in spans of this name: their
        # time is kept out of the caller's self time and out of every layer
        self.hook_id = self.intern("trace.hook")

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def hook(self, fn, *args) -> None:
        i = self.open(self.hook_id)
        try:
            fn(*args)
        finally:
            self.close(i)

    def nested_in(self, nid: int) -> bool:
        return bool(self.stack) and self.name[self.stack[-1]] == nid

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _span(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn in a span; a call made directly inside a span of the same
    name (recursion, or one direct-route solver calling the other) is
    folded into the outer span.  `after(result, args)` adds counts."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or tracer.nested_in(nid):
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            tracer.hook(after, out, args, kwargs)
        return out

    return wrapper


def _replace_function(mods, owner, attr: str, wrapper) -> None:
    """Point every jetgeo module's reference to owner.attr at wrapper."""
    orig = getattr(owner, attr)
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    from jetgeo import cli, curvature, expr, family, geodesics, invariants, jets, metric

    mods = [m for n, m in sys.modules.items() if n == "jetgeo" or n.startswith("jetgeo.")]

    def wrap_function(module, attr: str, name: str, after=None) -> None:
        _replace_function(mods, module, attr, _span(tracer, name, getattr(module, attr), after))

    def wrap_method(cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, _span(tracer, name, cls.__dict__[attr], after))

    # jets: space construction, and multiply split into the first call per
    # space (which builds the pair tables) and the rest
    wrap_method(jets.JetSpace, "__init__", "jets.space_build")
    mul = jets.JetSpace.multiply
    mul_id = tracer.intern("jets.multiply")
    build_id = tracer.intern("jets.table_build")

    def density(a, b):
        tracer.count("jets.nnz", int(np.count_nonzero(a)) + int(np.count_nonzero(b)))
        tracer.count("jets.slots", 2 * len(a))

    @functools.wraps(mul)
    def multiply(self, a, b):
        if not tracer.active:
            return mul(self, a, b)
        i = tracer.open(build_id if self._mul_tables is None else mul_id)
        try:
            out = mul(self, a, b)
        finally:
            tracer.close(i)
        tracer.hook(density, a, b)
        return out

    jets.JetSpace.multiply = multiply

    wrap_function(expr, "parse", "expr.parse")
    wrap_function(expr, "eval_jet", "expr.eval_jet")
    wrap_function(expr, "eval_point", "expr.eval_point")

    wrap_method(metric.MetricSpec, "__init__", "metric.spec_build")
    wrap_method(metric.MetricSpec, "value", "metric.value")
    wrap_method(metric.MetricSpec, "validate_at", "metric.validate")
    wrap_function(metric, "load_metric", "metric.load")

    ctx_cls = curvature.CurvatureContext
    wrap_method(ctx_cls, "__init__", "curvature.context_build")

    def level_support(k):
        def after(out, args, kwargs):
            tracer.count(f"curvature.level.{k}.support", len(out))
        return after

    wrap_method(ctx_cls, "_riemann_jets", "curvature.level.0", level_support(0))
    step = ctx_cls.__dict__["_nabla_step"]
    steps = {k: _span(tracer, f"curvature.level.{k}", step, level_support(k))
             for k in range(1, MAX_LEVEL + 1)}

    @functools.wraps(step)
    def nabla_step(self, prev, ord_out):
        k = self.order - 2 - ord_out
        return steps.get(k, step)(self, prev, ord_out)

    ctx_cls._nabla_step = nabla_step
    for attr in ("curvature", "support", "scalar", "ricci", "christoffels",
                 "contract", "contract_open"):
        wrap_method(ctx_cls, attr, "curvature.read")
    wrap_function(curvature, "jacobi_operator", "curvature.operators")
    wrap_function(curvature, "skew_curvature_operator", "curvature.operators")

    # nonzero level-k component counts per context, counted once per context
    # and level
    nonzero: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def combinations(out, args, kwargs):
        ctx = kwargs.get("context", args[3] if len(args) > 3 else None)
        if ctx is None:
            return
        sizes = nonzero.setdefault(ctx, {})
        work = 1
        for k in args[0].factors:
            if k not in sizes:
                sizes[k] = sum(1 for j in ctx._level(k).values() if j.value() != 0.0)
            work *= max(1, sizes[k])
        tracer.count("invariants.combinations", work)

    wrap_function(invariants, "catalog", "invariants.catalog")
    wrap_function(invariants, "random_schemas", "invariants.random_schemas")
    wrap_function(invariants, "evaluate", "invariants.evaluate", combinations)

    wrap_function(family, "alpha_via_jacobi", "family.alpha")
    wrap_function(family, "normalize_frame", "family.frame")
    for attr in ("build_metric", "frame_model_deviation", "quotient_model",
                 "oracle_nabla_k_r", "oracle_delta", "alpha_closed_form", "alpha_prime"):
        wrap_function(family, attr, "family.other")

    pe = geodesics.ChristoffelPointEvaluator
    wrap_method(pe, "__init__", "geodesics.other")
    wrap_method(pe, "force", "geodesics.force")
    wrap_function(geodesics, "adaptive_simpson", "geodesics.quadrature")
    wrap_function(geodesics, "triangular_ivp", "geodesics.direct")
    wrap_function(geodesics, "triangular_bvp", "geodesics.direct")
    wrap_function(geodesics, "integrate_ivp", "geodesics.rk")
    wrap_function(geodesics, "triangular_report", "geodesics.report")
    for attr in ("solve_geodesic", "exp_map", "log_map", "energy_along"):
        wrap_function(geodesics, attr, "geodesics.other")

    wrap_function(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures as {name: (value, unit)}."""
    names = tracer.names
    nid = np.frombuffer(tracer.name, np.int32)
    parent = np.frombuffer(tracer.parent, np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    n = len(names)
    calls = np.bincount(nid, minlength=n)
    busy = np.bincount(nid, weights=dur, minlength=n)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = np.bincount(nid, weights=dur - child, minlength=n)

    def c(name):
        return int(calls[tracer._ids[name]]) if name in tracer._ids else 0

    def s(name):
        return float(busy[tracer._ids[name]]) if name in tracer._ids else 0.0

    cnt = tracer.counts.get
    out: dict[str, tuple[float, str]] = {
        "jets.space_builds": (c("jets.space_build"), "count"),
        "jets.space_build_s": (s("jets.space_build"), "s"),
        "jets.table_build_s": (s("jets.table_build"), "s"),
        "jets.multiply_calls": (c("jets.multiply") + c("jets.table_build"), "count"),
        "jets.multiply_s": (s("jets.multiply"), "s"),
        "jets.multiply_density": (cnt("jets.nnz", 0) / max(cnt("jets.slots", 0), 1), "nnz/slot"),
        "expr.eval_jet_calls": (c("expr.eval_jet"), "count"),
        "expr.eval_jet_s": (s("expr.eval_jet"), "s"),
        "expr.eval_point_calls": (c("expr.eval_point"), "count"),
        "metric.value_calls": (c("metric.value"), "count"),
        "metric.value_s": (s("metric.value"), "s"),
        "curvature.context_builds": (c("curvature.context_build"), "count"),
        "curvature.context_build_s": (s("curvature.context_build"), "s"),
    }
    for k in range(MAX_LEVEL + 1):
        out[f"curvature.level.{k}.s"] = (s(f"curvature.level.{k}"), "s")
        out[f"curvature.level.{k}.support"] = (cnt(f"curvature.level.{k}.support", 0), "count")
    out.update({
        "curvature.operators_s": (s("curvature.operators"), "s"),
        "invariants.catalog_s": (s("invariants.catalog"), "s"),
        "invariants.evaluate_calls": (c("invariants.evaluate"), "count"),
        "invariants.evaluate_s": (s("invariants.evaluate"), "s"),
        "invariants.combinations": (cnt("invariants.combinations", 0), "count"),
        "family.alpha_calls": (c("family.alpha"), "count"),
        "family.alpha_s": (s("family.alpha"), "s"),
        "family.frame_s": (s("family.frame"), "s"),
        "geodesics.force_calls": (c("geodesics.force"), "count"),
        "geodesics.force_s": (s("geodesics.force"), "s"),
        "geodesics.quadrature_s": (s("geodesics.quadrature"), "s"),
        "geodesics.direct_s": (s("geodesics.direct"), "s"),
        "geodesics.rk_s": (s("geodesics.rk"), "s"),
        "geodesics.report_s": (s("geodesics.report"), "s"),
        "cli.main_s": (s("cli.main"), "s"),
    })
    for mod in MODULES:
        total = sum(float(own[i]) for i, nm in enumerate(names) if nm.split(".")[0] == mod)
        out[f"{mod}.self_s"] = (total, "s")
    return out
