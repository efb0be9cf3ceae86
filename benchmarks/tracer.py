"""Outside-in tracer for the extcalc layers.

Wraps, from outside the package, every public function of the extcalc
modules, in every extcalc module that binds it (``from .algebra import
wedge`` makes a second binding, and ``cli`` holds aliases such as
``algebra_dot``), plus a fixed list of methods.  Each wrapped call records a
span (name, start, end, parent, check id).  Self time is a span's duration
minus the time its child spans cover.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array
from collections import Counter

LAYERS = ("algebra", "fields", "integrate", "maxwell", "energy", "serialize", "cli")

# methods wrapped as spans, by layer and class
SPAN_METHODS = {
    "algebra": {"Multivector": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                                "__truediv__", "__xor__")},
    "fields": {"AnalyticField": ("evaluate", "partial_at", "evaluate_components"),
               "GridField": ("evaluate", "partial_at")},
    "energy": {"QuadraticTensorField": ("evaluate", "divergence")},
}

# spans beyond this many are aggregated but not kept, to bound memory
MAX_KEPT_SPANS = 400_000

_POINT_EVALS = {"fields.AnalyticField.evaluate", "fields.AnalyticField.partial_at",
                "fields.GridField.evaluate", "fields.GridField.partial_at"}


class Tracer:
    """Collects spans and counters while installed.

    Spans named in ``per_check`` also get their durations summed per check,
    which stays exact when kept spans run out.
    """

    def __init__(self, per_check: tuple[str, ...] = ()):
        self.per_check = set(per_check)
        self.check_ns = Counter()
        self.check_calls = Counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # kept spans, one column per field
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_check = array("i")
        self.dropped = 0
        # aggregates over every span, kept or not
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        # open spans: [name id, start, child time, kept index]
        self._stack: list[list[int]] = []
        self.check = -1
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping ----------------------------------------------------------

    def _span(self, name: str, fn, count=None):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter_ns
        point_eval = name in _POINT_EVALS
        per_check = name in self.per_check

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            if len(self.span_start) < MAX_KEPT_SPANS:
                kept = len(self.span_start)
                self.span_name.append(nid)
                self.span_start.append(0)
                self.span_end.append(0)
                self.span_parent.append(parent)
                self.span_check.append(self.check)
            else:
                kept = -1
                self.dropped += 1
            if point_eval and not (stack and self.names[stack[-1][0]] in _POINT_EVALS):
                self.counts["fields.point_evals"] += 1
            frame = [nid, 0, 0, kept]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.total_ns[nid] += duration
                self.self_ns[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if kept >= 0:
                    self.span_start[kept] = start
                    self.span_end[kept] = end
                if per_check:
                    self.check_ns[nid, self.check] += duration
                    self.check_calls[nid, self.check] += 1
            if count is not None:
                count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _quadrature(self, fn):
        """Counts boxes and nodes; the generator's time stays with its consumer."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["integrate.boxes"] += 1
            for node in fn(*args, **kwargs):
                counts["integrate.nodes"] += 1
                yield node

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_for(self, name: str):
        """The counter update run after a call of the named span, if any."""
        counts = self.counts
        if name == "fields.AnalyticField.evaluate":
            def count(args, result):
                counts["fields.mode_evals"] += len(args[0].modes)
        elif name == "fields.AnalyticField.evaluate_components":
            def count(args, result):
                counts["fields.batched_rows"] += len(result)
                counts["fields.mode_evals"] += len(result) * len(args[0].modes)
        elif name == "energy.synthesize_on_cone_potential":
            def count(args, result):
                counts["energy.synth_modes"] += len(result.modes)
        elif name == "serialize.canonical_dumps":
            def count(args, result):
                counts["serialize.bytes_out"] += len(result)
        else:
            count = None
        return count

    def install(self) -> None:
        package = importlib.import_module("extcalc")
        modules = [importlib.import_module(f"extcalc.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{module.__name__.split('.')[-1]}.{value.__name__}"
                wrappers[id(value)] = self._span(name, value, self._count_for(name))
        # rebind every reference by identity, aliases and re-exports included
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        for layer, classes in SPAN_METHODS.items():
            module = importlib.import_module(f"extcalc.{layer}")
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                done: dict[int, object] = {}
                for method in methods:
                    original = cls.__dict__[method]
                    wrapper = done.get(id(original))
                    if wrapper is None:
                        name = f"{layer}.{cls_name}.{method}"
                        wrapper = done[id(original)] = self._span(name, original, self._count_for(name))
                    self._set(cls, method, wrapper)
        integrate = importlib.import_module("extcalc.integrate")
        self._set(integrate.HypersurfaceBox, "quadrature",
                  self._quadrature(integrate.HypersurfaceBox.quadrature))
        self._set(integrate.HypersurfaceBox, "grid_points",
                  self._span("integrate.HypersurfaceBox.grid_points",
                             integrate.HypersurfaceBox.grid_points))
        algebra = importlib.import_module("extcalc.algebra")
        self._set(algebra.Multivector, "__init__",
                  self._counter("algebra.mv_new", algebra.Multivector.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_of(self, nid: int) -> str:
        return self.names[nid].split(".", 1)[0]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for nid, calls in self.calls.items():
            layer = out[self.layer_of(nid)]
            layer["self_s"] += self.self_ns[nid] / 1e9
            layer["calls"] += calls
        return out

    def mean_us(self, name: str, checks: set[int] | None = None) -> float:
        """Mean inclusive duration of one span name, in microseconds, over all
        calls or over the calls made in the given checks (``per_check`` names)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        if checks is None:
            total, calls = self.total_ns[nid], self.calls[nid]
        else:
            total = sum(self.check_ns[nid, c] for c in checks)
            calls = sum(self.check_calls[nid, c] for c in checks)
        return total / calls / 1e3 if calls else 0.0

    def dump(self, handle, check_ids: list[str]) -> None:
        """Write the kept spans as tab-separated text: name, start, end, parent, check."""
        handle.write(f"# spans kept {len(self.span_name)}, dropped {self.dropped}\n")
        handle.write("name\tstart_ns\tend_ns\tparent\tcheck\n")
        for i in range(len(self.span_name)):
            check = self.span_check[i]
            handle.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\t{self.span_parent[i]}\t"
                         f"{check_ids[check] if check >= 0 else '-'}\n")
