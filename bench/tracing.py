"""Per-layer tracing of the library, installed from outside.

``Tracer.install`` replaces the public functions and methods of each
library module with timing wrappers, in every module namespace and
module-level dict that holds them, and ``Tracer.restore`` puts the
originals back. Nothing in the library is edited.

Two kinds of wrapper:

* Layer functions (every module except ``ring``) keep per-function call
  counts, inclusive time and self time, and record a span
  ``(id, parent id, name, start, end)`` whenever the call enters a layer
  from a different one. Self time is the call's duration minus the time
  of the traced calls nested in it, so it equals the span rule "duration
  minus what child spans cover" applied to every traced call.
* Ring primitives only update aggregate counters, so memory stays bounded
  however many arithmetic operations a job makes. ``Poly.gcd`` is opaque:
  polynomial arithmetic inside a gcd is part of the gcd's self time and is
  not counted as ``poly_mul``/``poly_add``, and recursive gcd calls are
  not counted again.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = (
    "ring",
    "linalg",
    "algebroid",
    "constructions",
    "duality",
    "hierarchy",
    "deformation",
    "exprparse",
    "report",
    "cli",
)

# (class name, attribute) -> counter name, for the ring primitives.
RING_PRIMITIVES = {
    ("Poly", "gcd"): "ring.gcd",
    ("Poly", "__mul__"): "ring.poly_mul",
    ("Poly", "__add__"): "ring.poly_add",
    ("RatFunc", "__add__"): "ring.ratfunc_add",
    ("RatFunc", "__sub__"): "ring.ratfunc_add",
    ("RatFunc", "__mul__"): "ring.ratfunc_mul",
    ("RatFunc", "derivative"): "ring.derivative",
}

# JetPoly products are the hierarchy's hot path; the class is public, but
# its operators are dunders, which layer wrapping skips.
EXTRA_OPERATORS = {("hierarchy", "JetPoly", "__mul__"): "hierarchy.jet_mul"}

MAX_SPANS = 200_000


class Tracer:
    """Counters, self times and layer-entry spans for one traced run."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.gcd_nontrivial = 0
        self.gcd_max_terms = 0
        self.same_den = 0
        self.witness_on_pass = 0
        self._stack: list[list] = []  # [name, layer, start, child_s, span_id]
        self._opaque = 0
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- bookkeeping ---------------------------------------------------

    def _enter(self, name: str, layer: str, span: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        span_id = 0
        if span and (parent is None or parent[1] != layer):
            span_id = self._next_id
            self._next_id += 1
        frame = [name, layer, time.perf_counter(), 0.0, span_id, parent[4] if parent else 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[3]
        if self._stack:
            self._stack[-1][3] += dur
        if frame[4]:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[4], frame[5], frame[0], frame[2], end))
            else:
                self.dropped_spans += 1

    # -- wrappers --------------------------------------------------------

    def _layer_wrapper(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, layer, True)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _ring_wrapper(self, fn, name: str):
        tracer = self
        if name == "ring.gcd":

            def traced(a, b):
                if tracer._opaque:
                    return fn(a, b)
                frame = tracer._enter(name, "ring", False)
                tracer._opaque += 1
                try:
                    g = fn(a, b)
                finally:
                    tracer._opaque -= 1
                    tracer._exit(frame)
                if not g.is_constant():
                    tracer.gcd_nontrivial += 1
                size = max(len(a.terms), len(b.terms))
                if size > tracer.gcd_max_terms:
                    tracer.gcd_max_terms = size
                return g

        elif name == "ring.ratfunc_add":

            def traced(a, b):
                if tracer._opaque:
                    return fn(a, b)
                if a.den.terms == b.den.terms:
                    tracer.same_den += 1
                frame = tracer._enter(name, "ring", False)
                try:
                    return fn(a, b)
                finally:
                    tracer._exit(frame)

        else:

            def traced(*args):
                if tracer._opaque:
                    return fn(*args)
                frame = tracer._enter(name, "ring", False)
                try:
                    return fn(*args)
                finally:
                    tracer._exit(frame)

        traced.__wrapped__ = fn
        return traced

    def _report_add_wrapper(self, fn, name: str):
        tracer = self

        def traced(report, law, instance, passed, witness=None):
            if witness is not None and passed:
                tracer.witness_on_pass += 1
            frame = tracer._enter(name, "report", True)
            try:
                return fn(report, law, instance, passed, witness)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        return traced

    # -- install / restore ------------------------------------------------

    def _modules(self):
        return {layer: sys.modules[f"falgebroid.{layer}"] for layer in LAYERS}

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            for cname, cls in vars(mod).items():
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__ or cname.startswith("_"):
                    continue
                for attr, raw in list(vars(cls).items()):
                    name = RING_PRIMITIVES.get((cname, attr)) or EXTRA_OPERATORS.get((layer, cname, attr))
                    if layer == "ring" and name is None:
                        continue
                    if name is None and (attr.startswith("_") or isinstance(raw, property)):
                        continue
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    if not inspect.isfunction(fn):
                        continue
                    if name is None:
                        name = f"{layer}.{attr}"
                    if layer == "ring":
                        wrapper = self._ring_wrapper(fn, name)
                    elif (cname, attr) == ("Report", "add"):
                        wrapper = self._report_add_wrapper(fn, name)
                    else:
                        wrapper = self._layer_wrapper(fn, name, layer)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)
            if layer == "ring":
                continue
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                replaced[id(fn)] = self._layer_wrapper(fn, f"{layer}.{fname}", layer)
        # rebind every reference to a wrapped function: the defining module,
        # modules that imported it by name, and module-level dispatch dicts
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._patches.append((mod, key, value))
                    setattr(mod, key, replaced[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dk, dv in list(value.items()):
                        if inspect.isfunction(dv) and id(dv) in replaced:
                            self._patches.append((value, dk, dv))
                            value[dk] = replaced[id(dv)]
        return self

    def restore(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, *names: str) -> float:
        return sum((self.stats.get(n, [0, 0.0, 0.0])[2] for n in names), 0.0)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, s) in self.stats.items():
            out[name.split(".", 1)[0]] += s
        return out
