"""Layer tracer that wraps idealgate's public functions from outside the package.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces every public
module-level function of each layer module with a timing wrapper, in every
``idealgate`` module namespace that binds it (modules import each other's
functions with ``from .exactarith import factorize``, so patching the defining
module alone would miss those calls).  A few public methods are wrapped on
their class, and ``ProductRing``'s per-element methods are counted only.

Each span has a name, a start, an end and a parent.  Spans are folded into
per-name totals as they close, so memory stays flat even when one census
opens 10^5 spans: the open spans sit on a stack that carries the time their
children covered, and self time is the span's duration minus that.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("exactarith", "lattice", "finite", "census", "probability", "cli")

# Public methods timed as spans, per (layer, class).
SPAN_METHODS = {
    ("finite", "FiniteSubgroup"): ("order", "materialize"),
    ("lattice", "IdealWitness"): ("holds_for",),
}

# Per-element methods: counted, not timed (a span around each would cost more
# than the method itself).
COUNTED_METHODS = {
    ("finite", "ProductRing"): (
        "add", "neg", "scale", "mul", "reduce", "project", "element_order",
    ),
}


class Tracer:
    """Collects call counts, busy time and self time per span name.

    ``busy_ns[name]`` counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.  ``counts`` holds exact counts
    that are not spans: counted methods and result sizes.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.busy_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._active: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.busy_ns.clear()
        self.counts.clear()

    def _span(self, name: str, fn, post=None):
        stack = self._stack
        active = self._active
        calls, self_ns, busy_ns = self.calls, self.self_ns, self.busy_ns

        def wrapper(*args, **kwargs):
            frame = [name, perf_counter_ns(), 0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                active[name] -= 1
                calls[name] += 1
                self_ns[name] += duration - frame[2]
                if not active[name]:
                    busy_ns[name] += duration
                if stack:
                    stack[-1][2] += duration
            if post is not None:
                post(self, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, package: str = "idealgate") -> None:
        """Wrap every layer's public functions in all modules of the package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from another layer; wrapped there
                wrapped = self._span(f"{layer}.{attr}", obj, POST_HOOKS.get(f"{layer}.{attr}"))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._undo.append((ns, key, value))
                            setattr(ns, key, wrapped)
            for (hook_layer, cls_name), methods in SPAN_METHODS.items():
                if hook_layer == layer:
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        original = vars(cls)[meth]
                        self._undo.append((cls, meth, original))
                        setattr(cls, meth, self._span(f"{layer}.{cls_name}.{meth}", original))
            for (hook_layer, cls_name), methods in COUNTED_METHODS.items():
                if hook_layer == layer:
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        original = vars(cls)[meth]
                        self._undo.append((cls, meth, original))
                        setattr(cls, meth, self._counted(f"{layer}.{cls_name}.{meth}.calls", original))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Flat metric map: <span>.calls / .self_s / .busy_s, <layer>.self_s, counts."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{name}.busy_s"] = self.busy_ns[name] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                ns for name, ns in self.self_ns.items() if name.split(".", 1)[0] == layer
            ) / 1e9
        out.update(self.counts)
        return out


def record_cache(tracer: Tracer, cached) -> None:
    """Kernel-lattice lookups and hits, read from the cache's own counters.

    ``cached`` is the original ``lru_cache`` object, not a trace wrapper.
    """
    info = cached.cache_info()
    tracer.counts["finite.kernel_lattice.hits"] += info.hits
    tracer.counts["finite.kernel_lattice.lookups"] += info.hits + info.misses


def _closure_post(tracer: Tracer, result) -> None:
    tracer.counts["finite.closure.elements"] += len(result)


def _census_post(tracer: Tracer, result) -> None:
    tracer.counts["census.subgroups_found"] += len(result.members)
    tracer.counts["census.elements_materialized"] += sum(len(m.elements) for m in result.members)


POST_HOOKS = {
    "finite.closure": _closure_post,
    "census.enumerate_subgroups_bruteforce": _census_post,
}
