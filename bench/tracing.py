"""Span tracing of the knotinv layers, installed from outside the package.

Every public function in ``__all__`` of a layer module is replaced, in every
``knotinv`` module namespace that binds it, by a wrapper that records a span.
``determinant``, for example, is bound in ``statesum``, ``invariants``,
``cli`` and the package itself, and all four names get the same wrapper, so
a call is traced whichever global it goes through.  The public methods of
``LaurentPoly`` are wrapped on the class.  ``uninstall`` puts every patched
attribute back.

Spans are aggregated as they close, per name and per (parent, name) edge,
instead of being kept one by one: a pass over the obstruction table opens
about a million of them.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("textio", "diagram", "statesum", "decomp", "invariants", "laurent", "cli")
PACKAGE = "knotinv"
BRACKET = "statesum.kauffman_bracket"
# LaurentPoly members that are public API although their names start with "_":
# construction (the dataclass __init__ calls __post_init__) and the operators.
_POLY_DUNDERS = ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__", "__eq__", "__str__")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps the knotinv layers and aggregates the spans they record."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.edges: dict[tuple[str, str], _Stat] = {}
        self.stack: list[list] = []  # open spans: [name, child_s]
        self.bracket_refused = 0
        self.bracket_states = 0
        self.bracket_repeats = 0
        self._bracketed: set = set()  # diagrams bracketed in the current record
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, frame: list, dur: float) -> None:
        stack = self.stack
        stack.pop()
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][1] += dur
        self_s = dur - frame[1]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        st.calls += 1
        st.total_s += dur
        st.self_s += self_s
        ed = self.edges.get((parent, name))
        if ed is None:
            ed = self.edges[(parent, name)] = _Stat()
        ed.calls += 1
        ed.total_s += dur
        ed.self_s += self_s

    def span(self, name: str):
        """Context manager recording a span the benchmark opens itself."""
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        self.stats.setdefault(name, _Stat())  # report functions that never ran as 0
        stack = self.stack
        close = self._close

        def traced(*args, **kwargs):
            if not stack:
                self._bracketed.clear()  # a top-level span starts a new record
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, perf_counter() - t0)

        if name != BRACKET:
            return functools.update_wrapper(traced, fn)
        refused = importlib.import_module(f"{PACKAGE}.statesum").CrossingLimitError

        def traced_bracket(d, *args, **kwargs):
            if not stack:
                self._bracketed.clear()
            if d in self._bracketed:
                self.bracket_repeats += 1
            self._bracketed.add(d)
            try:
                out = traced(d, *args, **kwargs)
            except refused:
                self.bracket_refused += 1
                raise
            self.bracket_states += 2 ** d.crossing_count
            return out

        return functools.update_wrapper(traced_bracket, fn)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, key, wrapper)
        poly = modules["laurent"].LaurentPoly
        for attr, raw in list(vars(poly).items()):
            if attr.startswith("_") and attr not in _POLY_DUNDERS:
                continue
            name = f"laurent.LaurentPoly.{attr}"
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._patch(poly, attr, new)

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out

    def summary(self) -> dict:
        """Plain-data snapshot of everything recorded, for ``run.py``."""
        calls = self.stats.get(BRACKET)
        n = calls.calls if calls else 0
        return {
            "spans": {k: [s.calls, s.total_s, s.self_s] for k, s in self.stats.items()},
            "edges": [[p, c, s.calls, s.total_s, s.self_s] for (p, c), s in self.edges.items()],
            "layers": self.layer_self_s(),
            "bracket": {
                "calls": n,
                "refused": self.bracket_refused,
                "states": self.bracket_states,
                "repeats": self.bracket_repeats,
            },
        }


class _Span:
    __slots__ = ("tracer", "name", "frame", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = [self.name, 0.0]
        self.tracer.stack.append(self.frame)
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.frame, perf_counter() - self.t0)

