"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each entrofun module (the
*layers*) at every name under which a module looks them up: the module's own
attribute, which covers intra-module calls and ``module.attr`` lookups such
as ``asymptotics`` -> ``coeffs.geg_C_ladder``, and each ``from .x import y``
binding, such as ``entrofun.oracle.polynomial_zeros``.  ``Series.__mul__``
is wrapped on the class.  ``logvalue`` and ``functional`` are thin value
types and are not wrapped; their cost lands in their callers' self time.

Each call records a span (name, start, end, parent) in flat arrays; self
time is a span's duration minus the duration of its direct children.
Nothing is patched until :meth:`Tracer.install` and everything is restored
by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("orthopoly", "series", "coeffs", "closedforms", "oracle",
          "asymptotics", "cli")


class Tracer:
    def __init__(self, on_result=None):
        # on_result(name, args, result, parent) sees every traced return
        # value; parent is the calling span's name, or None at top level
        self.on_result = on_result
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = f"{name}:{type(exc).__name__}"
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if tracer.on_result is not None:
                parent = tracer.names[names[stack[-1]]] if stack else None
                tracer.on_result(name, args, result, parent)
            return result
        return traced

    def install(self) -> None:
        """Patch every lookup site of every public layer function."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "entrofun" or n.startswith("entrofun.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"entrofun.{layer}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for site in mods:
                    for key, val in list(vars(site).items()):
                        if val is fn:
                            self._patch(site, key, traced)
        from entrofun.series import Series
        traced_mul = self._wrap("series.Series.__mul__", Series.__mul__)
        self._patch(Series, "__mul__", traced_mul)
        self._patch(Series, "__rmul__", traced_mul)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls; inclusive seconds, over the outermost spans
        of that name so recursion is not counted twice; self seconds; and
        the seconds of the spans called from another layer (or from the
        benchmark itself)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "entry_s": 0.0}
               for name in self.names}
        layer = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            nid = self.span_name[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if self.ancestor(i, nid) < 0:
                rec["incl_s"] += dur[i]
            p = self.span_parent[i]
            if p < 0 or layer[self.span_name[p]] != layer[nid]:
                rec["entry_s"] += dur[i]
        return out

    def ancestor(self, i: int, nid: int) -> int:
        """Index of the nearest enclosing span named names[nid], or -1."""
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return p
            p = self.span_parent[p]
        return -1

    def spans(self, name: str):
        nid = self.name_id.get(name)
        return [i for i in range(len(self.span_name)) if self.span_name[i] == nid]
