"""Spans and counters around the public functions of each ``qdiv`` layer.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper in every ``qdiv`` module that holds the function by name
(``info`` and ``protocols`` keep their own ``induced_renyi``, for example, so
patching ``qdiv.induced`` alone would miss those calls).  ``_roots`` is
reached by module attribute, so rebinding it there covers its callers.  On
top of the function spans it adds:

* a counting, timing wrapper on ``numpy.linalg.eigh`` and ``eigvalsh``;
* a span around each outermost validating constructor of ``linalg``;
* counters of root-finder evaluations, induced-margin evaluations,
  mirror-descent iterations and simplex-objective calls.

Spans (name, start, end, parent) and counters stay in memory; ``spans()``
returns them for writing when the run ends.  A layer's self time is the
duration of its spans minus the time covered by their child spans; an
``eigh`` call counts as a child span of ``linalg``.  ``uninstall`` restores
every binding it replaced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "states", "divergences", "_roots", "induced", "info", "protocols")
VALIDATING = ("HermitianOperator", "PositiveOperator", "DensityOperator")
EIGH_FNS = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, layer, child seconds, start]
        self._depth = dict.fromkeys(LAYERS + ("bench",), 0)
        self.count = defaultdict(int)
        self.seconds = defaultdict(float)
        self.max_dim = defaultdict(int)
        self._validating = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int, layer: str, entry: bool = True) -> None:
        stack = self._stack
        if entry and (not stack or stack[-1][1] != layer):
            self.count[f"{layer}.calls"] += 1  # calls into the layer from outside it
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        self._depth[layer] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        stack.append([idx, layer, 0.0, start])

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, layer, child, start = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.seconds[f"{layer}.self_s"] += dur - child
        self._depth[layer] -= 1
        if self._stack:
            self._stack[-1][2] += dur

    def _note_dim(self, dim: int) -> None:
        for layer, depth in self._depth.items():
            if depth and dim > self.max_dim[layer]:
                self.max_dim[layer] = dim

    def span(self, fn, layer: str, name: str):
        """Wrap ``fn`` so each call records a span of ``layer``."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name_id, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def _caller_layer(self) -> str:
        """Layer of the span below the innermost one (the caller of a wrapper)."""
        return self._stack[-2][1] if len(self._stack) > 1 else "bench"

    # -- layer-specific wrappers --------------------------------------------

    def _eigh(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            start = time.perf_counter()
            out = fn(a, *args, **kwargs)
            dur = time.perf_counter() - start
            shape = np.shape(a)
            n = shape[-1]
            self.count["linalg.eigh_calls"] += 1
            self.count["linalg.eigh_n3_sum"] += int(np.prod(shape[:-2], dtype=np.int64)) * n**3
            self.seconds["linalg.eigh_s"] += dur
            for layer, depth in self._depth.items():
                if depth:
                    self.count[f"{layer}.eigh_calls"] += 1
            self._note_dim(n)
            if self._stack:
                self._stack[-1][2] += dur
            return out

        return counted

    def _constructor(self, init, cls_name: str):
        name_id = self._name_id(f"linalg.{cls_name}")

        @functools.wraps(init)
        def validating(obj, *args, **kwargs):
            if self._validating:  # super().__init__ of an outer constructor
                return init(obj, *args, **kwargs)
            self._validating = True
            self._enter(name_id, "linalg")
            start = self._stack[-1][3]
            try:
                return init(obj, *args, **kwargs)
            finally:
                self._exit()
                self._validating = False
                self.count["linalg.validations"] += 1
                self.seconds["linalg.validate_s"] += time.perf_counter() - start
                self._note_dim(getattr(obj, "dim", 0))

        return validating

    def _counted_fn(self, fn, counter: str, layer: str | None = None):
        """Count calls of a callback; with ``layer``, also record it as a span."""
        name_id = self._name_id(f"{layer}.root_fn") if layer else None

        def counted(*args, **kwargs):
            self.count[counter] += 1
            if name_id is None:
                return fn(*args, **kwargs)
            self._enter(name_id, layer, entry=False)  # a callback, not a call into the layer
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return counted

    def _root_finder(self, fn, name: str):
        def counting(f, *args, **kwargs):
            if name == "bisect_decreasing":
                self.count["_roots.solves"] += 1
            return fn(self._counted_fn(f, "_roots.f_evals", self._caller_layer()), *args, **kwargs)

        return self.span(functools.wraps(fn)(counting), "_roots", f"_roots.{name}")

    def _margin_factory(self, factory):
        @functools.wraps(factory)
        def counting(parent, *args, **kwargs):
            return self._counted_fn(factory(parent, *args, **kwargs), "induced.margin_evals")

        return counting

    def _minimize_density(self, fn):
        sig = inspect.signature(fn)

        def counting(value_and_grad, *args, **kwargs):
            bound = sig.bind(value_and_grad, *args, **kwargs)
            bound.apply_defaults()
            sigma, value, iterations, residual = fn(
                self._counted_fn(value_and_grad, "info.md_objective_calls"), *args, **kwargs
            )
            self.count["info.md_iters"] += iterations
            # The loop leaves with residual 0.0 only when no step was accepted
            # in its last iteration; every other iteration accepted one step.
            self.count["info.md_accepted"] += iterations - (1 if residual == 0.0 else 0)
            if iterations >= bound.arguments["max_iter"] and residual > bound.arguments["tol"]:
                self.count["info.md_cap_hits"] += 1
            return sigma, value, iterations, residual

        return functools.wraps(fn)(counting)

    def _maximize_simplex(self, fn):
        def counting(value_and_grad, *args, **kwargs):
            return fn(self._counted_fn(value_and_grad, "info.simplex_objective_calls"), *args, **kwargs)

        return functools.wraps(fn)(counting)

    # -- install / uninstall -------------------------------------------------

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        mods = {layer: sys.modules[f"qdiv.{layer}"] for layer in LAYERS}
        special = {
            ("info", "minimize_density"): self._minimize_density,
            ("info", "maximize_simplex"): self._maximize_simplex,
        }
        replacement: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if layer == "_roots":
                    replacement[id(obj)] = self._root_finder(obj, name)
                    continue
                inner = special.get((layer, name), lambda f: f)(obj)
                replacement[id(obj)] = self.span(inner, layer, f"{layer}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qdiv" and not mod_name.startswith("qdiv."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacement and inspect.isfunction(obj):
                    self._patch(mod, name, replacement[id(obj)])
        linalg = mods["linalg"]
        for cls_name in VALIDATING:
            cls = getattr(linalg, cls_name)
            self._patch(cls, "__init__", self._constructor(cls.__dict__["__init__"], cls_name))
        pd = mods["induced"].ParentDivergence
        self._patch(pd, "margin_factory", self._margin_factory(pd.__dict__["margin_factory"]))
        for name in EIGH_FNS:
            self._patch(np.linalg, name, self._eigh(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    # -- results -------------------------------------------------------------

    def spans(self, origin: float) -> dict:
        """Span table with times in seconds from ``origin``."""
        return {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start": [round(t - origin, 7) for t in self.span_start],
            "end": [round(t - origin, 7) for t in self.span_end],
        }
