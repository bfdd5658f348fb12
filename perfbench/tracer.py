"""Span tracer that instruments nilcarnot from the outside.

``Tracer.install`` wraps the public functions of each layer.  Modules
bind names with ``from .group import bch``, so a function is replaced in
every ``nilcarnot`` module that holds it, not only where it is defined;
``uninstall`` puts every original binding back.  Each wrapped call is a
span with a name, a start, an end and a parent.  Spans are kept in
memory (up to ``SPAN_CAP``; later ones are only counted) and written out
by ``write``.  Self time (duration minus the direct child spans) and call
counts are aggregated as spans close, so the per-layer numbers cover
every span, stored or not.

Deterministic counters (calls, quadrature evaluations, zigzag segments,
fixed-point iterations) are kept apart from timings (``self_s``).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name); the span name's first part is the layer
WRAPPED = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve_exact", "linalg.solve_exact"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("algebra", "bracket", "algebra.bracket"),
    ("algebra", "bracket_float", "algebra.bracket_float"),
    ("algebra", "validate_algebra", "algebra.validate_algebra"),
    ("group", "quasi_norm", "group.quasi_norm"),
    ("group", "dilate", "group.dilate"),
    ("rng", "sample_ball_point", "rng.sample_ball_point"),
    ("carnot", "decompose", "carnot.decompose"),
    ("carnot", "integrate_bracket_form", "carnot.integrate_bracket_form"),
    ("shear", "loop_test_membership", "shear.loop_test_membership"),
    ("shear", "build_shear", "shear.build_shear"),
    ("shear", "apply_shear", "shear.apply_shear"),
    ("shear", "bilip_estimate", "shear.bilip_estimate"),
    ("shear", "necessity_check", "shear.necessity_check"),
    ("maps", "conjugate_by_shear", "maps.conjugate_by_shear"),
    ("maps", "extract_compatible", "maps.extract_compatible"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("linalg", "algebra", "group", "rng", "quadrature", "carnot", "exprlang", "shear", "maps", "cli")

# spans past this many are aggregated but not stored
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per stored span, in closing order
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("q")
        self.start_s = array("d")
        self.end_s = array("d")
        self.next_id = 0
        self.dropped = 0
        self._stack: list[list] = []  # [span id, start, child seconds, layer]
        self._patches: list[tuple] = []
        self.reset()

    # -- aggregation -------------------------------------------------------

    def reset(self):
        """Start a new aggregation window (the stored spans are kept)."""
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list] = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def enter(self, layer):
        frame = [self.next_id, time.perf_counter(), 0.0, layer]
        self.next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame, name, failed=False):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        sid, start, child, layer = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if failed:
            # count an exception once per layer it leaves
            if parent is None or parent[3] != layer:
                self.errors[layer] = self.errors.get(layer, 0) + 1
        if sid < SPAN_CAP:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_id.append(sid)
            self.parent_id.append(parent[0] if parent is not None else -1)
            self.name_id.append(nid)
            self.start_s.append(start)
            self.end_s.append(end)
        else:
            self.dropped += 1

    def span(self, name, fn, name_of_result=None, on_result=None):
        """Wrap fn in a span; name_of_result picks the name from the result."""
        tracer = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame, name, failed=True)
                raise
            tracer.exit(frame, name_of_result(result) if name_of_result else name)
            if on_result is not None:
                result = on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace every nilcarnot module binding of ``original``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "nilcarnot" or modname.startswith("nilcarnot.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        import nilcarnot.cli  # noqa: F401  (load every layer before scanning bindings)
        from nilcarnot import algebra, carnot, group, maps, quadrature, shear

        for modname, attr, name in WRAPPED:
            original = getattr(importlib.import_module(f"nilcarnot.{modname}"), attr)
            self._rebind(original, self.span(name, original))

        # one bch entry point serves both scalar modes; the result tells which ran
        self._rebind(
            group.bch,
            self.span(
                "group.bch",
                group.bch,
                name_of_result=lambda r: "group.bch_float" if type(r[0]) is float else "group.bch_exact",
            ),
        )
        self._rebind(quadrature.integrate_vector, self._integrate_vector(quadrature.integrate_vector))
        self._rebind(carnot.horizontal_connect, self.span(
            "carnot.horizontal_connect", carnot.horizontal_connect, on_result=self._count_segments,
        ))
        self._rebind(maps.solve_single_generator_fixed_point, self.span(
            "maps.solve_single_generator_fixed_point",
            maps.solve_single_generator_fixed_point,
            on_result=self._count_iterations,
        ))
        self._rebind(shear.lift, self.span("shear.lift", shear.lift, on_result=self._wrap_lifted))
        # expression components are built here; their evaluations are the exprlang layer
        self._rebind(shear.component_from_exprs, self._component_from_exprs(shear.component_from_exprs))

        cls = algebra.GradedAlgebra
        original_eq = cls.__dict__["__eq__"]
        self._patches.append((cls, "__eq__", original_eq))
        cls.__eq__ = self.span("algebra.key_eq", original_eq)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- result and argument hooks -------------------------------------------

    def _integrate_vector(self, integrate_vector):
        """Count integrand evaluations per quadrature call."""
        tracer = self
        traced = self.span("quadrature.integrate_vector", integrate_vector)

        def counted_integrate(f, a, b, *args, **kwargs):
            evals = [0]

            def counted(t):
                evals[0] += 1
                return f(t)

            try:
                return traced(counted, a, b, *args, **kwargs)
            finally:
                tracer.count("quadrature.evals", evals[0])
                tracer.sample("quadrature.evals_per_call", evals[0])

        return counted_integrate

    def _count_segments(self, path):
        self.count("carnot.zigzag.paths")
        self.count("carnot.zigzag.segments", path.segment_count)
        return path

    def _count_iterations(self, result):
        self.count("maps.fixed_point.iterations", result[1].iterations)
        return result

    def _wrap_lifted(self, component):
        """Lifted evaluations; a hit is one answered without a quadrature."""
        tracer = self
        traced = self.span("shear.lift.eval", component.eval)

        def evaluate(q):
            before = tracer.calls.get("quadrature.integrate_vector", 0)
            value = traced(q)
            if tracer.calls.get("quadrature.integrate_vector", 0) == before:
                tracer.count("shear.lift.hits")
            return value

        return dataclasses.replace(component, eval=evaluate)

    def _component_from_exprs(self, component_from_exprs):
        tracer = self

        def build(*args, **kwargs):
            component = component_from_exprs(*args, **kwargs)
            evaluate = tracer.span("exprlang.component_evals", component.eval)
            return dataclasses.replace(component, eval=evaluate)

        return build

    # -- output ----------------------------------------------------------------

    def write(self, path, origin):
        """Write the stored spans as JSON lines: a header, then one row per span.

        Times are seconds from ``origin``; rows are in closing order.
        """
        header = {
            "names": self.names,
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "stored": len(self.span_id),
            "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s, p, n, a, b in zip(self.span_id, self.parent_id, self.name_id, self.start_s, self.end_s):
                fh.write(f"[{s},{p},{n},{a - origin:.9f},{b - origin:.9f}]\n")
