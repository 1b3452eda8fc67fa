"""Traced mode: spans around shiftop's public functions, kept in memory.

The wrappers live here, in the benchmark, and are installed by replacing
module attributes; shiftop itself is unchanged.  Each span records its
name, start, end, parent span and an amount (points evaluated, bytes of a
dense matrix).  Spans stay in flat arrays until the run ends, then are
written out and summarised per name as calls, total time and self time
(total minus the time of direct children).
"""

from __future__ import annotations

import gzip
import weakref
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import shiftop
from shiftop import analysis, circle, cli, exprlang, indices, oracle, spectrum

MODULES = (shiftop, exprlang, circle, indices, analysis, spectrum, oracle, cli)

# metric name -> (span name, field); field is calls, ms, self_ms or amount
PER_LAYER = {
    "exprlang.eval.calls": ("exprlang.eval", "calls"),
    "exprlang.eval.points": ("exprlang.eval", "amount"),
    "exprlang.eval.ms": ("exprlang.eval", "ms"),
    "exprlang.find_zeros.calls": ("exprlang.find_zeros", "calls"),
    "exprlang.find_zeros.ms": ("exprlang.find_zeros", "ms"),
    "exprlang.parse.ms": ("exprlang.parse", "ms"),
    "circle.from_lift.ms": ("circle.from_lift", "ms"),
    "circle.structure.ms": ("circle.structure", "ms"),
    "circle.lift.calls": ("circle.lift", "calls"),
    "circle.apply_fwd.calls": ("circle.apply_fwd", "calls"),
    "circle.apply_fwd.ms": ("circle.apply_fwd", "ms"),
    "circle.apply_bwd.calls": ("circle.apply_bwd", "calls"),
    "circle.apply_bwd.ms": ("circle.apply_bwd", "ms"),
    "circle.inverse_lift.calls": ("circle.inverse_lift", "calls"),
    "circle.inverse_lift.ms": ("circle.inverse_lift", "ms"),
    "analysis.decide.calls": ("analysis.decide", "calls"),
    "analysis.decide.ms": ("analysis.decide", "ms"),
    "analysis.decide.self_ms": ("analysis.decide", "self_ms"),
    "analysis.build_partition.ms": ("analysis.build_partition", "ms"),
    "analysis.check_RL.ms": ("analysis.check_RL", "ms"),
    "analysis.orbit_product.calls": ("analysis.orbit_product", "calls"),
    "analysis.orbit_product.points": ("analysis.orbit_product", "amount"),
    "analysis.adjoint_spec.ms": ("analysis.adjoint_spec", "ms"),
    "analysis.reduce_to_fixed.ms": ("analysis.reduce_to_fixed", "ms"),
    "oracle.invertibility_evidence.ms": ("oracle.invertibility_evidence", "ms"),
    "oracle.discretize.ms": ("oracle.discretize", "ms"),
    "oracle.dense_linalg.calls": ("oracle.dense_linalg", "calls"),
    "oracle.dense_linalg.ms": ("oracle.dense_linalg", "ms"),
    "oracle.dense_bytes": ("oracle.dense_matrix", "amount"),
    "oracle.estimate_radius.ms": ("oracle.estimate_radius", "ms"),
    "oracle.neumann.ms": ("oracle.neumann", "ms"),
    "oracle.grid_matvec.calls": ("oracle.grid_matvec", "calls"),
    "spectrum.shift_spectrum.ms": ("spectrum.shift_spectrum", "ms"),
    "spectrum.radius_bound.ms": ("spectrum.radius_bound", "ms"),
    "cli.build_operator.ms": ("cli.build_operator", "ms"),
    "cli.dump_json.ms": ("cli.dump_json", "ms"),
}
UNITS = {"calls": "count", "amount": "count", "ms": "ms", "self_ms": "ms"}


def _size(t) -> int:
    return int(np.size(t))


def _orbit_points(f, shift, m, t) -> int:
    return int(np.size(t))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self._stack: list[int] = []
        self._inverses = weakref.WeakSet()
        self._making_inverse = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, amount=None):
        """fn with a span named name around every call."""
        nid = self._id(name)
        kind, parent, start, end, amt, stack = (self.kind, self.parent, self.start,
                                                self.end, self.amount, self._stack)

        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            amt.append(amount(*args, **kwargs) if amount else 0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        return len(self.kind)

    def rollback(self, mark: int) -> None:
        """Drop every span from mark on (an operation cut off by its time limit)."""
        for arr in (self.kind, self.parent, self.start, self.end, self.amount):
            del arr[mark:]
        self._stack.clear()

    # ------------------------------------------------------------ install

    def _patch(self, home, name: str, span: str, amount=None) -> None:
        """Replace home.name, and every module's binding of it, by a traced one."""
        orig = getattr(home, name)
        traced = self.wrap(span, orig, amount)
        for mod in MODULES:
            if getattr(mod, name, None) is orig:
                setattr(mod, name, traced)

    def install(self) -> None:
        """Wrap the public functions and methods behind each per-layer metric."""
        tracer = self
        orig_as_function = exprlang.as_function

        def as_function(e):
            fn = orig_as_function(e)
            return fn if callable(e) else tracer.wrap("exprlang.eval", fn, _size)

        for mod in MODULES:
            if getattr(mod, "as_function", None) is orig_as_function:
                mod.as_function = as_function
        self._patch(exprlang, "find_zeros", "exprlang.find_zeros")
        self._patch(exprlang, "parse", "exprlang.parse")
        self._patch(circle, "compute_periodic_structure", "circle.structure")
        for name in ("decide", "build_partition", "adjoint_spec", "reduce_to_fixed"):
            self._patch(analysis, name, f"analysis.{name}")
        self._patch(analysis, "orbit_product", "analysis.orbit_product", _orbit_points)
        self._patch(analysis, "check_R", "analysis.check_RL")
        self._patch(analysis, "check_L", "analysis.check_RL")
        self._patch(oracle, "invertibility_evidence", "oracle.invertibility_evidence")
        self._patch(oracle, "discretize", "oracle.discretize")
        self._patch(oracle, "estimate_radius_numeric", "oracle.estimate_radius")
        self._patch(oracle, "neumann_apply", "oracle.neumann")
        self._patch(spectrum, "shift_spectrum", "spectrum.shift_spectrum")
        self._patch(spectrum, "radius_bound", "spectrum.radius_bound")
        self._patch(cli, "build_operator", "cli.build_operator")
        self._patch(cli, "dump_json", "cli.dump_json")
        for name in ("svd", "lstsq"):
            setattr(np.linalg, name, self.wrap("oracle.dense_linalg", getattr(np.linalg, name)))

        grid = oracle.GridOperator
        for name in ("apply", "apply_P", "apply_P_transpose"):
            setattr(grid, name, self.wrap("oracle.grid_matvec", getattr(grid, name)))
        grid.matrix = self.wrap(
            "oracle.dense_matrix", grid.matrix,
            lambda g: 8 * g.N * g.N if g._dense is None else 0)

        shift = circle.Shift
        shift.from_lift = classmethod(self.wrap("circle.from_lift", shift.from_lift.__func__))
        orig_init, orig_inverse, orig_apply = shift.__init__, shift.inverse, shift.apply
        lift_span = {False: "circle.lift", True: "circle.inverse_lift"}

        def __init__(obj, lift_ext, *args, **kwargs):
            inverse = tracer._making_inverse > 0
            if inverse:
                tracer._inverses.add(obj)
            orig_init(obj, tracer.wrap(lift_span[inverse], lift_ext), *args, **kwargs)

        def inverse(obj):
            tracer._making_inverse += 1
            try:
                return orig_inverse(obj)
            finally:
                tracer._making_inverse -= 1

        apply_fwd = self.wrap("circle.apply_fwd", orig_apply)
        apply_bwd = self.wrap("circle.apply_bwd", orig_apply)

        def apply(obj, t, k=1):
            backward = (k < 0) != (obj in tracer._inverses)
            return (apply_bwd if backward else apply_fwd)(obj, t, k)

        shift.__init__, shift.inverse, shift.apply = __init__, inverse, apply

    # ------------------------------------------------------------ report

    def summary(self) -> dict[str, dict]:
        """name -> calls, ms, self_ms, amount over all recorded spans."""
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "amount": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.kind[i]]]
            row["calls"] += 1
            row["ms"] += dur[i] * 1e3
            row["self_ms"] += (dur[i] - child[i]) * 1e3
            row["amount"] += self.amount[i]
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: span, parent, name, start_us, end_us, amount."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,name,start_us,end_us,amount\n")
            for i in range(len(self.kind)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.kind[i]]},"
                         f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f},"
                         f"{self.amount[i]}\n")


def per_layer(summary: dict, passes: int, import_ms: float) -> dict:
    """The per-layer metrics, per pass (counts are whole numbers per pass)."""
    out = {"cli.import.ms": {"value": import_ms, "unit": "ms"}}
    for metric, (span, field) in PER_LAYER.items():
        value = summary.get(span, {}).get(field, 0)
        unit = "B" if metric == "oracle.dense_bytes" else UNITS[field]
        value /= passes
        if field in ("calls", "amount") and value == int(value):
            value = int(value)   # identical passes give whole counts per pass
        out[metric] = {"value": value, "unit": unit}
    return out
