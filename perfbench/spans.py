"""Outside-in tracing: timing wrappers around each module's public entry points.

``Tracer.install`` replaces the entry points in the modules that call them
(for example ``runner.singh_curve`` and ``global_engine.singh_curve``), so
the package itself is untouched and every wrapper comes out again on
``uninstall``. Each call records one span (layer name, start, end, parent
span) into flat arrays kept in memory; ``layer_totals`` turns them into
calls and self time per layer once the run is over, and ``save`` writes the
raw spans out.

The wrappers cost time of their own. ``calibrate`` measures it with an empty
function: the part that falls inside a span is charged to that span, the
part outside it to the parent, and both are subtracted from self times.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np


def _layer_targets():
    """(owner, attribute, layer) for every wrapped entry point."""
    from singh_audit import global_engine, runner, scenario, singh_engine, special_math, structures

    return (
        (special_math.SeededStream, "generator", "special_math.generator"),
        (singh_engine.TargetSpec, "draw", "special_math.sample"),
        (special_math, "reg_inc_beta", "special_math.reg_inc_beta"),
        (structures, "reg_inc_beta", "special_math.reg_inc_beta"),
        (singh_engine, "evaluate_structure", "structures.evaluate"),
        (runner, "singh_curve", "singh_engine.singh_curve"),
        (global_engine, "singh_curve", "singh_engine.singh_curve"),
        (singh_engine, "exact_singh_curve", "singh_engine.exact"),
        (singh_engine, "classify", "singh_engine.classify"),
        (runner, "classify", "singh_engine.classify"),
        (runner, "global_singh", "global_engine.envelope"),
        (runner, "emit_csv", "outputs.emit_csv"),
        (runner, "emit_svg", "outputs.emit_svg"),
        (runner, "emit_report", "outputs.emit_report"),
        (scenario, "parse_scenario", "scenario.parse"),
        (runner, "run_scenario", "runner"),
    )


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.inside_s = 0.0
        self.outside_s = 0.0
        self.wrapper_s = 0.0
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def reset(self) -> None:
        """Drop every recorded span; wrappers already made keep recording."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self._stack[:] = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with one span recorded per call under ``name``."""
        nid = self._name_id(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped: dict[tuple[int, str], object] = {}
        for owner, attr, layer in _layer_targets():
            original = getattr(owner, attr)
            key = (id(original), layer)
            if key not in wrapped:
                wrapped[key] = self.wrap(layer, original)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def calibrate(self, calls: int = 50_000, repeats: int = 7) -> None:
        """Measure the wrapper's own cost per call, inside and outside its span."""

        def empty():
            return None

        wrapped = self.wrap("trace.calibration", empty)
        loop, bare, full, recorded = [], [], [], []
        clock = time.perf_counter
        for _ in range(repeats):
            self.reset()
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                empty()
            t2 = clock()
            for _ in range(calls):
                wrapped()
            t3 = clock()
            loop.append((t1 - t0) / calls)
            bare.append((t2 - t1) / calls)
            full.append((t3 - t2) / calls)
            spans = np.frombuffer(self.end) - np.frombuffer(self.start)
            recorded.append(float(spans.mean()))
        self.reset()
        call = max(statistics.median(bare) - statistics.median(loop), 0.0)
        self.wrapper_s = max(statistics.median(full) - statistics.median(bare), 0.0)
        self.inside_s = min(max(statistics.median(recorded) - call, 0.0), self.wrapper_s)
        self.outside_s = self.wrapper_s - self.inside_s

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and wrapper-corrected self time per layer over all spans."""
        if not len(self.start):
            return {}
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        child_calls = np.bincount(parent[has_parent], minlength=dur.size)
        self_time = dur - child_time - self.inside_s - child_calls * self.outside_s
        calls = np.bincount(name_id, minlength=len(self.names))
        self_sum = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "self_s": max(float(self_sum[i]), 0.0)}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        parent_of = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        is_child = name_id == self._ids[child]
        owners = parent_of[is_child]
        owners = owners[owners >= 0]
        return int((name_id[owners] == self._ids[parent]).sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
