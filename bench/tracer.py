"""Per-layer tracing by wrapping the public functions of the ``qsl12`` modules.

Every call site in the package goes through a module attribute
(``shooting`` calls ``lambda3.extremal_rhs`` and ``ode.locate_event``,
``area_curve`` calls the global ``refine``, ``_bisect_event`` calls the
global ``propagate``, ``cli`` calls ``shooting.*``, ``isomorphism.*`` and
``bloch2.*``), so replacing the attribute catches every call. The
attributes are restored when :meth:`Tracer.installed` exits.

Coarse functions record a *span*: name, run id, parent span, start, end,
the time covered by its children, and a small info record (a shot's
reason, a hit's step count, a grid's cells). Hot leaf functions (the rhs
evaluations, hundreds of thousands of calls) only count calls and time,
and charge that time to the enclosing span, so self time = span minus its
children stays exact without a span per call. Spans stay in memory; the
worker writes them out when the run ends. A function that a later version
of the package no longer has is skipped, and its metrics read 0.

The landscape's inner work is private (and forked at workers > 1), so its
numbers come from timing ``shooting.landscape`` itself.

``shooting.shoot_info.ms_p50`` and ``.ms_p90`` are taken over
``shooting.shoot_info.calls`` samples: about 100 on optimize, 255 on
areacurve, but only 2 on oracles, where the p90 says little.
``ode.locate_event.hit_steps`` sums, over returned hits, the accepted steps
before the step whose end brackets the crossing (that step's node is
replaced by the bisected hit, so it is not counted).
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

__all__ = ["Tracer", "per_layer_metrics", "COUNT_METRICS"]


def _steps_of_hit(args, kwargs, hit):
    # Nodes: the start, one per accepted step before the bracketing step,
    # then the bisected hit; a hit at the start has only the start node.
    return {"steps": max(len(hit.trajectory.times) - 2, 0) if hit is not None else 0}


def _steps_of_trajectory(args, kwargs, traj):
    return {"steps": len(traj.times) - 1}


def _shot_reason(args, kwargs, result):
    return {"reason": result[1]}


def _curve_points(args, kwargs, curve):
    return {"points": int(curve.shape[0])}


def _grid_cells(args, kwargs, grid):
    times = grid.times
    return {"cells": int(times.size), "hits": int(np.isfinite(times).sum())}


#: (module, function, info) wrapped with a span; info reads the result.
SPANS = (
    ("cli", "main", None),
    ("ode", "locate_event", _steps_of_hit),
    ("ode", "propagate", None),
    ("ode", "rk4", _steps_of_trajectory),
    ("ode", "integrate", None),
    ("shooting", "shoot_info", _shot_reason),
    ("shooting", "refine", None),
    ("shooting", "solve_optimum", None),
    ("shooting", "area_curve", _curve_points),
    ("shooting", "landscape", _grid_cells),
    ("isomorphism", "cross_check", None),
    ("bloch2", "resonant_trajectory", None),
)

#: (module, function) wrapped with a call counter and timer only.
LEAVES = (
    ("lambda3", "extremal_rhs"),
    ("lambda3", "bang_control"),
    ("lambda3", "xcoordinate_rhs"),
    ("isomorphism", "iso_amplitude_rhs"),
    ("isomorphism", "iso_angle_rhs"),
)

MISS_REASONS = ("no-crossing", "switching-degeneracy", "phi-singularity", "step-underflow")

# Span record fields.
_NAME, _RUN, _PARENT, _START, _END, _CHILD, _INFO = range(7)


class Tracer:
    """Collects spans and leaf counters while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list = []
        self.leaves: dict = {}
        self.run = None
        self._stack: list = []

    def _span(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.run, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[_END] = end
                if stack:
                    spans[stack[-1]][_CHILD] += end - start
            if info is not None:
                rec[_INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        acc = self.leaves.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                acc[0] += 1
                acc[1] += dt
                if stack:
                    spans[stack[-1]][_CHILD] += dt

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        saved = []
        try:
            for mod_name, fn_name, info in SPANS:
                self._install(saved, mod_name, fn_name, lambda n, f, i=info: self._span(n, f, i))
            for mod_name, fn_name in LEAVES:
                self._install(saved, mod_name, fn_name, self._leaf)
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    @staticmethod
    def _install(saved, mod_name, fn_name, make):
        module = importlib.import_module(f"qsl12.{mod_name}")
        original = getattr(module, fn_name, None)
        if original is None:
            return
        saved.append((module, fn_name, original))
        setattr(module, fn_name, make(f"{mod_name}.{fn_name}", original))

    def span_records(self) -> list:
        """Spans as dicts, for writing out at the end of the run."""
        keys = ("name", "run", "parent", "start", "end", "child_s", "info")
        return [dict(zip(keys, rec)) for rec in self.spans]


def _has_ancestor(spans, rec, name) -> bool:
    parent = rec[_PARENT]
    while parent >= 0:
        if spans[parent][_NAME] == name:
            return True
        parent = spans[parent][_PARENT]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                      speedup_2w: float) -> dict:
    """Every per-layer metric from one traced pass; ratios with no base read 0."""
    spans = tracer.spans
    by_name: dict = {}
    for rec in spans:
        by_name.setdefault(rec[_NAME], []).append(rec)

    def recs(name):
        return by_name.get(name, [])

    def total(name):
        return sum(r[_END] - r[_START] for r in recs(name))

    def self_time(name):
        return sum(r[_END] - r[_START] - r[_CHILD] for r in recs(name))

    def leaf(name):
        return tuple(tracer.leaves.get(name, (0, 0.0)))

    # Each group names the workloads whose wall_s it should move; on the
    # others it should stay unchanged.
    m = {}
    # Scalar extremal rhs, the inner cost of every shot: optimize, areacurve,
    # oracles (cross_check's rhs); never landscape.
    calls, secs = leaf("lambda3.extremal_rhs")
    m["lambda3.extremal_rhs.calls"] = calls
    m["lambda3.extremal_rhs.s"] = secs
    m["lambda3.extremal_rhs.us_per_call"] = 1e6 * _ratio(secs, calls)
    # Pulse reconstruction: oracles, optimize (pulse export).
    calls, secs = leaf("lambda3.bang_control")
    m["lambda3.bang_control.calls"] = calls
    m["lambda3.bang_control.s"] = secs

    # Adaptive DP5 stepping and event bisection probes: optimize, areacurve.
    m["ode.locate_event.calls"] = len(recs("ode.locate_event"))
    m["ode.locate_event.self_s"] = self_time("ode.locate_event")
    m["ode.locate_event.hit_steps"] = sum((r[_INFO] or {}).get("steps", 0) for r in recs("ode.locate_event"))
    m["ode.propagate.calls"] = len(recs("ode.propagate"))
    m["ode.propagate.s"] = total("ode.propagate")
    # Fixed-step integration of the cross-check and two-level runs: oracles.
    m["ode.rk4.steps"] = sum((r[_INFO] or {}).get("steps", 0) for r in recs("ode.rk4"))
    m["ode.rk4.s"] = total("ode.rk4")
    m["ode.integrate.calls"] = len(recs("ode.integrate"))
    m["ode.integrate.s"] = total("ode.integrate")

    # Shots, their tail and the cost of misses: optimize, areacurve.
    shots = recs("shooting.shoot_info")
    ms = sorted(1e3 * (r[_END] - r[_START]) for r in shots)
    reasons = [(r[_INFO] or {}).get("reason", "raised") for r in shots]
    m["shooting.shoot_info.calls"] = len(shots)
    m["shooting.shoot_info.s"] = total("shooting.shoot_info")
    m["shooting.shoot_info.ms_p50"] = statistics.median(ms) if ms else 0.0
    m["shooting.shoot_info.ms_p90"] = (statistics.quantiles(ms, n=10)[8] if len(ms) > 1
                                       else (ms[0] if ms else 0.0))
    m["shooting.shoot_info.hit_ratio"] = _ratio(reasons.count("hit"), len(shots))
    m["shooting.shoot_info.miss_s"] = sum(r[_END] - r[_START] for r, why in zip(shots, reasons)
                                          if why != "hit")
    for why in MISS_REASONS:
        m[f"shooting.shoot_info.miss.{why}"] = reasons.count(why)
    m["shooting.shoot_info.miss.other"] = sum(
        1 for why in reasons if why != "hit" and why not in MISS_REASONS)

    # Shots per optimum: optimize, areacurve.
    refines = recs("shooting.refine")
    m["shooting.refine.calls"] = len(refines)
    m["shooting.refine.s"] = total("shooting.refine")
    m["shooting.refine.shots_per_call"] = _ratio(
        sum(1 for r in shots if _has_ancestor(spans, r, "shooting.refine")), len(refines))
    m["shooting.solve_optimum.s"] = total("shooting.solve_optimum")

    # Eps continuation and its branch-jump retries: areacurve.
    curves = recs("shooting.area_curve")
    m["shooting.area_curve.s"] = total("shooting.area_curve")
    m["shooting.area_curve.retries"] = (
        sum(1 for r in refines if _has_ancestor(spans, r, "shooting.area_curve"))
        - sum((r[_INFO] or {}).get("points", 0) for r in curves)) if curves else 0

    # The batched grid scan, serial and at 2 workers: landscape.
    grids = recs("shooting.landscape")
    land_s = total("shooting.landscape")
    cells = sum((r[_INFO] or {}).get("cells", 0) for r in grids)
    m["shooting.landscape.s"] = land_s
    m["shooting.landscape.cells_per_s"] = _ratio(cells, land_s)
    m["shooting.landscape.hit_frac"] = _ratio(sum((r[_INFO] or {}).get("hits", 0) for r in grids), cells)
    m["shooting.landscape.speedup_2w"] = speedup_2w

    # Representation oracles and the two-level flow: oracles.
    m["isomorphism.cross_check.s"] = total("isomorphism.cross_check")
    m["isomorphism.cross_check.self_s"] = self_time("isomorphism.cross_check")
    m["isomorphism.iso_amplitude_rhs.calls"] = leaf("isomorphism.iso_amplitude_rhs")[0]
    m["isomorphism.iso_angle_rhs.calls"] = leaf("isomorphism.iso_angle_rhs")[0]
    m["lambda3.xcoordinate_rhs.calls"] = leaf("lambda3.xcoordinate_rhs")[0]
    m["bloch2.resonant_trajectory.s"] = total("bloch2.resonant_trajectory")
    # Parsing, CSV export and manifest: all, mostly landscape (3600 rows).
    m["cli.main.self_s"] = self_time("cli.main")
    m["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0 if untraced_wall else 0.0
    return m


#: Metrics that count work; two traced runs of one seed must agree on them exactly.
COUNT_METRICS = (
    "lambda3.extremal_rhs.calls",
    "lambda3.bang_control.calls",
    "ode.locate_event.calls",
    "ode.locate_event.hit_steps",
    "ode.propagate.calls",
    "ode.rk4.steps",
    "ode.integrate.calls",
    "shooting.shoot_info.calls",
    "shooting.shoot_info.hit_ratio",
    *(f"shooting.shoot_info.miss.{why}" for why in MISS_REASONS + ("other",)),
    "shooting.refine.calls",
    "shooting.refine.shots_per_call",
    "shooting.area_curve.retries",
    "shooting.landscape.hit_frac",
    "isomorphism.iso_amplitude_rhs.calls",
    "isomorphism.iso_angle_rhs.calls",
    "lambda3.xcoordinate_rhs.calls",
)
