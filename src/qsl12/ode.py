"""Adaptive Runge-Kutta integration with event localization.

The flows in this package are smooth and non-stiff, but regression against
published transfer times requires tight local error control, so every
integration runs on the embedded Dormand-Prince 5(4) pair with proportional
step control (Hairer, Norsett & Wanner, Solving ODEs I, II.4-6). An event is
bracketed by a sign change of the event function across one accepted step;
Brent's root finder then pins the crossing time down to ``event_tol``, each
probe being a single Dormand-Prince step from the bracket's left node.

Everything is deterministic: identical inputs produce bit-identical output.
All times are in units of 1/Omega_0 with Omega_0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "EventHit",
    "StepUnderflow",
    "integrate",
    "locate_event",
]

#: Hard floor for the adaptive step; reaching it signals stiffness or a
#: singularity in the right-hand side.
MIN_STEP = 1e-14

Rhs = Callable[[float, np.ndarray], np.ndarray]


class StepUnderflow(RuntimeError):
    """Adaptive step fell below MIN_STEP."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step limits for the adaptive integrator.

    ``max_step`` bounds the spacing of the reported trajectory nodes (the
    sampling density available to later linear interpolation); ``event_tol``
    is the width, in time, to which an event crossing is localized.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = 1e-2
    event_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "max_step", "event_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_step <= self.event_tol:
            raise ValueError("max_step must exceed event_tol")


@dataclass
class Trajectory:
    """Sampled solution: ``states[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states)
        if self.times.ndim != 1 or len(self.states) != len(self.times):
            raise ValueError("times and states must have matching leading length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class EventHit:
    """First event crossing: time, state there, and the path leading to it."""

    t: float
    y: np.ndarray
    trajectory: Trajectory


# Dormand-Prince 5(4) tableau. The propagating solution is 5th order; the
# last row of _A doubles as its weights (FSAL: stage 7 is reused as stage 1
# of the next step). _E holds the 5th-minus-4th order error weights.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


def _as_state(y0) -> np.ndarray:
    y = np.array(y0, copy=True)
    if not np.issubdtype(y.dtype, np.inexact):
        y = y.astype(float)
    return y


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray, cfg: IntegratorConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    q = np.abs(err) / scale
    return float(np.sqrt(np.mean(q * q)))


def _dp5_step(rhs: Rhs, t: float, y: np.ndarray, k1: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Dormand-Prince 5(4) step of length h from (t, y), where k1 = rhs(t, y).

    Returns the 5th-order state at t + h, the slope there (the next step's
    k1), and the local error estimate.
    """
    k2 = np.asarray(rhs(t + _C2 * h, y + h * (_A21 * k1)))
    k3 = np.asarray(rhs(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2)))
    k4 = np.asarray(rhs(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)))
    k5 = np.asarray(rhs(t + _C5 * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)))
    k6 = np.asarray(rhs(t + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)))
    y_new = y + h * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
    k7 = np.asarray(rhs(t + h, y_new))
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    return y_new, k7, err


def _steps(rhs: Rhs, t0: float, y0: np.ndarray, t1: float, cfg: IntegratorConfig) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Yield (t, y, rhs(t, y)) at t0 and at every accepted node after it, ending at t1."""
    t = t0
    y = y0
    h = min(cfg.max_step, t1 - t0)
    k = np.asarray(rhs(t, y))
    yield t, y, k
    while True:
        remaining = t1 - t
        if remaining <= MIN_STEP:
            return
        h = min(h, remaining)
        if h < MIN_STEP:
            raise StepUnderflow(f"step size {h:.3e} below {MIN_STEP:.0e} at t={t!r}")
        y_new, k_new, err = _dp5_step(rhs, t, y, k, h)
        enorm = _error_norm(err, y, y_new, cfg)
        if enorm <= 1.0:
            t = t1 if (t1 - (t + h)) <= MIN_STEP else t + h
            y = y_new
            k = k_new
            yield t, y, k
            factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        else:
            factor = max(0.2, 0.9 * enorm ** -0.2)
        h = min(cfg.max_step, h * factor)


def integrate(rhs: Rhs, y0, t_span: tuple[float, float], cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate ``dy/dt = rhs(t, y)`` over ``t_span``, storing every accepted node.

    Raises StepUnderflow if the controller drives the step below MIN_STEP.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("t_span must be non-decreasing")
    times = []
    states = []
    for t, y, _ in _steps(rhs, t0, _as_state(y0), t1, cfg):
        times.append(t)
        states.append(y)
    return Trajectory(np.asarray(times), np.asarray(states))


def locate_event(
    rhs: Rhs,
    y0,
    t_span: tuple[float, float],
    event: Callable[[np.ndarray], float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> EventHit | None:
    """Locate the first sign change of ``event`` along the trajectory.

    The event's sign is compared at the accepted nodes. Inside the step that
    brackets a change, brentq pins the crossing down to ``cfg.event_tol`` in
    time; each probe is one DP5 step from the step's left node. Returns None
    when the event keeps its sign at every node of ``t_span``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    steps = _steps(rhs, t0, _as_state(y0), t1, cfg)
    t_a, y_a, k_a = next(steps)
    e_a = float(event(y_a))
    times = [t_a]
    states = [y_a]
    if e_a == 0.0:
        return EventHit(t_a, y_a, Trajectory(np.asarray(times), np.asarray(states)))
    for t_b, y_b, k_b in steps:
        e_b = float(event(y_b))
        if e_b == 0.0 or (e_b > 0.0) != (e_a > 0.0):
            # brentq evaluates both ends first; their states are known.
            probes = {t_b: y_b}

            def event_at(t: float) -> float:
                if t == t_a:
                    return e_a
                if t not in probes:
                    probes[t] = _dp5_step(rhs, t_a, y_a, k_a, t - t_a)[0]
                return float(event(probes[t]))

            t_hit = brentq(event_at, t_a, t_b, xtol=cfg.event_tol)
            # A root on the left node is that node, already stored last.
            if t_hit > t_a:
                times.append(t_hit)
                states.append(probes[t_hit])
            return EventHit(times[-1], states[-1], Trajectory(np.asarray(times), np.asarray(states)))
        times.append(t_b)
        states.append(y_b)
        t_a, y_a, k_a, e_a = t_b, y_b, k_b, e_b
    return None
