"""Adaptive Runge-Kutta integration with event localization.

The flows in this package are smooth and non-stiff, but regression against
published transfer times requires tight local error control, so every
integration runs on the embedded Dormand-Prince 5(4) pair with proportional
step control (Hairer, Norsett & Wanner, Solving ODEs I, II.4-6).

``integrate`` stores every accepted node, their spacing capped at
``max_step``. ``locate_event`` lets the tolerances alone set its steps and
hands each accepted step to one crossing rule, ``_crossing``, which reads
the state inside the step from the pair's free quartic continuous extension
(dense output, II.6), built from the step's seven stages at no rhs call. A
step brackets an event when the event changes sign across it, or when it
*grazes* zero: both ends share a sign, the event moves toward zero at the
left end and away from it at the right end, and at its extremum in between,
found on the interpolant, it reaches zero. The extremum search is skipped
when the event's tangent lines at the two ends meet more than
``GRAZE_MARGIN`` beyond zero on the side where the step starts: a concave
(or convex) event lies below (or above) its tangents, so it cannot graze.
Brent's root finder then pins the crossing down to ``event_tol`` on the
interpolant.

The step runs on Python floats: the state and the seven stages are lists,
and each stage sum is written out per component in the order numpy would
use. On the 4-component extremal state one step and its error norm take
37-40 us, against 85-89 us as array code (2-vCPU Xeon VM, py3.11, numpy
2.4). The same ``_dp5_step`` steps *lanes*, states whose components are
arrays of many cells; the landscape scan in ``shooting`` runs it so at a
fixed step and hands the lanes its screen flags to ``_crossing``.

The state crosses into caller code as a list too: ``rhs(t, y)`` and
``event(y)`` receive a list of Python floats (or complex numbers), which they
must not modify. The rhs may return any sequence of the state's length; a
returned ndarray is converted once with ``tolist()``. Results are ndarrays:
float64 for a real state, complex128 for a complex one.

Everything is deterministic: identical inputs produce bit-identical output.
All times are in units of 1/Omega_0 with Omega_0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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

#: ``rhs(t, y)``: y is the state as a list; the slope may be any sequence.
Rhs = Callable[[float, list], Sequence]
#: ``event(y)``: y is the state as a list; a real number, zero on the crossing.
Event = Callable[[list], float]


class StepUnderflow(RuntimeError):
    """Adaptive step fell below MIN_STEP."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step limits for the adaptive integrator.

    ``max_step`` caps the steps of ``integrate`` and so the spacing of its
    trajectory nodes (the sampling density available to later linear
    interpolation); in ``locate_event`` it only bounds the first trial step.
    ``event_tol`` is the width, in time, to which an event crossing is
    localized.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = 1e-2
    event_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "max_step", "event_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not all(math.isfinite(v) for v in (self.abs_tol, self.rel_tol, self.event_tol)):
            raise ValueError("abs_tol, rel_tol and event_tol must be finite")
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
    """First event crossing: time, state there, and the path leading to it.

    The path holds the search's accepted nodes, whose spacing is set by the
    tolerances alone, followed by the crossing.
    """

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

# Free quartic continuous extension of the pair (II.6, the coefficients of
# scipy's RK45.P): inside an accepted step of length h from (t, y) with
# stages K, the state at t + x*h is y + h * (K.T @ _P) @ (x, x^2, x^3, x^4).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

#: Half-width of the central difference that gives an event's time
#: derivative, as a fraction of the step.
_RATE_DT = 1e-4

#: Tangent-screen margin, in units of the event (see the module docstring):
#: about 100 times the h^2-scale curvature term of the shots' steps.
GRAZE_MARGIN = 1e-2


def _as_state(y0) -> list:
    """The initial state as a list of Python floats, or of complex numbers."""
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y0 must be a non-empty 1-D state vector")
    return y.tolist()


def _span(t_span) -> tuple[float, float]:
    """The ends of ``t_span`` as floats, checked finite and in order."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if t1 < t0:
        raise ValueError("t_span must be non-decreasing")
    return t0, t1


def _slope(rhs: Rhs, t: float, y: list) -> Sequence:
    """rhs at (t, y): the rhs receives the list y; an ndarray slope comes back as a list."""
    k = rhs(t, y)
    if isinstance(k, np.ndarray):
        k = k.tolist()
    if len(k) != len(y):
        raise ValueError(f"rhs returned {len(k)} components for a state of {len(y)}")
    return k


def _error_norm(err: list, y_old: list, y_new: list, cfg: IntegratorConfig) -> float:
    """RMS of the error over the scale abs_tol + rel_tol * max(|y_old|, |y_new|).

    The squares are summed in component order, which is numpy's order for
    fewer than 8 components (from 8 on numpy sums pairwise).
    """
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    total = 0.0
    for e, a, b in zip(err, y_old, y_new):
        q = abs(e) / (atol + rtol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(err))


def _dp5_step(rhs: Rhs, t: float, y: list, k1: list, h: float) -> tuple[list, tuple[list, ...], list]:
    """One Dormand-Prince 5(4) step of length h from (t, y), where k1 = rhs(t, y).

    Returns the 5th-order state at t + h, the seven stages (the last is the
    slope at t + h, the next step's k1), and the local error estimate.
    """
    k2 = _slope(rhs, t + _C2 * h, [a + h * (_A21 * b1) for a, b1 in zip(y, k1)])
    k3 = _slope(rhs, t + _C3 * h, [a + h * (_A31 * b1 + _A32 * b2) for a, b1, b2 in zip(y, k1, k2)])
    k4 = _slope(rhs, t + _C4 * h, [
        a + h * (_A41 * b1 + _A42 * b2 + _A43 * b3) for a, b1, b2, b3 in zip(y, k1, k2, k3)
    ])
    k5 = _slope(rhs, t + _C5 * h, [
        a + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ])
    k6 = _slope(rhs, t + h, [
        a + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5)
        for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)
    ])
    y_new = [
        a + h * (_A71 * b1 + _A73 * b3 + _A74 * b4 + _A75 * b5 + _A76 * b6)
        for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = _slope(rhs, t + h, y_new)
    err = [
        h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6 + _E7 * b7)
        for b1, b3, b4, b5, b6, b7 in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y_new, (k1, k2, k3, k4, k5, k6, k7), err


def _steps(rhs: Rhs, t0: float, y0: list, t1: float, cfg: IntegratorConfig,
           max_step: float = math.inf) -> Iterator[tuple[float, list, tuple[list, ...], float]]:
    """Yield (t, y, K, h) at t0 and at every accepted node after it, ending at t1.

    K holds the stages of the step of length h that ended at t, so K[0] is
    the slope at its start and K[-1] = rhs(t, y); at t0, K holds only that
    slope and h is 0. The first trial step is min(cfg.max_step, t1 - t0);
    later steps are capped at ``max_step``.
    """
    t = t0
    y = y0
    h = min(cfg.max_step, t1 - t0)
    K = (_slope(rhs, t, y),)
    yield t, y, K, 0.0
    while True:
        remaining = t1 - t
        if remaining <= MIN_STEP:
            return
        h = min(h, remaining)
        if h < MIN_STEP:
            raise StepUnderflow(f"step size {h:.3e} below {MIN_STEP:.0e} at t={t!r}")
        y_new, K_new, err = _dp5_step(rhs, t, y, K[-1], h)
        enorm = _error_norm(err, y, y_new, cfg)
        if enorm <= 1.0:
            t = t1 if (t1 - (t + h)) <= MIN_STEP else t + h
            y = y_new
            K = K_new
            yield t, y, K, h
            factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        else:
            factor = max(0.2, 0.9 * enorm ** -0.2)
        h = min(max_step, h * factor)


def integrate(rhs: Rhs, y0, t_span: tuple[float, float], cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate ``dy/dt = rhs(t, y)`` over ``t_span``, storing every accepted node.

    Steps, and so the node spacing, are capped at ``cfg.max_step``. Raises
    StepUnderflow if the controller drives the step below MIN_STEP.
    """
    t0, t1 = _span(t_span)
    times = []
    states = []
    for t, y, _, _ in _steps(rhs, t0, _as_state(y0), t1, cfg, cfg.max_step):
        times.append(t)
        states.append(y)
    return Trajectory(np.asarray(times), np.asarray(states))


def _rate(event: Event, y: Sequence, ydot: Sequence, dt: float):
    """Time derivative of ``event`` at state y moving with velocity ydot, a central
    difference over y -/+ dt * ydot (lists of floats, or of lane arrays)."""
    ahead = [a + dt * v for a, v in zip(y, ydot)]
    behind = [a - dt * v for a, v in zip(y, ydot)]
    return (event(ahead) - event(behind)) / (2.0 * dt)


def _graze_ruled_out(e_a, r_a, e_b, r_b, h):
    """Whether the event's tangent lines at the two ends of a step of length
    h (values e_a, e_b; rates r_a, r_b) meet more than GRAZE_MARGIN beyond
    zero on e_a's side. Floats or, elementwise, lane arrays."""
    meet = e_a + r_a * (e_b - e_a - r_b * h) / (r_a - r_b)
    return meet * e_a > GRAZE_MARGIN * abs(e_a)


class _DenseStep:
    """One accepted step from t_a to t_b, read through its continuous extension.

    ``probe(t)`` returns the state, as a list, and the event value at t. The
    ends return their stored values and every probe is cached, so brentq,
    which evaluates the bracket ends first, repeats no evaluation. The
    interpolant itself is numpy array code.
    """

    def __init__(self, event, t_a, y_a, e_a, t_b, y_b, e_b, K, h):
        self.event = event
        self.t_a = t_a
        self.y_a = np.array(y_a)
        self.t_b = t_b
        self.h = h
        self.Q = np.array(K).T @ _P
        self.known = {t_a: (y_a, e_a), t_b: (y_b, e_b)}

    def probe(self, t: float) -> tuple[list, float]:
        if t not in self.known:
            x = (t - self.t_a) / self.h
            y = (self.y_a + self.h * (self.Q @ np.array([x, x * x, x ** 3, x ** 4]))).tolist()
            self.known[t] = (y, float(self.event(y)))
        return self.known[t]

    def velocity(self, t: float) -> list:
        x = (t - self.t_a) / self.h
        return (self.Q @ np.array([1.0, 2.0 * x, 3.0 * x * x, 4.0 * x ** 3])).tolist()

    def extremum(self, r_a: float, r_b: float, dt: float, xtol: float) -> float:
        """Time of the event's extremum, where its rate (r_a at t_a, r_b at
        t_b, of opposite signs) vanishes."""

        def rate(t: float) -> float:
            if t == self.t_a:
                return r_a
            if t == self.t_b:
                return r_b
            return _rate(self.event, self.probe(t)[0], self.velocity(t), dt)

        return brentq(rate, self.t_a, self.t_b, xtol=xtol)


def _hit(times: list, states: list) -> EventHit:
    path = Trajectory(np.asarray(times), np.asarray(states))
    return EventHit(times[-1], path.final_state, path)


def _crossing(event: Event, t_a: float, y_a: list, e_a: float, t_b: float, y_b: list,
              e_b: float, K, h: float, event_tol: float) -> tuple[float, list] | None:
    """The first zero of ``event`` in one accepted step, as (t, y), or None.

    The step of length h runs from (t_a, y_a) to (t_b, y_b) with stages K;
    e_a (nonzero) and e_b are the event at its ends. A sign change or a
    graze (see the module docstring) is pinned down to ``event_tol`` in time
    on the step's interpolant; a zero at t_a is returned as t_a.
    """
    crossed = e_b == 0.0 or (e_b > 0.0) != (e_a > 0.0)
    if not crossed:
        # A graze needs the event moving toward zero at t_a (K[0] is the
        # slope there) and away from it at t_b.
        dt = _RATE_DT * h
        r_b = _rate(event, y_b, K[-1], dt)
        if not r_b * e_b > 0.0:
            return None
        r_a = _rate(event, y_a, K[0], dt)
        if not r_a * e_a < 0.0 or _graze_ruled_out(e_a, r_a, e_b, r_b, h):
            return None
    step = _DenseStep(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h)
    t_end = t_b
    if not crossed:
        # The event turns inside the step; it crosses zero when its
        # extremum does, and [t_a, extremum] then brackets the crossing.
        t_end = step.extremum(r_a, r_b, dt, event_tol)
        e_end = step.probe(t_end)[1]
        if e_end != 0.0 and (e_end > 0.0) == (e_a > 0.0):
            return None
    t_hit = brentq(lambda t: step.probe(t)[1], t_a, t_end, xtol=event_tol)
    return t_hit, step.probe(t_hit)[0]


def locate_event(
    rhs: Rhs,
    y0,
    t_span: tuple[float, float],
    event: Event,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> EventHit | None:
    """Locate the first zero crossing of ``event`` along the trajectory.

    Steps are limited by the tolerances alone; ``cfg.max_step`` only bounds
    the first trial step. Each accepted step goes through the crossing rule
    ``_crossing``: a sign change or a graze, pinned down to ``cfg.event_tol``
    in time on the step's interpolant; the hit lies strictly after the last
    stored node, or is that node. Returns None when no step of ``t_span``
    brackets a crossing. The event is called on the state as a list: at the
    nodes, and at points inside a step read from its interpolant.
    """
    t0, t1 = _span(t_span)
    steps = _steps(rhs, t0, _as_state(y0), t1, cfg)
    t_a, y_a, _, _ = next(steps)
    e_a = float(event(y_a))
    times = [t_a]
    states = [y_a]
    if e_a == 0.0:
        return _hit(times, states)
    for t_b, y_b, K, h in steps:
        e_b = float(event(y_b))
        found = _crossing(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h, cfg.event_tol)
        if found is not None:
            # A root on the left node is that node, already stored last.
            if found[0] > t_a:
                times.append(found[0])
                states.append(found[1])
            return _hit(times, states)
        times.append(t_b)
        states.append(y_b)
        t_a, y_a, e_a = t_b, y_b, e_b
    return None
