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
Brent's root finder then pins the crossing down to ``EVENT_TOL`` on the
interpolant.

The step runs on Python floats: the state and the seven stages are lists,
and each stage sum is written out per component in the order numpy would
use. On the 4-component extremal state one step and its error norm take
37-40 us, against 85-89 us as array code (2-vCPU Xeon VM, py3.11, numpy
2.4).

``locate_lane_events`` runs n states side by side as *lanes* at one fixed
step: ``_dp5_step`` steps the one-element state ``[Y]``, Y a (d, n) block
with one lane per column, so each stage sum is one numpy expression on the
whole block, with the same operations per element in the same order. A
numpy screen on the block (a sign change, or the graze conditions and the
tangent screen on rates from one central difference) flags the lanes that
``_crossing`` decides, one column at a time. A lane retires at its hit, and
with none at a non-finite state or an error estimate above the step: a
fixed step can step over a singularity of the flow to a hit no adaptive
search has.

The flows are autonomous, and the state crosses into caller code as a list:
``rhs(y)`` and ``event(y)`` receive a list of Python floats (or complex
numbers), which they must not modify. The rhs may return any sequence of the
state's length; a returned ndarray is converted once with ``tolist()``.
Results are ndarrays: float64 for a real state, complex128 for a complex one.

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
    "locate_lane_events",
]

#: Hard floor for the adaptive step; reaching it signals stiffness or a
#: singularity in the right-hand side.
MIN_STEP = 1e-14

#: The width, in time, to which an event crossing is localized.
EVENT_TOL = 1e-10

#: ``rhs(y)``: y is the state as a list; the slope may be any sequence.
Rhs = Callable[[list], Sequence]
#: ``event(y)``: y is the state as a list; a real number, zero on the crossing.
Event = Callable[[list], float]


class StepUnderflow(RuntimeError):
    """Adaptive step fell below MIN_STEP."""


@dataclass(frozen=True)
class IntegratorConfig:
    """The local-error tolerance and the step cap of the adaptive integrator.

    ``tol`` is both the absolute and the relative part of the error scale
    (see ``_error_norm``). ``max_step`` caps the steps of ``integrate``, so
    it sets the spacing of the trajectory nodes that the exports sample; in
    ``locate_event`` it only bounds the first trial step.
    """

    tol: float = 1e-10
    max_step: float = 1e-2

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not self.max_step > EVENT_TOL:
            raise ValueError("max_step must exceed EVENT_TOL")


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


def _slope(rhs: Rhs, y: list) -> Sequence:
    """rhs at y: the rhs receives the list y; an ndarray slope comes back as a list."""
    k = rhs(y)
    if isinstance(k, np.ndarray):
        k = k.tolist()
    if len(k) != len(y):
        raise ValueError(f"rhs returned {len(k)} components for a state of {len(y)}")
    return k


def _error_norm(err: list, y_old: list, y_new: list, cfg: IntegratorConfig) -> float:
    """RMS of the error over the scale tol + tol * max(|y_old|, |y_new|).

    The squares are summed in component order, which is numpy's order for
    fewer than 8 components (from 8 on numpy sums pairwise).
    """
    tol = cfg.tol
    total = 0.0
    for e, a, b in zip(err, y_old, y_new):
        q = abs(e) / (tol + tol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(err))


def _dp5_step(rhs: Rhs, y: list, k1: list, h: float) -> tuple[list, tuple[list, ...], list]:
    """One Dormand-Prince 5(4) step of length h from y, where k1 = rhs(y).

    Returns the 5th-order state after the step, the seven stages (the last
    is the slope there, the next step's k1), and the local error estimate.
    """
    k2 = _slope(rhs, [a + h * (_A21 * b1) for a, b1 in zip(y, k1)])
    k3 = _slope(rhs, [a + h * (_A31 * b1 + _A32 * b2) for a, b1, b2 in zip(y, k1, k2)])
    k4 = _slope(rhs, [
        a + h * (_A41 * b1 + _A42 * b2 + _A43 * b3) for a, b1, b2, b3 in zip(y, k1, k2, k3)
    ])
    k5 = _slope(rhs, [
        a + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ])
    k6 = _slope(rhs, [
        a + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5)
        for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)
    ])
    y_new = [
        a + h * (_A71 * b1 + _A73 * b3 + _A74 * b4 + _A75 * b5 + _A76 * b6)
        for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = _slope(rhs, y_new)
    err = [
        h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6 + _E7 * b7)
        for b1, b3, b4, b5, b6, b7 in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y_new, (k1, k2, k3, k4, k5, k6, k7), err


def _steps(rhs: Rhs, t0: float, y0: list, t1: float, cfg: IntegratorConfig,
           max_step: float = math.inf) -> Iterator[tuple[float, list, tuple[list, ...], float]]:
    """Yield (t, y, K, h) at t0 and at every accepted node after it, ending at t1.

    K holds the stages of the step of length h that ended at t, so K[0] is
    the slope at its start and K[-1] = rhs(y); at t0, K holds only that
    slope and h is 0. The rhs never sees t, which is tracked only for the
    nodes and the events. The first trial step is min(cfg.max_step,
    t1 - t0); later steps are capped at ``max_step``.
    """
    t = t0
    y = y0
    h = min(cfg.max_step, t1 - t0)
    K = (_slope(rhs, y),)
    yield t, y, K, 0.0
    while True:
        remaining = t1 - t
        if remaining <= MIN_STEP:
            return
        h = min(h, remaining)
        if h < MIN_STEP:
            raise StepUnderflow(f"step size {h:.3e} below {MIN_STEP:.0e} at t={t!r}")
        y_new, K_new, err = _dp5_step(rhs, y, K[-1], h)
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
    """Integrate ``dy/dt = rhs(y)`` over ``t_span``, storing every accepted node.

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
    """Time derivative of ``event`` at state y moving with velocity ydot (lists
    of floats), a central difference over y -/+ dt * ydot."""
    ahead = [a + dt * v for a, v in zip(y, ydot)]
    behind = [a - dt * v for a, v in zip(y, ydot)]
    return (event(ahead) - event(behind)) / (2.0 * dt)


def _graze_ruled_out(e_a, r_a, e_b, r_b, h):
    """Whether the event's tangent lines at the two ends of a step of length
    h (values e_a, e_b; rates r_a, r_b) meet more than GRAZE_MARGIN beyond
    zero on e_a's side. Floats or, elementwise, lane arrays."""
    meet = e_a + r_a * (e_b - e_a - r_b * h) / (r_a - r_b)
    return meet * e_a > GRAZE_MARGIN * abs(e_a)


def _hit(times: list, states: list) -> EventHit:
    path = Trajectory(np.asarray(times), np.asarray(states))
    return EventHit(times[-1], path.final_state, path)


def _crossing(event: Event, t_a: float, y_a: list, e_a: float, t_b: float, y_b: list,
              e_b: float, K, h: float) -> tuple[float, list] | None:
    """The first zero of ``event`` in one accepted step, as (t, y), or None.

    The step of length h runs from (t_a, y_a) to (t_b, y_b) with stages K;
    e_a (nonzero) and e_b are the event at its ends. A sign change or a
    graze (see the module docstring) is pinned down to ``EVENT_TOL`` in time
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
    # probe(t): the state, as a list, and the event at t on the step's
    # continuous extension, cached and seeded with the ends, so brentq, which
    # evaluates the bracket ends first, repeats no evaluation.
    Q = np.array(K).T @ _P
    y_start = np.array(y_a)
    known = {t_a: (y_a, e_a), t_b: (y_b, e_b)}

    def probe(t: float) -> tuple[list, float]:
        if t not in known:
            x = (t - t_a) / h
            y = (y_start + h * (Q @ np.array([x, x * x, x ** 3, x ** 4]))).tolist()
            known[t] = (y, float(event(y)))
        return known[t]

    t_end = t_b
    if not crossed:
        # The event turns inside the step, where its rate vanishes; it
        # crosses zero when that extremum does, and [t_a, extremum] then
        # brackets the crossing.
        def rate(t: float) -> float:
            if t == t_a:
                return r_a
            if t == t_b:
                return r_b
            x = (t - t_a) / h
            velocity = (Q @ np.array([1.0, 2.0 * x, 3.0 * x * x, 4.0 * x ** 3])).tolist()
            return _rate(event, probe(t)[0], velocity, dt)

        t_end = brentq(rate, t_a, t_b, xtol=EVENT_TOL)
        e_end = probe(t_end)[1]
        if e_end != 0.0 and (e_end > 0.0) == (e_a > 0.0):
            return None
    t_hit = brentq(lambda t: probe(t)[1], t_a, t_end, xtol=EVENT_TOL)
    return t_hit, probe(t_hit)[0]


def locate_event(
    rhs: Rhs,
    y0,
    t_span: tuple[float, float],
    event: Event,
    cfg: IntegratorConfig = IntegratorConfig(),
    stop: float = math.inf,
) -> EventHit | None:
    """Locate the first zero crossing of ``event`` along the trajectory.

    Steps are limited by the tolerances alone; ``cfg.max_step`` only bounds
    the first trial step. Each accepted step goes through the crossing rule
    ``_crossing``: a sign change or a graze, pinned down to ``EVENT_TOL``
    in time on the step's interpolant; the hit lies strictly after the last
    stored node, or is that node. Returns None when no step of ``t_span``
    brackets a crossing. The event is called on the state as a list: at the
    nodes, and at points inside a step read from its interpolant.

    ``stop`` ends the search early: once a step that ends at or past
    ``stop`` brackets no crossing, it returns None, so there is no crossing
    before ``stop``. The steps do not depend on ``stop`` (``t_span`` still
    sets them), so any hit it returns is the full search's, bit for bit.
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
        found = _crossing(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h)
        if found is not None:
            # A root on the left node is that node, already stored last.
            if found[0] > t_a:
                times.append(found[0])
                states.append(found[1])
            return _hit(times, states)
        if t_b >= stop:
            return None
        times.append(t_b)
        states.append(y_b)
        t_a, y_a, e_a = t_b, y_b, e_b
    return None


def locate_lane_events(rhs: Rhs, Y: np.ndarray, t1: float, n_steps: int, event: Event,
                       lane_event: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The first zero of ``event`` on each lane over (0, t1] at the fixed step
    t1 / n_steps, NaN on a lane with none (see the module docstring).

    Y is a (d, n) block of initial states, one lane per column; ``rhs([Y])``
    returns the slope as ``(K,)``, a block like Y, and ``lane_event(Y)`` is
    ``event`` on every column. The event must be nonzero at the start.
    """
    ids = np.arange(Y.shape[1])
    hit_times = np.full(ids.size, np.nan)
    h = t1 / n_steps
    dt = _RATE_DT * h

    def rate(y, k):  # ``_rate`` on every lane: one central difference on the block
        return (lane_event(y + dt * k) - lane_event(y - dt * k)) / (2.0 * dt)

    with np.errstate(all="ignore"):
        (k1,) = rhs([Y])
        e_a, r_a = lane_event(Y), rate(Y, k1)
        for i in range(n_steps):
            if not ids.size:
                break
            t_a, t_b = i * h, (i + 1) * h
            (y_b,), K, (err,) = _dp5_step(rhs, [Y], (k1,), h)
            (k_b,) = K[-1]
            e_b, r_b = lane_event(y_b), rate(y_b, k_b)
            retired = ~(np.isfinite(y_b).all(axis=0) & (np.abs(err) <= h).all(axis=0))
            flagged = (e_b == 0.0) | ((e_b > 0.0) != (e_a > 0.0)) | (
                (r_b * e_b > 0.0) & (r_a * e_a < 0.0) & ~_graze_ruled_out(e_a, r_a, e_b, r_b, h)
            )
            for j in np.flatnonzero(flagged & ~retired):
                ya, yb = Y[:, j].tolist(), y_b[:, j].tolist()
                Kj = [k[:, j].tolist() for (k,) in K]
                found = _crossing(event, t_a, ya, event(ya), t_b, yb, event(yb), Kj, h)
                if found is not None:
                    hit_times[ids[j]], retired[j] = found[0], True
            keep = ~retired
            if not keep.all():
                y_b, k_b = y_b[:, keep], k_b[:, keep]
                e_b, r_b, ids = e_b[keep], r_b[keep], ids[keep]
            Y, k1, e_a, r_a = y_b, k_b, e_b, r_b
    return hit_times
