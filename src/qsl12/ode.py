"""Adaptive Runge-Kutta integration with event localization.

The flows in this package are smooth and non-stiff, but regression against
published transfer times requires tight local error control, so every
integration runs on the embedded Dormand-Prince 5(4) pair with proportional
step control (Hairer, Norsett & Wanner, Solving ODEs I, II.4-6).

One tolerance, ``tol`` (default ``TOL``), sets the local error of every
adaptive integration. ``nodes`` and ``locate_event`` let the tolerance
alone set their steps, the same steps from the same start: ``nodes`` yields
every accepted node, one at a time, so a caller can stop at a node of its
choice and continue from it. ``integrate`` caps every step at the constant
``MAX_STEP``, read at each call, so the trajectory it returns, which the
exports sample, has its nodes at most ``MAX_STEP`` apart; only it and the
lanes step at ``MAX_STEP``, which elsewhere bounds the first trial step
alone. ``locate_event`` hands each accepted step to one crossing rule,
``_crossing``, which reads the state inside the step from the pair's free
quartic continuous extension (dense output, II.6), built from the step's
seven stages at no rhs call. A step brackets an event when the event
changes sign across it, or when it *grazes* zero: both ends share a sign,
the event moves toward zero at the left end and away from it at the right
end, and at its extremum in between, found on the interpolant, it reaches
zero. The extremum search is skipped when the event's tangent lines at the
two ends meet more than ``GRAZE_MARGIN`` beyond zero on the side where the
step starts: a concave (or convex) event lies below (or above) its
tangents, so it cannot graze. Brent's root finder, ``brentq``, then pins
the crossing down to ``EVENT_TOL`` on the interpolant.

The step runs on Python floats: the state and the seven stages are lists,
and each stage sum is written out per component in the order numpy would
use. On the 4-component extremal state one step and its error norm take
37-40 us, against 85-89 us as array code (2-vCPU Xeon VM, py3.11, numpy
2.4).

``locate_lane_events`` runs n states side by side as *lanes* at the fixed
step ``MAX_STEP``, up to the first node at or past the end of the span, so
the steps, and with them every hit, do not depend on where the span ends;
a zero past the end counts as none. The rhs takes Y, a (d, n) block with
one lane per column, and returns the slope's d components; only this
function packs them into a block like Y, the one-element state ``[Y]`` of
``_dp5_step``, so each stage sum is one numpy expression on the whole
block, with the same operations per element in the same order. One event
reads both the block and one lane's list. A numpy screen on the block (a
sign change, or the graze conditions and the tangent screen on rates from
one central difference) flags the lanes that ``_crossing`` decides, one
column at a time. A lane retires at its hit, and with none at a non-finite
state or an error estimate above the step: a fixed step can step over a
singularity of the flow to a hit no adaptive search has.

The flows are autonomous, and the state crosses into caller code as a list:
``rhs(y)`` and ``event(y)`` receive a list of Python floats (or complex
numbers), which they must not modify. The rhs may return any sequence of the
state's length; a returned ndarray is converted once with ``tolist()``.
Results are ndarrays: float64 for a real state, complex128 for a complex one.

``brentq`` is the package's one root finder, also used by ``shooting``. It
transcribes SciPy 1.17's ``scipy.optimize.brentq`` (its C core
``Zeros/brentq.c`` and its Python wrapper) line by line: the same operations
in the same order, so every iterate, the root and the errors raised are
SciPy's, bit for bit, and the package runs on numpy alone.

Everything is deterministic: identical inputs produce bit-identical output.
All times are in units of 1/Omega_0 with Omega_0 = 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Trajectory",
    "EventHit",
    "StepUnderflow",
    "brentq",
    "nodes",
    "integrate",
    "locate_event",
    "locate_lane_events",
]

#: Hard floor for the adaptive step; reaching it signals stiffness or a
#: singularity in the right-hand side.
MIN_STEP = 1e-14

#: The default local-error tolerance, both the absolute and the relative
#: part of the error scale (see ``_error_norm``).
TOL = 1e-10

#: The step cap of ``integrate``, so the spacing of the trajectory nodes
#: that the exports sample, and the fixed step of ``locate_lane_events``;
#: in ``nodes`` and ``locate_event`` it only bounds the first trial step.
MAX_STEP = 1e-2

#: The width, in time, to which an event crossing is localized.
EVENT_TOL = 1e-10

#: ``rhs(y)``: y is the state as a list; the slope may be any sequence.
Rhs = Callable[[list], Sequence]
#: ``event(y)``: y is the state as a list; a real number, zero on the crossing.
Event = Callable[[list], float]


class StepUnderflow(RuntimeError):
    """Adaptive step fell below MIN_STEP."""


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
    tolerance alone, followed by the crossing.
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


def _check_tol(tol: float) -> float:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def _error_norm(err: list, y_old: list, y_new: list, tol: float) -> float:
    """RMS of the error over the scale tol + tol * max(|y_old|, |y_new|).

    The squares are summed in component order, which is numpy's order for
    fewer than 8 components (from 8 on numpy sums pairwise).
    """
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


def _steps(rhs: Rhs, t0: float, y0: list, t1: float, tol: float,
           max_step: float = math.inf) -> Iterator[tuple[float, list, tuple[list, ...], float]]:
    """Yield (t, y, K, h) at t0 and at every accepted node after it, ending at t1.

    K holds the stages of the step of length h that ended at t, so K[0] is
    the slope at its start and K[-1] = rhs(y); at t0, K holds only that
    slope and h is 0. The rhs never sees t, which is tracked only for the
    nodes and the events. The first trial step is min(MAX_STEP, t1 - t0);
    later steps are capped at ``max_step``.
    """
    t = t0
    y = y0
    h = min(MAX_STEP, t1 - t0)
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
        enorm = _error_norm(err, y, y_new, tol)
        if enorm <= 1.0:
            t = t1 if (t1 - (t + h)) <= MIN_STEP else t + h
            y = y_new
            K = K_new
            yield t, y, K, h
            factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        else:
            factor = max(0.2, 0.9 * enorm ** -0.2)
        h = min(max_step, h * factor)


def nodes(rhs: Rhs, y0, t_span: tuple[float, float], tol: float = TOL) -> Iterator[tuple[float, list]]:
    """The accepted nodes of ``dy/dt = rhs(y)`` over ``t_span``, as (t, y),
    at the local-error tolerance ``tol``.

    The first node is the start; the tolerance alone sets the steps, so the
    nodes are those ``locate_event`` searches on the same arguments, bit for
    bit. y is the state as a list, which the consumer must not modify. The
    arguments, ``tol`` among them, are checked at the call; the steps are
    taken as the nodes are drawn, and the next draw raises StepUnderflow if
    the controller drives the step below MIN_STEP.
    """
    t0, t1 = _span(t_span)
    steps = _steps(rhs, t0, _as_state(y0), t1, _check_tol(tol))
    return ((t, y) for t, y, _, _ in steps)


def integrate(rhs: Rhs, y0, t_span: tuple[float, float], tol: float = TOL) -> Trajectory:
    """Integrate ``dy/dt = rhs(y)`` over ``t_span`` at the local-error
    tolerance ``tol``, with every step capped at MAX_STEP: the trajectory of
    the accepted nodes, at most MAX_STEP apart. Raises StepUnderflow if the
    controller drives the step below MIN_STEP.
    """
    t0, t1 = _span(t_span)
    times = []
    states = []
    for t, y, _, _ in _steps(rhs, t0, _as_state(y0), t1, _check_tol(tol), MAX_STEP):
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


#: The floor of ``brentq``'s relative tolerance, and its default.
_BRENTQ_RTOL = 4 * float(np.finfo(float).eps)


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
           rtol: float = _BRENTQ_RTOL, maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign: Brent's
    method (Brent, *Algorithms for Minimization without Derivatives*, 1973),
    as ``scipy.optimize.brentq`` with the same defaults, bit for bit (see
    the module docstring).

    The root x0 is returned once the bracket is narrower than
    xtol + rtol * |x0|. f is called with a float and its value read as one.
    Raises ValueError for xtol <= 0, rtol below 4 machine epsilons,
    maxiter < 0, f(a) and f(b) of one sign, or a NaN value of f;
    RuntimeError when maxiter iterations do not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    # The C core's variables: the previous iterate, the current one and the
    # end of the bracket opposite it, their values, and the last two steps.
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
    tol: float = TOL,
    stop: float = math.inf,
) -> EventHit | None:
    """Locate the first zero crossing of ``event`` along the trajectory.

    Steps are limited by the tolerance ``tol`` alone; MAX_STEP only bounds
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
    steps = _steps(rhs, t0, _as_state(y0), t1, _check_tol(tol))
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


def locate_lane_events(rhs: Callable[[np.ndarray], Sequence], Y: np.ndarray, t1: float, event: Event) -> np.ndarray:
    """The first zero of ``event`` on each lane over (0, t1], NaN on a lane
    with none (see the module docstring).

    Every lane steps at MAX_STEP, for ceil(t1 / MAX_STEP) steps, so a hit
    does not depend on t1; a zero past t1, in a last step that ends beyond
    it, counts as none. Y is a (d, n) block of initial states, one lane per
    column; ``rhs(Y)`` returns the slope's d components, rows or scalars.
    ``event`` takes a block, returning its value on every column, and the
    list of one lane's state; it must be nonzero at the start. A step count
    that is not finite raises ValueError.
    """
    h = MAX_STEP
    n_steps = t1 / h
    if not math.isfinite(n_steps):
        raise ValueError(f"the step count of the span's end {t1!r} at MAX_STEP = {MAX_STEP!r} is not finite")
    ids = np.arange(Y.shape[1])
    hit_times = np.full(ids.size, np.nan)
    dt = _RATE_DT * h

    def block_rhs(state):  # the rhs of the one-element state [Y]: the slope packed into a block like Y
        k = np.empty_like(state[0])
        for row, component in enumerate(_slope(rhs, state[0])):
            k[row] = component
        return (k,)

    def rate(y, k):  # ``_rate`` on every lane: one central difference on the block
        return (event(y + dt * k) - event(y - dt * k)) / (2.0 * dt)

    with np.errstate(all="ignore"):
        (k1,) = block_rhs([Y])
        e_a, r_a = event(Y), rate(Y, k1)
        for i in range(math.ceil(n_steps)):
            if not ids.size:
                break
            t_a, t_b = i * h, (i + 1) * h
            (y_b,), K, (err,) = _dp5_step(block_rhs, [Y], (k1,), h)
            (k_b,) = K[-1]
            e_b, r_b = event(y_b), rate(y_b, k_b)
            retired = ~(np.isfinite(y_b).all(axis=0) & (np.abs(err) <= h).all(axis=0))
            flagged = (e_b == 0.0) | ((e_b > 0.0) != (e_a > 0.0)) | (
                (r_b * e_b > 0.0) & (r_a * e_a < 0.0) & ~_graze_ruled_out(e_a, r_a, e_b, r_b, h)
            )
            for j in np.flatnonzero(flagged & ~retired):
                ya, yb = Y[:, j].tolist(), y_b[:, j].tolist()
                Kj = [k[:, j].tolist() for (k,) in K]
                found = _crossing(event, t_a, ya, e_a[j], t_b, yb, e_b[j], Kj, h)
                if found is not None:
                    retired[j] = True
                    if found[0] <= t1:
                        hit_times[ids[j]] = found[0]
            keep = ~retired
            if not keep.all():
                y_b, k_b = y_b[:, keep], k_b[:, keep]
                e_b, r_b, ids = e_b[keep], r_b[keep], ids[keep]
            Y, k1, e_a, r_a = y_b, k_b, e_b, r_b
    return hit_times
