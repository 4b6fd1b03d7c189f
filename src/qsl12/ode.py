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
alone. The event searches hand a step to one crossing rule,
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
the crossing down to ``EVENT_TOL`` on the interpolant. Both searches
screen first: only a step whose event changes sign, or moves away from
zero at its right end, reaches the rule, which finds nothing on any other.

The step runs on Python floats, in straight-line code generated from the
tableau (``_A``, ``_E``): ``_dp5_source`` writes one step, its error norm
included, per state width, and ``_rate_source`` the event's rate, apart, as
only the event searches read it; each compiles on the width's first use.
They unpack the state and each slope into one local per component, which
checks the slope's length on every call, and spell out each sum term by
term in the order of the list-comprehension form, so every float is that
form's, bit for bit.

``locate_lane_events`` runs n states side by side as *lanes* at the fixed
step ``MAX_STEP``, up to the first node at or past the end of the span, so
the steps, and with them every hit, do not depend on where the span ends;
a zero past the end counts as none. The rhs takes Y, a (d, n) block with
one lane per column, and returns the slope's d components, which only this
function writes into a (7, d, n) stage buffer. Each stage sum is one
``einsum`` of a tableau row with it, summing each element over the stages
in order as the generated step does on the one-element state ``[Y]``: the
floats are that step's (but for a zero sum's sign, and NaN where stage 2
is not finite) and, unlike a BLAS product's, do not depend on the block.
A numpy screen on the block (a sign change, or the graze conditions and
the tangent screen on rates from one central difference) flags the lanes
that ``_crossing`` decides, one column at a time, on the screen's own rates
at the step's two ends. A lane retires at its hit, and with none at a
non-finite state or an error estimate above the step: a fixed step can
step over a singularity of the flow to a hit no adaptive search has.

The flows are autonomous, and the state crosses into caller code as a list:
``rhs(y)`` and ``event(y)`` receive a list of Python floats (or complex
numbers), which they must not modify. The rhs returns its slope as a
sequence of Python numbers, one per component, which the step reads as it
is. A search's hit is a float and a list, and its path, like
``integrate``'s trajectory, holds ndarrays: float64 for a real state,
complex128 for a complex one. So a shot whose path no one reads runs
without numpy, which the lanes alone need.

``brentq`` is the package's one root finder, also used by ``shooting``. It
transcribes SciPy 1.17's ``scipy.optimize.brentq`` (its C core
``Zeros/brentq.c`` and its Python wrapper) line by line: the same operations
in the same order, so every iterate, the root and the errors raised are
SciPy's, bit for bit, and the package runs on numpy alone.

Everything is deterministic: identical inputs produce bit-identical output.
All times are in units of 1/Omega_0 with Omega_0 = 1.
"""

from __future__ import annotations

import functools
import linecache
import math
import operator
import sys
from typing import Callable, Iterator, Sequence

from ._lazy import np

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
#: part of the error scale (see ``_dp5``).
TOL = 1e-10

#: The step cap of ``integrate``, so the spacing of the trajectory nodes
#: that the exports sample, and the fixed step of ``locate_lane_events``;
#: in ``nodes`` and ``locate_event`` it only bounds the first trial step.
MAX_STEP = 1e-2

#: The width, in time, to which an event crossing is localized.
EVENT_TOL = 1e-10

#: ``rhs(y)``: y is the state as a list; the slope a sequence of Python numbers.
Rhs = Callable[[list], Sequence]
#: ``event(y)``: y is the state as a list; a real number, zero on the crossing.
Event = Callable[[list], float]


class StepUnderflow(RuntimeError):
    """Adaptive step fell below MIN_STEP."""


class Trajectory:
    """Sampled solution: ``states[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray

    def __init__(self, times, states) -> None:
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states)
        if self.times.ndim != 1 or len(self.states) != len(self.times):
            raise ValueError("times and states must have matching leading length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


class EventHit:
    """First event crossing: time ``t``, state ``y`` there (a list), and
    ``trajectory``, the path to it, built when first read: the search's
    accepted nodes, whose spacing is set by the tolerance alone, then the
    crossing."""

    def __init__(self, times: list, states: list):
        self.t = times[-1]
        self.y = states[-1]
        self._path = times, states

    @functools.cached_property
    def trajectory(self) -> Trajectory:
        return Trajectory(*self._path)


# Dormand-Prince 5(4) tableau (II.5, Table 5.2), the data the step is
# generated from. The rows of _A give stages 2 to 7 their weights on the
# stages before them; the last row doubles as the weights of the propagating
# 5th-order solution (FSAL: stage 7 is the slope there, reused as stage 1 of
# the next step). _E holds the 5th-minus-4th order error weights. A zero
# (A72, E2) contributes no term to a stage sum.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# Free quartic continuous extension of the pair (II.6, the coefficients of
# scipy's RK45.P): inside an accepted step of length h from (t, y) with
# stages K, the state at t + x*h is y + h * (K.T @ _P) @ (x, x^2, x^3, x^4).
# Row j holds stage j's weights on the four powers.
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# Each power's nonzero weights, as (stage, weight) in stage order: the terms
# of one coefficient of K.T @ _P.
_P_TERMS = tuple(tuple((j, w) for j, w in enumerate(column) if w) for column in zip(*_P))

#: Half-width of the central difference that gives an event's time
#: derivative, as a fraction of the step.
_RATE_DT = 1e-4

#: Tangent-screen margin, in units of the event (see the module docstring):
#: about 100 times the h^2-scale curvature term of the shots' steps.
GRAZE_MARGIN = 1e-2


def _as_state(y0) -> list:
    """The initial state, a sequence of numbers or an ndarray, as a list of
    Python floats, or of complex numbers when a component is complex."""
    try:
        y = list(y0.tolist() if hasattr(y0, "tolist") else y0)
        kind = complex if any(isinstance(v, complex) for v in y) else float
        y = [kind(v) for v in y]
    except TypeError:  # a scalar, or a component that is itself a sequence
        y = []
    if not y:
        raise ValueError("y0 must be a non-empty 1-D state vector")
    return y


def _span(t_span) -> tuple[float, float]:
    """The ends of ``t_span`` as floats, checked finite and in order."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if t1 < t0:
        raise ValueError("t_span must be non-decreasing")
    return t0, t1


def _slope(k: Sequence, d: int) -> Sequence:
    """A slope checked for d components."""
    if len(k) != d:
        raise ValueError(f"rhs returned {len(k)} components for a state of {d}")
    return k


def _check_tol(tol: float) -> float:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def _unpack(d: int, *names: str) -> list[str]:
    """Generated lines that unpack each list of ``names`` into d locals."""
    return [f"    {''.join(f'{name}_{i}, ' for i in range(d))}= {name}" for name in names]


def _dp5_source(d: int) -> str:
    """The source of the DP5 step, its error norm included, on states of d
    components, straight-line.

    It unpacks its lists into one local per component, which checks a
    slope's length, and writes every stage sum per component in the
    tableau's order, left to right, each weight a literal (``repr`` reads
    back as the same float); a zero weight contributes no term. The norm
    sums its squares in component order, with ``max`` written out as the
    comparison ``max`` makes: the list-comprehension and loop forms' floats.
    """
    def stage(i: int, weights: tuple) -> str:
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in enumerate(weights, 1) if w)

    stages = ", ".join(f"k{j}" for j in range(1, len(_A) + 2))
    lines = [f"def _dp5_step_{d}(rhs, y, k1, h, tol):", *_unpack(d, "y", "k1")]
    for j, row in enumerate(_A, 2):
        states = ", ".join(f"y_{i} + h * ({stage(i, row)})" for i in range(d))
        if row is not _A[-1]:
            lines.append(f"    k{j} = rhs([{states}])")
        else:  # the weights: the new state, and the slope there
            lines += [f"    y_new = [{states}]", f"    k{j} = rhs(y_new)", *_unpack(d, "y_new")]
        lines += _unpack(d, f"k{j}")
    for i in range(d):  # the error and the norm's terms
        lines += [f"    e_{i}, a_{i}, b_{i} = h * ({stage(i, _E)}), abs(y_{i}), abs(y_new_{i})",
                  f"    q_{i} = abs(e_{i}) / (tol + tol * (b_{i} if b_{i} > a_{i} else a_{i}))"]
    lines.append(f"    return y_new, ({stages}), sqrt(({' + '.join(f'q_{i} * q_{i}' for i in range(d))}) / {d})")
    return "\n".join(lines) + "\n"


def _rate_source(d: int) -> str:
    """The source of ``_rate`` on states of d components: the central
    difference of the list-comprehension form, straight-line."""
    def state(sign: str) -> str:
        return ", ".join(f"y_{i} {sign} dt * ydot_{i}" for i in range(d))

    return "\n".join([f"def _rate_{d}(event, y, ydot, dt):", *_unpack(d, "y", "ydot"),
                      f"    return (event([{state('+')}]) - event([{state('-')}])) / (2.0 * dt)"]) + "\n"


def _compiled(source_of: Callable[[int], str], d: int) -> dict:
    """The namespace ``source_of(d)`` defines; its source is in
    ``linecache``, for tracebacks."""
    source = source_of(d)
    filename = f"<ode.{source_of.__name__}({d})>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@functools.cache
def _dp5(d: int) -> Callable:
    """The DP5 step on states of d components, compiled from ``_dp5_source``
    on first use: ``(rhs, y, rhs(y), h, tol)`` returns the new state, the 7
    stages and the error norm, the RMS of the error over tol + tol *
    max(|y|, |y_new|), its squares summed in component order (numpy's order
    below 8 components; from 8 on numpy sums pairwise).
    """
    return _compiled(_dp5_source, d)[f"_dp5_step_{d}"]


@functools.cache
def _rate(d: int) -> Callable:
    """``(event, y, ydot, dt)``: the time derivative of ``event`` at the
    state y moving with velocity ydot (lists of d floats), a central
    difference over y -/+ dt * ydot; compiled on first use."""
    return _compiled(_rate_source, d)[f"_rate_{d}"]


def _steps(rhs: Rhs, t0: float, y0: list, t1: float, tol: float,
           max_step: float = math.inf) -> Iterator[tuple[float, list, tuple[list, ...], float]]:
    """Yield (t, y, K, h) at t0 and at every accepted node after it, ending at t1.

    K holds the stages of the step of length h that ended at t, so K[0] is
    the slope at its start and K[-1] = rhs(y); at t0, K holds only that
    slope and h is 0. The rhs never sees t, which is tracked only for the
    nodes and the events. The first trial step is min(MAX_STEP, t1 - t0);
    later steps are capped at ``max_step``.
    """
    # min(a, b), max(a, b) as the builtins compare: b if b < a (b > a) else a
    t = t0
    y = y0
    h = t1 - t0 if t1 - t0 < MAX_STEP else MAX_STEP
    K = (_slope(rhs(y), len(y)),)
    step = _dp5(len(y))
    yield t, y, K, 0.0
    # Each t + h rounds by up to half an ulp of the span's larger end, so
    # after n steps t may lie n of those from the sum of the steps; an end
    # that close (or within MIN_STEP) is reached, not one more step away.
    a0, a1 = abs(t0), abs(t1)
    half_ulp = 0.5 * math.ulp(a1 if a1 > a0 else a0)
    n = 0
    while True:
        remaining = t1 - t
        if remaining <= MIN_STEP:
            return
        h = remaining if remaining < h else h
        if h < MIN_STEP:
            raise StepUnderflow(f"step size {h:.3e} below {MIN_STEP:.0e} at t={t!r}")
        y_new, K_new, enorm = step(rhs, y, K[-1], h, tol)
        # 0.9 * enorm ** -0.2 in [0.2, 5]: >= 0.9 if accepted, < 0.9 if not
        if enorm <= 1.0:
            n += 1
            slack = n * half_ulp
            t = t1 if (t1 - (t + h)) <= (slack if slack > MIN_STEP else MIN_STEP) else t + h
            y = y_new
            K = K_new
            yield t, y, K, h
            factor = 0.9 * enorm ** -0.2 if enorm != 0.0 else 5.0
            factor = factor if factor < 5.0 else 5.0
        else:  # a NaN norm too: 0.2
            factor = 0.9 * enorm ** -0.2
            factor = factor if factor > 0.2 else 0.2
        h = h * factor
        h = h if h < max_step else max_step


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
    steps = _steps(rhs, t0, _as_state(y0), t1, _check_tol(tol), MAX_STEP)
    return Trajectory(*zip(*((t, y) for t, y, _, _ in steps)))


def _graze_ruled_out(e_a, r_a, e_b, r_b, h):
    """Whether the event's tangent lines at the two ends of a step of length
    h (values e_a, e_b; rates r_a, r_b) meet more than GRAZE_MARGIN beyond
    zero on e_a's side. Floats or, elementwise, lane arrays."""
    meet = e_a + r_a * (e_b - e_a - r_b * h) / (r_a - r_b)
    return meet * e_a > GRAZE_MARGIN * abs(e_a)


#: The floor of ``brentq``'s relative tolerance, and its default.
_BRENTQ_RTOL = 4 * sys.float_info.epsilon


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


def _extension(y_a: list, K, h: float) -> tuple[Callable[[float], list], Callable[[float], list]]:
    """The continuous extension of the step of length h from y_a with stages
    K, as two functions of x = (t - t_a) / h: the state, y_a + h * Q @ (x,
    x^2, x^3, x^4), and its velocity, Q @ (1, 2x, 3x^2, 4x^3), each a list.
    Q = K.T @ _P, each coefficient summed over the stages in order, and each
    product with the powers summed in the powers' order: Python floats (or
    complex numbers) in a fixed order, whatever the BLAS."""
    Q = []
    for k in zip(*K):  # the stages of one component
        row = []
        for (j, w), *rest in _P_TERMS:
            q = k[j] * w
            for j, w in rest:
                q += k[j] * w
            row.append(q)
        Q.append(row)

    def state(x: float) -> list:
        x2, x3, x4 = x * x, x ** 3, x ** 4
        return [y + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4) for y, (q1, q2, q3, q4) in zip(y_a, Q)]

    def velocity(x: float) -> list:
        d2, d3, d4 = 2.0 * x, 3.0 * x * x, 4.0 * x ** 3
        return [q1 + q2 * d2 + q3 * d3 + q4 * d4 for q1, q2, q3, q4 in Q]

    return state, velocity


def _crossing(event: Event, t_a: float, y_a: list, e_a: float, t_b: float, y_b: list,
              e_b: float, K, h: float, r_a: float | None, r_b: float | None) -> tuple[float, list] | None:
    """The first zero of ``event`` in one accepted step, as (t, y), or None.

    The step of length h runs from (t_a, y_a) to (t_b, y_b) with stages K;
    e_a (nonzero) and e_b are the event at its ends, and r_a and r_b its
    rates there, ``_rate`` on y_a and K[0] and on y_b and K[-1]: both None
    only where the event changes sign, which reads no rate. A sign change
    or a graze (see the module docstring) is pinned down to ``EVENT_TOL``
    in time on the step's interpolant; a zero at t_a is returned as t_a.
    """
    crossed = e_b == 0.0 or (e_b > 0.0) != (e_a > 0.0)
    if not crossed:
        # A graze needs the event moving toward zero at t_a and away from it at t_b.
        if not (r_b * e_b > 0.0 and r_a * e_a < 0.0) or _graze_ruled_out(e_a, r_a, e_b, r_b, h):
            return None
    # probe(t): the state, as a list, and the event at t on the step's
    # continuous extension, cached and seeded with the ends, so brentq, which
    # evaluates the bracket ends first, repeats no evaluation.
    state_at, velocity_at = _extension(y_a, K, h)
    known = {t_a: (y_a, e_a), t_b: (y_b, e_b)}

    def probe(t: float) -> tuple[list, float]:
        if t not in known:
            y = state_at((t - t_a) / h)
            known[t] = (y, float(event(y)))
        return known[t]

    t_end = t_b
    if not crossed:
        # The event turns inside the step, where its rate vanishes; it
        # crosses zero when that extremum does, and [t_a, extremum] then
        # brackets the crossing.
        dt = _RATE_DT * h
        rate_of = _rate(len(y_a))

        def rate(t: float) -> float:
            if t == t_a:
                return r_a
            if t == t_b:
                return r_b
            return rate_of(event, probe(t)[0], velocity_at((t - t_a) / h), dt)

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
    the first trial step. A step whose event keeps its sign and does not
    move away from zero at its right end brackets nothing; every other goes
    through the crossing rule ``_crossing``: a sign change or a graze,
    pinned down to ``EVENT_TOL`` in time on the step's interpolant; the hit
    lies strictly after the last stored node, or is that node. Returns None
    when no step of ``t_span`` brackets a crossing. The event is called on
    the state as a list: at the nodes, around them for its rate, and at
    points inside a step read from its interpolant.

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
        return EventHit(times, states)
    rate = _rate(len(y_a))
    above = e_a > 0.0  # the event's sign, which holds up to the hit
    for t_b, y_b, K, h in steps:
        e_b = float(event(y_b))
        found = None
        if e_b == 0.0 or (e_b > 0.0) != above:
            found = _crossing(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h, None, None)
        else:
            # the screen: a step that keeps the event's sign can only graze,
            # moving away from zero at t_b; the rule reads its rate at t_a too
            dt = _RATE_DT * h
            r_b = rate(event, y_b, K[-1], dt)
            if r_b * e_b > 0.0:
                found = _crossing(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h, rate(event, y_a, K[0], dt), r_b)
        if found is not None:
            # A root on the left node is that node, already stored last.
            if found[0] > t_a:
                times.append(found[0])
                states.append(found[1])
            return EventHit(times, states)
        if t_b >= stop:
            return None
        times.append(t_b)
        states.append(y_b)
        t_a, y_a, e_a = t_b, y_b, e_b
    return None


def _put(k: np.ndarray, slope: Sequence) -> None:  # a block rhs's slope into the stage k
    for row, component in enumerate(_slope(slope, len(k))):
        k[row] = component


def _lane_step(rhs: Callable[[np.ndarray], Sequence], Y: np.ndarray, K: np.ndarray, h: float) -> tuple:
    """One DP5 step of length h from the block Y, whose slope is K[0]: fills
    the stage buffer K and returns the new state and the error."""
    for s, weights in enumerate(_A, 1):
        y = Y + h * np.einsum("s,sij->ij", weights, K[:s])
        _put(K[s], rhs(y))
    return y, h * np.einsum("s,sij->ij", _E, K)


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

    def rate(y, k):  # ``_rate`` on every lane: one central difference on the block
        dk = dt * k
        return (event(y + dk) - event(y - dk)) / (2.0 * dt)

    with np.errstate(all="ignore"):
        # empty_like keeps an ndarray subclass, as the ufuncs on Y do
        K = np.empty_like(Y, shape=(len(_A) + 1, *Y.shape))
        _put(K[0], rhs(Y))
        e_a, r_a = event(Y), rate(Y, K[0])
        for i in range(math.ceil(n_steps)):
            if not ids.size:
                break
            t_a, t_b = i * h, (i + 1) * h
            y_b, err = _lane_step(rhs, Y, K, h)
            e_b, r_b = event(y_b), rate(y_b, K[-1])
            retired = ~(np.isfinite(y_b).all(axis=0) & (np.abs(err) <= h).all(axis=0))
            flagged = (e_b == 0.0) | ((e_b > 0.0) != (e_a > 0.0)) | (
                (r_b * e_b > 0.0) & (r_a * e_a < 0.0) & ~_graze_ruled_out(e_a, r_a, e_b, r_b, h)
            )
            for j in np.flatnonzero(flagged & ~retired):
                ya, yb = Y[:, j].tolist(), y_b[:, j].tolist()
                found = _crossing(event, t_a, ya, e_a[j], t_b, yb, e_b[j], K[:, :, j].tolist(), h, r_a[j], r_b[j])
                if found is not None:
                    retired[j] = True
                    if found[0] <= t1:
                        hit_times[ids[j]] = found[0]
            k_b, keep = K[-1], ~retired
            if not keep.all():  # only the FSAL slope moves to a buffer of the kept lanes
                y_b, e_b, r_b, ids, k_b = y_b[:, keep], e_b[keep], r_b[keep], ids[keep], k_b[:, keep]
                K = np.empty_like(K, shape=(len(K), *y_b.shape))
            Y, K[0], e_a, r_a = y_b, k_b, e_b, r_b
    return hit_times
