"""Indirect (shooting) solver for the three-level time-optimal transfer.

A single *shot* integrates the closed-loop extremal flow from
(phi, theta) = (0, 0) with trial initial costates and reports the first time
the target population |x3|^2 = (1 - eps)/2 is reached within the horizon.
Because the bang control depends only on the direction of (H1, H2), the hit
time is invariant under positive rescaling of the initial costate pair: the
optima form straight rays through the origin of the costate plane.

The transfer-time landscape over initial costates is scanned on a grid, one
unit-norm lane per lattice ray of the grid, up to the two reflections: the
flow is symmetric under (phi, theta, lambda_phi, lambda_theta) ->
(phi, -theta, lambda_phi, -lambda_theta), and lambda and -lambda give the
same time, so the hit time depends only on the ray of
(|lambda_phi|, |lambda_theta|).

A chosen ray is refined in the initial lambda_theta at fixed lambda_phi: a
coarse scan of shots along the guess's ray, then a root of the
transversality residual next to the fastest probe. At the optimal hit the
maximum principle makes the costate parallel to the gradient of the target
(Bryson & Ho 1975), and each hit reports the sine of the angle between them.
A shot that finds no hit counts as an infinite time. The result is on the
fastest branch the scan meets; the optimum must lie between 1/16 and about
3 times the guess. The scan screens, the search locates and the solve
solves: the probes only rank hit times, so they run at the looser tolerance
SCAN_TOL; the root search locates the root at SCAN_TOL too, to SCAN_TOL
relative; and the solve takes secant steps from the located root at the
configured tolerance, whose shots alone give the optimum, until the next
step is within REFINE_XTOL / 2 of the last hit, with Brent's method on the
record's tightest sign change as their safeguard. A phase without a root fails.
Along a continuation in eps only the first two points run the scan. Each
later point predicts its lambda_theta from the last two optima and
corrects it with the same root search, started just left of the
prediction; a point whose corrector finds no bracket is refined instead.
Each shot stops where it can no longer change the result: a probe at the
fastest hit of the probes before it, a shot of the root search, or of the
solve, outward of the fastest hit left of the root it has met, at that
hit's time. A shot's steps are the full shot's, so a hit does not change.

An optimum is its initial costates and its hit time. Only the exports that
show the optimal pulse sequence integrate its path, with ``extremal``.
"""

from __future__ import annotations

import array
import math
import os
from collections import Counter
from typing import NamedTuple

from . import lambda3, ode
from ._lazy import np
from .lambda3 import PhiSingularity, SwitchingDegeneracy

__all__ = [
    "ShotConfig",
    "Optimum",
    "LandscapeGrid",
    "NoConvergence",
    "NoFeasiblePoint",
    "InsufficientData",
    "shoot_info",
    "extremal",
    "landscape",
    "refine",
    "optima_along_eps",
    "area_curve",
    "asymptotic_mask",
    "fit_asymptote",
]

#: The initial costates (lambda_phi, guessed lambda_theta) a refinement
#: starts from when none are given.
START_RAY = (1.85, 0.9)


class NoConvergence(RuntimeError):
    """The transversality residual changes sign nowhere near the fastest
    probe (no valid bracket), or its root search failed."""


class NoFeasiblePoint(RuntimeError):
    """No trial costate produced a transfer within the horizon."""


class InsufficientData(ValueError):
    """Not enough points in the asymptotic regime to fit."""


#: The shot horizon of a ``ShotConfig`` that names none (Omega_0 = 1).
HORIZON = 15.0


def _built_by_new(cls, iterable):  # a record's _make, which _replace calls
    return cls(*iterable)


class ShotConfig(NamedTuple("ShotConfig", [("eps", float), ("horizon", float), ("tol", float)])):
    """Target accuracy, shot horizon, and integrator tolerance (Omega_0 = 1).
    A named tuple: read-only, equal by value, checked when built."""

    __slots__ = ()
    _make = classmethod(_built_by_new)

    def __new__(cls, eps: float, horizon: float = HORIZON, tol: float = ode.TOL) -> ShotConfig:
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not 0.0 < tol < math.inf:
            raise ValueError("tol must be positive and finite")
        return super().__new__(cls, eps, horizon, tol)

    @property
    def target(self) -> float:
        """Population |x3|^2 at the hit."""
        return 0.5 * (1.0 - self.eps)


class Optimum(NamedTuple("Optimum", [("lphi_i", float), ("ltheta_i", float), ("t_min", float)])):
    """A successful shot: its initial costates and hit time, a named tuple. On
    an eps continuation, ``fallback`` says why the point's corrector failed
    and ``refine`` solved it instead; it is an attribute, not a field, so it
    takes no part in comparisons, and a copy by ``_replace`` has none."""

    fallback: str | None
    _make = classmethod(_built_by_new)

    def __new__(cls, lphi_i: float, ltheta_i: float, t_min: float, fallback: str | None = None) -> Optimum:
        self = super().__new__(cls, lphi_i, ltheta_i, t_min)
        self.fallback = fallback
        return self

    @property
    def area(self) -> float:
        """Generalized pulse area, Omega_0 times the hit time: with Omega_0 = 1,
        the hit time itself."""
        return self.t_min


class LandscapeGrid:
    """Hit times over the square grid ``axis`` x ``axis`` of (lphi, ltheta); NaN marks no transfer."""

    axis: np.ndarray
    times: np.ndarray

    def __init__(self, axis, times) -> None:
        self.axis = np.asarray(axis, dtype=float)
        self.times = np.asarray(times, dtype=float)
        if self.times.shape != (self.axis.size, self.axis.size):
            raise ValueError("times shape must be (axis.size, axis.size)")
        finite = self.times[np.isfinite(self.times)]
        if finite.size and finite.min() <= 0.0:
            raise ValueError("finite hit times must be positive")

    @property
    def t_min(self) -> float:
        finite = self.times[np.isfinite(self.times)]
        if finite.size == 0:
            raise NoFeasiblePoint("landscape contains no transfer at all")
        return float(finite.min())

    def log_offsets(self) -> np.ndarray:
        """log10(T - T_min) with the offset clamped below by 1e-12."""
        return np.log10(np.maximum(self.times - self.t_min, 1e-12))


def _event(cfg: ShotConfig, cos=math.cos, sin=math.sin):
    target = cfg.target

    def x3sq_excess(y: list) -> float:
        c = cos(y[0]) * sin(y[1])
        return 0.5 * c * c - target

    return x3sq_excess


def _residual(y) -> float:
    """Transversality residual at the hit state y = (phi, theta, lambda_phi,
    lambda_theta): the sine of the angle from the costate to the gradient of
    the target g = cos(phi)^2 sin(theta)^2 / 2 - (1 - eps) / 2. The
    maximum principle puts the optimum where it is 0, the costate parallel
    to the gradient."""
    phi, theta, l_phi, l_theta = (float(c) for c in y)
    c, s, st = math.cos(phi), math.sin(phi), math.sin(theta)
    g_phi = -c * s * st * st
    g_theta = c * c * st * math.cos(theta)
    return (l_phi * g_theta - l_theta * g_phi) / (math.hypot(l_phi, l_theta) * math.hypot(g_phi, g_theta))


def shoot_info(lphi_i: float, ltheta_i: float, cfg: ShotConfig,
               stop: float = math.inf) -> tuple[float | None, str, float | None]:
    """Run one shot; return (hit time | None, diagnostic reason, transversality
    residual at the hit | None).

    A ``stop`` before the horizon ends the shot once it is known not to hit
    before ``stop`` (see ``ode.locate_event``), with reason "beyond-bound";
    a hit it does return is the unbounded shot's.
    """
    y0 = [0.0, 0.0, lphi_i, ltheta_i]
    try:
        hit = ode.locate_event(lambda3.extremal_rhs, y0, (0.0, cfg.horizon), _event(cfg), cfg.tol, stop)
    except SwitchingDegeneracy:
        return None, "switching-degeneracy", None
    except PhiSingularity:
        return None, "phi-singularity", None
    except ode.StepUnderflow:
        return None, "step-underflow", None
    if hit is None:
        return None, "beyond-bound" if stop < cfg.horizon else "no-crossing", None
    return hit.t, "hit", _residual(hit.y)


def extremal(opt: Optimum, cfg: ShotConfig) -> tuple[ode.Trajectory, np.ndarray]:
    """The extremal of ``opt`` up to its hit time, and the pulses along it.

    The shot finds the hit time on tolerance-limited steps; the extremal is
    integrated once more up to that time, at ``cfg.tol``, so its nodes are
    spaced at most ``ode.MAX_STEP`` apart, the sampling of the exports. The
    pulses hold one (Omega_p, Omega_s) row per node: the control the
    extremal flow itself applies there (``lambda3.extremal_control``).
    """
    y0 = [0.0, 0.0, opt.lphi_i, opt.ltheta_i]
    trajectory = ode.integrate(lambda3.extremal_rhs, y0, (0.0, opt.t_min), cfg.tol)
    pulses = np.array([lambda3.extremal_control(y)[1] for y in trajectory.states.tolist()])
    return trajectory, pulses


# ---------------------------------------------------------------------------
# Landscape scan.
#
# The hit time depends only on the ray of the initial costates. The
# reflection R: (phi, theta, lambda_phi, lambda_theta) ->
# (phi, -theta, lambda_phi, -lambda_theta) maps the extremal flow to itself
# (H1 is even under R, H2 odd, so Omega_s flips) and fixes the start and the
# target, and lambda and -lambda give the same time; together they give
# (lambda_phi, lambda_theta) -> (-lambda_phi, lambda_theta). So the time
# depends only on the ray of (|lambda_phi|, |lambda_theta|), and the scan
# integrates one unit-norm lane per lattice ray, up to the two reflections,
# and scatters each lane's time back to the cells of its four mirror rays.
# Both axes span one range; when it is symmetric about 0, cell k lies at
# p * hi / (n - 1) with the integer p = 2k - (n - 1), so two cells share a
# lane when their pairs (|p|, |q|) / gcd(|p|, |q|) agree; the lane starts in
# the first quadrant, at the unit vector along (|p|, |q|), so a grid's lanes
# do not depend on its scale. A range that is not symmetric gives one lane
# per cell, along the cell's own costates; a zero cell keeps zero costates,
# and its time stays NaN.
# A cell's time is its ray's: against a lane at the cell's own costates it
# moves in the trailing digits (by at most 5e-12 on the 60x60 grid over
# +-3 at eps 0.002), and the hit set stays the same. A mirror lane gives the
# first-quadrant lane's time bit for bit, as numpy's sin is exactly odd and
# its cos exactly even (a test checks this).
# ---------------------------------------------------------------------------


def _lattice(lo: float, hi: float, n: int) -> list[int] | None:
    """The integers p with cell k at p * hi / (n - 1) of an axis of n cells
    over [lo, hi] (all 0 when every cell is at 0); None when the range is not
    symmetric about 0 (a lone cell is on the lattice only at 0)."""
    if lo != -hi or (n == 1 and lo != 0.0):
        return None
    return [2 * k - (n - 1) if hi else 0 for k in range(n)]


def _ray(p: int, q: int) -> tuple[int, int]:
    """The key of the ray through the lattice point (p, q), up to the two
    reflections: (|p|, |q|) divided by their gcd, a first-quadrant ray."""
    p, q = abs(p), abs(q)
    g = math.gcd(p, q) or 1
    return p // g, q // g


def _lanes(costate_range: tuple[float, float],
           axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit initial costates (lphi, ltheta) of one lane per lattice ray, up
    to the two reflections, and the lane of each cell in row-major order, on
    the square grid with ``axis`` along both axes (see the comment above)."""
    n = axis.size
    p = _lattice(*costate_range, n)
    if p is None:
        a, b = np.repeat(axis, n), np.tile(axis, n)
        cell_lane = np.arange(a.size)
    else:
        rays: dict[tuple[int, int], int] = {}
        cell_lane = np.array([rays.setdefault(_ray(i, j), len(rays)) for i in p for j in p])
        a, b = np.array(list(rays), dtype=float).T
    norm = np.hypot(a, b)
    norm[norm == 0.0] = 1.0
    return a / norm, b / norm, cell_lane


def _scan_lanes(lphi0: np.ndarray, ltheta0: np.ndarray, cfg: ShotConfig) -> np.ndarray:
    """Hit times of the lanes from the unit costates (lphi0, ltheta0) up to
    the horizon: one (4, n) block run by ``ode.locate_lane_events`` on the
    shots' event, bound to numpy's cos and sin so that it reads the block as
    well as one lane. On unit-norm lanes the retirement of a lane does not
    depend on the costates' scale."""
    y = np.zeros((4, lphi0.size))
    y[2], y[3] = lphi0, ltheta0
    return ode.locate_lane_events(lambda3.extremal_lanes, y, cfg.horizon, _event(cfg, np.cos, np.sin))


def landscape(
    costate_range: tuple[float, float],
    resolution: int,
    cfg: ShotConfig,
    workers: int | None = None,
) -> LandscapeGrid:
    """Hit-time grid over initial costates; NaN where nothing hits.

    The grid is square: ``resolution`` cells along each axis, both over
    ``costate_range``. The scan integrates one unit-norm lane per lattice
    ray, up to the two reflections, a shot on the fixed DP5 step of
    ``ode.locate_lane_events``, and gives each cell its ray's time (see the
    comment above): the cells of a ray and of its mirror rays,
    (+-lambda_phi, +-lambda_theta) alike, hold the same time, which may
    differ from the cell's own shot in the trailing digits. ``workers`` is
    the number of processes (None or 0 = one per CPU), at most one per CPU
    and one per lane, over which the lanes are split; results do not depend
    on it. A non-finite range, a resolution below 1 and a negative
    ``workers`` raise ValueError, and so does the scan, before any process
    starts, for a horizon too long to count its steps.
    """
    lo, hi = costate_range
    if not math.isfinite(hi - lo):
        raise ValueError("the landscape range must have finite ends and span")
    if workers is not None and workers < 0:
        raise ValueError("workers must be non-negative")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    axis = np.linspace(lo, hi, resolution)

    lphi0, ltheta0, cell_lane = _lanes(costate_range, axis)
    cpus = os.cpu_count() or 1
    workers = min(workers or cpus, cpus, lphi0.size)
    if workers == 1:
        lane_times = _scan_lanes(lphi0, ltheta0, cfg)
    else:
        from multiprocessing import get_context  # only a split scan pays for the import (socket, selectors)

        _scan_lanes(lphi0[:0], ltheta0[:0], cfg)  # no lanes: raises for the horizon before any fork
        jobs = [(a, b, cfg) for a, b in zip(np.array_split(lphi0, workers), np.array_split(ltheta0, workers))]
        with get_context("fork").Pool(processes=workers) as pool:
            lane_times = np.concatenate(pool.starmap(_scan_lanes, jobs))
    return LandscapeGrid(axis, lane_times[cell_lane].reshape(resolution, resolution))


# ---------------------------------------------------------------------------
# Refinement.
# ---------------------------------------------------------------------------

#: Relative width of the residual's root bracket on the initial lambda_theta.
REFINE_XTOL = 1e-10
#: The loosest integrator tolerance of ``refine``'s scan: its probes only
#: rank hit times, which differ by 0.3 or more along the fast branch, and at
#: 1e-6 a time moves by about 1e-5.
SCAN_TOL = 1e-6


def _ladder(ltheta_guess: float) -> list[float]:
    """The points of ``refine``'s search from ``ltheta_guess``, as Python
    floats: its 13 probes, the guess times ``np.linspace(1 / 16, 1.5, 13)``
    bit for bit (1/16 + i * step, the last one 1.5), then 13 more past the
    last at the spacing of the first two."""
    step = (1.5 - 1.0 / 16.0) / 12
    probes = [float(ltheta_guess) * x for x in [i * step + 1.0 / 16.0 for i in range(12)] + [1.5]]
    return probes + [probes[-1] + (probes[1] - probes[0]) * k for k in range(1, len(probes) + 1)]


class _RootSearch:
    """One root search over the initial lambda_theta at fixed lambda_phi,
    from the guess or prediction ``near``, and its record: a memo of final
    shots, read as the residual oriented by the ray's quadrant; its hit of
    least |residual| is the optimum at its tolerance. A shot outward of the
    record's fastest hit with a residual > 0 (``fastest``), at a larger
    |lambda_theta|, stops at that hit's time, and one inward runs in full:
    T falls outward up to the root, so a shot that stops lies past it.
    Shared by ``refine``, which scans first, and the corrector (see
    ``_locate_and_solve``)."""

    def __init__(self, lphi_i: float, near: float, cfg: ShotConfig):
        self.lphi_i, self.near, self.cfg = lphi_i, near, cfg
        self.orientation = math.copysign(1.0, lphi_i * near)
        self.memo: dict[float, tuple[float | None, str, float | None]] = {}
        self.fastest = (math.inf, math.inf)  # (T, |lambda_theta|) of the fastest hit with S > 0

    def scan(self, probes: list[float]) -> tuple[int, dict]:
        """The index of the fastest probe and the screened shots, each probe
        shot unmemoised at max(tol, SCAN_TOL) and stopped at the fastest hit
        of the probes before it. The screened shots, by lambda_theta, are the
        fastest probe's, unstopped as its hit precedes its stop, and the next
        probe's, stopped at that hit as a record stops it once the residual is
        > 0 at the fastest probe. When no probe hits, NoFeasiblePoint tallies
        why."""
        tol = max(self.cfg.tol, SCAN_TOL)
        cfg = self.cfg._replace(tol=tol)
        times, shots = [], []
        for p in probes:
            shots.append(shoot_info(self.lphi_i, p, cfg, min(times, default=math.inf)))
            times.append(math.inf if shots[-1][0] is None else shots[-1][0])
        best = times.index(min(times))
        if math.isinf(times[best]):
            raise self.no_transfer(f"the {len(probes)} probes{', screened' if tol != self.cfg.tol else ''}", tol, shots)
        return best, dict(zip(probes[best:best + 2], shots[best:best + 2]))

    def no_transfer(self, what: str, tol: float, shots) -> NoFeasiblePoint:
        """NoFeasiblePoint for ``shots`` at ``tol`` of which none hit, with a
        tally of why."""
        tally = ", ".join(f"{n} {why}" for why, n in Counter(shot[1] for shot in shots).most_common())
        return NoFeasiblePoint(f"no transfer within the horizon {self.cfg.horizon!r} at eps {self.cfg.eps!r}"
                               f" near ltheta_i ~ {self.near!r} ({what} at tol {tol!r}: {tally})")

    def read(self, shot) -> float:
        """The oriented residual of ``shot``, -1 if it stopped or missed."""
        t, _, s = shot
        return -1.0 if t is None else s * self.orientation

    def residual(self, x) -> float:
        x = float(x)
        if x not in self.memo:
            t, at = self.fastest
            self.memo[x] = shoot_info(self.lphi_i, x, self.cfg, t if abs(x) > at else math.inf)
        s = self.read(self.memo[x])
        if s > 0.0:
            self.fastest = min(self.fastest, (self.memo[x][0], abs(x)))
        return s

    def failure(self, why: str) -> NoConvergence:
        return NoConvergence(
            f"no root of the transversality residual at tol {self.cfg.tol!r} within the horizon"
            f" {self.cfg.horizon!r} at eps {self.cfg.eps!r} near ltheta_i ~ {self.near!r}: {why}"
        )

    def root(self, point, lo: int, hi: int, rtol: float = REFINE_XTOL) -> Optimum:
        """The optimum at the root of the residual next to the walk's start
        point(0), among the points point(j), lo <= j <= 0 <= hi, that rise
        with j: the walk steps right while the residual is > 0 and left while
        it is not, and ``ode.brentq`` narrows the first sign change to
        ``rtol`` (relative). The optimum is the memo's hit with the smallest
        |residual|, at the record's tolerance. No sign change within the
        walk, or a failed brentq, raises NoConvergence."""
        k = 0
        if self.residual(point(0)) > 0.0:
            k = 1
            while k <= hi and self.residual(point(k)) > 0.0:
                k += 1
            if k > hi:
                raise self.failure(f"no valid bracket, the residual stays > 0 up to ltheta_i {float(point(hi))!r}")
        else:
            while k > lo and self.residual(point(k - 1)) <= 0.0:
                k -= 1
            if k == lo:
                raise self.failure(f"no valid bracket, the residual is not > 0 left of ltheta_i"
                                   f" {float(point(0))!r}, down to {float(point(lo))!r}")
        return self.narrow(point(k - 1), point(k), rtol)

    def narrow(self, a: float, b: float, rtol: float = REFINE_XTOL) -> Optimum:
        """The optimum once ``ode.brentq`` narrows the sign change between a
        and b to ``rtol`` (relative); a failed brentq raises NoConvergence."""
        try:
            ode.brentq(self.residual, a, b, rtol=rtol)
        except RuntimeError as exc:
            raise self.failure(str(exc)) from None
        return self.best()

    def best(self) -> Optimum:
        """The memo's hit with the smallest |residual|."""
        _, ltheta_i, t_min = min((abs(s), x, t) for x, (t, _, s) in self.memo.items() if t is not None)
        return Optimum(self.lphi_i, ltheta_i, t_min)

    def bracket(self) -> tuple | None:
        """The record's tightest sign change, as (lambda_theta, oriented
        residual) pairs: of the memo's shots by |lambda_theta|, the closest
        neighbours whose inner shot reads > 0 and outer one not, a stopped or
        missed shot -1; None when it has none. It does not move the stop."""
        shots = sorted((abs(x), x, self.read(shot)) for x, shot in self.memo.items())
        pairs = [(b - a, (x, s), (y, r)) for (a, x, s), (b, y, r) in zip(shots, shots[1:]) if s > 0.0 >= r]
        return min(pairs)[1:] if pairs else None

    def solve(self, located: float, bracket: tuple) -> Optimum:
        """The optimum by at most CONTINUATION_STEPS secant steps from
        ``located``, the first on the slope of ``bracket``, the located
        root's, each later one through the last two hits. The solve ends on
        its Newton step: when the next step is within REFINE_XTOL / 2
        (relative) of the last hit, the root lies that close to it by the
        secant, half brentq's own stop, and the record's best hit is the
        optimum, with no further shot; a step of at most REFINE_XTOL across
        which the residual changes sign ends it too. A step that
        misses, stops, would reach past located * (1 - 27 w) or
        located * (1 + 25 w), w = 10 SCAN_TOL, or does not reduce |residual|
        hands over to ``narrow`` on ``bracket()``. A missed located root
        raises NoFeasiblePoint, which says why; no sign change, NoConvergence."""
        w = 10.0 * SCAN_TOL
        ends = sorted(located * (1.0 + (2 * j - 1) * w) for j in (-CONTINUATION_STEPS, CONTINUATION_STEPS))
        slope = (bracket[1][1] - bracket[0][1]) / (bracket[1][0] - bracket[0][0])
        x, s = located, self.residual(located)
        if self.memo[x][0] is None:
            raise self.no_transfer("the 1 shot of the solve", self.cfg.tol, self.memo.values())
        for _ in range(CONTINUATION_STEPS):
            step = -s / slope
            if abs(step) <= 0.5 * REFINE_XTOL * abs(x):
                return self.best()
            if not ends[0] <= x + step <= ends[1]:
                break
            x_new = x + step
            s_new = self.residual(x_new)
            if self.memo[x_new][0] is None:
                break
            if s * s_new <= 0.0 and abs(step) <= REFINE_XTOL * abs(x):
                return self.best()
            if abs(s_new) >= abs(s):
                break
            slope, x, s = (s_new - s) / step, x_new, s_new
        bracket = self.bracket()
        if bracket is None:
            raise self.failure(f"no valid bracket, no shot reads > 0 inward of one that does not, from ltheta_i"
                               f" {min(self.memo, key=abs)!r} to {max(self.memo, key=abs)!r}")
        return self.narrow(bracket[0][0], bracket[1][0])


def _locate_and_solve(lphi_i: float, near: float, cfg: ShotConfig, point, lo: int, hi: int,
                      screened: dict | None = None) -> Optimum:
    """The optimum at the root of the residual next to point(0). A record at
    max(tol, SCAN_TOL) locates the root by ``root``'s walk over point(j),
    lo <= j <= hi; its memo starts from ``screened``, shots at that tol by
    lambda_theta. At a tol no tighter than SCAN_TOL it narrows to
    REFINE_XTOL, and its root is the optimum; otherwise it narrows to
    SCAN_TOL, and a record at ``cfg.tol`` solves by secant steps from the
    located lambda_theta, on the slope of the locate record's tightest sign
    change (``_RootSearch.bracket``) to start. A phase that fails raises
    its own error."""
    locate = _RootSearch(lphi_i, near, cfg._replace(tol=max(cfg.tol, SCAN_TOL)))
    locate.memo.update(screened or {})
    if cfg.tol >= SCAN_TOL:
        return locate.root(point, lo, hi)
    located = locate.root(point, lo, hi, rtol=SCAN_TOL).ltheta_i
    return _RootSearch(lphi_i, near, cfg).solve(located, locate.bracket())


def refine(lphi_i: float, ltheta_guess: float, cfg: ShotConfig) -> Optimum:
    """The optimum over the initial lambda_theta at fixed lambda_phi: the root
    of the transversality residual on the fastest branch.

    At the optimal hit Pontryagin's maximum principle makes the costate
    parallel to the gradient of the target (the transversality condition of
    indirect shooting; Bryson & Ho, *Applied Optimal Control*, 1975), so the
    residual of ``shoot_info`` is 0 there. Thirteen probes along the guess's
    ray, at 1/16 to 1.5 times the guess, find the fastest branch; on it the
    hit time falls towards the optimum, and the residual, oriented by the
    ray's quadrant, is > 0 left of it (nearer the origin) and < 0 right of
    it. When it is > 0 at the fastest probe, the next probe ends the
    bracket, and past the last probe the bracket walks right by the probes'
    spacing while it stays > 0, for at most 13 steps; otherwise the previous
    probe, shot in full, must read > 0. The optimum must lie between 1/16
    and about 3 times the guess.

    The scan screens, the search locates and the solve solves (see
    ``_locate_and_solve``): the probes only rank hit times, so they run at
    max(tol, SCAN_TOL), and so does the search, whose record starts from
    the scan's shots of the fastest probe and the next one and shoots
    neither again; the solve's shots, at the configured tolerance, alone
    give the optimum.

    Each probe stops at the fastest hit of the probes before it and then
    counts as +inf: its true time is no less, so it cannot be the fastest.
    Each later shot outward of its record's fastest hit with a residual > 0
    stops at that hit's time, and a shot that stops or misses reads -1: it
    lies past the optimum, which is faster still. Each record shoots each
    point once. The optimum is the last record's hit with the smallest
    |residual|, at no further integration. Non-finite costates, a zero
    lambda_phi (at phi = theta = 0 the switching pair is (lambda_phi, 0) up
    to constants, so every shot would start degenerate), and a guess whose
    probes coincide (a zero or subnormal guess) or whose probes or walk
    overflow, raise ValueError before the first shot; when no probe hits,
    or the solve's shot of the located root misses, NoFeasiblePoint tallies
    why, at the tolerance they ran at; when the residual has no sign change
    to bracket, or Brent's method fails, NoConvergence names the condition
    and the tolerance, eps and horizon of the phase that failed.
    """
    ladder = _ladder(ltheta_guess)
    probes = ladder[:13]
    if not (math.isfinite(lphi_i) and all(map(math.isfinite, ladder)) and len(set(probes)) == len(probes)):
        raise ValueError(f"costates must be finite, and the guess must give {len(probes)} distinct probes"
                         f" and a finite walk, got ({lphi_i!r}, {ltheta_guess!r})")
    if lphi_i == 0.0:
        raise ValueError("lambda_phi must be nonzero: at phi = theta = 0 the switching pair is"
                         " (lambda_phi, 0) up to constants, so every shot would start degenerate")
    best, screened = _RootSearch(lphi_i, ltheta_guess, cfg).scan(probes)
    return _locate_and_solve(lphi_i, ltheta_guess, cfg, lambda j: ladder[best + j], -min(best, 1),
                             len(ladder) - 1 - best, screened)


# ---------------------------------------------------------------------------
# Continuation along eps: predictor and corrector.
#
# The optimum moves smoothly with eps, and log lambda_theta is close to
# linear in log eps. So only the first two points run ``refine``'s scan;
# each later point predicts its lambda_theta by the secant through the last
# two optima in (log eps, log lambda_theta) and corrects the prediction with
# ``refine``'s root search, shots, stop rule and all (Allgower & Georg,
# *Numerical Continuation Methods*, 1990; Caillau, Cots & Gergaud,
# *Differential continuation for regular optimal control problems*, 2012).
# The fast branch ends just right of the optimum (1.9e-3 relative past it at
# eps 0.002), and a shot past it meets a slower branch or none, so the first
# shot goes left of the prediction by a bias in log lambda_theta: twice the
# previous point's prediction error (its optimum against its prediction,
# both in log lambda_theta), at least CONTINUATION_MIN_BIAS; the first
# corrected point, with no earlier error, takes CONTINUATION_FIRST_BIAS of
# the last step in log lambda_theta, with the same floor. From there
# the walk steps by half the bias, right while the residual is > 0 and left
# while it is not, for at most CONTINUATION_STEPS steps, as ``refine``'s
# walk past its probes, and the root it locates is solved by ``refine``'s
# secant steps, Brent's method their safeguard. A point whose walk, root
# search or solve fails, or whose solve meets no hit, is refined from the
# previous optimum instead and says why: a retry with a reason.
# ---------------------------------------------------------------------------

#: Least bias of a prediction, in log lambda_theta.
CONTINUATION_MIN_BIAS = 1e-4
#: The first corrected point's bias, as a share of the last step in log lambda_theta.
CONTINUATION_FIRST_BIAS = 0.1
#: Most steps of the corrector's walk to a bracket.
CONTINUATION_STEPS = 13


def _correct(lphi_i: float, predicted: float, bias: float, cfg: ShotConfig) -> Optimum:
    """The optimum at ``cfg.eps`` by ``refine``'s root search, walked from
    the log lambda_theta ``predicted`` moved left by ``bias``, in steps of
    half the bias (see the comment above)."""
    start = predicted - bias
    return _locate_and_solve(lphi_i, math.exp(predicted), cfg, lambda j: math.exp(start + 0.5 * bias * j),
                             -CONTINUATION_STEPS, CONTINUATION_STEPS)


def optima_along_eps(eps_values, cfg: ShotConfig, lphi_i: float) -> list[Optimum]:
    """Optima for each accuracy in ``eps_values``, in input order.

    Points are solved from the largest eps down. The first two are refined,
    the first from the lambda_theta of ``START_RAY``, the second from the
    first optimum: the fast arc of the optimal ray shrinks as eps tightens,
    so the scan below that guess contains the new fast optimum. Each later
    point is predicted from the last two optima and corrected by the root
    search of ``refine`` (see the comment above); a point whose corrector
    fails is refined from the previous optimum, and its ``fallback`` says
    why. An eps equal to the previous one gets a copy of its twin's optimum,
    so the secant runs through two distinct eps. The optima keep the sign
    of ``START_RAY``'s lambda_theta. Every point's ``ShotConfig`` is built,
    and its eps checked, before the first shot.
    """
    eps_values = [float(eps) for eps in eps_values]
    configs = [cfg._replace(eps=eps) for eps in eps_values]
    optima: list[Optimum | None] = [None] * len(eps_values)
    path: list[tuple[float, Optimum]] = []  # (log eps, optimum) of each distinct eps solved
    bias = 0.0
    # largest eps first, and of equal ones the last first
    for i in sorted(range(len(eps_values)), key=eps_values.__getitem__)[::-1]:
        point_cfg = configs[i]
        log_eps = math.log(point_cfg.eps)
        if path and path[-1][0] == log_eps:
            twin = path[-1][1]
            optima[i] = Optimum(*twin, twin.fallback)
            continue
        if len(path) < 2:
            opt = refine(lphi_i, path[-1][1].ltheta_i if path else START_RAY[1], point_cfg)
        else:
            (e1, opt1), (e2, opt2) = path[-2:]
            a1, a2 = math.log(opt1.ltheta_i), math.log(opt2.ltheta_i)
            predicted = a2 + (a2 - a1) * (log_eps - e2) / (e2 - e1)
            if len(path) == 2:
                bias = max(CONTINUATION_MIN_BIAS, CONTINUATION_FIRST_BIAS * abs(a2 - a1))
            try:
                opt = _correct(lphi_i, predicted, bias, point_cfg)
            except (NoConvergence, NoFeasiblePoint) as exc:
                opt = refine(lphi_i, opt2.ltheta_i, point_cfg)
                opt.fallback = str(exc)
            bias = max(CONTINUATION_MIN_BIAS, 2.0 * abs(math.log(opt.ltheta_i) - predicted))
        path.append((log_eps, opt))
        optima[i] = opt
    return optima


def area_curve(eps_values, cfg: ShotConfig, lphi_i: float = START_RAY[0]) -> memoryview:
    """Minimum generalized pulse area for each accuracy in ``eps_values``.

    The optima come from one eps continuation, largest eps first: the first
    two refined, each later one predicted and corrected (see
    ``optima_along_eps``). Returns an (n, 3) table of float64 (eps, area,
    fallback) in input order, as a 2-D memoryview: ``tolist()`` gives its
    rows, and ``np.asarray`` reads it without a copy. Fallback is 1 where
    the point's corrector failed and ``refine`` solved it instead, else 0.
    No accuracy at all raises ValueError, as a memoryview has no empty rows.
    """
    eps_values = [float(eps) for eps in eps_values]
    if not eps_values:
        raise ValueError("the area curve needs at least one accuracy")
    optima = optima_along_eps(eps_values, cfg, lphi_i)
    table = array.array("d", [v for eps, opt in zip(eps_values, optima)
                              for v in (eps, opt.area, opt.fallback is not None)])
    return memoryview(table).cast("B").cast("d", (len(eps_values), 3))


def asymptotic_mask(eps_values) -> list[bool]:
    """Which accuracies of ``eps_values`` are in the asymptotic regime, eps
    <= 0.1; raises InsufficientData when fewer than five distinct ones are."""
    mask = [eps <= 0.1 for eps in eps_values]
    if len({eps for eps, asymptotic in zip(eps_values, mask) if asymptotic}) < 5:
        raise InsufficientData("need at least 5 distinct points with eps <= 0.1")
    return mask


def fit_asymptote(curve) -> tuple[float, float]:
    """Least-squares fit area = slope * ln(eps) + intercept.

    ``curve`` is a table whose ``tolist()`` gives rows that start (eps,
    area): ``area_curve``'s, or an ndarray. Only points with eps <= 0.1 are
    in the asymptotic regime and used; fewer than five distinct such
    accuracies raise InsufficientData.
    """
    rows = [(float(row[0]), float(row[1])) for row in curve.tolist()]
    mask = asymptotic_mask([eps for eps, _ in rows])
    x = [math.log(eps) for (eps, _), asymptotic in zip(rows, mask) if asymptotic]
    y = [area for (_, area), asymptotic in zip(rows, mask) if asymptotic]
    # the line in closed form, on centred sums, each correctly rounded
    # (math.fsum): no LAPACK solver, and no sum that depends on its order
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) / math.fsum(d * d for d in dx)
    return slope, y_mean - slope * x_mean
