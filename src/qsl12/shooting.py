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
3 times the guess.
Each shot stops where it can no longer change the result: a probe at the
fastest hit of the probes before it, a shot of the root search at the
fastest hit left of the root. The steps a shot takes are the full shot's,
so a hit does not depend on this.

An optimum is its initial costates and its hit time. Only the exports that
show the optimal pulse sequence integrate its path, with ``extremal``.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from multiprocessing import get_context

import numpy as np
from scipy.optimize import brentq

from . import lambda3, ode
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
    "area_curve",
    "fit_asymptote",
    "energy_shot",
]

_SQRT2 = math.sqrt(2.0)

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


@dataclass(frozen=True)
class ShotConfig:
    """Target accuracy, shot horizon, and integrator settings (Omega_0 = 1)."""

    eps: float
    horizon: float = 15.0
    integrator: ode.IntegratorConfig = field(default_factory=ode.IntegratorConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")

    @property
    def target(self) -> float:
        """Population |x3|^2 at the hit."""
        return 0.5 * (1.0 - self.eps)


@dataclass
class Optimum:
    """A successful shot: its initial costates and hit time."""

    lphi_i: float
    ltheta_i: float
    t_min: float

    @property
    def area(self) -> float:
        """Generalized pulse area, Omega_0 times the hit time: with Omega_0 = 1,
        the hit time itself."""
        return self.t_min


@dataclass
class LandscapeGrid:
    """Hit times over a grid of initial costates; NaN marks no transfer."""

    lphi_axis: np.ndarray
    ltheta_axis: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        self.lphi_axis = np.asarray(self.lphi_axis, dtype=float)
        self.ltheta_axis = np.asarray(self.ltheta_axis, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.times.shape != (self.lphi_axis.size, self.ltheta_axis.size):
            raise ValueError("times shape must match the axes")
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
        hit = ode.locate_event(lambda3.extremal_rhs, y0, (0.0, cfg.horizon), _event(cfg), cfg.integrator, stop)
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
    integrated once more up to that time, so its nodes are spaced at most
    ``cfg.integrator.max_step`` apart, the sampling of the exports. The
    pulses hold one (Omega_p, Omega_s) row of the bang control per node.
    """
    y0 = [0.0, 0.0, opt.lphi_i, opt.ltheta_i]
    trajectory = ode.integrate(lambda3.extremal_rhs, y0, (0.0, opt.t_min), cfg.integrator)
    pulses = np.array([
        lambda3.bang_control(y[0], y[1], y[2], y[3]) for y in trajectory.states
    ])
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
# On an axis whose range is symmetric about 0, cell k lies at
# p * hi / (n - 1) with the integer p = 2k - (n - 1), so two cells share a
# lane when their pairs (|p|, |q|) / gcd(|p|, |q|) agree; the lane starts in
# the first quadrant, at the unit vector along (|p|, |q| * r), where
# r = |hi_theta / (n_theta - 1)| / |hi_phi / (n_phi - 1)| is 1.0 when both
# axes are alike, so a grid's lanes do not depend on its scale. A grid with
# an axis that is not symmetric has one lane per cell, along the cell's own
# costates; a zero cell keeps zero costates, and its time stays NaN.
# A cell's time is its ray's: against a lane at the cell's own costates it
# moves in the trailing digits (by at most 5e-12 on the 60x60 grid over
# +-3 at eps 0.002), and the hit set stays the same. A mirror lane gives the
# first-quadrant lane's time bit for bit, as numpy's sin is exactly odd and
# its cos exactly even (a test checks this).
# ---------------------------------------------------------------------------


def _lattice(lo: float, hi: float, n: int) -> tuple[list[int] | None, float]:
    """The integers p with cell k at p * u, and the unit u = hi / (n - 1)
    (0 when every cell is at 0), of an axis of n cells over [lo, hi]; p is
    None when the range is not symmetric about 0 (a lone cell is on the
    lattice only at 0)."""
    if lo != -hi or (n == 1 and lo != 0.0):
        return None, 0.0
    u = hi / (n - 1) if n > 1 else 0.0
    return [2 * k - (n - 1) if u else 0 for k in range(n)], u


def _ray(p: int, q: int) -> tuple[int, int]:
    """The key of the ray through the lattice point (p, q), up to the two
    reflections: (|p|, |q|) divided by their gcd, a first-quadrant ray."""
    p, q = abs(p), abs(q)
    g = math.gcd(p, q) or 1
    return p // g, q // g


def _lanes(lphi_range, ltheta_range, lphi_axis: np.ndarray,
           ltheta_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit initial costates (lphi, ltheta) of one lane per lattice ray, up
    to the two reflections, and the lane of each cell in row-major order (see
    the comment above)."""
    n_phi, n_th = lphi_axis.size, ltheta_axis.size
    p, u_phi = _lattice(*lphi_range, n_phi)
    q, u_th = _lattice(*ltheta_range, n_th)
    if p is None or q is None:
        a, b = np.repeat(lphi_axis, n_th), np.tile(ltheta_axis, n_phi)
        cell_lane = np.arange(a.size)
    else:
        rays: dict[tuple[int, int], int] = {}
        cell_lane = np.array([rays.setdefault(_ray(i, j), len(rays)) for i in p for j in q])
        p, q = np.array(list(rays)).T
        big = max(abs(u_phi), abs(u_th))  # so neither weight exceeds 1
        w_phi, w_th = (abs(u_phi) / big, abs(u_th) / big) if big else (0.0, 0.0)
        a, b = p * w_phi, q * w_th
    norm = np.hypot(a, b)
    norm[norm == 0.0] = 1.0
    return a / norm, b / norm, cell_lane


def _scan_lanes(lphi0: np.ndarray, ltheta0: np.ndarray, cfg: ShotConfig) -> np.ndarray:
    """Hit times of the lanes from the unit costates (lphi0, ltheta0), one
    (4, n) block run by ``ode.locate_lane_events`` on the shots' event at
    the fixed step horizon / ceil(horizon / max_step). On unit-norm lanes
    the retirement of a lane does not depend on the costates' scale."""
    y = np.zeros_like(lphi0, shape=(4, lphi0.size))  # keeps lphi0's array type
    y[2], y[3] = lphi0, ltheta0
    n_steps = math.ceil(cfg.horizon / cfg.integrator.max_step)
    return ode.locate_lane_events(lambda3.extremal_lanes, y, cfg.horizon, n_steps,
                                  _event(cfg), _event(cfg, np.cos, np.sin))


def landscape(
    lphi_range: tuple[float, float],
    ltheta_range: tuple[float, float],
    resolution: int | tuple[int, int],
    cfg: ShotConfig,
    workers: int | None = None,
) -> LandscapeGrid:
    """Hit-time grid over initial costates; NaN where nothing hits.

    The scan integrates one unit-norm lane per lattice ray, up to the two
    reflections, a shot on a fixed DP5 step, and gives each cell its ray's
    time (see the comment above): the cells of a ray and of its mirror rays,
    (+-lambda_phi, +-lambda_theta) alike, hold the same time, which may differ
    from the cell's own shot in the trailing digits.
    ``workers`` is the number of processes (None or 0 = one per CPU) over
    which the lanes are split; results do not depend on it. Non-finite
    ranges, a horizon too long to count its steps and a negative
    ``workers`` raise ValueError.
    """
    if not all(math.isfinite(hi - lo) for lo, hi in (lphi_range, ltheta_range)):
        raise ValueError("landscape ranges must have finite ends and span")
    if not math.isfinite(cfg.horizon / cfg.integrator.max_step):
        raise ValueError("horizon / max_step must be finite: the scan's step count overflows")
    if workers is not None and workers < 0:
        raise ValueError("workers must be non-negative")
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    n_phi, n_th = resolution
    if n_phi < 1 or n_th < 1:
        raise ValueError("resolution must be at least 1x1")
    lphi_axis = np.linspace(lphi_range[0], lphi_range[1], n_phi)
    ltheta_axis = np.linspace(ltheta_range[0], ltheta_range[1], n_th)

    lphi0, ltheta0, cell_lane = _lanes(lphi_range, ltheta_range, lphi_axis, ltheta_axis)
    workers = min(workers or os.cpu_count() or 1, lphi0.size)
    if workers == 1:
        lane_times = _scan_lanes(lphi0, ltheta0, cfg)
    else:
        jobs = [(a, b, cfg) for a, b in zip(np.array_split(lphi0, workers), np.array_split(ltheta0, workers))]
        with get_context("fork").Pool(processes=workers) as pool:
            lane_times = np.concatenate(pool.starmap(_scan_lanes, jobs))
    return LandscapeGrid(lphi_axis, ltheta_axis, lane_times[cell_lane].reshape(n_phi, n_th))


# ---------------------------------------------------------------------------
# Refinement.
# ---------------------------------------------------------------------------

#: Relative width of the residual's root bracket on the initial lambda_theta.
REFINE_XTOL = 1e-10


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
    probe, shot in full, must read > 0. ``scipy.optimize.brentq`` narrows the
    bracket to REFINE_XTOL (relative). The optimum must lie between 1/16 and
    about 3 times the guess.

    Each probe stops at the fastest hit of the probes before it and then
    counts as +inf: its true time is no less, so it cannot be the fastest.
    Each later shot stops at the fastest hit with a residual > 0, and a shot
    that stops or misses reads -1: it lies past the optimum, which is faster
    still. A stopped shot is shot again only for a later stop. The optimum
    is the costates and hit time of the evaluated shot with the smallest
    |residual|: it costs no further integration. Non-finite costates raise
    ValueError before the first shot; when no probe hits, NoFeasiblePoint
    tallies why; when the residual has no sign change to bracket, or the
    search fails, NoConvergence names the condition, the eps and the horizon.
    """
    if not (math.isfinite(lphi_i) and math.isfinite(ltheta_guess)):
        raise ValueError(f"costates must be finite, got ({lphi_i!r}, {ltheta_guess!r})")
    memo: dict[float, tuple[float | None, str, float | None, float]] = {}

    def shot(x, stop: float) -> tuple[float | None, str, float | None]:
        x = float(x)
        if x not in memo or memo[x][1] == "beyond-bound" and memo[x][3] < stop:
            memo[x] = (*shoot_info(lphi_i, x, cfg, stop), stop)
        return memo[x][:3]

    probes = ltheta_guess * np.linspace(1.0 / 16.0, 1.5, 13)
    times, reasons = [], []
    for p in probes:
        t, reason, _ = shot(p, min(times, default=math.inf))
        times.append(math.inf if t is None else t)
        reasons.append(reason)
    best = int(np.argmin(times))
    if math.isinf(times[best]):
        tally = ", ".join(f"{n} {why}" for why, n in Counter(reasons).most_common())
        raise NoFeasiblePoint(
            f"no transfer within the horizon {cfg.horizon!r} at eps {cfg.eps!r} near"
            f" ltheta_i ~ {ltheta_guess!r} (the {len(probes)} probes: {tally})"
        )

    orientation = math.copysign(1.0, lphi_i * ltheta_guess)
    fastest = math.inf  # the fastest hit left of the root
    searched: list[tuple[float, float, float]] = []  # (|residual|, x, t) of each hit

    def residual(x: float) -> float:
        nonlocal fastest
        t, _, s = shot(x, fastest)
        if t is None:
            return -1.0
        s *= orientation
        if s > 0.0:
            fastest = min(fastest, t)
        searched.append((abs(s), float(x), t))
        return s

    def failure(why: str) -> NoConvergence:
        return NoConvergence(
            f"no root of the transversality residual within the horizon {cfg.horizon!r} at eps"
            f" {cfg.eps!r} near ltheta_i ~ {ltheta_guess!r}: {why}"
        )

    ladder = np.concatenate([probes, probes[-1] + (probes[1] - probes[0]) * np.arange(1, probes.size + 1)])
    k = best
    if residual(ladder[k]) > 0.0:
        k += 1
        while k < ladder.size and residual(ladder[k]) > 0.0:
            k += 1
        if k == ladder.size:
            raise failure(f"no valid bracket, the residual stays > 0 up to ltheta_i {float(ladder[-1])!r}")
    elif k == 0 or residual(ladder[k - 1]) <= 0.0:
        raise failure("no valid bracket, the residual is not > 0 left of the fastest probe")
    try:
        brentq(residual, ladder[k - 1], ladder[k], rtol=REFINE_XTOL)
    except RuntimeError as exc:
        raise failure(str(exc)) from None
    _, ltheta_i, t_min = min(searched)
    return Optimum(lphi_i, ltheta_i, t_min)


def _optima_along_eps(eps_values: np.ndarray, cfg: ShotConfig, lphi_i: float) -> list[Optimum]:
    """Refined optima for each accuracy in ``eps_values``, in input order.

    Points are solved from the largest eps down, the first refinement
    guessing the lambda_theta of ``START_RAY``, each later one the previous
    optimum's. The fast arc of the optimal ray shrinks as eps tightens, so
    the scan below that guess contains the new fast optimum, and ``refine``
    keeps to the fastest branch it meets.
    """
    optima: list[Optimum | None] = [None] * len(eps_values)
    guess = START_RAY[1]
    for i in np.argsort(eps_values)[::-1]:
        optima[i] = refine(lphi_i, guess, replace(cfg, eps=float(eps_values[i])))
        guess = optima[i].ltheta_i
    return optima


def area_curve(eps_values, cfg: ShotConfig, lphi_i: float = START_RAY[0]) -> np.ndarray:
    """Minimum generalized pulse area for each accuracy in ``eps_values``.

    The optima come from one eps continuation, largest eps first, each
    warm-started at the previous optimum (see ``_optima_along_eps``).
    Returns an (n, 2) array of (eps, area) in input order.
    """
    eps_values = np.asarray(list(eps_values), dtype=float)
    optima = _optima_along_eps(eps_values, cfg, lphi_i)
    return np.column_stack([eps_values, [opt.area for opt in optima]])


def _asymptotic(eps_values: np.ndarray) -> np.ndarray:
    """Mask of the accuracies in the asymptotic regime, eps <= 0.1; raises
    InsufficientData when fewer than five distinct ones are."""
    mask = eps_values <= 0.1
    if np.unique(eps_values[mask]).size < 5:
        raise InsufficientData("need at least 5 distinct points with eps <= 0.1")
    return mask


def fit_asymptote(curve) -> tuple[float, float]:
    """Least-squares fit area = slope * ln(eps) + intercept.

    Only points with eps <= 0.1 are in the asymptotic regime and used;
    fewer than five distinct such accuracies raise InsufficientData.
    """
    curve = np.asarray(curve, dtype=float)
    mask = _asymptotic(curve[:, 0])
    slope, intercept = np.polyfit(np.log(curve[mask, 0]), curve[mask, 1], 1)
    return float(slope), float(intercept)


def energy_shot(omega0_min: float, opt: Optimum, cfg: ShotConfig) -> float:
    """Consistency check: run the energy-optimal closed loop to the target.

    The time-optimal initial costates are rescaled so that the (constant)
    pulse magnitude of the energy extremal equals ``omega0_min``, the bound of
    ``bloch2.energy_optimum``; the hit should land at its duration,
    opt.area / omega0_min. Returns the hit time.
    """
    h_norm = abs(opt.lphi_i) / _SQRT2
    scale = omega0_min / h_norm
    y0 = np.array([0.0, 0.0, scale * opt.lphi_i, scale * opt.ltheta_i])
    hit = ode.locate_event(
        lambda y: lambda3.extremal_rhs(y, "energy"), y0, (0.0, 1.5 * opt.area / omega0_min), _event(cfg), cfg.integrator
    )
    if hit is None:
        raise NoFeasiblePoint("energy-optimal closed loop missed the target")
    return hit.t
