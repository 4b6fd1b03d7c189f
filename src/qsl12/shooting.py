"""Indirect (shooting) solver for the three-level time-optimal transfer.

A single *shot* integrates the closed-loop extremal flow from
(phi, theta) = (0, 0) with trial initial costates and reports the first time
the target population |x3|^2 = (1 - eps)/2 is reached within the horizon.
Because the bang control depends only on the direction of (H1, H2), the hit
time is invariant under positive rescaling of the initial costate pair: the
optima form straight rays through the origin of the costate plane.

The transfer-time landscape over initial costates is scanned on a grid, and
a chosen ray is refined in the initial lambda_theta at fixed lambda_phi: a
coarse scan of shots along the guess's ray, then Brent's method from the
fastest probe. A shot that finds no hit counts as an infinite time. The
result is the fastest branch the scan meets, so the guess must lie within a
factor of 16 of the optimum.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from multiprocessing import get_context

import numpy as np
from scipy.optimize import minimize_scalar

from . import lambda3, ode
from .lambda3 import PhiSingularity, SwitchingDegeneracy

__all__ = [
    "ShotConfig",
    "Optimum",
    "EnergyOptimum",
    "LandscapeGrid",
    "NoConvergence",
    "NoFeasiblePoint",
    "InsufficientData",
    "shoot",
    "shoot_info",
    "solve_optimum",
    "landscape",
    "refine",
    "area_curve",
    "fit_asymptote",
    "energy_optimum3",
    "energy_shot",
]

_SQRT2 = math.sqrt(2.0)

#: The peak generalized amplitude; every quantity is expressed in its units.
OMEGA0 = 1.0


class NoConvergence(RuntimeError):
    """The Brent search did not converge within its iteration budget."""


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
    """A successful shot: initial costates, hit time, and the sampled extremal."""

    lphi_i: float
    ltheta_i: float
    t_min: float
    area: float
    trajectory: ode.Trajectory
    pulses: np.ndarray
    terminal_error: float


@dataclass
class EnergyOptimum:
    """Energy-optimal solution for a fixed interaction time."""

    omega0_min: float
    energy_min: float
    time_optimum: Optimum


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

    def log_offsets(self, clamp: float = 1e-12) -> np.ndarray:
        """log10(T - T_min) with the offset clamped below by ``clamp``."""
        return np.log10(np.maximum(self.times - self.t_min, clamp))


def _event(cfg: ShotConfig):
    target = cfg.target

    def x3sq_excess(y: list) -> float:
        c = math.cos(y[0]) * math.sin(y[1])
        return 0.5 * c * c - target

    return x3sq_excess


def _rhs(cost: str = "time"):
    def rhs(t: float, y: list) -> tuple[float, float, float, float]:
        return lambda3.extremal_rhs(y, OMEGA0, cost)

    return rhs


def shoot_info(lphi_i: float, ltheta_i: float, cfg: ShotConfig) -> tuple[float | None, str]:
    """Run one shot; return (hit time | None, diagnostic reason)."""
    y0 = [0.0, 0.0, lphi_i, ltheta_i]
    try:
        hit = ode.locate_event(_rhs(), y0, (0.0, cfg.horizon), _event(cfg), cfg.integrator)
    except SwitchingDegeneracy:
        return None, "switching-degeneracy"
    except PhiSingularity:
        return None, "phi-singularity"
    except ode.StepUnderflow:
        return None, "step-underflow"
    if hit is None:
        return None, "no-crossing"
    return hit.t, "hit"


def shoot(lphi_i: float, ltheta_i: float, cfg: ShotConfig) -> float | None:
    """Hit time of the target for the given initial costates, or None."""
    return shoot_info(lphi_i, ltheta_i, cfg)[0]


def solve_optimum(lphi_i: float, ltheta_i: float, cfg: ShotConfig) -> Optimum:
    """Run one shot and keep its whole extremal and pulses (see ``_optimum``)."""
    y0 = [0.0, 0.0, lphi_i, ltheta_i]
    hit = ode.locate_event(_rhs(), y0, (0.0, cfg.horizon), _event(cfg), cfg.integrator)
    if hit is None:
        raise NoFeasiblePoint(f"no transfer within horizon for ({lphi_i}, {ltheta_i})")
    return _optimum(lphi_i, ltheta_i, hit.t, cfg)


def _optimum(lphi_i: float, ltheta_i: float, t_hit: float, cfg: ShotConfig) -> Optimum:
    """The optimum of a shot that hit at ``t_hit``, with its extremal and pulses.

    The shot finds the hit time on tolerance-limited steps; the extremal is
    integrated once more up to that time, so its nodes are spaced at most
    ``cfg.integrator.max_step`` apart, the sampling of the exports.
    """
    y0 = [0.0, 0.0, lphi_i, ltheta_i]
    trajectory = ode.integrate(_rhs(), y0, (0.0, t_hit), cfg.integrator)
    pulses = np.array([
        lambda3.bang_control(y[0], y[1], y[2], y[3], OMEGA0) for y in trajectory.states
    ])
    terminal = _event(cfg)(trajectory.final_state)
    return Optimum(
        lphi_i=lphi_i,
        ltheta_i=ltheta_i,
        t_min=t_hit,
        area=OMEGA0 * t_hit,
        trajectory=trajectory,
        pulses=pulses,
        terminal_error=abs(terminal),
    )


# ---------------------------------------------------------------------------
# Landscape scan.
#
# Shooting every grid cell through the adaptive scalar path is needlessly
# slow for a survey plot. The scan instead advances all cells side by side
# with a fixed-step RK4 (step = half the adaptive max_step), locating each
# cell's crossing by linear interpolation inside its step; cells whose state
# blows up (the tan(phi) singularity) or leaves the floating range turn into
# NaN. Per-cell arithmetic is elementwise, so results are independent of how
# cells are grouped into chunks, and a chunked parallel run reproduces the
# serial matrix exactly. The refined optimum is cross-checked against the
# scalar path in the test suite.
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / _SQRT2


def _batched_rhs(y: np.ndarray) -> np.ndarray:
    ph, th, lph, lth = y
    cph = np.cos(ph)
    sph = np.sin(ph)
    cth = np.cos(th)
    sth = np.sin(th)
    cth2 = cth * cth
    tph = sph / cph
    h1 = (lph * cph * cth2 + lth * sth * cth * sph) * _INV_SQRT2
    h2 = 0.5 * (lth * cth * tph - lph * sth)
    n = np.hypot(h1, h2)
    op = OMEGA0 * h1 / n
    os_ = OMEGA0 * h2 / n
    dph = op * cph * cth2 * _INV_SQRT2 - 0.5 * os_ * sth
    dth = 0.5 * os_ * cth * tph + op * cth * sth * sph * _INV_SQRT2
    dlph = lph * op * sph * cth2 * _INV_SQRT2 - lth * (
        0.5 * os_ * cth / (cph * cph) + op * sth * cth * cph * _INV_SQRT2
    )
    dlth = lph * (2.0 * op * cph * sth * cth * _INV_SQRT2 + 0.5 * os_ * cth) + lth * (
        0.5 * os_ * sth * tph - op * (cth2 - sth * sth) * sph * _INV_SQRT2
    )
    return np.stack([dph, dth, dlph, dlth])


def _scan_cells(lphi_vals: np.ndarray, ltheta_vals: np.ndarray, eps: float,
                horizon: float, step: float) -> np.ndarray:
    n_phi, n_th = lphi_vals.size, ltheta_vals.size
    n = n_phi * n_th
    y = np.zeros((4, n))
    y[2] = np.repeat(lphi_vals, n_th)
    y[3] = np.tile(ltheta_vals, n_phi)
    target = 0.5 * (1.0 - eps)

    hit_times = np.full(n, np.nan)
    alive = np.hypot(y[2], y[3]) > 0.0
    e_prev = np.full(n, -target)
    idx = np.arange(n)

    nsteps = max(1, math.ceil(horizon / step))
    dt = horizon / nsteps
    t = 0.0
    with np.errstate(all="ignore"):
        for _ in range(nsteps):
            if not alive.any():
                break
            ya = y[:, alive]
            k1 = _batched_rhs(ya)
            k2 = _batched_rhs(ya + 0.5 * dt * k1)
            k3 = _batched_rhs(ya + 0.5 * dt * k2)
            k4 = _batched_rhs(ya + dt * k3)
            yn = ya + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            c = np.cos(yn[0]) * np.sin(yn[1])
            e_new = 0.5 * c * c - target
            ea = e_prev[alive]
            crossed = (ea < 0.0) & (e_new >= 0.0)
            dead = ~np.isfinite(yn).all(axis=0)
            ids = idx[alive]
            if crossed.any():
                frac = ea[crossed] / (ea[crossed] - e_new[crossed])
                hit_times[ids[crossed]] = t + frac * dt
            y[:, alive] = yn
            e_prev[alive] = e_new
            retired = ids[crossed | dead]
            if retired.size:
                nxt = alive.copy()
                nxt[retired] = False
                alive = nxt
            t += dt
    return hit_times.reshape(n_phi, n_th)


def _scan_worker(args):
    return _scan_cells(*args)


def _resolve_workers(workers: int | None) -> int:
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return workers


def landscape(
    lphi_range: tuple[float, float],
    ltheta_range: tuple[float, float],
    resolution: int | tuple[int, int],
    cfg: ShotConfig,
    workers: int | None = None,
) -> LandscapeGrid:
    """Hit-time grid over initial costates; NaN where nothing hits.

    ``workers`` is the number of processes (None or 0 = one per CPU).
    Results do not depend on the worker count.
    """
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    n_phi, n_th = resolution
    if n_phi < 1 or n_th < 1:
        raise ValueError("resolution must be at least 1x1")
    lphi_axis = np.linspace(lphi_range[0], lphi_range[1], n_phi)
    ltheta_axis = np.linspace(ltheta_range[0], ltheta_range[1], n_th)
    step = 0.5 * cfg.integrator.max_step

    workers = min(_resolve_workers(workers), n_phi)
    if workers == 1:
        times = _scan_cells(lphi_axis, ltheta_axis, cfg.eps, cfg.horizon, step)
    else:
        blocks = np.array_split(lphi_axis, workers)
        jobs = [(b, ltheta_axis, cfg.eps, cfg.horizon, step) for b in blocks if b.size]
        with get_context("fork").Pool(processes=len(jobs)) as pool:
            parts = pool.map(_scan_worker, jobs)
        times = np.vstack(parts)
    return LandscapeGrid(lphi_axis, ltheta_axis, times)


# ---------------------------------------------------------------------------
# Refinement.
# ---------------------------------------------------------------------------

#: Relative tolerance on the refined initial lambda_theta.
REFINE_XTOL = 1e-6


def refine(lphi_i: float, ltheta_guess: float, cfg: ShotConfig) -> Optimum:
    """Minimize the hit time over the initial lambda_theta at fixed lambda_phi.

    Thirteen shots along the guess's ray, at 1/16 to 1.5 times the guess,
    locate the fastest probe; Brent's method then starts from it and its
    neighbour and converges to REFINE_XTOL (relative). A shot without a hit
    counts as +inf, so Brent never leaves the lowest point it has seen: the
    result is the fastest branch the scan meets, and the guess must lie
    within a factor of 16 of the optimum. The optimum reuses the hit time of
    the shot Brent returned, so it costs the capped export integration but
    no further shot.
    """
    memo: dict[float, float] = {}

    def hit_time(x) -> float:
        x = float(x)
        if x not in memo:  # bracketing evaluates its two start points again
            t = shoot(lphi_i, x, cfg)
            memo[x] = math.inf if t is None else t
        return memo[x]

    probes = ltheta_guess * np.linspace(1.0 / 16.0, 1.5, 13)
    times = [hit_time(p) for p in probes]
    best = int(np.argmin(times))
    if math.isinf(times[best]):
        raise NoFeasiblePoint(
            f"no transfer within the horizon near ltheta_i ~ {ltheta_guess!r}"
        )
    neighbour = best - 1 if best > 0 else best + 1
    with np.errstate(invalid="ignore"):  # an inf in Brent's parabola gives nan
        result = minimize_scalar(
            hit_time,
            bracket=(probes[neighbour], probes[best]),
            method="brent",
            options={"xtol": REFINE_XTOL},
        )
    if not result.success:
        raise NoConvergence(f"Brent search did not converge: {result.message}")
    ltheta_i = float(result.x)
    if ltheta_i not in memo:
        raise RuntimeError(f"Brent returned ltheta_i = {ltheta_i!r}, which it never shot")
    return _optimum(lphi_i, ltheta_i, memo[ltheta_i], cfg)


def _optima_along_eps(eps_values: np.ndarray, cfg: ShotConfig, lphi_i: float,
                      initial_guess: float) -> list[Optimum]:
    """Refined optima for each accuracy in ``eps_values``, in input order.

    Points are solved from the largest eps down, each refinement guessing
    the previous optimum's lambda_theta. The fast arc of the optimal ray
    shrinks as eps tightens, so the scan below that guess contains the new
    fast optimum, and ``refine`` keeps to the fastest branch it meets.
    """
    optima: list[Optimum | None] = [None] * len(eps_values)
    guess = initial_guess
    for i in np.argsort(eps_values)[::-1]:
        optima[i] = refine(lphi_i, guess, replace(cfg, eps=float(eps_values[i])))
        guess = optima[i].ltheta_i
    return optima


def area_curve(
    eps_values,
    cfg: ShotConfig,
    lphi_i: float = 1.85,
    initial_guess: float = 0.9,
) -> np.ndarray:
    """Minimum generalized pulse area for each accuracy in ``eps_values``.

    The optima come from one eps continuation, largest eps first, each
    warm-started at the previous optimum (see ``_optima_along_eps``).
    Returns an (n, 2) array of (eps, area) in input order.
    """
    eps_values = np.asarray(list(eps_values), dtype=float)
    optima = _optima_along_eps(eps_values, cfg, lphi_i, initial_guess)
    return np.column_stack([eps_values, [opt.area for opt in optima]])


def _asymptotic(eps_values: np.ndarray) -> np.ndarray:
    """Mask of the accuracies in the asymptotic regime, eps <= 0.1; raises
    InsufficientData when fewer than five are."""
    mask = eps_values <= 0.1
    if mask.sum() < 5:
        raise InsufficientData("need at least 5 points with eps <= 0.1")
    return mask


def fit_asymptote(curve) -> tuple[float, float]:
    """Least-squares fit area = slope * ln(eps) + intercept.

    Only points with eps <= 0.1 are in the asymptotic regime and used;
    fewer than five such points raise InsufficientData.
    """
    curve = np.asarray(curve, dtype=float)
    mask = _asymptotic(curve[:, 0])
    slope, intercept = np.polyfit(np.log(curve[mask, 0]), curve[mask, 1], 1)
    return float(slope), float(intercept)


def energy_optimum3(
    duration: float,
    eps: float,
    cfg: ShotConfig | None = None,
    lphi_i: float = 1.85,
    initial_guess: float = 0.9,
    optimum: Optimum | None = None,
) -> EnergyOptimum:
    """Minimum peak amplitude and energy for a transfer in a fixed time.

    The energy-optimal extremal is the time-optimal one traversed at the
    rescaled amplitude omega0_min = area / duration, so the energy is
    area^2 / duration (hbar = 1). Pass a precomputed time-optimal
    ``optimum`` to skip the refinement.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if optimum is None:
        if cfg is None:
            cfg = ShotConfig(eps=eps)
        elif cfg.eps != eps:
            cfg = replace(cfg, eps=eps)
        optimum = refine(lphi_i, initial_guess, cfg)
    omega0_min = optimum.area / duration
    return EnergyOptimum(omega0_min, optimum.area * omega0_min, optimum)


def energy_shot(duration: float, energy_opt: EnergyOptimum, cfg: ShotConfig) -> float:
    """Consistency check: run the energy-optimal closed loop to the target.

    The time-optimal initial costates are rescaled so that the (constant)
    pulse magnitude of the energy extremal equals omega0_min; the hit should
    land at ``duration``. Returns the hit time.
    """
    opt = energy_opt.time_optimum
    h_norm = abs(opt.lphi_i) / _SQRT2
    scale = energy_opt.omega0_min / h_norm
    y0 = np.array([0.0, 0.0, scale * opt.lphi_i, scale * opt.ltheta_i])
    hit = ode.locate_event(
        _rhs("energy"), y0, (0.0, 1.5 * duration), _event(cfg), cfg.integrator
    )
    if hit is None:
        raise NoFeasiblePoint("energy-optimal closed loop missed the target")
    return hit.t
