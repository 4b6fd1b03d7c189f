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

An optimum is its initial costates and its hit time. Only the exports that
show the optimal pulse sequence integrate its path, with ``extremal``.
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
    "extremal",
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

#: The initial costates (lambda_phi, guessed lambda_theta) a refinement
#: starts from when none are given.
START_RAY = (1.85, 0.9)


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
    """A successful shot: its initial costates and hit time."""

    lphi_i: float
    ltheta_i: float
    t_min: float

    @property
    def area(self) -> float:
        """Generalized pulse area, Omega_0 times the hit time."""
        return OMEGA0 * self.t_min


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


def _event(cfg: ShotConfig, cos=math.cos, sin=math.sin):
    target = cfg.target

    def x3sq_excess(y: list) -> float:
        c = cos(y[0]) * sin(y[1])
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


def extremal(opt: Optimum, cfg: ShotConfig) -> tuple[ode.Trajectory, np.ndarray]:
    """The extremal of ``opt`` up to its hit time, and the pulses along it.

    The shot finds the hit time on tolerance-limited steps; the extremal is
    integrated once more up to that time, so its nodes are spaced at most
    ``cfg.integrator.max_step`` apart, the sampling of the exports. The
    pulses hold one (Omega_p, Omega_s) row of the bang control per node.
    """
    y0 = [0.0, 0.0, opt.lphi_i, opt.ltheta_i]
    trajectory = ode.integrate(_rhs(), y0, (0.0, opt.t_min), cfg.integrator)
    pulses = np.array([
        lambda3.bang_control(y[0], y[1], y[2], y[3], OMEGA0) for y in trajectory.states
    ])
    return trajectory, pulses


# ---------------------------------------------------------------------------
# Landscape scan.
#
# Every cell is a shot run on the shots' own machinery, side by side with
# the others: the lanes hold the state as a list of four arrays, which
# ``ode._dp5_step`` steps unchanged on ``lambda3.extremal_lanes`` at the
# fixed step h = horizon / ceil(horizon / max_step). A numpy screen flags
# the lanes whose event changes sign or may graze zero (the rates along the
# step's end slopes, then the tangent screen); the shots' crossing rule
# ``ode._crossing`` decides each flagged lane with the shots' event and
# event_tol. A lane retires at its hit, and as NaN when its state goes
# non-finite or its step error estimate exceeds h: a fixed step can step
# over the tan(phi) blow-up to a hit no shot has. Lanes never mix, so a
# chunked parallel run reproduces the serial matrix exactly.
# ---------------------------------------------------------------------------


def _scan_cells(lphi_vals: np.ndarray, ltheta_vals: np.ndarray, cfg: ShotConfig) -> np.ndarray:
    n_th = ltheta_vals.size
    ids = np.arange(lphi_vals.size * n_th)
    y = [np.zeros(ids.size), np.zeros(ids.size), np.repeat(lphi_vals, n_th), np.tile(ltheta_vals, lphi_vals.size)]
    hit_times = np.full(ids.size, np.nan)
    event, lane_event = _event(cfg), _event(cfg, np.cos, np.sin)
    rhs = lambda t, lanes: lambda3.extremal_lanes(lanes, OMEGA0)
    n_steps = math.ceil(cfg.horizon / cfg.integrator.max_step)
    h = cfg.horizon / n_steps
    dt = ode._RATE_DT * h
    with np.errstate(all="ignore"):
        k1 = rhs(0.0, y)
        e_a, r_a = lane_event(y), ode._rate(lane_event, y, k1, dt)
        for i in range(n_steps):
            if not ids.size:
                break
            t_a, t_b = i * h, (i + 1) * h
            y_b, K, err = ode._dp5_step(rhs, t_a, y, k1, h)
            e_b, r_b = lane_event(y_b), ode._rate(lane_event, y_b, K[-1], dt)
            retired = ~(np.isfinite(y_b).all(axis=0) & (np.abs(err) <= h).all(axis=0))
            flagged = (e_b == 0.0) | ((e_b > 0.0) != (e_a > 0.0)) | (
                (r_b * e_b > 0.0) & (r_a * e_a < 0.0) & ~ode._graze_ruled_out(e_a, r_a, e_b, r_b, h)
            )
            for j in np.flatnonzero(flagged & ~retired):
                ya, yb = [c[j].item() for c in y], [c[j].item() for c in y_b]
                Kj = [[c[j].item() for c in k] for k in K]
                found = ode._crossing(event, t_a, ya, event(ya), t_b, yb, event(yb), Kj, h,
                                      cfg.integrator.event_tol)
                if found is not None:
                    hit_times[ids[j]], retired[j] = found[0], True
            k_b, keep = K[-1], ~retired
            if not keep.all():
                y_b, k_b = [c[keep] for c in y_b], [c[keep] for c in k_b]
                e_b, r_b, ids = e_b[keep], r_b[keep], ids[keep]
            y, k1, e_a, r_a = y_b, k_b, e_b, r_b
    return hit_times.reshape(lphi_vals.size, n_th)


def landscape(
    lphi_range: tuple[float, float],
    ltheta_range: tuple[float, float],
    resolution: int | tuple[int, int],
    cfg: ShotConfig,
    workers: int | None = None,
) -> LandscapeGrid:
    """Hit-time grid over initial costates; NaN where nothing hits.

    Each cell is a shot on a fixed DP5 step (see the comment above).
    ``workers`` is the number of processes (None or 0 = one per CPU);
    results do not depend on it. Non-finite ranges and a negative
    ``workers`` raise ValueError.
    """
    if not all(math.isfinite(hi - lo) for lo, hi in (lphi_range, ltheta_range)):
        raise ValueError("landscape ranges must have finite ends and span")
    if workers is not None and workers < 0:
        raise ValueError("workers must be non-negative")
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    n_phi, n_th = resolution
    if n_phi < 1 or n_th < 1:
        raise ValueError("resolution must be at least 1x1")
    lphi_axis = np.linspace(lphi_range[0], lphi_range[1], n_phi)
    ltheta_axis = np.linspace(ltheta_range[0], ltheta_range[1], n_th)

    workers = min(workers or os.cpu_count() or 1, n_phi)
    if workers == 1:
        times = _scan_cells(lphi_axis, ltheta_axis, cfg)
    else:
        blocks = np.array_split(lphi_axis, workers)
        jobs = [(b, ltheta_axis, cfg) for b in blocks if b.size]
        with get_context("fork").Pool(processes=len(jobs)) as pool:
            parts = pool.starmap(_scan_cells, jobs)
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
    within a factor of 16 of the optimum. The optimum is the costates and
    hit time of the shot Brent returned: it costs no further integration.
    Non-finite costates raise ValueError before the first shot.
    """
    if not (math.isfinite(lphi_i) and math.isfinite(ltheta_guess)):
        raise ValueError(f"costates must be finite, got ({lphi_i!r}, {ltheta_guess!r})")
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
    return Optimum(lphi_i, ltheta_i, memo[ltheta_i])


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
    lphi_i: float = START_RAY[0],
    initial_guess: float = START_RAY[1],
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


def energy_optimum3(duration: float, optimum: Optimum) -> EnergyOptimum:
    """Minimum peak amplitude and energy for a transfer in a fixed time.

    The energy-optimal extremal is the time-optimal ``optimum`` traversed at
    the rescaled amplitude omega0_min = area / duration, so the energy is
    area^2 / duration (hbar = 1). The duration must be positive and finite,
    and long enough that both come out finite.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    omega0_min = optimum.area / duration
    energy = optimum.area * omega0_min
    if not (math.isfinite(omega0_min) and math.isfinite(energy)):
        raise ValueError(f"duration {duration!r} too short: the amplitude or the energy overflows")
    return EnergyOptimum(omega0_min, energy, optimum)


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
