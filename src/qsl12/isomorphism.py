"""Counterpart two-level problem of the real three-level dynamics.

Rescaling the real amplitudes as ``rho = (x1, -sqrt(2) y2, sqrt(2) x3)``
turns the three-level equations into Bloch-like equations on the unit sphere
driven by the reduced couplings ``P = Omega_p / sqrt(2)`` and
``S = Omega_s / 2``, generated by a two-level Hamiltonian whose coupling is
itself proportional to the population imbalance. In the angle form of that
problem, the polar angle obeys an exact quadrature:

    tan(theta/2) = tanh( (1/2) * integral of P sin(phi) dt ),

so complete conversion (|rho_x| = 1, i.e. theta = pi/2) needs an infinite
pump area: |rho_x| < 1 at every finite time. The oracle run integrates that
pump area as one more component of its state, beside the amplitudes, and
checks the quadrature at every accepted node. Its closed-loop extremal
drives every representation with the one bang control it applies. The run
is one integration of one state: its angle block is held still at the
initial pole, where the angle form is singular, and seeded at the first
node off it, both legs on the tolerance's own steps.

A tempting but wrong reduction takes the Stokes coupling as
Omega_s / sqrt(2) by analogy with the pump; it misses the extra factor from
the sqrt(2) amplitude rescaling and does not reproduce the three-level flow.
The cross-checks here enforce the consistent Omega_s / 2 (the wrong variant
is kept around as a negative control).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import lambda3, ode, shooting
from ._lazy import np

__all__ = [
    "ThetaSingularity",
    "map_3to2",
    "map_pulses",
    "iso_amplitude_rhs",
    "iso_angle_rhs",
    "angles_from_amplitudes",
    "rho_from_amplitudes",
    "rho_from_angles",
    "exact_theta",
    "CrossCheck",
    "cross_check",
    "area_divergence_check",
]

_SQRT2 = math.sqrt(2.0)

#: sin(theta) floor for the angle-form equations (coordinate singularity at
#: the poles; the initial point is seeded from the Cartesian run instead).
THETA_SIN_MIN = 1e-12

#: Agreement thresholds enforced by the cross-check oracles.
AMPLITUDE_TOL = 1e-7
ANGLE_TOL = 1e-7
ROUNDTRIP_TOL = 1e-7
QUADRATURE_TOL = 1e-6


class ThetaSingularity(ArithmeticError):
    """sin(theta) vanished in the angle-form equations."""


def map_3to2(state3: np.ndarray) -> np.ndarray:
    """(x1, y2, x3) -> Bloch vector (rho_z, rho_y, rho_x) of the counterpart problem."""
    x1, y2, x3 = state3
    return np.array([x1, -_SQRT2 * y2, _SQRT2 * x3])


def map_pulses(omega_p: float, omega_s: float) -> tuple[float, float]:
    """Pump/Stokes fields -> reduced couplings (P, S) of the counterpart problem."""
    return omega_p / _SQRT2, 0.5 * omega_s


def iso_amplitude_rhs(a, p: float, s: float) -> tuple[complex, complex]:
    """Schroedinger flow of (a1, a2) under the population-dependent coupling, a 2-tuple."""
    a1, a2 = a
    rz = abs(a1) ** 2 - abs(a2) ** 2
    return -0.5j * (-s * a1 + p * rz * a2), -0.5j * (p * rz * a1 + s * a2)


def iso_angle_rhs(angles, p: float, s: float) -> tuple[float, float, float]:
    """Angle-form flow (theta, phi, gamma) of the counterpart problem, a 3-tuple."""
    theta, phi, _ = angles
    sth = math.sin(theta)
    if abs(sth) <= THETA_SIN_MIN:
        raise ThetaSingularity("sin(theta) ~ 0: angle form singular")
    cth = math.cos(theta)
    cphi = math.cos(phi)
    return (
        p * cth * math.sin(phi),
        s + p * (cth * cth / sth) * cphi,
        -0.5 * s + 0.5 * p * cth * math.tan(0.5 * theta) * cphi,
    )


def rho_from_amplitudes(a1, a2) -> np.ndarray:
    """Bloch vector of the two-level amplitudes."""
    coherence = a1 * np.conj(a2)
    return np.array([
        np.abs(a1) ** 2 - np.abs(a2) ** 2,
        2.0 * np.imag(coherence),
        2.0 * np.real(coherence),
    ])


def rho_from_angles(theta, phi) -> np.ndarray:
    """Bloch vector of the angle parameterization."""
    return np.array([np.cos(theta), np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi)])


def angles_from_amplitudes(a1: complex, a2: complex) -> tuple[float, float, float]:
    """(theta, phi, gamma) reproducing the amplitude pair."""
    theta = 2.0 * math.atan2(abs(a2), abs(a1))
    gamma = -np.angle(a1)
    phi = np.angle(a1) - np.angle(a2)
    return theta, float(phi), float(gamma)


def exact_theta(pump_area):
    """theta = 2 arctan(tanh(A / 2)) of the pump area A = integral of P sin(phi) dt.

    The counterpart problem's exact quadrature, tan(theta/2) = tanh(A/2)
    (arXiv 2303.15359); theta < pi/2 at every finite A. ``cross_check``
    integrates A along its run.
    """
    return 2.0 * np.arctan(np.tanh(0.5 * pump_area))


class CrossCheck(NamedTuple):
    """Worst-case deviations between the representations along one optimum,
    a named tuple."""

    hit_time: float
    amplitude_deviation: float
    angle_deviation: float
    roundtrip_deviation: float
    quadrature_deviation: float
    max_abs_coherence: float

    @property
    def passed(self) -> bool:
        return (
            self.amplitude_deviation <= AMPLITUDE_TOL
            and self.angle_deviation <= ANGLE_TOL
            and self.roundtrip_deviation <= ROUNDTRIP_TOL
            and self.quadrature_deviation <= QUADRATURE_TOL
            and self.max_abs_coherence < 1.0
        )


def _oracle_rhs(reduce_pulses, at_pole: bool = False):
    """The oracle run's rhs, with the Stokes and pump reduction ``reduce_pulses``.

    Its state holds the closed-loop extremal, the real three-level
    amplitudes, the counterpart two-level amplitudes, the pump area
    A = integral of P sin(phi) dt, with sin(phi) = rho_y / |rho_perp| read
    from the three-level amplitudes (1 at the initial pole), and the angle
    block, held still ``at_pole``, where the angle form is singular. Each
    call evaluates the extremal flow once, with ``lambda3.extremal_control``,
    and drives the other flows with the bang control that flow applied. No
    base component's slope reads the angle block.
    """
    def rhs(y: list) -> list:
        slope, pulses = lambda3.extremal_control(y[0:4])
        p, s = reduce_pulses(*pulses)
        da1, da2 = iso_amplitude_rhs((y[7] + 1j * y[8], y[9] + 1j * y[10]), p, s)
        # P sin(phi), with rho_y and rho_x as map_3to2 maps them; sin(phi)
        # is its limit 1 at the initial pole
        ry = -_SQRT2 * y[5]
        transverse = math.hypot(ry, _SQRT2 * y[6])
        return [
            *slope,
            *lambda3.xcoordinate_rhs(y[4:7], pulses),
            da1.real, da1.imag, da2.real, da2.imag,
            p * (ry / transverse) if transverse > 1e-12 else p,
            *((0.0, 0.0, 0.0) if at_pole else iso_angle_rhs(y[12:15], p, s)),
        ]

    return rhs


def _amplitudes(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The counterpart amplitudes (a1, a2) at each row of a run's states."""
    return states[:, 7] + 1j * states[:, 8], states[:, 9] + 1j * states[:, 10]


def _polar_angle(states: np.ndarray) -> np.ndarray:
    """The polar angle of the mapped Bloch vector at each row of a run's states."""
    rho = map_3to2(states[:, 4:7].T)
    return np.arctan2(np.hypot(rho[1], rho[2]), rho[0])


def _oracle_run(reduce_pulses, costates: tuple[float, float], t_hit: float,
                tol: float) -> tuple[ode.Trajectory, ode.Trajectory]:
    """One run of ``_oracle_rhs(reduce_pulses)``, at ``tol``, from the
    initial pole to the hit: (base, tail).

    Both legs of the run are drawn from ``ode.nodes`` on the 15-component
    state, so the tolerance alone sets their steps. The head, its angle
    block held at zero, stops at its first node whose mapped polar angle is
    at least 0.01, off the pole. From that seed node the tail draws the
    nodes to the hit with the angle block seeded from the counterpart
    amplitudes there; its step controller starts afresh. ``tail`` is that
    continuation; ``base`` holds the base state at every node of the run,
    the head's before the seed, then the tail's. Raises ValueError if no
    node leaves the pole.
    """
    y0 = [0.0, 0.0, *costates, 1.0, 0.0, 0.0, 1.0, *[0.0] * 7]
    head_times, head_states = [], []
    for t, y in ode.nodes(_oracle_rhs(reduce_pulses, at_pole=True), y0, (0.0, t_hit), tol):
        seed = np.array([y])
        if _polar_angle(seed)[0] >= 0.01:
            break
        head_times.append(t)
        head_states.append(y)
    else:
        raise ValueError("trajectory never leaves the initial pole; nothing to check")
    a1, a2 = _amplitudes(seed)
    seeded = [*y[:12], *angles_from_amplitudes(a1[0], a2[0])]
    tail = ode.Trajectory(*zip(*ode.nodes(_oracle_rhs(reduce_pulses), seeded, (t, t_hit), tol)))
    base = ode.Trajectory(np.concatenate([head_times, tail.times]),
                          np.concatenate([head_states, tail.states])[:, :12])
    return base, tail


def cross_check(
    cfg: shooting.ShotConfig,
    costates: tuple[float, float] | None = None,
    corrupt_mapping: bool = False,
) -> CrossCheck:
    """Integrate every representation of one time-optimal transfer side by side.

    One run on the adaptive integrator goes up to the hit time: the
    closed-loop extremal, the real three-level amplitudes, the counterpart
    two-level amplitudes and the pump area from the initial pole, joined by
    the angle block from the first node off the pole on (see
    ``_oracle_run``). The amplitude and quadrature deviations are taken over
    every accepted node of the run, the angle and roundtrip deviations over
    the nodes that carry the angle block; the quadrature oracle compares
    ``exact_theta(A)`` with the polar angle of the mapped amplitudes. The
    run's steps are set by the tolerance alone, so each deviation is of the
    order of that tolerance: the tighter of ``cfg.tol`` and ``ode.TOL``, so
    that a loose ``cfg.tol`` cannot carry a deviation past the fixed
    thresholds; the shot that finds the hit time runs at ``cfg.tol``.
    Without ``costates`` the transfer is the optimum refined from
    ``shooting.START_RAY``; non-finite costates raise ValueError, and a
    shot that misses raises NoFeasiblePoint with its reason.
    ``corrupt_mapping`` switches the Stokes reduction to the inconsistent
    Omega_s / sqrt(2) variant (negative control: the oracles must fail).
    """
    if costates is None:
        opt = shooting.refine(*shooting.START_RAY, cfg)
        costates = (opt.lphi_i, opt.ltheta_i)
        t_hit = opt.t_min
    elif not all(math.isfinite(c) for c in costates):
        raise ValueError(f"costates must be finite, got {costates!r}")
    else:
        t_hit, reason, _ = shooting.shoot_info(costates[0], costates[1], cfg)
        if t_hit is None:
            raise shooting.NoFeasiblePoint(
                f"costates {costates} do not reach the target within the horizon"
                f" {cfg.horizon!r} at eps {cfg.eps!r} ({reason})"
            )

    reduce_pulses = map_pulses
    if corrupt_mapping:
        reduce_pulses = lambda op, os_: (op / _SQRT2, os_ / _SQRT2)  # noqa: E731
    base, tail = _oracle_run(reduce_pulses, costates, t_hit, min(cfg.tol, ode.TOL))

    rho_mapped = map_3to2(base.states[:, 4:7].T)
    rho_amp = rho_from_amplitudes(*_amplitudes(base.states))
    amplitude_deviation = float(np.abs(rho_mapped - rho_amp).max())
    max_abs_coherence = float(max(np.abs(rho_mapped[2]).max(), np.abs(rho_amp[2]).max()))
    theta_iso = _polar_angle(base.states)
    quadrature_deviation = float(np.abs(exact_theta(base.states[:, 11]) - theta_iso).max())

    rho_tail = map_3to2(tail.states[:, 4:7].T)
    theta_b = tail.states[:, 12]
    phi_b = tail.states[:, 13]
    gamma_b = tail.states[:, 14]
    angle_deviation = float(np.abs(rho_from_angles(theta_b, phi_b) - rho_tail).max())

    a1_b = np.cos(0.5 * theta_b) * np.exp(-1j * gamma_b)
    a2_b = np.sin(0.5 * theta_b) * np.exp(-1j * (phi_b + gamma_b))
    a1_direct, a2_direct = _amplitudes(tail.states)
    roundtrip_deviation = float(
        max(np.abs(a1_b - a1_direct).max(), np.abs(a2_b - a2_direct).max())
    )

    return CrossCheck(
        hit_time=t_hit,
        amplitude_deviation=amplitude_deviation,
        angle_deviation=angle_deviation,
        roundtrip_deviation=roundtrip_deviation,
        quadrature_deviation=quadrature_deviation,
        max_abs_coherence=max_abs_coherence,
    )


def area_divergence_check(eps_values, cfg: shooting.ShotConfig) -> np.ndarray:
    """Pump area of the counterpart problem along the optimum, per accuracy.

    The optima come from the same eps continuation as ``shooting.area_curve``
    (``shooting.optima_along_eps``), started at ``shooting.START_RAY``: the
    two largest eps are refined, each later one predicted from the last two
    optima and corrected by the refinement's root search. |P| is integrated
    by the trapezoid rule over each optimum's extremal
    (``shooting.extremal``), once per distinct eps: a repeated eps shares its
    twin's optimum, and so its area. Returns an (n, 3) array of (eps,
    integral of |P| dt, fallback) in the input order; fallback is 1 where
    the point's corrector failed and ``shooting.refine`` solved it instead,
    else 0, as in ``shooting.area_curve``. The area must grow without bound
    as eps -> 0 (the complete transfer needs infinite pump area); tests
    regress it against ln(eps).
    """
    eps_values = [float(eps) for eps in eps_values]
    optima = shooting.optima_along_eps(eps_values, cfg, shooting.START_RAY[0])
    by_eps = dict(zip(eps_values, optima))
    paths = ((eps, shooting.extremal(opt, cfg)) for eps, opt in by_eps.items())
    areas = {eps: np.trapezoid(np.abs(map_pulses(*pulses.T)[0]), path.times)
             for eps, (path, pulses) in paths}
    return np.column_stack([eps_values, [areas[eps] for eps in eps_values],
                            [opt.fallback is not None for opt in optima]])
