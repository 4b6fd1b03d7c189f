"""Counterpart two-level problem of the real three-level dynamics.

Rescaling the real amplitudes as ``rho = (x1, -sqrt(2) y2, sqrt(2) x3)``
turns the three-level equations into Bloch-like equations on the unit sphere
driven by the reduced couplings ``P = Omega_p / sqrt(2)`` and
``S = Omega_s / 2``, generated by a two-level Hamiltonian whose coupling is
itself proportional to the population imbalance. In the angle form of that
problem, the polar angle obeys an exact quadrature:

    tan(theta/2) = tanh( (1/2) * integral of P sin(phi) dt ),

so complete conversion (|rho_x| = 1, i.e. theta = pi/2) needs an infinite
pump area: |rho_x| < 1 at every finite time.

A tempting but wrong reduction takes the Stokes coupling as
Omega_s / sqrt(2) by analogy with the pump; it misses the extra factor from
the sqrt(2) amplitude rescaling and does not reproduce the three-level flow.
The cross-checks here enforce the consistent Omega_s / 2 (the wrong variant
is kept around as a negative control).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from . import lambda3, ode, shooting

__all__ = [
    "ThetaSingularity",
    "map_3to2",
    "map_pulses",
    "iso_bloch_rhs",
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


def iso_bloch_rhs(rho, p: float, s: float) -> tuple[float, float, float]:
    """Bloch flow of the counterpart problem, a 3-tuple; the coupling p rides on rho_z."""
    rz, ry, rx = rho
    return -p * rz * ry, s * rx + p * rz * rz, -s * ry


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


def exact_theta(times: np.ndarray, pump_projection: np.ndarray) -> np.ndarray:
    """theta(t) from the quadrature of the pump projection P sin(phi).

    ``pump_projection`` must sample P sin(phi) at ``times`` densely enough
    for composite-quadrature error below the comparison tolerance.
    """
    times = np.asarray(times, dtype=float)
    w = cumulative_simpson(np.asarray(pump_projection, dtype=float), x=times, initial=0.0)
    return 2.0 * np.arctan(np.tanh(0.5 * w))


@dataclass
class CrossCheck:
    """Worst-case deviations between the representations along one optimum."""

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


def cross_check(
    cfg: shooting.ShotConfig,
    costates: tuple[float, float] | None = None,
    corrupt_mapping: bool = False,
) -> CrossCheck:
    """Integrate every representation of one time-optimal transfer side by side.

    One rhs, which computes the bang control once per call, drives two passes
    on the adaptive integrator of ``cfg`` up to the hit time. Its state holds
    the closed-loop extremal, the real three-level amplitudes and the
    counterpart two-level amplitudes; the second pass starts at the first
    node off the initial pole and appends the angle block, which the rhs
    flows when the state has 14 components. The deviations are taken over
    the accepted nodes of each pass. Without ``costates`` the transfer is the
    optimum refined from ``shooting.START_RAY``; non-finite costates raise
    ValueError. ``corrupt_mapping`` switches the Stokes reduction to the
    inconsistent Omega_s / sqrt(2) variant (negative control: the oracles
    must fail).
    """
    if costates is None:
        opt = shooting.refine(*shooting.START_RAY, cfg)
        costates = (opt.lphi_i, opt.ltheta_i)
        t_hit = opt.t_min
    elif not all(math.isfinite(c) for c in costates):
        raise ValueError(f"costates must be finite, got {costates!r}")
    else:
        t_hit = shooting.shoot(costates[0], costates[1], cfg)
        if t_hit is None:
            raise shooting.NoFeasiblePoint(f"costates {costates} do not reach the target")

    reduce_pulses = map_pulses
    if corrupt_mapping:
        reduce_pulses = lambda op, os_: (op / _SQRT2, os_ / _SQRT2)  # noqa: E731

    def rhs(t: float, y: list) -> list:
        pulses = lambda3.bang_control(y[0], y[1], y[2], y[3], shooting.OMEGA0)
        p, s = reduce_pulses(*pulses)
        da1, da2 = iso_amplitude_rhs((y[7] + 1j * y[8], y[9] + 1j * y[10]), p, s)
        d = [
            *lambda3.extremal_rhs(y[0:4], shooting.OMEGA0),
            *lambda3.xcoordinate_rhs(y[4:7], pulses),
            da1.real, da1.imag, da2.real, da2.imag,
        ]
        if len(y) == 14:
            d += iso_angle_rhs(y[11:14], p, s)
        return d

    base = ode.integrate(rhs, [0.0, 0.0, *costates, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         (0.0, t_hit), cfg.integrator)

    rho_mapped = map_3to2(base.states[:, 4:7].T)
    a1 = base.states[:, 7] + 1j * base.states[:, 8]
    a2 = base.states[:, 9] + 1j * base.states[:, 10]
    rho_amp = rho_from_amplitudes(a1, a2)
    amplitude_deviation = float(np.abs(rho_mapped - rho_amp).max())
    max_abs_coherence = float(max(np.abs(rho_mapped[2]).max(), np.abs(rho_amp[2]).max()))

    # Exact-theta quadrature along the whole run. At t = 0 the transverse
    # Bloch components vanish and sin(phi) is defined by its limit, 1.
    theta_iso = np.arctan2(np.hypot(rho_mapped[1], rho_mapped[2]), rho_mapped[0])
    pump = np.array([
        reduce_pulses(*lambda3.bang_control(*y, shooting.OMEGA0))[0]
        for y in base.states[:, 0:4].tolist()
    ])
    transverse = np.hypot(rho_mapped[1], rho_mapped[2])
    sin_phi = np.where(transverse > 1e-12, rho_mapped[1] / np.where(transverse == 0.0, 1.0, transverse), 1.0)
    theta_quad = exact_theta(base.times, pump * sin_phi)
    quadrature_deviation = float(np.abs(theta_quad - theta_iso).max())

    # Second pass with the angle block, seeded once theta has left the pole.
    seed_candidates = np.nonzero(theta_iso >= 0.01)[0]
    if seed_candidates.size == 0:
        raise ValueError("trajectory never leaves the initial pole; nothing to check")
    i0 = int(seed_candidates[0])
    t0 = float(base.times[i0])
    theta0, phi0, gamma0 = angles_from_amplitudes(a1[i0], a2[i0])

    second = ode.integrate(rhs, [*base.states[i0].tolist(), theta0, phi0, gamma0],
                           (t0, t_hit), cfg.integrator)
    rho_mapped2 = map_3to2(second.states[:, 4:7].T)
    theta_b = second.states[:, 11]
    phi_b = second.states[:, 12]
    gamma_b = second.states[:, 13]
    angle_deviation = float(np.abs(rho_from_angles(theta_b, phi_b) - rho_mapped2).max())

    a1_b = np.cos(0.5 * theta_b) * np.exp(-1j * gamma_b)
    a2_b = np.sin(0.5 * theta_b) * np.exp(-1j * (phi_b + gamma_b))
    a1_direct = second.states[:, 7] + 1j * second.states[:, 8]
    a2_direct = second.states[:, 9] + 1j * second.states[:, 10]
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


def area_divergence_check(
    eps_values,
    cfg: shooting.ShotConfig,
    lphi_i: float = shooting.START_RAY[0],
    initial_guess: float = shooting.START_RAY[1],
) -> np.ndarray:
    """Pump area of the counterpart problem along the optimum, per accuracy.

    The optima come from the same eps continuation as ``shooting.area_curve``;
    |P| is integrated by the trapezoid rule over each optimum's extremal
    (``shooting.extremal``). Returns an (n, 2) array of (eps, integral of
    |P| dt) in the input order. The area must grow without bound as eps -> 0 (the complete transfer
    needs infinite pump area); tests regress it against ln(eps).
    """
    eps_values = np.asarray(list(eps_values), dtype=float)
    optima = shooting._optima_along_eps(eps_values, cfg, lphi_i, initial_guess)
    paths = (shooting.extremal(opt, cfg) for opt in optima)
    areas = [np.trapezoid(np.abs(pulses[:, 0]) / _SQRT2, path.times) for path, pulses in paths]
    return np.column_stack([eps_values, areas])
