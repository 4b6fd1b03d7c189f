"""Reference forms of the physics: the tests' oracles, which no command runs.

The package computes with the forms its commands need: the closed-loop
extremal flow ``lambda3._extremal_flow``, the Bloch flow, the oracle run's
rhs. The forms here write the same physics term by term, as the paper
states it, and the tests hold the package's forms against them: the
two-level amplitudes, costates and control Hamiltonian; the three-level
angle and costate equations, the switching pair and its two control laws
(bang and energy-optimal); the counterpart problem's Bloch flow; and the
energy-optimal closed loop run to the target. ``src/`` holds only what the
commands run (``tests/test_public_names.py`` checks this), and no module
of the package imports this one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qsl12 import ode
from qsl12.bloch2 import ZERO_KERR, KerrParams
from qsl12.lambda3 import PHI_COS_MIN, SWITCHING_MIN, PhiSingularity, SwitchingDegeneracy
from qsl12.shooting import NoFeasiblePoint, Optimum, ShotConfig, _event

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2


# ---------------------------------------------------------------------------
# Two-level system (bloch2's conventions).
# ---------------------------------------------------------------------------

def bloch_from_amplitudes(psi1: complex, psi2: complex) -> np.ndarray:
    """Map normalized amplitudes to (eta1, eta2, eta3)."""
    c = psi1 * psi1 * np.conj(psi2)
    return np.array([
        _SQRT2 * c.real,
        _SQRT2 * c.imag,
        abs(psi2) ** 2 - 0.5 * abs(psi1) ** 2,
    ])


def surface_residual(eta) -> float:
    """Deviation from the generalized Bloch sphere; zero on the surface."""
    e1, e2, e3 = eta
    return e1 * e1 + e2 * e2 - (0.5 - e3) ** 2 * (0.5 + e3)


def effective_detuning(delta: float, eta3: float, kerr: KerrParams = ZERO_KERR) -> float:
    """Detuning seen by the Bloch dynamics once Kerr shifts are folded in."""
    return -delta + kerr.lambda_a - kerr.lambda_s * (0.5 + eta3)


def amplitude_rhs(psi, omega: float, delta: float, kerr: KerrParams = ZERO_KERR) -> tuple[complex, complex]:
    """Time derivative of (psi1, psi2) including Kerr shifts, a 2-tuple
    computed on the components of ``psi`` (complex numbers).

    Conserves |psi1|^2 + 2|psi2|^2. The 1:2 resonance makes the coupling
    quadratic in psi1, which is what renders the upper state unreachable.
    """
    p1, p2 = psi
    n1 = abs(p1) ** 2
    n2 = abs(p2) ** 2
    d1 = (-delta / 3.0 + kerr.l11 * n1 + kerr.l12 * n2) * p1 + (omega / _SQRT2) * p1.conjugate() * p2
    d2 = (delta / 3.0 + kerr.l12 * n1 + kerr.l22 * n2) * p2 + (omega / (2.0 * _SQRT2)) * p1 * p1
    return -1j * d1, -1j * d2


def bloch_costate_rhs(lam: np.ndarray, eta: np.ndarray, omega: float, delta_eff: float,
                      kerr: KerrParams = ZERO_KERR) -> np.ndarray:
    """Adjoint dynamics of the time-cost conjugate momenta (l1, l2, l3)."""
    l1, l2, l3 = lam
    e1, e2, e3 = eta
    return np.array([
        l2 * delta_eff,
        -l1 * delta_eff - l3 * omega,
        -0.5 * l2 * omega * (6.0 * e3 - 1.0) + kerr.lambda_s * (l1 * e2 - l2 * e1),
    ])


def switching_function(lam: np.ndarray, eta: np.ndarray) -> float:
    """Coefficient of the detuning in the control Hamiltonian (zero on extremals)."""
    return lam[0] * eta[1] - lam[1] * eta[0]


def control_hamiltonian(lam: np.ndarray, eta: np.ndarray, omega: float, delta_eff: float) -> float:
    """Time-cost control Hamiltonian (constant along extremals)."""
    theta_factor = 3.0 * eta[2] ** 2 - eta[2] - 0.25
    return delta_eff * switching_function(lam, eta) + omega * (0.5 * lam[1] * theta_factor + lam[2] * eta[1])


def analytic_eta3(t):
    """Inversion under the resonant constant pulse from the south pole."""
    return np.tanh(0.5 * np.asarray(t)) ** 2 - 0.5


def asymptotic_area(eps):
    """Inverse of ``bloch2.asymptotic_epsilon``."""
    return -np.log(np.asarray(eps) / 4.0)


# ---------------------------------------------------------------------------
# Three-level system (lambda3's angles and costates).
# ---------------------------------------------------------------------------

#: |sin(phi)| or |cos(phi)| floor for pulse reconstruction from angle rates.
ANGLE_RATE_MIN = 1e-12


class AngleSingularity(ArithmeticError):
    """Pulse reconstruction attempted at sin(phi) ~ 0 or cos(phi) ~ 0."""


class PulsePair(NamedTuple):
    omega_p: float
    omega_s: float


def _check_phi(cph: float) -> None:
    if abs(cph) <= PHI_COS_MIN:
        raise PhiSingularity("cos(phi) ~ 0: angle dynamics singular")


def angle_rhs(phi: float, theta: float, pulses: PulsePair) -> tuple[float, float]:
    """Angle velocities (dphi, dtheta) under pump/Stokes driving.

    Uses the algebraically regularized form of the theta equation, which is
    finite at theta = 0 (the mandatory initial condition) and matches the
    costate coupling term for term.
    """
    op, os_ = pulses
    cph, sph = math.cos(phi), math.sin(phi)
    _check_phi(cph)
    cth, sth = math.cos(theta), math.sin(theta)
    dphi = op * cph * cth * cth * _INV_SQRT2 - 0.5 * os_ * sth
    dtheta = 0.5 * os_ * cth * (sph / cph) + op * cth * sth * sph * _INV_SQRT2
    return dphi, dtheta


def costate_rhs(phi: float, theta: float, lphi: float, ltheta: float,
                pulses: PulsePair) -> tuple[float, float]:
    """Adjoint dynamics of (lambda_phi, lambda_theta)."""
    op, os_ = pulses
    cph, sph = math.cos(phi), math.sin(phi)
    _check_phi(cph)
    cth, sth = math.cos(theta), math.sin(theta)
    cth2 = cth * cth
    dlphi = lphi * op * sph * cth2 * _INV_SQRT2 - ltheta * (
        0.5 * os_ * cth / (cph * cph) + op * sth * cth * cph * _INV_SQRT2
    )
    dltheta = lphi * (2.0 * op * cph * sth * cth * _INV_SQRT2 + 0.5 * os_ * cth) + ltheta * (
        0.5 * os_ * sth * (sph / cph) - op * (cth2 - sth * sth) * sph * _INV_SQRT2
    )
    return dlphi, dltheta


def h1h2(phi: float, theta: float, lphi: float, ltheta: float) -> tuple[float, float]:
    """Switching pair: the costate projections along the two control fields."""
    cph, sph = math.cos(phi), math.sin(phi)
    _check_phi(cph)
    cth, sth = math.cos(theta), math.sin(theta)
    h1 = (lphi * cph * cth * cth + ltheta * sth * cth * sph) * _INV_SQRT2
    h2 = 0.5 * (ltheta * cth * (sph / cph) - lphi * sth)
    return h1, h2


def bang_control(phi: float, theta: float, lphi: float, ltheta: float) -> PulsePair:
    """Time-optimal pulses: unit magnitude (Omega_0 = 1), direction along (H1, H2)."""
    h1, h2 = h1h2(phi, theta, lphi, ltheta)
    n2 = h1 * h1 + h2 * h2
    if n2 <= SWITCHING_MIN:
        raise SwitchingDegeneracy("switching vector vanished")
    n = math.sqrt(n2)
    return PulsePair(h1 / n, h2 / n)


def energy_control(phi: float, theta: float, lphi: float, ltheta: float) -> PulsePair:
    """Energy-optimal pulses: the switching pair itself (costate in frequency units)."""
    return PulsePair(*h1h2(phi, theta, lphi, ltheta))


def pulses_from_angle_rates(phi: float, theta: float, dphi: float, dtheta: float) -> PulsePair:
    """Invert the angle velocities back to the driving pulses.

    Post-hoc reconstruction/validation only; undefined where the angle chart
    degenerates (sin(phi) ~ 0 or cos(phi) ~ 0).
    """
    cph, sph = math.cos(phi), math.sin(phi)
    if abs(sph) <= ANGLE_RATE_MIN or abs(cph) <= ANGLE_RATE_MIN:
        raise AngleSingularity("pulse reconstruction singular at sin(phi) ~ 0 or cos(phi) ~ 0")
    cth, sth = math.cos(theta), math.sin(theta)
    omega_s = 2.0 * (dtheta * (cph / sph) * cth - dphi * sth)
    omega_p = _SQRT2 * (dphi / cph + dtheta * (sth / cth) / sph)
    return PulsePair(omega_p, omega_s)


def raman_lock(k1: float, k2: float, k3: float) -> tuple[float, float]:
    """Detunings (pump, Stokes) that absorb the cubic shifts (k1, k2, k3).

    With these choices the one- and two-photon resonances hold at all times
    and the complex dynamics reduces (up to a global phase) to the
    resonance-locked equations of ``lambda3``.
    """
    return 2.0 * k1 - k2, k3 - k2


# ---------------------------------------------------------------------------
# Counterpart two-level problem (isomorphism's reduced couplings).
# ---------------------------------------------------------------------------

def iso_bloch_rhs(rho, p: float, s: float) -> tuple[float, float, float]:
    """Bloch flow of the counterpart problem, a 3-tuple; the coupling p rides on rho_z."""
    rz, ry, rx = rho
    return -p * rz * ry, s * rx + p * rz * rz, -s * ry


# ---------------------------------------------------------------------------
# The energy-optimal closed loop (shooting's shots and target).
# ---------------------------------------------------------------------------

def energy_shot(omega0_min: float, opt: Optimum, cfg: ShotConfig) -> float:
    """Consistency check: run the energy-optimal closed loop to the target.

    The time-optimal initial costates are rescaled so that the (constant)
    pulse magnitude of the energy extremal equals ``omega0_min``, the bound of
    ``bloch2.energy_optimum``; the hit should land at its duration,
    opt.area / omega0_min. The loop is the reference forms ``angle_rhs`` and
    ``costate_rhs`` under ``energy_control``. Returns the hit time.
    """
    def energy_rhs(y: list) -> tuple:
        u = energy_control(*y)
        return angle_rhs(y[0], y[1], u) + costate_rhs(*y, u)

    scale = omega0_min / (abs(opt.lphi_i) / _SQRT2)
    y0 = [0.0, 0.0, scale * opt.lphi_i, scale * opt.ltheta_i]
    hit = ode.locate_event(energy_rhs, y0, (0.0, 1.5 * opt.area / omega0_min), _event(cfg), cfg.tol)
    if hit is None:
        raise NoFeasiblePoint("energy-optimal closed loop missed the target")
    return hit.t
