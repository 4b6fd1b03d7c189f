"""Three-level Raman (Lambda) system with a 1:2 resonance on the pump leg.

With one- and two-photon resonances locked (see :func:`raman_lock`), real
pump/Stokes pulses, and a real initial state, the dynamics closes on three
real amplitudes ``(x1, y2, x3)`` with norm x1^2 + 2(y2^2 + x3^2) = 1, which
we parameterize by two angles::

    x1 = cos(phi) cos(theta)
    y2 = -sin(phi) / sqrt(2)
    x3 = -cos(phi) sin(theta) / sqrt(2)

The transfer of interest starts at (phi, theta) = (0, 0), i.e. everything in
state 1, and targets |x3|^2 = (1 - eps)/2 near state 3.

Time-optimal extremals saturate the bound Omega_p^2 + Omega_s^2 = Omega_0^2
with the mixing angle set by the switching pair (H1, H2); energy-optimal
extremals use (H1, H2) directly as the pulse pair. Both share the same
costate dynamics, implemented here; the closed loop that the solver
integrates, ``_extremal_flow``, is the time-optimal one. Time is in units of
1/Omega_0 with Omega_0 = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "PhiSingularity",
    "SwitchingDegeneracy",
    "AngleSingularity",
    "PulsePair",
    "cartesian_from_angles",
    "angle_rhs",
    "xcoordinate_rhs",
    "costate_rhs",
    "h1h2",
    "bang_control",
    "pulses_from_angle_rates",
    "energy_control",
    "extremal_rhs",
    "extremal_control",
    "extremal_lanes",
    "ansatz_population",
    "raman_lock",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2

#: |cos(phi)| at or below this is treated as the tan(phi) blow-up.
PHI_COS_MIN = 1e-12
#: H1^2 + H2^2 at or below this leaves the bang mixing angle undefined.
SWITCHING_MIN = 1e-24
#: |sin(phi)| or |cos(phi)| floor for pulse reconstruction from angle rates.
ANGLE_RATE_MIN = 1e-12


class PhiSingularity(ArithmeticError):
    """cos(phi) vanished: the angle chart degenerates."""


class SwitchingDegeneracy(ArithmeticError):
    """Switching vector (H1, H2) vanished: bang control undefined."""


class AngleSingularity(ArithmeticError):
    """Pulse reconstruction attempted at sin(phi) ~ 0 or cos(phi) ~ 0."""


class PulsePair(NamedTuple):
    omega_p: float
    omega_s: float


def cartesian_from_angles(phi, theta) -> np.ndarray:
    """Real amplitudes (x1, y2, x3) for the angles (floats or arrays); normalized by construction."""
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    return np.array([cph * cth, -sph / _SQRT2, -cph * sth / _SQRT2])


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


def xcoordinate_rhs(state, pulses: PulsePair) -> tuple[float, float, float]:
    """Time derivative of the real amplitudes (x1, y2, x3), a 3-tuple."""
    x1, y2, x3 = state
    op, os_ = pulses
    return (
        op * x1 * y2,
        -0.5 * os_ * x3 - 0.5 * op * x1 * x1,
        0.5 * os_ * y2,
    )


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


def _extremal_flow(cos, sin, sqrt, checked: bool, control: bool = False):
    """The time-optimal extremal flow, written once and bound to one cos/sin/sqrt."""

    def flow(y):
        """Closed-loop state+costate flow (phi, theta, lambda_phi, lambda_theta).

        Its control is the bang control, the unit vector along (H1, H2); the
        terms are those of angle_rhs/costate_rhs under :func:`bang_control`,
        as the tests check. The flow takes the state's four components,
        Python floats or the rows of a (4, n) block of lanes, and returns
        the slope's four components of the same kind, or with ``control``
        the pair (slope, (Omega_p, Omega_s)). A checked flow raises
        PhiSingularity and SwitchingDegeneracy as those functions do; an
        unchecked one is non-finite there instead.
        """
        phi, theta, lphi, ltheta = y
        cph = cos(phi)
        if checked:
            _check_phi(cph)
        sph = sin(phi)
        cth, sth = cos(theta), sin(theta)
        cth2 = cth * cth
        tph = sph / cph
        h1 = (lphi * cph * cth2 + ltheta * sth * cth * sph) * _INV_SQRT2
        h2 = 0.5 * (ltheta * cth * tph - lphi * sth)
        n2 = h1 * h1 + h2 * h2
        if checked and n2 <= SWITCHING_MIN:
            raise SwitchingDegeneracy("switching vector vanished")
        n = sqrt(n2)
        op = h1 / n
        os_ = h2 / n
        # Products evaluate left to right, so each shared prefix is the
        # value that every term below would compute itself.
        hos = 0.5 * os_
        hos_c, hos_s = hos * cth, hos * sth
        dphi = op * cph * cth2 * _INV_SQRT2 - hos_s
        dtheta = hos_c * tph + op * cth * sth * sph * _INV_SQRT2
        dlphi = lphi * op * sph * cth2 * _INV_SQRT2 - ltheta * (
            hos_c / (cph * cph) + op * sth * cth * cph * _INV_SQRT2
        )
        dltheta = lphi * (2.0 * op * cph * sth * cth * _INV_SQRT2 + hos_c) + ltheta * (
            hos_s * tph - op * (cth2 - sth * sth) * sph * _INV_SQRT2
        )
        slope = dphi, dtheta, dlphi, dltheta
        return (slope, (op, os_)) if control else slope

    return flow


#: One state, checked: ``y`` is a list of four floats, as the integrator
#: passes it; the slope holds Python floats from ``math``.
extremal_rhs = _extremal_flow(math.cos, math.sin, math.sqrt, checked=True)
#: The same, returning ``(slope, (Omega_p, Omega_s))``: ``extremal_rhs``'s
#: slope bit for bit, and the control it applied, for the oracles and exports.
extremal_control = _extremal_flow(math.cos, math.sin, math.sqrt, checked=True, control=True)
#: Lanes, unchecked: ``y`` is a (4, n) block with one lane per column, and
#: the slope is four rows of n; ``ode`` packs them into one block.
extremal_lanes = _extremal_flow(np.cos, np.sin, np.sqrt, checked=False)


def ansatz_population(t):
    """tanh^2 approximation of the transferred population y2^2 + x3^2."""
    return 0.5 * np.tanh(np.asarray(t) * _INV_SQRT2) ** 2


def raman_lock(k1: float, k2: float, k3: float) -> tuple[float, float]:
    """Detunings (pump, Stokes) that absorb the cubic shifts (k1, k2, k3).

    With these choices the one- and two-photon resonances hold at all times
    and the complex dynamics reduces (up to a global phase) to the
    resonance-locked equations used in this module.
    """
    return 2.0 * k1 - k2, k3 - k2
