"""Two-level system with a 1:2 resonance: dynamics and optimal-control closed forms.

State conventions (hbar = 1, frequencies in units of Omega_0):

* amplitudes ``psi = (psi1, psi2)`` with norm |psi1|^2 + 2|psi2|^2 = 1;
* generalized Bloch coordinates ``eta = (eta1, eta2, eta3)`` living on the
  surface eta1^2 + eta2^2 = (1/2 - eta3)^2 (1/2 + eta3), south pole
  eta3 = -1/2 (all population in state 1), north pole eta3 = +1/2
  (complete conversion, an unreachable hyperbolic point).

Third-order (Kerr) frequency shifts enter only through the effective
detuning; choosing the locked detuning schedule removes them exactly, so the
resonant dynamics, the tanh^2 population law, and the minimum-area/minimum-
energy formulas below hold for any Kerr parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode

__all__ = [
    "DomainError",
    "KerrParams",
    "bloch_from_amplitudes",
    "populations_from_eta3",
    "surface_residual",
    "effective_detuning",
    "lock_detuning",
    "bloch_rhs",
    "amplitude_rhs",
    "costate_rhs",
    "switching_function",
    "control_hamiltonian",
    "analytic_eta3",
    "min_area",
    "transfer_probability",
    "linear_probability",
    "asymptotic_epsilon",
    "asymptotic_area",
    "energy_optimum",
    "resonant_trajectory",
]

_SQRT2 = math.sqrt(2.0)

#: Inputs closer than this to the unreachable north pole are rejected.
NORTH_POLE_GUARD = 1e-15


class DomainError(ValueError):
    """Requested transfer touches the unreachable north pole exactly."""


@dataclass(frozen=True)
class KerrParams:
    """Third-order nonlinear shifts (angular frequency, Omega_0 units).

    The cross term is symmetric, so a single ``l12`` field covers both
    off-diagonal entries. ``lambda_s`` scales the intensity-dependent part
    of the effective detuning and ``lambda_a`` its static part. The fields
    are Python floats, so the rhs runs on float arithmetic; they and the
    shifts lambda_s, lambda_a and lambda_a - lambda_s must be finite.
    """

    l11: float = 0.0
    l12: float = 0.0
    l22: float = 0.0

    def __post_init__(self) -> None:
        for name in ("l11", "l12", "l22"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"Kerr parameter {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.lambda_a - self.lambda_s):  # not finite unless both shifts are
            raise ValueError(f"Kerr parameters (l11, l12, l22) = {(self.l11, self.l12, self.l22)!r} give a non-finite shift")

    @property
    def lambda_s(self) -> float:
        return 2.0 * self.l11 + 0.5 * self.l22 - 2.0 * self.l12

    @property
    def lambda_a(self) -> float:
        return 2.0 * self.l11 - self.l12


ZERO_KERR = KerrParams()


def bloch_from_amplitudes(psi1: complex, psi2: complex) -> np.ndarray:
    """Map normalized amplitudes to (eta1, eta2, eta3)."""
    c = psi1 * psi1 * np.conj(psi2)
    return np.array([
        _SQRT2 * c.real,
        _SQRT2 * c.imag,
        abs(psi2) ** 2 - 0.5 * abs(psi1) ** 2,
    ])


def populations_from_eta3(eta3):
    """Return (|psi1|^2, 2|psi2|^2) from the inversion."""
    eta3 = np.asarray(eta3)
    return 0.5 * (1.0 - 2.0 * eta3), 0.5 * (1.0 + 2.0 * eta3)


def surface_residual(eta) -> float:
    """Deviation from the generalized Bloch sphere; zero on the surface."""
    e1, e2, e3 = eta
    return e1 * e1 + e2 * e2 - (0.5 - e3) ** 2 * (0.5 + e3)


def effective_detuning(delta: float, eta3: float, kerr: KerrParams = ZERO_KERR) -> float:
    """Detuning seen by the Bloch dynamics once Kerr shifts are folded in."""
    return -delta + kerr.lambda_a - kerr.lambda_s * (0.5 + eta3)


def lock_detuning(eta3, kerr: KerrParams = ZERO_KERR):
    """Detuning schedule (eta3 a float or an array) cancelling the effective detuning at all times."""
    return kerr.lambda_a - kerr.lambda_s * (0.5 + eta3)


def bloch_rhs(eta, omega: float, delta_eff: float) -> tuple[float, float, float]:
    """Time derivative of the Bloch coordinates, a 3-tuple computed on the
    components of ``eta``; preserves the surface."""
    e1, e2, e3 = eta
    return delta_eff * e2, 0.5 * omega * (3.0 * e3 * e3 - e3 - 0.25) - delta_eff * e1, omega * e2


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


def costate_rhs(lam: np.ndarray, eta: np.ndarray, omega: float, delta_eff: float,
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


def _check_inversion(eta3: float) -> None:
    if not -0.5 <= eta3 <= 0.5:
        raise DomainError(f"inversion {eta3!r} outside [-1/2, 1/2]")
    if eta3 > 0.5 - NORTH_POLE_GUARD:
        raise DomainError("north pole is unreachable: requested inversion too close to +1/2")


def min_area(eta3_i: float, eta3_f: float) -> float:
    """Minimum pulse area (radians) to move the inversion between two values.

    The optimum runs along the eta1 = 0 meridian at constant resonant pulse,
    so the area depends only on the endpoints. With Omega_0 = 1 it is also
    the quantum-speed-limit transfer time.
    """
    _check_inversion(eta3_i)
    _check_inversion(eta3_f)
    return 2.0 * abs(math.atanh(math.sqrt(0.5 + eta3_f)) - math.atanh(math.sqrt(0.5 + eta3_i)))


def transfer_probability(area):
    """Final transfer probability 2|psi2|^2 after an optimal pulse of given area."""
    return np.tanh(0.5 * np.asarray(area)) ** 2


def linear_probability(area):
    """Same quantity for the linear two-level system (Rabi oscillation)."""
    return np.sin(0.5 * np.asarray(area)) ** 2


def asymptotic_epsilon(area):
    """Leading-order deviation from complete transfer for large pulse area."""
    return 4.0 * np.exp(-np.asarray(area))


def asymptotic_area(eps):
    """Inverse of :func:`asymptotic_epsilon`."""
    return -np.log(np.asarray(eps) / 4.0)


def energy_optimum(duration: float, area: float) -> tuple[float, float]:
    """Minimum peak amplitude and pulse energy for a transfer in fixed time.

    The bound of both systems: their energy-optimal pulse is the time-optimal
    one stretched to ``duration``, so a transfer of minimum area ``area``
    needs omega0_min = area / duration and the energy area^2 / duration
    (hbar = 1). The duration must be positive and finite, the area
    non-negative and finite, and both results must come out finite.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    if not 0.0 <= area < math.inf:
        raise ValueError(f"area must be non-negative and finite, got {area!r}")
    omega0_min = area / duration
    energy = area * omega0_min
    if not (math.isfinite(omega0_min) and math.isfinite(energy)):
        raise ValueError(f"duration {duration!r} too short: the amplitude or the energy overflows")
    return omega0_min, energy


def resonant_trajectory(eta3_f: float, tol: float = ode.TOL) -> ode.Trajectory:
    """Integrate the optimal (resonant, unit-pulse) flow from the south pole.

    Runs until the minimum time, the minimum area, for the requested final
    inversion, at the local-error tolerance ``tol``.
    """
    t_end = min_area(-0.5, eta3_f)
    rhs = lambda eta: bloch_rhs(eta, 1.0, 0.0)
    return ode.integrate(rhs, np.array([0.0, 0.0, -0.5]), (0.0, t_end), tol)
