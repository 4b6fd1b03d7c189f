"""Three-level Raman (Lambda) system with a 1:2 resonance on the pump leg.

With one- and two-photon resonances locked (the pump and Stokes detunings
2 k1 - k2 and k3 - k2 absorb the cubic shifts k1, k2, k3), real pump/Stokes
pulses, and a real initial state, the dynamics closes on three real
amplitudes ``(x1, y2, x3)`` with norm x1^2 + 2(y2^2 + x3^2) = 1, which we
parameterize by two angles::

    x1 = cos(phi) cos(theta)
    y2 = -sin(phi) / sqrt(2)
    x3 = -cos(phi) sin(theta) / sqrt(2)

The transfer of interest starts at (phi, theta) = (0, 0), i.e. everything in
state 1, and targets |x3|^2 = (1 - eps)/2 near state 3.

Time-optimal extremals saturate the bound Omega_p^2 + Omega_s^2 = Omega_0^2
with the mixing angle set by the switching pair (H1, H2); energy-optimal
extremals use (H1, H2) directly as the pulse pair. Both share the same
costate dynamics. The closed loop that the solver integrates,
``_extremal_flow``, is the time-optimal one; the component forms of the
angle and costate equations and of both control laws are the tests'
reference (``tests/reference.py``). Time is in units of 1/Omega_0 with
Omega_0 = 1.
"""

from __future__ import annotations

import math

from ._lazy import np

__all__ = [
    "PhiSingularity",
    "SwitchingDegeneracy",
    "cartesian_from_angles",
    "xcoordinate_rhs",
    "extremal_rhs",
    "extremal_control",
    "extremal_lanes",
    "ansatz_population",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2

#: |cos(phi)| at or below this is treated as the tan(phi) blow-up.
PHI_COS_MIN = 1e-12
#: H1^2 + H2^2 at or below this leaves the bang mixing angle undefined.
SWITCHING_MIN = 1e-24


class PhiSingularity(ArithmeticError):
    """cos(phi) vanished: the angle chart degenerates."""


class SwitchingDegeneracy(ArithmeticError):
    """Switching vector (H1, H2) vanished: bang control undefined."""


def cartesian_from_angles(phi, theta) -> np.ndarray:
    """Real amplitudes (x1, y2, x3) for the angles (floats or arrays); normalized by construction."""
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    return np.array([cph * cth, -sph / _SQRT2, -cph * sth / _SQRT2])


def xcoordinate_rhs(state, pulses: tuple[float, float]) -> tuple[float, float, float]:
    """Time derivative of the real amplitudes (x1, y2, x3), a 3-tuple."""
    x1, y2, x3 = state
    op, os_ = pulses
    return (
        op * x1 * y2,
        -0.5 * os_ * x3 - 0.5 * op * x1 * x1,
        0.5 * os_ * y2,
    )


def _extremal_flow(cos, sin, sqrt, checked: bool, control: bool = False):
    """The time-optimal extremal flow, written once and bound to one cos/sin/sqrt."""
    n2_min = 4.0 * SWITCHING_MIN  # the bound on n2 = 4 (H1^2 + H2^2) below

    def flow(y):
        """Closed-loop state+costate flow (phi, theta, lambda_phi, lambda_theta).

        Its control is the bang control, the unit vector along (H1, H2); the
        terms are those of the reference forms angle_rhs and costate_rhs
        under bang_control (``tests/reference.py``), as the tests check.
        The flow takes the state's four components, Python floats or the
        rows of a (4, n) block of lanes, and returns the slope's four
        components of the same kind, or with ``control`` the pair (slope,
        (Omega_p, Omega_s)). A checked flow raises PhiSingularity and
        SwitchingDegeneracy as those forms do; an unchecked one raises
        nothing: its slope is NaN where the switching pair vanishes and,
        near cos(phi) = 0, of order 1/cos(phi)^2.
        """
        phi, theta, lphi, ltheta = y
        cph = cos(phi)
        if checked and abs(cph) <= PHI_COS_MIN:
            raise PhiSingularity("cos(phi) ~ 0: angle dynamics singular")
        sph = sin(phi)
        cth, sth = cos(theta), sin(theta)
        cth2, csth = cth * cth, cth * sth
        tph = sph / cph
        # The switching pair unscaled, g1 = sqrt(2) H1 and g2 = 2 H2, so that
        # n2 = 2 g1^2 + g2^2 = 4 (H1^2 + H2^2) and the slope needs only
        # a = g1 / sqrt(n2) = Omega_p / sqrt(2) and b = g2 / (2 sqrt(n2)) =
        # Omega_s / 2: every constant factor of the reference forms is folded
        # into these two.
        g1 = lphi * cph * cth2 + ltheta * csth * sph
        g2 = ltheta * cth * tph - lphi * sth
        n2 = 2.0 * g1 * g1 + g2 * g2
        if checked and n2 <= n2_min:
            raise SwitchingDegeneracy("switching vector vanished")
        n = sqrt(n2)
        r = 1.0 / n
        a, b = g1 * r, 0.5 * g2 * r
        # a and b enter the slope only through a cos(phi), a sin(phi),
        # b cos(theta) and b sin(theta), and dlphi and dltheta share
        # a cos(phi) cos(theta) sin(theta): each is formed once here, not once
        # per term, so an evaluation on lanes is 52 numpy calls. The grouping
        # moves the slope from the reference forms' by rounding alone, as the
        # tests check.
        ac, as_, bc, bs = a * cph, a * sph, b * cth, b * sth
        acs = ac * csth
        dphi = ac * cth2 - bs
        dtheta = bc * tph + as_ * csth
        dlphi = lphi * (as_ * cth2) - ltheta * (bc / (cph * cph) + acs)
        dltheta = lphi * (2.0 * acs + bc) + ltheta * (bs * tph - as_ * (cth2 - sth * sth))
        slope = dphi, dtheta, dlphi, dltheta
        return (slope, (_SQRT2 * g1 / n, g2 / n)) if control else slope

    return flow


#: One state, checked: ``y`` is a list of four floats, as the integrator
#: passes it; the slope holds Python floats from ``math``.
extremal_rhs = _extremal_flow(math.cos, math.sin, math.sqrt, checked=True)
#: The same, returning ``(slope, (Omega_p, Omega_s))``: ``extremal_rhs``'s
#: slope bit for bit, and the control it applied, for the oracles and exports.
extremal_control = _extremal_flow(math.cos, math.sin, math.sqrt, checked=True, control=True)


def __getattr__(name: str):
    # ``extremal_lanes`` -- lanes, unchecked: ``y`` is a (4, n) block with one
    # lane per column, and the slope is four rows of n; ``ode`` packs them
    # into one block. It is bound to numpy's cos, sin and sqrt, so it is
    # built, and numpy executed, at its first read, and kept as a module
    # attribute: one object from then on.
    if name == "extremal_lanes":
        flow = globals()[name] = _extremal_flow(np.cos, np.sin, np.sqrt, checked=False)
        return flow
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ansatz_population(t):
    """tanh^2 approximation of the transferred population y2^2 + x3^2."""
    return 0.5 * np.tanh(np.asarray(t) * _INV_SQRT2) ** 2
