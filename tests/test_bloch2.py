import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qsl12 import bloch2, ode

import reference

SQ2 = math.sqrt(2.0)


def min_area_quadrature(eta3_i: float, eta3_f: float) -> float:
    """Minimum area by adaptive quadrature of the inversion rate, the
    independent oracle of ``bloch2.min_area``: the integral of
    d(eta3) / ((1/2 - eta3) sqrt(1/2 + eta3)) between the endpoints, taken
    from the lower to the higher so that the area is non-negative."""

    def integrand(e3: float) -> float:
        return 1.0 / ((0.5 - e3) * math.sqrt(0.5 + e3))

    lo, hi = min(eta3_i, eta3_f), max(eta3_i, eta3_f)
    value, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-11, epsrel=1e-11)
    return value


class TestBlochCoordinates:
    def test_south_pole(self):
        assert np.allclose(reference.bloch_from_amplitudes(1.0, 0.0), [0.0, 0.0, -0.5])

    def test_north_pole(self):
        assert np.allclose(reference.bloch_from_amplitudes(0.0, 1.0 / SQ2), [0.0, 0.0, 0.5])

    def test_equator_point(self):
        eta = reference.bloch_from_amplitudes(1.0 / SQ2, 0.5)
        assert np.allclose(eta, [SQ2 / 4.0, 0.0, 0.0])

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_amplitudes_land_on_surface(self, p1, a1, a2):
        psi1 = math.sqrt(p1) * np.exp(1j * a1)
        psi2 = math.sqrt((1.0 - p1) / 2.0) * np.exp(1j * a2)
        eta = reference.bloch_from_amplitudes(psi1, psi2)
        assert abs(reference.surface_residual(eta)) < 1e-12

    def test_populations_from_eta3(self):
        p1, p2 = bloch2.populations_from_eta3(np.array([-0.5, 0.0, 0.5]))
        assert np.allclose(p1, [1.0, 0.5, 0.0])
        assert np.allclose(p2, [0.0, 0.5, 1.0])


class TestDetunings:
    def test_kerr_combinations(self):
        k = bloch2.KerrParams(0.3, -0.2, 0.4)
        assert k.lambda_s == pytest.approx(0.6 + 0.2 + 0.4)
        assert k.lambda_a == pytest.approx(0.8)

    def test_kerr_params_are_read_only(self):
        k = bloch2.KerrParams(0.3, -0.2, 0.4)
        for name in ("l11", "l12", "l22"):
            with pytest.raises(AttributeError):
                setattr(k, name, 0.0)
        assert k == bloch2.KerrParams(0.3, -0.2, 0.4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_kerr_params_must_be_finite(self, bad):
        for fields in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError):
                bloch2.KerrParams(*fields)

    @pytest.mark.parametrize("fields", [(1e308, 0.0, 0.0), (0.0, 1e308, 0.0), (0.0, -1.7e308, 0.0),
                                        (1e308, 0.0, -1e308)])
    def test_kerr_shifts_must_be_finite(self, fields):
        # finite fields whose shifts overflow: the lock detuning would be
        # nan or infinite
        with pytest.raises(ValueError, match=r"Kerr parameters \(l11, l12, l22\)"):
            bloch2.KerrParams(*fields)

    @pytest.mark.parametrize("fields", [dict(l11=math.inf), dict(l12=math.nan), dict(l11=1e308, l22=-1e308)])
    def test_replace_and_make_check_as_the_constructor(self, fields):
        # _replace builds through _make, and both through __new__: the
        # fields are floats and a non-finite field or shift is rejected
        k = bloch2.KerrParams()._replace(l12=2)
        assert k == bloch2.KerrParams(0.0, 2.0, 0.0) and type(k.l12) is float
        assert bloch2.KerrParams._make([1, 2, 3]) == bloch2.KerrParams(1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            bloch2.KerrParams()._replace(**fields)
        with pytest.raises(ValueError):
            bloch2.KerrParams._make(({"l11": 0.0, "l12": 0.0, "l22": 0.0} | fields).values())

    def test_effective_detuning_trivial(self):
        assert reference.effective_detuning(0.0, 0.3) == 0.0
        k = bloch2.KerrParams(1.0, 2.0, -3.0)
        assert reference.effective_detuning(0.0, -0.5, k) == pytest.approx(k.lambda_a)

    def test_effective_detuning_hand_value(self):
        k = bloch2.KerrParams(1.0, 0.0, 0.0)  # lambda_s = 2, lambda_a = 2
        assert reference.effective_detuning(1.0, 0.0, k) == pytest.approx(0.0)

    def test_lock_detuning(self):
        assert bloch2.lock_detuning(0.37) == 0.0
        k = bloch2.KerrParams(1.0, 2.0, -3.0)
        assert bloch2.lock_detuning(-0.5, k) == pytest.approx(k.lambda_a)
        k = bloch2.KerrParams(0.3, -0.2, 0.4)
        assert bloch2.lock_detuning(0.1, k) == pytest.approx(0.08)

    @given(st.floats(-0.5, 0.4999), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_lock_cancels_effective_detuning(self, eta3, l11, l12, l22):
        k = bloch2.KerrParams(l11, l12, l22)
        assert reference.effective_detuning(float(bloch2.lock_detuning(eta3, k)), eta3, k) == pytest.approx(0.0, abs=1e-12)


class TestRhs:
    def test_south_pole_rate(self):
        d = bloch2.bloch_rhs(np.array([0.0, 0.0, -0.5]), 1.0, 0.0)
        assert np.allclose(d, [0.0, 0.5, 0.0])

    def test_north_pole_is_fixed_point(self):
        d = bloch2.bloch_rhs(np.array([0.0, 0.0, 0.5]), 2.7, 0.0)
        assert np.allclose(d, 0.0)

    def test_zero_coherences_zero_field(self):
        d = bloch2.bloch_rhs(np.array([0.0, 0.0, -0.5]), 0.0, 5.0)
        assert np.allclose(d, 0.0)

    def test_amplitude_rhs_trivial(self):
        d = reference.amplitude_rhs(np.array([1.0 + 0j, 0.0j]), 0.0, 0.0)
        assert np.allclose(d, 0.0)

    def test_amplitude_rhs_coupling(self):
        d = reference.amplitude_rhs(np.array([1.0 + 0j, 0.0j]), 1.0, 0.0)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(-1j / (2.0 * SQ2))

    def test_surface_conserved_along_flow(self):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.7)
        traj = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 20.0))
        residuals = [abs(reference.surface_residual(eta)) for eta in traj.states]
        assert max(residuals) <= 1e-8

    def test_norm_conserved_along_amplitude_flow(self):
        k = bloch2.KerrParams(0.8, -0.4, 1.1)
        rhs = lambda psi: reference.amplitude_rhs(psi, 1.0, 0.5, k)
        traj = ode.integrate(rhs, np.array([1.0 + 0j, 0.0j]), (0.0, 20.0))
        norms = np.abs(traj.states[:, 0]) ** 2 + 2.0 * np.abs(traj.states[:, 1]) ** 2
        assert np.max(np.abs(norms - 1.0)) <= 1e-9


class TestClosedForms:
    def test_analytic_eta3_boundaries(self):
        assert reference.analytic_eta3(0.0) == pytest.approx(-0.5)
        assert reference.analytic_eta3(30.0) < 0.5  # asymptote, not attained
        assert reference.analytic_eta3(7.5999) == pytest.approx(0.498, abs=1e-6)

    def test_ode_matches_analytic(self):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        traj = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 10.0))
        dev = np.abs(traj.states[:, 2] - reference.analytic_eta3(traj.times))
        assert np.max(dev) <= 1e-8

    def test_optimal_flow_stays_on_meridian(self):
        traj = bloch2.resonant_trajectory(0.498)
        assert np.max(np.abs(traj.states[:, 0])) <= 1e-9

    def test_min_area_values(self):
        assert bloch2.min_area(-0.5, -0.5) == 0.0
        assert bloch2.min_area(-0.5, 0.498) == pytest.approx(7.5999, abs=1e-3)
        assert bloch2.min_area(-0.5, 0.0) == pytest.approx(2.0 * math.atanh(math.sqrt(0.5)), abs=1e-12)

    def test_min_area_domain_errors(self):
        with pytest.raises(bloch2.DomainError):
            bloch2.min_area(-0.5, 0.5)
        with pytest.raises(bloch2.DomainError):
            bloch2.min_area(0.5, -0.5)
        with pytest.raises(bloch2.DomainError):
            bloch2.min_area(-0.6, 0.0)

    @pytest.mark.parametrize("pair", [(-0.5, 0.498), (-0.5, 0.0), (-0.3, 0.2), (0.1, -0.4), (-0.5, 0.4999)])
    def test_min_area_against_quadrature(self, pair):
        assert bloch2.min_area(*pair) == pytest.approx(min_area_quadrature(*pair), abs=1e-8)

    @given(st.floats(-0.5, 0.4999))
    @settings(max_examples=200)
    def test_area_inverts_population_law(self, eta3_f):
        area = bloch2.min_area(-0.5, eta3_f)
        assert float(reference.analytic_eta3(area)) == pytest.approx(eta3_f, abs=1e-10)

    def test_probabilities(self):
        assert bloch2.transfer_probability(0.0) == 0.0
        assert bloch2.linear_probability(0.0) == 0.0
        assert bloch2.linear_probability(math.pi) == pytest.approx(1.0)
        assert bloch2.transfer_probability(7.5999) == pytest.approx(0.998, abs=1e-6)

    def test_asymptotics(self):
        assert bloch2.asymptotic_epsilon(math.log(4.0)) == pytest.approx(1.0)
        assert bloch2.asymptotic_epsilon(7.60) == pytest.approx(2.0e-3, rel=2e-2)
        # exact inverse of the asymptote ...
        assert reference.asymptotic_area(1e-4) == pytest.approx(10.596634733096073, abs=1e-9)
        # ... close to the exact area at small deviation
        assert abs(reference.asymptotic_area(1e-4) - bloch2.min_area(-0.5, 0.5 - 1e-4)) < 1e-4

    def test_energy_optimum(self):
        assert bloch2.energy_optimum(3.0, bloch2.min_area(0.1, 0.1)) == (0.0, 0.0)
        area = bloch2.min_area(-0.5, 0.498)
        omega_min, e_min = bloch2.energy_optimum(10.0, area)
        assert omega_min == pytest.approx(area / 10.0)
        assert e_min == pytest.approx(area * area / 10.0)
        assert omega_min == pytest.approx(0.75999, abs=1e-4)
        assert e_min == pytest.approx(5.7758, abs=1e-3)

    def test_energy_optimum_scaling(self):
        area = bloch2.min_area(-0.5, 0.3)
        o1, e1 = bloch2.energy_optimum(5.0, area)
        o2, e2 = bloch2.energy_optimum(10.0, area)
        assert o2 == pytest.approx(0.5 * o1)
        assert e2 == pytest.approx(0.5 * e1)
        for duration in (0.0, math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError):
                bloch2.energy_optimum(duration, area)
        for bad_area in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="area"):
                bloch2.energy_optimum(5.0, bad_area)


class TestKerrLock:
    def _locked_inversion_deviation(self, kerr: bloch2.KerrParams, t_end: float = 7.6) -> float:
        def rhs(psi):
            eta3 = abs(psi[1]) ** 2 - 0.5 * abs(psi[0]) ** 2
            delta = float(bloch2.lock_detuning(eta3, kerr))
            return reference.amplitude_rhs(psi, 1.0, delta, kerr)

        traj = ode.integrate(rhs, np.array([1.0 + 0j, 0.0j]), (0.0, t_end))
        eta3 = np.abs(traj.states[:, 1]) ** 2 - 0.5 * np.abs(traj.states[:, 0]) ** 2
        return float(np.max(np.abs(eta3 - reference.analytic_eta3(traj.times))))

    def test_lock_reproduces_bare_dynamics(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            kerr = bloch2.KerrParams(*rng.uniform(-5.0, 5.0, size=3))
            assert self._locked_inversion_deviation(kerr) <= 1e-6

    def test_unlocked_dynamics_differs(self):
        # negative control: a constant detuning does not cancel strong shifts
        kerr = bloch2.KerrParams(3.0, -2.0, 4.0)

        def rhs(psi):
            return reference.amplitude_rhs(psi, 1.0, 0.0, kerr)

        traj = ode.integrate(rhs, np.array([1.0 + 0j, 0.0j]), (0.0, 7.6))
        eta3 = np.abs(traj.states[:, 1]) ** 2 - 0.5 * np.abs(traj.states[:, 0]) ** 2
        assert np.max(np.abs(eta3 - reference.analytic_eta3(traj.times))) > 1e-2


class TestCostate:
    def test_reconstructed_costate_keeps_control_constant(self):
        # joint state+costate flow on resonance starting from the south pole
        # with l2 = 2/omega0: the renormalized control Hamiltonian stays 1
        # and the amplitude reconstructed from the costate stays omega0
        omega0 = 1.0

        def rhs(y):
            eta, lam = y[:3], y[3:]
            return np.concatenate([
                bloch2.bloch_rhs(eta, omega0, 0.0),
                reference.bloch_costate_rhs(lam, eta, omega0, 0.0),
            ])

        y0 = np.array([0.0, 0.0, -0.5, 0.0, 2.0 / omega0, 0.0])
        traj = ode.integrate(rhs, y0, (0.0, bloch2.min_area(-0.5, 0.498)))
        for y in traj.states:
            eta, lam = y[:3], y[3:]
            assert abs(reference.switching_function(lam, eta)) <= 1e-15
            hc = reference.control_hamiltonian(lam, eta, omega0, 0.0)
            assert hc == pytest.approx(1.0, abs=1e-6)
            theta_factor = 3.0 * eta[2] ** 2 - eta[2] - 0.25
            omega_rec = 2.0 / (lam[1] * theta_factor + 2.0 * lam[2] * eta[1])
            assert omega_rec == pytest.approx(omega0, abs=1e-6)
