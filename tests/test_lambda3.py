import cmath
import math

import numpy as np
import pytest

from qsl12 import lambda3, ode
from qsl12.lambda3 import PulsePair

SQ2 = math.sqrt(2.0)
RNG = np.random.default_rng(42)


def random_angles(n, phi_max=1.2, theta_max=1.4):
    # stay clear of the tan(phi) singularity and of sin(phi) ~ 0 where needed
    phi = RNG.uniform(0.15, phi_max, n)
    theta = RNG.uniform(0.1, theta_max, n)
    return np.column_stack([phi, theta])


def cartesian_complex(phi, theta):
    # complex-overloaded copy of the coordinate map, for complex-step
    # differentiation in the chain-rule oracle
    return (
        cmath.cos(phi) * cmath.cos(theta),
        -cmath.sin(phi) / SQ2,
        -cmath.cos(phi) * cmath.sin(theta) / SQ2,
    )


class TestCoordinateMaps:
    def test_initial_point(self):
        assert np.allclose(lambda3.cartesian_from_angles(0.0, 0.0), [1.0, 0.0, 0.0])

    def test_complete_transfer_point(self):
        s = lambda3.cartesian_from_angles(0.0, math.pi / 2.0)
        assert np.allclose(s, [0.0, 0.0, -1.0 / SQ2], atol=1e-15)
        assert s[2] ** 2 == pytest.approx(0.5)

    def test_diagonal_point(self):
        s = lambda3.cartesian_from_angles(math.pi / 4.0, math.pi / 4.0)
        assert np.allclose(s, [0.5, -0.5, -0.35355339059327373])

    def test_normalization_identity(self):
        for phi, theta in random_angles(50):
            x1, y2, x3 = lambda3.cartesian_from_angles(phi, theta)
            assert x1 * x1 + 2.0 * (y2 * y2 + x3 * x3) == pytest.approx(1.0, abs=1e-14)


class TestAngleRhs:
    def test_pump_only_start(self):
        dphi, dtheta = lambda3.angle_rhs(0.0, 0.0, PulsePair(1.0, 0.0))
        assert dphi == pytest.approx(1.0 / SQ2)
        assert dtheta == 0.0

    def test_stokes_only_start_is_stationary(self):
        assert lambda3.angle_rhs(0.0, 0.0, PulsePair(0.0, 1.0)) == (0.0, 0.0)

    def test_phi_singularity(self):
        with pytest.raises(lambda3.PhiSingularity):
            lambda3.angle_rhs(math.pi / 2.0, 0.3, PulsePair(1.0, 0.0))

    def test_chain_rule_against_cartesian_rhs(self):
        # d/dt of the coordinate map along the angle flow must equal the
        # Cartesian flow; complex-step differentiation gives the exact
        # directional derivative of the map
        h = 1e-30
        for phi, theta in random_angles(100):
            u = PulsePair(*RNG.uniform(-2.0, 2.0, 2))
            dphi, dtheta = lambda3.angle_rhs(phi, theta, u)
            via_map = np.array([
                z.imag / h for z in cartesian_complex(phi + 1j * h * dphi, theta + 1j * h * dtheta)
            ])
            direct = lambda3.xcoordinate_rhs(lambda3.cartesian_from_angles(phi, theta), u)
            assert np.allclose(via_map, direct, atol=1e-12)


class TestCartesianRhs:
    def test_initial_state_pump(self):
        for state in (np.array([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0]):
            d = lambda3.xcoordinate_rhs(state, PulsePair(1.0, 0.0))
            assert np.allclose(d, [0.0, -0.5, 0.0])
        # on a list of floats the slope is a tuple of floats
        assert type(d) is tuple and all(type(v) is float for v in d)

    def test_target_state_rates(self):
        for sign in (+1.0, -1.0):
            d = lambda3.xcoordinate_rhs(np.array([0.0, 0.0, sign / SQ2]), PulsePair(0.3, 1.0))
            assert d[0] == 0.0 and d[2] == 0.0
            assert d[1] == pytest.approx(-sign / (2.0 * SQ2))

    def test_zero_field(self):
        d = lambda3.xcoordinate_rhs(np.array([0.3, -0.4, 0.5]), PulsePair(0.0, 0.0))
        assert np.allclose(d, 0.0)

    def test_norm_conserved_along_flow(self):
        def pulses(t):
            return PulsePair(0.9 * math.sin(1.3 * t) + 0.8, 1.1 * math.cos(0.7 * t) ** 2)

        rhs = lambda t, s: lambda3.xcoordinate_rhs(s, pulses(t))
        traj = ode.integrate(rhs, [1.0, 0.0, 0.0], (0.0, 20.0))
        norms = traj.states[:, 0] ** 2 + 2.0 * (traj.states[:, 1] ** 2 + traj.states[:, 2] ** 2)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_angle_and_cartesian_trajectories_agree(self):
        def pulses(t):
            return PulsePair(1.0 + 0.5 * math.sin(t), 0.8 + 0.3 * math.cos(2.0 * t))

        rhs_angles = lambda t, a: np.array(lambda3.angle_rhs(a[0], a[1], pulses(t)))
        rhs_cart = lambda t, s: lambda3.xcoordinate_rhs(s, pulses(t))
        # start just off the origin so the angle flow begins in-chart
        a0 = (0.0, 0.0)
        span = (0.0, 6.0)
        traj_a = ode.integrate(rhs_angles, a0, span)
        traj_c = ode.integrate(rhs_cart, lambda3.cartesian_from_angles(*a0), span)
        mapped = np.array([lambda3.cartesian_from_angles(*a) for a in traj_a.states])
        assert np.allclose(mapped[-1], traj_c.final_state, atol=1e-8)


class TestCostateRhs:
    def test_pump_only_start_is_stationary(self):
        assert lambda3.costate_rhs(0.0, 0.0, 1.3, -0.7, PulsePair(2.0, 0.0)) == (0.0, 0.0)

    def test_zero_field(self):
        assert lambda3.costate_rhs(0.4, 0.9, 1.3, -0.7, PulsePair(0.0, 0.0)) == (0.0, 0.0)

    def test_gradient_oracle(self):
        # the costate equations are minus the state-gradient of the control
        # Hamiltonian  lphi * dphi + ltheta * dtheta; verify by central
        # finite differences at random points
        def hc(phi, theta, lphi, ltheta, u):
            dphi, dtheta = lambda3.angle_rhs(phi, theta, u)
            return lphi * dphi + ltheta * dtheta

        step = 1e-6
        for phi, theta in random_angles(100):
            lphi, ltheta = RNG.uniform(-2.0, 2.0, 2)
            u = PulsePair(*RNG.uniform(-2.0, 2.0, 2))
            dlphi, dltheta = lambda3.costate_rhs(phi, theta, lphi, ltheta, u)
            grad_phi = (hc(phi + step, theta, lphi, ltheta, u) - hc(phi - step, theta, lphi, ltheta, u)) / (2 * step)
            grad_theta = (hc(phi, theta + step, lphi, ltheta, u) - hc(phi, theta - step, lphi, ltheta, u)) / (2 * step)
            assert dlphi == pytest.approx(-grad_phi, abs=1e-6)
            assert dltheta == pytest.approx(-grad_theta, abs=1e-6)


class TestControls:
    def test_switching_pair_at_start(self):
        h1, h2 = lambda3.h1h2(0.0, 0.0, 1.7, 0.4)
        assert h1 == pytest.approx(1.7 / SQ2)
        assert h2 == 0.0

    def test_switching_pair_zero_costate(self):
        assert lambda3.h1h2(0.5, 0.7, 0.0, 0.0) == (0.0, 0.0)

    def test_switching_pair_diagonal(self):
        h1, h2 = lambda3.h1h2(math.pi / 4, math.pi / 4, 1.0, 1.0)
        assert h1 == pytest.approx(0.5)
        assert h2 == pytest.approx(0.0, abs=1e-15)

    def test_bang_control_start_is_pump_only(self):
        assert lambda3.bang_control(0.0, 0.0, 0.8, 0.3, 2.0) == pytest.approx((2.0, 0.0))

    def test_bang_control_magnitude_and_parity(self):
        for phi, theta in random_angles(30):
            lphi, ltheta = RNG.uniform(-2.0, 2.0, 2)
            if lphi == 0.0 and ltheta == 0.0:
                continue
            u = lambda3.bang_control(phi, theta, lphi, ltheta, 1.0)
            assert u.omega_p ** 2 + u.omega_s ** 2 == pytest.approx(1.0, abs=1e-12)
            flipped = lambda3.bang_control(phi, theta, -lphi, -ltheta, 1.0)
            assert flipped.omega_p == pytest.approx(-u.omega_p)
            assert flipped.omega_s == pytest.approx(-u.omega_s)

    def test_bang_control_degenerate(self):
        with pytest.raises(lambda3.SwitchingDegeneracy):
            lambda3.bang_control(0.3, 0.2, 0.0, 0.0, 1.0)

    def test_energy_control_matches_switching_pair(self):
        for phi, theta in random_angles(20):
            lphi, ltheta = RNG.uniform(-2.0, 2.0, 2)
            assert lambda3.energy_control(phi, theta, lphi, ltheta) == lambda3.h1h2(phi, theta, lphi, ltheta)
        assert lambda3.energy_control(0.0, 0.0, SQ2 * 1.5, -17.0) == pytest.approx((1.5, 0.0))
        assert lambda3.energy_control(0.4, 0.8, 0.0, 0.0) == (0.0, 0.0)


class TestPulseReconstruction:
    def test_round_trip(self):
        for phi, theta in random_angles(100):
            u = PulsePair(*RNG.uniform(-2.0, 2.0, 2))
            rates = lambda3.angle_rhs(phi, theta, u)
            back = lambda3.pulses_from_angle_rates(phi, theta, *rates)
            assert back.omega_p == pytest.approx(u.omega_p, abs=1e-9)
            assert back.omega_s == pytest.approx(u.omega_s, abs=1e-9)

    def test_zero_rates(self):
        assert lambda3.pulses_from_angle_rates(0.7, 0.4, 0.0, 0.0) == (0.0, 0.0)

    def test_pure_phi_rate(self):
        u = lambda3.pulses_from_angle_rates(math.pi / 4.0, 0.0, 1.0, 0.0)
        assert u.omega_s == pytest.approx(0.0, abs=1e-15)
        assert u.omega_p == pytest.approx(2.0)

    def test_singular_chart(self):
        with pytest.raises(lambda3.AngleSingularity):
            lambda3.pulses_from_angle_rates(0.0, 0.4, 0.1, 0.1)


class TestExtremalRhs:
    def test_matches_componentwise_forms(self):
        for phi, theta in random_angles(50):
            lphi, ltheta = RNG.uniform(-2.0, 2.0, 2)
            y = np.array([phi, theta, lphi, ltheta])
            for cost in ("time", "energy"):
                if cost == "time":
                    u = lambda3.bang_control(phi, theta, lphi, ltheta, 1.0)
                else:
                    u = lambda3.energy_control(phi, theta, lphi, ltheta)
                expected = np.array(
                    lambda3.angle_rhs(phi, theta, u) + lambda3.costate_rhs(phi, theta, lphi, ltheta, u)
                )
                assert np.allclose(lambda3.extremal_rhs(y, 1.0, cost), expected, atol=1e-14)
                # the integrator passes a list; an ndarray of the same state
                # must give the same Python floats, bit for bit
                from_list = lambda3.extremal_rhs(y.tolist(), 1.0, cost)
                from_array = lambda3.extremal_rhs(y, 1.0, cost)
                assert type(from_list) is tuple and type(from_array) is tuple
                assert all(type(v) is float for v in from_list + from_array)
                assert from_list == from_array

    @pytest.mark.parametrize("cost", ["time", "energy"])
    def test_lane_binding_matches_scalar(self, cost):
        # one source bound twice: numpy's cos/sin/sqrt on lanes, math's per state
        states = np.column_stack([
            RNG.uniform(-1.5, 1.5, 500), RNG.uniform(-3.0, 3.0, 500), RNG.uniform(-5.0, 5.0, (500, 2)),
        ])
        lanes = lambda3.extremal_lanes(list(states.T), 1.0, cost)
        scalar = np.array([lambda3.extremal_rhs(y, 1.0, cost) for y in states.tolist()])
        np.testing.assert_array_max_ulp(np.array(lanes), scalar.T, maxulp=4)

    def test_rejects_unknown_cost(self):
        with pytest.raises(ValueError):
            lambda3.extremal_rhs(np.array([0.1, 0.1, 1.0, 0.5]), 1.0, "fuel")

    def test_parity_of_extremals(self):
        y0 = np.array([0.0, 0.0, 1.85, 0.45266])
        rhs = lambda t, y: lambda3.extremal_rhs(y)
        a = ode.integrate(rhs, y0, (0.0, 5.0))
        b = ode.integrate(rhs, -y0, (0.0, 5.0))
        assert np.array_equal(a.states, -b.states)
        x3sq_a = (np.cos(a.states[:, 0]) * np.sin(a.states[:, 1])) ** 2 / 2.0
        x3sq_b = (np.cos(b.states[:, 0]) * np.sin(b.states[:, 1])) ** 2 / 2.0
        assert np.array_equal(x3sq_a, x3sq_b)


class TestScalars:
    def test_ansatz_population(self):
        assert lambda3.ansatz_population(0.0) == 0.0
        assert lambda3.ansatz_population(7.40) == pytest.approx(0.4999429789582352, abs=1e-12)
        t = np.linspace(0.0, 10.0, 200)
        assert np.all(np.diff(lambda3.ansatz_population(t)) > 0.0)

    def test_raman_lock(self):
        assert lambda3.raman_lock(0.0, 0.0, 0.0) == (0.0, 0.0)
        assert lambda3.raman_lock(1.0, 2.0, 3.0) == (0.0, 1.0)
        assert lambda3.raman_lock(1.0, 1.0, 1.0) == (1.0, 0.0)
