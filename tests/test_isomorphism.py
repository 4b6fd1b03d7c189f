import math

import numpy as np
import pytest

from qsl12 import isomorphism as iso
from qsl12 import lambda3, shooting

SQ2 = math.sqrt(2.0)
RNG = np.random.default_rng(11)


class TestMapping:
    def test_initial_state(self):
        assert np.allclose(iso.map_3to2(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_complete_transfer_maps_to_maximal_coherence(self):
        rho = iso.map_3to2(np.array([0.0, 0.0, -1.0 / SQ2]))
        assert np.allclose(rho, [0.0, 0.0, -1.0])

    def test_norm_identity(self):
        for _ in range(25):
            v = RNG.normal(size=3)
            x1, y2, x3 = v / math.sqrt(v[0] ** 2 + 2.0 * (v[1] ** 2 + v[2] ** 2))
            rho = iso.map_3to2(np.array([x1, y2, x3]))
            assert np.dot(rho, rho) == pytest.approx(1.0, abs=1e-14)

    def test_pulse_reduction(self):
        p, s = iso.map_pulses(2.0, 3.0)
        assert p == pytest.approx(2.0 / SQ2)
        assert s == pytest.approx(1.5)


class TestFlows:
    def test_bloch_flow_matches_amplitude_flow(self):
        # d/dt of the Bloch vector of (a1, a2) must equal the Bloch flow
        for _ in range(50):
            raw = RNG.normal(size=4)
            a = (raw[:2] + 1j * raw[2:])
            a = a / np.linalg.norm(a)
            p, s = RNG.uniform(-2.0, 2.0, 2)
            da = iso.iso_amplitude_rhs(a, p, s)
            a1, a2 = a
            da1, da2 = da
            drho = np.array([
                2.0 * (np.conj(a1) * da1).real - 2.0 * (np.conj(a2) * da2).real,
                2.0 * (da1 * np.conj(a2) + a1 * np.conj(da2)).imag,
                2.0 * (da1 * np.conj(a2) + a1 * np.conj(da2)).real,
            ])
            rho = iso.rho_from_amplitudes(a1, a2)
            bloch = iso.iso_bloch_rhs(rho, p, s)
            assert np.allclose(drho, bloch, atol=1e-12)
            # on lists of Python numbers the flows return tuples of them, equal
            # to the flows on arrays
            da_list = iso.iso_amplitude_rhs(a.tolist(), float(p), float(s))
            assert type(da_list) is tuple and all(type(v) is complex for v in da_list)
            assert da_list == tuple(da)
            drho_list = iso.iso_bloch_rhs(rho.tolist(), float(p), float(s))
            assert type(drho_list) is tuple and all(type(v) is float for v in drho_list)
            assert drho_list == bloch

    def test_angle_flow_at_quarter_turn(self):
        d = iso.iso_angle_rhs(np.array([0.7, math.pi / 2.0, 0.0]), 1.3, 0.4)
        assert d[0] == pytest.approx(1.3 * math.cos(0.7))
        assert d[1] == pytest.approx(0.4)

    def test_angle_flow_stokes_only(self):
        for angles in (np.array([0.7, 0.2, 0.0]), [0.7, 0.2, 0.0]):
            d = iso.iso_angle_rhs(angles, 0.0, 1.1)
            assert np.allclose(d, [0.0, 1.1, -0.55])
            assert type(d) is tuple and all(type(v) is float for v in d)

    def test_angle_flow_pole_singularity(self):
        with pytest.raises(iso.ThetaSingularity):
            iso.iso_angle_rhs(np.array([0.0, 0.2, 0.0]), 1.0, 1.0)

    def test_angles_from_amplitudes_round_trip(self):
        for _ in range(25):
            raw = RNG.normal(size=4)
            a = (raw[:2] + 1j * raw[2:])
            a = a / np.linalg.norm(a)
            theta, phi, gamma = iso.angles_from_amplitudes(a[0], a[1])
            b1 = math.cos(0.5 * theta) * np.exp(-1j * gamma)
            b2 = math.sin(0.5 * theta) * np.exp(-1j * (phi + gamma))
            assert np.allclose([b1, b2], a, atol=1e-12)


class TestExactTheta:
    def test_starts_at_zero(self):
        t = np.linspace(0.0, 1.0, 11)
        theta = iso.exact_theta(t, np.ones_like(t))
        assert theta[0] == 0.0

    def test_constant_projection_closed_form(self):
        t = np.linspace(0.0, 4.0, 4001)
        c = 0.8
        theta = iso.exact_theta(t, np.full_like(t, c))
        expected = 2.0 * np.arctan(np.tanh(0.5 * c * t))
        assert np.max(np.abs(theta - expected)) < 1e-10

    def test_bounded_below_half_pi(self):
        # strict bound holds up to where tanh saturates in float64
        t = np.linspace(0.0, 35.0, 3501)
        theta = iso.exact_theta(t, np.ones_like(t))
        assert np.all(theta < math.pi / 2.0)


class TestCrossCheck:
    def test_oracles_agree_on_reference_optimum(self, cfg002, opt002):
        result = iso.cross_check(cfg002, costates=(opt002.lphi_i, opt002.ltheta_i))
        assert result.amplitude_deviation <= iso.AMPLITUDE_TOL
        assert result.angle_deviation <= iso.ANGLE_TOL
        assert result.roundtrip_deviation <= iso.ROUNDTRIP_TOL
        assert result.quadrature_deviation <= iso.QUADRATURE_TOL
        assert result.max_abs_coherence < 1.0
        assert result.passed
        assert result.hit_time == pytest.approx(opt002.t_min, abs=1e-9)

    def test_corrupted_mapping_is_detected(self, cfg002, opt002):
        result = iso.cross_check(
            cfg002, costates=(opt002.lphi_i, opt002.ltheta_i), corrupt_mapping=True
        )
        assert not result.passed
        assert result.amplitude_deviation > 1e-3

    def test_bang_control_budget(self, cfg002, monkeypatch):
        # one bang control per rhs evaluation of either pass, plus one per
        # node of the first pass for the pump column
        calls = [0]
        bang_control = lambda3.bang_control

        def counted(*args):
            calls[0] += 1
            return bang_control(*args)

        monkeypatch.setattr(lambda3, "bang_control", counted)
        result = iso.cross_check(cfg002, costates=(1.85, 0.45266))
        assert result.passed
        assert calls[0] <= 10_000

    def test_unreachable_costates_rejected(self, cfg002):
        with pytest.raises(shooting.NoFeasiblePoint):
            iso.cross_check(cfg002, costates=(1.85, 0.6))


class TestAreaDivergence:
    def test_pump_area_grows_as_accuracy_tightens(self, cfg002):
        eps_values = [0.1, 0.0215, 0.00464, 0.001]
        table = iso.area_divergence_check(eps_values, cfg002)
        assert np.array_equal(table[:, 0], eps_values)
        assert np.all(np.diff(table[:, 1]) > 0.0)  # eps decreasing across rows
        fit = np.polyfit(np.log(table[:, 0]), table[:, 1], 1)
        assert fit[0] < 0.0
        assert abs(fit[0]) > 0.3
        # linear in ln(eps): a continuation that jumps onto the slower
        # branch leaves a kink far off the line
        residual = table[:, 1] - np.polyval(fit, np.log(table[:, 0]))
        assert np.abs(residual).max() <= 0.05
