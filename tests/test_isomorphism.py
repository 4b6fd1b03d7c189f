import itertools
import math

import numpy as np
import pytest

from qsl12 import isomorphism as iso
from qsl12 import cli, lambda3, ode, shooting

import reference

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
            bloch = reference.iso_bloch_rhs(rho, p, s)
            assert np.allclose(drho, bloch, atol=1e-12)
            # on lists of Python numbers the flows return tuples of them, equal
            # to the flows on arrays
            da_list = iso.iso_amplitude_rhs(a.tolist(), float(p), float(s))
            assert type(da_list) is tuple and all(type(v) is complex for v in da_list)
            assert da_list == tuple(da)
            drho_list = reference.iso_bloch_rhs(rho.tolist(), float(p), float(s))
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
        theta = iso.exact_theta(np.linspace(0.0, 1.0, 11))
        assert theta[0] == 0.0

    def test_bounded_below_half_pi(self):
        # strict bound holds up to where tanh saturates in float64
        theta = iso.exact_theta(np.linspace(0.0, 35.0, 3501))
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

    @pytest.mark.parametrize("eps, costates", [(0.002, (1.85, 0.45266)), (0.005, (1.85, 0.62776))])
    def test_quadrature_is_integrated_along_the_run(self, eps, costates):
        # the pump area rides in the run's state, so the identity holds to
        # the integrator's accuracy, not to a quadrature of its nodes: it
        # tracks the tolerance (measured 0.88-1.08 tol at 1e-10 and 1e-12)
        for tol in (1e-10, 1e-12):
            result = iso.cross_check(shooting.ShotConfig(eps=eps, tol=tol), costates=costates)
            assert result.quadrature_deviation <= 2 * tol

    def test_wrong_pump_reduction_fails_the_quadrature(self, cfg002, monkeypatch):
        # the quadrature reads only P, which --corrupt-mapping leaves alone
        map_pulses = iso.map_pulses

        def half_pump(op, os_):
            p, s = map_pulses(op, os_)
            return 0.5 * p, s

        monkeypatch.setattr(iso, "map_pulses", half_pump)
        result = iso.cross_check(cfg002, costates=(1.85, 0.45266))
        assert result.quadrature_deviation > iso.QUADRATURE_TOL
        assert not result.passed

    def test_default_costates_are_the_refined_optimum(self, cfg002):
        # without costates the check runs at the optimum refined from
        # START_RAY, and its hit time is that optimum's, bit for bit
        opt = shooting.refine(*shooting.START_RAY, cfg002)
        result = iso.cross_check(cfg002)
        assert result == iso.cross_check(cfg002, costates=(opt.lphi_i, opt.ltheta_i))
        assert result.hit_time == opt.t_min

    def test_bang_control_budget(self, cfg002, monkeypatch):
        # one extremal flow per rhs evaluation of the run, which makes one
        # amplitude-flow call each and takes the control from that flow (the
        # reference form bang_control is not in the package at all)
        calls = {}

        def count(module, name):
            func = getattr(module, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return func(*args)

            monkeypatch.setattr(module, name, counted)

        count(lambda3, "extremal_control")
        count(iso, "iso_amplitude_rhs")
        result = iso.cross_check(cfg002, costates=(1.85, 0.45266))
        assert result.passed
        # 1 004 calls on the tolerance's own steps, bounded with a 20% margin;
        # steps capped at ode.MAX_STEP would take 4 442
        assert calls["extremal_control"] == calls["iso_amplitude_rhs"] <= 1_200

    @pytest.mark.parametrize("eps, costates", [(0.002, (1.85, 0.45266)), (0.005, (1.85, 0.62776))])
    def test_run_continues_the_base_integration_bit_for_bit(self, eps, costates):
        # the head flows the 15-component state with the angle block held at
        # zero; at the default tol its base columns are a 12-component
        # ode.nodes run's, bit for bit, up to the seed, its first node off the
        # pole: the first step's norm, over 12 components or 15, clamps the
        # step factor at 5 either way. The tail, with the angle block seeded,
        # runs from that seed to the hit on its own steps
        cfg = shooting.ShotConfig(eps=eps)
        t_hit = shooting.shoot_info(*costates, cfg)[0]
        base, tail = iso._oracle_run(iso.map_pulses, costates, t_hit, cfg.tol)
        seed = len(base.times) - len(tail.times)
        at_pole = iso._oracle_rhs(iso.map_pulses, at_pole=True)
        y0 = [0.0, 0.0, *costates, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        head = list(itertools.islice(ode.nodes(at_pole, [*y0, 0.0, 0.0, 0.0], (0.0, t_hit), cfg.tol), seed))
        assert all(y[12:] == [0.0, 0.0, 0.0] for _, y in head)
        base_rhs = lambda y: at_pole([*y, 0.0, 0.0, 0.0])[:12]  # noqa: E731
        times, states = zip(*itertools.islice(ode.nodes(base_rhs, y0, (0.0, t_hit), cfg.tol), seed + 1))
        plain = ode.Trajectory(times, states)
        assert base.states.shape[1] == 12
        assert np.array_equal(base.times[:seed], plain.times[:seed])
        assert np.array_equal(base.states[:seed], plain.states[:seed])
        theta = iso._polar_angle(plain.states)
        assert seed > 0 and np.all(theta[:seed] < 0.01) and theta[seed] >= 0.01
        assert tail.times[0] == plain.times[seed] and tail.times[-1] == t_hit
        assert np.array_equal(tail.states[0, :12], plain.states[seed])
        assert np.array_equal(base.times[seed:], tail.times)
        assert np.array_equal(base.states[seed:], tail.states[:, :12])
        assert tail.states.shape[1] == 15

    def test_one_check_compiles_only_the_15_wide_step(self, tmp_path, monkeypatch):
        # the head runs on the tail's width, so an iso check steps at width 4
        # (its shot) and 15 alone, and never compiles a 12-wide step
        widths, dp5 = [], ode._dp5
        monkeypatch.setattr(ode, "_dp5", lambda d: widths.append(d) or dp5(d))
        argv = ["--out", str(tmp_path), "iso", "check", "--eps", "0.002", "--costates", "1.85,0.45266"]
        assert cli.main(argv) == 0
        assert 12 not in widths and set(widths) == {4, 15}

    def test_unreachable_costates_rejected(self, cfg002):
        with pytest.raises(shooting.NoFeasiblePoint):
            iso.cross_check(cfg002, costates=(1.85, 0.6))

    @pytest.mark.parametrize("costates, reason", [
        ((0.0, 0.0), "switching-degeneracy"),
        ((1.85, 0.0), "no-crossing"),
    ])
    def test_missed_shot_names_its_reason(self, cfg002, costates, reason):
        with pytest.raises(shooting.NoFeasiblePoint, match=rf"horizon 15\.0 at eps 0\.002 \({reason}\)"):
            iso.cross_check(cfg002, costates=costates)


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

    def test_a_repeated_eps_integrates_its_extremal_once(self, cfg002, monkeypatch):
        # a twin eps shares its twin's optimum, so its row is its twin's,
        # bit for bit, from one integration of the extremal
        eps_values = [0.1, 0.1, 0.05, 0.02, 0.01]
        optima = shooting.optima_along_eps(np.array(eps_values), cfg002, shooting.START_RAY[0])
        paths = (shooting.extremal(opt, cfg002) for opt in optima)
        areas = [np.trapezoid(np.abs(iso.map_pulses(*pulses.T)[0]), path.times) for path, pulses in paths]
        extremal = shooting.extremal
        calls = []

        def counted(opt, cfg):
            calls.append(opt)
            return extremal(opt, cfg)

        monkeypatch.setattr(shooting, "extremal", counted)
        table = iso.area_divergence_check(eps_values, cfg002)
        assert len(calls) == 4
        assert np.array_equal(table[:, 0], eps_values)
        assert np.array_equal(table[:, 1], areas)
        assert table[0, 1] == table[1, 1]

    def test_pump_coupling_comes_from_map_pulses(self, cfg002, monkeypatch):
        # the area integrates the P of map_pulses: halving it halves the area
        eps_values = [0.1]
        area = iso.area_divergence_check(eps_values, cfg002)[0, 1]
        map_pulses = iso.map_pulses

        def half_pump(op, os_):
            p, s = map_pulses(op, os_)
            return 0.5 * p, s

        monkeypatch.setattr(iso, "map_pulses", half_pump)
        assert iso.area_divergence_check(eps_values, cfg002)[0, 1] == 0.5 * area
