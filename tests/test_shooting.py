import math

import numpy as np
import pytest

from qsl12 import lambda3, shooting
from qsl12.shooting import ShotConfig

RNG = np.random.default_rng(3)


@pytest.fixture(scope="module")
def cfg005() -> ShotConfig:
    return ShotConfig(eps=0.005)


@pytest.fixture(scope="module")
def opt005(cfg005) -> shooting.Optimum:
    return shooting.refine(1.85, 0.7, cfg005)


@pytest.fixture(scope="module")
def grid005(cfg005) -> shooting.LandscapeGrid:
    return shooting.landscape((-3.0, 3.0), (-3.0, 3.0), (40, 40), cfg005)


class TestShoot:
    def test_reference_transfer_time(self, cfg002):
        t = shooting.shoot(1.85, 0.45266, cfg002)
        assert t == pytest.approx(7.40, abs=0.02)

    def test_zero_costates_never_hit(self, cfg002):
        t, reason = shooting.shoot_info(0.0, 0.0, cfg002)
        assert t is None and reason == "switching-degeneracy"

    def test_infeasible_ray_reports_no_hit(self, cfg002):
        t, reason = shooting.shoot_info(1.85, 0.6, cfg002)
        assert t is None
        assert reason in ("no-crossing", "phi-singularity", "step-underflow")

    def test_parity(self, cfg002):
        t_pos = shooting.shoot(1.85, 0.45266, cfg002)
        t_neg = shooting.shoot(-1.85, -0.45266, cfg002)
        assert abs(t_pos - t_neg) <= cfg002.integrator.event_tol

    def test_terminal_state(self, cfg002):
        opt = shooting.solve_optimum(1.85, 0.45266, cfg002)
        y = opt.trajectory.final_state
        x3sq = 0.5 * (math.cos(y[0]) * math.sin(y[1])) ** 2
        y2sq = 0.5 * math.sin(y[0]) ** 2
        assert abs(x3sq - cfg002.target) <= 1e-8
        assert y2sq < x3sq
        assert opt.terminal_error <= 1e-8

    def test_optimum_path_keeps_export_spacing(self, cfg002):
        # the shot steps as far as the tolerance allows; the returned
        # extremal is re-integrated at the max_step node spacing
        opt = shooting.solve_optimum(1.85, 0.45266, cfg002)
        times = opt.trajectory.times
        assert times[0] == 0.0 and times[-1] == opt.t_min
        # node times are running sums, so a spacing may exceed the cap by rounding
        assert np.all(np.diff(times) <= cfg002.integrator.max_step + 1e-12)
        assert len(times) == 741
        assert len(opt.pulses) == 741

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShotConfig(eps=0.0)
        with pytest.raises(ValueError):
            ShotConfig(eps=1.0)
        with pytest.raises(ValueError):
            ShotConfig(eps=0.1, horizon=-1.0)


class TestLandscape:
    def test_minimum_and_structure(self, grid005):
        assert grid005.t_min == pytest.approx(6.78, abs=0.05)
        finite = grid005.times[np.isfinite(grid005.times)]
        assert np.isnan(grid005.times).any()  # white regions exist
        assert finite.size > 0
        assert np.all(finite > 0.0) and np.all(finite <= 15.0)

    def test_serial_equals_parallel(self, cfg005):
        serial = shooting.landscape((-2.0, 2.0), (-2.0, 2.0), 12, cfg005, workers=1)
        parallel = shooting.landscape((-2.0, 2.0), (-2.0, 2.0), 12, cfg005, workers=2)
        assert np.array_equal(serial.times, parallel.times, equal_nan=True)

    def test_origin_only_grid_is_empty(self, cfg005):
        grid = shooting.landscape((0.0, 0.0), (0.0, 0.0), (1, 1), cfg005)
        assert np.isnan(grid.times).all()
        with pytest.raises(shooting.NoFeasiblePoint):
            grid.t_min

    def test_log_offsets_clamped(self, grid005):
        offsets = grid005.log_offsets()
        finite = offsets[np.isfinite(offsets)]
        assert finite.min() == pytest.approx(-12.0)


class TestRefine:
    def test_reference_optimum(self, opt002):
        assert opt002.ltheta_i == pytest.approx(0.45266, abs=1e-3)
        assert opt002.t_min == pytest.approx(7.40, abs=0.02)
        assert opt002.area == opt002.t_min  # omega0 = 1

    def test_restart_at_optimum_is_stable(self, cfg002, opt002):
        again = shooting.refine(1.85, opt002.ltheta_i, cfg002)
        assert again.ltheta_i == pytest.approx(opt002.ltheta_i, abs=1e-4)
        assert again.t_min == pytest.approx(opt002.t_min, abs=1e-4)

    def test_optimal_ray_is_scale_invariant(self, cfg002, opt002):
        ratio = opt002.ltheta_i / opt002.lphi_i
        low = shooting.refine(1.0, 1.0 * ratio * 1.02, cfg002)
        high = shooting.refine(2.5, 2.5 * ratio * 1.02, cfg002)
        assert low.t_min == pytest.approx(opt002.t_min, abs=1e-3)
        assert high.t_min == pytest.approx(opt002.t_min, abs=1e-3)

    def test_never_worse_than_grid(self, grid005, opt005):
        assert opt005.t_min <= grid005.t_min + 1e-10

    def test_hopeless_guess_raises(self):
        cfg = ShotConfig(eps=0.002, horizon=2.0)  # no transfer fits in 2 time units
        with pytest.raises(shooting.NoFeasiblePoint):
            shooting.refine(1.85, 0.5, cfg)


class TestExtremalInvariants:
    def test_bang_magnitude_saturated(self, opt002):
        mags = opt002.pulses[:, 0] ** 2 + opt002.pulses[:, 1] ** 2
        assert np.max(np.abs(mags - 1.0)) < 1e-10

    def test_control_hamiltonian_constant(self, opt002):
        values = []
        for y in opt002.trajectory.states:
            h1, h2 = lambda3.h1h2(y[0], y[1], y[2], y[3])
            values.append(math.hypot(h1, h2))
        values = np.asarray(values)
        assert (values.max() - values.min()) / values.mean() < 1e-6

    def test_ansatz_tracks_population(self, opt002):
        states = opt002.trajectory.states
        y2sq = 0.5 * np.sin(states[:, 0]) ** 2
        x3sq = 0.5 * (np.cos(states[:, 0]) * np.sin(states[:, 1])) ** 2
        dev = np.abs(y2sq + x3sq - lambda3.ansatz_population(opt002.trajectory.times))
        assert np.max(dev) <= 0.02


class TestAreaCurve:
    def test_warm_started_curve_decreases(self, cfg002):
        eps_values = [0.1, 0.05, 0.02, 0.01]
        curve = shooting.area_curve(eps_values, cfg002)
        assert np.array_equal(curve[:, 0], eps_values)
        assert np.all(np.diff(curve[:, 1]) > 0.0)  # area grows as eps shrinks

    def test_fit_recovers_synthetic_line(self):
        eps = np.geomspace(1e-3, 0.1, 7)
        area = -0.5 * np.log(eps) + 1.25
        slope, intercept = shooting.fit_asymptote(np.column_stack([eps, area]))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(1.25, abs=1e-12)

    def test_fit_requires_asymptotic_points(self):
        eps = np.array([0.2, 0.3, 0.4, 0.5, 0.6])
        with pytest.raises(shooting.InsufficientData):
            shooting.fit_asymptote(np.column_stack([eps, eps]))

    def test_two_level_closed_form_fit(self):
        # independent closed-form curve: area = 2 atanh(sqrt(1 - eps)),
        # asymptotically -ln(eps) + ln 4
        from qsl12 import bloch2

        eps = np.geomspace(1e-4, 0.1, 12)
        curve = np.column_stack([eps, [bloch2.min_area(-0.5, 0.5 - e) for e in eps]])
        slope, intercept = shooting.fit_asymptote(curve)
        assert slope == pytest.approx(-1.0, abs=0.02)
        assert intercept == pytest.approx(math.log(4.0), abs=0.06)


class TestEnergyOptimum:
    def test_reference_values(self, cfg002, opt002):
        result = shooting.energy_optimum3(10.0, 0.002, cfg002, optimum=opt002)
        assert result.omega0_min == pytest.approx(0.740, abs=2e-3)
        assert result.energy_min == pytest.approx(5.48, abs=0.02)
        assert result.energy_min == pytest.approx(result.time_optimum.area ** 2 / 10.0, rel=1e-15)

    def test_doubling_time_halves_energy(self, cfg002, opt002):
        e1 = shooting.energy_optimum3(10.0, 0.002, cfg002, optimum=opt002)
        e2 = shooting.energy_optimum3(20.0, 0.002, cfg002, optimum=opt002)
        assert e2.omega0_min == pytest.approx(0.5 * e1.omega0_min, rel=1e-15)
        assert e2.energy_min == pytest.approx(0.5 * e1.energy_min, rel=1e-15)

    def test_closed_loop_consistency(self, cfg002, opt002):
        duration = 10.0
        result = shooting.energy_optimum3(duration, 0.002, cfg002, optimum=opt002)
        hit = shooting.energy_shot(duration, result, cfg002)
        assert abs(hit - duration) / duration <= 1e-4

    def test_rejects_bad_duration(self, cfg002):
        with pytest.raises(ValueError):
            shooting.energy_optimum3(0.0, 0.002, cfg002)
