import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

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
def ref_extremal(cfg002):
    """The reference shot (1.85, 0.45266) as an optimum, with its extremal and pulses."""
    opt = shooting.Optimum(1.85, 0.45266, shooting.shoot(1.85, 0.45266, cfg002))
    return (opt, *shooting.extremal(opt, cfg002))


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

    def test_terminal_state(self, cfg002, ref_extremal):
        _, trajectory, _ = ref_extremal
        y = trajectory.final_state
        x3sq = 0.5 * (math.cos(y[0]) * math.sin(y[1])) ** 2
        y2sq = 0.5 * math.sin(y[0]) ** 2
        assert abs(x3sq - cfg002.target) <= 1e-8
        assert y2sq < x3sq
        assert abs(shooting._event(cfg002)(list(y))) <= 1e-8

    def test_optimum_path_keeps_export_spacing(self, cfg002, ref_extremal):
        # the shot steps as far as the tolerance allows; the exported
        # extremal is re-integrated at the max_step node spacing
        opt, trajectory, pulses = ref_extremal
        times = trajectory.times
        assert times[0] == 0.0 and times[-1] == opt.t_min
        # node times are running sums, so a spacing may exceed the cap by rounding
        assert np.all(np.diff(times) <= cfg002.integrator.max_step + 1e-12)
        assert len(times) == 741
        assert len(pulses) == 741

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShotConfig(eps=0.0)
        with pytest.raises(ValueError):
            ShotConfig(eps=1.0)
        with pytest.raises(ValueError):
            ShotConfig(eps=0.1, horizon=-1.0)

    @pytest.mark.parametrize("horizon", [0.0, math.nan, math.inf, -math.inf])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError):
            ShotConfig(eps=0.1, horizon=horizon)

    @pytest.mark.parametrize("costates", [
        (1e300, 1e300), (1e308, -1e308), (1e-300, 1e-300), (5e-324, 0.0),
        (math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf),
    ])
    def test_extreme_costates_report_a_reason(self, cfg002, costates):
        # no ZeroDivisionError, OverflowError or RuntimeWarning escapes a shot
        t, reason = shooting.shoot_info(*costates, cfg002)
        assert t is None
        assert reason in ("no-crossing", "switching-degeneracy", "phi-singularity", "step-underflow")


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

    def test_grid_row_matches_its_shots(self, cfg002):
        # one row of the 60x60 grid over +-3: the same cells hit as in the
        # shots, at the shots' times; a lane that steps over the tan(phi)
        # blow-up would add hits at ltheta = +-1.0678 that no shot has
        row = shooting.landscape((-3.0, -3.0), (-3.0, 3.0), (1, 60), cfg002, workers=1)
        shots = np.array([shooting.shoot(-3.0, lt, cfg002) for lt in row.ltheta_axis], dtype=float)
        hits = np.isfinite(shots)
        assert hits.any() and np.array_equal(np.isfinite(row.times[0]), hits)
        assert np.median(np.abs(row.times[0][hits] - shots[hits])) <= 1e-7

    def test_tangent_screen_only_skips_work(self, cfg005, monkeypatch):
        screened = shooting.landscape((-2.0, 2.0), (-2.0, 2.0), 12, cfg005, workers=1)
        monkeypatch.setattr(shooting.ode, "GRAZE_MARGIN", math.inf)
        searched = shooting.landscape((-2.0, 2.0), (-2.0, 2.0), 12, cfg005, workers=1)
        assert np.array_equal(screened.times, searched.times, equal_nan=True)

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

    @pytest.mark.parametrize("eps, guess, field, expected, tol", [
        (0.002, 1.2, "t_min", 7.40, 0.02),
        (0.02682696, 1.18, "area", 5.653136, 1e-3),
    ])
    def test_guess_beyond_optimum_finds_fast_branch(self, eps, guess, field, expected, tol):
        # from these guesses a local search lands on the slower branch (T > 12.5)
        opt = shooting.refine(1.85, guess, ShotConfig(eps=eps))
        assert getattr(opt, field) == pytest.approx(expected, abs=tol)

    def test_shot_budget(self, cfg002, monkeypatch):
        shots = []
        shoot_info = shooting.shoot_info

        def counted(*args):
            shots.append(args)
            return shoot_info(*args)

        monkeypatch.setattr(shooting, "shoot_info", counted)
        opt = shooting.refine(1.85, 0.5, cfg002)
        assert opt.t_min == pytest.approx(7.40, abs=0.02)
        assert len(shots) <= 36

    def test_optimum_reuses_the_winning_shot(self, cfg002, opt002, monkeypatch):
        # every event search is one of the counted shots; the optimum adds
        # no integration, and equals a fresh shot at its costates
        shots, searches = [], []
        shoot_info, locate_event = shooting.shoot_info, shooting.ode.locate_event

        def counted_shot(*args):
            shots.append(args)
            return shoot_info(*args)

        def counted_search(*args, **kwargs):
            searches.append(args)
            return locate_event(*args, **kwargs)

        monkeypatch.setattr(shooting, "shoot_info", counted_shot)
        monkeypatch.setattr(shooting.ode, "locate_event", counted_search)
        opt = shooting.refine(1.85, 0.5, cfg002)
        assert len(searches) == len(shots)
        monkeypatch.undo()
        fresh = shooting.Optimum(opt.lphi_i, opt.ltheta_i, shooting.shoot(opt.lphi_i, opt.ltheta_i, cfg002))
        assert (opt.t_min, opt.area) == (fresh.t_min, fresh.area)
        path, pulses = shooting.extremal(opt, cfg002)
        fresh_path, fresh_pulses = shooting.extremal(fresh, cfg002)
        assert np.array_equal(path.times, fresh_path.times)
        assert np.array_equal(path.states, fresh_path.states)
        assert np.array_equal(pulses, fresh_pulses)
        assert opt.t_min == opt002.t_min

    def test_refine_and_area_curve_integrate_no_path(self, cfg002, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("ode.integrate called")

        monkeypatch.setattr(shooting.ode, "integrate", integrate)
        opt = shooting.refine(1.85, 0.5, cfg002)
        assert opt.t_min == pytest.approx(7.40, abs=0.02)
        curve = shooting.area_curve([0.1, 0.05], cfg002)
        assert np.all(np.isfinite(curve[:, 1]))

    def test_unshot_brent_result_fails_loudly(self, monkeypatch):
        def minimize_scalar(fun, **kwargs):
            return OptimizeResult(x=0.123456789, success=True)

        monkeypatch.setattr(shooting, "minimize_scalar", minimize_scalar)
        with pytest.raises(RuntimeError, match="never shot"):
            shooting.refine(1.85, 0.7, ShotConfig(eps=0.005))

    def test_hopeless_guess_raises(self):
        cfg = ShotConfig(eps=0.002, horizon=2.0)  # no transfer fits in 2 time units
        with pytest.raises(shooting.NoFeasiblePoint):
            shooting.refine(1.85, 0.5, cfg)


class TestExtremalInvariants:
    def test_bang_magnitude_saturated(self, path002):
        _, pulses = path002
        mags = pulses[:, 0] ** 2 + pulses[:, 1] ** 2
        assert np.max(np.abs(mags - 1.0)) < 1e-10

    def test_control_hamiltonian_constant(self, path002):
        values = []
        for y in path002[0].states:
            h1, h2 = lambda3.h1h2(y[0], y[1], y[2], y[3])
            values.append(math.hypot(h1, h2))
        values = np.asarray(values)
        assert (values.max() - values.min()) / values.mean() < 1e-6

    def test_ansatz_tracks_population(self, path002):
        trajectory, _ = path002
        states = trajectory.states
        y2sq = 0.5 * np.sin(states[:, 0]) ** 2
        x3sq = 0.5 * (np.cos(states[:, 0]) * np.sin(states[:, 1])) ** 2
        dev = np.abs(y2sq + x3sq - lambda3.ansatz_population(trajectory.times))
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
        # none in the asymptotic regime; five points of one accuracy
        for eps in (np.array([0.2, 0.3, 0.4, 0.5, 0.6]), np.full(5, 0.1)):
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
        result = shooting.energy_optimum3(10.0, opt002)
        assert result.omega0_min == pytest.approx(0.740, abs=2e-3)
        assert result.energy_min == pytest.approx(5.48, abs=0.02)
        assert result.energy_min == pytest.approx(result.time_optimum.area ** 2 / 10.0, rel=1e-15)

    def test_doubling_time_halves_energy(self, cfg002, opt002):
        e1 = shooting.energy_optimum3(10.0, opt002)
        e2 = shooting.energy_optimum3(20.0, opt002)
        assert e2.omega0_min == pytest.approx(0.5 * e1.omega0_min, rel=1e-15)
        assert e2.energy_min == pytest.approx(0.5 * e1.energy_min, rel=1e-15)

    def test_closed_loop_consistency(self, cfg002, opt002):
        duration = 10.0
        result = shooting.energy_optimum3(duration, opt002)
        hit = shooting.energy_shot(duration, result, cfg002)
        assert abs(hit - duration) / duration <= 1e-4

    def test_rejects_bad_duration(self, opt002):
        for duration in (0.0, math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError):
                shooting.energy_optimum3(duration, opt002)
