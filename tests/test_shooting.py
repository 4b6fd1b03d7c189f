import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from qsl12 import bloch2, lambda3, shooting
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
    opt = shooting.Optimum(1.85, 0.45266, shooting.shoot_info(1.85, 0.45266, cfg002)[0])
    return (opt, *shooting.extremal(opt, cfg002))


@pytest.fixture(scope="module")
def grid12(cfg005) -> shooting.LandscapeGrid:
    return shooting.landscape((-2.0, 2.0), 12, cfg005, workers=1)


@pytest.fixture(scope="module")
def grid005(cfg005) -> shooting.LandscapeGrid:
    return shooting.landscape((-3.0, 3.0), 40, cfg005)


class TestShoot:
    def test_reference_transfer_time(self, cfg002):
        t = shooting.shoot_info(1.85, 0.45266, cfg002)[0]
        assert t == pytest.approx(7.40, abs=0.02)

    def test_zero_costates_never_hit(self, cfg002):
        t, reason, residual = shooting.shoot_info(0.0, 0.0, cfg002)
        assert t is None and reason == "switching-degeneracy" and residual is None

    def test_infeasible_ray_reports_no_hit(self, cfg002):
        t, reason, residual = shooting.shoot_info(1.85, 0.6, cfg002)
        assert t is None and residual is None
        assert reason in ("no-crossing", "phi-singularity", "step-underflow")

    def test_shot_and_extremal_pass_the_rhs_itself(self, cfg002, monkeypatch):
        # the integrator calls rhs(y), so no adapter stands between it and
        # the extremal flow
        seen = []
        locate_event, integrate = shooting.ode.locate_event, shooting.ode.integrate

        def recorded(fn):
            def wrapper(rhs, *args, **kwargs):
                seen.append(rhs)
                return fn(rhs, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(shooting.ode, "locate_event", recorded(locate_event))
        monkeypatch.setattr(shooting.ode, "integrate", recorded(integrate))
        t = shooting.shoot_info(1.85, 0.45266, cfg002)[0]
        shooting.extremal(shooting.Optimum(1.85, 0.45266, t), cfg002)
        assert len(seen) == 2
        assert all(rhs is lambda3.extremal_rhs for rhs in seen)

    def test_parity(self, cfg002):
        t_pos = shooting.shoot_info(1.85, 0.45266, cfg002)[0]
        t_neg = shooting.shoot_info(-1.85, -0.45266, cfg002)[0]
        assert abs(t_pos - t_neg) <= shooting.ode.EVENT_TOL

    @pytest.mark.parametrize("lphi, ltheta, hits", [(1.85, 0.45266, True), (1.85, 0.6, False)])
    def test_mirror_costates_give_the_same_shot(self, cfg002, lphi, ltheta, hits):
        # the reflection theta -> -theta, lambda_theta -> -lambda_theta maps
        # the flow to itself, and so does lambda -> -lambda: all four sign
        # choices of the costates shoot bit for bit alike, and the residual
        # turns with the sign of lambda_phi * lambda_theta
        shots = {(sp * st, shooting.shoot_info(sp * lphi, st * ltheta, cfg002)) for sp in (1, -1) for st in (1, -1)}
        assert len({shot[:2] for _, shot in shots}) == 1
        assert len({(sign * shot[2] if hits else shot[2]) for sign, shot in shots}) == 1
        t, reason, _ = shots.pop()[1]
        assert (reason == "hit") == hits and (t is not None) == hits

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
        # extremal is re-integrated at the ode.MAX_STEP node spacing
        opt, trajectory, pulses = ref_extremal
        times = trajectory.times
        assert times[0] == 0.0 and times[-1] == opt.t_min
        # node times are running sums, so a spacing may exceed the cap by rounding
        assert np.all(np.diff(times) <= shooting.ode.MAX_STEP + 1e-12)
        assert len(times) == 741
        assert len(pulses) == 741

    def test_exported_pulses_are_the_flows_control(self, ref_extremal):
        # each node's pulses are the control the extremal flow applies there
        _, trajectory, pulses = ref_extremal
        applied = [lambda3.extremal_control(y)[1] for y in trajectory.states.tolist()]
        assert np.array_equal(pulses, applied)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShotConfig(eps=0.0)
        with pytest.raises(ValueError):
            ShotConfig(eps=1.0)
        with pytest.raises(ValueError):
            ShotConfig(eps=0.1, horizon=-1.0)
        # the accuracy, the horizon and the integrator's tolerance: no sampling knob
        assert [f.name for f in fields(ShotConfig)] == ["eps", "horizon", "tol"]

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
        t, reason, residual = shooting.shoot_info(*costates, cfg002)
        assert t is None and residual is None
        assert reason in ("no-crossing", "switching-degeneracy", "phi-singularity", "step-underflow")


class TestLandscape:
    def test_minimum_and_structure(self, grid005):
        assert grid005.t_min == pytest.approx(6.78, abs=0.05)
        finite = grid005.times[np.isfinite(grid005.times)]
        assert np.isnan(grid005.times).any()  # white regions exist
        assert finite.size > 0
        assert np.all(finite > 0.0) and np.all(finite <= 15.0)

    def test_serial_equals_parallel(self, cfg005, grid12, monkeypatch):
        # workers split the lanes: an even grid, an odd one with its origin
        # cell, an asymmetric range (one lane per cell); two CPUs, so that
        # two workers fork two processes on any machine
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 2)
        for costate_range, res in [((-2.0, 2.0), 12), ((-2.0, 2.0), 13), ((-1.5, 2.5), 9)]:
            serial = grid12 if res == 12 else shooting.landscape(costate_range, res, cfg005, workers=1)
            parallel = shooting.landscape(costate_range, res, cfg005, workers=2)
            assert np.array_equal(serial.times, parallel.times, equal_nan=True)
            if res == 13:
                assert np.isnan(serial.times[6, 6])  # the origin cell
            assert np.isfinite(serial.times).any()

    def test_grid_holds_one_axis(self):
        assert shooting.LandscapeGrid(np.arange(3.0), np.ones((3, 3))).axis.size == 3
        with pytest.raises(ValueError, match="axis.size"):
            shooting.LandscapeGrid(np.arange(3.0), np.ones((3, 2)))

    @staticmethod
    def _fake_pool(monkeypatch, cpus: int) -> list[int]:
        # a fake pool records its process count and runs the jobs here, so
        # no process is started; os.cpu_count reads ``cpus``
        counts = []

        class Pool:
            def __init__(self, processes):
                counts.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, func, jobs):
                return [func(*job) for job in jobs]

        monkeypatch.setattr(shooting, "get_context", lambda method: SimpleNamespace(Pool=Pool))
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: cpus)
        return counts

    @pytest.mark.parametrize("cpus", [3, 5000])
    def test_workers_capped_at_cpu_count(self, cfg005, monkeypatch, cpus):
        # one job per lane runs one lane over the whole horizon, so the grid
        # is small (7 lanes) and its fixed step coarse, against a serial scan
        # of the same grid
        monkeypatch.setattr(shooting.ode, "MAX_STEP", 0.05)
        serial = shooting.landscape((-2.0, 2.0), 6, cfg005, workers=1)
        assert np.isfinite(serial.times).any()
        counts = self._fake_pool(monkeypatch, cpus)
        lanes = shooting._lanes((-2.0, 2.0), serial.axis)[0].size
        assert lanes == 7
        grid = shooting.landscape((-2.0, 2.0), 6, cfg005, workers=5000)
        assert counts == [min(cpus, lanes)]
        assert np.array_equal(grid.times, serial.times, equal_nan=True)

    def test_overflowing_horizon_raises_before_any_fork(self, cfg005, monkeypatch):
        # the 3x3 grid over +-2 has 4 lanes, so two workers would fork two
        # processes; the step count overflows in the parent, before the pool
        counts = self._fake_pool(monkeypatch, 2)
        assert shooting._lanes((-2.0, 2.0), np.linspace(-2.0, 2.0, 3))[0].size == 4
        with pytest.raises(ValueError, match="step count"):
            shooting.landscape((-2.0, 2.0), 3, replace(cfg005, horizon=1e308), workers=2)
        assert counts == []

    @staticmethod
    def _first_lane_width(grid_args, monkeypatch) -> int:
        widths = []

        class Measured(Exception):
            pass

        def recorded(rhs, Y, *args):
            widths.append(Y.shape[-1])
            raise Measured  # the width is known; skip the scan

        monkeypatch.setattr(shooting.ode, "locate_lane_events", recorded)
        with pytest.raises(Measured):
            shooting.landscape(*grid_args, workers=1)
        monkeypatch.undo()
        return widths[0]

    def test_one_lane_per_ray(self, cfg002, cfg005, monkeypatch):
        # one lane per ray up to the two reflections, in the first quadrant
        assert self._first_lane_width(((-3.0, 3.0), 60, cfg002), monkeypatch) == 729
        assert self._first_lane_width(((1.85, 1.85), 1, cfg005), monkeypatch) == 1
        axis = np.linspace(-3.0, 3.0, 200)
        lphi0, ltheta0, cell_lane = shooting._lanes((-3.0, 3.0), axis)
        assert lphi0.size == 8151 and cell_lane.max() == 8150
        assert np.allclose(np.hypot(lphi0, ltheta0), 1.0, rtol=0.0, atol=1e-15)
        assert (lphi0 >= 0.0).all() and (ltheta0 >= 0.0).all()
        axis = np.linspace(2.0, -2.0, 12)  # the range reversed
        lphi0, ltheta0, _ = shooting._lanes((2.0, -2.0), axis)
        assert lphi0.size == 29 and (lphi0 >= 0.0).all() and (ltheta0 >= 0.0).all()

    def test_cells_of_a_ray_share_its_time(self, cfg005, grid12):
        # cell k of an axis over +-2 lies at (2k - 11) * 2/11; a ray and its
        # mirrors (+-lphi, +-ltheta) share one lane
        times = grid12.times
        rays = {}
        for i, j in np.ndindex(times.shape):
            p, q = abs(2 * i - 11), abs(2 * j - 11)
            g = math.gcd(p, q)
            rays.setdefault((p // g, q // g), []).append(times[i, j])
        assert len(rays) == 29 and all(len(cells) >= 4 for cells in rays.values())
        for cells in rays.values():
            assert np.array_equal(cells, [cells[0]] * len(cells), equal_nan=True)
        wider = shooting.landscape((-2.2, 2.2), 12, cfg005, workers=1)
        assert np.array_equal(wider.times, times, equal_nan=True)
        reversed_range = shooting.landscape((2.0, -2.0), 12, cfg005, workers=1)
        assert np.array_equal(np.isfinite(reversed_range.times), np.isfinite(times))

    def test_mirror_lanes_scan_alike(self, cfg005, grid12, grid005):
        # the fold gives mirror cells the first-quadrant lane's time; that is
        # byte-identical to scanning the mirror lanes only while numpy's sin
        # is exactly odd and its cos exactly even
        axis = np.linspace(-2.0, 2.0, 12)
        a, b, _ = shooting._lanes((-2.0, 2.0), axis)
        times = shooting._scan_lanes(a, b, cfg005)
        assert np.isfinite(times).any()
        for mirror in (shooting._scan_lanes(a, -b, cfg005), shooting._scan_lanes(-a, b, cfg005)):
            assert np.array_equal(mirror, times, equal_nan=True)
        for grid in (grid12, grid005):
            for dim in (0, 1):
                assert np.array_equal(np.flip(grid.times, dim), grid.times, equal_nan=True)

    def test_grid_row_matches_its_shots(self, cfg002):
        # row 0 of the 60x60 grid over +-3, at lphi = -3: the same cells hit
        # as in the shots, at the shots' times; a lane that steps over the
        # tan(phi) blow-up would add hits at ltheta = +-1.0678 that no shot has
        grid = shooting.landscape((-3.0, 3.0), 60, cfg002, workers=1)
        assert grid.axis[0] == -3.0
        row = grid.times[0]
        shots = np.array([shooting.shoot_info(-3.0, lt, cfg002)[0] for lt in grid.axis], dtype=float)
        hits = np.isfinite(shots)
        assert hits.any() and np.array_equal(np.isfinite(row), hits)
        assert np.median(np.abs(row[hits] - shots[hits])) <= 1e-7

    def test_every_lane_hits_where_its_shot_hits(self, cfg005, grid12):
        # the 29 lanes of the 12x12 grid over +-2, each against the shot at
        # its unit costates: the same lanes hit
        lphi0, ltheta0, cell_lane = shooting._lanes((-2.0, 2.0), grid12.axis)
        lane_times = np.full(lphi0.size, np.nan)
        lane_times[cell_lane] = grid12.times.ravel()
        shots = np.array([shooting.shoot_info(a, b, cfg005)[0] for a, b in zip(lphi0, ltheta0)], dtype=float)
        assert lphi0.size == 29 and np.isfinite(shots).sum() == 14
        assert np.array_equal(np.isfinite(lane_times), np.isfinite(shots))

    def test_hit_times_do_not_depend_on_the_horizon(self, cfg005, grid12):
        # the lanes step at ode.MAX_STEP whatever the horizon, so every hit
        # up to the horizon, in the last step too, is the horizon-15 grid's,
        # bit for bit, and no hit lies past the horizon
        for horizon in (14.999, 12.345):
            times = shooting.landscape((-2.0, 2.0), 12, replace(cfg005, horizon=horizon), workers=1).times
            early = (times <= horizon) | (grid12.times <= horizon)
            assert early.sum() >= 28
            assert np.array_equal(times[early], grid12.times[early])
            assert not (times > horizon).any()

    def test_tangent_screen_only_skips_work(self, cfg005, monkeypatch):
        screened = shooting.landscape((-2.0, 2.0), 12, cfg005, workers=1)
        monkeypatch.setattr(shooting.ode, "GRAZE_MARGIN", math.inf)
        searched = shooting.landscape((-2.0, 2.0), 12, cfg005, workers=1)
        assert np.array_equal(screened.times, searched.times, equal_nan=True)

    def test_lanes_step_on_the_lane_flow_itself(self, cfg005, monkeypatch):
        # no adapter between the lanes and the flow, and the state is one
        # (4, n) block, so each stage sum is one einsum over the block's
        # stage buffer
        seen, blocks = set(), set()
        locate = shooting.ode.locate_lane_events

        def recorded(rhs, Y, *args):
            seen.add(rhs)
            blocks.add((type(Y), Y.dtype, Y.shape))
            return locate(rhs, Y, *args)

        monkeypatch.setattr(shooting.ode, "locate_lane_events", recorded)
        shooting.landscape((1.85, 1.85), 1, cfg005, workers=1)
        assert seen == {lambda3.extremal_lanes}
        assert blocks == {(np.ndarray, np.dtype(float), (4, 1))}

    def test_numpy_call_budget(self, cfg002):
        # numpy calls per lane step of ode.locate_lane_events on the lanes of
        # the 60x60 grid over +-3, a block of an ndarray subclass that keeps
        # itself through every ufunc and einsum, so no call goes uncounted:
        # 383.1 ufunc and 7 einsum calls per step
        class Counted(np.ndarray):
            calls = einsums = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                Counted.calls += 1
                plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                result = getattr(ufunc, method)(*plain, **kwargs)
                return result.view(Counted) if type(result) is np.ndarray else result

            def __array_function__(self, func, types, args, kwargs):
                result = super().__array_function__(func, types, args, kwargs)
                if func is np.einsum:
                    Counted.calls += 1
                    Counted.einsums += 1
                    result = result.view(Counted)
                return result

        rhs_calls, blocks = 0, set()

        def rhs(Y):
            nonlocal rhs_calls
            rhs_calls += 1
            blocks.add(type(Y))
            return lambda3.extremal_lanes(Y)

        axis = np.linspace(-3.0, 3.0, 60)
        lphi0, ltheta0, _ = shooting._lanes((-3.0, 3.0), axis)
        Y = np.zeros((4, lphi0.size)).view(Counted)
        Y[2], Y[3] = lphi0, ltheta0
        event = shooting._event(cfg002, np.cos, np.sin)
        # a span of 7.5, 750 steps of six rhs calls after the first, runs
        # past the first hits, near 7.40
        times = shooting.ode.locate_lane_events(rhs, Y, 7.5, event)
        steps = (rhs_calls - 1) / 6
        assert np.isfinite(times).any() and steps == 750
        assert blocks == {Counted}  # every stage state stays counted
        assert Counted.einsums == 7 * steps  # and so does the stage buffer
        assert Counted.calls / steps <= 394

    def test_origin_only_grid_is_empty(self, cfg005):
        grid = shooting.landscape((0.0, 0.0), 1, cfg005)
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
        # 13 probes and 8 more shots that locate the root at SCAN_TOL (the
        # fastest probe's scan shot is the first), then 5 that solve it at
        # the configured tol; the search at the configured tol alone took 10
        # shots after the probes
        solved = [args for args in shots if args[2].tol == cfg002.tol]
        assert len(shots) - len(solved) <= 24
        assert len(solved) <= 6

    def test_rhs_budget(self, cfg002, monkeypatch):
        # the scan screens and the search locates at SCAN_TOL, and the solve
        # solves at the configured tol: 3 325 calls in the 13 probes, 3 091
        # in the 13 shots that locate the root (the fastest probe's scan shot
        # is its first; shooting it again took 259) and 5 435 in the 5 that
        # solve it, 11 851 in all, bounded here with 5% to spare; with the
        # whole search at the configured tol it took 15 446 calls in 14
        # shots, 18 771 in all; with the probes at the
        # configured tol too the scan took 15 409 and the search's 12 shots
        # 13 170, and minimizing the hit time by Brent's method 46 010 in all,
        # with unbounded probes 129 848
        calls, solved = 0, 0
        extremal_rhs, shoot_info = lambda3.extremal_rhs, shooting.shoot_info

        def counted(*args):
            nonlocal calls
            calls += 1
            return extremal_rhs(*args)

        def counted_shot(lphi_i, ltheta_i, cfg, stop=math.inf):
            nonlocal solved
            solved += cfg.tol == cfg002.tol
            return shoot_info(lphi_i, ltheta_i, cfg, stop)

        monkeypatch.setattr(lambda3, "extremal_rhs", counted)
        monkeypatch.setattr(shooting, "shoot_info", counted_shot)
        opt = shooting.refine(1.85, 0.9, cfg002)
        assert opt.t_min == pytest.approx(7.40, abs=0.02)
        assert calls <= 12_450
        assert solved <= 6

    @pytest.mark.parametrize("eps, guess", [(0.002, 0.9), (0.005, 0.7)])
    def test_fastest_probe_is_shot_once(self, eps, guess, monkeypatch):
        # the locate record shoots at the scan's tolerance, and its walk
        # starts at the fastest probe, whose scan shot hit before its stop,
        # so is the unstopped shot: the record's memo starts from it
        cfg = ShotConfig(eps=eps)
        shots = []
        shoot_info = shooting.shoot_info

        def recorded(lphi_i, ltheta_i, shot_cfg, stop=math.inf):
            shots.append((ltheta_i, shot_cfg.tol, shoot_info(lphi_i, ltheta_i, shot_cfg, stop)))
            return shots[-1][2]

        monkeypatch.setattr(shooting, "shoot_info", recorded)
        shooting.refine(1.85, guess, cfg)
        fastest = min((t, x) for x, _, (t, _, _) in shots[:13] if t is not None)[1]
        assert [tol for x, tol, _ in shots].count(shooting.SCAN_TOL) > 13
        assert [(x, tol) for x, tol, _ in shots].count((fastest, shooting.SCAN_TOL)) == 1

    @pytest.mark.parametrize("eps, guess", [(0.002, 0.9), (0.005, 0.7), (0.002, 1.2)])
    def test_bounded_probes_keep_the_optimum(self, eps, guess, monkeypatch):
        # some shots stop early, yet the optimum is a full hit that meets the
        # transversality condition; each shot at the configured tol is final,
        # so no lambda_theta is shot twice at it
        cfg = ShotConfig(eps=eps)
        reasons, solved = [], []
        shoot_info = shooting.shoot_info

        def recorded(lphi_i, ltheta_i, shot_cfg, stop=math.inf):
            result = shoot_info(lphi_i, ltheta_i, shot_cfg, stop)
            reasons.append(result[1])
            if shot_cfg.tol == cfg.tol:
                solved.append(ltheta_i)
            return result

        monkeypatch.setattr(shooting, "shoot_info", recorded)
        opt = shooting.refine(1.85, guess, cfg)
        monkeypatch.undo()
        assert "beyond-bound" in reasons
        assert solved and len(set(solved)) == len(solved)
        t, reason, residual = shooting.shoot_info(1.85, opt.ltheta_i, cfg)
        assert (t, reason) == (opt.t_min, "hit")
        assert abs(residual) <= 1e-9

    def test_mirror_rays_refine_alike(self, cfg002):
        # the residual turns with the sign of lambda_phi * lambda_theta and
        # the probes run away from the origin, so the four mirror rays refine
        # bit for bit alike
        opt = shooting.refine(1.85, 0.9, cfg002)
        for sp, st in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
            mirror = shooting.refine(sp * 1.85, st * 0.9, cfg002)
            assert mirror == shooting.Optimum(sp * opt.lphi_i, st * opt.ltheta_i, opt.t_min)

    @pytest.mark.parametrize("eps, guess, lphi_sign, ltheta_sign", [
        (0.002, 0.5, 1.0, 1.0), (0.002, 0.9, 1.0, 1.0), (0.002, 1.2, 1.0, 1.0), (0.005, 0.7, 1.0, 1.0),
        (0.02682696, 1.18, 1.0, 1.0),  # from here a local search lands on the slower branch
        (0.002, 0.9, -1.0, 1.0), (0.002, 0.9, 1.0, -1.0), (0.002, 0.9, -1.0, -1.0),
    ])
    def test_screened_scan_keeps_the_optimum(self, eps, guess, lphi_sign, ltheta_sign, monkeypatch):
        # the probes only rank hit times, 0.3 or more apart on the fast
        # branch, and the search locates the root at SCAN_TOL: the optimum
        # the solve finds at the configured tol is the one of the search at
        # the configured tol alone, to rel 1e-9, a full hit at its costates
        cfg = ShotConfig(eps=eps)
        located = shooting.refine(lphi_sign * 1.85, ltheta_sign * guess, cfg)
        monkeypatch.setattr(shooting, "SCAN_TOL", cfg.tol)
        full = shooting.refine(lphi_sign * 1.85, ltheta_sign * guess, cfg)
        monkeypatch.undo()
        assert located.ltheta_i == pytest.approx(full.ltheta_i, rel=1e-9, abs=0.0)
        assert located.t_min == pytest.approx(full.t_min, rel=1e-9, abs=0.0)
        t, reason, residual = shooting.shoot_info(located.lphi_i, located.ltheta_i, cfg)
        assert (t, reason) == (located.t_min, "hit")
        assert abs(residual) <= 1e-9

    def test_screened_scan_keeps_the_continuation(self, cfg002, monkeypatch):
        # the 8-point grid of acceptance 07, whose first two points refine and
        # whose later six are corrected: each optimum is the full-tol search's
        # to rel 1e-9, and a full hit at its costates
        eps_values = np.geomspace(1e-1, 1e-3, 8)
        located = shooting.optima_along_eps(eps_values, cfg002, 1.85)
        monkeypatch.setattr(shooting, "SCAN_TOL", cfg002.tol)
        full = shooting.optima_along_eps(eps_values, cfg002, 1.85)
        monkeypatch.undo()
        for eps, opt, ref in zip(eps_values, located, full):
            assert opt.fallback is None
            assert opt.ltheta_i == pytest.approx(ref.ltheta_i, rel=1e-9, abs=0.0)
            assert opt.t_min == pytest.approx(ref.t_min, rel=1e-9, abs=0.0)
            t, reason, residual = shooting.shoot_info(opt.lphi_i, opt.ltheta_i, replace(cfg002, eps=float(eps)))
            assert (t, reason) == (opt.t_min, "hit")
            assert abs(residual) <= 1e-9

    def test_scan_screens_and_search_solves(self, cfg002, opt002, monkeypatch):
        # the 13 probes and the shots that locate the root run at SCAN_TOL,
        # the solve's shots at the configured tol, from the bracket
        # located * (1 -+ 10 SCAN_TOL) around a located shot; the optimum is
        # one of the solve's shots
        tols = []
        shoot_info = shooting.shoot_info

        def recorded(lphi_i, ltheta_i, cfg, stop=math.inf):
            tols.append((ltheta_i, cfg.tol))
            return shoot_info(lphi_i, ltheta_i, cfg, stop)

        monkeypatch.setattr(shooting, "shoot_info", recorded)
        opt = shooting.refine(1.85, 0.5, cfg002)
        solve = next(i for i, (_, tol) in enumerate(tols) if tol != shooting.SCAN_TOL)
        assert solve > 13
        assert {tol for _, tol in tols[:solve]} == {shooting.SCAN_TOL}
        assert {tol for _, tol in tols[solve:]} == {cfg002.tol}
        w = 10.0 * shooting.SCAN_TOL
        assert any(tols[solve:solve + 2] == [(x * (1.0 - w), cfg002.tol), (x * (1.0 + w), cfg002.tol)]
                   for x, _ in tols[13:solve])
        assert (opt.ltheta_i, cfg002.tol) in tols[solve:]
        assert opt == opt002

    @pytest.mark.parametrize("eps, guess", [(0.002, 0.5), (0.002, 0.9), (0.005, 0.7), (1e-5, 0.3)])
    def test_optimum_is_a_configured_tol_shot(self, eps, guess, monkeypatch):
        # a screened shot locates the root but never becomes the optimum
        cfg = ShotConfig(eps=eps)
        shots = {shooting.SCAN_TOL: set(), cfg.tol: set()}
        shoot_info = shooting.shoot_info

        def recorded(lphi_i, ltheta_i, shot_cfg, stop=math.inf):
            shots[shot_cfg.tol].add(ltheta_i)
            return shoot_info(lphi_i, ltheta_i, shot_cfg, stop)

        monkeypatch.setattr(shooting, "shoot_info", recorded)
        opt = shooting.refine(1.85, guess, cfg)
        assert opt.ltheta_i in shots[cfg.tol]
        assert opt.ltheta_i not in shots[shooting.SCAN_TOL]

    def test_unconfirmed_screen_scans_again(self, monkeypatch):
        # the screen misleads twice: its residual has its root at 0.29, not
        # at the configured tol's 0.3, so the solve's bracket never changes
        # sign; and its fastest probe, right of the root, hits only at
        # SCAN_TOL. The full-tol search then runs on a fresh record: the
        # scan runs again at the configured tol, unmemoised, the unconfirmed
        # probe among its shots, and the search starts from that scan's
        # fastest probe, left of the root, shot once more
        def valley(x):
            return 7.0 + 400.0 * (x - 0.3) ** 2

        probes = np.linspace(1.0 / 16.0, 1.5, 13).tolist()
        shots = []

        def shoot_info(lphi_i, ltheta_i, cfg, stop=math.inf):
            tol = cfg.tol
            shots.append((ltheta_i, tol))
            if ltheta_i == probes[2] and tol < shooting.SCAN_TOL:
                return None, "no-crossing", None
            t = valley(ltheta_i)
            root = 0.29 if tol == shooting.SCAN_TOL else 0.3
            return (None, "beyond-bound", None) if t >= stop else (t, "hit", root - ltheta_i)

        monkeypatch.setattr(shooting, "shoot_info", shoot_info)
        opt = shooting.refine(1.85, 1.0, ShotConfig(eps=0.002))
        assert opt.ltheta_i == pytest.approx(0.3, abs=1e-9)
        assert shots[:13] == [(p, shooting.SCAN_TOL) for p in probes]
        solve = next(i for i, (_, tol) in enumerate(shots) if tol == 1e-10)
        assert all(tol == shooting.SCAN_TOL for _, tol in shots[13:solve])
        # the solve walks right from the bracket at 0.29 by its 13 steps
        full = shots.index((probes[2], 1e-10))
        assert full - solve == 1 + shooting.CONTINUATION_STEPS
        assert all(0.289 < x < 0.291 for x, _ in shots[solve:full])
        shots = shots[full - 13:]
        assert shots[13] == (probes[2], 1e-10)
        assert shots[14:27] == [(p, 1e-10) for p in probes]
        # the rescan's fastest probe, left of the root, starts the search
        assert shots[27] == (probes[1], 1e-10) and probes[1] < 0.3 < probes[2]
        assert all(tol == 1e-10 for _, tol in shots[28:])
        assert len(shots) == 38

    def test_unsolved_bracket_falls_back_to_the_full_search(self, cfg002, monkeypatch):
        # the solve's bracket moved to 0.9 times the located root never
        # changes sign: the search at the configured tol runs on a fresh
        # record, shot for shot as with no locate phase, and gives its
        # optimum bit for bit
        shoot_info, solve = shooting.shoot_info, shooting._RootSearch.solve

        def run():
            shots = []

            def recorded(lphi_i, ltheta_i, cfg, stop=math.inf):
                shots.append((ltheta_i, cfg.tol, stop))
                return shoot_info(lphi_i, ltheta_i, cfg, stop)

            with monkeypatch.context() as m:
                m.setattr(shooting, "shoot_info", recorded)
                return shooting.refine(1.85, 0.9, cfg002), shots

        monkeypatch.setattr(shooting._RootSearch, "solve", lambda self, located: solve(self, 0.9 * located))
        fell_back, shots = run()
        monkeypatch.setattr(shooting, "SCAN_TOL", cfg002.tol)
        full, full_shots = run()
        assert fell_back == full
        assert shots[-(len(full_shots) - 13):] == full_shots[13:]
        assert len(shots) > len(full_shots) + 1 + shooting.CONTINUATION_STEPS

    def test_unsolved_corrector_fails_as_the_full_search(self, monkeypatch):
        # at SCAN_TOL the residual has a root, at the configured tol none: the
        # solve finds no bracket, and the corrector's walk at the configured
        # tol fails with the message it gives with no locate phase
        scan_tol, cfg = shooting.SCAN_TOL, ShotConfig(eps=0.005)
        solved = []

        def shoot_info(lphi_i, ltheta_i, shot_cfg, stop=math.inf):
            if shot_cfg.tol == scan_tol:
                return 7.0, "hit", 0.5 - ltheta_i
            solved.append(ltheta_i)
            return 7.0, "hit", 0.5

        monkeypatch.setattr(shooting, "shoot_info", shoot_info)
        with pytest.raises(shooting.NoConvergence) as located:
            shooting._correct(1.85, math.log(0.5), 0.01, cfg)
        # the solve's walk, then the corrector's full-tol walk
        assert len(solved) == 2 * (1 + shooting.CONTINUATION_STEPS)
        assert solved[0] == pytest.approx(0.5, rel=1e-4)
        monkeypatch.setattr(shooting, "SCAN_TOL", cfg.tol)
        with pytest.raises(shooting.NoConvergence) as full:
            shooting._correct(1.85, math.log(0.5), 0.01, cfg)
        assert str(located.value) == str(full.value)
        assert "no valid bracket, the residual stays > 0" in str(located.value)

    def test_loose_tol_runs_no_locate_phase(self, monkeypatch):
        # at a tol no tighter than SCAN_TOL the scan is not screened and the
        # search is the full one: after the 13 probes it shoots the fastest
        # probe again in full, on 27 shots in all, every one at that tol
        cfg = ShotConfig(eps=0.002, tol=shooting.SCAN_TOL)
        shots = []
        shoot_info = shooting.shoot_info

        def recorded(lphi_i, ltheta_i, shot_cfg, stop=math.inf):
            shots.append((ltheta_i, shot_cfg.tol, stop))
            return shoot_info(lphi_i, ltheta_i, shot_cfg, stop)

        monkeypatch.setattr(shooting, "shoot_info", recorded)
        opt = shooting.refine(1.85, 0.9, cfg)
        assert {tol for _, tol, _ in shots} == {cfg.tol}
        assert shots[13][0] in [x for x, _, _ in shots[:13]] and shots[13][2] == math.inf
        assert len(shots) == 27
        assert opt.t_min == pytest.approx(7.40, abs=0.02)

    def test_optimum_does_not_depend_on_the_guess(self, cfg002, opt002):
        # the root of the residual is where the guesses 0.5, 0.9 and 1.2 all
        # end; minimizing the hit time left them 5.1e-7 apart
        for guess in (0.9, 1.2):
            opt = shooting.refine(1.85, guess, cfg002)
            assert opt.ltheta_i == pytest.approx(opt002.ltheta_i, rel=1e-9, abs=0.0)

    def test_root_search_shots_stop_too(self, cfg002, monkeypatch):
        # past the 13 probes, the root search's shots past the root end early
        reasons = []
        shoot_info = shooting.shoot_info

        def recorded(*args):
            result = shoot_info(*args)
            reasons.append(result[1])
            return result

        monkeypatch.setattr(shooting, "shoot_info", recorded)
        shooting.refine(1.85, 0.9, cfg002)
        assert "beyond-bound" in reasons[13:]

    def test_stopped_probe_is_shot_again_in_full(self, monkeypatch):
        # on this landscape the second probe is slower than the first, so it
        # stops at the first one's time; the third, the fastest, lies right of
        # the root, so the second ends the bracket on the left and must give
        # its full time and residual
        def valley(x):
            return 9.0 if x < 0.1 else 7.0 + 400.0 * (x - 0.3) ** 2

        shots = []

        def shoot_info(lphi_i, ltheta_i, cfg, stop=math.inf):
            shots.append((ltheta_i, stop))
            t = valley(ltheta_i)
            return (None, "beyond-bound", None) if t >= stop else (t, "hit", 0.3 - ltheta_i)

        monkeypatch.setattr(shooting, "shoot_info", shoot_info)
        opt = shooting.refine(1.85, 1.0, ShotConfig(eps=0.002))
        assert opt.ltheta_i == pytest.approx(0.3, abs=1e-9)
        slow, stop = shots[1]
        assert stop == 9.0 and valley(slow) > stop
        assert shots[2][0] > 0.3
        assert (slow, math.inf) in shots[13:]

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
        fresh = shooting.Optimum(opt.lphi_i, opt.ltheta_i, shooting.shoot_info(opt.lphi_i, opt.ltheta_i, cfg002)[0])
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

    @pytest.mark.parametrize("guess", [0.0, -0.0, 5e-324, -5e-324, 1.7e308, 7e307])
    def test_zero_guess_rejected_before_the_first_shot(self, cfg002, guess, monkeypatch):
        # the 13 probes are multiples of the guess: a zero guess scans one
        # point, a subnormal one 3 distinct points; at 1.7e308 the last
        # probes overflow, at 7e307 the walk past them; any warning would
        # fail the test
        def no_shot(*args):
            raise AssertionError("refine shot a degenerate guess")

        monkeypatch.setattr(shooting, "shoot_info", no_shot)
        with pytest.raises(ValueError, match="13 distinct probes and a finite walk"):
            shooting.refine(1.85, guess, cfg002)

    def test_hopeless_guess_raises(self):
        cfg = ShotConfig(eps=0.002, horizon=2.0)  # no transfer fits in 2 time units
        with pytest.raises(shooting.NoFeasiblePoint, match="13 probes, screened at tol 1e-06: 13 no-crossing"):
            shooting.refine(1.85, 0.5, cfg)

    def test_failed_probes_say_why(self):
        # every screened probe hits, but the fastest does not at tol 1e-300:
        # the scan runs again there, and its probes say why
        with pytest.raises(shooting.NoFeasiblePoint, match="13 probes at tol 1e-300: 13 step-underflow"):
            shooting.refine(1.85, 0.5, ShotConfig(eps=0.002, tol=1e-300))

    def test_flat_landscape_fails_to_bracket(self, monkeypatch):
        # every shot hits at the same time with the same residual > 0: the
        # walk past the last probe never sees the residual change sign
        monkeypatch.setattr(shooting, "shoot_info", lambda *args: (7.0, "hit", 0.5))
        with pytest.raises(shooting.NoConvergence) as err:
            shooting.refine(1.85, 0.7, ShotConfig(eps=0.005))
        message = str(err.value)
        assert "no valid bracket" in message and "stays > 0" in message
        assert "eps 0.005" in message and "horizon 15.0" in message

    def test_no_positive_residual_left_of_the_fastest_probe(self, monkeypatch):
        # the fastest probe reads a residual < 0, and so does its neighbour on
        # the left, or it has none
        for times in ((7.0, 7.0), (8.0, 7.0)):
            landscape = lambda lphi_i, ltheta_i, cfg, stop=math.inf: (  # noqa: E731
                (times[0] if ltheta_i < 0.1 else times[1], "hit", -0.5))
            monkeypatch.setattr(shooting, "shoot_info", landscape)
            with pytest.raises(shooting.NoConvergence, match="no valid bracket, the residual is not > 0 left"):
                shooting.refine(1.85, 0.7, ShotConfig(eps=0.005))

    def test_failed_root_search_raises_no_convergence(self, monkeypatch):
        # the residual changes sign at ltheta_i 0.5, and the root search's
        # brentq fails; only the search's calls fail, as a shot's event rule
        # calls the same function
        monkeypatch.setattr(shooting, "shoot_info", lambda lphi_i, ltheta_i, cfg, stop=math.inf: (
            7.0, "hit", 0.5 if ltheta_i < 0.5 else -0.5))
        brentq = shooting.ode.brentq

        def failing(f, *args, **kwargs):
            if isinstance(getattr(f, "__self__", None), shooting._RootSearch):
                raise RuntimeError("Failed to converge after 100 iterations.")
            return brentq(f, *args, **kwargs)

        monkeypatch.setattr(shooting.ode, "brentq", failing)
        with pytest.raises(shooting.NoConvergence, match=r"eps 0\.005 near ltheta_i ~ 0\.7: Failed to converge"):
            shooting.refine(1.85, 0.7, ShotConfig(eps=0.005))

    def test_failure_names_eps_and_horizon(self):
        # the last point of a continuation that runs out of horizon
        with pytest.raises(shooting.NoFeasiblePoint) as err:
            shooting.refine(1.85, 0.45, ShotConfig(eps=0.002, horizon=7.0))
        assert "eps 0.002" in str(err.value) and "horizon 7.0" in str(err.value)


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


@pytest.fixture(scope="module")
def deep_optima(cfg002) -> tuple[np.ndarray, list]:
    """16 accuracies from 0.1 down to 1e-6 and their optima, from one
    continuation."""
    eps_values = np.geomspace(0.1, 1e-6, 16)
    return eps_values, shooting.optima_along_eps(eps_values, cfg002, shooting.START_RAY[0])


@pytest.fixture(scope="module")
def deep_curve(deep_optima) -> np.ndarray:
    """The (eps, area) columns of ``deep_optima``, as ``area_curve`` returns them."""
    eps_values, optima = deep_optima
    return np.column_stack([eps_values, [opt.area for opt in optima]])


class TestAreaCurve:
    def test_warm_started_curve_decreases(self, cfg002):
        eps_values = [0.1, 0.05, 0.02, 0.01]
        curve = shooting.area_curve(eps_values, cfg002)
        assert np.array_equal(curve[:, 0], eps_values)
        assert np.all(np.diff(curve[:, 1]) > 0.0)  # area grows as eps shrinks

    def test_asymptotic_law_at_deep_eps(self, deep_curve):
        # area = -ln(eps)/sqrt(2) + 3, fitted where eps <= 1e-3
        eps, area = deep_curve[:, 0], deep_curve[:, 1]
        deep = eps <= 1.000001e-3
        assert deep.sum() == 10
        slope, intercept = np.polyfit(np.log(eps[deep]), area[deep], 1)
        assert slope == pytest.approx(-1.0 / math.sqrt(2.0), rel=0.005)
        assert intercept == pytest.approx(3.0, abs=0.02)

    def test_local_slope_approaches_the_law_from_above(self, deep_curve):
        # d(area)/d(ln eps) falls steadily towards -1/sqrt(2) for eps <= 1e-2;
        # above it the first interval is not yet monotone
        eps, area = deep_curve[:, 0], deep_curve[:, 1]
        tail = eps <= 1.000001e-2
        local = np.diff(area[tail]) / np.diff(np.log(eps[tail]))
        assert local.size == 12
        assert np.all(np.diff(local) < 0.0)
        assert np.all(local > -1.0 / math.sqrt(2.0))

    def test_optima_are_transversal(self, cfg002, deep_optima):
        # at each optimum the costate is parallel to the target's gradient,
        # to within 1e-7 in the sine of the angle between them
        for eps, opt in zip(*deep_optima):
            t, _, residual = shooting.shoot_info(opt.lphi_i, opt.ltheta_i, replace(cfg002, eps=float(eps)))
            assert t == opt.t_min
            assert abs(residual) <= 1e-7

    def test_rhs_budget(self, cfg002, monkeypatch):
        # acceptance 07's curve: only the first two points run refine's scan,
        # the other six are predicted and corrected, each search located at
        # SCAN_TOL and solved at the configured tol: 48 630 calls, 58 285 with
        # the whole search at the configured tol; a scan per point took
        # 174 158 calls, the continuation 75 994
        calls, refines = 0, 0
        extremal_rhs, refine = lambda3.extremal_rhs, shooting.refine

        def counted_rhs(*args):
            nonlocal calls
            calls += 1
            return extremal_rhs(*args)

        def counted_refine(*args):
            nonlocal refines
            refines += 1
            return refine(*args)

        monkeypatch.setattr(lambda3, "extremal_rhs", counted_rhs)
        monkeypatch.setattr(shooting, "refine", counted_refine)
        curve = shooting.area_curve(np.geomspace(1e-1, 1e-3, 8), cfg002)
        assert refines == 2
        assert calls <= 51_000
        assert not curve[:, 2].any()  # no point fell back

    def test_repeated_and_unsorted_eps(self, cfg002):
        # solved from the largest eps down; a twin gets its twin's optimum, and
        # every optimum is the one refine finds from the previous optimum
        eps_values = np.array([0.01, 0.1, 0.1, 0.005, 0.05])
        optima = shooting.optima_along_eps(eps_values, cfg002, 1.85)
        assert optima[1] == optima[2] and optima[1] is not optima[2]
        previous = shooting.START_RAY[1]
        for i in (1, 2, 4, 0, 3):
            opt = optima[i]
            assert opt.fallback is None
            ref = shooting.refine(1.85, previous, replace(cfg002, eps=float(eps_values[i])))
            assert opt.ltheta_i == pytest.approx(ref.ltheta_i, rel=1e-9, abs=0.0)
            assert opt.t_min == pytest.approx(ref.t_min, rel=1e-9, abs=0.0)
            previous = opt.ltheta_i

    def test_failed_corrector_falls_back_to_refine(self, cfg002, monkeypatch):
        # the third point's walk meets only misses, so it finds no bracket:
        # that point is refined from the previous optimum, and the curve goes on
        correct, refine = shooting._correct, shooting.refine
        refined = []

        def recorded_refine(*args):
            refined.append((args, refine(*args)))
            return refined[-1][1]

        def correct_missing_at_003(lphi_i, predicted, bias, cfg):
            with monkeypatch.context() as m:
                if cfg.eps == 0.03:
                    m.setattr(shooting, "shoot_info", lambda *args: (None, "no-crossing", None))
                return correct(lphi_i, predicted, bias, cfg)

        monkeypatch.setattr(shooting, "refine", recorded_refine)
        monkeypatch.setattr(shooting, "_correct", correct_missing_at_003)
        curve = shooting.area_curve([0.1, 0.05, 0.03, 0.02], cfg002)
        monkeypatch.undo()
        assert curve[:, 2].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert np.all(np.diff(curve[:, 1]) > 0.0)
        assert len(refined) == 3
        (lphi_i, guess, cfg), opt = refined[2]
        assert (lphi_i, guess, cfg.eps) == (1.85, refined[1][1].ltheta_i, 0.03)
        assert "no valid bracket" in opt.fallback
        fresh = shooting.refine(1.85, guess, replace(cfg002, eps=0.03))
        assert (opt.ltheta_i, opt.t_min) == (fresh.ltheta_i, fresh.t_min)
        assert curve[2, 1] == fresh.area

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
        omega0_min, energy_min = bloch2.energy_optimum(10.0, opt002.area)
        assert omega0_min == pytest.approx(0.740, abs=2e-3)
        assert energy_min == pytest.approx(5.48, abs=0.02)
        assert energy_min == pytest.approx(opt002.area ** 2 / 10.0, rel=1e-15)

    def test_doubling_time_halves_energy(self, cfg002, opt002):
        o1, e1 = bloch2.energy_optimum(10.0, opt002.area)
        o2, e2 = bloch2.energy_optimum(20.0, opt002.area)
        assert o2 == pytest.approx(0.5 * o1, rel=1e-15)
        assert e2 == pytest.approx(0.5 * e1, rel=1e-15)

    def test_closed_loop_consistency(self, cfg002, opt002):
        duration = 10.0
        omega0_min, _ = bloch2.energy_optimum(duration, opt002.area)
        hit = shooting.energy_shot(omega0_min, opt002, cfg002)
        assert abs(hit - duration) / duration <= 1e-4

    def test_rejects_bad_duration(self, opt002):
        for duration in (0.0, math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError):
                bloch2.energy_optimum(duration, opt002.area)
