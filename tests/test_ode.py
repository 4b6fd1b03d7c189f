import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from qsl12 import bloch2, lambda3, ode, shooting


def rotation_rhs(y):
    return np.array([-y[1], y[0]])


class TestIntegrate:
    def test_zero_field_is_constant(self):
        traj = ode.integrate(lambda y: np.zeros(2), [1.0, 0.0], (0.0, 5.0))
        assert np.all(traj.states == np.array([1.0, 0.0]))
        assert traj.times[0] == 0.0 and traj.times[-1] == 5.0

    def test_harmonic_rotation_by_pi(self):
        traj = ode.integrate(rotation_rhs, [1.0, 0.0], (0.0, math.pi))
        assert np.allclose(traj.final_state, [-1.0, 0.0], atol=1e-8)

    def test_resonant_two_level_reference_inversion(self):
        # constant resonant pulse from the south pole; the inversion obeys
        # tanh^2(t/2) - 1/2, giving 0.498 at the reference area 7.5999
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        traj = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 7.5999))
        assert traj.final_state[2] == pytest.approx(0.498, abs=1e-6)

    def test_deterministic_bitwise(self):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        a = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 3.0))
        b = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 3.0))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_against_scipy_oracle(self):
        # independent high-accuracy integrator on the same nonlinear flow
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.3)
        mine = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 6.0)).final_state
        ref = solve_ivp(lambda t, eta: rhs(eta), (0.0, 6.0), [0.0, 0.0, -0.5], rtol=1e-12, atol=1e-12).y[:, -1]
        assert np.allclose(mine, ref, atol=1e-9)

    def test_complex_states_supported(self):
        rhs = lambda y: np.array([1j * y[0]])
        final = ode.integrate(rhs, np.array([1.0 + 0.0j]), (0.0, math.pi)).final_state
        assert abs(final[0] + 1.0) < 1e-9

    def test_step_underflow_on_blowup(self):
        # y' = y^2 from y=2 blows up at t = 0.5
        with pytest.raises(ode.StepUnderflow):
            ode.integrate(lambda y: [v * v for v in y], [2.0], (0.0, 1.0))

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            ode.integrate(rotation_rhs, [1.0, 0.0], (1.0, 0.0))

    @pytest.mark.parametrize("t_span", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)])
    def test_non_finite_span_rejected(self, t_span):
        with pytest.raises(ValueError):
            ode.integrate(rotation_rhs, [1.0, 0.0], t_span)
        with pytest.raises(ValueError):
            ode.locate_event(rotation_rhs, [1.0, 0.0], t_span, lambda y: y[0] + 2.0)

    @pytest.mark.parametrize("y0", [1.0, [], [[1.0, 0.0]]])
    def test_state_must_be_a_non_empty_vector(self, y0):
        with pytest.raises(ValueError):
            ode.integrate(lambda y: y, y0, (0.0, 1.0))


class TestNodes:
    """``nodes`` yields the tolerance's own accepted nodes one at a time:
    ``locate_event``'s, and ``integrate``'s once its step cap is lifted."""

    CASES = [
        (lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.3), [0.0, 0.0, -0.5]),
        (lambda y: [1j * y[0] - 0.2 * y[1], 0.5j * y[1] * y[0]], [1.0 + 0.0j, 0.3 - 0.1j]),
    ]

    @pytest.mark.parametrize("rhs, y0", CASES, ids=["real", "complex"])
    @pytest.mark.parametrize("max_step", [1e-2, 0.7, math.inf])
    def test_nodes_are_integrates_bit_for_bit(self, rhs, y0, max_step, monkeypatch):
        # one controller, the first trial step MAX_STEP for both: integrate's
        # nodes are the drawn nodes up to the first step longer than its cap,
        # which it shortens; all of them where the cap never binds
        monkeypatch.setattr(ode, "MAX_STEP", max_step)
        traj = ode.integrate(rhs, y0, (0.0, 4.0))
        times, states = (np.asarray(v) for v in zip(*ode.nodes(rhs, y0, (0.0, 4.0))))
        assert states.dtype == traj.states.dtype
        longer = np.flatnonzero(np.diff(times) > max_step)
        cut = longer[0] + 1 if longer.size else len(times)
        assert np.array_equal(times[:cut], traj.times[:cut])
        assert np.array_equal(states[:cut], traj.states[:cut])
        if longer.size:
            assert traj.times[cut] < times[cut]
            assert len(traj.times) > len(times)
        else:
            assert len(traj.times) == len(times)
        # at 1e-2 the cap binds from the second step; at 0.7 it never does
        assert (cut == 2) if max_step == 1e-2 else (cut == len(times))

    def test_nodes_are_locate_events_search_nodes(self):
        # the reference shot stores every node it searches, then the
        # crossing, which lies inside the step to the next node
        cfg = shooting.ShotConfig(eps=0.002)
        y0 = [0.0, 0.0, 1.85, 0.45266]
        hit = ode.locate_event(lambda3.extremal_rhs, y0, (0.0, cfg.horizon), shooting._event(cfg), cfg.tol)
        searched = len(hit.trajectory.times) - 1
        drawn = ode.nodes(lambda3.extremal_rhs, y0, (0.0, cfg.horizon), cfg.tol)
        times, states = zip(*itertools.islice(drawn, searched + 1))
        assert np.array_equal(times[:searched], hit.trajectory.times[:-1])
        assert np.array_equal(states[:searched], hit.trajectory.states[:-1])
        assert times[searched - 1] < hit.t < times[searched]

    @pytest.mark.parametrize("rhs, y0", CASES, ids=["real", "complex"])
    def test_a_consumer_that_stops_early_gets_the_first_nodes(self, rhs, y0):
        every = list(ode.nodes(rhs, y0, (0.0, 4.0)))
        first = []
        for t, y in ode.nodes(rhs, y0, (0.0, 4.0)):
            first.append((t, y))
            if len(first) == 6:
                break
        assert first == every[:6]

    def test_arguments_checked_at_the_call(self):
        with pytest.raises(ValueError):
            ode.nodes(rotation_rhs, [1.0, 0.0], (1.0, 0.0))
        with pytest.raises(ValueError):
            ode.nodes(rotation_rhs, [], (0.0, 1.0))

    def test_public(self):
        assert "nodes" in ode.__all__


class TestContract:
    """The step runs on Python floats; rhs and event see lists, callers get ndarrays."""

    @pytest.mark.parametrize("y0, dtype", [
        ([1.0, 0.0], np.float64),
        ([1, 0], np.float64),
        (np.array([1.0, 0.0], dtype=np.float32), np.float64),
        (np.array([1.0 + 0.0j, 0.0]), np.complex128),
    ])
    def test_rhs_and_event_see_vectors_results_keep_kind(self, y0, dtype):
        scalar = complex if dtype == np.complex128 else float
        seen = []

        def rhs(y):
            seen.append(y)
            return [-y[1], y[0]]

        def event(y):
            seen.append(y)
            return y[0].real + 0.5

        traj = ode.integrate(rhs, y0, (0.0, 1.0))
        hit = ode.locate_event(rhs, y0, (0.0, 5.0), event)
        assert hit is not None
        assert all(type(y) is list and len(y) == 2 for y in seen)
        assert all(type(v) is scalar for y in seen for v in y)
        for states in (traj.states, hit.trajectory.states):
            assert isinstance(states, np.ndarray) and states.dtype == dtype and states.shape[1] == 2
        assert isinstance(hit.y, np.ndarray) and hit.y.dtype == dtype and hit.y.shape == (2,)
        assert isinstance(traj.final_state, np.ndarray)

    def test_graze_probes_see_lists(self):
        # the graze test and the root search call the event on states read
        # from the interpolant; those are lists of floats too
        seen = []

        def event(y):
            seen.append(y)
            return 1e-6 - (y[0] - 0.735) ** 2

        hit = ode.locate_event(lambda y: [1.0], [0.0], (0.0, 2.0), event)
        assert hit is not None and hit.t == pytest.approx(0.734, abs=1e-9)
        assert all(type(y) is list and type(y[0]) is float for y in seen)

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_slope_of_any_sequence_gives_identical_results(self, kind):
        def reference(y):
            return [-y[1] + 0.1 * y[0] * y[0], y[0]]

        def rhs(y):
            return kind(reference(y))

        def event(y):
            return y[0] + 0.5

        ref_traj = ode.integrate(reference, [1.0, 0.0], (0.0, 3.0))
        ref_hit = ode.locate_event(reference, [1.0, 0.0], (0.0, 5.0), event)
        traj = ode.integrate(rhs, [1.0, 0.0], (0.0, 3.0))
        hit = ode.locate_event(rhs, [1.0, 0.0], (0.0, 5.0), event)
        assert np.array_equal(traj.times, ref_traj.times)
        assert np.array_equal(traj.states, ref_traj.states)
        assert hit.t == ref_hit.t
        assert np.array_equal(hit.y, ref_hit.y)
        assert np.array_equal(hit.trajectory.times, ref_hit.trajectory.times)
        assert np.array_equal(hit.trajectory.states, ref_hit.trajectory.states)

    def test_rhs_of_wrong_length_rejected(self):
        for slope in (np.zeros(3), (0.0, 0.0, 0.0), (0.0,), [0.0]):
            with pytest.raises(ValueError):
                ode.integrate(lambda y: slope, [1.0, 0.0], (0.0, 1.0))
            with pytest.raises(ValueError):
                ode.locate_event(lambda y: slope, [1.0, 0.0], (0.0, 1.0), lambda y: y[0] + 2.0)

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 11, 14])
    def test_error_norm_matches_array_form(self, n):
        # the array form it replaced: bit for bit below 8 components, where
        # numpy also sums in order; from 8 on numpy sums pairwise
        rng = np.random.default_rng(n)
        tol = ode.TOL
        for _ in range(50):
            err, y_old, y_new = (rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3, n) for _ in range(3))
            scale = tol + tol * np.maximum(np.abs(y_old), np.abs(y_new))
            q = np.abs(err) / scale
            expected = float(np.sqrt(np.mean(q * q)))
            norm = ode._error_norm(err.tolist(), y_old.tolist(), y_new.tolist(), tol)
            if n < 8:
                assert norm == expected
            else:
                assert norm == pytest.approx(expected, rel=4 * n * 2.0 ** -52)


class TestNonFiniteRhs:
    """A non-finite slope fails every step, so the step shrinks to MIN_STEP."""

    @staticmethod
    def rhs_turning(bad):
        # y[0] has slope 1, so it is the clock: finite until t = 0.5, non-finite after
        return lambda y: np.array([bad if y[0] > 0.5 else 1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("from_start", [True, False])
    def test_step_underflow(self, bad, from_start):
        rhs = (lambda y: np.full(2, bad)) if from_start else self.rhs_turning(bad)
        with pytest.raises(ode.StepUnderflow):
            ode.integrate(rhs, [0.0, 0.0], (0.0, 1.0))
        with pytest.raises(ode.StepUnderflow):
            ode.locate_event(rhs, [0.0, 0.0], (0.0, 1.0), lambda y: y[0] - 10.0)


class TestConfigAndTrajectory:
    @pytest.mark.parametrize("kwargs", [
        dict(tol=0.0),
        dict(tol=-1.0),
        dict(tol=-0.0),
        dict(tol=-5e-324),
        dict(tol=-math.inf),
        dict(tol=math.inf),
        dict(tol=math.nan),
    ])
    def test_invalid_config(self, kwargs):
        rhs, y0, t_span = rotation_rhs, [1.0, 0.0], (0.0, 1.0)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            shooting.ShotConfig(eps=0.1, **kwargs)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ode.integrate(rhs, y0, t_span, **kwargs)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ode.nodes(rhs, y0, t_span, **kwargs)  # at the call, before the first draw
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ode.locate_event(rhs, y0, t_span, lambda y: y[0], **kwargs)

    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError):
            ode.Trajectory([0.0, 0.0], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            ode.Trajectory([0.0, 1.0], [[1.0]])


class TestLocateEvent:
    def test_two_level_equator_crossing(self):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        hit = ode.locate_event(rhs, [0.0, 0.0, -0.5], (0.0, 5.0), lambda eta: eta[2])
        # closed form: the inversion reaches 0 at 2 atanh(sqrt(1/2))
        assert hit is not None
        assert hit.t == pytest.approx(2.0 * math.atanh(math.sqrt(0.5)), abs=1e-9)
        assert abs(hit.y[2]) < 1e-9
        assert hit.trajectory.times[-1] == hit.t

    def test_no_sign_change_returns_none(self):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        assert ode.locate_event(rhs, [0.0, 0.0, -0.5], (0.0, 1.0), lambda eta: eta[2] - 0.4) is None

    @staticmethod
    def x3sq_excess(y):
        c = math.cos(y[0]) * math.sin(y[1])
        return 0.5 * c * c - 0.5 * (1.0 - 0.002)

    def test_three_level_transfer_time(self):
        # target population |x3|^2 reaching 0.499 on the optimal extremal;
        # reference transfer time ~ 7.40. The rhs budget covers the ~180
        # tolerance-limited steps; the crossing is found on the step's
        # interpolant with no further rhs call.
        calls = 0

        def rhs(y):
            nonlocal calls
            calls += 1
            return lambda3.extremal_rhs(y)

        hit = ode.locate_event(rhs, [0.0, 0.0, 1.85, 0.45266], (0.0, 15.0), self.x3sq_excess)
        assert hit is not None
        assert hit.t == pytest.approx(7.40, abs=0.02)
        assert calls <= 1200

    @pytest.mark.parametrize("max_step", [0.01, 0.05, 0.5, math.inf])
    def test_grazing_reference_hit_at_any_step_cap(self, max_step, monkeypatch):
        # |x3|^2 exceeds the target only inside a window ~0.012 wide, so the
        # hit must come from the graze check, whatever the first trial step
        rhs = lambda3.extremal_rhs
        y0 = [0.0, 0.0, 1.85, 0.45266]
        reference = ode.locate_event(rhs, y0, (0.0, 15.0), self.x3sq_excess)
        monkeypatch.setattr(ode, "MAX_STEP", max_step)
        hit = ode.locate_event(rhs, y0, (0.0, 15.0), self.x3sq_excess)
        assert hit is not None
        assert hit.t == pytest.approx(reference.t, abs=1e-9)

    def test_graze_between_nodes(self):
        # y' = 1 has zero local error, so steps grow fivefold and no node
        # lands in the window |y - 0.735| < 1e-3 where the event is positive
        rhs = lambda y: np.ones(1)
        hit = ode.locate_event(rhs, [0.0], (0.0, 2.0), lambda y: 1e-6 - (y[0] - 0.735) ** 2)
        assert hit is not None
        assert hit.t == pytest.approx(0.734, abs=1e-9)
        assert np.all(hit.trajectory.times[:-1] < 0.734)

    def test_first_crossing_is_reported(self):
        # the total transferred population (1 - x1^2)/2 dips through its
        # threshold early (x1 itself crosses zero mid-flight), so its first
        # crossing precedes the |x3|^2 target hit
        rhs = lambda3.extremal_rhs

        def transferred(y):
            x1 = math.cos(y[0]) * math.cos(y[1])
            return 0.5 * (1.0 - x1 * x1) - 0.5 * (1.0 - 0.002)

        hit = ode.locate_event(rhs, [0.0, 0.0, 1.85, 0.45266], (0.0, 15.0), transferred)
        assert hit is not None
        assert hit.t < 7.38

    def test_crossing_just_after_a_node(self):
        # the event is a hair below zero at an accepted node; the hit must
        # not repeat that node's time
        rhs = lambda y: np.ones(1)
        search = ode.locate_event(rhs, [0.0], (0.0, 1.0), lambda y: y[0] - 0.9).trajectory
        node = search.states[3, 0]  # accepted by the search itself, at t = 0.31
        assert node == pytest.approx(0.31, abs=1e-12)
        level = np.nextafter(node, np.inf)
        hit = ode.locate_event(rhs, [0.0], (0.0, 1.0), lambda y: y[0] - level)
        assert hit is not None
        assert hit.t == pytest.approx(level, abs=1e-10)
        assert hit.trajectory.times[-1] == hit.t

    def test_event_zero_at_start(self):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        hit = ode.locate_event(rhs, [0.0, 0.0, -0.5], (0.0, 1.0), lambda eta: eta[2] + 0.5)
        assert hit is not None and hit.t == 0.0

    def test_stop_keeps_the_full_hit(self):
        # the steps do not depend on stop, so a search stopped anywhere from
        # inside the hitting step on returns the full search's hit
        rhs = lambda3.extremal_rhs
        y0 = [0.0, 0.0, 1.85, 0.45266]
        full = ode.locate_event(rhs, y0, (0.0, 15.0), self.x3sq_excess)
        last_node = full.trajectory.times[-2]
        for stop in (0.5 * (last_node + full.t), full.t, 7.5, 15.0):
            hit = ode.locate_event(rhs, y0, (0.0, 15.0), self.x3sq_excess, stop=stop)
            assert hit.t == full.t
            assert np.array_equal(hit.y, full.y)
            assert np.array_equal(hit.trajectory.times, full.trajectory.times)
            assert np.array_equal(hit.trajectory.states, full.trajectory.states)

    def test_stop_before_the_hit_ends_the_search(self):
        calls = 0

        def rhs(y):
            nonlocal calls
            calls += 1
            return lambda3.extremal_rhs(y)

        y0 = [0.0, 0.0, 1.85, 0.45266]
        assert ode.locate_event(rhs, y0, (0.0, 15.0), self.x3sq_excess) is not None
        full_calls, calls = calls, 0
        assert ode.locate_event(rhs, y0, (0.0, 15.0), self.x3sq_excess, stop=5.0) is None
        assert 0 < calls < full_calls

    def test_hit_time_stable_under_step_halving(self, monkeypatch):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        t1 = ode.locate_event(rhs, [0.0, 0.0, -0.5], (0.0, 5.0), lambda eta: eta[2]).t
        monkeypatch.setattr(ode, "MAX_STEP", ode.MAX_STEP / 2)
        t2 = ode.locate_event(rhs, [0.0, 0.0, -0.5], (0.0, 5.0), lambda eta: eta[2]).t
        assert abs(t1 - t2) < 10.0 * ode.EVENT_TOL


class TestLaneEvents:
    @staticmethod
    def drift(Y):
        # row 0 is each lane's speed, row 1 a clock, row 2 moves at row 0;
        # the rhs takes the bare block and returns its three components
        assert type(Y) is np.ndarray and Y.shape[0] == 3 and Y.ndim == 2
        return 0.0, 1.0, Y[0]

    @staticmethod
    def event(y):
        # reads row 2 only, of a block or of one lane's list
        return 1e-6 - (y[2] - 0.735) ** 2

    def test_hits_on_a_generic_block(self, monkeypatch):
        # 8 steps of 0.25 over 2.0: a sign change across the first step
        # (the node at t = 0.25 lands inside the window |y - 0.735| < 1e-3),
        # a graze between the nodes 0.5 and 0.75, and a lane moving away
        monkeypatch.setattr(ode, "MAX_STEP", 0.25)
        Y = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.735 - 0.25, 0.0, 5.0]])
        times = ode.locate_lane_events(self.drift, Y, 2.0, self.event)
        assert times[0] == pytest.approx(0.249, abs=ode.EVENT_TOL)
        assert times[1] == pytest.approx(0.734, abs=ode.EVENT_TOL)
        assert np.isnan(times[2])

    def test_zero_past_the_end_reads_nan(self, monkeypatch):
        # the lane crosses at 0.249, inside the first step [0, 0.25]: a span
        # that ends before the zero counts it as none, and one that ends
        # after it, anywhere, gives it bit for bit, as the step is MAX_STEP
        monkeypatch.setattr(ode, "MAX_STEP", 0.25)
        Y = np.array([[1.0], [0.0], [0.735 - 0.25]])
        assert np.isnan(ode.locate_lane_events(self.drift, Y, 0.2, self.event)).all()
        times = [ode.locate_lane_events(self.drift, Y, t1, self.event)[0] for t1 in (0.2491, 0.25, 0.3, 2.0)]
        assert times[0] == pytest.approx(0.249, abs=ode.EVENT_TOL)
        assert times == [times[0]] * 4

    def test_rhs_components_are_counted(self):
        Y = np.array([[1.0], [0.0], [0.735 - 0.25]])
        with pytest.raises(ValueError, match="rhs returned 2 components for a state of 3"):
            ode.locate_lane_events(lambda Y: self.drift(Y)[:2], Y, 2.0, self.event)

    @pytest.mark.parametrize("t1", [math.inf, math.nan, 1e308])
    def test_step_count_must_be_finite(self, t1):
        Y = np.array([[1.0], [0.0], [0.735 - 0.25]])
        with pytest.raises(ValueError, match="step count"):
            ode.locate_lane_events(self.drift, Y, t1, self.event)


class TestBrentq:
    """``ode.brentq`` against its source, ``scipy.optimize.brentq``: the
    same points visited in the same order, the same root by ``float.hex``,
    or the same exception."""

    @staticmethod
    def run(solver, f, a, b, **kwargs):
        visited = []

        def recorded(x):
            visited.append(float.hex(x))
            return f(x)

        try:
            outcome = float.hex(solver(recorded, a, b, **kwargs))
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc)
        return outcome, visited

    def assert_as_scipy(self, f, a, b, **kwargs):
        ours = self.run(ode.brentq, f, a, b, **kwargs)
        assert ours == self.run(scipy_brentq, f, a, b, **kwargs)
        return ours[0]

    TOLERANCES = [{}, {"xtol": ode.EVENT_TOL}, {"rtol": shooting.REFINE_XTOL}]

    @pytest.mark.parametrize("kwargs", TOLERANCES)
    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),  # a simple (odd) root
        (lambda x: (x - 0.7) * (x * x + 1.0), 3.0, -1.0),  # the bracket reversed
        (lambda x: math.tanh(40.0 * (x - 1.1)) + 1e-3, 0.0, 2.0),  # a near step
        (lambda x: x - 1.0, 1.0, 2.0),  # the root at a
        (lambda x: x - 1.0, 0.0, 1.0),  # the root at b
        (lambda x: -0.0 if x == 0.5 else 1.0, 0.5, 3.0),  # -0.0 at a
        (lambda x: -0.0 if x == 3.0 else -1.0, 0.5, 3.0),  # -0.0 at b
    ])
    def test_same_iterates_and_root(self, f, a, b, kwargs):
        assert isinstance(self.assert_as_scipy(f, a, b, **kwargs), str)

    def test_random_brackets(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            c0, c1, c2 = rng.uniform(-3.0, 3.0, 3)
            a, b = rng.uniform(-4.0, 4.0, 2)
            for kwargs in self.TOLERANCES:
                self.assert_as_scipy(lambda x: (x - c0) * (x - c1) * (x - c2), a, b, **kwargs)
                self.assert_as_scipy(lambda x: math.sin(3.0 * x + c0) + 0.3 * c1, a, b, **kwargs)

    @pytest.mark.parametrize("f, a, b, kwargs, error", [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),  # one sign at both ends
        (lambda x: 1.0, 0.0, 0.0, {}, ValueError),
        (lambda x: math.nan, 0.0, 1.0, {}, ValueError),
        (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0, {}, ValueError),  # NaN inside
        (lambda x: x ** 3 - 2.0, 0.0, 2.0, {"maxiter": 3}, RuntimeError),
        (lambda x: (x - 0.7) ** 3, 3.0, -1.0, {}, RuntimeError),  # a triple root: 100 iterations fall short
        (lambda x: x - 1.0, 0.0, 2.0, {"xtol": 0.0}, ValueError),
        (lambda x: x - 1.0, 0.0, 2.0, {"rtol": 1e-17}, ValueError),
        (lambda x: x - 1.0, 0.0, 2.0, {"maxiter": -1}, ValueError),
    ])
    def test_same_exception(self, f, a, b, kwargs, error):
        assert self.assert_as_scipy(f, a, b, **kwargs) is error
