import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from qsl12 import bloch2, lambda3, ode, shooting


def rotation_rhs(y):
    return [-y[1], y[0]]


class TestIntegrate:
    def test_zero_field_is_constant(self):
        traj = ode.integrate(lambda y: [0.0, 0.0], [1.0, 0.0], (0.0, 5.0))
        assert np.all(traj.states == np.array([1.0, 0.0]))
        assert traj.times[0] == 0.0 and traj.times[-1] == 5.0

    def test_harmonic_rotation_by_pi(self):
        traj = ode.integrate(rotation_rhs, [1.0, 0.0], (0.0, math.pi))
        assert np.allclose(traj.states[-1], [-1.0, 0.0], atol=1e-8)

    def test_resonant_two_level_reference_inversion(self):
        # constant resonant pulse from the south pole; the inversion obeys
        # tanh^2(t/2) - 1/2, giving 0.498 at the reference area 7.5999
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        traj = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 7.5999))
        assert traj.states[-1][2] == pytest.approx(0.498, abs=1e-6)

    def test_deterministic_bitwise(self):
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
        a = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 3.0))
        b = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 3.0))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_against_scipy_oracle(self):
        # independent high-accuracy integrator on the same nonlinear flow
        rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.3)
        mine = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 6.0)).states[-1]
        ref = solve_ivp(lambda t, eta: rhs(eta), (0.0, 6.0), [0.0, 0.0, -0.5], rtol=1e-12, atol=1e-12).y[:, -1]
        assert np.allclose(mine, ref, atol=1e-9)

    def test_complex_states_supported(self):
        rhs = lambda y: [1j * y[0]]
        final = ode.integrate(rhs, np.array([1.0 + 0.0j]), (0.0, math.pi)).states[-1]
        assert abs(final[0] + 1.0) < 1e-9

    @pytest.mark.parametrize("t1, rows", [(4.0, 401), (10.0, 1001)])
    def test_capped_run_ends_on_the_span_without_a_sliver(self, t1, rows):
        # every step is the cap, and t's accumulated rounding leaves the run
        # short of t1 by more than MIN_STEP (4.1e-14 and 1.7e-13): that is
        # rounding, so the last capped step ends the run at t1
        traj = ode.integrate(lambda y: [-y[1], y[0]], [1.0, 0.0], (0.0, t1))
        assert len(traj.times) == rows and traj.times[-1] == t1
        assert np.diff(traj.times).min() > 0.99 * ode.MAX_STEP

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
    """The step runs on Python floats; rhs and event see lists, and so does
    the caller at a hit; a path or trajectory holds ndarrays."""

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
        assert type(hit.y) is list and len(hit.y) == 2 and all(type(v) is scalar for v in hit.y)
        assert isinstance(traj.states[-1], np.ndarray)

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

    @pytest.mark.parametrize("kind", [list, tuple])
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

    def test_the_step_calls_the_callers_rhs(self, monkeypatch):
        # no adapter stands between the caller and the generated step, not
        # even for a slope outside the contract, such as an ndarray
        called = []
        dp5 = ode._dp5

        def recording(d):
            step = dp5(d)

            def recorded(rhs, y, k1, h, tol):
                called.append(rhs)
                return step(rhs, y, k1, h, tol)

            return recorded

        monkeypatch.setattr(ode, "_dp5", recording)
        for rhs in (rotation_rhs, lambda y: np.array([-y[1], y[0]])):
            called.clear()
            ode.integrate(rhs, [1.0, 0.0], (0.0, 1.0))
            list(ode.nodes(rhs, [1.0, 0.0], (0.0, 1.0)))
            ode.locate_event(rhs, [1.0, 0.0], (0.0, 5.0), lambda y: y[0] + 0.5)
            assert called and all(f is rhs for f in called)

    def test_rhs_of_wrong_length_rejected(self):
        for slope in (np.zeros(3), (0.0, 0.0, 0.0), (0.0,), [0.0]):
            with pytest.raises(ValueError):
                ode.integrate(lambda y: slope, [1.0, 0.0], (0.0, 1.0))
            with pytest.raises(ValueError):
                ode.locate_event(lambda y: slope, [1.0, 0.0], (0.0, 1.0), lambda y: y[0] + 2.0)

    @pytest.mark.parametrize("kind", [list, np.array])
    @pytest.mark.parametrize("width", [1, 3])
    def test_rhs_of_wrong_length_on_a_later_call_rejected(self, kind, width):
        # the first slope has the state's two components, a slope inside the
        # first step has another count: each step's slopes are checked too
        def rhs(y):
            calls.append(y)
            return kind([-y[1], y[0]] if len(calls) < 4 else [0.0] * width)

        runs = [
            lambda: ode.integrate(rhs, [1.0, 0.0], (0.0, 1.0)),
            lambda: list(ode.nodes(rhs, [1.0, 0.0], (0.0, 1.0))),
            lambda: ode.locate_event(rhs, [1.0, 0.0], (0.0, 1.0), lambda y: y[0] + 2.0),
        ]
        for run in runs:
            calls = []
            with pytest.raises(ValueError):
                run()
            assert len(calls) == 4

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 11, 14])
    def test_error_norm_matches_array_form(self, n):
        # the step's norm against the array form it replaced, on the
        # reference step's error: bit for bit below 8 components, where
        # numpy also sums in order; from 8 on numpy sums pairwise
        rng = np.random.default_rng(n)
        tol = ode.TOL
        for _ in range(50):
            y, c, b = (rng.standard_normal(n) * 10.0 ** rng.uniform(-9, 1, n) for _ in range(3))
            rhs = lambda y: [ci * v * v + bi for ci, v, bi in zip(c, y, b)]  # noqa: E731
            y, h = y.tolist(), float(10.0 ** rng.uniform(-4, -1))
            y_new, _, norm = ode._dp5(n)(rhs, y, rhs(y), h, tol)
            err = np.array(reference_step(rhs, y, rhs(y), h)[2])
            scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
            q = np.abs(err) / scale
            expected = float(np.sqrt(np.mean(q * q)))
            if n < 8:
                assert norm == expected
            else:
                assert norm == pytest.approx(expected, rel=4 * n * 2.0 ** -52)


# The DP5 step and its error norm in the list-comprehension and loop forms
# that ode generates straight-line code from: the reference the generated
# code reproduces bit for bit.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40


def reference_step(rhs, y, k1, h):
    k2 = rhs([a + h * (_A21 * b1) for a, b1 in zip(y, k1)])
    k3 = rhs([a + h * (_A31 * b1 + _A32 * b2) for a, b1, b2 in zip(y, k1, k2)])
    k4 = rhs([
        a + h * (_A41 * b1 + _A42 * b2 + _A43 * b3) for a, b1, b2, b3 in zip(y, k1, k2, k3)
    ])
    k5 = rhs([
        a + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ])
    k6 = rhs([
        a + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5)
        for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)
    ])
    y_new = [
        a + h * (_A71 * b1 + _A73 * b3 + _A74 * b4 + _A75 * b5 + _A76 * b6)
        for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = rhs(y_new)
    err = [
        h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6 + _E7 * b7)
        for b1, b3, b4, b5, b6, b7 in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y_new, (k1, k2, k3, k4, k5, k6, k7), err


def reference_error_norm(err, y_old, y_new, tol):
    total = 0.0
    for e, a, b in zip(err, y_old, y_new):
        q = abs(e) / (tol + tol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(err))


def reference_steps(rhs, t0, y0, t1, tol, max_step=math.inf):
    """``ode._steps`` in the form it had with the builtin ``min`` and
    ``max``, on the reference step and norm: the controller whose nodes, as
    (t, y, K, h), the spelled-out comparisons reproduce bit for bit."""
    t, y, h = t0, y0, min(ode.MAX_STEP, t1 - t0)
    K = (rhs(y),)
    yield t, y, K, 0.0
    half_ulp = 0.5 * math.ulp(max(abs(t0), abs(t1)))
    n = 0
    while True:
        remaining = t1 - t
        if remaining <= ode.MIN_STEP:
            return
        h = min(h, remaining)
        if h < ode.MIN_STEP:
            raise ode.StepUnderflow(f"step size {h:.3e} below {ode.MIN_STEP:.0e} at t={t!r}")
        y_new, K_new, err = reference_step(rhs, y, K[-1], h)
        enorm = reference_error_norm(err, y, y_new, tol)
        if enorm <= 1.0:
            n += 1
            t = t1 if (t1 - (t + h)) <= max(ode.MIN_STEP, n * half_ulp) else t + h
            y, K = y_new, K_new
            yield t, y, K, h
            factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        else:
            factor = max(0.2, 0.9 * enorm ** -0.2)
        h = min(max_step, h * factor)


def bits(values):
    """The bytes of a sequence of numbers or arrays, so -0.0 differs from 0.0."""
    return b"".join(np.asarray(v).tobytes() for v in values)


class TestGeneratedStep:
    """The DP5 step with its error norm, ``ode._dp5(d)``, runs code
    generated from the tableau, one function per state width; each float is
    the reference's."""

    @staticmethod
    def coupled(d, c):
        # a nonlinear flow that couples every component to its neighbours
        return lambda y: [c * y[i] * y[i - 1] - 0.2 * y[(i + 1) % d] + 0.1 for i in range(d)]

    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("d", range(1, 16))
    def test_step_and_norm_are_the_reference_bit_for_bit(self, d, kind):
        rng = np.random.default_rng(d)
        rhs = self.coupled(d, 0.7j if kind is complex else 0.7)
        for _ in range(20):
            y = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 1, d)
            if kind is complex:
                y = y + 1j * rng.standard_normal(d)
            y, h = y.tolist(), float(10.0 ** rng.uniform(-4, -1))
            ref = reference_step(rhs, y, rhs(y), h)
            for tol in (1e-10, 1e-6):
                y_new, K, norm = ode._dp5(d)(rhs, y, rhs(y), h, tol)
                assert y_new == ref[0] and bits(y_new) == bits(ref[0])
                assert len(K) == 7
                for k, k_ref in zip(K, ref[1]):
                    assert k == k_ref and bits(k) == bits(k_ref)
                assert type(norm) is float
                assert bits([norm]) == bits([reference_error_norm(ref[2], y, ref[0], tol)])

    def test_compiled_once_per_width(self):
        assert ode._dp5(4) is ode._dp5(4) and ode._dp5(4).__name__ == "_dp5_step_4"


class TestLaneStep:
    """``ode._lane_step``, the lanes' DP5 step: a (d, n) block on a (7, d, n)
    stage buffer, one einsum per stage sum."""

    @staticmethod
    def step(rhs, Y, h=0.01):
        K = np.empty((7, *Y.shape))
        ode._put(K[0], rhs(Y))
        y_new, err = ode._lane_step(rhs, Y, K, h)
        return y_new, K, err

    @pytest.mark.parametrize("flow", ["lanes", 1, 3, 12])
    def test_is_the_reference_bit_for_bit(self, flow):
        # the reference on the one-element state [Y], each stage sum term by
        # term on the whole block: the landscape's flow on 50 lanes, and a
        # flow coupling d components
        rng = np.random.default_rng(4)
        if flow == "lanes":
            rhs, Y = lambda3.extremal_lanes, rng.uniform(-3.0, 3.0, (4, 50))
        else:
            rhs, Y = TestGeneratedStep.coupled(flow, 0.7), rng.standard_normal((flow, 40))

        def block_rhs(state):
            return (np.array(rhs(state[0])),)

        y_new, K, err = self.step(rhs, Y)
        (y_ref,), K_ref, (err_ref,) = reference_step(block_rhs, [Y], block_rhs([Y]), 0.01)
        assert y_new.tobytes() == y_ref.tobytes()
        assert bits(K) == bits(k for (k,) in K_ref)
        assert err.tobytes() == err_ref.tobytes()

    def test_a_lane_does_not_depend_on_its_block(self):
        # the 729 lanes of the 60x60 grid over +-3 at random angles: each
        # column stepped alone, and the columns in chunks from an odd offset,
        # step to the whole block's floats bit for bit, so a lane's time
        # depends neither on the split over workers nor on which lanes
        # retired. A BLAS route to the stage sums (matmul, tensordot,
        # einsum(optimize=True)) promises no such thing: its kernels may sum
        # a column by the product's width and alignment, and its order
        # already fails the reference above
        rng = np.random.default_rng(5)
        lphi0, ltheta0, _ = shooting._lanes((-3.0, 3.0), np.linspace(-3.0, 3.0, 60))
        Y = np.vstack([rng.uniform(-1.0, 1.0, (2, lphi0.size)), lphi0, ltheta0])
        block = self.step(lambda3.extremal_lanes, Y)
        assert Y.shape == (4, 729) and np.isfinite(block[0]).all()
        for j in range(Y.shape[1]):
            alone = self.step(lambda3.extremal_lanes, Y[:, [j]])
            assert bits(alone) == bits([block[0][:, [j]], block[1][:, :, [j]], block[2][:, [j]]])
        for width in (1, 2, 3, 29, 364):
            for start in range(1, Y.shape[1] - width + 1, width):
                cols = slice(start, start + width)
                chunk = self.step(lambda3.extremal_lanes, Y[:, cols])
                assert bits(chunk) == bits([block[0][:, cols], block[1][:, :, cols], block[2][:, cols]])


def reference_rate(event, y, ydot, dt):
    """The list-comprehension form of the event's rate that ode generates
    straight-line code from."""
    ahead = [a + dt * v for a, v in zip(y, ydot)]
    behind = [a - dt * v for a, v in zip(y, ydot)]
    return (event(ahead) - event(behind)) / (2.0 * dt)


class TestGeneratedRate:
    """``ode._rate(d)`` is the event's central-difference rate, generated per
    state width apart from the step; each float is the reference's."""

    @staticmethod
    def event(y):
        # nonlinear in every component, so each one's rounding shows
        return sum(c * c * (i + 1) for i, c in enumerate(y)) - 0.3 * y[0] * y[-1]

    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 12, 15])
    def test_rate_is_the_reference_bit_for_bit(self, d, kind):
        rng = np.random.default_rng(100 + d)
        seen = []

        def event(y):
            seen.append(list(y))
            return self.event(y)

        for _ in range(20):
            y, ydot = (rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 1, d) for _ in range(2))
            if kind is complex:
                y, ydot = y + 1j * rng.standard_normal(d), ydot - 1j * rng.standard_normal(d)
            y, ydot, dt = y.tolist(), ydot.tolist(), float(10.0 ** rng.uniform(-8, -3))
            seen.clear()
            rate = ode._rate(d)(event, y, ydot, dt)
            points = list(seen)
            seen.clear()
            expected = reference_rate(event, y, ydot, dt)
            assert type(rate) is type(expected) and bits([rate]) == bits([expected])
            assert bits(points) == bits(seen)  # the event sees the same two states

    def test_compiled_once_per_width_apart_from_the_step(self):
        assert ode._rate(4) is ode._rate(4) and ode._rate(4).__name__ == "_rate_4"
        assert all("event" not in ode._dp5_source(d) for d in (4, 12, 15))

    def test_a_run_without_events_compiles_no_rate(self, monkeypatch):
        # integrate and nodes never read a rate, so they never pay its compile
        compiled = []
        monkeypatch.setattr(ode, "_rate_source", lambda d: compiled.append(d) or "")
        ode._rate.cache_clear()
        try:
            ode.integrate(TestGeneratedStep.coupled(12, 0.1), [0.1] * 12, (0.0, 0.5))
            list(ode.nodes(TestGeneratedStep.coupled(15, 0.1), [0.1] * 15, (0.0, 0.5)))
        finally:
            ode._rate.cache_clear()
        assert compiled == []


class TestNonFiniteRhs:
    """A non-finite slope fails every step, so the step shrinks to MIN_STEP."""

    @staticmethod
    def rhs_turning(bad):
        # y[0] has slope 1, so it is the clock: finite until t = 0.5, non-finite after
        return lambda y: [bad if y[0] > 0.5 else 1.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("from_start", [True, False])
    def test_step_underflow(self, bad, from_start):
        rhs = (lambda y: [bad, bad]) if from_start else self.rhs_turning(bad)
        with pytest.raises(ode.StepUnderflow):
            ode.integrate(rhs, [0.0, 0.0], (0.0, 1.0))
        with pytest.raises(ode.StepUnderflow):
            ode.locate_event(rhs, [0.0, 0.0], (0.0, 1.0), lambda y: y[0] - 10.0)
        with pytest.raises(ode.StepUnderflow):
            list(ode.nodes(rhs, [0.0, 0.0], (0.0, 1.0)))


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

    @pytest.mark.parametrize("fields", [dict(eps=2.0), dict(eps=0.0), dict(horizon=math.inf), dict(tol=-1.0)])
    def test_replace_checks_as_the_constructor(self, fields):
        # _replace builds through _make, and _make through __new__
        cfg = shooting.ShotConfig(0.002)
        assert cfg._replace(eps=0.005, tol=1e-8) == shooting.ShotConfig(0.005, tol=1e-8)
        assert shooting.ShotConfig._make([0.1, 2.0, 1e-6]) == shooting.ShotConfig(0.1, 2.0, 1e-6)
        with pytest.raises(ValueError, match="must"):
            cfg._replace(**fields)
        with pytest.raises(ValueError, match="must"):
            shooting.ShotConfig._make({**cfg._asdict(), **fields}.values())

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
        rhs = lambda y: [1.0]
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
        rhs = lambda y: [1.0]
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


def reference_locate_event(rhs, y0, t_span, event, tol=ode.TOL, stop=math.inf):
    """``locate_event`` with no screen: the crossing rule runs on every
    step, and the path is built at the hit, as ``(t, y, trajectory)``, y
    the list the search holds there."""
    steps = ode._steps(rhs, t_span[0], ode._as_state(y0), t_span[1], tol)
    t_a, y_a, _, _ = next(steps)
    e_a = float(event(y_a))
    times, states = [t_a], [y_a]
    if e_a != 0.0:
        for t_b, y_b, K, h in steps:
            e_b = float(event(y_b))
            crossed = e_b == 0.0 or (e_b > 0.0) != (e_a > 0.0)
            rate, dt = ode._rate(len(y_b)), ode._RATE_DT * h
            r_a, r_b = (None, None) if crossed else (rate(event, y_a, K[0], dt), rate(event, y_b, K[-1], dt))
            found = ode._crossing(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h, r_a, r_b)
            if found is not None:
                if found[0] > t_a:
                    times.append(found[0])
                    states.append(found[1])
                break
            if t_b >= stop:
                return None
            times.append(t_b)
            states.append(y_b)
            t_a, y_a, e_a = t_b, y_b, e_b
        else:
            return None
    path = ode.Trajectory(np.asarray(times), np.asarray(states))
    return times[-1], states[-1], path


def resonant_rhs(eta):
    return bloch2.bloch_rhs(eta, 1.0, 0.0)


_REFERENCE_SHOT = (lambda3.extremal_rhs, [0.0, 0.0, 1.85, 0.45266], (0.0, 15.0), TestLocateEvent.x3sq_excess)
SCREEN_CASES = {
    "equator": (resonant_rhs, [0.0, 0.0, -0.5], (0.0, 5.0), lambda eta: eta[2]),
    "away-from-zero": (resonant_rhs, [0.0, 0.0, -0.5], (0.0, 5.0), lambda eta: eta[2] + 0.6),
    "graze-between-nodes": (lambda y: [1.0], [0.0], (0.0, 2.0), lambda y: 1e-6 - (y[0] - 0.735) ** 2),
    "oscillating-miss": (rotation_rhs, [1.0, 0.0], (0.0, 20.0), lambda y: y[0] - 1.0001),
    "reference-shot": _REFERENCE_SHOT,
    "complex": (lambda y: [1j * y[0]], [1.0 + 0.0j], (0.0, 4.0), lambda y: y[0].real + 0.5),
}


def assert_same_hit(hit, ref):
    if ref is None:
        assert hit is None
        return
    t, y, path = ref
    assert bits([hit.t]) == bits([t]) and type(hit.t) is type(t)
    assert type(hit.y) is list and list(map(type, hit.y)) == list(map(type, y)) and bits(hit.y) == bits(y)
    assert hit.trajectory.times.dtype == path.times.dtype and bits([hit.trajectory.times]) == bits([path.times])
    assert hit.trajectory.states.dtype == path.states.dtype and bits([hit.trajectory.states]) == bits([path.states])


class TestScreen:
    """``locate_event`` runs the crossing rule only on a step that changes
    sign or moves away from zero at its end; it finds what the rule run on
    every step finds, bit for bit."""

    @pytest.mark.parametrize("case", SCREEN_CASES)
    def test_screened_search_is_the_unscreened_bit_for_bit(self, case):
        rhs, y0, t_span, event = SCREEN_CASES[case]
        assert_same_hit(ode.locate_event(rhs, y0, t_span, event), reference_locate_event(rhs, y0, t_span, event))

    def test_crossing_just_after_a_node(self):
        # the level a hair above the node at t = 0.31, as in TestLocateEvent
        rhs = lambda y: [1.0]
        search = ode.locate_event(rhs, [0.0], (0.0, 1.0), lambda y: y[0] - 0.9).trajectory
        level = np.nextafter(search.states[3, 0], np.inf)
        hit = ode.locate_event(rhs, [0.0], (0.0, 1.0), lambda y: y[0] - level)
        assert_same_hit(hit, reference_locate_event(rhs, [0.0], (0.0, 1.0), lambda y: y[0] - level))
        assert hit.trajectory.times[-2] < hit.t

    @pytest.mark.parametrize("max_step", [0.01, 0.05, 0.5, math.inf])
    def test_grazing_reference_hit_at_any_step_cap(self, max_step, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEP", max_step)
        assert_same_hit(ode.locate_event(*_REFERENCE_SHOT), reference_locate_event(*_REFERENCE_SHOT))

    def test_stops(self):
        # a stop at or after the hitting step keeps the full hit; one
        # before it ends the search with None, as unscreened
        full = reference_locate_event(*_REFERENCE_SHOT)
        for stop in (0.5 * (full[2].times[-2] + full[0]), full[0], 7.5, 15.0, 5.0):
            ref = reference_locate_event(*_REFERENCE_SHOT, stop=stop)
            assert (ref is None) == (stop == 5.0)
            assert_same_hit(ode.locate_event(*_REFERENCE_SHOT, stop=stop), ref)

    def test_reference_shot_decides_almost_no_step(self, monkeypatch):
        # about 180 steps, and the event moves toward its target until the
        # step of the hit: the rule runs there and at most once more
        crossing, decided = ode._crossing, []

        def counted(*args):
            decided.append(args[1])
            return crossing(*args)

        monkeypatch.setattr(ode, "_crossing", counted)
        hit = ode.locate_event(*_REFERENCE_SHOT)
        assert len(hit.trajectory.times) > 170
        assert 1 <= len(decided) <= 2


def run_steps(steps):
    """The nodes a controller yields, then the message of the StepUnderflow
    that ends it, if one does."""
    out = []
    try:
        out.extend(steps)
    except ode.StepUnderflow as exc:
        out.append(str(exc))
    return out


class TestController:
    """``ode._steps`` spells each ``min`` and ``max`` as the comparison the
    builtin makes and reads the norm from the step: its nodes are the
    builtin form's on the reference step and norm, node for node, bit for
    bit, and a NaN or infinite slope still ends it in StepUnderflow at the
    same t."""

    @staticmethod
    def assert_same_steps(rhs, y0, t_span, tol=ode.TOL, max_step=math.inf):
        y0 = ode._as_state(y0)
        got = run_steps(ode._steps(rhs, t_span[0], y0, t_span[1], tol, max_step))
        ref = run_steps(reference_steps(rhs, t_span[0], y0, t_span[1], tol, max_step))
        assert len(got) == len(ref)
        for node, ref_node in zip(got, ref):
            if isinstance(ref_node, str):
                assert node == ref_node
                continue
            (t, y, K, h), (t_ref, y_ref, K_ref, h_ref) = node, ref_node
            assert bits([t, h]) == bits([t_ref, h_ref])
            assert type(y) is list and bits(y) == bits(y_ref) and bits(K) == bits(K_ref)
        return got

    @pytest.mark.parametrize("max_step", [math.inf, ode.MAX_STEP])
    @pytest.mark.parametrize("tol", [ode.TOL, 1e-6])
    @pytest.mark.parametrize("case", SCREEN_CASES)
    def test_is_the_builtin_form_bit_for_bit(self, case, tol, max_step):
        rhs, y0, t_span, _ = SCREEN_CASES[case]
        assert len(self.assert_same_steps(rhs, y0, t_span, tol, max_step)) > 3

    def test_zero_error_grows_the_step_fivefold(self):
        # a zero slope leaves a zero error, whose factor is 5 itself
        nodes = self.assert_same_steps(lambda y: [0.0, 0.0], [1.0, 2.0], (0.0, 10.0))
        assert [h for _, _, _, h in nodes[1:5]] == [0.01, 0.05, 0.25, 1.25]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("from_start", [True, False])
    def test_non_finite_slope_underflows_at_the_same_t(self, bad, from_start):
        rhs = (lambda y: [bad, bad]) if from_start else TestNonFiniteRhs.rhs_turning(bad)
        nodes = self.assert_same_steps(rhs, [0.0, 0.0], (0.0, 1.0))
        assert nodes[-1].startswith("step size") and (len(nodes) > 2) != from_start


class TestLazyPath:
    """``EventHit.trajectory`` is built from the search's lists when first
    read; the hit's t and y are there at once."""

    @staticmethod
    def counting(monkeypatch):
        built = []

        class Counted(ode.Trajectory):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(ode, "Trajectory", Counted)
        return built

    def test_refine_builds_no_path(self, cfg002, monkeypatch):
        built = self.counting(monkeypatch)
        opt = shooting.refine(1.85, 0.9, cfg002)
        assert opt.t_min == pytest.approx(7.40, abs=0.02)
        assert built == []
        hit = ode.locate_event(*_REFERENCE_SHOT)
        assert built == []
        assert hit.trajectory is hit.trajectory  # built on the first read, once
        assert len(built) == 1

    @pytest.mark.parametrize("case, dtype", [("reference-shot", np.float64), ("complex", np.complex128)])
    def test_path_read_is_the_eager_build(self, case, dtype):
        rhs, y0, t_span, event = SCREEN_CASES[case]
        hit = ode.locate_event(rhs, y0, t_span, event)
        assert hit.trajectory.states.dtype == dtype
        assert_same_hit(hit, reference_locate_event(rhs, y0, t_span, event))

    def test_hit_at_the_start(self):
        # no step taken: the path is the start alone
        hit = ode.locate_event(resonant_rhs, [0.0, 0.0, -0.5], (0.0, 1.0), lambda eta: eta[2] + 0.5)
        assert hit.t == 0.0 and hit.y == [0.0, 0.0, -0.5]
        assert hit.trajectory.times.tolist() == [0.0] and np.array_equal(hit.trajectory.states, [hit.y])


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

    def test_rhs_components_are_counted_on_every_call(self):
        # the first slope is right, a slope inside the first step is not
        calls = []

        def rhs(Y):
            calls.append(Y)
            return self.drift(Y)[:2] if len(calls) == 3 else self.drift(Y)

        Y = np.array([[1.0], [0.0], [0.735 - 0.25]])
        with pytest.raises(ValueError, match="rhs returned 2 components for a state of 3"):
            ode.locate_lane_events(rhs, Y, 2.0, self.event)
        assert len(calls) == 3

    @pytest.mark.parametrize("costate_range, res, eps, candidates", [
        ((-2.0, 2.0), 12, 0.005, 8),
        ((-1.0, 3.0), 20, 0.002, 102),
    ], ids=["12x12", "20x20"])
    def test_the_rule_reads_the_screens_rate(self, costate_range, res, eps, candidates, monkeypatch):
        # a lane step the screen flags without a sign change, a graze
        # candidate, reaches the crossing rule with the screen's rates at the
        # step's two ends, which are the rule's own rates there bit for bit
        crossing, grazes = ode._crossing, []

        def checked(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h, r_a=None, r_b=None):
            if not (e_b == 0.0 or (e_b > 0.0) != (e_a > 0.0)):
                rate, dt = ode._rate(4), ode._RATE_DT * h
                grazes.append(((r_a, r_b), (rate(event, y_a, K[0], dt), rate(event, y_b, K[-1], dt))))
            return crossing(event, t_a, y_a, e_a, t_b, y_b, e_b, K, h, r_a, r_b)

        monkeypatch.setattr(ode, "_crossing", checked)
        shooting.landscape(costate_range, res, shooting.ShotConfig(eps=eps), workers=1)
        assert len(grazes) == candidates
        assert all(None not in passed and bits(passed) == bits(rates) for passed, rates in grazes)

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

    def test_default_rtol_is_four_machine_epsilons(self):
        # the floor and default of rtol, taken from sys.float_info, is
        # numpy's (and scipy's) 4 * finfo(float).eps
        assert ode._BRENTQ_RTOL == 4 * np.finfo(float).eps


class TestExtension:
    """``_crossing`` reads a step's continuous extension on Python floats,
    its coefficients and products summed in a fixed order; it is the array
    form ``y_a + h * (K.T @ _P) @ (x, x^2, x^3, x^4)``, and its velocity
    ``(K.T @ _P) @ (1, 2x, 3x^2, 4x^3)``, up to the order of the sums."""

    @staticmethod
    def steps(rhs, y0, t1):
        """Every accepted step of a run, as (y_a, K, h)."""
        nodes = list(ode._steps(rhs, 0.0, y0, t1, ode.TOL))
        return [(y_a, K, h) for (_, y_a, _, _), (_, _, K, h) in zip(nodes, nodes[1:])]

    @pytest.mark.parametrize("rhs, y0, t1", [
        (lambda3.extremal_rhs, [0.0, 0.0, 1.85, 0.45266], 7.5),
        (lambda y: [1j * y[0], -0.5 * y[1]], [1.0 + 0.5j, 2.0 - 1.0j], 3.0),
    ])
    def test_is_the_array_form(self, rhs, y0, t1):
        # each component within 16 machine epsilons of the scale of its
        # terms, |y_a| + |h| * sum_j |K_j| |P_jm| |x^m| (and without |y_a|
        # for the velocity), set before the run: the two forms differ only
        # in the order of at most 7 + 4 rounded sums
        P = np.array(ode._P)
        rng = np.random.default_rng(41)
        eps = np.finfo(float).eps
        steps = self.steps(rhs, y0, t1)
        assert len(steps) > 50
        for y_a, K, h in steps:
            state, velocity = ode._extension(y_a, K, h)
            Q, scale = np.array(K).T @ P, np.abs(np.array(K)).T @ np.abs(P)
            for x in (0.0, 1.0, *rng.uniform(0.0, 1.0, 3).tolist()):
                powers = np.array([x, x * x, x ** 3, x ** 4])
                rates = np.array([1.0, 2.0 * x, 3.0 * x * x, 4.0 * x ** 3])
                y, v = state(x), velocity(x)
                assert type(y) is type(v) is list and len(y) == len(v) == len(y_a)
                assert type(y[0]) is type(y_a[0]) and type(v[0]) is type(y_a[0])
                expected = np.array(y_a) + h * (Q @ powers)
                bound = 16.0 * eps * (np.abs(y_a) + abs(h) * (scale @ powers))
                assert np.all(np.abs(np.array(y) - expected) <= bound)
                bound = 16.0 * eps * (scale @ rates)
                assert np.all(np.abs(np.array(v) - Q @ rates) <= bound)
