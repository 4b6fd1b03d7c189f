"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion states its tolerance inline.
"""

import math

import numpy as np
import pytest

from qsl12 import bloch2, cli, isomorphism, lambda3, ode, shooting

import reference

SQ2 = math.sqrt(2.0)


def criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {description}  {detail}".rstrip())
    assert ok, f"criterion {num}: {description} {detail}"


def test_01_two_level_minimum_area():
    area = bloch2.min_area(-0.5, 0.5 - 0.002)
    criterion(1, "minimum pulse area at eps=0.002 equals 7.5999 +- 1e-3",
              abs(area - 7.5999) <= 1e-3, f"area={area:.6f}")


def test_02_two_level_closed_form_matches_ode():
    rhs = lambda eta: bloch2.bloch_rhs(eta, 1.0, 0.0)
    traj = ode.integrate(rhs, [0.0, 0.0, -0.5], (0.0, 10.0))
    dev = float(np.max(np.abs(traj.states[:, 2] - reference.analytic_eta3(traj.times))))
    criterion(2, "resonant flow matches tanh^2 law within 1e-8 on [0, 10]",
              dev <= 1e-8, f"max deviation={dev:.2e}")


def test_03_kerr_lock_invariance():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        kerr = bloch2.KerrParams(*rng.uniform(-5.0, 5.0, size=3))

        def rhs(psi):
            eta3 = abs(psi[1]) ** 2 - 0.5 * abs(psi[0]) ** 2
            return reference.amplitude_rhs(psi, 1.0, float(bloch2.lock_detuning(eta3, kerr)), kerr)

        traj = ode.integrate(rhs, np.array([1.0 + 0j, 0.0j]), (0.0, 7.6))
        eta3 = np.abs(traj.states[:, 1]) ** 2 - 0.5 * np.abs(traj.states[:, 0]) ** 2
        worst = max(worst, float(np.max(np.abs(eta3 - reference.analytic_eta3(traj.times)))))
    criterion(3, "100 random locked Kerr systems reproduce the bare flow within 1e-6",
              worst <= 1e-6, f"worst deviation={worst:.2e}")


def test_04_probability_curve_export(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "two-level", "curve"])
    capsys.readouterr()
    lines = (tmp_path / "two_level_curve.csv").read_text().strip().split("\n")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    areas = data[:, 0]
    exact_nl = np.array_equal(data[:, 1], np.tanh(areas / 2.0) ** 2)
    exact_lin = np.array_equal(data[:, 2], np.sin(areas / 2.0) ** 2)
    tail = areas > 8.0
    tail_dev = float(np.max(np.abs(data[tail, 1] - (1.0 - 4.0 * np.exp(-areas[tail])))))
    criterion(4, "exported curve is pointwise exact and within 1e-3 of its tail asymptote",
              code == 0 and exact_nl and exact_lin and tail_dev < 1e-3,
              f"tail deviation={tail_dev:.2e}")


def test_05_three_level_optimum_at_eps_0002(cfg002, opt002):
    t_shot = shooting.shoot_info(1.85, 0.45266, cfg002)[0]
    ok = (
        t_shot is not None
        and abs(t_shot - 7.40) <= 0.02
        and abs(opt002.ltheta_i - 0.45266) <= 1e-3
    )
    criterion(5, "shot at (1.85, 0.45266) hits 7.40 +- 0.02 and refinement lands on 0.45266 +- 1e-3",
              ok, f"T={t_shot:.5f} ltheta={opt002.ltheta_i:.6f}")


def test_06_three_level_optimum_at_eps_0005():
    opt = shooting.refine(1.85, 0.7, shooting.ShotConfig(eps=0.005))
    criterion(6, "minimum transfer time at eps=0.005 equals 6.78 +- 0.05",
              abs(opt.t_min - 6.78) <= 0.05, f"T_min={opt.t_min:.5f}")


def test_07_asymptotic_law(cfg002):
    eps_values = np.geomspace(1e-1, 1e-3, 8)
    curve = shooting.area_curve(eps_values, cfg002)
    slope, intercept = shooting.fit_asymptote(curve)
    slope_ok = abs(slope - (-1.0 / SQ2)) <= 0.05 * (1.0 / SQ2)
    intercept_ok = abs(intercept - 3.0) <= 0.3
    criterion(7, "area-vs-accuracy fit gives slope -1/sqrt(2) +- 5% and intercept 3 +- 0.3",
              slope_ok and intercept_ok, f"slope={slope:.4f} intercept={intercept:.3f}")


def test_08_parity_symmetry(cfg002):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        lphi = rng.uniform(0.5, 3.0)
        ltheta = lphi * rng.uniform(0.05, 0.23)
        t_pos = shooting.shoot_info(lphi, ltheta, cfg002)[0]
        t_neg = shooting.shoot_info(-lphi, -ltheta, cfg002)[0]
        assert t_pos is not None and t_neg is not None
        worst = max(worst, abs(t_pos - t_neg))
    criterion(8, "20 mirrored costate pairs give equal hit times within event_tol",
              worst <= ode.EVENT_TOL, f"worst |dT|={worst:.2e}")


def test_09_bang_control_invariants(path002):
    trajectory, pulses = path002
    mags = pulses[:, 0] ** 2 + pulses[:, 1] ** 2
    mag_dev = float(np.max(np.abs(mags - 1.0)))
    h_norm = np.array([
        math.hypot(*reference.h1h2(y[0], y[1], y[2], y[3])) for y in trajectory.states
    ])
    hc_var = float((h_norm.max() - h_norm.min()) / h_norm.mean())
    criterion(9, "pulse magnitude saturated within 1e-10 and control Hamiltonian constant within 1e-6",
              mag_dev < 1e-10 and hc_var < 1e-6, f"|mag-1|={mag_dev:.2e} dHc/Hc={hc_var:.2e}")


def test_10_population_ansatz(path002):
    trajectory, _ = path002
    states = trajectory.states
    transferred = 0.5 * np.sin(states[:, 0]) ** 2 + 0.5 * (np.cos(states[:, 0]) * np.sin(states[:, 1])) ** 2
    dev = float(np.max(np.abs(transferred - lambda3.ansatz_population(trajectory.times))))
    criterion(10, "tanh^2 population ansatz tracks the optimum within 0.02",
              dev <= 0.02, f"sup deviation={dev:.4f}")


def test_11_energy_relations(cfg002, opt002):
    duration = 10.0
    omega3, e3 = bloch2.energy_optimum(duration, opt002.area)
    identity3 = e3 == pytest.approx(opt002.area ** 2 / duration, rel=1e-14)
    area2 = bloch2.min_area(-0.5, 0.498)
    omega2, e2 = bloch2.energy_optimum(duration, area2)
    identity2 = e2 == pytest.approx(area2 ** 2 / duration, rel=1e-14) and omega2 == pytest.approx(area2 / duration, rel=1e-14)
    hit = reference.energy_shot(omega3, opt002, cfg002)
    rel_err = abs(hit - duration) / duration
    criterion(11, "energy = area^2/T in both systems and the rescaled closed loop hits T within 1e-4",
              identity2 and identity3 and rel_err <= 1e-4,
              f"hit={hit:.8f} rel_err={rel_err:.2e}")


def test_12_counterpart_two_level_oracles(cfg002, opt002):
    result = isomorphism.cross_check(cfg002, costates=(opt002.lphi_i, opt002.ltheta_i))
    table = isomorphism.area_divergence_check([0.05, 0.01, 0.002], cfg002)
    areas_increase = bool(np.all(np.diff(table[:, 1]) > 0.0))
    ok = (
        result.amplitude_deviation <= 1e-7
        and result.angle_deviation <= 1e-7
        and result.quadrature_deviation <= 1e-6
        and result.max_abs_coherence < 1.0
        and areas_increase
    )
    criterion(12, "counterpart-problem oracles agree (1e-7/1e-6), coherence < 1, pump area diverges",
              ok,
              f"amp={result.amplitude_deviation:.1e} angle={result.angle_deviation:.1e} "
              f"quad={result.quadrature_deviation:.1e} |rho_x|max={result.max_abs_coherence:.6f}")
