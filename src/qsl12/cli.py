"""Command-line front end.

Everything internal runs dimensionless with Omega_0 = 1; the ``--omega0``
and ``--hbar`` flags only rescale reported times (by 1/W), frequencies
(by W), and energies (by hbar * W) at this layer. Exports are CSV with a
single '#' header line and 17-significant-digit floats (or a JSON mirror via
``--format json``), each accompanied by a run manifest, written atomically.

Exit codes: 0 success, 2 invalid flags, 3 domain error, 4 refinement did not
converge, 5 no transfer found anywhere, 6 isomorphism oracle deviation, 7 the
integrator's step fell below its floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, bloch2, isomorphism, lambda3, ode, shooting

__all__ = ["main"]

EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NO_HIT = 5
EXIT_ORACLE = 6
EXIT_STEP_UNDERFLOW = 7


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _export(args, stem: str, columns: list[str], rows: np.ndarray, started: float,
            results: dict | None = None) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        path = out_dir / f"{stem}.json"
        payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows]}
        _write_atomic(path, json.dumps(payload, indent=1) + "\n")
    else:
        path = out_dir / f"{stem}.csv"
        lines = ["# " + ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        _write_atomic(path, "\n".join(lines) + "\n")
    manifest = {
        "command": args.command_name,
        "parameters": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "command_name") and not k.startswith("_")
        },
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
        "outputs": [path.name],
    }
    if results:
        manifest["results"] = results
    _write_atomic(out_dir / f"{stem}.manifest.json", json.dumps(manifest, indent=1) + "\n")
    return path


def _integrator(args) -> ode.IntegratorConfig:
    if args.tol is None:
        return ode.IntegratorConfig()
    return ode.IntegratorConfig(abs_tol=args.tol, rel_tol=args.tol)


def _shot_config(args) -> shooting.ShotConfig:
    return shooting.ShotConfig(eps=args.eps, horizon=args.horizon, integrator=_integrator(args))


# ---------------------------------------------------------------------------
# two-level
# ---------------------------------------------------------------------------

def _cmd_two_tmin(args) -> int:
    area = bloch2.min_area(-0.5, 0.5 - args.eps)
    print(f"A_min = {area:.10g}")
    print(f"T_min = {area / args.omega0:.10g}")
    return 0


def _cmd_two_curve(args) -> int:
    started = time.monotonic()
    if not 0.0 < args.step < np.inf or not 0.0 <= args.amax < np.inf:
        raise ValueError("--step must be positive and --amax non-negative, both finite")
    if not args.amax / args.step < np.inf:
        raise ValueError("--amax / --step must be finite")
    n = int(np.floor(args.amax / args.step + 1e-9))
    areas = np.arange(n + 1) * args.step
    rows = np.column_stack([
        areas,
        bloch2.transfer_probability(areas),
        bloch2.linear_probability(areas),
        1.0 - bloch2.asymptotic_epsilon(areas),
    ])
    path = _export(args, "two_level_curve", ["area", "p_nonlinear", "p_linear", "p_asymptotic"], rows, started)
    print(f"wrote {path}")
    return 0


def _cmd_two_simulate(args) -> int:
    started = time.monotonic()
    kerr = bloch2.ZERO_KERR
    if args.kerr:
        l11, l12, l22 = (float(v) for v in args.kerr.split(","))
        kerr = bloch2.KerrParams(l11, l12, l22)
    traj = bloch2.resonant_trajectory(0.5 - args.eps, _integrator(args))
    eta = traj.states
    pop1, pop2 = bloch2.populations_from_eta3(eta[:, 2])
    rows = np.column_stack([
        traj.times / args.omega0,
        eta[:, 0],
        eta[:, 1],
        eta[:, 2],
        pop1,
        pop2,
        bloch2.lock_detuning(eta[:, 2], kerr) * args.omega0,
    ])
    path = _export(
        args, "two_level_simulate",
        ["t", "eta1", "eta2", "eta3", "pop1", "pop2", "delta_lock"], rows, started,
    )
    print(f"wrote {path}")
    return 0


def _cmd_two_energy(args) -> int:
    duration = args.T * args.omega0
    omega_min, energy = bloch2.energy_optimum(duration, -0.5, 0.5 - args.eps)
    print(f"Omega0_min = {omega_min * args.omega0:.10g}")
    print(f"E_min = {energy * args.hbar * args.omega0:.10g}")
    return 0


# ---------------------------------------------------------------------------
# three-level
# ---------------------------------------------------------------------------

def _cmd_three_landscape(args) -> int:
    started = time.monotonic()
    lo, hi = (float(v) for v in args.range.split(","))
    grid = shooting.landscape(
        (lo, hi), (lo, hi), (args.res, args.res), _shot_config(args), workers=args.workers
    )
    t_min = grid.t_min  # raises NoFeasiblePoint when nothing hits anywhere
    offsets = grid.log_offsets()
    lphi, ltheta = np.meshgrid(grid.lphi_axis, grid.ltheta_axis, indexing="ij")
    rows = np.column_stack([
        lphi.ravel(),
        ltheta.ravel(),
        grid.times.ravel() / args.omega0,
        offsets.ravel(),
    ])
    path = _export(args, "three_level_landscape", ["lphi", "ltheta", "T", "log10_T_offset"], rows, started)
    print(f"T_min = {t_min / args.omega0:.10g}")
    print(f"wrote {path}")
    return 0


def _cmd_three_optimize(args) -> int:
    started = time.monotonic()
    cfg = _shot_config(args)
    opt = shooting.refine(args.lphi, args.guess, cfg)
    print(f"ltheta_i = {opt.ltheta_i:.10g}")
    print(f"T_min = {opt.t_min / args.omega0:.10g}")
    print(f"A_min = {opt.area:.10g}")
    trajectory, pulses = shooting.extremal(opt, cfg)
    states = trajectory.states
    x1 = np.cos(states[:, 0]) * np.cos(states[:, 1])
    y2 = -np.sin(states[:, 0]) / np.sqrt(2.0)
    x3 = -np.cos(states[:, 0]) * np.sin(states[:, 1]) / np.sqrt(2.0)
    rows = np.column_stack([
        trajectory.times / args.omega0,
        states[:, 0],
        states[:, 1],
        states[:, 2],
        states[:, 3],
        pulses[:, 0] * args.omega0,
        pulses[:, 1] * args.omega0,
        x1 ** 2,
        2.0 * y2 ** 2,
        2.0 * x3 ** 2,
        2.0 * lambda3.ansatz_population(trajectory.times),
    ])
    path = _export(
        args, "three_level_optimal",
        ["t", "phi", "theta", "lphi", "ltheta", "omega_p", "omega_s",
         "pop1", "pop2", "pop3", "ansatz"], rows, started,
    )
    print(f"wrote {path}")
    return 0


def _cmd_three_areacurve(args) -> int:
    started = time.monotonic()
    eps_values = np.geomspace(args.eps_max, args.eps_min, args.n)
    shooting._asymptotic(eps_values)  # the fit's precondition, checked before the solves
    cfg = shooting.ShotConfig(eps=eps_values[0], horizon=args.horizon, integrator=_integrator(args))
    curve = shooting.area_curve(eps_values, cfg, lphi_i=args.lphi)
    slope, intercept = shooting.fit_asymptote(curve)
    print(f"slope = {slope:.10g}")
    print(f"intercept = {intercept:.10g}")
    path = _export(args, "three_level_area_curve", ["eps", "area"], curve, started,
                   results={"slope": slope, "intercept": intercept})
    print(f"wrote {path}")
    return 0


def _cmd_three_energy(args) -> int:
    duration = args.T * args.omega0
    if not 0.0 < duration < np.inf:  # checked before the refinement
        raise ValueError("--T must be positive and finite")
    opt = shooting.refine(*shooting.START_RAY, _shot_config(args))
    result = shooting.energy_optimum3(duration, opt)
    print(f"Omega0_min = {result.omega0_min * args.omega0:.10g}")
    print(f"E_min = {result.energy_min * args.hbar * args.omega0:.10g}")
    return 0


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def _cmd_iso_check(args) -> int:
    costates = None
    if args.costates:
        lphi, ltheta = (float(v) for v in args.costates.split(","))
        costates = (lphi, ltheta)
    result = isomorphism.cross_check(
        _shot_config(args), costates=costates, corrupt_mapping=args.corrupt_mapping
    )
    print(f"hit_time = {result.hit_time:.10g}")
    print(f"amplitude_deviation = {result.amplitude_deviation:.3e}")
    print(f"angle_deviation = {result.angle_deviation:.3e}")
    print(f"roundtrip_deviation = {result.roundtrip_deviation:.3e}")
    print(f"quadrature_deviation = {result.quadrature_deviation:.3e}")
    print(f"max_abs_coherence = {result.max_abs_coherence:.12f}")
    if not result.passed:
        print("FAIL: oracle deviation above threshold")
        return EXIT_ORACLE
    print("all oracles within thresholds")
    return 0


def _cmd_iso_areadiv(args) -> int:
    started = time.monotonic()
    eps_values = [float(v) for v in args.eps_list.split(",")]
    cfg = shooting.ShotConfig(eps=eps_values[0], horizon=args.horizon, integrator=_integrator(args))
    table = isomorphism.area_divergence_check(eps_values, cfg)
    path = _export(args, "iso_area_divergence", ["eps", "pump_area"], table, started)
    order = np.argsort(table[:, 0])[::-1]
    monotone = bool(np.all(np.diff(table[order, 1]) > 0.0))
    print(f"strictly_increasing_as_eps_decreases = {monotone}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Optimal-control bounds for 1:2 nonlinear two- and three-level systems.",
    )
    parser.add_argument("--omega0", type=float, default=1.0, help="physical peak amplitude (rescales outputs)")
    parser.add_argument("--hbar", type=float, default=1.0, help="physical hbar (rescales energies)")
    parser.add_argument("--out", default=".", help="output directory for data exports")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--tol", type=float, default=None, help="integrator abs/rel tolerance")
    parser.add_argument("--horizon", type=float, default=15.0, help="shot horizon in 1/Omega0 units")
    groups = parser.add_subparsers(dest="group", required=True)

    two = groups.add_parser("two-level", help="two-level closed forms and curves")
    two_sub = two.add_subparsers(dest="subcommand", required=True)
    p = two_sub.add_parser("tmin", help="minimum pulse area / time for an accuracy")
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_two_tmin, command_name="two-level tmin")
    p = two_sub.add_parser("curve", help="transfer probability vs pulse area dataset")
    p.add_argument("--amax", type=float, default=14.0)
    p.add_argument("--step", type=float, default=1e-2)
    p.set_defaults(func=_cmd_two_curve, command_name="two-level curve")
    p = two_sub.add_parser("simulate", help="optimal transfer history dataset")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kerr", default=None, metavar="L11,L12,L22")
    p.set_defaults(func=_cmd_two_simulate, command_name="two-level simulate")
    p = two_sub.add_parser("energy", help="minimum amplitude and energy for a fixed time")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_two_energy, command_name="two-level energy")

    three = groups.add_parser("three-level", help="three-level shooting solver")
    three_sub = three.add_subparsers(dest="subcommand", required=True)
    p = three_sub.add_parser("landscape", help="hit-time grid over initial costates")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--range", default="-3,3", metavar="LO,HI")
    p.add_argument("--res", type=int, default=200)
    p.add_argument("--workers", type=int, default=None, help="scan processes (0 or unset: one per CPU)")
    p.set_defaults(func=_cmd_three_landscape, command_name="three-level landscape")
    p = three_sub.add_parser("optimize", help="refine the optimal initial costate ray")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lphi", type=float, default=shooting.START_RAY[0])
    p.add_argument("--guess", type=float, default=shooting.START_RAY[1])
    p.set_defaults(func=_cmd_three_optimize, command_name="three-level optimize")
    p = three_sub.add_parser("areacurve", help="minimum area vs accuracy dataset and fit")
    p.add_argument("--eps-min", type=float, default=1e-3)
    p.add_argument("--eps-max", type=float, default=1e-1)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--lphi", type=float, default=shooting.START_RAY[0])
    p.set_defaults(func=_cmd_three_areacurve, command_name="three-level areacurve")
    p = three_sub.add_parser("energy", help="minimum amplitude and energy for a fixed time")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_three_energy, command_name="three-level energy")

    iso = groups.add_parser("iso", help="two-level counterpart cross-checks")
    iso_sub = iso.add_subparsers(dest="subcommand", required=True)
    p = iso_sub.add_parser("check", help="run the representation-agreement oracles")
    p.add_argument("--eps", type=float, default=0.002)
    p.add_argument("--costates", default=None, metavar="LPHI,LTHETA",
                   help="initial costates to check (skips the refinement)")
    p.add_argument("--corrupt-mapping", action="store_true", help="negative control: use the inconsistent Stokes reduction")
    p.set_defaults(func=_cmd_iso_check, command_name="iso check")
    p = iso_sub.add_parser("areadiv", help="pump-area divergence dataset")
    p.add_argument("--eps-list", default="0.1,0.01,0.001")
    p.set_defaults(func=_cmd_iso_areadiv, command_name="iso areadiv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not all(0.0 < v < np.inf for v in (args.omega0, args.hbar, args.horizon)):
        parser.error("--omega0, --hbar and --horizon must be positive and finite")
    if args.tol is not None and not 0.0 < args.tol < np.inf:
        parser.error("--tol must be positive and finite")
    try:
        return args.func(args)
    except bloch2.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except shooting.NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except shooting.NoFeasiblePoint as exc:
        print(f"no transfer found: {exc}", file=sys.stderr)
        return EXIT_NO_HIT
    except ode.StepUnderflow as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_STEP_UNDERFLOW
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
