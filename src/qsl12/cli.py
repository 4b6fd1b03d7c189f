"""Command-line front end.

Everything internal runs dimensionless with Omega_0 = 1; the ``--omega0``
and ``--hbar`` flags only rescale reported times (by 1/W), frequencies
(by W), and energies (by hbar * W) at this layer. Exports are CSV with a
single '#' header line and 17-significant-digit floats (or a strict JSON
mirror via ``--format json``, NaN as null), each accompanied by a run
manifest, written atomically.

Exit codes: 0 success, 2 invalid flags, 3 domain error, 4 refinement did not
converge, 5 no transfer found anywhere, 6 isomorphism oracle deviation, 7 the
integrator's step fell below its floor.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__, bloch2, isomorphism, lambda3, ode, shooting
from ._lazy import np

__all__ = ["main"]

EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NO_HIT = 5
EXIT_ORACLE = 6
EXIT_STEP_UNDERFLOW = 7


def _write_atomic(path: Path, lines) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _export(args, stem: str, columns: list[str], rows, results: dict | None = None) -> None:
    """Write ``rows``, one float per column each (an ndarray or lists of
    floats), and their manifest atomically under --out; print the data
    file's path."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if hasattr(rows, "tolist"):
        # an ndarray's rows as Python floats, one at a time: "%" and
        # float() read its float64 scalars more slowly
        rows = (row.tolist() for row in rows)
    if args.format == "json":
        path = out_dir / f"{stem}.json"
        # RFC 8259 has no NaN or Infinity: a non-finite entry is null; the
        # text is streamed in the encoder's chunks, json.dumps's bytes
        rows = [[v if math.isfinite(v) else None for v in map(float, row)] for row in rows]
        chunks = json.JSONEncoder(indent=1, allow_nan=False).iterencode({"columns": columns, "rows": rows})
        _write_atomic(path, itertools.chain(chunks, ["\n"]))
    else:
        path = out_dir / f"{stem}.csv"
        # one %-format per row, each cell "%.17g" % v, streamed: the table
        # is never held as text
        row_format = ",".join(["%.17g"] * len(columns)) + "\n"
        lines = (row_format % tuple(row) for row in rows)
        _write_atomic(path, itertools.chain(["# " + ",".join(columns) + "\n"], lines))
    manifest = {
        "command": f"{args.group} {args.subcommand}",
        "parameters": {
            k: v for k, v in sorted(vars(args).items())
            if k != "func" and not k.startswith("_")
        },
        "version": __version__,
        "wall_time_s": time.monotonic() - args._start,
        "outputs": [path.name],
    }
    if results:
        manifest["results"] = results
    _write_atomic(out_dir / f"{stem}.manifest.json", [json.dumps(manifest, indent=1) + "\n"])
    print(f"wrote {path}")


def _rescale(args, value, unit: str):
    """A dimensionless number, a float, or array in physical units.

    A "time" is divided by --omega0, a "frequency" multiplied by it, and an
    "energy" multiplied by --hbar, then by --omega0. NaN entries stay NaN; a
    finite entry that comes out non-finite raises ValueError, so no
    overflowed value is printed or exported. A float is scaled as a float,
    an array as a float64 array.
    """
    def scale(value):
        if unit == "time":
            return value / args.omega0
        if unit == "frequency":
            return value * args.omega0
        return value * args.hbar * args.omega0

    if isinstance(value, float):
        value = float(value)  # a float64 would warn where a float overflows quietly
        scaled = scale(value)
        overflow = math.isfinite(value) and not math.isfinite(scaled)
    else:
        value = np.asarray(value, dtype=float)
        with np.errstate(over="ignore"):
            scaled = scale(value)
        overflow = np.any(np.isfinite(value) & ~np.isfinite(scaled))
    if overflow:
        raise ValueError(f"the rescaled {unit} overflows (--omega0 {args.omega0!r}, --hbar {args.hbar!r})")
    return scaled


def _numbers(flag: str, text: str, count: int | None = None) -> list[float]:
    """The comma-separated numbers in ``text``, the value of ``flag``:
    exactly ``count`` of them, or any number when ``count`` is None;
    anything else raises ValueError naming the flag."""
    parts = text.split(",")
    try:
        if count is None or len(parts) == count:
            return [float(v) for v in parts]
    except ValueError:
        pass
    raise ValueError(f"{flag} takes {count or 'one or more'} comma-separated numbers, got {text!r}")


def _shot_config(args, eps: float) -> shooting.ShotConfig:
    return shooting.ShotConfig(eps, horizon=args.horizon, tol=args.tol)


def _report_energy(args, omega_min: float, energy: float) -> int:
    omega_min, energy = _rescale(args, omega_min, "frequency"), _rescale(args, energy, "energy")
    print(f"Omega0_min = {omega_min:.10g}")
    print(f"E_min = {energy:.10g}")
    return 0


# ---------------------------------------------------------------------------
# two-level
# ---------------------------------------------------------------------------

def _cmd_two_tmin(args) -> int:
    area = bloch2.min_area(-0.5, 0.5 - args.eps)
    t_min = _rescale(args, area, "time")
    print(f"A_min = {area:.10g}")
    print(f"T_min = {t_min:.10g}")
    return 0


def _cmd_two_curve(args) -> int:
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
    _export(args, "two_level_curve", ["area", "p_nonlinear", "p_linear", "p_asymptotic"], rows)
    return 0


def _cmd_two_simulate(args) -> int:
    kerr = bloch2.ZERO_KERR
    if args.kerr:
        kerr = bloch2.KerrParams._make(_numbers("--kerr", args.kerr, 3))
    traj = bloch2.resonant_trajectory(0.5 - args.eps, tol=args.tol)
    eta = traj.states
    pop1, pop2 = bloch2.populations_from_eta3(eta[:, 2])
    rows = np.column_stack([
        _rescale(args, traj.times, "time"),
        eta[:, 0],
        eta[:, 1],
        eta[:, 2],
        pop1,
        pop2,
        _rescale(args, bloch2.lock_detuning(eta[:, 2], kerr), "frequency"),
    ])
    _export(
        args, "two_level_simulate",
        ["t", "eta1", "eta2", "eta3", "pop1", "pop2", "delta_lock"], rows,
    )
    return 0


def _cmd_two_energy(args) -> int:
    area = bloch2.min_area(-0.5, 0.5 - args.eps)
    return _report_energy(args, *bloch2.energy_optimum(args.T * args.omega0, area))


# ---------------------------------------------------------------------------
# three-level
# ---------------------------------------------------------------------------

def _cmd_three_landscape(args) -> int:
    lo, hi = _numbers("--range", args.range, 2)
    grid = shooting.landscape((lo, hi), args.res, _shot_config(args, args.eps), workers=args.workers)
    t_min = _rescale(args, grid.t_min, "time")  # grid.t_min raises NoFeasiblePoint when nothing hits
    offsets = grid.log_offsets()
    rows = np.column_stack([
        np.repeat(grid.axis, grid.axis.size),
        np.tile(grid.axis, grid.axis.size),
        _rescale(args, grid.times.ravel(), "time"),
        offsets.ravel(),
    ])
    print(f"T_min = {t_min:.10g}")
    _export(args, "three_level_landscape", ["lphi", "ltheta", "T", "log10_T_offset"], rows)
    return 0


def _cmd_three_optimize(args) -> int:
    cfg = _shot_config(args, args.eps)
    opt = shooting.refine(args.lphi, args.guess, cfg)
    t_min = _rescale(args, opt.t_min, "time")
    trajectory, pulses = shooting.extremal(opt, cfg)
    states = trajectory.states
    x1, y2, x3 = lambda3.cartesian_from_angles(states[:, 0], states[:, 1])
    rows = np.column_stack([
        _rescale(args, trajectory.times, "time"),
        states[:, 0],
        states[:, 1],
        states[:, 2],
        states[:, 3],
        _rescale(args, pulses[:, 0], "frequency"),
        _rescale(args, pulses[:, 1], "frequency"),
        x1 ** 2,
        2.0 * y2 ** 2,
        2.0 * x3 ** 2,
        2.0 * lambda3.ansatz_population(trajectory.times),
    ])
    print(f"ltheta_i = {opt.ltheta_i:.10g}")
    print(f"T_min = {t_min:.10g}")
    print(f"A_min = {opt.area:.10g}")
    _export(
        args, "three_level_optimal",
        ["t", "phi", "theta", "lphi", "ltheta", "omega_p", "omega_s",
         "pop1", "pop2", "pop3", "ansatz"], rows,
    )
    return 0


def _geomspace(start: float, stop: float, n: int) -> list[float]:
    """n floats from start to stop, both positive, evenly spaced in log10:
    ``np.geomspace(start, stop, n)``'s steps on Python floats, 10 to the
    power of log10(start) + i * step, with the ends set to start and stop.
    It can differ from numpy's by an ulp where numpy's log10 or power
    rounds apart from the C library's."""
    if n < 0:
        raise ValueError(f"the number of accuracies must be non-negative, got {n}")
    if n < 2:
        return [start] * n
    log_start = math.log10(start)
    step = (math.log10(stop) - log_start) / (n - 1)
    return [start, *(10.0 ** (i * step + log_start) for i in range(1, n - 1)), stop]


def _cmd_three_areacurve(args) -> int:
    if not (0.0 < args.eps_min < 1.0 and 0.0 < args.eps_max < 1.0):
        raise ValueError("--eps-min and --eps-max must lie in (0, 1)")
    eps_values = _geomspace(args.eps_max, args.eps_min, args.n)
    shooting.asymptotic_mask(eps_values)  # the fit's precondition, checked before the solves
    curve = shooting.area_curve(eps_values, _shot_config(args, eps_values[0]), lphi_i=args.lphi)
    slope, intercept = shooting.fit_asymptote(curve)
    print(f"slope = {slope:.10g}")
    print(f"intercept = {intercept:.10g}")
    rows = curve.tolist()
    _export(args, "three_level_area_curve", ["eps", "area"], [row[:2] for row in rows],
            results={"slope": slope, "intercept": intercept, "fallbacks": sum(int(row[2]) for row in rows)})
    return 0


def _cmd_three_energy(args) -> int:
    duration = args.T * args.omega0
    cfg = _shot_config(args, args.eps)
    # a duration that is not positive and finite, or whose bound overflows,
    # is rejected before the refinement: x3 starts at 0 and |dx3/dt| =
    # |Omega_s y2| / 2 <= 1 / (2 sqrt 2), so the area is at least
    # 2 sqrt(1 - eps), and a bound that overflows there overflows at the
    # optimum's area too
    bloch2.energy_optimum(duration, 2.0 * math.sqrt(1.0 - cfg.eps))
    opt = shooting.refine(*shooting.START_RAY, cfg)
    return _report_energy(args, *bloch2.energy_optimum(duration, opt.area))


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def _cmd_iso_check(args) -> int:
    costates = None
    if args.costates:
        costates = tuple(_numbers("--costates", args.costates, 2))
    result = isomorphism.cross_check(
        _shot_config(args, args.eps), costates=costates, corrupt_mapping=args.corrupt_mapping
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
    eps_values = _numbers("--eps-list", args.eps_list)
    table = isomorphism.area_divergence_check(eps_values, _shot_config(args, eps_values[0]))
    eps, areas = table[np.argsort(table[:, 0])[::-1], :2].T
    distinct = np.diff(eps, prepend=math.inf) != 0.0  # a twin eps holds a copy of its twin's area
    monotone = bool(np.all(np.diff(areas[distinct]) > 0.0))
    print(f"strictly_increasing_as_eps_decreases = {monotone}")
    _export(args, "iso_area_divergence", ["eps", "pump_area"], table[:, :2],
            results={"fallbacks": int(table[:, 2].sum())})
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
    parser.add_argument("--tol", type=float, default=ode.TOL, help="integrator local-error tolerance")
    parser.add_argument("--horizon", type=float, default=shooting.HORIZON, help="shot horizon in 1/Omega0 units")
    groups = parser.add_subparsers(dest="group", required=True)

    two = groups.add_parser("two-level", help="two-level closed forms and curves")
    two_sub = two.add_subparsers(dest="subcommand", required=True)
    p = two_sub.add_parser("tmin", help="minimum pulse area / time for an accuracy")
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_two_tmin)
    p = two_sub.add_parser("curve", help="transfer probability vs pulse area dataset")
    p.add_argument("--amax", type=float, default=14.0)
    p.add_argument("--step", type=float, default=1e-2)
    p.set_defaults(func=_cmd_two_curve)
    p = two_sub.add_parser("simulate", help="optimal transfer history dataset")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kerr", default=None, metavar="L11,L12,L22")
    p.set_defaults(func=_cmd_two_simulate)
    p = two_sub.add_parser("energy", help="minimum amplitude and energy for a fixed time")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_two_energy)

    three = groups.add_parser("three-level", help="three-level shooting solver")
    three_sub = three.add_subparsers(dest="subcommand", required=True)
    p = three_sub.add_parser("landscape", help="hit-time grid over initial costates")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--range", default="-3,3", metavar="LO,HI", help="costate range of both axes (--range=LO,HI if LO < 0)")
    p.add_argument("--res", type=int, default=200, help="cells along each axis of the square grid")
    p.add_argument("--workers", type=int, default=None, help="scan processes, at most one per CPU (0 or unset: one per CPU)")
    p.set_defaults(func=_cmd_three_landscape)
    p = three_sub.add_parser("optimize", help="refine the optimal initial costate ray")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lphi", type=float, default=shooting.START_RAY[0])
    p.add_argument("--guess", type=float, default=shooting.START_RAY[1])
    p.set_defaults(func=_cmd_three_optimize)
    p = three_sub.add_parser("areacurve", help="minimum area vs accuracy dataset and fit")
    p.add_argument("--eps-min", type=float, default=1e-3)
    p.add_argument("--eps-max", type=float, default=1e-1)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--lphi", type=float, default=shooting.START_RAY[0])
    p.set_defaults(func=_cmd_three_areacurve)
    p = three_sub.add_parser("energy", help="minimum amplitude and energy for a fixed time")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_three_energy)

    iso = groups.add_parser("iso", help="two-level counterpart cross-checks")
    iso_sub = iso.add_subparsers(dest="subcommand", required=True)
    p = iso_sub.add_parser("check", help="run the representation-agreement oracles")
    p.add_argument("--eps", type=float, default=0.002)
    p.add_argument("--costates", default=None, metavar="LPHI,LTHETA",
                   help="initial costates to check, skipping the refinement (--costates=LPHI,LTHETA if LPHI < 0)")
    p.add_argument("--corrupt-mapping", action="store_true", help="negative control: use the inconsistent Stokes reduction")
    p.set_defaults(func=_cmd_iso_check)
    p = iso_sub.add_parser("areadiv", help="pump-area divergence dataset")
    p.add_argument("--eps-list", default="0.1,0.01,0.001")
    p.set_defaults(func=_cmd_iso_areadiv)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not all(0.0 < v < math.inf for v in (args.omega0, args.hbar, args.horizon, args.tol)):
        parser.error("--omega0, --hbar, --horizon and --tol must be positive and finite")
    args._start = time.monotonic()
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
