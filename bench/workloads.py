"""Workload definitions: inputs from a seed, the ``qsl`` commands, references, checks.

Every workload is a fixed sequence of ``qsl`` command lines, run serially
in one process through ``qsl12.cli.main``. One *operation* is one command;
it fails when it exits nonzero, raises, or when its output misses a
reference below. References and tolerances are the same at every seed.

Seed 0 gives the canonical inputs. Other seeds move the inputs only along
directions the physics leaves unchanged, so the same references hold:

* the initial costate pair of ``optimize`` and ``oracles`` is scaled by a
  factor in [0.9, 1.1] (lphi, the refinement guess and given costates
  alike). The hit time depends only on the ray angle atan2(ltheta, lphi),
  so every hit time is the same. The work is not: Nelder-Mead's tolerance
  is absolute in ltheta, so ``optimize`` takes a few shots more or fewer;
* the landscape range is scaled by the same factor. The grid then samples
  the same rays, so its T_min is the same. (Offsetting the grid instead
  moves its nearest sample off the optimal ray: the CLI's single
  ``--range`` can only shift both axes together, and a diagonal shift of
  0.1 cell already moves T_min by 8e-3, beyond the 1e-3 check.);
* ``areacurve`` keeps lphi at 1.85 at every seed. Its CLI has no
  ``--guess``, so the first refinement always starts at ltheta 0.9; scaling
  lphi alone would turn the starting ray, and with it the shots and
  possibly the branch-jump retry. Its inputs are therefore the same at
  every seed.

Why these four workloads (each is serial, ``--workers 1``, deterministic):

* ``optimize`` -- the adaptive DP5 shot path with bisection event location
  and the scalar ``extremal_rhs``, driven by Nelder-Mead and the
  feasibility scan; about 100 shots, a fifth of them no-crossing misses.
  It never touches the landscape kernel.
* ``landscape`` -- the batched fixed-step RK4 scan over 3600 cells: no
  adaptive steps, no scalar rhs calls, no refinement. It is the bypass
  workload for every shooting or ``ode`` change, and the heaviest CSV export.
* ``areacurve`` -- eps continuation over the first 5 points of the
  acceptance grid (5 is the fewest ``fit_asymptote`` accepts): about 255
  shots and 6 refinements, one of them the branch-jump retry at eps~0.027.
* ``oracles`` -- the only workload that runs ``ode.rk4`` on the 11- and
  14-dimensional cross-check state, ``isomorphism`` and ``bloch2`` /
  ``ode.integrate``. Given costates skip ``shooting.refine``.
"""

from __future__ import annotations

import io
import random
import shutil
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

__all__ = ["WORKLOADS", "REFS", "Op", "ops_for", "scale_for", "landscape_op", "run_ops"]

WORKLOADS = ("optimize", "landscape", "areacurve", "oracles")

#: Reference values and tolerances, shared by every seed.
REFS = {
    "t_min_0002": (7.40, 0.02),
    "t_min_0005": (6.78, 0.05),
    "ray_slope_0002": (0.45266 / 1.85, 1e-3),
    "landscape_t_min": (7.39938, 1e-3),
    "landscape_rows": 3600,
    "areas": ((4.776001, 5.222639, 5.653136, 6.085308, 6.524642), 1e-3),
    "two_level_area": (7.5999017, 1e-6),
    "two_level_pop2": (0.998, 1e-6),
}

CANONICAL_LPHI = 1.85
AREACURVE_EPS_MIN = 10.0 ** (-15.0 / 7.0)

Check = Callable[[dict, Path, dict], list]


@dataclass(frozen=True)
class Op:
    """One ``qsl`` command: its arguments (without ``--out``) and its check."""

    argv: tuple
    check: Check


def scale_for(seed: int) -> float:
    """The seed's costate scale factor; seed 0 gives the canonical 1."""
    return 1.0 if seed == 0 else random.Random(seed).uniform(0.9, 1.1)


def _fields(stdout: str) -> dict:
    """``name = value`` lines of a command's standard output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _near(problems: list, label: str, value, ref: tuple) -> None:
    target, tol = ref
    try:
        x = float(value)
    except (TypeError, ValueError):
        problems.append(f"{label}: no value (got {value!r})")
        return
    if not abs(x - target) <= tol:
        problems.append(f"{label} = {x!r}, expected {target} +- {tol}")


def _csv_rows(path: Path) -> list:
    if not path.is_file():
        return []
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines if line and not line.startswith("#")]


def _check_optimize(t_key: str, lphi: float, with_slope: bool) -> Check:
    def check(result, out_dir, refs):
        problems = []
        f = _fields(result["stdout"])
        _near(problems, "T_min", f.get("T_min"), refs[t_key])
        if with_slope:
            try:
                slope = float(f.get("ltheta_i")) / lphi
            except (TypeError, ValueError):
                slope = None
            _near(problems, "ltheta_i/lphi_i", slope, refs["ray_slope_0002"])
        if not _csv_rows(out_dir / "three_level_optimal.csv"):
            problems.append("three_level_optimal.csv missing or empty")
        return problems
    return check


def _check_landscape(result, out_dir, refs):
    problems = []
    _near(problems, "T_min", _fields(result["stdout"]).get("T_min"), refs["landscape_t_min"])
    rows = len(_csv_rows(out_dir / "three_level_landscape.csv"))
    if rows != refs["landscape_rows"]:
        problems.append(f"landscape wrote {rows} rows, expected {refs['landscape_rows']}")
    return problems


def _check_areacurve(result, out_dir, refs):
    problems = []
    rows = _csv_rows(out_dir / "three_level_area_curve.csv")
    areas, tol = refs["areas"]
    if len(rows) != len(areas):
        return [f"area curve has {len(rows)} rows, expected {len(areas)}"]
    for (eps, area), ref in zip(rows, areas):
        _near(problems, f"area(eps={eps:.6g})", area, (ref, tol))
    by_eps = sorted(rows, key=lambda row: -row[0])
    if not all(b[1] > a[1] for a, b in zip(by_eps, by_eps[1:])):
        problems.append("areas do not increase strictly as eps falls")
    return problems


def _check_iso(t_key: str) -> Check:
    def check(result, out_dir, refs):
        problems = []
        _near(problems, "hit_time", _fields(result["stdout"]).get("hit_time"), refs[t_key])
        return problems
    return check


def _check_simulate(result, out_dir, refs):
    problems = []
    rows = _csv_rows(out_dir / "two_level_simulate.csv")
    if not rows:
        return ["two_level_simulate.csv missing or empty"]
    _near(problems, "final t", rows[-1][0], refs["two_level_area"])
    _near(problems, "final pop2", rows[-1][5], refs["two_level_pop2"])
    return problems


def ops_for(workload: str, seed: int) -> list:
    """The workload's command sequence for this seed."""
    s = scale_for(seed)
    lphi = CANONICAL_LPHI * s
    if workload == "optimize":
        return [
            Op(("three-level", "optimize", "--eps", "0.002", "--lphi", repr(lphi),
                "--guess", repr(0.9 * s)), _check_optimize("t_min_0002", lphi, True)),
            Op(("three-level", "optimize", "--eps", "0.005", "--lphi", repr(lphi),
                "--guess", repr(0.7 * s)), _check_optimize("t_min_0005", lphi, False)),
        ]
    if workload == "landscape":
        return [landscape_op(seed, 1)]
    if workload == "areacurve":
        return [Op(("three-level", "areacurve", "--eps-max", "0.1",
                    "--eps-min", repr(AREACURVE_EPS_MIN), "--n", "5",
                    "--lphi", repr(CANONICAL_LPHI)),
                   _check_areacurve)]
    if workload == "oracles":
        return [
            Op(("iso", "check", "--eps", "0.002", "--costates", f"{lphi!r},{0.45266 * s!r}"),
               _check_iso("t_min_0002")),
            Op(("iso", "check", "--eps", "0.005", "--costates", f"{lphi!r},{0.62776 * s!r}"),
               _check_iso("t_min_0005")),
            Op(("two-level", "simulate", "--eps", "0.002", "--kerr", "0.3,-0.2,0.4"), _check_simulate),
        ]
    raise KeyError(workload)


def landscape_op(seed: int, workers: int) -> Op:
    """The landscape command; the traced run also times it at 2 workers."""
    s = scale_for(seed)
    return Op(("three-level", "landscape", "--eps", "0.002", f"--range={-3.0 * s!r},{3.0 * s!r}",
               "--res", "60", "--workers", str(workers)), _check_landscape)


def run_ops(ops: list, work_dir: Path, refs: dict = REFS, tracer=None) -> tuple:
    """Run the commands in order through ``qsl12.cli.main`` and check each one.

    Each command writes into a fresh directory under ``work_dir``, removed
    after its check. Returns (seconds spent inside the commands, one record
    per command); a record's ``start`` is its ``perf_counter`` start time,
    and its ``problems`` list is empty when the command passed.
    """
    from qsl12 import cli

    wall = 0.0
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run = i
        out_dir = Path(tempfile.mkdtemp(dir=work_dir))
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(["--out", str(out_dir), *op.argv])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an escaping exception is one failed operation
            rc, error = None, traceback.format_exc()
        seconds = perf_counter() - start
        wall += seconds
        result = {"argv": list(op.argv), "rc": rc, "start": start, "seconds": seconds,
                  "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        if error is not None:
            problems = [f"raised: {error}"]
        elif rc != 0:
            problems = [f"exit code {rc}: {result['stderr'].strip()}"]
        else:
            problems = op.check(result, out_dir, refs)
        shutil.rmtree(out_dir, ignore_errors=True)
        result["problems"] = problems
        records.append(result)
    return wall, records
