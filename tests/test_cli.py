import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qsl12 import bloch2, cli, ode, shooting

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    columns = lines[0].lstrip("# ").split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return columns, data


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return float(line.split(" = ")[1])
    raise AssertionError(f"{key!r} not printed in {out!r}")


class TestTwoLevel:
    def test_tmin(self, capsys):
        code, out = run(capsys, "two-level", "tmin", "--eps", "0.002")
        assert code == 0
        assert grab(out, "A_min") == pytest.approx(7.5999, abs=1e-3)

    def test_tmin_full_tolerance(self, capsys):
        code, out = run(capsys, "two-level", "tmin", "--eps", "1.0")
        assert code == 0
        assert grab(out, "A_min") == 0.0

    def test_tmin_zero_eps_is_domain_error(self, capsys):
        code, _ = run(capsys, "two-level", "tmin", "--eps", "0")
        assert code == cli.EXIT_DOMAIN

    def test_curve_export(self, tmp_path, capsys):
        args = ("--out", str(tmp_path), "two-level", "curve", "--amax", "14", "--step", "0.01")
        code, _ = run(capsys, *args)
        assert code == 0
        columns, data = read_csv(tmp_path / "two_level_curve.csv")
        assert columns == ["area", "p_nonlinear", "p_linear", "p_asymptotic"]
        assert len(data) == 1401
        areas = data[:, 0]
        assert np.array_equal(data[:, 1], np.tanh(areas / 2.0) ** 2)
        assert np.array_equal(data[:, 2], np.sin(areas / 2.0) ** 2)
        first = (tmp_path / "two_level_curve.csv").read_bytes()
        code, _ = run(capsys, *args)
        assert code == 0
        assert (tmp_path / "two_level_curve.csv").read_bytes() == first

    def test_curve_manifest(self, tmp_path, capsys):
        run(capsys, "--out", str(tmp_path), "two-level", "curve", "--amax", "2", "--step", "0.5")
        manifest = json.loads((tmp_path / "two_level_curve.manifest.json").read_text())
        assert manifest["command"] == "two-level curve"
        assert manifest["outputs"] == ["two_level_curve.csv"]
        assert manifest["parameters"]["amax"] == 2.0
        assert manifest["parameters"]["step"] == 0.5
        # the defaults of --tol and --horizon are the package's own
        assert manifest["parameters"]["tol"] == ode.TOL == shooting.ShotConfig(eps=0.1).tol == 1e-10
        assert manifest["parameters"]["horizon"] == shooting.ShotConfig(eps=0.1).horizon == 15.0
        assert "wall_time_s" in manifest
        # every exporting command names itself "<group> <subcommand>" and
        # keeps the parser's bookkeeping out of its parameters
        for stem, argv in [
            ("two_level_curve", ["two-level", "curve", "--amax", "2", "--step", "0.5"]),
            ("two_level_simulate", ["two-level", "simulate", "--eps", "0.1"]),
            ("three_level_landscape", ["three-level", "landscape", "--eps", "0.002", "--res", "2", "--workers", "1"]),
        ]:
            code, out = run(capsys, "--out", str(tmp_path), *argv)
            assert code == 0
            assert out.endswith(f"wrote {tmp_path / stem}.csv\n")
            manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
            assert manifest["command"] == f"{argv[0]} {argv[1]}"
            assert not [k for k in manifest["parameters"] if k in ("func", "command_name") or k.startswith("_")]

    def test_curve_json_mirror(self, tmp_path, capsys):
        code, _ = run(capsys, "--out", str(tmp_path), "--format", "json",
                      "two-level", "curve", "--amax", "1", "--step", "0.25")
        assert code == 0
        payload = json.loads((tmp_path / "two_level_curve.json").read_text())
        assert payload["columns"][0] == "area"
        areas = [row[0] for row in payload["rows"]]
        assert areas == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        # a data file is written to a temporary file and renamed over the
        # target; a failed rename re-raises and removes the temporary file
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            cli._write_atomic(tmp_path / "two_level_curve.csv", ["1,2\n"])
        assert list(tmp_path.iterdir()) == []

    def test_simulate_with_kerr(self, tmp_path, capsys):
        code, _ = run(capsys, "--out", str(tmp_path), "two-level", "simulate",
                      "--eps", "0.02", "--kerr", "0.3,-0.2,0.4")
        assert code == 0
        columns, data = read_csv(tmp_path / "two_level_simulate.csv")
        assert columns == ["t", "eta1", "eta2", "eta3", "pop1", "pop2", "delta_lock"]
        kerr = bloch2.KerrParams(0.3, -0.2, 0.4)
        expected = bloch2.lock_detuning(data[:, 3], kerr)
        assert np.allclose(data[:, 6], expected, atol=1e-14)
        assert np.allclose(data[:, 4] + data[:, 5], 1.0, atol=1e-9)
        assert data[-1, 3] == pytest.approx(0.5 - 0.02, abs=1e-8)

    def test_step_underflow_exits_7_and_writes_nothing(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "--tol", "1e-300", "two-level", "simulate", "--eps", "0.002"])
        assert code == cli.EXIT_STEP_UNDERFLOW == 7
        err = capsys.readouterr().err
        assert err.startswith("integration failed: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_energy(self, capsys):
        code, out = run(capsys, "two-level", "energy", "--T", "10", "--eps", "0.002")
        assert code == 0
        assert grab(out, "Omega0_min") == pytest.approx(0.75999, abs=1e-4)
        assert grab(out, "E_min") == pytest.approx(5.7758, abs=1e-3)

    def test_unit_rescaling(self, capsys):
        # doubling the physical amplitude halves reported times; energies
        # scale by hbar * omega0
        _, out_dim = run(capsys, "two-level", "tmin", "--eps", "0.002")
        _, out_phys = run(capsys, "--omega0", "2", "two-level", "tmin", "--eps", "0.002")
        assert grab(out_phys, "T_min") == pytest.approx(grab(out_dim, "T_min") / 2.0)
        assert grab(out_phys, "A_min") == grab(out_dim, "A_min")

        # one energy bound for both systems, so one law
        area2 = bloch2.min_area(-0.5, 0.498)
        area3 = shooting.refine(*shooting.START_RAY, shooting.ShotConfig(eps=0.005)).area
        for system, eps, area in (("two-level", "0.002", area2), ("three-level", "0.005", area3)):
            _, out = run(capsys, "--omega0", "2", "--hbar", "3",
                         system, "energy", "--T", "10", "--eps", eps)
            # physical pulse: amplitude (area/20)*2 over physical duration 10,
            # energy hbar * amplitude^2 * duration
            amp = (area / 20.0) * 2.0
            assert grab(out, "Omega0_min") == pytest.approx(amp)
            assert grab(out, "E_min") == pytest.approx(3.0 * amp * amp * 10.0 / 2.0 * 2.0)


class TestThreeLevel:
    def test_landscape_small(self, tmp_path, capsys):
        code, out = run(capsys, "--out", str(tmp_path), "three-level", "landscape",
                        "--eps", "0.005", "--res", "15", "--workers", "1")
        assert code == 0
        assert grab(out, "T_min") > 6.0
        columns, data = read_csv(tmp_path / "three_level_landscape.csv")
        assert columns == ["lphi", "ltheta", "T", "log10_T_offset"]
        assert len(data) == 225

    def test_landscape_json_is_strict(self, tmp_path, capsys):
        # RFC 8259 JSON has no NaN: the no-transfer cells come back as null
        # where the CSV of the same grid has nan, every other entry equal
        flags = ("three-level", "landscape", "--eps", "0.002", "--res", "4", "--workers", "1")
        assert run(capsys, "--out", str(tmp_path / "csv"), *flags)[0] == 0
        assert run(capsys, "--out", str(tmp_path / "json"), "--format", "json", *flags)[0] == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "json" / "three_level_landscape.json").read_text()
        payload = json.loads(text, parse_constant=reject)
        _, data = read_csv(tmp_path / "csv" / "three_level_landscape.csv")
        assert np.isnan(data).any()
        rows = payload["rows"]
        assert len(rows) == len(data)
        for row, expected in zip(rows, data.tolist()):
            assert [v is None for v in row] == [np.isnan(v) for v in expected]
            assert [v for v in row if v is not None] == [v for v in expected if not np.isnan(v)]

    def test_landscape_csv_cells_are_17_digits(self, tmp_path, capsys, monkeypatch):
        # every CSV cell is "%.17g" of the exported value, so it reads back
        # bit for bit; a miss reads nan
        exported = []
        export = cli._export

        def recorded(args, stem, columns, rows, results=None):
            exported.append(rows.copy())
            return export(args, stem, columns, rows, results)

        monkeypatch.setattr(cli, "_export", recorded)
        flags = ("three-level", "landscape", "--eps", "0.002", "--res", "4", "--workers", "1")
        assert run(capsys, "--out", str(tmp_path), *flags)[0] == 0
        (rows,) = exported
        lines = (tmp_path / "three_level_landscape.csv").read_text().splitlines()
        assert lines[0] == "# lphi,ltheta,T,log10_T_offset"
        cells = [line.split(",") for line in lines[1:]]
        assert np.isnan(rows).any() and len(cells) == len(rows)
        for row, values in zip(cells, rows.tolist()):
            assert row == ["%.17g" % v for v in values]
            for cell, v in zip(row, values):
                assert (cell == "nan") if np.isnan(v) else (float(cell) == v)

    def test_csv_cells_of_special_values(self, tmp_path, capsys):
        # nan, +-inf and -0 keep their "%.17g" spelling
        args = argparse.Namespace(out=str(tmp_path), format="csv", group="g", subcommand="s",
                                  _start=time.monotonic())
        rows = np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.1, -1e-300]])
        cli._export(args, "special", ["a", "b", "c"], rows)
        capsys.readouterr()
        assert (tmp_path / "special.csv").read_text() == "# a,b,c\nnan,inf,-inf\n-0,0.10000000000000001,-1e-300\n"

    def test_csv_stream_writes_the_joined_table(self, tmp_path, capsys):
        # the export streams its lines; the file holds the bytes of the whole
        # table joined at once, non-finite cells and an empty table included
        args = argparse.Namespace(out=str(tmp_path), format="csv", group="g", subcommand="s",
                                  _start=time.monotonic())
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((40, 4)) * 10.0 ** rng.uniform(-300.0, 300.0, (40, 4))
        rows[3, 1], rows[7, 0], rows[7, 3], rows[11, 2] = np.nan, np.inf, -np.inf, -0.0
        for stem, table in (("table", rows), ("empty", rows[:0])):
            cli._export(args, stem, ["a", "b", "c", "d"], table)
            row_format = ",".join(["%.17g"] * table.shape[1])
            lines = ["# a,b,c,d", *(row_format % tuple(row.tolist()) for row in table)]
            assert (tmp_path / f"{stem}.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        capsys.readouterr()

    def test_landscape_origin_only_exits_no_hit(self, tmp_path, capsys):
        code, _ = run(capsys, "--out", str(tmp_path), "three-level", "landscape",
                      "--eps", "0.005", "--range", "0,0", "--res", "1")
        assert code == cli.EXIT_NO_HIT

    def test_optimize(self, tmp_path, capsys):
        code, out = run(capsys, "--out", str(tmp_path), "three-level", "optimize",
                        "--eps", "0.005", "--lphi", "1.85", "--guess", "0.62")
        assert code == 0
        assert grab(out, "T_min") == pytest.approx(6.78, abs=0.05)
        columns, data = read_csv(tmp_path / "three_level_optimal.csv")
        assert columns == ["t", "phi", "theta", "lphi", "ltheta", "omega_p", "omega_s",
                           "pop1", "pop2", "pop3", "ansatz"]
        total = data[:, 7] + data[:, 8] + data[:, 9]
        assert np.allclose(total, 1.0, atol=1e-9)
        assert data[-1, 9] == pytest.approx(1.0 - 0.005, abs=1e-7)

    def test_areacurve(self, tmp_path, capsys):
        code, out = run(capsys, "--out", str(tmp_path), "three-level", "areacurve",
                        "--eps-min", "0.03", "--eps-max", "0.1", "--n", "5")
        assert code == 0
        assert grab(out, "slope") < 0.0
        _, data = read_csv(tmp_path / "three_level_area_curve.csv")
        assert len(data) == 5
        manifest = json.loads((tmp_path / "three_level_area_curve.manifest.json").read_text())
        assert manifest["results"]["slope"] == pytest.approx(grab(out, "slope"), abs=1e-9)
        assert manifest["results"]["fallbacks"] == 0

    def test_areacurve_calls_no_least_squares_solver(self, tmp_path, capsys, monkeypatch):
        # the fitted law is closed-form: the command runs with numpy's
        # least-squares fit and solver refusing every call
        def refuse(*args, **kwargs):
            raise AssertionError("least-squares solver called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        code, out = run(capsys, "--out", str(tmp_path), "three-level", "areacurve",
                        "--eps-min", "0.03", "--eps-max", "0.1", "--n", "5")
        assert code == 0
        assert grab(out, "slope") < 0.0

    def test_areacurve_too_few_points_exits_before_solving(self, tmp_path, capsys, monkeypatch):
        def refine(*args, **kwargs):
            raise AssertionError("refine called")

        monkeypatch.setattr(shooting, "refine", refine)
        code, _ = run(capsys, "--out", str(tmp_path), "three-level", "areacurve", "--n", "4")
        assert code == 2
        assert not any(tmp_path.iterdir())

    def test_optimize_no_convergence_exits_4(self, tmp_path, capsys, monkeypatch):
        def refine(*args, **kwargs):
            raise shooting.NoConvergence("no root of the transversality residual")

        monkeypatch.setattr(shooting, "refine", refine)
        code = cli.main(["--out", str(tmp_path), "three-level", "optimize", "--eps", "0.005"])
        assert code == cli.EXIT_NO_CONVERGENCE
        assert "no convergence" in capsys.readouterr().err

    def test_optimize_flat_landscape_exits_4_with_reason(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(shooting, "shoot_info", lambda *args: (7.0, "hit", 0.5))
        code = cli.main(["--out", str(tmp_path), "three-level", "optimize", "--eps", "0.005"])
        assert code == cli.EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert "no valid bracket" in err and "eps 0.005" in err
        assert not any(tmp_path.iterdir())

    def test_optimize_short_horizon_exits_5_naming_the_screen(self, tmp_path, capsys):
        # no probe hits within 2 time units; the tally says the probes ran at
        # the scan's screening tolerance, not at --tol
        code = cli.main(["--out", str(tmp_path), "--horizon", "2", "three-level", "optimize",
                         "--eps", "0.005", "--guess", "0.7"])
        assert code == cli.EXIT_NO_HIT
        err = capsys.readouterr().err
        assert f"the 13 probes, screened at tol {shooting.SCAN_TOL!r}: 13 no-crossing" in err
        assert "horizon 2.0" in err and "eps 0.005" in err
        assert not any(tmp_path.iterdir())

    def test_optimize_step_underflow_exits_5_and_writes_nothing(self, tmp_path, capsys):
        # the README example: the screened probes hit and the search locates
        # the root, but the solve's shot of it at --tol 1e-300 underflows
        code = cli.main(["--out", str(tmp_path), "--tol", "1e-300", "three-level", "optimize", "--eps", "0.002"])
        assert code == cli.EXIT_NO_HIT == 5
        err = capsys.readouterr().err
        assert err.startswith("no transfer found: ") and "1 shot of the solve at tol 1e-300: 1 step-underflow" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("lphi", ["0", "-0.0"])
    def test_optimize_zero_lphi_exits_2_before_the_first_shot(self, tmp_path, capsys, monkeypatch, lphi):
        # at phi = theta = 0 the switching pair is (lambda_phi, 0) up to
        # constants, so with lambda_phi = 0 every shot starts degenerate
        def no_shot(*args):
            raise AssertionError("refine shot a zero lambda_phi")

        monkeypatch.setattr(shooting, "shoot_info", no_shot)
        code = cli.main(["--out", str(tmp_path), "three-level", "optimize", "--eps", "0.002", f"--lphi={lphi}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments: lambda_phi must be nonzero")
        assert not any(tmp_path.iterdir())

    def test_energy(self, capsys):
        code, out = run(capsys, "three-level", "energy", "--T", "10", "--eps", "0.005")
        assert code == 0
        t_min = 6.771
        assert grab(out, "Omega0_min") == pytest.approx(t_min / 10.0, abs=2e-3)
        assert grab(out, "E_min") == pytest.approx(t_min ** 2 / 10.0, abs=0.05)

    def test_energy_overflow_exits_before_the_refinement(self, tmp_path, capsys, monkeypatch):
        # the area is at least 2 sqrt(1 - eps), and at that area 1e-320
        # already overflows the bound, so no refinement runs; nor does one
        # for a duration that is not positive
        def refine(*args):
            raise AssertionError("refine ran")

        monkeypatch.setattr(shooting, "refine", refine)
        for T, reason in [("1e-320", "overflows"), ("0", "positive and finite"), ("-1", "positive and finite")]:
            flags = ["three-level", "energy", "--T", T, "--eps", "0.002"]
            assert cli.main(["--out", str(tmp_path), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("invalid arguments: ") and reason in err


def fields_of(text):
    """The ``name = value`` lines of a command's output, as the workflow reads them."""
    return dict(line.split(" = ") for line in text.splitlines() if " = " in line)


def rows_of(path):
    """The CSV's data rows, split on commas."""
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


def landscape_60(out_dir, *global_flags, workers="1"):
    """The workflow's landscape, the bench's 60x60 grid at eps 0.002, into
    ``out_dir``: its exit code, its output and its CSV."""
    argv = [*global_flags, "--out", str(out_dir), "three-level", "landscape", "--eps", "0.002",
            "--range=-3,3", "--res", "60", "--workers", workers]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue(), out_dir / "three_level_landscape.csv"


@pytest.fixture(scope="class")
def serial_landscape(tmp_path_factory):
    """``landscape_60`` at the default horizon on one worker, the run the
    workflow's other landscape steps compare with."""
    return landscape_60(tmp_path_factory.mktemp("landscape"))


class TestWorkflowPins:
    # the workflow's commands (.github/workflows/tier1.yml) and what it
    # checks in their output, with its values and bounds

    # the numpy-only job's optimize commands and the lines it greps: the
    # bench's two refinements, the --tol 1e-6 edge and the deep eps
    @pytest.mark.parametrize("argv, lines", [
        (["three-level", "optimize", "--eps", "0.005", "--guess", "0.7"],
         ["ltheta_i = 0.6277587617", "T_min = 6.77108206"]),
        (["three-level", "optimize", "--eps", "0.002", "--guess", "0.9"],
         ["ltheta_i = 0.4526316584", "T_min = 7.39937801"]),
        (["--tol", "1e-6", "three-level", "optimize", "--eps", "0.002", "--guess", "0.9"],
         ["ltheta_i = 0.4526316259", "T_min = 7.399376916"]),
        (["three-level", "optimize", "--eps", "1e-6", "--guess", "0.2"],
         ["ltheta_i = 0.03045294374", "T_min = 12.74943249"]),
    ])
    def test_optimize_prints_its_pins(self, tmp_path, capsys, argv, lines):
        code, out = run(capsys, "--out", str(tmp_path), *argv)
        assert code == 0
        assert [line for line in out.splitlines() if line in lines] == lines

    def test_areacurve_keeps_its_bounds(self, tmp_path, capsys):
        # the Tier-1 job's console script: the five areas and the fitted law,
        # each within 1e-9, and no point's corrector fell back
        code, out = run(capsys, "--out", str(tmp_path), "three-level", "areacurve",
                        "--eps-max", "0.1", "--eps-min", "0.00719", "--n", "5")
        assert code == 0
        areas = [float(row[1]) for row in rows_of(tmp_path / "three_level_area_curve.csv")]
        expected = [4.77600148235599, 5.22279629744942, 5.65344690807895, 6.08578116036755, 6.52528400728900]
        assert len(areas) == len(expected)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(areas, expected)), areas
        fields = fields_of(out)
        assert abs(float(fields["slope"]) - -0.6627289166) <= 1e-9
        assert abs(float(fields["intercept"]) - 3.254362264) <= 1e-9
        manifest = json.loads((tmp_path / "three_level_area_curve.manifest.json").read_text())
        assert manifest["results"]["fallbacks"] == 0

    @pytest.mark.parametrize("argv, hit_time, bounded", [
        (["--eps", "0.002", "--costates", "1.85,0.45266"], "7.399379289", True),
        (["--eps", "0.005", "--costates", "1.85,0.62776"], "6.771082061", False),
        (["--eps", "0.002"], "7.39937801", False),  # at the optimum refined from the start ray
    ])
    def test_iso_check_prints_its_pins(self, tmp_path, capsys, argv, hit_time, bounded):
        # the hit time and the verdict pinned; the first check's four
        # deviations bounded by 1e-9, as their last digits can follow the libm
        code, out = run(capsys, "--out", str(tmp_path), "iso", "check", *argv)
        assert code == 0
        lines = out.splitlines()
        assert f"hit_time = {hit_time}" in lines and "all oracles within thresholds" in lines
        fields = fields_of(out)
        for name in ("amplitude", "angle", "roundtrip", "quadrature") if bounded else ():
            assert float(fields[f"{name}_deviation"]) <= 1e-9, name

    def test_iso_negative_control_fails(self, tmp_path, capsys):
        # the inconsistent Omega_s / sqrt(2) reduction fails by far and exits 6
        code, out = run(capsys, "--out", str(tmp_path), "iso", "check", "--eps", "0.002",
                        "--costates", "1.85,0.45266", "--corrupt-mapping")
        assert code == cli.EXIT_ORACLE == 6
        assert "FAIL: oracle deviation above threshold" in out.splitlines()
        assert float(fields_of(out)["amplitude_deviation"]) > 0.5

    def test_two_level_simulate_lands_at_the_references(self, tmp_path, capsys):
        # the last row at t = 7.5999017 and pop2 = 0.998, within 1e-6; an
        # overflowing Kerr shift exits 2 and writes no CSV
        code, _ = run(capsys, "--out", str(tmp_path), "two-level", "simulate", "--eps", "0.002",
                      "--kerr", "0.3,-0.2,0.4")
        assert code == 0
        header, *rows = (tmp_path / "two_level_simulate.csv").read_text().splitlines()
        assert header == "# t,eta1,eta2,eta3,pop1,pop2,delta_lock"
        last = dict(zip(header[2:].split(","), map(float, rows[-1].split(","))))
        assert abs(last["t"] - 7.5999017) <= 1e-6
        assert abs(last["pop2"] - 0.998) <= 1e-6
        overflow = tmp_path / "k"
        code = cli.main(["--out", str(overflow), "two-level", "simulate", "--eps", "0.002", "--kerr", "1e308,0,0"])
        assert code == 2
        assert not (overflow / "two_level_simulate.csv").exists()

    def test_landscape_prints_its_pin(self, serial_landscape):
        # the bench's 60x60 grid: its minimum and one CSV row per cell
        code, out, csv = serial_landscape
        assert code == 0
        assert "T_min = 7.399582111" in out.splitlines()
        assert len(rows_of(csv)) == 3600

    def test_landscape_horizon_only_bounds(self, tmp_path, serial_landscape):
        # the lanes step at ode.MAX_STEP whatever the horizon, so the scan to
        # 14.999 finds every hit up to it where the scan to 15 does: more than
        # 1000 rows have T <= 14.999 in either run, each the same row in
        # both, and no hit lies past 14.999
        code, _, csv = landscape_60(tmp_path, "--horizon", "14.999")
        assert code == 0
        base, short = rows_of(serial_landscape[2]), rows_of(csv)
        assert len(base) == len(short) == 3600
        early = [(a, b) for a, b in zip(base, short) if float(a[2]) <= 14.999 or float(b[2]) <= 14.999]
        moved = sum(a != b for a, b in early)
        assert len(early) > 1000 and not moved, f"{moved} of {len(early)} rows moved with the horizon"
        assert not any(float(b[2]) > 14.999 for b in short), "a hit lies past the horizon"

    def test_landscape_workers_change_no_cell(self, tmp_path, serial_landscape, monkeypatch):
        # the scan split over two workers writes the serial scan's CSV byte
        # for byte; two CPUs, so that two workers fork two processes on any
        # machine
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 2)
        code, _, csv = landscape_60(tmp_path, workers="2")
        assert code == 0
        assert csv.read_bytes() == serial_landscape[2].read_bytes()


class TestIso:
    def test_check_passes(self, capsys, opt002):
        code, out = run(capsys, "iso", "check", "--eps", "0.002",
                        "--costates", f"{opt002.lphi_i},{opt002.ltheta_i}")
        assert code == 0
        assert "all oracles within thresholds" in out

    def test_corrupt_mapping_fails(self, capsys, opt002):
        code, out = run(capsys, "iso", "check", "--eps", "0.002",
                        "--costates", f"{opt002.lphi_i},{opt002.ltheta_i}",
                        "--corrupt-mapping")
        assert code == cli.EXIT_ORACLE
        assert "FAIL" in out

    def test_verdict_holds_at_a_loose_tol(self, capsys):
        # the run is never looser than ode.TOL, so its deviations stay far
        # below the fixed thresholds however loose --tol is; the corrupted
        # reduction still fails
        flags = ["--tol", "1e-6", "iso", "check", "--eps", "0.002", "--costates", "1.85,0.45266"]
        code, out = run(capsys, *flags)
        assert code == 0
        assert "all oracles within thresholds" in out
        code, out = run(capsys, *flags, "--corrupt-mapping")
        assert code == cli.EXIT_ORACLE
        assert "FAIL" in out

    def test_check_missed_shot_exits_no_hit_with_reason(self, capsys):
        code = cli.main(["iso", "check", "--eps", "0.002", "--costates=0,0"])
        assert code == cli.EXIT_NO_HIT
        assert "(switching-degeneracy)" in capsys.readouterr().err

    def test_areadiv(self, tmp_path, capsys):
        code, out = run(capsys, "--out", str(tmp_path), "iso", "areadiv",
                        "--eps-list", "0.1,0.05,0.03")
        assert code == 0
        assert "strictly_increasing_as_eps_decreases = True" in out
        columns, data = read_csv(tmp_path / "iso_area_divergence.csv")
        assert columns == ["eps", "pump_area"]
        assert data[2, 1] > data[1, 1] > data[0, 1]  # smaller eps, larger pump area
        manifest = json.loads((tmp_path / "iso_area_divergence.manifest.json").read_text())
        assert manifest["results"]["fallbacks"] == 0

    def test_areadiv_judges_distinct_eps(self, tmp_path, capsys):
        # a repeated eps gets a copy of its twin's optimum, so its area is
        # no step of the curve
        code, out = run(capsys, "--out", str(tmp_path), "iso", "areadiv",
                        "--eps-list", "0.1,0.1,0.05,0.03")
        assert code == 0
        assert "strictly_increasing_as_eps_decreases = True" in out
        _, data = read_csv(tmp_path / "iso_area_divergence.csv")
        assert data[0, 1] == data[1, 1] < data[2, 1] < data[3, 1]

    def test_areadiv_reports_a_fallback(self, tmp_path, capsys, monkeypatch):
        # the third point is the first the corrector solves; when it fails,
        # refine solves the point and the manifest counts it
        def correct(lphi_i, predicted, bias, cfg):
            raise shooting.NoConvergence("forced")

        monkeypatch.setattr(shooting, "_correct", correct)
        code, out = run(capsys, "--out", str(tmp_path), "iso", "areadiv",
                        "--eps-list", "0.1,0.05,0.03")
        assert code == 0
        assert "strictly_increasing_as_eps_decreases = True" in out
        manifest = json.loads((tmp_path / "iso_area_divergence.manifest.json").read_text())
        assert manifest["results"]["fallbacks"] == 1


# Imports qsl12.cli and runs a first command, as the set-up of every run of
# ``qsl`` does, then one small command of each family; prints the scipy
# modules loaded by the set-up, the modules each command adds, and the
# multiprocessing modules loaded by the import and by the whole run.
IMPORT_PATH_SCRIPT = """
import contextlib, io, json, sys
import qsl12.cli as cli

def forking():
    return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", sys.argv[1], *argv])
    assert code == 0, (argv, code)

imported = forking()
run("two-level", "tmin", "--eps", "0.002")
loaded = set(sys.modules)
report = {"setup": sorted(m for m in loaded if m.split(".")[0] == "scipy"), "added": {}}
for argv in json.loads(sys.argv[2]):
    run(*argv)
    report["added"][" ".join(argv)] = sorted(set(sys.modules) - loaded)
    loaded.update(sys.modules)
report["multiprocessing"] = {"import": imported, "run": forking()}
print(json.dumps(report))
"""

# One small serial command of each family (the landscape at one worker).
IMPORT_PATH_COMMANDS = [
    ["three-level", "optimize", "--eps", "0.005", "--guess", "0.7"],
    ["three-level", "landscape", "--eps", "0.002", "--res", "20", "--workers", "1"],
    ["three-level", "areacurve", "--eps-max", "0.1", "--eps-min", "0.03", "--n", "5"],
    ["three-level", "energy", "--T", "10", "--eps", "0.005"],
    ["iso", "check", "--eps", "0.002", "--costates", "1.85,0.45266"],
    ["iso", "areadiv", "--eps-list", "0.1,0.05,0.03"],
    ["two-level", "simulate", "--eps", "0.002"],
]


@pytest.fixture(scope="module")
def import_report(tmp_path_factory) -> dict:
    """The report of IMPORT_PATH_SCRIPT on IMPORT_PATH_COMMANDS, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(tmp_path_factory.mktemp("imports")),
         json.dumps(IMPORT_PATH_COMMANDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestImportPath:
    def test_commands_import_numpy_only(self, import_report):
        # no scipy module is loaded, and no command imports a module the
        # set-up has not: a lazy import (numpy.ma by np.unique, say) would
        # be paid inside the command
        assert import_report["setup"] == []
        assert import_report["added"] == {" ".join(argv): [] for argv in IMPORT_PATH_COMMANDS}

    def test_serial_commands_load_no_multiprocessing(self, import_report):
        # only a landscape split over two or more workers forks: importing
        # qsl12.cli and running every serial command load no multiprocessing
        # module (with socket and selectors, about 7 ms of import)
        assert import_report["multiprocessing"] == {"import": [], "run": []}


class TestParsing:
    def test_readme_examples_parse(self):
        # each documented command line parses as written; none is run
        blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("qsl ")]
        assert len(lines) >= 10
        parser = cli._build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["two-level", "tmin"])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["four-level", "tmin"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--tol", "-1", "two-level", "tmin", "--eps", "0.1"],
        ["--omega0", "0", "two-level", "tmin", "--eps", "0.1"],
        ["--horizon", "-5", "two-level", "tmin", "--eps", "0.1"],
    ])
    def test_bad_global_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("flag", ["--omega0", "--hbar", "--horizon", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_global_flags_exit_2(self, tmp_path, flag, value):
        argv = ["--out", str(tmp_path), flag, value, "three-level", "landscape", "--eps", "0.1", "--res", "4"]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_malformed_value_exits_2(self, capsys):
        assert cli.main(["two-level", "simulate", "--eps", "0.1", "--kerr", "bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["two-level", "curve", "--step", "0"],
        ["two-level", "curve", "--step", "-0.5"],
        ["two-level", "curve", "--amax", "-1"],
        ["three-level", "landscape", "--eps", "0.1", "--res", "4", "--range=nan,1"],
        ["three-level", "landscape", "--eps", "0.1", "--res", "4", "--range=-inf,inf"],
        ["three-level", "landscape", "--eps", "0.1", "--res", "4", "--range=0,inf"],
        ["three-level", "landscape", "--eps", "0.1", "--res", "4", "--range=-1e308,1e308"],
        ["three-level", "landscape", "--eps", "0.1", "--res", "4", "--workers", "-1"],
        ["two-level", "energy", "--T", "nan", "--eps", "0.002"],
        ["two-level", "energy", "--T", "inf", "--eps", "0.002"],
        ["three-level", "energy", "--T", "nan", "--eps", "0.002"],
        ["three-level", "optimize", "--eps", "0.002", "--lphi", "nan"],
        ["three-level", "optimize", "--eps", "0.002", "--guess", "inf"],
        ["iso", "check", "--costates", "nan,1"],
        ["two-level", "energy", "--T", "1e-320", "--eps", "0.002"],
        ["three-level", "energy", "--T", "1e-320", "--eps", "0.002"],
        ["three-level", "areacurve", "--eps-max", "0.1", "--eps-min", "0.1", "--n", "5"],
        ["two-level", "curve", "--amax", "1e300", "--step", "1e-300"],
        ["two-level", "simulate", "--eps", "0.002", "--kerr", "nan,0,0"],
        ["two-level", "simulate", "--eps", "0.002", "--kerr", "inf,0,0"],
        ["--omega0", "1e307", "two-level", "energy", "--T", "1e-307", "--eps", "0.002"],
        ["--omega0", "1e-310", "two-level", "tmin", "--eps", "0.002"],
        ["--omega0", "1e-310", "two-level", "simulate", "--eps", "0.002"],
        ["--omega0", "1e-310", "three-level", "landscape", "--eps", "0.002", "--res", "4", "--workers", "1"],
        ["--horizon", "1e308", "three-level", "landscape", "--eps", "0.002", "--res", "2", "--workers", "1"],
        ["three-level", "areacurve", "--eps-min=-1e-3"],
        ["three-level", "areacurve", "--eps-max=-0.1"],
        ["three-level", "optimize", "--eps", "0.002", "--guess", "0"],
        ["three-level", "optimize", "--eps", "0.002", "--guess", "5e-324"],
        ["three-level", "optimize", "--eps", "0.002", "--guess=1.7e308"],
        ["three-level", "landscape", "--eps", "0.1", "--res", "0"],
        ["two-level", "simulate", "--eps", "0.002", "--kerr", "1e308,0,0"],
    ])
    def test_bad_curve_grid_exits_2(self, tmp_path, capsys, flags):
        # the grid flags of a curve or a landscape, a non-finite or overflowing
        # duration, non-finite costates or Kerr shifts, a zero or subnormal
        # guess (its probes would coincide) or one whose probes overflow,
        # repeated accuracies,
        # an --omega0 that rescales a result out of range, a horizon whose
        # landscape step count overflows, an accuracy of the area curve
        # outside (0, 1); any warning would fail the test
        assert cli.main(["--out", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.startswith("invalid arguments: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, flag", [
        (["two-level", "simulate", "--eps", "0.1", "--kerr", "1,2"], "--kerr"),
        (["iso", "check", "--costates=1.85"], "--costates"),
        (["three-level", "landscape", "--eps", "0.1", "--range=1"], "--range"),
        (["iso", "areadiv", "--eps-list", "0.1,abc"], "--eps-list"),
        (["iso", "areadiv", "--eps-list="], "--eps-list"),
    ])
    def test_short_comma_list_names_its_flag(self, tmp_path, capsys, flags, flag):
        assert cli.main(["--out", str(tmp_path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid arguments: {flag} takes ") and "comma-separated numbers" in err
        assert not any(tmp_path.iterdir())
