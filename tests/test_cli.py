import argparse
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
            cli._write_atomic(tmp_path / "two_level_curve.csv", "1,2\n")
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
# modules loaded by the set-up and the modules each command adds.
IMPORT_PATH_SCRIPT = """
import contextlib, io, json, sys
import qsl12.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", sys.argv[1], *argv])
    assert code == 0, (argv, code)

run("two-level", "tmin", "--eps", "0.002")
loaded = set(sys.modules)
report = {"setup": sorted(m for m in loaded if m.split(".")[0] == "scipy"), "added": {}}
for argv in json.loads(sys.argv[2]):
    run(*argv)
    report["added"][" ".join(argv)] = sorted(set(sys.modules) - loaded)
    loaded.update(sys.modules)
print(json.dumps(report))
"""


class TestImportPath:
    def test_commands_import_numpy_only(self, tmp_path):
        # no scipy module is loaded, and no command imports a module the
        # set-up has not: a lazy import (numpy.ma by np.unique, say) would
        # be paid inside the command
        commands = [
            ["three-level", "optimize", "--eps", "0.005", "--guess", "0.7"],
            ["three-level", "landscape", "--eps", "0.002", "--res", "20", "--workers", "1"],
            ["three-level", "areacurve", "--eps-max", "0.1", "--eps-min", "0.03", "--n", "5"],
            ["three-level", "energy", "--T", "10", "--eps", "0.005"],
            ["iso", "check", "--eps", "0.002", "--costates", "1.85,0.45266"],
            ["iso", "areadiv", "--eps-list", "0.1,0.05,0.03"],
            ["two-level", "simulate", "--eps", "0.002"],
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(tmp_path), json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["setup"] == []
        assert report["added"] == {" ".join(argv): [] for argv in commands}


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
