"""Command-line interface: formats, exit codes, precedence, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_medium
from casimir_medium import checks
from casimir_medium import cli as cli_mod
from casimir_medium.cli import main
from casimir_medium.propagators import g_omega

VACUUM_SCALAR = -math.pi**2 / 480.0


@pytest.fixture
def lorentz_json(tmp_path):
    path = tmp_path / "lorentz.json"
    path.write_text(json.dumps({
        "electric": {"type": "lorentz", "omega_p": 1.0, "omega_0": 1.0,
                     "gamma": 0.1},
    }))
    return str(path)


@pytest.fixture
def constant_json(tmp_path):
    def make(chi0, name="constant.json"):
        path = tmp_path / name
        path.write_text(json.dumps({
            "electric": {"type": "constant", "chi0": chi0},
        }))
        return str(path)
    return make


def parse_csv(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestForceCommand:
    def test_vacuum_defaults(self, capsys):
        rc = main(["force"])
        out = capsys.readouterr().out
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["H", "force_per_area", "error_estimate",
                          "vacuum_ratio", "evaluations", "converged"]
        assert len(rows) == 1
        row = rows[0]
        assert float(row["H"]) == 1.0
        assert float(row["force_per_area"]) == pytest.approx(
            VACUUM_SCALAR, rel=1e-8
        )
        assert float(row["vacuum_ratio"]) == pytest.approx(1.0, rel=1e-8)
        assert int(row["evaluations"]) > 0
        assert row["converged"] == "true"

    def test_log_grid(self, capsys):
        rc = main(["force", "--hmin", "0.5", "--hmax", "2", "--points", "3",
                   "--log"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        hs = [float(r["H"]) for r in rows]
        assert hs == pytest.approx([0.5, 1.0, 2.0], rel=1e-12)

    def test_linear_grid(self, capsys):
        rc = main(["force", "--hmin", "0.5", "--hmax", "2", "--points", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert [float(r["H"]) for r in rows] == [0.5, 1.25, 2.0]

    def test_json_format(self, capsys):
        rc = main(["force", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert list(doc) == ["rows"]
        row = doc["rows"][0]
        assert row["converged"] is True
        assert row["force_per_area"] == pytest.approx(VACUUM_SCALAR, rel=1e-8)

    def test_em_with_magnetic_medium(self, tmp_path, capsys):
        # chi_e = 1 and chi_m = 0.5 give n = 2, so the ratio must be 1/2
        path = tmp_path / "em.json"
        path.write_text(json.dumps({
            "electric": {"type": "constant", "chi0": 1.0},
            "magnetic": {"type": "constant", "chi0": 0.5},
        }))
        rc = main(["force", "--medium", str(path), "--field", "em"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["vacuum_ratio"]) == pytest.approx(0.5, rel=1e-8)

    def test_polarization_bc(self, constant_json, capsys):
        rc = main(["force", "--medium", constant_json(1.0),
                   "--bc", "polarization", "--rel-tol", "1e-7"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["force_per_area"]) == pytest.approx(
            VACUUM_SCALAR / math.sqrt(2.0), rel=1e-5
        )

    def test_underflowed_force_is_unconverged(self, constant_json, capsys):
        # every J underflows to 0: the row is not a converged zero force
        rc = main(["force", "--medium", constant_json(1e308)])
        _, rows = parse_csv(capsys.readouterr().out)
        assert rc == 3
        assert float(rows[0]["vacuum_ratio"]) == 0.0
        assert rows[0]["converged"] == "false"

    def test_scale_multiplies_force_only(self, capsys):
        rc = main(["force", "--scale", "4.0"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["force_per_area"]) == pytest.approx(
            4.0 * VACUUM_SCALAR, rel=1e-8
        )
        assert float(rows[0]["vacuum_ratio"]) == pytest.approx(1.0, rel=1e-8)

    def test_byte_determinism(self, lorentz_json, capsys):
        argv = ["force", "--medium", lorentz_json, "--hmin", "0.5",
                "--hmax", "2", "--points", "3", "--log"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "force.csv"
        rc = main(["force", "--out", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        text = target.read_text()
        assert text.endswith("\n")
        _, rows = parse_csv(text)
        assert rows[0]["converged"] == "true"

    @pytest.mark.parametrize("command, target", [
        (["force"], "missing/x.csv"),
        (["force"], "."),
        (["propagator", "--point", "1,2"], "missing/x.csv"),
        (["force", "--config", "cfg.json"], "missing/x.csv"),
    ], ids=["force-missing-dir", "force-directory", "propagator-missing-dir",
            "config-out-key"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, command, target):
        path = str(tmp_path / target)
        if "--config" in command:
            (tmp_path / "cfg.json").write_text(json.dumps({"out": path}))
            argv = command[:-1] + [str(tmp_path / "cfg.json")]
        else:
            argv = command + ["--out", path]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: out: {path}: ")

    def test_unconverged_exit_code(self, capsys):
        rc = main(["force", "--rel-tol", "1e-15"])
        out = capsys.readouterr().out
        assert rc == 3
        _, rows = parse_csv(out)
        assert rows[0]["converged"] == "false"
        # the value is still emitted and still close
        assert float(rows[0]["force_per_area"]) == pytest.approx(
            VACUUM_SCALAR, rel=1e-8
        )

    def test_invalid_grid(self, capsys):
        assert main(["force", "--hmin", "0"]) == 1
        assert "hmin" in capsys.readouterr().err
        assert main(["force", "--points", "0"]) == 1
        assert "points" in capsys.readouterr().err
        assert main(["force", "--hmin", "2", "--hmax", "1", "--points", "3"]) == 1
        assert "hmax" in capsys.readouterr().err

    @pytest.mark.parametrize("hmin", ["1e100", "1e-100"])
    def test_separation_out_of_range(self, hmin, capsys):
        # H**4 would overflow or underflow: a one-line error, not a traceback
        assert main(["force", "--hmin", hmin]) == 1
        err = capsys.readouterr().err
        assert "separation" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, name", [
        pytest.param(["--scale", "nan"], "scale", id="nan"),
        pytest.param(["--scale", "inf"], "scale", id="inf"),
        # the Euclidean force route has no pole shift, so force takes no --eta
        pytest.param(["--eta", "1"], "--eta", id="eta"),
        # the force routes are purely relative, so force takes no --abs-tol
        pytest.param(["--abs-tol", "1"], "--abs-tol", id="abs_tol"),
    ])
    def test_non_finite_scale(self, argv, name, capsys):
        # main returns argparse's status 1 instead of raising SystemExit
        assert main(["force", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err

    def test_bad_format(self, capsys):
        rc = main(["force", "--config", "/dev/null"])
        # /dev/null is not JSON at all
        assert rc == 1


class TestConfigPrecedence:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hmin": 2.0}))
        rc = main(["force", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["H"]) == 2.0

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hmin": 2.0, "scale": 10.0}))
        rc = main(["force", "--config", str(cfg), "--hmin", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["H"]) == 1.0
        # untouched config keys still apply
        assert float(rows[0]["force_per_area"]) == pytest.approx(
            10.0 * VACUUM_SCALAR, rel=1e-8
        )

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hmin": 1.0, "thermal": True}))
        assert main(["force", "--config", str(cfg)]) == 1
        assert "thermal" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["force", "--config", str(cfg)]) == 1
        assert "object" in capsys.readouterr().err

    def test_config_syntax_error_located(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"hmin": }')
        assert main(["force", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:1:" in err

    def test_missing_config(self, tmp_path, capsys):
        assert main(["force", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("cfg, key", [
        ({"points": "abc"}, "points"),
        ({"field": "bogus"}, "field"),
        ({"rel_tol": "x"}, "rel_tol"),
        ({"eta": 1}, "eta"),
        ({"abs_tol": 1}, "abs_tol"),
    ])
    def test_bad_config_value_names_key(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["force", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert repr(key) in lines[0]

    def test_non_finite_scale_in_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"scale": NaN}')
        assert main(["force", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scale" in captured.err

    def test_env_rel_tol_applies_and_flag_wins(self, monkeypatch, capsys, tmp_path):
        # a polarization force over a lossy line costs more nodes at a
        # tighter tolerance (the vacuum converges at 105 nodes at both)
        path = tmp_path / "medium.json"
        path.write_text(json.dumps({"electric": {"type": "lorentz", "omega_p": 1,
                                                 "omega_0": 1, "gamma": 0.1}}))
        argv = ["force", "--bc", "polarization", "--medium", str(path)]
        assert main(argv) == 0
        baseline = parse_csv(capsys.readouterr().out)[1][0]

        monkeypatch.setenv(cli_mod.RELTOL_ENV, "1e-12")
        assert main(argv) == 0
        tight = parse_csv(capsys.readouterr().out)[1][0]
        assert int(tight["evaluations"]) > int(baseline["evaluations"])

        assert main([*argv, "--rel-tol", "1e-9"]) == 0
        overridden = parse_csv(capsys.readouterr().out)[1][0]
        assert overridden["evaluations"] == baseline["evaluations"]

    @pytest.mark.parametrize("raw", ["abc", "0", "-1", "inf"])
    def test_env_rel_tol_validated(self, monkeypatch, capsys, raw):
        monkeypatch.setenv(cli_mod.RELTOL_ENV, raw)
        assert main(["force"]) == 1
        assert cli_mod.RELTOL_ENV in capsys.readouterr().err


class TestMediumErrors:
    def test_missing_medium_file(self, tmp_path, capsys):
        assert main(["force", "--medium", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("command", [
        ["force", "--medium"], ["propagator", "--medium"], ["force", "--config"],
    ])
    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"electric": "\xff"}')
        assert main(command + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 14: "
            "invalid start byte"
        ]

    def test_malformed_medium_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "electric": {"type": "lorentz", "omega_p": 1.0, "omega_0": -1.0},
        }))
        assert main(["force", "--medium", str(path)]) == 1
        err = capsys.readouterr().err
        assert "electric" in err and "omega_0" in err

    def test_unstable_medium_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({
            "electric": {"type": "constant", "chi0": 1.0},
            "magnetic": {"type": "constant", "chi0": 1.5},
        }))
        assert main(["force", "--medium", str(path), "--field", "em"]) == 2
        assert "permeability" in capsys.readouterr().err

    def test_polarization_regime_exit_code(self, constant_json, capsys):
        rc = main(["force", "--medium", constant_json(0.1),
                   "--bc", "polarization"])
        assert rc == 2
        assert "regime" in capsys.readouterr().err


class TestCheckCommand:
    def test_limits_suite_passes(self, capsys):
        rc = main(["check", "limits"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9
        for line in lines:
            assert line.startswith("PASS ")
            assert "measured" in line and "bound" in line

    @pytest.mark.parametrize("suite", sorted(checks.SUITES))
    def test_verdict_is_measured_against_bound(self, suite):
        # the second-order line alone is two-sided: 80 <= ratio <= 120
        for result in checks.SUITES[suite]():
            if result.name != "action-route second order":
                assert result.passed == (result.measured <= result.bound), result

    def test_unconverged_suite_exit_code(self, capsys):
        assert main(["check", "action", "--rel-tol", "1e-13"]) == 1
        assert "did not converge" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert main(["check", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "nonsense" in err
        assert "limits" in err

    def test_failing_suite_exit_code(self, monkeypatch, capsys):
        def broken(spec=None):
            return [checks.CheckResult(
                name="stub", passed=False, measured=1.0, bound=0.5
            )]

        monkeypatch.setitem(cli_mod.SUITES, "stub", broken)
        rc = main(["check", "stub"])
        out = capsys.readouterr().out
        assert rc == 4
        assert out.startswith("FAIL stub:")


class TestPropagatorCommand:
    def test_euclidean_dressed_vacuum(self, capsys):
        rc = main(["propagator", "--point", "1,1", "--axis", "euclidean",
                   "--field", "scalar"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "axis,kind,k,freq,re,im,status"
        assert lines[1] == "euclidean,Gphiphi,1,1,0.5,0,ok"

    def test_free_static_value(self, capsys):
        rc = main(["propagator", "--point", "2,0", "--kinds", "G0",
                   "--field", "scalar"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["re"]) == 0.25
        assert float(rows[0]["im"]) == 0.0
        assert rows[0]["status"] == "ok"

    def test_reservoir_uses_resonance(self, capsys):
        rc = main(["propagator", "--point", "0,0.7", "--kinds", "Gomega",
                   "--omega-res", "1.3", "--eta", "1e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        expected = g_omega(1.3, 0.7, 1e-6)
        assert float(rows[0]["re"]) == pytest.approx(expected.real, rel=1e-15)
        assert float(rows[0]["im"]) == pytest.approx(expected.imag, rel=1e-15)

    def test_cross_correlators(self, lorentz_json, capsys):
        rc = main(["propagator", "--medium", lorentz_json,
                   "--kinds", "Gphiphi,GphiP,GphiM,GPP,GMM",
                   "--point", "0.4,1.1", "--field", "scalar"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert [r["kind"] for r in rows] == [
            "Gphiphi", "GphiP", "GphiM", "GPP", "GMM"
        ]
        assert all(r["status"] == "ok" for r in rows)

    def test_pole_row(self, capsys):
        rc = main(["propagator", "--point", "1,1", "--kinds", "G0",
                   "--field", "scalar", "--eta", "0"])
        out = capsys.readouterr().out
        assert rc == 3
        _, rows = parse_csv(out)
        assert rows[0]["status"] == "pole"
        assert rows[0]["re"] == "" and rows[0]["im"] == ""

    def test_origin_error_rows(self, capsys):
        # k = omega = 0 is outside G0's and G_phiphi's domain alike
        rc = main(["propagator", "--point", "0,0", "--kinds", "G0,Gphiphi",
                   "--field", "scalar"])
        out = capsys.readouterr().out
        assert rc == 3
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["error", "error"]

    def test_nan_denominator_is_an_error_row(self, capsys):
        # k^2 and omega^2 both overflow; the row must not read nan,nan,ok
        rc = main(["propagator", "--point", "1e200,1e200", "--kinds", "G0,Gphiphi"])
        out = capsys.readouterr().out
        assert rc == 3
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["error", "error"]

    def test_large_damping_is_no_traceback(self, tmp_path, capsys):
        # gamma^2 overflows a float power; both commands still answer
        path = tmp_path / "damped.json"
        path.write_text(json.dumps({
            "electric": {"type": "drude", "omega_p": 1, "gamma": 1e300},
        }))
        rc = main(["force", "--medium", str(path), "--bc", "polarization"])
        assert rc == 2
        assert "regime" in capsys.readouterr().err
        rc = main(["propagator", "--medium", str(path), "--point", "1,0.5",
                   "--kinds", "Gphiphi,GPP", "--field", "scalar"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_small_frequency_free_carrier_row(self, tmp_path, capsys):
        # Im chi = 2e170 there: w^4 underflows, the Drude form does not
        path = tmp_path / "drude.json"
        path.write_text(json.dumps({
            "electric": {"type": "drude", "omega_p": 1, "gamma": 0.5},
        }))
        rc = main(["propagator", "--medium", str(path), "--point", "1,1e-170",
                   "--kinds", "GPP"])
        out = capsys.readouterr().out
        assert rc == 0
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["ok"]
        assert float(rows[0]["re"]) == pytest.approx(2e170, rel=1e-15)

    def test_error_row_for_static_drude(self, tmp_path, capsys):
        path = tmp_path / "drude.json"
        path.write_text(json.dumps({
            "electric": {"type": "drude", "omega_p": 1.0, "gamma": 0.5},
        }))
        rc = main(["propagator", "--medium", str(path), "--point", "1,0",
                   "--field", "scalar"])
        out = capsys.readouterr().out
        assert rc == 3
        _, rows = parse_csv(out)
        assert rows[0]["status"] == "error"

    def test_unstable_medium_raises_not_rows(self, tmp_path, capsys):
        # the instability lives on the Euclidean axis, where the effective
        # permeability must stay positive; real-axis evaluation is fine
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({
            "electric": {"type": "constant", "chi0": 1.0},
            "magnetic": {"type": "constant", "chi0": 1.5},
        }))
        rc = main(["propagator", "--medium", str(path), "--point", "1,1",
                   "--axis", "euclidean", "--field", "em"])
        assert rc == 2
        assert "permeability" in capsys.readouterr().err

    def test_euclidean_restricted_to_dressed(self, capsys):
        rc = main(["propagator", "--point", "1,1", "--axis", "euclidean",
                   "--kinds", "G0", "--field", "scalar"])
        assert rc == 1
        assert "real axis" in capsys.readouterr().err

    def test_point_required(self, capsys):
        assert main(["propagator"]) == 1
        assert "--point" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["", ","])
    def test_kinds_required(self, raw, capsys):
        assert main(["propagator", "--point", "1,1", "--kinds", raw]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "--kinds" in captured.err

    @pytest.mark.parametrize("raw", ["1", "1,2,3", "a,b"])
    def test_bad_point(self, raw, capsys):
        assert main(["propagator", "--point", raw]) == 1

    def test_unknown_kind(self, capsys):
        assert main(["propagator", "--point", "1,1", "--kinds", "Gxx"]) == 1
        assert "Gxx" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, raw", [
        ("--eta", "nan"), ("--eta", "-1"), ("--eta", "inf"),
        ("--omega-res", "0"), ("--omega-res", "-1"), ("--omega-res", "nan"),
        ("--omega-res", "inf"),
    ])
    def test_bad_shift_or_reservoir_rejected(self, flag, raw, capsys):
        rc = main(["propagator", "--point", "1,1", "--kinds", "Gphiphi,GphiP,GPP",
                   flag, raw])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and flag in lines[0]


WIDE_GRID = {"type": "tabulated", "omega_grid": [1e-300, 0.5, 1, 2, 1e300],
             "g_values": [0, 0.3, 1, 0.2, 0]}
HUGE_SHARP_LINE = {"type": "sharp_resonance", "omega_p": 3.3797779783728956e95,
                   "omega_0": 23.790363726494764}
STEEP_GRID = {"type": "tabulated", "omega_grid": [1e-200, 2e-200], "g_values": [0, 1e120]}
EXTREME_POINTS = ("0,0", "1e-13,0", "1e200,1", "1,1e200", "1e200,1e200", "1e-200,0",
                  "0,1e-200", "1,1")


@pytest.mark.parametrize("electric, argv, code", [
    ({"type": "lorentz", "omega_p": 1, "omega_0": 1e-100, "gamma": 1e-100},
     ["propagator", "--point", "1,1e-100", "--kinds", "GPP", "--field", "scalar"], 0),
    (WIDE_GRID, ["force", "--hmin", "0.5", "--hmax", "5", "--points", "3"], 0),
    # k = xi = 0 and the modes whose k^2 + n^2 xi^2 underflows are error rows
    (WIDE_GRID, ["propagator", "--axis", "euclidean", "--field", "scalar",
                 *(arg for point in EXTREME_POINTS for arg in ("--point", point))], 3),
    ({"type": "constant", "chi0": 1e308}, ["force"], 3),
    ({"type": "constant", "chi0": 1e308}, ["force", "--bc", "polarization"], 3),
    ({"type": "lorentz", "omega_p": 1e200, "omega_0": 1, "gamma": 0.1},
     ["force", "--bc", "polarization"], 3),
    # chi_bar overflows, so n p0 is inf: J(inf) = 0, every value underflows
    ({"type": "lorentz", "omega_p": 1e200, "omega_0": 1, "gamma": 0.1}, ["force"], 3),
    ({"type": "lorentz", "omega_p": 1e200, "omega_0": 1, "gamma": 0.1},
     ["force", "--field", "em"], 3),
    # omega_0^2, omega^2 and gamma omega all underflow: the response overflows
    ({"type": "lorentz", "omega_p": 1, "omega_0": 1e-200, "gamma": 1e-200},
     ["propagator", "--point", "1,1e-200", "--kinds", "GPP", "--field", "scalar"], 3),
    # every integrand value underflows: the force is +0, not -0
    ({"type": "lorentz", "omega_p": 1e200, "omega_0": 1, "gamma": 1},
     ["force", "--bc", "polarization"], 3),
    # chi_bar(0) = inf, so the Euclidean denominator k^2 + 0 * inf is NaN
    ({"type": "lorentz", "omega_p": 1e200, "omega_0": 1, "gamma": 1},
     ["propagator", "--axis", "euclidean", "--kinds", "Gphiphi", "--point", "1,0"], 3),
    # omega_0^2 underflows, so chi_bar(0) divides by zero
    ({"type": "sharp_resonance", "omega_p": 1, "omega_0": 1e-200},
     ["propagator", "--axis", "euclidean", "--kinds", "Gphiphi", "--point", "1,0"], 3),
    # at H = 0.5 the exp-sinh node t = 1 sits exactly on the lossless line
    ({"type": "sharp_resonance", "omega_p": 2, "omega_0": 1},
     ["force", "--bc", "polarization", "--hmin", "0.4", "--hmax", "0.6", "--points", "3"], 0),
    # chi_e^2 overflows, chi_e (w^2 chi_e G), about -chi_e, does not
    (HUGE_SHARP_LINE, ["propagator", "--kinds", "GPP", "--field", "scalar",
                       "--point", "1.2944035672348795,2.3342490389379824"], 0),
    # the slope dg/dw overflows: a refusal naming medium.electric
    (STEEP_GRID, ["force"], 1),
    # omega_0^2 + xi^2 + gamma xi underflows at the smallest nodes, whose
    # weight exp(-n t) is 0: a converged force and no divide warning
    ({"type": "lorentz", "omega_p": 1, "omega_0": 1e-200, "gamma": 5e-201},
     ["force", "--bc", "polarization"], 0),
], ids=["lorentz-tiny-line-propagator", "wide-grid-force", "wide-grid-euclidean",
        "constant-1e308-force", "constant-1e308-polarization",
        "lorentz-wp-1e200-polarization", "lorentz-wp-1e200-force",
        "lorentz-wp-1e200-force-em", "lorentz-underflowed-propagator",
        "lorentz-wp-1e200-gamma-1-polarization", "lorentz-wp-1e200-euclidean",
        "sharp-line-underflowed-euclidean", "sharp-line-on-a-node-polarization",
        "sharp-line-huge-gpp", "tabulated-steep-slope", "lorentz-underflowed-polarization"])
def test_extreme_inputs(tmp_path, capsys, electric, argv, code):
    # the documented exit code and never a traceback (here a RuntimeWarning
    # is an error too), one stderr line on a refusal, no nan in an ok row
    # and no -0 anywhere
    path = tmp_path / "medium.json"
    path.write_text(json.dumps({"electric": electric}))
    rc = main([*argv, "--medium", str(path)])
    out, err = capsys.readouterr()
    assert rc == code, err
    assert "Traceback" not in err
    if code in (1, 2):
        assert len(err.strip().splitlines()) == 1
    for row in out.splitlines()[1:]:
        fields = row.split(",")
        assert "nan" not in fields or fields[-1] == "error", row
        assert "-0" not in fields, row


def _run_entry_point(value, *args):
    """Run a console-script entry point in a fresh interpreter.

    This does what an installer's wrapper script does, with the directory
    that holds the imported ``casimir_medium`` first on the child's path, so
    the child runs the code under test and not another installed copy.
    """
    code = (
        "import sys; from importlib.metadata import EntryPoint; "
        "sys.argv[0] = 'casimir-medium'; "
        f"sys.exit(EntryPoint('casimir-medium', {value!r}, "
        "'console_scripts').load()())"
    )
    return _run_python(code, *args)


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports the code under test.

    A numpy RuntimeWarning is an error there, as in this process.
    """
    package_root = str(Path(casimir_medium.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
               PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env,
    )


def test_field_route_does_not_import_quadpack(tmp_path):
    # scipy is a test-only dependency: every command runs without it, and
    # only the exported QUADPACK oracles may load it
    lorentz = tmp_path / "lorentz.json"
    lorentz.write_text(json.dumps({
        "electric": {"type": "lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 1.0},
        "magnetic": {"type": "lorentz", "omega_p": 0.3, "omega_0": 1.0, "gamma": 0.5},
    }))
    tabulated = tmp_path / "tabulated.json"
    tabulated.write_text(json.dumps({
        "electric": {"type": "tabulated", "omega_grid": [0.5, 1.0, 2.0],
                     "g_values": [0.0, 1.0, 0.0]},
    }))
    code = (
        "import sys; import casimir_medium.cli as cli; lor, tab = sys.argv[1:]; "
        "assert cli.main(['force', '--hmax', '2', '--points', '3']) == 0; "
        "assert cli.main(['force', '--medium', lor, '--bc', 'polarization', "
        "'--hmin', '1.4']) == 0; "
        "assert cli.main(['force', '--medium', lor, '--field', 'em']) == 0; "
        "assert cli.main(['check']) == 0; "
        "assert cli.main(['propagator', '--medium', tab, "
        f"'--kinds', {','.join(cli_mod._PROPAGATOR_KINDS)!r}, "
        "'--point', '0.4,0.3', '--point', '0.4,1.0', '--point', '0.4,1.3', "
        "'--point', '0.4,2.5']) == 0; "
        "sys.exit(5 if any(m.split('.')[0] == 'scipy' for m in sys.modules) else 0)"
    )
    proc = _run_python(code, str(lorentz), str(tabulated))
    assert proc.returncode == 0, proc.stderr


def test_check_dyson_does_not_import_numpy_random():
    # the 50 seeded points come from the stdlib generator; numpy.random
    # would lift the cold child's resident memory by about 5.6 MB
    code = (
        "import sys; import casimir_medium.cli as cli; "
        "assert cli.main(['check', 'dyson']) == 0; "
        "sys.exit(5 if 'numpy.random' in sys.modules else 0)"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_console_script_installed():
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "casimir-medium" in scripts
    value = scripts["casimir-medium"]

    proc = _run_entry_point(value, "force", "--rel-tol", "1e-6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("H,force_per_area")

    # a code that main() returns reaches the process exit status
    proc = _run_entry_point(value, "force", "--points", "0")
    assert proc.returncode == 1, proc.stderr
    assert "points" in proc.stderr

    # argparse's own errors are malformed arguments too: 1, not 2
    proc = _run_entry_point(value, "force", "--points", "abc")
    assert proc.returncode == 1, proc.stderr
    assert "--points" in proc.stderr
    assert "Traceback" not in proc.stderr

    proc = _run_entry_point(value, "force", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.skipif(
    shutil.which("casimir-medium") is None,
    reason="no casimir-medium executable on PATH (package not installed)",
)
def test_console_script_on_path():
    exe = shutil.which("casimir-medium")
    proc = subprocess.run(
        [exe, "force", "--rel-tol", "1e-6"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("H,force_per_area")
