import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from overlapkit import cli, inequalities, mesh
from overlapkit import serialize as ser
from overlapkit.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main, parse_angle
from overlapkit.inequalities import OverlapSet, make_h_mzi, make_hn
from overlapkit.interrogation import eta_ideal
from overlapkit.mesh import clements_layout, MeshCell, MeshConfig, decompose, haar_random_unitary, pentagon_qubit_set
from overlapkit.optimize import SamplingReport
from overlapkit.states import ValidationError, basis_state, qubit_state

from _oracles import (
    cell_by_cell_compose,
    decompose_reference,
    haar_unitary_numpy,
    haar_values_full_chunk,
    mzi_transfer_numpy,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def pentagon_overlaps(tmp_path):
    o = OverlapSet.from_states(pentagon_qubit_set())
    return write_json(tmp_path / "pentagon.json", ser.overlap_set_to_dict(o))


class TestParseAngle:
    def test_radians_default(self):
        assert parse_angle("1.5") == 1.5

    def test_degrees_suffix(self):
        assert parse_angle("150deg") == pytest.approx(5 * np.pi / 6)
        assert parse_angle("150 deg") == pytest.approx(5 * np.pi / 6)

    def test_bad_angle(self):
        from overlapkit.states import ValidationError
        with pytest.raises(ValidationError):
            parse_angle("abc")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf rad", "nandeg", "1e400"])
    def test_non_finite_angle_names_the_value(self, text):
        with pytest.raises(ValidationError, match=re.escape(repr(text))):
            parse_angle(text)


class TestEvaluate:
    def test_pentagon_overlaps(self, tmp_path, pentagon_overlaps, capsys):
        rc = main(["evaluate", "--input", pentagon_overlaps, "--inequality", "hmzi",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "value=2.795" in out
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["coherence_witnessed"] is True

    def test_state_set_input(self, tmp_path, capsys):
        states = {"kind": "pure",
                  "states": [ser.pure_state_to_dict(s) for s in pentagon_qubit_set()]}
        path = write_json(tmp_path / "states.json", states)
        rc = main(["evaluate", "--input", path, "--inequality", "hmzi", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK

    def test_qutrit_set_h4(self, tmp_path, capsys):
        from overlapkit.mesh import qutrit_h4_set
        states = {"kind": "pure",
                  "states": [ser.pure_state_to_dict(s) for s in qutrit_h4_set()]}
        path = write_json(tmp_path / "qutrits.json", states)
        rc = main(["evaluate", "--input", path, "--inequality", "h4", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "value=1.333" in capsys.readouterr().out

    def test_thresholds_do_not_over_report_exact_maximizers(self, tmp_path, capsys):
        from overlapkit.mesh import _star_ensemble_states, qutrit_h4_set, ququart_h5_set
        cases = [(f"star{n}_{d}", n, d, _star_ensemble_states(n, d))
                 for n in range(3, 11) for d in range(2, n)]
        cases += [("qutrits", 4, 3, qutrit_h4_set()), ("ququarts", 5, 4, ququart_h5_set())]
        for label, n, d, states in cases:
            record = {"kind": "pure", "states": [ser.pure_state_to_dict(s) for s in states]}
            path = write_json(tmp_path / f"{label}.json", record)
            rc = main(["evaluate", "--input", path, "--inequality", f"h{n}", "--thresholds",
                       "--out-dir", str(tmp_path / label)])
            assert rc == EXIT_OK
            verdict = json.loads((tmp_path / label / "verdict.json").read_text())
            assert verdict["min_dimension"] == (d if d > 2 else 1), (label, verdict)
            assert f"min_dimension={verdict['min_dimension']}" in capsys.readouterr().out

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["evaluate", "--input", str(bad), "--inequality", "h3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert "not valid JSON" in capsys.readouterr().err

    def test_nan_overlap_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "nan.json", {"n": 3, "upper": [float("nan"), 0.5, 0.2]})
        rc = main(["evaluate", "--input", path, "--inequality", "h3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_tol_option_belongs_to_mesh_only(self, pentagon_overlaps, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--input", pentagon_overlaps, "--inequality", "hmzi", "--tol", "1e-3",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_wrong_schema_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "odd.json", {"foo": 1})
        rc = main(["evaluate", "--input", path, "--inequality", "h3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_unknown_inequality(self, tmp_path, pentagon_overlaps):
        rc = main(["evaluate", "--input", pentagon_overlaps, "--inequality", "nope",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_inequality_from_file(self, tmp_path, pentagon_overlaps, capsys):
        spec_path = write_json(tmp_path / "spec.json", ser.inequality_to_dict(make_h_mzi()))
        rc = main(["evaluate", "--input", pentagon_overlaps, "--inequality", spec_path,
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "2.795" in capsys.readouterr().out

    def test_builtin_name_beats_stray_file(self, tmp_path, monkeypatch, capsys):
        from overlapkit.mesh import qutrit_h4_set
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h4").write_text("")
        states = {"kind": "pure",
                  "states": [ser.pure_state_to_dict(s) for s in qutrit_h4_set()]}
        path = write_json(tmp_path / "qutrits.json", states)
        rc = main(["evaluate", "--input", path, "--inequality", "h4", "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        assert "value=1.333" in capsys.readouterr().out

    def test_inequality_from_file_without_suffix(self, tmp_path, pentagon_overlaps, capsys):
        spec_path = write_json(tmp_path / "pentagon-spec", ser.inequality_to_dict(make_h_mzi()))
        rc = main(["evaluate", "--input", pentagon_overlaps, "--inequality", spec_path,
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "2.795" in capsys.readouterr().out


class TestSlack:
    @pytest.mark.parametrize("slack", ["nan", "inf", "-1"])
    def test_bad_slack_is_an_argparse_error(self, tmp_path, pentagon_overlaps, capsys, slack):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--input", pentagon_overlaps, "--inequality", "hmzi", "--slack", slack,
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_replayed_negative_slack_is_a_validation_error(self, tmp_path, pentagon_overlaps, capsys):
        out = tmp_path / "out"
        assert main(["evaluate", "--input", pentagon_overlaps, "--inequality", "hmzi", "--out-dir", str(out)]) == EXIT_OK
        manifest = out / "manifest-evaluate.json"
        record = json.loads(manifest.read_text())
        record["parameters"]["slack"] = -1
        manifest.write_text(json.dumps(record))
        (out / "verdict.json").unlink()
        assert main(["replay", str(manifest)]) == EXIT_VALIDATION
        assert "'slack'" in capsys.readouterr().err
        assert not (out / "verdict.json").exists()


# (files written into the working directory, argv); every record is malformed
MALFORMED_RECORDS = [
    pytest.param({"n.json": 5}, ["evaluate", "--input", "n.json", "--inequality", "h3"],
                 id="evaluate-number"),
    pytest.param({"n.json": [0.5, 0.2, 0.1]}, ["evaluate", "--input", "n.json", "--inequality", "h3"],
                 id="evaluate-list"),
    pytest.param({"m.json": {"subcommand": "evaluate", "parameters": {"input": "ok.json"}}},
                 ["replay", "m.json"], id="replay-missing-out-dir"),
    pytest.param({"m.json": {"subcommand": "evaluate", "parameters": {"input": "ok.json", "out_dir": "out"}}},
                 ["replay", "m.json"], id="replay-missing-inequality"),
    pytest.param({"m.json": ["sample"]}, ["replay", "m.json"], id="replay-list"),
    pytest.param({"m.json": {"subcommand": "sample", "parameters": 3}}, ["replay", "m.json"],
                 id="replay-parameters-number"),
    pytest.param({"m.json": {"subcommand": "bogus", "parameters": {}}}, ["replay", "m.json"],
                 id="replay-unknown-subcommand"),
    pytest.param({"c.json": []}, ["mesh", "simulate", "--config", "c.json"], id="mesh-config-list"),
    pytest.param({"o.json": {"n": 3, "upper": "abc"}}, ["evaluate", "--input", "o.json", "--inequality", "h3"],
                 id="evaluate-upper-string"),
    pytest.param({"s.json": {"kind": "pure", "states": [{"dim": "two", "amplitudes": [[1, 0]]}]}},
                 ["evaluate", "--input", "s.json", "--inequality", "h3"], id="evaluate-dim-string"),
    pytest.param({"c.json": {"modes": "six", "cells": []}}, ["mesh", "simulate", "--config", "c.json"],
                 id="mesh-config-modes-string"),
    pytest.param({"m.json": {"subcommand": "sample", "parameters": {
        "d": "x", "inequality": "h4", "num_sets": 5, "bins": 5, "seed": 0, "out_dir": "out", "format": "json"}}},
                 ["replay", "m.json"], id="replay-d-string"),
    pytest.param({"m.json": {"subcommand": "sample", "parameters": {
        "d": 2, "inequality": "h4", "num_sets": 5, "bins": 0, "seed": 0, "out_dir": "out", "format": "json"}}},
                 ["replay", "m.json"], id="replay-bins-zero"),
    pytest.param({"m.json": {"subcommand": "sample", "parameters": {
        "d": 2.5, "inequality": "h4", "num_sets": 5, "bins": 5, "seed": 0, "out_dir": "out", "format": "json"}}},
                 ["replay", "m.json"], id="replay-d-fraction"),
    pytest.param({"m.json": {"subcommand": "sample", "parameters": {
        "d": 2, "inequality": "h4", "num_sets": 5, "bins": 5, "seed": 0, "out_dir": "out", "format": "xml"}}},
                 ["replay", "m.json"], id="replay-format-choice"),
    pytest.param({"m.json": {"subcommand": "evaluate", "parameters": {
        "input": "ok.json", "inequality": 5, "out_dir": "out", "thresholds": False, "slack": 0.0,
        "seed": 0, "format": "json"}}}, ["replay", "m.json"], id="replay-inequality-number"),
    pytest.param({"m.json": {"subcommand": "evaluate", "parameters": {
        "input": "ok.json", "inequality": "hmzi", "out_dir": "out", "thresholds": "yes", "slack": 0.0,
        "seed": 0, "format": "json"}}}, ["replay", "m.json"], id="replay-flag-string"),
]


class TestMalformedRecords:
    @pytest.mark.parametrize("files, argv", MALFORMED_RECORDS)
    def test_exit_code(self, tmp_path, monkeypatch, capsys, files, argv):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "ok.json", ser.overlap_set_to_dict(OverlapSet.from_states(pentagon_qubit_set())))
        for name, obj in files.items():
            write_json(tmp_path / name, obj)
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")


class TestSampleBins:
    @pytest.mark.parametrize("bins", ["0", "-2", "x"])
    def test_nonpositive_bins_is_an_argparse_error(self, tmp_path, capsys, bins):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--inequality", "h4", "--d", "2", "--num-sets", "5", "--bins", bins,
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--bins" in capsys.readouterr().err


class TestArgumentTypes:
    @pytest.mark.parametrize("argv, message", [
        (["sample", "--inequality", "h4", "--d", "2", "--bins", "x"],
         "argument --bins: expected a positive integer, got 'x'"),
        (["interrogation", "--r-steps", "-1"],
         "argument --r-steps: expected a non-negative integer, got '-1'"),
        (["interrogation", "--r-max", "nan"],
         "argument --r-max: expected a number in [0, 1], got 'nan'"),
        (["evaluate", "--input", "o.json", "--inequality", "h4", "--slack", "inf"],
         "argument --slack: expected a finite non-negative number, got 'inf'"),
        (["mesh", "decompose", "--tol", "abc"],
         "argument --tol: expected a finite non-negative number, got 'abc'"),
    ])
    def test_error_messages(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)

    @pytest.mark.parametrize("convert, text, value", [
        (cli._positive_int, "7", 7), (cli._nonnegative_int, "0", 0),
        (cli._unit_interval, "1", 1.0), (cli._nonnegative_float, "0.25", 0.25),
    ])
    def test_accepted_values_keep_their_type(self, convert, text, value):
        got = convert(text)
        assert got == value and type(got) is type(value)


class TestColdStart:
    @staticmethod
    def fresh_interpreter(code: str, *args: str) -> str:
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
        return out.stdout

    def test_import_leaves_scipy_unloaded(self):
        code = "import overlapkit.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert self.fresh_interpreter(code).strip() == "[]"

    @staticmethod
    def every_subcommand(tmp_path) -> list[list[str]]:
        """One argv per subcommand and mesh action, and a replay, on small inputs."""
        overlaps = write_json(tmp_path / "overlaps.json",
                              ser.overlap_set_to_dict(OverlapSet.from_states(pentagon_qubit_set())))
        states = write_json(tmp_path / "states.json",
                            {"kind": "pure", "states": [ser.pure_state_to_dict(s) for s in pentagon_qubit_set()]})
        unitary = write_json(tmp_path / "u.json", ser.unitary_to_dict(haar_random_unitary(4, 5)))
        config = write_json(tmp_path / "config.json", ser.mesh_config_to_dict(decompose(haar_random_unitary(4, 6))))
        currents = np.linspace(0.0, 0.6, 40)
        powers = (1.0 + np.cos(1.2 + 24.0 * currents**2 * (1.0 + 0.05 * currents**2))) / 2.0
        sweeps = tmp_path / "sweeps.csv"
        sweeps.write_text("heater,current_a,cross_power\n"
                          + "".join(f"0,{float(i)!r},{float(p)!r}\n" for i, p in zip(currents, powers)))
        commands = [
            ["evaluate", "--input", overlaps, "--inequality", "hmzi"],
            ["table", "--n-max", "4", "--restarts", "4"],
            ["interrogation", "--nu-steps", "3", "--r-steps", "3"],
            ["sample", "--inequality", "h4", "--d", "2", "--num-sets", "50"],
            ["maximize", "--inequality", "h4", "--d", "2", "--restarts", "4", "--bound"],
            ["mesh", "simulate", "--config", config],
            ["mesh", "decompose", "--unitary", unitary],
            ["mesh", "calibrate", "--sweeps", str(sweeps)],
            ["mesh", "fidelity", "--target", unitary, "--experimental", unitary],
            ["mesh", "fidelity", "--study", "--num-unitaries", "3", "--modes", "3"],
            ["mesh", "counts", "--states", states, "--trials", "100"],
        ]
        argvs = [argv + ["--out-dir", str(tmp_path / str(k))] for k, argv in enumerate(commands)]
        argvs.append(["replay", str(tmp_path / "7" / "manifest-mesh-calibrate.json")])
        return argvs

    def test_no_subcommand_loads_scipy(self, tmp_path):
        argvs = self.every_subcommand(tmp_path)
        code = ("import json, sys\n"
                "from overlapkit.cli import main\n"
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n")
        codes, scipy_modules = json.loads(self.fresh_interpreter(code, json.dumps(argvs)).splitlines()[-1])
        assert codes == [EXIT_OK] * len(argvs)
        assert scipy_modules == []

    def test_everything_runs_with_scipy_blocked(self, tmp_path):
        argvs = self.every_subcommand(tmp_path)
        code = ("import importlib, json, pkgutil, sys\n"
                "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
                "import overlapkit\n"
                "modules = sorted(m.name for m in pkgutil.walk_packages(overlapkit.__path__, 'overlapkit.'))\n"
                "for name in modules:\n"
                "    importlib.import_module(name)\n"
                "from overlapkit.cli import main\n"
                "from overlapkit.inequalities import make_hn\n"
                "from overlapkit.mesh import five_mode_h6_parameters, maximize_pure_family, prepare_5mode\n"
                "_, fit = maximize_pure_family(make_hn(6), lambda p: prepare_5mode(*p), 7, restarts=1, seed=7)\n"
                "_, closed = five_mode_h6_parameters()\n"
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                "print(json.dumps([modules, fit, closed, codes]))\n")
        modules, fit, closed, codes = json.loads(self.fresh_interpreter(code, json.dumps(argvs)).splitlines()[-1])
        assert {"overlapkit.cli", "overlapkit.mesh", "overlapkit.optimize", "overlapkit.serialize"} <= set(modules)
        assert fit == pytest.approx(1.4, abs=1e-6)
        assert closed == pytest.approx(1.4, abs=1e-12)
        assert codes == [EXIT_OK] * len(argvs)

    def test_patched_handler_runs_after_parser_is_built(self, tmp_path, monkeypatch, pentagon_overlaps, capsys):
        assert main(["interrogation", "--nu-steps", "3", "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(["evaluate", "--input", pentagon_overlaps, "--inequality", "hmzi",
                     "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_interrogation", lambda args: seen.append(args.command) or EXIT_OK)
        assert main(["interrogation", "--out-dir", str(tmp_path / "c")]) == EXIT_OK
        assert seen == ["interrogation"]

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, capsys):
        argv = ["interrogation", "--nu-steps", "3", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK

        def rebuilt():
            raise AssertionError("main rebuilt its parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert main(argv) == EXIT_OK

    def test_build_parser_returns_a_fresh_parser(self):
        a, b = cli.build_parser(), cli.build_parser()
        assert a is not b
        assert vars(a.parse_args(["interrogation"])) == vars(b.parse_args(["interrogation"]))

    def test_manifest_parameters_name_the_command_only(self, tmp_path, capsys):
        assert main(["interrogation", "--nu-steps", "3", "--out-dir", str(tmp_path)]) == EXIT_OK
        params = json.loads((tmp_path / "manifest-interrogation.json").read_text())["parameters"]
        assert params["command"] == "interrogation"
        assert "func" not in params


class TestTable:
    def test_small_table(self, tmp_path, capsys):
        rc = main(["table", "--n-max", "5", "--restarts", "30", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        csv_text = (tmp_path / "threshold_table.csv").read_text()
        assert csv_text.splitlines()[0].startswith("functional,")
        rows = json.loads((tmp_path / "threshold_table.json").read_text())
        by_cell = {(r["n"], r["d"]): r for r in rows}
        assert by_cell[(5, 4)]["max_value"] == pytest.approx(1.375, abs=1e-3)

    def test_d_max_below_two_is_a_validation_error(self, tmp_path, capsys):
        rc = main(["table", "--n-max", "4", "--d-max", "1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert "d_max" in capsys.readouterr().err
        assert not (tmp_path / "threshold_table.json").exists()


class TestInterrogation:
    def test_reference_curve(self, tmp_path, capsys):
        rc = main(["interrogation", "--theta", "150deg", "--nu-max", "0.12",
                   "--nu-steps", "13", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "crossover_nu=0.057" in capsys.readouterr().out
        lines = (tmp_path / "robustness_curve.csv").read_text().splitlines()
        assert lines[0] == "nu,eta_quantum,eta_nc"
        assert len(lines) == 14


class TestInterrogationSteps:
    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_nu_steps_is_an_argparse_error(self, tmp_path, capsys, steps):
        with pytest.raises(SystemExit) as exc:
            main(["interrogation", "--nu-steps", steps, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--nu-steps" in capsys.readouterr().err
        assert not (tmp_path / "robustness_curve.csv").exists()


class TestInterrogationBand:
    def test_zero_band_bytes(self, tmp_path):
        assert main(["interrogation", "--r-steps", "11", "--r-max", "1", "--band", "0",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = ["r,eta_ideal,eta_band_low,eta_band_high"]
        for r in np.linspace(0.0, 1.0, 11):
            eta = repr(float(eta_ideal(r)))
            rows.append(f"{float(r)!r},{eta},{eta},{eta}")
        assert (tmp_path / "efficiency_curve.csv").read_text() == "\n".join(rows) + "\n"

    @pytest.mark.parametrize("band", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_band_is_an_argparse_error(self, tmp_path, capsys, band):
        with pytest.raises(SystemExit) as exc:
            main(["interrogation", "--r-steps", "3", "--band", band, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--band" in capsys.readouterr().err
        assert not (tmp_path / "efficiency_curve.csv").exists()

    def test_zero_band_is_the_ideal_curve(self, tmp_path):
        assert main(["interrogation", "--r-steps", "3", "--band", "0", "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = [line.split(",") for line in (tmp_path / "efficiency_curve.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3 and all(r[1] == r[2] == r[3] for r in rows)

    def test_replayed_negative_band_is_a_validation_error(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["interrogation", "--r-steps", "3", "--out-dir", str(first)]) == EXIT_OK
        manifest = json.loads((first / "manifest-interrogation.json").read_text())
        manifest["parameters"].update(band=-1, out_dir=str(second))
        path = write_json(tmp_path / "m.json", manifest)
        assert main(["replay", path]) == EXIT_VALIDATION
        assert "'band'" in capsys.readouterr().err
        assert not (second / "efficiency_curve.csv").exists()


class TestInterrogationWritesNothingOnBadInput:
    @pytest.mark.parametrize("option", [["--r-max", "2"], ["--r-max", "nan"], ["--r-max", "-0.1"],
                                        ["--r-steps", "-3"]])
    def test_bad_sweep_option_is_an_argparse_error(self, tmp_path, capsys, option):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["interrogation", "--r-steps", "3", *option, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theta", ["nan", "inf", "-infdeg"])
    def test_non_finite_theta_writes_nothing(self, tmp_path, capsys, theta):
        out = tmp_path / "out"
        assert main(["interrogation", f"--theta={theta}", "--out-dir", str(out)]) == EXIT_VALIDATION
        assert repr(theta) in capsys.readouterr().err
        assert not out.exists()

    def test_band_the_library_rejects_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["interrogation", "--r-steps", "3", "--band", "0.6", "--out-dir", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_replayed_r_max_out_of_range_writes_nothing(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["interrogation", "--r-steps", "3", "--out-dir", str(first)]) == EXIT_OK
        manifest = json.loads((first / "manifest-interrogation.json").read_text())
        manifest["parameters"].update(r_max=2, out_dir=str(second))
        path = write_json(tmp_path / "m.json", manifest)
        assert main(["replay", path]) == EXIT_VALIDATION
        assert "'r_max'" in capsys.readouterr().err
        assert not second.exists()

    def test_zero_r_steps_means_no_sweep(self, tmp_path, capsys):
        assert main(["interrogation", "--r-steps", "0", "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "robustness_curve.csv").exists()
        assert not (tmp_path / "efficiency_curve.csv").exists()


class TestMaximize:
    def test_bound_the_library_rejects_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["maximize", "--inequality", "h4", "--d", "1", "--restarts", "2", "--bound", "--out-dir", str(out)])
        assert rc == EXIT_VALIDATION
        assert "2 <= d" in capsys.readouterr().err
        assert not out.exists()

    def test_bound_the_library_rejects_stops_before_the_ascent(self, tmp_path, monkeypatch, capsys):
        def no_ascent(*args, **kwargs):
            raise AssertionError("the ascent ran")

        monkeypatch.setattr(cli, "maximize_pure", no_ascent)
        out = tmp_path / "out"
        rc = main(["maximize", "--inequality", "h6", "--d", "1", "--bound", "--out-dir", str(out)])
        assert rc == EXIT_VALIDATION
        assert "2 <= d" in capsys.readouterr().err
        assert not out.exists()


def saved_spec(tmp_path, spec, name):
    """Write ``spec`` as a spec file under another name; returns its path."""
    record = ser.inequality_to_dict(spec)
    record["name"] = name
    return write_json(tmp_path / f"{name}-spec.json", record)


def states_file(tmp_path, states):
    record = {"kind": "pure", "states": [ser.pure_state_to_dict(s) for s in states]}
    return write_json(tmp_path / "states.json", record)


class TestHnIdentity:
    """--thresholds and --bound follow the weights of h_n, whatever the spec's name."""

    def test_pentagon_named_h5_gets_no_thresholds(self, tmp_path, capsys):
        spec = saved_spec(tmp_path, make_h_mzi(), "h5")
        rc = main(["evaluate", "--input", states_file(tmp_path, pentagon_qubit_set()), "--inequality", spec,
                   "--thresholds", "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert verdict["min_dimension"] == 1 and not verdict["min_dimension_known"]
        assert verdict["coherence_witnessed"]
        assert "min_dimension=1" in capsys.readouterr().out

    def test_pentagon_named_h5_gets_no_bound(self, tmp_path, capsys):
        spec = saved_spec(tmp_path, make_h_mzi(), "h5")
        out = tmp_path / "out"
        rc = main(["maximize", "--inequality", spec, "--d", "2", "--restarts", "4", "--bound", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert not (out / "upper_bound.json").exists()
        assert "upper_bound" not in capsys.readouterr().out

    def test_renamed_h5_gets_thresholds(self, tmp_path, capsys):
        from overlapkit.mesh import ququart_h5_set
        states = states_file(tmp_path, ququart_h5_set())
        verdicts = {}
        for ref in ("h5", saved_spec(tmp_path, make_hn(5), "mine")):
            out = tmp_path / f"out-{len(verdicts)}"
            assert main(["evaluate", "--input", states, "--inequality", ref, "--thresholds",
                         "--out-dir", str(out)]) == EXIT_OK
            verdicts[ref] = (out / "verdict.json").read_bytes()
        assert len(set(verdicts.values())) == 1
        assert json.loads(verdicts["h5"])["min_dimension"] == 4

    def test_renamed_h5_gets_the_bound(self, tmp_path, capsys):
        spec = saved_spec(tmp_path, make_hn(5), "mine")
        for ref, out in (("h5", tmp_path / "builtin"), (spec, tmp_path / "renamed")):
            assert main(["maximize", "--inequality", ref, "--d", "4", "--restarts", "2", "--bound",
                         "--out-dir", str(out)]) == EXIT_OK
        for name in ("maximization.json", "upper_bound.json"):
            assert (tmp_path / "renamed" / name).read_bytes() == (tmp_path / "builtin" / name).read_bytes()

    @pytest.mark.parametrize("ref", ["h2", "h", "hx", "h\u00b2", "h 4"])
    def test_unknown_name(self, tmp_path, pentagon_overlaps, capsys, ref):
        rc = main(["evaluate", "--input", pentagon_overlaps, "--inequality", ref, "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert f"unknown inequality {ref!r}" in capsys.readouterr().err


class TestSample:
    def test_h6_d4_no_violation(self, tmp_path, capsys):
        rc = main(["sample", "--inequality", "h6", "--d", "4", "--num-sets", "20000",
                   "--seed", "3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "sampling.json").read_text())
        assert report["violation_count"] == 0

    def test_histogram_counts_sum(self, tmp_path):
        rc = main(["sample", "--inequality", "h4", "--d", "3", "--num-sets", "5000",
                   "--seed", "1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = (tmp_path / "histogram.csv").read_text().splitlines()[1:]
        total = sum(int(r.split(",")[2]) for r in rows)
        assert total == 5000

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc = main(["sample", "--inequality", "h4", "--d", "2", "--num-sets", "4000",
                       "--seed", "7", "--out-dir", str(d)])
            assert rc == EXIT_OK
        assert (d1 / "sampling.json").read_bytes() == (d2 / "sampling.json").read_bytes()
        assert (d1 / "histogram.csv").read_bytes() == (d2 / "histogram.csv").read_bytes()

    @pytest.mark.parametrize("inequality", ["h5", "h3"])
    def test_one_dimension_histogram(self, tmp_path, inequality):
        # every value is 1 to within a few ulps: too narrow a range for 50 bins
        rc = main(["sample", "--inequality", inequality, "--d", "1", "--num-sets", "100",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = (tmp_path / "histogram.csv").read_text().splitlines()[1:]
        assert len(rows) == 50 and sum(int(r.split(",")[2]) for r in rows) == 100
        assert json.loads((tmp_path / "sampling.json").read_text())["num_sets"] == 100

    def test_matches_the_full_chunk_route_byte_for_byte(self, tmp_path):
        rc = main(["sample", "--inequality", "h6", "--d", "4", "--num-sets", "20000", "--seed", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        values = haar_values_full_chunk(make_hn(6), 4, 20000, 1)
        report = SamplingReport(n=6, d=4, values=values,
                                violation_count=int(np.sum(values > make_hn(6).classical_bound)))
        assert (tmp_path / "sampling.json").read_text() == ser.dumps(ser.sampling_to_dict(report))
        assert (tmp_path / "histogram.csv").read_text() == ser.histogram_csv(values, bins=50)


class TestNegativeSeed:
    def test_sample_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sample", "--inequality", "h4", "--d", "2", "--num-sets", "10", "--seed", "-1",
                   "--out-dir", str(out)])
        assert rc == EXIT_VALIDATION
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_mesh_counts_exits_2_and_writes_nothing(self, tmp_path, capsys):
        states = {"kind": "pure",
                  "states": [ser.pure_state_to_dict(s) for s in pentagon_qubit_set()]}
        path = write_json(tmp_path / "states.json", states)
        out = tmp_path / "out"
        rc = main(["mesh", "counts", "--states", path, "--trials", "100", "--seed", "-1",
                   "--out-dir", str(out)])
        assert rc == EXIT_VALIDATION
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_replayed_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sample", "--inequality", "h4", "--d", "2", "--num-sets", "10",
                     "--out-dir", str(out)]) == EXIT_OK
        manifest = out / "manifest-sample.json"
        record = json.loads(manifest.read_text())
        record["parameters"]["seed"] = record["seed"] = -1
        manifest.write_text(json.dumps(record))
        before = manifest.read_bytes()
        for name in ("sampling.json", "histogram.csv"):
            (out / name).unlink()
        assert main(["replay", str(manifest)]) == EXIT_VALIDATION
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["manifest-sample.json"]
        assert manifest.read_bytes() == before


class TestMeshCommands:
    def test_simulate_and_decompose_roundtrip(self, tmp_path, capsys):
        u = haar_random_unitary(4, 5)
        upath = write_json(tmp_path / "u.json", {
            "dim": 4, "entries": [[float(z.real), float(z.imag)] for z in u.ravel()]})
        rc = main(["mesh", "decompose", "--unitary", upath, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rc = main(["mesh", "simulate", "--config", str(tmp_path / "mesh_config.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "unitary.json").read_text())
        flat = np.array([complex(p[0], p[1]) for p in payload["entries"]]).reshape(4, 4)
        assert np.max(np.abs(flat - u)) < 1e-9

    def test_fidelity_of_roundtrip_is_one(self, tmp_path, capsys):
        u = haar_random_unitary(3, 9)
        cfg = decompose(u)
        from overlapkit.mesh import compose
        v = compose(cfg)
        for name, mat in (("a.json", u), ("b.json", v)):
            write_json(tmp_path / name, {
                "dim": 3, "entries": [[float(z.real), float(z.imag)] for z in mat.ravel()]})
        rc = main(["mesh", "fidelity", "--target", str(tmp_path / "a.json"),
                   "--experimental", str(tmp_path / "b.json"), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert json.loads((tmp_path / "fidelity.json").read_text())["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_decompose_reads_tol(self, tmp_path, capsys):
        u = haar_random_unitary(3, 2)
        upath = write_json(tmp_path / "u.json", ser.unitary_to_dict(u))
        rc = main(["mesh", "decompose", "--unitary", upath, "--tol", "1e-9", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert json.loads((tmp_path / "manifest-mesh-decompose.json").read_text())["parameters"]["tol"] == 1e-9

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "x"])
    def test_decompose_bad_tol_is_an_argparse_error(self, tmp_path, capsys, tol):
        upath = write_json(tmp_path / "u.json", ser.unitary_to_dict(haar_random_unitary(5, 2)))
        with pytest.raises(SystemExit) as exc:
            main(["mesh", "decompose", "--unitary", upath, "--tol", tol, "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_VALIDATION
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "mesh_config.json").exists()

    def test_decompose_tol_below_floor_matches_default(self, tmp_path, capsys):
        upath = write_json(tmp_path / "u.json", ser.unitary_to_dict(haar_random_unitary(5, 2)))
        outputs = []
        for k, extra in enumerate([[], ["--tol", "0"], ["--tol", "1e-12"]]):
            out = tmp_path / str(k)
            assert main(["mesh", "decompose", "--unitary", upath, *extra, "--out-dir", str(out)]) == EXIT_OK
            outputs.append((out / "mesh_config.json").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert json.loads((tmp_path / "1" / "manifest-mesh-decompose.json").read_text())["parameters"]["tol"] == 0.0

    @pytest.mark.parametrize("atol", [np.nan, -1.0, np.inf])
    def test_decompose_rejects_bad_atol(self, atol):
        with pytest.raises(ValidationError, match="unitarity tolerance must be finite and non-negative"):
            decompose(haar_random_unitary(3, 1), atol=atol)

    def test_decompose_manifest_with_null_tol_replays(self, tmp_path, capsys):
        upath = write_json(tmp_path / "u.json", ser.unitary_to_dict(haar_random_unitary(4, 7)))
        assert main(["mesh", "decompose", "--unitary", upath, "--out-dir", str(tmp_path)]) == EXIT_OK
        manifest_path = tmp_path / "manifest-mesh-decompose.json"
        assert json.loads(manifest_path.read_text())["parameters"]["tol"] is None
        first = (tmp_path / "mesh_config.json").read_bytes()
        (tmp_path / "mesh_config.json").unlink()
        assert main(["replay", str(manifest_path)]) == EXIT_OK
        assert (tmp_path / "mesh_config.json").read_bytes() == first

    def test_simulate_without_config_exit_code(self, tmp_path, capsys):
        rc = main(["mesh", "simulate", "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert "--config" in capsys.readouterr().err

    def test_decompose_short_entries_exit_code(self, tmp_path, capsys):
        upath = write_json(tmp_path / "u.json", {"dim": 2, "entries": [[1, 0]]})
        rc = main(["mesh", "decompose", "--unitary", upath, "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_calibrate_unreadable_sweeps_exit_code(self, tmp_path, capsys, name):
        rc = main(["mesh", "calibrate", "--sweeps", str(tmp_path / name), "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_fidelity_malformed_record_exit_code(self, tmp_path, capsys):
        good = write_json(tmp_path / "a.json", ser.unitary_to_dict(np.eye(2, dtype=complex)))
        bad = write_json(tmp_path / "b.json", {"entries": [[1, 0]]})
        rc = main(["mesh", "fidelity", "--target", good, "--experimental", bad, "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_fidelity_study(self, tmp_path, capsys):
        rc = main(["mesh", "fidelity", "--study", "--num-unitaries", "20", "--seed", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "fidelity_study.json").read_text())
        assert 0.98 < payload["mean"] < 1.0

    @pytest.mark.parametrize("option", [["--num-unitaries", "0"], ["--sigma", "-1"], ["--sigma", "nan"]])
    def test_fidelity_study_bad_arguments_exit_code(self, tmp_path, capsys, option):
        rc = main(["mesh", "fidelity", "--study", *option, "--out-dir", str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "fidelity_study.json").exists()

    def test_fidelity_study_replays_byte_identically(self, tmp_path, capsys):
        rc = main(["mesh", "fidelity", "--study", "--num-unitaries", "5", "--modes", "5", "--sigma", "0.07",
                   "--seed", "4", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        first = (tmp_path / "fidelity_study.json").read_bytes()
        assert main(["replay", str(tmp_path / "manifest-mesh-fidelity.json")]) == EXIT_OK
        assert (tmp_path / "fidelity_study.json").read_bytes() == first

    @pytest.mark.parametrize("field, value", [("theta", "NaN"), ("phi", "NaN"), ("theta", "Infinity"),
                                              ("phi", "-Infinity"), ("theta", '"x"'), ("output_phases", "NaN")])
    def test_simulate_non_finite_angle_exits_2_and_writes_nothing(self, tmp_path, capsys, field, value):
        record = ser.mesh_config_to_dict(decompose(haar_random_unitary(3, 4)))
        text = json.dumps(record)
        if field == "output_phases":
            text = text.replace(f"{record['output_phases'][1]!r}", value, 1)
        else:
            text = text.replace(f'"{field}": {record["cells"][1][field]!r}', f'"{field}": {value}', 1)
        assert text != json.dumps(record)
        (tmp_path / "config.json").write_text(text)
        out = tmp_path / "out"
        rc = main(["mesh", "simulate", "--config", str(tmp_path / "config.json"), "--out-dir", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e308", "1.7e308"])
    def test_fidelity_study_overflowing_sigma_exits_3_and_writes_nothing(self, tmp_path, capsys, sigma):
        out = tmp_path / "out"
        rc = main(["mesh", "fidelity", "--study", "--modes", "3", "--num-unitaries", "4", "--sigma", sigma,
                   "--out-dir", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, output", [
        (["mesh", "decompose", "--unitary", "u.json"], "mesh_config.json"),
        (["mesh", "simulate", "--config", "config.json"], "unitary.json"),
        (["mesh", "fidelity", "--study", "--modes", "4", "--num-unitaries", "3", "--seed", "8"],
         "fidelity_study.json"),
        (["mesh", "counts", "--states", "states.json", "--trials", "300", "--seed", "5"], "count_estimate.json"),
    ], ids=["decompose", "simulate", "fidelity-study", "counts"])
    def test_seeded_mesh_outputs_replay_byte_identically(self, tmp_path, monkeypatch, capsys, argv, output):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "u.json", ser.unitary_to_dict(haar_random_unitary(5, 3)))
        write_json(tmp_path / "config.json", ser.mesh_config_to_dict(decompose(haar_random_unitary(5, 4))))
        write_json(tmp_path / "states.json",
                   {"kind": "pure", "states": [ser.pure_state_to_dict(s) for s in pentagon_qubit_set()]})
        assert main([*argv, "--out-dir", "out"]) == EXIT_OK
        first = (tmp_path / "out" / output).read_bytes()
        (tmp_path / "out" / output).unlink()
        manifest = next((tmp_path / "out").glob("manifest-*.json"))
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert (tmp_path / "out" / output).read_bytes() == first


    @pytest.mark.parametrize("row", ["0,0.05,nan", "0,nan,0.5", "0,inf,0.5"])
    def test_calibrate_non_finite_sample_exit_code(self, tmp_path, capsys, row):
        currents = np.linspace(0.0, 0.6, 40)
        powers = (1.0 + np.cos(1.2 + 24.0 * currents**2)) / 2.0
        rows = [f"0,{float(i)!r},{float(p)!r}" for i, p in zip(currents, powers)] + [row]
        sweep_path = tmp_path / "sweeps.csv"
        sweep_path.write_text("heater,current_a,cross_power\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main(["mesh", "calibrate", "--sweeps", str(sweep_path), "--out-dir", str(out)])
        assert rc == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_from_csv(self, tmp_path, capsys):
        from overlapkit.mesh import CalibrationModel, calibration_forward
        model = CalibrationModel(theta0=np.array([1.2]), alpha=np.array([[24.0]]),
                                 beta=np.array([0.05]), heater_columns=(0,))
        rows = ["heater,current_a,cross_power"]
        for i in np.linspace(0, 0.6, 60):
            th = calibration_forward(model, [i])[0]
            rows.append(f"0,{float(i)!r},{float((1 + np.cos(th)) / 2)!r}")
        sweep_path = tmp_path / "sweeps.csv"
        sweep_path.write_text("\n".join(rows) + "\n")
        rc = main(["mesh", "calibrate", "--sweeps", str(sweep_path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        fitted = json.loads((tmp_path / "calibration.json").read_text())
        assert fitted["theta0"][0] == pytest.approx(1.2, abs=1e-6)
        assert fitted["alpha"][0][0] == pytest.approx(24.0, rel=1e-6)

    def test_counts_command(self, tmp_path, capsys):
        states = {"kind": "pure",
                  "states": [ser.pure_state_to_dict(s) for s in pentagon_qubit_set()]}
        path = write_json(tmp_path / "states.json", states)
        rc = main(["mesh", "counts", "--states", path, "--inequality", "hmzi",
                   "--trials", "20000", "--seed", "4", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "count_estimate.json").read_text())
        assert abs(payload["value"] - 2.795) < 5 * payload["sigma"]


def reference_config_record(u: np.ndarray) -> dict:
    """`mesh_config.json` of ``u`` from the numpy-scalar nulling loop."""
    rows, cols, theta, phi, phases = decompose_reference(u)
    order = np.lexsort((rows, cols))
    return {"modes": u.shape[0],
            "cells": [{"row": int(rows[k]), "column": int(cols[k]), "theta": float(theta[k]), "phi": float(phi[k])}
                      for k in order],
            "output_phases": phases.tolist()}


class TestMeshOutputsAgainstReference:
    """Seeded `mesh` files are byte for byte what the numpy-scalar routes write."""

    @pytest.mark.parametrize("m, seed", [(2, 1), (4, 5), (7, 2), (12, 9)])
    def test_decompose(self, tmp_path, capsys, m, seed):
        u = haar_random_unitary(m, seed)
        upath = write_json(tmp_path / "u.json", ser.unitary_to_dict(u))
        assert main(["mesh", "decompose", "--unitary", upath, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "mesh_config.json").read_text() == ser.dumps(reference_config_record(u))

    @pytest.mark.parametrize("m", [3, 6])
    def test_simulate(self, tmp_path, capsys, m):
        rng = np.random.default_rng(m)
        cells = [{"row": r, "column": c, "theta": float(t), "phi": float(p)}
                 for (r, c), (t, p) in zip(clements_layout(m), rng.uniform(-9.0, 9.0, (m * (m - 1) // 2, 2)))]
        phases = rng.uniform(-9.0, 9.0, m).tolist()
        path = write_json(tmp_path / "config.json", {"modes": m, "cells": cells, "output_phases": phases})
        assert main(["mesh", "simulate", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_OK
        two_pi = 2.0 * np.pi
        reduced = [SimpleNamespace(row=c["row"], column=c["column"], theta=float(np.mod(c["theta"], two_pi)),
                                   phi=float(np.mod(c["phi"], two_pi))) for c in cells]
        want = cell_by_cell_compose(m, reduced, np.mod(phases, two_pi), mzi_transfer_numpy)
        assert (tmp_path / "unitary.json").read_text() == ser.dumps(ser.unitary_to_dict(want))

    @pytest.mark.parametrize("modes, count, sigma, seed", [(2, 3, 0.1, 0), (5, 4, 0.07, 4), (6, 6, 0.3, 11)])
    def test_fidelity_study(self, tmp_path, capsys, modes, count, sigma, seed):
        argv = ["mesh", "fidelity", "--study", "--modes", str(modes), "--num-unitaries", str(count),
                "--sigma", repr(sigma), "--seed", str(seed), "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        rng = np.random.default_rng(seed)
        two_pi = 2.0 * np.pi
        samples = []
        for _ in range(count):
            target = haar_unitary_numpy(modes, rng)
            rows, cols, theta, phi, phases = decompose_reference(target)
            noise = rng.normal(0.0, sigma, (len(rows), 2))
            noisy = [SimpleNamespace(row=r, column=c, theta=t, phi=p) for r, c, t, p in
                     zip(rows, cols, np.mod(theta + noise[:, 0], two_pi), np.mod(phi + noise[:, 1], two_pi))]
            experimental = cell_by_cell_compose(modes, noisy, phases, mzi_transfer_numpy)
            samples.append(float(np.sum(np.abs(target) * np.abs(experimental)) / modes))
        want = {"mean": float(np.mean(samples)), "std": float(np.std(samples)), "sigma_rad": sigma,
                "samples": samples}
        assert (tmp_path / "fidelity_study.json").read_text() == ser.dumps(want)


class TestExitCodes:
    def test_numerical_failure_maps_to_exit_3(self, monkeypatch, tmp_path, capsys):
        from overlapkit import cli
        from overlapkit.states import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("synthetic accuracy failure")

        monkeypatch.setattr(cli, "haar_experiment", boom)
        rc = main(["sample", "--inequality", "h3", "--d", "2", "--out-dir", str(tmp_path)])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestManifest:
    def test_output_directory_is_made_once_per_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        made = []
        mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        rc = main(["sample", "--inequality", "h4", "--d", "2", "--num-sets", "10", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["histogram.csv", "manifest-sample.json", "sampling.json"]
        assert made == [out]

    def test_manifest_written_and_replayable(self, tmp_path):
        rc = main(["sample", "--inequality", "h4", "--d", "2", "--num-sets", "2000",
                   "--seed", "5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        manifest_path = tmp_path / "manifest-sample.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seed"] == 5
        assert manifest["subcommand"] == "sample"
        first = (tmp_path / "sampling.json").read_bytes()
        rc = main(["replay", str(manifest_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "sampling.json").read_bytes() == first

    def test_manifest_with_tol_replays(self, tmp_path):
        # manifests written while every subcommand took --tol carry "tol": null
        rc = main(["sample", "--inequality", "h4", "--d", "2", "--num-sets", "500",
                   "--seed", "3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        manifest_path = tmp_path / "manifest-sample.json"
        manifest = json.loads(manifest_path.read_text())
        assert "tol" not in manifest["parameters"]
        manifest["parameters"]["tol"] = None
        manifest_path.write_text(json.dumps(manifest))
        first = {name: (tmp_path / name).read_bytes() for name in ("sampling.json", "histogram.csv")}
        assert main(["replay", str(manifest_path)]) == EXIT_OK
        assert {name: (tmp_path / name).read_bytes() for name in first} == first


class TestSerializationRoundtrips:
    def test_pure_state(self):
        s = qubit_state(0.7, 1.1)
        back = ser.pure_state_from_dict(ser.pure_state_to_dict(s))
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_density_matrix(self):
        m = qubit_state(0.7, 1.1).density()
        back = ser.density_matrix_from_dict(ser.density_matrix_to_dict(m))
        assert np.allclose(back.entries, m.entries)

    def test_overlap_set(self):
        o = OverlapSet.from_upper(3, [0.1, 0.2, 0.3])
        back = ser.overlap_set_from_dict(ser.overlap_set_to_dict(o))
        assert np.array_equal(back.r, o.r)

    def test_inequality(self):
        spec = make_hn(5)
        back = ser.inequality_from_dict(ser.inequality_to_dict(spec))
        assert back.weights == spec.weights and back.classical_bound == spec.classical_bound

    def test_mesh_config(self):
        cells = tuple(MeshCell(r, c, 0.3 * r + 0.1, 0.2 * c) for r, c in clements_layout(4))
        cfg = MeshConfig(modes=4, cells=cells, output_phases=(0.1, 0.2, 0.3, 0.4))
        back = ser.mesh_config_from_dict(ser.mesh_config_to_dict(cfg))
        assert back == cfg

    def test_unitary(self):
        u = haar_random_unitary(3, 4)
        assert np.array_equal(ser.unitary_from_dict(ser.unitary_to_dict(u)), u)

    @pytest.mark.parametrize("reader, record", [
        (ser.overlap_set_from_dict, {"n": 3, "upper": "abc"}),
        (ser.overlap_set_from_dict, {"n": "three", "upper": [0.1, 0.2, 0.3]}),
        (ser.pure_state_from_dict, {"dim": "two", "amplitudes": [[1, 0], [0, 0]]}),
        (ser.pure_state_from_dict, {"dim": 1, "amplitudes": [["one", 0]]}),
        (ser.density_matrix_from_dict, {"dim": "one", "entries": [[1, 0]]}),
        (ser.inequality_from_dict, {"n": 3, "classical_bound": "one", "weights": []}),
        (ser.inequality_from_dict, {"n": 3, "classical_bound": 1, "weights": [{"i": "a", "j": 1, "w": 1}]}),
        (ser.state_set_from_dict, {"kind": "pure", "states": [{"dim": "x", "amplitudes": [[1, 0]]}]}),
        (ser.mesh_config_from_dict, {"modes": "six", "cells": []}),
        (ser.mesh_config_from_dict, {"modes": 2, "cells": [{"row": 0, "column": 0, "theta": "a", "phi": 0}]}),
        (ser.calibration_from_dict, {"theta0": ["abc"], "alpha": [[1.0]], "beta": [0.0], "heater_columns": [0]}),
        (ser.calibration_from_dict, {"theta0": [0.0], "alpha": [[1.0]], "beta": [0.0], "heater_columns": ["a"]}),
    ])
    def test_unconvertible_values_rejected(self, reader, record):
        with pytest.raises(ValidationError, match="malformed"):
            reader(record)

    @pytest.mark.parametrize("reader, record", [
        (ser.overlap_set_from_dict, {"n": 10**6, "upper": [0.5]}),
        (ser.mesh_config_from_dict, {"modes": 10**6, "cells": []}),
    ], ids=["overlap-set", "mesh-config"])
    def test_wrong_count_is_rejected_before_any_layout(self, monkeypatch, reader, record):
        # at 10**6 nodes or modes a layout would take minutes and gigabytes
        def forbidden(*args):
            raise AssertionError("built a layout before checking the count")

        for module, name in [(inequalities, "edge_order"), (inequalities, "_upper_indices"),
                             (mesh, "clements_layout")]:
            monkeypatch.setattr(module, name, forbidden)
        with pytest.raises(ValidationError):
            reader(record)

    @pytest.mark.parametrize("record", [
        {"entries": [[1, 0]]},
        {"dim": "two", "entries": [[1, 0]]},
        {"dim": 0, "entries": []},
        {"dim": 2, "entries": [[1, 0]]},
        {"dim": 1, "entries": [[1]]},
        {"dim": 1, "entries": None},
        {"dim": 1, "entries": [[float("nan"), 0]]},
    ])
    def test_malformed_unitary_rejected(self, record):
        with pytest.raises(ValidationError):
            ser.unitary_from_dict(record)

    @pytest.mark.parametrize("bins", [1, 7, 50])
    def test_histogram_is_numpys_when_the_range_allows(self, bins):
        values = np.random.default_rng(bins).normal(size=1000)
        counts, edges = np.histogram(values, bins=bins)
        rows = [["bin_left", "bin_right", "count"]] + [
            [repr(float(edges[k])), repr(float(edges[k + 1])), str(counts[k])] for k in range(bins)]
        assert ser.histogram_csv(values, bins=bins) == "".join(",".join(r) + "\n" for r in rows)

    @pytest.mark.parametrize("values", [[2.0, 2.0], [1.0, np.nextafter(1.0, 2.0)]])
    def test_histogram_widens_a_range_too_narrow_for_its_bins(self, values):
        rows = ser.histogram_csv(np.array(values), bins=50).splitlines()[1:]
        assert float(rows[0].split(",")[0]) == values[0] - 0.5
        assert float(rows[-1].split(",")[1]) == values[1] + 0.5
        assert sum(int(r.split(",")[2]) for r in rows) == 2

    def test_overlap_matrix_csv_shape(self):
        o = OverlapSet.from_states([basis_state(2, 0), basis_state(2, 1)])
        text = ser.overlap_matrix_csv(o)
        lines = text.splitlines()
        assert lines[0] == ",state_0,state_1"
        assert len(lines) == 3
