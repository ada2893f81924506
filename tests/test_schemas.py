"""Written JSON matches the schemas in ``schemas/``."""

import json
from pathlib import Path

import numpy as np
import pytest

from overlapkit import serialize as ser
from overlapkit.cli import EXIT_OK, EXIT_VALIDATION, main
from overlapkit.inequalities import OverlapSet, make_h_mzi
from overlapkit.mesh import decompose, haar_random_unitary, pentagon_qubit_set

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def assert_matches(obj, schema_name):
    schema = json.loads((SCHEMAS / f"{schema_name}.json").read_text())
    errors = list(jsonschema.Draft7Validator(schema).iter_errors(obj))
    assert not errors, errors[:1]


def test_mesh_decompose_outputs_match_schemas(tmp_path):
    upath = tmp_path / "u.json"
    upath.write_text(ser.dumps(ser.unitary_to_dict(haar_random_unitary(4, 3))))
    assert main(["mesh", "decompose", "--unitary", str(upath), "--out-dir", str(tmp_path)]) == EXIT_OK
    assert_matches(json.loads((tmp_path / "mesh_config.json").read_text()), "mesh_config")
    assert_matches(json.loads((tmp_path / "manifest-mesh-decompose.json").read_text()), "run_manifest")


def test_mesh_simulate_unitary_matches_schema(tmp_path):
    cpath = tmp_path / "config.json"
    cpath.write_text(ser.dumps(ser.mesh_config_to_dict(decompose(haar_random_unitary(4, 8)))))
    assert main(["mesh", "simulate", "--config", str(cpath), "--out-dir", str(tmp_path)]) == EXIT_OK
    record = json.loads((tmp_path / "unitary.json").read_text())
    assert_matches(record, "unitary")
    assert len(record["entries"]) == record["dim"] ** 2 == 16


def test_maximize_outputs_match_schemas(tmp_path):
    argv = ["maximize", "--inequality", "h5", "--d", "3", "--restarts", "4", "--seed", "3", "--bound",
            "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    record = json.loads((tmp_path / "maximization.json").read_text())
    assert_matches(record, "maximization")
    assert len(record["states"]) == 5
    # the ascent diagnostics stay out of the record, so it is byte-stable
    assert not {"iterations", "restarts_converged", "hit_max_iter"} & set(record)
    assert_matches(json.loads((tmp_path / "manifest-maximize.json").read_text()), "run_manifest")


@pytest.mark.parametrize("theta, crosses", [("150deg", True), ("0", False)])
def test_interrogation_outputs_match_schemas(tmp_path, theta, crosses):
    assert main(["interrogation", "--theta", theta, "--nu-steps", "5", "--out-dir", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "interrogation.json").read_text())
    assert_matches(report, "interrogation")
    assert (report["crossover_nu"] is not None) == crosses
    assert_matches(json.loads((tmp_path / "manifest-interrogation.json").read_text()), "run_manifest")


@pytest.mark.parametrize("argv, output, schema, manifest", [
    (["maximize", "--inequality", "h5", "--d", "3", "--restarts", "4", "--seed", "3", "--bound"],
     "upper_bound.json", "upper_bound", "manifest-maximize.json"),
    (["interrogation", "--nu-min", "0.05", "--nu-steps", "5"], "hexagon.json", "hexagon", "manifest-interrogation.json"),
    (["table", "--n-max", "4", "--restarts", "4"], "threshold_table.json", "threshold_table", "manifest-table.json"),
    (["sample", "--inequality", "h4", "--d", "2", "--num-sets", "50"], "sampling.json", "sampling_report",
     "manifest-sample.json"),
])
def test_remaining_json_outputs_match_schemas(tmp_path, argv, output, schema, manifest):
    assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert_matches(json.loads((tmp_path / output).read_text()), schema)
    assert_matches(json.loads((tmp_path / manifest).read_text()), "run_manifest")


def test_sampling_report_holds_exactly_the_required_keys(tmp_path):
    assert main(["sample", "--inequality", "h5", "--d", "3", "--num-sets", "20", "--out-dir", str(tmp_path)]) == EXIT_OK
    schema = json.loads((SCHEMAS / "sampling_report.json").read_text())
    assert sorted(json.loads((tmp_path / "sampling.json").read_text())) == sorted(schema["required"])


@pytest.fixture
def mesh_inputs(tmp_path):
    u = ser.unitary_to_dict(haar_random_unitary(4, 5))
    (tmp_path / "u.json").write_text(ser.dumps(u))
    states = {"kind": "pure", "states": [ser.pure_state_to_dict(s) for s in pentagon_qubit_set()]}
    (tmp_path / "states.json").write_text(ser.dumps(states))
    currents = np.linspace(0.0, 0.6, 40)
    rows = [f"{h},{float(i)!r},{float(p)!r}" for h, theta0 in enumerate((1.2, 4.0)) for i, p in
            zip(currents, (1.0 + np.cos(theta0 + 24.0 * currents**2 * (1.0 + 0.05 * currents**2))) / 2.0)]
    (tmp_path / "sweeps.csv").write_text("\n".join(["heater,current_a,cross_power", *rows]) + "\n")
    return tmp_path


@pytest.mark.parametrize("argv, output, schema, manifest", [
    (["mesh", "calibrate", "--sweeps", "sweeps.csv"], "calibration_residuals.json", "calibration_residuals",
     "manifest-mesh-calibrate.json"),
    (["mesh", "fidelity", "--target", "u.json", "--experimental", "u.json"], "fidelity.json", "fidelity",
     "manifest-mesh-fidelity.json"),
    (["mesh", "fidelity", "--study", "--num-unitaries", "3", "--modes", "3"], "fidelity_study.json",
     "fidelity_study", "manifest-mesh-fidelity.json"),
    (["mesh", "counts", "--states", "states.json", "--trials", "200", "--seed", "4"], "count_estimate.json",
     "count_estimate", "manifest-mesh-counts.json"),
    (["mesh", "calibrate", "--sweeps", "sweeps.csv"], "calibration.json", "calibration_model",
     "manifest-mesh-calibrate.json"),
])
def test_mesh_json_outputs_match_schemas(mesh_inputs, monkeypatch, argv, output, schema, manifest):
    monkeypatch.chdir(mesh_inputs)
    out = mesh_inputs / "out"
    assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / output).read_text())
    assert_matches(record, schema)
    assert_matches(json.loads((out / manifest).read_text()), "run_manifest")
    if schema == "count_estimate":
        assert len(record["records"]) == 10  # every edge of the pentagon
        for rec in record["records"].values():
            assert_matches(rec, "count_record")


@pytest.mark.parametrize("argv, known", [
    (["evaluate", "--input", "states.json", "--inequality", "hmzi"], False),
    (["evaluate", "--input", "states.json", "--inequality", "h5", "--thresholds"], True),
])
def test_evaluate_verdict_matches_schema(mesh_inputs, monkeypatch, argv, known):
    monkeypatch.chdir(mesh_inputs)
    out = mesh_inputs / "out"
    assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / "verdict.json").read_text())
    assert_matches(record, "witness_verdict")
    assert bool(record["thresholds_used"]) == known
    assert_matches(json.loads((out / "manifest-evaluate.json").read_text()), "run_manifest")


COUNT_RECORD = {"counts": [3, 1], "total_trials": 4, "estimated_probability": [0.75, 0.25], "sigma_c": [0.4, 0.25]}


@pytest.mark.parametrize("schema, record", [
    ("calibration_residuals", [0.1, "0.2"]),
    ("calibration_residuals", {"0": 0.1}),
    ("fidelity", {"fidelity": 0.9, "extra": 0}),
    ("fidelity_study", {"mean": 0.9, "std": 0.1, "sigma_rad": 0.1, "samples": [0.9], "extra": 0}),
    ("count_estimate", {"value": 1.0, "sigma": 0.1, "records": {"0,1": COUNT_RECORD}, "extra": 0}),
    ("count_estimate", {"value": 1.0, "sigma": 0.1, "records": {"0,1": {**COUNT_RECORD, "extra": 0}}}),
    ("count_estimate", {"value": 1.0, "sigma": 0.1, "records": {"0-1": COUNT_RECORD}}),
    ("upper_bound", {"value": 1.0, "x_star": {"dim": 1, "entries": [[1.0, 0.0]]}, "extra": 0}),
    ("upper_bound", {"value": 1.0, "x_star": {"dim": 1, "entries": [[1.0, 0.0]], "extra": 0}}),
    ("hexagon", {"theta": 0.0, "nu": 0.0, "equivalence_deviation": 0.0,
                 "states": [{"dim": 2, "entries": [[0.5, 0.0]] * 4}] * 5}),
    ("threshold_table", [{"n": 3, "d": 2, "max_value": 1.25, "method": "guess",
                          "lower_bound": None, "upper_bound": None, "agree": None}]),
    ("sampling_report", {"n": 4, "d": 2, "num_sets": 2, "max_value": 1.0, "violation_count": 0,
                         "values": [1.0, 0.5]}),
])
def test_closed_schemas_reject_stray_records(schema, record):
    schema_obj = json.loads((SCHEMAS / f"{schema}.json").read_text())
    assert list(jsonschema.Draft7Validator(schema_obj).iter_errors(record))


def _hmzi(**changes):
    record = ser.inequality_to_dict(make_h_mzi())
    record.update(changes)
    return record


def _hmzi_weight(**changes):
    record = ser.inequality_to_dict(make_h_mzi())
    record["weights"][0].update(changes)
    return record


def _pentagon_states(**changes):
    record = {"kind": "pure", "states": [ser.pure_state_to_dict(s) for s in pentagon_qubit_set()]}
    record["states"][0].update(changes)
    return record


def _two_mode_config(**changes):
    record = {"modes": 2, "cells": [{"row": 0, "column": 0, "theta": 0.3, "phi": 0.2}]}
    record.update(changes)
    return record


EVALUATE = ["evaluate", "--input", "pentagon.json", "--inequality", "in.json"]
EVALUATE_INPUT = ["evaluate", "--input", "in.json", "--inequality", "hmzi"]
PAIR_OF_THREE = _pentagon_states()
PAIR_OF_THREE["states"][0]["amplitudes"][0].append(5.0)

# (input record, argv, schema of the record or of its first state; None
# when no schema can say it): each input was read by truncation or
# coercion, and the command exited 0
MALFORMED_INPUTS = [
    pytest.param(_hmzi_weight(i=0.5), EVALUATE, "inequality_spec", id="edge-i-fraction"),
    pytest.param(_hmzi(n=5.7), EVALUATE, "inequality_spec", id="spec-n-fraction"),
    pytest.param(_hmzi(name=[1]), EVALUATE, "inequality_spec", id="name-not-string"),
    pytest.param(_hmzi_weight(w="1"), EVALUATE, "inequality_spec", id="weight-string"),
    pytest.param(_hmzi(weights=_hmzi()["weights"] + [{"i": 0, "j": 1, "w": -0.1}]), EVALUATE, None,
                 id="duplicate-edge"),
    pytest.param({"n": 3.9, "upper": [0.5, 0.5, 0.5]}, ["evaluate", "--input", "in.json", "--inequality", "h3"],
                 "overlap_set", id="overlap-n-fraction"),
    pytest.param(_pentagon_states(dim=2.5), EVALUATE_INPUT, "pure_state", id="state-dim-fraction"),
    pytest.param(PAIR_OF_THREE, EVALUATE_INPUT, "pure_state", id="pair-of-three"),
    pytest.param(_pentagon_states(dim=2.5), ["mesh", "counts", "--states", "in.json", "--trials", "10"],
                 "pure_state", id="counts-state-dim-fraction"),
    pytest.param(_two_mode_config(cells=[{"row": 0.5, "column": 0, "theta": 0.3, "phi": 0.2}]),
                 ["mesh", "simulate", "--config", "in.json"], "mesh_config", id="cell-row-fraction"),
    pytest.param(_two_mode_config(modes=2.5), ["mesh", "simulate", "--config", "in.json"], "mesh_config",
                 id="modes-fraction"),
    pytest.param(_two_mode_config(output_phases=["0.1", "0.2"]), ["mesh", "simulate", "--config", "in.json"],
                 "mesh_config", id="output-phase-string"),
    pytest.param({"dim": 2.5, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
                 ["mesh", "decompose", "--unitary", "in.json"], "unitary", id="unitary-dim-fraction"),
]


@pytest.mark.parametrize("record, argv, schema", MALFORMED_INPUTS)
def test_readers_reject_what_the_schemas_reject(tmp_path, monkeypatch, capsys, record, argv, schema):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pentagon.json").write_text(
        ser.dumps(ser.overlap_set_to_dict(OverlapSet.from_states(pentagon_qubit_set()))))
    (tmp_path / "in.json").write_text(json.dumps(record))
    assert main(argv + ["--out-dir", "out"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()
    if schema is not None:
        checked = record["states"][0] if "states" in record else record
        schema_obj = json.loads((SCHEMAS / f"{schema}.json").read_text())
        assert list(jsonschema.Draft7Validator(schema_obj).iter_errors(checked))


def test_an_integral_float_is_an_integer(tmp_path):
    record = ser.overlap_set_to_dict(OverlapSet.from_states(pentagon_qubit_set()))
    record["n"] = 5.0
    assert_matches(record, "overlap_set")
    (tmp_path / "in.json").write_text(json.dumps(record))
    argv = ["evaluate", "--input", str(tmp_path / "in.json"), "--inequality", "hmzi", "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
