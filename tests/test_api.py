"""The public surface: `__all__` lists, removed settings, derived result fields.

Derived fields are read-only properties; on what each producer returns,
every one must equal, bitwise, an independent statement of its expression.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import overlapkit
from overlapkit import serialize as ser
from overlapkit import states
from overlapkit.inequalities import OverlapSet, WitnessVerdict, classify, make_h_mzi, make_hn
from overlapkit.interrogation import HexagonFragment, RobustnessCurve, crossover_nu, hexagon, robustness_curve
from overlapkit.mesh import (
    CountRecord,
    DispersionResult,
    FidelityStudy,
    dispersion,
    hyperspherical_angles,
    overlap_via_counts,
    pentagon_qubit_set,
    perturbed_mesh_fidelity_study,
)
from overlapkit.optimize import SamplingReport, ThresholdCell, dimension_thresholds, haar_experiment, thresholds_for
from overlapkit.states import PureState, basis_state, max_eigenvalue, overlap, qubit_state

LIBRARY = ["inequalities", "interrogation", "mesh", "optimize", "serialize", "states"]


def bits(x):
    """Exact bit pattern of a float or a tuple of floats."""
    return tuple(float(v).hex() for v in x) if isinstance(x, tuple) else float(x).hex()


class TestAll:
    def test_every_module_but_the_cli_is_a_library_module(self):
        found = sorted(m.name for m in pkgutil.iter_modules(overlapkit.__path__))
        assert found == sorted(LIBRARY + ["cli"])

    @pytest.mark.parametrize("name", LIBRARY)
    def test_all_lists_exactly_the_public_definitions(self, name):
        module = importlib.import_module(f"overlapkit.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
        assert len(set(module.__all__)) == len(module.__all__)
        defined = {n for n, obj in vars(module).items()
                   if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert sorted(defined - set(module.__all__)) == []


def _report():
    return SamplingReport(n=4, d=2, values=np.array([0.5, 0.75]), violation_count=0)


class TestRemovedSettings:
    @pytest.mark.parametrize("call", [
        lambda: overlap(basis_state(2, 0), basis_state(2, 1), tol=None),
        lambda: max_eigenvalue(np.eye(2), tol=None),
        lambda: dimension_thresholds(3, agree_tol=1e-3),
        lambda: ser.sampling_to_dict(_report(), include_values=False),
        lambda: ser.overlap_matrix_csv(OverlapSet.from_upper(2, [0.5]), labels=["a", "b"]),
    ], ids=["overlap-tol", "max_eigenvalue-tol", "agree_tol", "include_values", "labels"])
    def test_removed_keyword_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("cls, fields, derived", [
        (CountRecord, {"counts": (3, 1), "total_trials": 4}, ["estimated_probability", "sigma_c"]),
        (SamplingReport, {"n": 4, "d": 2, "values": np.ones(2), "violation_count": 0}, ["num_sets", "max_value"]),
        (FidelityStudy, {"samples": np.ones(2), "sigma_rad": 0.1}, ["mean", "std"]),
        (DispersionResult, {"values": np.ones(2), "ideal_value": 1.0}, ["min_value", "max_value"]),
        (WitnessVerdict, {"value": 1.0, "coherence_witnessed": False, "min_dimension": 1, "thresholds_used": ()},
         ["min_dimension_known"]),
        (ThresholdCell, {"n": 4, "d": 2, "lower_bound": 1.0, "upper_bound": 1.0}, ["max_value", "method", "agree"]),
        (HexagonFragment, {"theta": 0.5, "nu": 0.1, "states": hexagon(0.5, 0.1).states}, ["equivalence_deviation"]),
        (RobustnessCurve, {"theta": 2.6, "points": ((0.0, 0.5, 0.4),)}, ["crossover_nu"]),
    ], ids=["CountRecord", "SamplingReport", "FidelityStudy", "DispersionResult", "WitnessVerdict",
            "ThresholdCell", "HexagonFragment", "RobustnessCurve"])
    def test_derived_field_is_not_a_constructor_argument(self, cls, fields, derived):
        cls(**fields)
        for name in derived:
            with pytest.raises(TypeError):
                cls(**fields, **{name: getattr(cls(**fields), name)})

    def test_tolerance_record_and_same_ray_are_gone(self):
        assert not hasattr(states, "Tolerances") and not hasattr(states, "DEFAULT_TOL")
        assert not hasattr(PureState, "same_ray")


class TestDerivedFields:
    @pytest.mark.parametrize("loss, dark", [(0.0, 0.0), (0.2, 0.01)])
    def test_count_record(self, loss, dark):
        rec = overlap_via_counts(qubit_state(0.4), qubit_state(1.1, 0.3), 5000, 3, loss=loss, dark=dark)
        (port0, port_rest), n = rec.counts, rec.total_trials
        assert n == 5000 and port0 + port_rest <= n
        assert bits(rec.estimated_probability) == bits((port0 / n, port_rest / n))
        assert bits(rec.sigma_c) == bits((float(np.sqrt(port0)) / n, float(np.sqrt(port_rest)) / n))

    def test_sampling_report(self):
        rep = haar_experiment(make_hn(5), 3, 1000, seed=5, chunk_size=300)
        assert rep.num_sets == 1000 and type(rep.num_sets) is int
        assert bits(rep.max_value) == bits(float(rep.values.max()))

    def test_fidelity_study(self):
        study = perturbed_mesh_fidelity_study(modes=3, n_unitaries=7, sigma_rad=0.05, seed=2)
        assert bits(study.mean) == bits(float(study.samples.mean()))
        assert bits(study.std) == bits(float(study.samples.std()))

    def test_dispersion_result(self):
        params = [np.concatenate(hyperspherical_angles(s)) for s in pentagon_qubit_set()]
        res = dispersion(make_h_mzi(), params, 0.01, 0.004, 41, seed=6)
        assert bits(res.min_value) == bits(float(res.values.min()))
        assert bits(res.max_value) == bits(float(res.values.max()))
        assert bits(res.half_width) == bits((res.max_value - res.min_value) / 2.0)

    def test_witness_verdict(self):
        assert classify(make_hn(4), 1.2, thresholds_for(4)).min_dimension_known is True
        unknown = classify(make_hn(4), 1.2, [])
        assert unknown.min_dimension_known is False and unknown.min_dimension == 1

    def test_threshold_cells_cover_every_method(self):
        cells = dimension_thresholds(13, d_max=3, restarts=2, seed=0)
        want = {3: "ascent", **{n: "both" for n in range(4, 13)}, 13: "quadratic-bound"}
        assert {(c.n, c.method) for c in cells} == set(want.items())
        for c in cells:
            lower, upper = c.lower_bound, c.upper_bound
            # reference: the bound when there is one, else the ascent value
            if lower is not None and upper is not None:
                agree, value, method = bool(abs(lower - upper) <= 1e-3), upper, "both"
            elif upper is not None:
                agree, value, method = None, upper, "quadratic-bound"
            else:
                agree, value, method = None, lower, "ascent"
            assert (bits(c.max_value), c.method, c.agree) == (bits(value), method, agree)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 5 * np.pi / 6, 2.0, -1.1])
    @pytest.mark.parametrize("nu", [0.0, 0.07, 0.5, 1.0])
    def test_hexagon_fragment(self, theta, nu):
        frag = hexagon(theta, nu)
        # the expression `hexagon` evaluated before the field became a property
        half_eye = np.eye(2) / 2.0
        want = max(float(np.linalg.norm((frag.states[i].entries + frag.states[i + 3].entries) / 2.0 - half_eye))
                   for i in range(3))
        assert bits(frag.equivalence_deviation) == bits(want)

    @pytest.mark.parametrize("theta", [5 * np.pi / 6, 2.0, 1.2, 0.0, np.pi / 2])
    def test_robustness_curve(self, theta):
        curve = robustness_curve(theta, np.linspace(0.0, 0.2, 5))
        try:
            want = crossover_nu(theta)
        except states.ValidationError:
            assert curve.crossover_nu is None
        else:
            assert bits(curve.crossover_nu) == bits(want)
