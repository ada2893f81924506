import json
import tracemalloc

import numpy as np
import pytest

from overlapkit import optimize
from overlapkit import serialize as ser
from overlapkit.inequalities import evaluate_states, make_h3_robust, make_h_mzi, make_hn
from overlapkit.mesh import _star_ensemble_states
from overlapkit.optimize import (
    dimension_thresholds,
    haar_experiment,
    maximize_pure,
    sdp_upper_bound,
    thresholds_for,
    uniform_pure_ensemble,
)
from overlapkit.states import DensityMatrix, PureState, ValidationError, haar_random_pure_batch, make_rng

from _oracles import (
    FLAGGED_CELLS,
    PUBLISHED_HN_MAXIMA,
    ROUNDED_CELLS,
    full_batch_ascent,
    haar_values_full_chunk,
    hn_optimum_exact_pair,
    projected_gradient_optimum,
    quadratic_optimum,
    uniform_pure_ensemble_reference,
)

SEEDS = [0, 1, 2]


class TestMaximizePure:
    @pytest.mark.parametrize("n,d,target", [(3, 2, 1.250), (5, 4, 1.375), (6, 4, 1.000)])
    def test_reference_maxima(self, n, d, target):
        res = maximize_pure(make_hn(n), d, restarts=80, seed=11)
        assert res.value == pytest.approx(target, abs=1e-3)

    def test_value_matches_states(self):
        res = maximize_pure(make_hn(4), 3, restarts=40, seed=2)
        assert res.value == pytest.approx(evaluate_states(make_hn(4), list(res.states)), abs=1e-8)
        assert res.converged

    def test_d1_degenerate(self):
        # all overlaps are 1 in dimension 1: h_n value is fixed
        res = maximize_pure(make_hn(4), 1, restarts=3, seed=0)
        assert res.value == pytest.approx(3 - 3, abs=1e-12)

    def test_deterministic_at_json_level(self):
        a = maximize_pure(make_h_mzi(), 2, restarts=25, seed=42)
        b = maximize_pure(make_h_mzi(), 2, restarts=25, seed=42)
        assert ser.dumps(ser.maximization_to_dict(a)) == ser.dumps(ser.maximization_to_dict(b))

    def test_pentagon_maximum(self):
        res = maximize_pure(make_h_mzi(), 2, restarts=60, seed=5)
        assert res.value == pytest.approx(5 * np.sqrt(5) / 4, abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            maximize_pure(make_hn(3), 0)
        with pytest.raises(ValidationError):
            maximize_pure(make_hn(3), 2, restarts=0)

    @pytest.mark.parametrize("kwargs", [{"max_iter": -1}, {"grad_tol": -1e-9}, {"grad_tol": float("nan")}],
                             ids=["max_iter=-1", "grad_tol=-1e-9", "grad_tol=nan"])
    def test_rejects_bad_iteration_settings(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            maximize_pure(make_hn(4), 2, restarts=2, **kwargs)

    def test_diagnostics_when_max_iter_runs_out(self):
        res = maximize_pure(make_hn(10), 8, restarts=20, seed=1010, max_iter=50)
        assert res.hit_max_iter
        assert res.iterations == 50
        assert 0 <= res.restarts_converged < 20


class TestCertifiedStop:
    """An h_n ascent ends once a restart is within 1e-12 of the closed-form
    optimum; every other functional runs to stationarity."""

    def test_straggler_cell_stops_at_the_optimum(self):
        res = maximize_pure(make_hn(10), 8, restarts=200, seed=1008)
        assert res.converged and not res.hit_max_iter
        assert res.restarts_converged >= 1
        assert res.iterations < 400
        assert abs(res.value - quadratic_optimum(10, 8)) <= 1e-12

    def test_spec_is_matched_by_weights_not_name(self):
        record = ser.inequality_to_dict(make_hn(7))
        record["name"] = "renamed"
        renamed = ser.inequality_from_dict(record)
        assert renamed.name == "renamed"
        a = maximize_pure(make_hn(7), 5, restarts=16, seed=705)
        b = maximize_pure(renamed, 5, restarts=16, seed=705)
        # the stationarity rule alone takes 800 steps here
        assert a.iterations < 200 and a.converged and not a.hit_max_iter
        assert (a.iterations, a.restarts_converged, a.converged, a.hit_max_iter) == (
            b.iterations, b.restarts_converged, b.converged, b.hit_max_iter)
        assert np.array_equal([s.amplitudes for s in a.states], [s.amplitudes for s in b.states])
        assert a.value == b.value

    @pytest.mark.parametrize("spec,d", [(make_h_mzi(), 2), (make_h_mzi(), 3), (make_h3_robust(), 2),
                                        (make_hn(4), 1), (make_hn(7), 1)],
                             ids=["hmzi-d2", "hmzi-d3", "h3robust-d2", "h4-d1", "h7-d1"])
    def test_other_functionals_run_to_stationarity(self, spec, d, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no closed-form optimum applies here")

        monkeypatch.setattr(optimize, "_optimal_mean", forbidden)
        res = maximize_pure(spec, d, restarts=8, seed=3)
        # the batch emptied: every restart passed the stationarity test
        assert res.restarts_converged == 8 and not res.hit_max_iter


# (spec, d, restarts, seed, max_iter): the d = n-2 straggler cells, one
# restart, d = 1, the pentagon functional, and a run cut by max_iter
FULL_BATCH_CASES = [
    *[(make_hn(n), n - 2, restarts, n * 100 + n - 2, 4000)
      for n in (6, 7, 8) for restarts in (16, 60)],
    (make_hn(5), 3, 1, 7, 4000),
    (make_hn(4), 1, 3, 0, 4000),
    (make_h_mzi(), 2, 25, 42, 4000),
    (make_hn(10), 8, 20, 1010, 50),
]


@pytest.mark.parametrize("spec,d,restarts,seed,max_iter", FULL_BATCH_CASES,
                         ids=[f"{c[0].name}-d{c[1]}-r{c[2]}-it{c[4]}" for c in FULL_BATCH_CASES])
def test_ascent_is_bitwise_the_full_batch_loop(spec, d, restarts, seed, max_iter):
    res = maximize_pure(spec, d, restarts=restarts, seed=seed, max_iter=max_iter)
    start = haar_random_pure_batch(restarts, spec.n, d, make_rng(seed))
    rows, converged, steps, stationary, ran_out = full_batch_ascent(spec.weight_matrix(), start, max_iter)
    states = [PureState(row) for row in rows]
    assert np.array_equal(np.array([s.amplitudes for s in res.states]), np.array([s.amplitudes for s in states]))
    assert np.array_equal(res.value, evaluate_states(spec, states))
    assert res.converged == converged
    assert (res.iterations, res.restarts_converged, res.hit_max_iter) == (steps, stationary, ran_out)


class TestSdpUpperBound:
    @pytest.mark.parametrize("n,d", [(5, 4), (6, 4), (6, 5), (8, 7), (10, 9), (12, 6)])
    def test_matches_closed_form(self, n, d):
        res = sdp_upper_bound(n, d)
        assert res.value == pytest.approx(quadratic_optimum(n, d), abs=1e-9)

    @pytest.mark.parametrize("n", [4, 5, 7, 10, 12, 23])
    def test_matches_projected_gradient(self, n):
        for d in range(2, n):
            assert abs(sdp_upper_bound(n, d).value - projected_gradient_optimum(n, d)) <= 1e-12, (n, d)

    def test_d_n_minus_2_is_one(self):
        for n in (5, 7, 9, 20):
            assert sdp_upper_bound(n, n - 2).value == pytest.approx(1.0, abs=1e-6)

    def test_large_n_saturation(self):
        v64 = sdp_upper_bound(64, 63).value
        assert 1.4 < v64 < 1.5

    def test_objective_identity_with_explicit_states(self):
        # assemble a feasible mean operator from explicit pure states plus
        # the reference state; the quadratic objective must equal h_n
        n = 6
        res = sdp_upper_bound(n, n - 1)
        ensemble = uniform_pure_ensemble(res.x_star, n - 1)
        from overlapkit.states import basis_state
        states = [basis_state(n - 1, 0)] + ensemble
        assert evaluate_states(make_hn(n), states) == pytest.approx(res.value, abs=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            sdp_upper_bound(3, 2)
        with pytest.raises(ValidationError):
            sdp_upper_bound(6, 6)
        with pytest.raises(ValidationError):
            sdp_upper_bound(6, 1)

    def test_value_consistent_with_x_star(self):
        res = sdp_upper_bound(7, 5)
        x = res.x_star.entries
        a, b, c = -(36 / 2), 6.0, 3.0
        obj = a * float(np.vdot(x, x).real) + b * float(x[0, 0].real) + c
        assert abs(obj - res.value) <= 1e-12

    def test_x_star_is_built_from_the_spectrum_when_read(self, monkeypatch):
        res = sdp_upper_bound(9, 4)
        lam, value = optimize._optimal_mean(9, 4)
        assert res.value == value and res.spectrum.tobytes() == lam.tobytes()
        with pytest.raises(ValueError):
            res.spectrum[0] = 0.5
        want = DensityMatrix(np.diag(lam).astype(np.complex128)).entries
        assert res.x_star.entries.tobytes() == want.tobytes()

        def forbidden(*args, **kwargs):
            raise AssertionError("the bound value must not build a density matrix")

        # the value, and every cell of the table, leave the matrix unbuilt
        monkeypatch.setattr(optimize, "DensityMatrix", forbidden)
        assert sdp_upper_bound(30, 12).value == pytest.approx(quadratic_optimum(30, 12), abs=1e-12)
        assert all(c.upper_bound is not None for c in dimension_thresholds(6, d_max=3, restarts=1)[2:])
        with pytest.raises(AssertionError):
            sdp_upper_bound(30, 12).x_star

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_dimension_monotonicity(self, n):
        vals = [sdp_upper_bound(n, d).value for d in range(2, n)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-8


class TestThresholdsFor:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_projected_gradient(self, n):
        thr = thresholds_for(n)
        assert [d for d, _ in thr] == list(range(2, n + 1))
        for d, value in thr:
            assert abs(value - projected_gradient_optimum(n, min(d, n - 1))) <= 1e-12, (n, d)

    def test_published_maxima(self):
        for (n, d), published in sorted(PUBLISHED_HN_MAXIMA.items()):
            value = dict(thresholds_for(n))[d]
            if (n, d) in FLAGGED_CELLS:
                assert value >= published - 1e-3, (n, d, value)
            else:
                assert value == pytest.approx(published, abs=ROUNDED_CELLS.get((n, d), 1e-3)), (n, d)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_star_ensembles_certify_each_maximum(self, n):
        # explicit d-dimensional states reach every threshold, so the
        # thresholds are maxima and not only upper bounds
        for d, value in thresholds_for(n):
            states = _star_ensemble_states(n, min(d, n - 1))
            assert abs(evaluate_states(make_hn(n), states) - value) <= 1e-12, (n, d)

    def test_exact_over_the_papers_range(self):
        # 3 < n < 2^12: h_n is exactly 1 at d = n-2 (so d = n-2 states never
        # violate; (4, 2) is the qubit h_4 case) and above 1 at d = n-1
        for n in range(4, 2**12):
            below, top = hn_optimum_exact_pair(n)
            assert below == 1, n
            assert top > 1, n
            assert abs(optimize._optimal_mean(n, n - 2)[1] - float(below)) <= 1e-12, n
            assert abs(optimize._optimal_mean(n, n - 1)[1] - float(top)) <= 1e-12, n

    def test_runs_no_ascent(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("thresholds_for must not run an ascent")

        monkeypatch.setattr(optimize, "maximize_pure", forbidden)
        monkeypatch.setattr(optimize, "dimension_thresholds", forbidden)
        assert dict(thresholds_for(8))[7] == pytest.approx(quadratic_optimum(8, 7), abs=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValidationError):
            thresholds_for(2)


class TestSandwich:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_ascent_below_bound(self, n):
        for d in range(2, n):
            lower = maximize_pure(make_hn(n), d, restarts=40, seed=n * 10 + d).value
            upper = sdp_upper_bound(n, d).value
            assert lower <= upper + 1e-6


class TestUniformEnsemble:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reconstructs_density(self, seed):
        rng = make_rng(seed)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = DensityMatrix((z @ z.conj().T) / np.trace(z @ z.conj().T).real)
        for m in (3, 5):
            ens = uniform_pure_ensemble(rho, m)
            recon = sum(s.density().entries for s in ens) / m
            assert np.max(np.abs(recon - rho.entries)) < 1e-10

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 4), (7, 3), (12, 11), (33, 20), (64, 63), (128, 100)])
    def test_bitwise_the_per_state_rescaling(self, n, d):
        # the star ensemble's mean, and a random full-rank state
        rho = sdp_upper_bound(n, d).x_star
        z = make_rng(n).standard_normal((d, d)) + 1j * make_rng(d).standard_normal((d, d))
        full = DensityMatrix((z @ z.conj().T) / np.trace(z @ z.conj().T).real)
        for r in (rho, full):
            got = uniform_pure_ensemble(r, n - 1)
            want = uniform_pure_ensemble_reference(r, n - 1)
            assert b"".join(s.amplitudes.tobytes() for s in got) == b"".join(s.amplitudes.tobytes() for s in want)

    def test_rank_requirement(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        with pytest.raises(ValidationError):
            uniform_pure_ensemble(rho, 2)


class TestHaarExperiment:
    def test_qubit_h4_never_violates(self):
        rep = haar_experiment(make_hn(4), 2, 30_000, seed=1)
        assert rep.violation_count == 0
        assert rep.max_value <= 1.0 + 1e-9

    def test_d1_all_values_fixed(self):
        rep = haar_experiment(make_hn(3), 1, 512, seed=0)
        assert np.allclose(rep.values, 1.0, atol=1e-12)

    def test_qutrit_h4_straddles_bound(self):
        rep = haar_experiment(make_hn(4), 3, 30_000, seed=2)
        assert rep.values.min() < 1.0 < rep.max_value
        assert rep.max_value <= 4.0 / 3.0 + 1e-9
        assert rep.violation_count > 0

    def test_report_invariants(self):
        rep = haar_experiment(make_hn(5), 3, 5000, seed=3)
        assert rep.max_value == float(rep.values.max())
        assert rep.violation_count == int(np.sum(rep.values > 1.0))
        assert rep.num_sets == rep.values.size == 5000

    def test_deterministic_and_first_chunk_independent_of_num_sets(self):
        a = haar_experiment(make_hn(4), 3, 5000, seed=9)
        b = haar_experiment(make_hn(4), 3, 5000, seed=9)
        assert np.array_equal(a.values, b.values)
        assert ser.dumps(ser.sampling_to_dict(a)) == ser.dumps(ser.sampling_to_dict(b))
        # chunk_size fixes the seed split, so values depend on it; a chunk's
        # stream does not depend on how many chunks follow it
        for c in (1000, 4096):
            one = haar_experiment(make_hn(4), 3, c, seed=9, chunk_size=c)
            three = haar_experiment(make_hn(4), 3, 3 * c, seed=9, chunk_size=c)
            assert three.values[:c].tobytes() == one.values.tobytes()

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            haar_experiment(make_hn(4), 2, 100, seed=seed)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_values_are_bitwise_the_full_chunk_route(self, n, monkeypatch):
        spec = make_hn(n)
        for d in range(1, n + 1):
            for num_sets in (1, 255, 256, 257, 4096, 4097, 9000):
                for chunk_size in (4096, 1000):
                    seed = 10 * n + d
                    expected = haar_values_full_chunk(spec, d, num_sets, seed, chunk_size).tobytes()
                    for threads in ("1", "2"):
                        monkeypatch.setenv("OVERLAPKIT_THREADS", threads)
                        got = haar_experiment(spec, d, num_sets, seed=seed, chunk_size=chunk_size).values
                        assert got.tobytes() == expected, (d, num_sets, chunk_size, threads)

    @pytest.mark.parametrize("n,d,num_sets,limit_mib", [(6, 4, 20_000, 2.0), (10, 9, 4096, 6.0)])
    def test_transient_memory_is_one_real_chunk_plus_one_block(self, n, d, num_sets, limit_mib, monkeypatch):
        # the whole-chunk route peaks at 6.1 and 18.1 MiB on these calls
        monkeypatch.setenv("OVERLAPKIT_THREADS", "1")
        spec = make_hn(n)
        haar_experiment(spec, d, num_sets, seed=1)
        tracemalloc.start()
        try:
            haar_experiment(spec, d, num_sets, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_rejects_chunk_size_below_one(self, chunk_size):
        with pytest.raises(ValidationError, match="chunk_size"):
            haar_experiment(make_hn(4), 2, 100, seed=0, chunk_size=chunk_size)

    def test_threads_do_not_change_results(self, monkeypatch):
        a = haar_experiment(make_hn(4), 3, 9000, seed=4)
        monkeypatch.setenv("OVERLAPKIT_THREADS", "4")
        b = haar_experiment(make_hn(4), 3, 9000, seed=4)
        assert np.array_equal(a.values, b.values)


class TestDimensionThresholds:
    def test_small_table(self):
        cells = dimension_thresholds(5, restarts=40, seed=6)
        lookup = {(c.n, c.d): c for c in cells}
        assert lookup[(4, 2)].max_value == pytest.approx(1.000, abs=1e-3)
        assert lookup[(4, 3)].max_value == pytest.approx(4 / 3, abs=1e-3)
        assert lookup[(5, 4)].max_value == pytest.approx(1.375, abs=1e-3)
        # h3 has no quadratic bound; comes from ascent alone
        assert lookup[(3, 2)].method == "ascent"
        assert lookup[(4, 2)].method == "both"
        for cell in cells:
            if cell.agree is not None:
                assert cell.agree

    def test_cells_from_d_equal_n_reuse_the_top_ascent(self, monkeypatch):
        calls = []

        def counting(spec, d, **kwargs):
            calls.append((spec.n, d))
            return maximize_pure(spec, d, **kwargs)

        monkeypatch.setattr(optimize, "maximize_pure", counting)
        cells = dimension_thresholds(5, restarts=4, seed=3)
        assert calls == [(n, d) for n in range(3, 6) for d in range(2, n)]
        lookup = {(c.n, c.d): c for c in cells}
        for n in range(3, 6):
            top, same = lookup[(n, n - 1)], lookup[(n, n)]
            assert (same.lower_bound, same.upper_bound, same.max_value) == (
                top.lower_bound, top.upper_bound, top.max_value)

    def test_methods_recorded(self):
        cells = dimension_thresholds(4, restarts=30, seed=1)
        assert {c.method for c in cells} <= {"ascent", "both", "quadratic-bound"}

    @pytest.mark.parametrize("d_max", [1, 0, -2])
    def test_rejects_d_max_below_two(self, d_max):
        with pytest.raises(ValidationError, match="d_max"):
            dimension_thresholds(4, d_max, restarts=2)
