import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapkit.inequalities import (
    InequalitySpec,
    OverlapSet,
    ValidationError,
    classify,
    edge_order,
    evaluate,
    evaluate_states,
    hn_order,
    hn_plus,
    make_h3_robust,
    make_h_mzi,
    make_hn,
    qubit_h4_gap,
)
from overlapkit.mesh import (
    _helmert_star_states,
    _star_ensemble_states,
    pentagon_qubit_set,
    qutrit_h4_set,
    ququart_h5_set,
)
from overlapkit.optimize import thresholds_for
from overlapkit import serialize as ser
from overlapkit.states import (
    DensityMatrix,
    NumericalError,
    PureState,
    basis_state,
    depolarize,
    haar_random_pure,
    make_rng,
    overlap,
    qubit_state,
)

from _oracles import (
    brute_force_h4_qubit,
    mirrored_by_indices,
    pairwise_overlap_matrix,
    pentagon_exact,
)

EPS = np.finfo(float).eps

SEEDS = [0, 1, 2]


class TestOverlapSet:
    def test_symmetry_is_exact(self):
        o = OverlapSet.from_upper(3, [0.2, 0.4, 0.6])
        assert np.array_equal(o.r, o.r.T)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            OverlapSet.from_upper(3, [0.2, 1.4, 0.6])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            OverlapSet.from_upper(3, [np.nan, 0.5, 0.2])

    def test_diagonal_fixed_to_one(self):
        o = OverlapSet.from_states([basis_state(2, 0), basis_state(2, 1)])
        assert o.r[0, 0] == 1.0 and o.r[1, 1] == 1.0

    def test_edge_order(self):
        assert edge_order(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_restrict_relabels(self):
        o = OverlapSet.from_upper(4, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        sub = o.restrict([1, 2, 3])
        assert sub.r[0, 1] == o.r[1, 2]
        assert sub.r[0, 2] == o.r[1, 3]


def _random_density(d: int, rng) -> DensityMatrix:
    """A full-rank mixture of three Haar states."""
    lam = rng.dirichlet(np.ones(3))
    return DensityMatrix(sum(w * haar_random_pure(d, rng).density().entries for w in lam))


def _max_gram_error(states, terms: int) -> float:
    """Largest entry difference from the pairwise route, in units of
    ``terms`` * eps (the dot products have ``terms`` summands)."""
    got = OverlapSet.from_states(states).r
    return float(np.max(np.abs(got - pairwise_overlap_matrix(states)))) / (terms * EPS)


class TestGramRoute:
    """`OverlapSet.from_states` against the one-call-per-pair route."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_pure_tuples(self, d):
        rng = make_rng(100 + d)
        for n in range(2, 41):
            states = [haar_random_pure(d, rng) for _ in range(n)]
            assert _max_gram_error(states, d) <= 4.0, (n, d)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_density_and_mixed_tuples(self, d):
        rng = make_rng(200 + d)
        for n in range(2, 41, 6):
            dens = [_random_density(d, rng) for _ in range(n)]
            mixed = [haar_random_pure(d, rng) if k % 2 else dens[k] for k in range(n)]
            assert _max_gram_error(dens, d * d) <= 4.0, (n, d)
            assert _max_gram_error(mixed, d * d) <= 4.0, (n, d)

    def test_dimension_255(self):
        rng = make_rng(255)
        pures = [haar_random_pure(255, rng) for _ in range(12)]
        assert _max_gram_error(pures, 255) <= 4.0
        mixed = pures[:4] + [_random_density(255, rng) for _ in range(2)]
        assert _max_gram_error(mixed, 255 * 255) <= 4.0

    def test_matrix_is_symmetric_with_unit_diagonal(self):
        rng = make_rng(7)
        r = OverlapSet.from_states([haar_random_pure(5, rng) for _ in range(9)]).r
        assert np.array_equal(r, r.T) and np.all(np.diag(r) == 1.0)

    @pytest.mark.parametrize("as_density", [(), (1,), (0, 1, 2, 3, 4, 5)])
    def test_basis_states_are_exact(self, as_density):
        # repeated and orthogonal basis vectors: every overlap is exactly 0 or 1
        ks = [0, 2, 0, 1, 2, 3]
        states = [basis_state(4, k).density() if i in as_density else basis_state(4, k)
                  for i, k in enumerate(ks)]
        want = np.array([[1.0 if a == b else 0.0 for b in ks] for a in ks])
        assert np.array_equal(OverlapSet.from_states(states).r, want)

    @pytest.mark.parametrize("states", [
        [], [basis_state(2, 0)], [basis_state(2, 0).density()],
    ])
    def test_fewer_than_two_states(self, states):
        with pytest.raises(ValidationError, match="at least 2"):
            OverlapSet.from_states(states)

    @pytest.mark.parametrize("pair", [
        (basis_state(2, 0), basis_state(3, 0)),
        (basis_state(2, 0).density(), basis_state(3, 0).density()),
        (basis_state(2, 0), basis_state(3, 0).density()),
        (basis_state(3, 0).density(), basis_state(2, 0)),
    ])
    def test_mismatched_dimensions(self, pair):
        # numpy would stack these as a ragged array and raise its own ValueError
        states = [pair[0], pair[0], pair[1]]
        with pytest.raises(ValidationError, match="dimension mismatch: 2 vs 3|dimension mismatch: 3 vs 2"):
            OverlapSet.from_states(states)

    @pytest.mark.parametrize("item", [1.0, "x", None, np.array([1.0, 0.0]), np.eye(2) / 2])
    def test_items_that_are_not_states(self, item):
        with pytest.raises(ValidationError, match="expected PureState or DensityMatrix"):
            OverlapSet.from_states([basis_state(2, 0), item])

    @staticmethod
    def _long_pair(excess: float) -> list[PureState]:
        # a squared norm of 1 + excess passes PureState's 1e-12 tolerance;
        # the state's overlap with itself is then about 1 + 2 * excess
        s = PureState(np.array([np.sqrt(1.0 + excess), 0.0]))
        return [s, basis_state(2, 1), s]

    def test_overlap_beyond_tolerance_is_a_numerical_error(self):
        states = self._long_pair(0.9e-12)
        with pytest.raises(NumericalError):
            overlap(states[0], states[2])
        with pytest.raises(NumericalError, match="states 0 and 2"):
            OverlapSet.from_states(states)
        with pytest.raises(NumericalError, match="states 0 and 2"):
            OverlapSet.from_states([s.density() for s in states])

    def test_overlap_within_tolerance_is_clamped(self):
        states = self._long_pair(0.4e-12)
        assert overlap(states[0], states[2]) == 1.0
        for tup in (states, [s.density() for s in states]):
            r = OverlapSet.from_states(tup).r
            assert r[0, 2] == r[2, 0] == 1.0 and r[0, 1] == 0.0

    def test_depolarized_hexagon_matches_pairwise_route(self):
        rng = make_rng(11)
        for theta, nu in rng.uniform(0.0, 1.0, (20, 2)) * [np.pi, 1.0]:
            pures = [qubit_state(t) for t in (0.0, theta, -theta, np.pi / 2, theta + np.pi / 2, -theta + np.pi / 2)]
            states = [depolarize(p, nu) for p in pures]
            assert _max_gram_error(states, 4) <= 4.0


class TestOverlapSetConstruction:
    """The constructor's mask-and-mirror is the `triu_indices` round trip, bitwise."""

    @pytest.mark.parametrize("n", [2, 3, 6, 17])
    def test_bitwise_the_index_route(self, n):
        rng = make_rng(n)
        special = [0.0, -0.0, 1.0, -1e-12, -4e-13, 1.0 + 1e-12, 1.0 + 4e-13, 5e-324]
        for _ in range(20):
            m = rng.uniform(0.0, 1.0, (n, n))
            m[rng.uniform(size=(n, n)) < 0.3] = rng.choice(special)
            m[np.tril_indices(n)] = rng.choice([np.nan, -5.0, 7.0, -0.0])  # never read
            got = OverlapSet(n, m).r
            want = mirrored_by_indices(n, m)
            assert got.tobytes() == want.tobytes()

    def test_signed_zero_is_mirrored(self):
        r = OverlapSet.from_upper(3, [-0.0, 0.5, 0.0]).r
        assert np.signbit(r[0, 1]) and np.signbit(r[1, 0])
        assert not np.signbit(r[1, 2]) and not np.signbit(r[2, 1])

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_upper_is_edge_order(self, n):
        o = OverlapSet.from_upper(n, make_rng(n).uniform(0, 1, n * (n - 1) // 2))
        assert o.upper().tolist() == [o.r[i, j] for i, j in edge_order(n)]

    def test_matrix_is_read_only(self):
        o = OverlapSet.from_upper(3, [0.2, 0.4, 0.6])
        with pytest.raises(ValueError):
            o.r[0, 1] = 0.3


class TestMakeHn:
    def test_h3_weights(self):
        spec = make_hn(3)
        assert spec.weights == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): -1.0}
        assert spec.classical_bound == 1.0

    def test_h4_weights(self):
        spec = make_hn(4)
        assert spec.weights == {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0,
                                (1, 2): -1.0, (1, 3): -1.0, (2, 3): -1.0}

    def test_h5_star_pattern(self):
        spec = make_hn(5)
        for k in range(1, 5):
            assert spec.weights[(0, k)] == 1.0
        for i, j in itertools.combinations(range(1, 5), 2):
            assert spec.weights[(i, j)] == -1.0

    def test_rejects_small_n(self):
        with pytest.raises(ValidationError):
            make_hn(2)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_recursion_consistency(self, n):
        # weights of h_n extend h_{n-1} by +1 on (0, n-1), -1 on (i, n-1)
        cur, prev = make_hn(n), make_hn(n - 1)
        for edge, w in prev.weights.items():
            assert cur.weights[edge] == w
        assert cur.weights[(0, n - 1)] == 1.0
        for i in range(1, n - 1):
            assert cur.weights[(i, n - 1)] == -1.0


class TestHmzi:
    def test_uniform_overlaps_cancel(self):
        spec = make_h_mzi()
        assert evaluate(spec, OverlapSet.from_upper(5, [1.0] * 10)) == pytest.approx(0.0)
        assert evaluate(spec, OverlapSet.from_upper(5, [0.0] * 10)) == 0.0
        assert spec.classical_bound == 2.0

    def test_pentagon_maximum(self):
        value = evaluate_states(make_h_mzi(), pentagon_qubit_set())
        assert value == pytest.approx(pentagon_exact(), abs=1e-9)


class TestEvaluate:
    def test_hypercube_vertex(self):
        assert evaluate(make_hn(3), OverlapSet.from_upper(3, [1.0, 1.0, 0.0])) == 2.0

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate(make_hn(4), OverlapSet.from_upper(3, [0.5] * 3))

    def test_qutrit_set_h4(self):
        assert evaluate_states(make_hn(4), qutrit_h4_set()) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_ququart_set_h5(self):
        assert evaluate_states(make_hn(5), ququart_h5_set()) == pytest.approx(1.375, abs=1e-9)

    def test_printed_ququart_amplitudes(self):
        # two-decimal published amplitudes (two sign slips corrected),
        # normalized; lands within 1e-2 of the exact maximum 1.375
        raw = [
            [0.61, 0.16, 0.41, -0.65],
            [0.13, 0.12, 0.95, -0.26],
            [-0.99, 0.01, -0.12, 0.01],
            [-0.23, 0.43, -0.05, 0.87],
            [0.26, 0.76, -0.03, -0.59],
        ]
        from overlapkit.states import PureState
        states = [PureState.normalized(np.array(v, dtype=complex)) for v in raw]
        assert evaluate_states(make_hn(5), states) == pytest.approx(1.375, abs=1e-2)

    def test_identical_states_saturate_h3(self):
        s = basis_state(2, 0)
        assert evaluate_states(make_hn(3), [s, s, s]) == pytest.approx(1.0)

    def test_h4_on_orthogonal_basis(self):
        states = [basis_state(4, k) for k in range(4)]
        assert evaluate_states(make_hn(4), states) == 0.0

    def test_h3_rebit_triple(self):
        theta = 5 * np.pi / 6
        states = [qubit_state(0.0), qubit_state(theta), qubit_state(-theta)]
        assert evaluate_states(make_hn(3), states) == pytest.approx(1.25, abs=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linearity(self, seed):
        rng = make_rng(seed)
        spec = make_hn(4)
        r1 = OverlapSet.from_upper(4, rng.uniform(0, 1, 6))
        r2 = OverlapSet.from_upper(4, rng.uniform(0, 1, 6))
        lam = rng.uniform()
        mix = OverlapSet.from_upper(4, lam * r1.upper() + (1 - lam) * r2.upper())
        assert evaluate(spec, mix) == pytest.approx(
            lam * evaluate(spec, r1) + (1 - lam) * evaluate(spec, r2), abs=1e-12)


class TestHnPlus:
    def test_zero(self):
        assert hn_plus(OverlapSet.from_upper(3, [0.0] * 3)) == 0.0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n,d", [(4, 2), (5, 3), (6, 4)])
    def test_mean_projector_identity(self, seed, n, d):
        # sum of overlaps equals (n^2/2) Tr(X^2) - n/2 for the mean projector X
        rng = make_rng(seed * 97 + n)
        states = [haar_random_pure(d, rng) for _ in range(n)]
        o = OverlapSet.from_states(states)
        x = sum(s.density().entries for s in states) / n
        expected = (n**2 / 2.0) * float(np.vdot(x, x).real) - n / 2.0
        assert hn_plus(o) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_hn_decomposition(self, seed, n):
        # h_n = (sum over all pairs) - 2 (sum over pairs excluding the star node 0)
        rng = make_rng(seed * 31 + n)
        states = [haar_random_pure(3, rng) for _ in range(n)]
        o = OverlapSet.from_states(states)
        value = evaluate_states(make_hn(n), states)
        assert value == pytest.approx(
            hn_plus(o) - 2.0 * hn_plus(o.restrict(range(1, n))), abs=1e-10)


class TestMixedStateReduction:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixture_below_best_pure_tuple(self, n, seed):
        # two-component mixtures: functional value never exceeds the best
        # tuple of pure components (multilinearity makes it an average)
        rng = make_rng(seed * 11 + n)
        spec = make_hn(n)
        comps, lams = [], []
        for _ in range(n):
            comps.append([haar_random_pure(3, rng) for _ in range(2)])
            lam = rng.uniform(0.2, 0.8)
            lams.append((lam, 1 - lam))
        from overlapkit.states import DensityMatrix
        mixed = [
            DensityMatrix(l0 * c[0].density().entries + l1 * c[1].density().entries)
            for c, (l0, l1) in zip(comps, lams)
        ]
        mixture_value = evaluate_states(spec, mixed)
        combo_values, combo_weights = [], []
        for picks in itertools.product(range(2), repeat=n):
            combo_values.append(evaluate_states(spec, [comps[i][p] for i, p in enumerate(picks)]))
            combo_weights.append(np.prod([lams[i][p] for i, p in enumerate(picks)]))
        assert mixture_value <= max(combo_values) + 1e-10
        # multilinearity: the mixture is exactly the convex combination
        assert mixture_value == pytest.approx(
            float(np.dot(combo_weights, combo_values)), abs=1e-10)


class TestQubitH4Bound:
    def test_gap_nonpositive_on_grid(self):
        t = np.linspace(0, np.pi / 2, 40)
        a = np.linspace(0, np.pi / 2, 40)
        p = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        tt, aa, pp = np.meshgrid(t, a, p, indexing="ij")
        assert float(qubit_h4_gap(tt, aa, pp).max()) <= 1e-12

    def test_gap_matches_numeric_optimum(self):
        rng = make_rng(3)
        for _ in range(100):
            t, a = rng.uniform(0, np.pi / 2, 2)
            p = rng.uniform(0, 2 * np.pi)
            assert float(qubit_h4_gap(t, a, p)) == pytest.approx(
                brute_force_h4_qubit(t, a, p), abs=1e-8)


class TestClassify:
    def test_witness_and_dimension(self):
        v = classify(make_hn(4), 1.31, [(2, 1.000), (3, 4.0 / 3.0)])
        assert v.coherence_witnessed and v.min_dimension == 3

    def test_subthreshold_value_still_informative(self):
        # 0.36 is no coherence witness but exceeds the d=2 maximum 0.25
        v = classify(make_hn(5), 0.36, [(2, 0.250), (3, 1.000), (4, 1.375)])
        assert not v.coherence_witnessed
        assert v.min_dimension == 3

    def test_boundary_is_not_witnessing(self):
        v = classify(make_hn(3), 1.0, [(2, 1.25)])
        assert not v.coherence_witnessed

    def test_empty_thresholds_flagged(self):
        v = classify(make_hn(3), 1.2, [])
        assert v.min_dimension == 1 and not v.min_dimension_known

    def test_slack(self):
        thresholds = [(2, 1.0)]
        assert classify(make_hn(4), 1.005, thresholds, slack=0.01).min_dimension == 1
        assert classify(make_hn(4), 1.005, thresholds, slack=0.0).min_dimension == 3

    def test_rounding_margin_only_on_dimension_thresholds(self):
        spec = make_hn(5)
        thr = [(2, 0.25), (3, 1.0), (4, 1.375)]
        assert classify(spec, 1.375 * (1 + 4e-16), thr).min_dimension == 4
        assert classify(spec, 1.375 + 1e-9, thr).min_dimension == 5
        # the classical bound stays strict: one ulp above 1 witnesses
        assert classify(spec, np.nextafter(1.0, 2.0), thr).coherence_witnessed

    @pytest.mark.parametrize("slack", [float("nan"), float("inf"), -1.0])
    def test_bad_slack_rejected(self, slack):
        # NaN or inf would hide every witness, a negative slack invent one
        with pytest.raises(ValidationError, match="slack"):
            classify(make_h_mzi(), 2.795, [], slack=slack)

    # n <= 10 runs at every d in the test below
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(11, 65) for d in (n - 2, n - 1)]
                             + [(224, 223), (256, 255)])
    def test_exact_maximizers_over_the_paper_range(self, n, d):
        # a left-to-right float sum put the d = n-1 maximizer above its
        # threshold at n = 224 and 256, reporting n + 1 dimensions
        spec = make_hn(n)
        verdict = classify(spec, evaluate_states(spec, _star_ensemble_states(n, d)), thresholds_for(n))
        assert verdict.min_dimension == d, (n, d, verdict.value)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_exact_maximizers_not_over_reported(self, n):
        spec, thr = make_hn(n), thresholds_for(n)
        for d in range(2, n):
            verdict = classify(spec, evaluate_states(spec, _star_ensemble_states(n, d)), thr)
            # the d = 2 maximum exceeds no listed threshold, so it reads as 1
            assert verdict.min_dimension == (d if d > 2 else 1), (n, d, verdict.value)

    def test_mesh_sets_report_their_dimension(self):
        for spec, states, d in ((make_hn(4), qutrit_h4_set(), 3), (make_hn(5), ququart_h5_set(), 4)):
            verdict = classify(spec, evaluate_states(spec, states), thresholds_for(spec.n))
            assert verdict.min_dimension == d and verdict.coherence_witnessed

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_rejected(self, bad):
        # a NaN threshold is exceeded by no value, so d = 2 was silently skipped
        with pytest.raises(ValidationError, match="threshold values must be finite"):
            classify(make_hn(4), 1.3, [(2, bad), (3, 1.0)])

    @pytest.mark.parametrize("n", [512])
    def test_helmert_maximizer_at_large_n(self, n):
        # the real d = n-1 maximizer, one Gram product for all n(n-1)/2 pairs
        spec = make_hn(n)
        verdict = classify(spec, evaluate_states(spec, _helmert_star_states(n)), thresholds_for(n))
        assert verdict.min_dimension == n - 1, verdict.value

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValidationError):
            classify(make_hn(4), 1.0, [(3, 1.3), (2, 1.0)])


class TestHnOrder:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_builtins(self, n):
        assert hn_order(make_hn(n)) == n

    def test_renamed_file_is_still_hn(self):
        record = ser.inequality_to_dict(make_hn(7))
        record["name"] = "mine"
        assert hn_order(ser.inequality_from_dict(record)) == 7

    def test_other_weights_are_not_hn(self):
        h5 = make_hn(5)
        flipped = dict(h5.weights)
        flipped[(1, 2)] = 1.0
        missing = {e: w for e, w in h5.weights.items() if e != (3, 4)}
        hmzi_as_h5 = InequalitySpec(5, make_h_mzi().weights, 2.0, name="h5")
        for spec in (make_h_mzi(), make_h3_robust(), hmzi_as_h5,
                     InequalitySpec(5, flipped, 1.0, name="h5"), InequalitySpec(5, missing, 1.0, name="h5")):
            assert hn_order(spec) is None, spec.weights

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_one_edge_off_is_not_hn(self, n):
        h = make_hn(n).weights
        for edge in h:
            missing = {e: w for e, w in h.items() if e != edge}
            flipped = {**h, edge: -h[edge]}
            zeroed = {**h, edge: 0.0}
            for weights in (missing, flipped, zeroed):
                assert hn_order(InequalitySpec(n, weights, 1.0, name=f"h{n}")) is None, (edge, weights)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_smaller_hn_with_zero_weight_edges_is_not_hn(self, n):
        # h_n on the first n nodes of an (n+1)-node spec: one zero-weight
        # extra edge, and every edge to the new node at weight zero
        h = make_hn(n).weights
        one_extra = {**h, (0, n): 0.0}
        all_extra = {**h, **{(i, n): 0.0 for i in range(n)}}
        assert len(all_extra) == (n + 1) * n // 2
        for weights in (one_extra, all_extra):
            assert hn_order(InequalitySpec(n + 1, weights, 1.0, name=f"h{n + 1}")) is None, weights

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_same_verdict_as_comparing_with_make_hn(self, n, data):
        # the h_n pattern (weights as floats or ints), with an edge now and
        # then dropped or given another weight
        weights = {}
        for i, j in edge_order(n):
            roll = data.draw(st.integers(0, 19))
            if roll == 1:
                weights[(i, j)] = data.draw(st.sampled_from([1.0, -1.0, 0.0, -0.0, 2.0, 0.5]))
            elif roll > 1:
                weights[(i, j)] = data.draw(st.sampled_from([1.0, 1])) * (1 if i == 0 else -1)
        spec = InequalitySpec(n, weights, 1.0)
        want = n if n >= 3 and spec.weights == make_hn(n).weights else None
        assert hn_order(spec) == want

    def test_builds_no_second_spec(self, monkeypatch):
        import overlapkit.inequalities as ineq

        spec = make_hn(9)

        def forbidden(*args, **kwargs):
            raise AssertionError("hn_order must not build make_hn")

        monkeypatch.setattr(ineq, "make_hn", forbidden)
        assert hn_order(spec) == 9


class TestSpecWeights:
    @pytest.mark.parametrize("w", ["x", 1 + 2j, np.complex128(1.0), np.complex64(1.0), None,
                                   10**400, float("nan"), float("inf")])
    def test_non_real_or_non_finite_weight_rejected(self, w):
        with pytest.raises(ValidationError, match=r"coefficient on edge \(0,1\)"):
            InequalitySpec(3, {(0, 1): w}, 1.0)

    @pytest.mark.parametrize("bound", ["x", 1j, np.complex128(2.0), float("nan"), 10**400])
    def test_non_real_or_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValidationError, match="classical bound"):
            InequalitySpec(3, {(0, 1): 1.0}, bound)

    @pytest.mark.parametrize("w", [1, True, np.float32(0.5), np.int64(-2), np.float64(1.5)])
    def test_real_weights_become_floats(self, w):
        spec = InequalitySpec(3, {(0, 1): w}, 1.0)
        assert type(spec.weights[(0, 1)]) is float and spec.weights[(0, 1)] == float(w)


class TestRobustH3Spec:
    def test_weights(self):
        spec = make_h3_robust()
        assert spec.n == 6
        assert spec.weights == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): -1.0,
                                (0, 3): -1.0, (1, 4): -1.0, (2, 5): -1.0}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**20))
def test_evaluate_states_matches_overlap_route(n, seed):
    rng = make_rng(seed)
    states = [haar_random_pure(3, rng) for _ in range(n)]
    spec = make_hn(n)
    assert evaluate_states(spec, states) == pytest.approx(
        evaluate(spec, OverlapSet.from_states(states)), abs=1e-12)
