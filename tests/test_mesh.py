import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapkit.inequalities import evaluate_states, make_h_mzi, make_hn
from overlapkit import mesh
from overlapkit.mesh import (
    AngleNoise,
    CalibrationCoverageError,
    CalibrationModel,
    MeshCell,
    MeshConfig,
    calibration_fit,
    calibration_forward,
    clements_layout,
    compose,
    decompose,
    dispersion,
    estimate_inequality_via_counts,
    fidelity,
    five_mode_h6_parameters,
    five_mode_parameters,
    h5_ququart_parameters,
    haar_random_unitary,
    hyperspherical_angles,
    mzi_transfer,
    overlap_via_counts,
    pentagon_qubit_set,
    prepare_5mode,
    prepare_ququart,
    prepare_qutrit,
    qutrit_h4_set,
    ququart_h5_set,
    ququart_parameters,
    state_from_hyperspherical,
)
from overlapkit.optimize import thresholds_for
from overlapkit.states import NumericalError, PureState, ValidationError, basis_state, make_rng, overlap

from _oracles import (
    cell_by_cell_compose,
    chain_amplitudes,
    curve_fit_single_heater,
    decompose_reference,
    dense_demodulation_init,
    dense_demodulation_peak,
    family_value_and_grad,
    five_mode_amplitudes,
    hn_family_gradient,
    haar_unitary_numpy,
    hn_value_of_amplitudes,
    mzi_transfer_numpy,
    ordered_functional,
    quadratic_optimum,
    ququart_amplitudes,
    qutrit_amplitudes,
    scipy_family_fit,
)

SEEDS = [0, 1, 2]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def bs_product_cell(theta, phi):
    """Explicit coupler-phase-coupler-phase product; oracle for mzi_transfer."""
    bs = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    return bs @ np.diag([np.exp(1j * theta), 1.0]) @ bs @ np.diag([np.exp(1j * phi), 1.0])


class TestCell:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_transfer_matches_explicit_product(self, seed):
        rng = make_rng(seed)
        for _ in range(20):
            th, ph = rng.uniform(0, 2 * np.pi, 2)
            assert np.allclose(mzi_transfer(th, ph), bs_product_cell(th, ph), atol=1e-14)

    def test_cross_power_law(self):
        for th in np.linspace(0, 2 * np.pi, 40):
            t = mzi_transfer(th, 0.0)
            assert abs(t[1, 0]) ** 2 == pytest.approx((1 + np.cos(th)) / 2, abs=1e-12)

    def test_mirror_and_balanced_points(self):
        assert abs(mzi_transfer(np.pi, 0.3)[1, 0]) ** 2 == pytest.approx(0.0, abs=1e-15)
        assert abs(mzi_transfer(np.pi / 2, 0.0)[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_unitarity(self):
        t = mzi_transfer(1.1, 2.2)
        assert np.allclose(t @ t.conj().T, np.eye(2), atol=1e-14)


class TestScalarCell:
    """`mzi_transfer` from math/cmath is bitwise its numpy-scalar form."""

    SPECIAL = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 5e-324, -5e-324]

    def test_special_angles(self):
        for theta in self.SPECIAL:
            for phi in self.SPECIAL:
                assert same_bits(mzi_transfer(theta, phi), mzi_transfer_numpy(theta, phi)), (theta, phi)

    def test_random_angles(self):
        rng = make_rng(11)
        angles = np.concatenate([rng.uniform(-7.0, 7.0, (50_000, 2)), rng.uniform(-1e3, 1e3, (50_000, 2))])
        for theta, phi in angles.tolist():
            assert same_bits(mzi_transfer(theta, phi), mzi_transfer_numpy(theta, phi)), (theta, phi)

    def test_numpy_scalar_arguments(self):
        for theta, phi in make_rng(12).uniform(0.0, 2 * np.pi, (200, 2)):
            assert same_bits(mzi_transfer(theta, phi), mzi_transfer_numpy(theta, phi))


class TestAngleReduction:
    def test_matches_np_mod_bitwise(self):
        rng = make_rng(13)
        two_pi = 2.0 * np.pi
        values = np.concatenate([
            rng.uniform(-20.0, 20.0, 100_000), rng.standard_normal(50_000) * 1e6, rng.standard_normal(50_000) * 1e-300,
            [0.0, -0.0, two_pi, -two_pi, np.pi, -np.pi, 5e-324, -5e-324, 2.2250738585072014e-308,
             np.nextafter(two_pi, 0.0), -np.nextafter(two_pi, 0.0), 1e308, -1e308],
        ])
        got = np.array([mesh._mod_2pi(v) for v in values.tolist()])
        assert same_bits(got, np.mod(values, two_pi))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    @pytest.mark.parametrize("field", ["theta", "phi"])
    def test_cell_rejects_non_finite_angle(self, bad, field):
        angles = {"theta": 0.1, "phi": 0.2, field: bad}
        with pytest.raises(ValidationError, match="finite"):
            MeshCell(0, 0, **angles)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_config_rejects_non_finite_output_phase(self, bad):
        cells = tuple(MeshCell(r, c, 0.1, 0.2) for r, c in clements_layout(3))
        with pytest.raises(ValidationError, match="finite"):
            MeshConfig(modes=3, cells=cells, output_phases=(0.0, bad, 1.0))

    @pytest.mark.parametrize("bad", ["1.5", "a", "%s", 1j, None, 10**400])
    def test_cell_rejects_angle_that_is_not_a_real_number(self, bad):
        with pytest.raises(ValidationError):
            MeshCell(0, 0, bad, 0.2)

    def test_integer_and_numpy_angles_are_accepted(self):
        cell = MeshCell(0, 0, 7, np.float64(-1.0))
        assert (cell.theta, cell.phi) == (float(np.mod(7.0, 2 * np.pi)), float(np.mod(-1.0, 2 * np.pi)))
        assert type(cell.theta) is float and type(cell.phi) is float


class TestLayout:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_cell_count(self, m):
        assert len(clements_layout(m)) == m * (m - 1) // 2

    def test_config_rejects_bad_layout(self):
        cells = tuple(MeshCell(r, c, 0.1, 0.2) for r, c in clements_layout(3)[:-1])
        with pytest.raises(ValidationError):
            MeshConfig(modes=3, cells=cells)

    def test_angles_reduced(self):
        cell = MeshCell(0, 0, 7.0, -1.0)
        assert 0 <= cell.theta < 2 * np.pi
        assert 0 <= cell.phi < 2 * np.pi


class TestCompose:
    def test_mirror_config_diagonalish(self):
        # all theta = pi: every cell is bar; cross power vanishes per cell
        cells = tuple(MeshCell(r, c, np.pi, 0.0) for r, c in clements_layout(4))
        u = compose(MeshConfig(modes=4, cells=cells))
        assert np.allclose(np.abs(u), np.eye(4), atol=1e-12)

    def test_two_mode_balanced(self):
        cells = (MeshCell(0, 0, np.pi / 2, 0.0),)
        u = compose(MeshConfig(modes=2, cells=cells))
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_unitary_output(self):
        rng = make_rng(3)
        cells = tuple(MeshCell(r, c, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
                      for r, c in clements_layout(5))
        u = compose(MeshConfig(modes=5, cells=cells, output_phases=tuple(rng.uniform(0, 2 * np.pi, 5))))
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12


class TestDecompose:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_roundtrip_haar(self, m, seed):
        u = haar_random_unitary(m, 1000 * m + seed)
        cfg = decompose(u)
        assert np.max(np.abs(compose(cfg) - u)) < 1e-9

    def test_identity_all_bar(self):
        cfg = decompose(np.eye(4, dtype=complex))
        assert all(c.theta == pytest.approx(np.pi, abs=1e-12) for c in cfg.cells)
        assert np.max(np.abs(compose(cfg) - np.eye(4))) < 1e-12

    def test_permutation_extremal_angles(self):
        perm = np.eye(5)[[3, 0, 4, 1, 2]].astype(complex)
        cfg = decompose(perm)
        for c in cfg.cells:
            near_bar = abs(c.theta - np.pi) < 1e-9
            near_cross = c.theta < 1e-9 or abs(c.theta - 2 * np.pi) < 1e-9
            assert near_bar or near_cross
        assert np.max(np.abs(compose(cfg) - perm)) < 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            decompose(np.ones((3, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            decompose(np.full((2, 2), np.nan, dtype=complex))

    def test_roundtrip_on_composed_config(self):
        rng = make_rng(7)
        cells = tuple(MeshCell(r, c, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
                      for r, c in clements_layout(6))
        u = compose(MeshConfig(modes=6, cells=cells))
        assert np.max(np.abs(compose(decompose(u)) - u)) < 1e-9


def config_arrays(config: MeshConfig):
    """(rows, cols, theta, phi, output phases) of a config, cells in its order."""
    cells = config.cells
    return (np.array([c.row for c in cells]), np.array([c.column for c in cells]),
            np.array([c.theta for c in cells]), np.array([c.phi for c in cells]),
            np.array(config.output_phases))


def helmert(m: int) -> np.ndarray:
    """Real orthogonal Helmert matrix: the uniform row, then row k holds k
    entries 1 and one entry -k over sqrt(k(k+1)), zeros after it."""
    h = np.zeros((m, m))
    h[0] = 1.0 / np.sqrt(m)
    for k in range(1, m):
        h[k, :k] = 1.0 / np.sqrt(k * (k + 1))
        h[k, k] = -k / np.sqrt(k * (k + 1))
    return h


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=np.complex128)
    out[:a.shape[0], :a.shape[0]], out[a.shape[0]:, a.shape[0]:] = a, b
    return out


class TestDecomposeAgainstReference:
    """`decompose` is bitwise the numpy-scalar nulling loop it replaced."""

    @staticmethod
    def check(u):
        got, want = config_arrays(decompose(u)), decompose_reference(u)
        for g, w in zip(got, want):
            assert same_bits(g, w)

    @pytest.mark.parametrize("m", range(2, 34))
    def test_haar(self, m):
        rng = make_rng(300 + m)
        for _ in range(4 if m <= 16 else 1):
            self.check(haar_random_unitary(m, rng))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_identity_and_its_signed_zeros(self, m):
        eye = np.eye(m, dtype=complex)
        self.check(eye)
        self.check(-eye)  # -1 on the diagonal, -0.0 off it
        self.check(np.where(eye == 0, complex(-0.0, -0.0), eye))
        self.check(np.where(eye == 0, complex(0.0, -0.0), 1j * eye))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_permutation(self, m):
        for perm in itertools.permutations(range(m)):
            p = np.eye(m, dtype=complex)[list(perm)]
            self.check(p)
            self.check(-p)

    @pytest.mark.parametrize("m", range(5, 17))
    def test_random_permutations_and_diagonal_phases(self, m):
        rng = make_rng(400 + m)
        for _ in range(3):
            p = np.eye(m, dtype=complex)[rng.permutation(m)]
            self.check(p)
            self.check(p * np.exp(1j * rng.uniform(-np.pi, np.pi, m)))
            self.check(np.diag(np.exp(1j * rng.uniform(-4.0, 4.0, m))))

    @pytest.mark.parametrize("m", range(2, 12))
    def test_real_helmert(self, m):
        self.check(helmert(m).astype(complex))
        self.check(helmert(m).T.astype(complex))

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 4), (4, 3), (5, 5)])
    def test_direct_sums_have_exact_zeros_at_nulled_positions(self, sizes):
        rng = make_rng(sum(sizes))
        a, b = (haar_random_unitary(k, rng) for k in sizes)
        self.check(direct_sum(a, b))
        self.check(direct_sum(b, a))
        self.check(direct_sum(a, np.eye(sizes[1])))

    def test_single_zero_entries(self):
        # a real rotation in a Haar frame leaves exact zeros in one nulled column
        for seed in range(6):
            c, s = np.cos(0.3 + seed), np.sin(0.3 + seed)
            u = np.eye(5, dtype=complex)
            u[1:3, 1:3] = [[c, -s], [s, c]]
            self.check(u)
            self.check(u @ np.diag(np.exp(1j * make_rng(seed).uniform(0, 2 * np.pi, 5))))

    def test_nulling_helpers_are_gone(self):
        assert not hasattr(mesh, "_null_from_right") and not hasattr(mesh, "_null_from_left")


class TestHaar:
    def test_matches_ginibre_qr_oracle(self):
        for m in range(1, 17):
            for seed in range(3):
                assert same_bits(haar_random_unitary(m, 50 * m + seed), haar_unitary_numpy(m, make_rng(50 * m + seed)))

    def test_shares_the_generator_stream(self):
        rng, ref = make_rng(9), make_rng(9)
        for m in (3, 5, 2):
            assert same_bits(haar_random_unitary(m, rng), haar_unitary_numpy(m, ref))

    @pytest.mark.parametrize("m", [0, -1, 2.5, "3", True, None])
    def test_rejects_a_size_that_is_not_a_positive_integer(self, m):
        with pytest.raises(ValidationError, match="positive integer"):
            haar_random_unitary(m, 0)

    def test_numpy_integer_size(self):
        assert same_bits(haar_random_unitary(np.int64(4), 1), haar_random_unitary(4, 1))


class TestBatchedKernels:
    """The array kernels reproduce the one-cell-at-a-time routes bit for bit."""

    def test_transfers_match_mzi_transfer(self):
        angles = np.concatenate([make_rng(0).uniform(-7.0, 7.0, (500, 2)),
                                 [[0.0, 0.0], [np.pi, 0.0], [2 * np.pi, np.pi], [np.pi / 2, -np.pi]]])
        stacked = mesh._transfers(angles[:, 0], angles[:, 1])
        for (theta, phi), t in zip(angles, stacked):
            assert same_bits(t, mzi_transfer(float(theta), float(phi)))

    @pytest.mark.parametrize("m", range(2, 33))
    def test_compose_matches_cell_by_cell(self, m):
        rng = make_rng(100 + m)
        cells = tuple(MeshCell(r, c, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
                      for r, c in rng.permutation(clements_layout(m)))
        phases = tuple(rng.uniform(0, 2 * np.pi, m))
        for out in (phases, None):
            config = MeshConfig(modes=m, cells=cells, output_phases=out)
            assert same_bits(compose(config), cell_by_cell_compose(m, cells, config.output_phases, mzi_transfer))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
    @pytest.mark.parametrize("size", [1, 20])
    def test_null_stack_matches_decompose(self, m, size):
        rng = make_rng(200 + m)
        us = [haar_random_unitary(m, rng) for _ in range(size)]
        if size > 1:
            # exact zeros and unit moduli take the degenerate branches of the nulling
            us[0] = np.eye(m, dtype=complex)
            us[1] = np.eye(m)[rng.permutation(m)].astype(complex)
        got = mesh._null_stack(np.array(us))
        for k, u in enumerate(us):
            want = config_arrays(decompose(u))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            for g, w in zip(got[2:], want[2:]):
                assert same_bits(g[k], w)

    @pytest.mark.parametrize("modes", range(2, 9))
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.1])
    def test_fidelity_study_matches_per_unitary_reference(self, modes, sigma):
        study = mesh.perturbed_mesh_fidelity_study(modes, 6, sigma, seed=modes)
        rng = make_rng(modes)
        want = []
        for _ in range(6):
            target = haar_random_unitary(modes, rng)
            config = decompose(target)
            noisy = [MeshCell(c.row, c.column, c.theta + rng.normal(0.0, sigma), c.phi + rng.normal(0.0, sigma))
                     for c in config.cells]
            want.append(fidelity(target, cell_by_cell_compose(modes, noisy, config.output_phases, mzi_transfer)))
        assert same_bits(study.samples, np.array(want))
        assert study.mean == float(np.mean(want)) and study.std == float(np.std(want))


class TestPreparationCircuits:
    def test_qutrit_reference_directions(self):
        assert overlap(prepare_qutrit(0, 0, 0.3, 0.9), basis_state(3, 0)) == pytest.approx(1.0)

    def test_qutrit_reaches_reference_amplitudes(self):
        target = np.array([np.sqrt(5) / 3, 2 / 3, 0.0])
        got = prepare_qutrit(np.arccos(np.sqrt(5) / 3), 0.0, 0.0, 0.0)
        assert np.allclose(got.amplitudes, target, atol=1e-12)

    def test_qutrit_set_maximizes_h4(self):
        assert evaluate_states(make_hn(4), qutrit_h4_set()) == pytest.approx(4 / 3, abs=1e-6)

    def test_qutrit_set_reachable_by_circuit(self):
        for s in qutrit_h4_set():
            a = np.abs(s.amplitudes)
            t1 = np.arctan2(np.hypot(a[1], a[2]), a[0])
            t2 = np.arctan2(a[2], a[1])
            p1 = float(np.angle(s.amplitudes[1])) if a[1] > 0 else 0.0
            p2 = float(np.angle(s.amplitudes[2])) if a[2] > 0 else 0.0
            rebuilt = prepare_qutrit(t1, t2, p1, p2)
            assert overlap(rebuilt, s) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_random_angles(self):
        # constructors validate the norm, so building is the assertion
        rng = make_rng(1)
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, (10_000, 7))
        for row in angles:
            prepare_qutrit(*row[:4])
            prepare_ququart(*row[:6])
            prepare_5mode(*row)

    def test_ququart_parameter_inverse(self):
        for s in ququart_h5_set():
            p = ququart_parameters(s)
            assert overlap(prepare_ququart(*p), s) == pytest.approx(1.0, abs=1e-12)

    def test_h5_parameters_reproduce_maximum(self):
        states = [prepare_ququart(*p) for p in h5_ququart_parameters()]
        assert evaluate_states(make_hn(5), states) == pytest.approx(1.375, abs=1e-9)

    def test_five_mode_restricted_family_reaches_h6_maximum(self):
        params, value = five_mode_h6_parameters()
        assert value == pytest.approx(1.400, abs=1e-3)
        states = [prepare_5mode(*p) for p in params]
        assert evaluate_states(make_hn(6), states) == pytest.approx(value, abs=1e-9)
        assert params.shape == (6, 7)
        assert abs(value - dict(thresholds_for(6))[5]) <= 1e-12  # closed form, not a fit

    def test_five_mode_parameter_inverse_rebuilds_helmert_states(self):
        states = mesh._helmert_star_states(6)
        assert states[0].amplitudes[0] == 1.0
        for s, p in zip(states, five_mode_h6_parameters()[0]):
            assert np.max(np.abs(prepare_5mode(*p).amplitudes - s.amplitudes)) <= 1e-14
            assert np.array_equal(s.amplitudes.imag, np.zeros(5))

    def test_helmert_states_average_to_optimal_mean(self):
        amps = np.array([s.amplitudes.real for s in mesh._helmert_star_states(6)[1:]])
        assert np.allclose(amps.T @ amps / 5.0, np.diag([9, 4, 4, 4, 4]) / 25.0, atol=1e-15)
        assert hn_value_of_amplitudes(np.array([s.amplitudes for s in mesh._helmert_star_states(6)])) \
            == pytest.approx(1.4, abs=1e-14)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_five_mode_parameter_inverse_on_random_family_states(self, seed):
        rng = make_rng(seed)
        for _ in range(200):
            s = prepare_5mode(*rng.uniform(-2 * np.pi, 2 * np.pi, 7))
            rebuilt = prepare_5mode(*five_mode_parameters(s))
            assert overlap(rebuilt, s) == pytest.approx(1.0, abs=1e-14)

    def test_five_mode_parameter_inverse_takes_phase_from_larger_amplitude(self):
        # a rounding-sized mode-0 amplitude of any phase does not decide the global phase
        s = PureState(np.array([1e-17j, -0.6, 0.0, 0.8j, 0.0]))
        assert np.max(np.abs(prepare_5mode(*five_mode_parameters(s)).amplitudes - s.amplitudes)) <= 1e-15

    def test_five_mode_parameter_inverse_rejects_states_outside_family(self):
        with pytest.raises(ValidationError, match="outside the five-mode family"):
            five_mode_parameters(PureState(np.array([1.0, 1j, 0.0, 0.0, 0.0]) / np.sqrt(2.0)))
        with pytest.raises(ValidationError, match="5-dimensional"):
            five_mode_parameters(basis_state(4, 0))

    def test_five_mode_phase_restriction(self):
        # modes 0 and 1 always share a phase: their amplitude ratio is real
        rng = make_rng(5)
        for _ in range(50):
            s = prepare_5mode(*rng.uniform(0, 2 * np.pi, 7))
            a0, a1 = s.amplitudes[0], s.amplitudes[1]
            if abs(a1) > 1e-12:
                assert abs(np.imag(a0 / a1)) < 1e-12


class TestFamilyFit:
    FAMILIES = [(4, prepare_qutrit, 4), (5, prepare_ququart, 6), (6, prepare_5mode, 7)]

    @pytest.mark.parametrize("n,family,p", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_matches_central_difference_oracle(self, n, family, p, seed):
        params = make_rng(seed).uniform(0.0, 2.0 * np.pi, (n, p))
        value_and_grad = mesh._family_value_and_grad(make_hn(n), lambda q: family(*q), p)
        value, grad = value_and_grad(params.ravel())
        want = hn_family_gradient(lambda q: family(*q).amplitudes, params)
        assert value == pytest.approx(hn_value_of_amplitudes(np.array([family(*q).amplitudes for q in params])), abs=1e-12)
        assert np.max(np.abs(grad.reshape(n, p) - want)) < 1e-6

    def test_five_mode_fit_family_calls(self):
        # one restart from seed 7 took 19 866 calls on finite-difference gradients
        calls = []

        def family(q):
            calls.append(1)
            return prepare_5mode(*q)

        params, value = mesh.maximize_pure_family(make_hn(6), family, 7, restarts=1, seed=7)
        assert len(calls) <= 5000
        assert value == pytest.approx(1.4, abs=1e-6)
        assert evaluate_states(make_hn(6), [prepare_5mode(*q) for q in params]) == pytest.approx(value, abs=1e-12)



# (n, family, params per state, seed): the fits the scipy oracle is run on
ORACLE_FITS = ([(6, prepare_5mode, 7, seed) for seed in (7, 8, 9, 10)]
               + [(4, prepare_qutrit, 4, seed) for seed in SEEDS]
               + [(5, prepare_ququart, 6, seed) for seed in SEEDS])


@functools.cache
def counted_fit(fit, n, prepare, p, seed):
    """One-restart fit by `fit` and the family calls it made."""
    calls = []

    def family(q):
        calls.append(1)
        return prepare(*q)

    params, value = fit(make_hn(n), family, p, restarts=1, seed=seed)
    return params, value, len(calls)


class TestLbfgsAscent:
    """The in-house L-BFGS family fit against the scipy L-BFGS-B route it
    replaces (`_oracles.scipy_family_fit`)."""

    @pytest.mark.parametrize("n, prepare, p, seed", ORACLE_FITS)
    def test_value_at_least_scipy_oracle(self, n, prepare, p, seed):
        params, value, _ = counted_fit(mesh.maximize_pure_family, n, prepare, p, seed)
        _, want, _ = counted_fit(scipy_family_fit, n, prepare, p, seed)
        assert value >= want - 1e-8
        assert value >= quadratic_optimum(n, n - 1) - 1e-8
        assert abs(value - hn_value_of_amplitudes(np.array([prepare(*q).amplitudes for q in params]))) <= 1e-12

    def test_five_mode_fits_make_no_more_family_calls_than_scipy(self):
        seeds = (7, 8, 9, 10)
        got = sum(counted_fit(mesh.maximize_pure_family, 6, prepare_5mode, 7, s)[2] for s in seeds)
        want = sum(counted_fit(scipy_family_fit, 6, prepare_5mode, 7, s)[2] for s in seeds)
        assert want == 13_488
        assert got <= want

    def test_concave_quadratic_reaches_its_maximizer(self):
        rng = make_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        a = (q * np.geomspace(1.0, 100.0, 12)) @ q.T
        center = rng.standard_normal(12)
        x, value = mesh._lbfgs_ascent(lambda x: (-0.5 * (x - center) @ a @ (x - center), a @ (center - x)),
                                      np.zeros(12))
        # stops on the relative gain (2.22e-9 of max(|f|, 1)), at most 1e-8 below the maximum 0
        assert -1e-8 <= value <= 0.0
        assert np.max(np.abs(x - center)) <= 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_climbs_out_of_a_convex_region(self, seed):
        # sum(cos x) starts near its minimum at pi, where pairs with s . y <= 0 arise
        x0 = np.pi + make_rng(seed).uniform(-0.3, 0.3, 8)
        x, value = mesh._lbfgs_ascent(lambda x: (float(np.sum(np.cos(x))), -np.sin(x)), x0)
        assert value == pytest.approx(8.0, abs=1e-8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_negated_rosenbrock_reaches_its_maximizer(self, seed):
        def value_and_grad(x):
            r = x[1:] - x[:-1] ** 2
            grad = np.zeros_like(x)
            grad[:-1] = 400.0 * x[:-1] * r + 2.0 * (1.0 - x[:-1])
            grad[1:] -= 200.0 * r
            return -float(np.sum(100.0 * r**2 + (1.0 - x[:-1]) ** 2)), grad

        x, value = mesh._lbfgs_ascent(value_and_grad, make_rng(seed).uniform(-1.5, 1.5, 6))
        assert np.max(np.abs(x - 1.0)) <= 1e-4 and value >= -1e-8

    def test_stationary_start_takes_no_step(self):
        calls = []

        def value_and_grad(x):
            calls.append(1)
            return 1.0, np.zeros_like(x)

        x, value = mesh._lbfgs_ascent(value_and_grad, np.ones(3))
        assert calls == [1] and value == 1.0 and np.array_equal(x, np.ones(3))


CIRCUITS = [(prepare_qutrit, qutrit_amplitudes, 4), (prepare_ququart, ququart_amplitudes, 6),
            (prepare_5mode, five_mode_amplitudes, 7)]


class TestScalarCircuits:
    """The scalar `math` circuits and the one-array family gradient are
    bitwise the numpy scalar forms and the per-probe gradient."""

    @staticmethod
    def angle_rows(p):
        rows = make_rng(11).uniform(-4 * np.pi, 4 * np.pi, (10_000, p))
        special = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, 1e6, -1e6])
        rows[:special.size] = special[:, None]  # every angle special
        for k in range(p):  # each special value in each position, random elsewhere
            rows[special.size * (p + k):special.size * (p + k + 1), k] = special
        return rows

    @pytest.mark.parametrize("prepare, oracle, p", CIRCUITS)
    def test_amplitudes_match_numpy_scalar_oracle(self, prepare, oracle, p):
        rows = self.angle_rows(p)
        got = np.array([prepare(*r).amplitudes for r in rows])
        want = np.array([oracle(*r) for r in rows])
        assert np.array_equal(got, want) and same_bits(got, want)  # signed zeros too

    @pytest.mark.parametrize("prepare, p, position", [(c[0], c[2], k) for c in CIRCUITS for k in range(c[2])])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_is_a_validation_error(self, prepare, p, position, bad):
        angles = [0.3] * p
        angles[position] = bad
        with pytest.raises(ValidationError, match="circuit angles must be finite"):
            prepare(*angles)

    @pytest.mark.parametrize("n, prepare, p", TestFamilyFit.FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_family_gradient_matches_per_probe_oracle(self, n, prepare, p, seed):
        spec = make_hn(n)
        family = lambda q: prepare(*q)
        flat = make_rng(seed).uniform(0.0, 2.0 * np.pi, n * p)
        value, grad = mesh._family_value_and_grad(spec, family, p)(flat)
        want_value, want_grad = family_value_and_grad(spec.weight_matrix(), family, p, mesh._FAMILY_STEP)(flat)
        assert value == want_value
        assert same_bits(grad, want_grad)

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_five_mode_fit_matches_numpy_scalar_family(self, seed):
        got = mesh.maximize_pure_family(make_hn(6), lambda q: prepare_5mode(*q), 7, restarts=1, seed=seed)
        want = mesh.maximize_pure_family(make_hn(6), lambda q: PureState(five_mode_amplitudes(*q)), 7,
                                         restarts=1, seed=seed)
        assert same_bits(got[0], want[0]) and got[1] == want[1]

    def test_dispersion_matches_numpy_scalar_family(self):
        args = (make_hn(5), h5_ququart_parameters(), 0.005, 0.003, 40)
        got = dispersion(*args, seed=4, family=lambda q: prepare_ququart(*q))
        want = dispersion(*args, seed=4, family=lambda q: PureState(ququart_amplitudes(*q)))
        assert same_bits(got.values, want.values) and got.ideal_value == want.ideal_value


class TestHypersphericalMap:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_roundtrip(self, seed):
        from overlapkit.states import haar_random_pure
        rng = make_rng(seed)
        for d in (2, 3, 5):
            s = haar_random_pure(d, rng)
            thetas, phis = hyperspherical_angles(s)
            rebuilt = state_from_hyperspherical(thetas, phis)
            assert overlap(rebuilt, s) == pytest.approx(1.0, abs=1e-12)

    def test_matches_level_by_level_chain(self):
        rng = make_rng(4)
        for d in (2, 3, 5, 8):
            for _ in range(20):
                thetas, phis = rng.uniform(-4.0, 4.0, (2, d - 1))
                want = chain_amplitudes(thetas, phis)
                assert same_bits(state_from_hyperspherical(thetas, phis).amplitudes, want / np.linalg.norm(want))


class TestCounts:
    def test_identical_states(self):
        s = pentagon_qubit_set()[0]
        rec = overlap_via_counts(s, s, 50_000, seed=1)
        assert rec.estimated_probability[0] == pytest.approx(1.0, abs=1e-9)
        assert rec.sigma_c[0] == pytest.approx(np.sqrt(rec.counts[0]) / 50_000, abs=1e-15)

    def test_orthogonal_states(self):
        rec = overlap_via_counts(basis_state(2, 0), basis_state(2, 1), 10_000, seed=1)
        assert rec.estimated_probability[0] == 0.0

    def test_counts_sum_bounded(self):
        rec = overlap_via_counts(pentagon_qubit_set()[0], pentagon_qubit_set()[1],
                                 5000, seed=2, loss=0.1, dark=0.01)
        assert sum(rec.counts) <= rec.total_trials

    def test_estimate_concentrates(self):
        # |estimate - truth| < 4 sigma_c in at least 99% of 1000 repetitions
        a, b = pentagon_qubit_set()[0], pentagon_qubit_set()[2]
        p = overlap(a, b)
        rng = make_rng(4)
        hits = 0
        reps = 1000
        for _ in range(reps):
            rec = overlap_via_counts(a, b, 4000, rng)
            sigma = max(rec.sigma_c[0], 1e-9)
            hits += abs(rec.estimated_probability[0] - p) < 4 * sigma
        assert hits / reps >= 0.99

    def test_deterministic(self):
        a, b = pentagon_qubit_set()[:2]
        r1 = overlap_via_counts(a, b, 10_000, seed=9)
        r2 = overlap_via_counts(a, b, 10_000, seed=9)
        assert r1 == r2

    def test_pentagon_count_estimate_within_3_sigma(self):
        est = estimate_inequality_via_counts(make_h_mzi(), pentagon_qubit_set(), 100_000, seed=12)
        assert abs(est.value - 5 * np.sqrt(5) / 4) < 3 * est.sigma


class TestDispersion:
    def test_zero_noise_zero_width(self):
        res = dispersion(make_hn(5), h5_ququart_parameters(), 0.0, 0.0, 64, seed=0,
                         family=lambda p: prepare_ququart(*p))
        assert res.half_width == pytest.approx(0.0, abs=1e-12)
        assert res.ideal_value == pytest.approx(1.375, abs=1e-9)

    def test_width_monotone_in_noise(self):
        fam = lambda p: prepare_ququart(*p)
        params = h5_ququart_parameters()
        widths_eps = [dispersion(make_hn(5), params, e, 0.0, 400, seed=1, family=fam).half_width
                      for e in (0.0, 0.002, 0.005)]
        assert widths_eps[0] < widths_eps[1] < widths_eps[2]
        widths_delta = [dispersion(make_hn(5), params, 0.0, d, 400, seed=1, family=fam).half_width
                        for d in (0.0, np.deg2rad(0.25), np.deg2rad(0.5))]
        assert widths_delta[0] < widths_delta[1] < widths_delta[2]

    def test_relative_noise_can_exceed_ideal_maximum(self):
        res = dispersion(make_hn(5), h5_ququart_parameters(), 0.005, 0.0, 1000, seed=2,
                         family=lambda p: prepare_ququart(*p))
        assert res.max_value > 1.375

    def test_default_family_hyperspherical(self):
        from overlapkit.states import haar_random_pure
        rng = make_rng(8)
        states = [haar_random_pure(3, rng) for _ in range(3)]
        params = []
        for s in states:
            th, ph = hyperspherical_angles(s)
            params.append(np.concatenate([th, ph]))
        res = dispersion(make_hn(3), params, 0.0, 0.0, 16, seed=3)
        assert res.half_width == pytest.approx(0.0, abs=1e-12)
        assert res.ideal_value == pytest.approx(evaluate_states(make_hn(3), states), abs=1e-9)

    @staticmethod
    def per_draw_reference(spec, params, eps, delta, trials, seed, amplitudes):
        """One `AngleNoise.perturb` call per state and stage, as the draws were first made."""
        noise, rng = AngleNoise(relative=eps, additive=delta), make_rng(seed)
        values = []
        for t in range(trials):
            stages = [[amplitudes(noise.perturb(p, rng, corners=t % 2 == 1)) for p in params] for _ in range(2)]
            values.append(ordered_functional(spec.weights, *stages))
        ideal = [amplitudes(p) for p in params]
        return np.array(values), ordered_functional(spec.weights, ideal, ideal)

    @pytest.mark.parametrize("spec, states", [(make_hn(5), ququart_h5_set()), (make_h_mzi(), pentagon_qubit_set()),
                                              (make_hn(4), qutrit_h4_set())])
    def test_default_family_matches_per_draw_reference(self, spec, states):
        params = [np.concatenate(hyperspherical_angles(s)) for s in states]
        res = dispersion(spec, params, 0.01, 0.004, 41, seed=6)
        values, ideal = self.per_draw_reference(spec, params, 0.01, 0.004, 41, 6,
                                                lambda p: chain_amplitudes(p[:p.size // 2], p[p.size // 2:]))
        assert np.max(np.abs(res.values - values)) <= 1e-12
        assert abs(res.ideal_value - ideal) <= 1e-12
        assert (res.min_value, res.max_value) == (float(res.values.min()), float(res.values.max()))

    def test_custom_family_matches_per_draw_reference(self):
        params = h5_ququart_parameters()
        res = dispersion(make_hn(5), params, 0.005, 0.003, 30, seed=2, family=lambda p: prepare_ququart(*p))
        values, ideal = self.per_draw_reference(make_hn(5), params, 0.005, 0.003, 30, 2,
                                                lambda p: prepare_ququart(*p).amplitudes)
        assert np.max(np.abs(res.values - values)) <= 1e-12
        assert abs(res.ideal_value - ideal) <= 1e-12

    @pytest.mark.parametrize("eps, delta, params", [
        (0.01, 0.0, [np.zeros(3)] * 3),  # odd chain vector
        (float("nan"), 0.0, [np.full(4, 0.3)] * 3),
        (0.01, float("inf"), [np.full(4, 0.3)] * 3),
        (-0.01, 0.0, [np.full(4, 0.3)] * 3),
        (0.01, 0.0, [np.full(4, 0.3)] * 2 + [np.array([0.3, np.nan, 0.3, 0.3])]),
    ])
    def test_default_family_rejects_bad_input(self, eps, delta, params):
        with pytest.raises(ValidationError):
            dispersion(make_hn(3), params, eps, delta, 4)


def synthetic_model(num_heaters: int, seed: int) -> CalibrationModel:
    rng = make_rng(seed)
    return CalibrationModel(
        theta0=rng.uniform(0.3, 5.8, num_heaters),
        alpha=np.diag(rng.uniform(22.0, 30.0, num_heaters)),
        beta=rng.uniform(0.02, 0.08, num_heaters),
        heater_columns=tuple(range(num_heaters)),
    )


def synthetic_sweeps(model: CalibrationModel, points: int = 48, i_max: float = 0.55,
                     noise: float = 0.0, seed: int = 0):
    rng = make_rng(seed)
    sweeps = []
    k = model.theta0.size
    for h in range(k):
        currents = np.linspace(0.0, i_max, points)
        phases = [calibration_forward(model, np.eye(k)[h] * i)[h] for i in currents]
        powers = (1.0 + np.cos(phases)) / 2.0
        if noise > 0:
            powers = np.clip(powers * (1.0 + noise * rng.standard_normal(points)), 0.0, 1.0)
        sweeps.append((currents, powers))
    return sweeps


class TestCalibration:
    def test_forward_zero_currents(self):
        model = synthetic_model(3, 1)
        assert np.allclose(calibration_forward(model, np.zeros(3)), model.theta0)

    def test_forward_quadratic_at_zero_beta(self):
        model = CalibrationModel(theta0=np.array([0.5]), alpha=np.array([[20.0]]),
                                 beta=np.array([0.0]), heater_columns=(0,))
        for i in (0.1, 0.3, 0.5):
            assert calibration_forward(model, [i])[0] == pytest.approx(0.5 + 20.0 * i**2, abs=1e-12)

    def test_column_sparsity_enforced(self):
        with pytest.raises(ValidationError):
            CalibrationModel(theta0=np.zeros(2), alpha=np.array([[25.0, 1.0], [0.0, 25.0]]),
                             beta=np.zeros(2), heater_columns=(0, 1))

    def test_noiseless_recovery(self):
        model = synthetic_model(4, 3)
        fitted, residuals = calibration_fit(synthetic_sweeps(model))
        assert np.max(residuals) < 1e-9
        for h in range(4):
            d_theta = abs((fitted.theta0[h] - model.theta0[h] + np.pi) % (2 * np.pi) - np.pi)
            assert d_theta < 1e-3
            assert fitted.alpha[h, h] == pytest.approx(model.alpha[h, h], rel=1e-3)
            assert fitted.beta[h] == pytest.approx(model.beta[h], rel=1e-2)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_noisy_recovery_within_relaxed_tolerance(self, seed):
        # 1% multiplicative power noise: five times the noiseless tolerances;
        # the small quartic correction needs the wider, denser sweep
        model = synthetic_model(3, 5)
        sweeps = synthetic_sweeps(model, points=400, i_max=0.9, noise=0.01, seed=seed)
        fitted, _ = calibration_fit(sweeps)
        for h in range(3):
            d_theta = abs((fitted.theta0[h] - model.theta0[h] + np.pi) % (2 * np.pi) - np.pi)
            assert d_theta < 5e-3
            assert fitted.alpha[h, h] == pytest.approx(model.alpha[h, h], rel=5e-3)
            assert fitted.beta[h] == pytest.approx(model.beta[h], rel=5e-2)

    def test_constant_sweep_coverage_error(self):
        currents = np.linspace(0, 0.5, 20)
        powers = np.full(20, 0.73)
        with pytest.raises(CalibrationCoverageError):
            calibration_fit([(currents, powers)])

    def test_zero_current_sweep_coverage_error(self):
        # every Jacobian column but theta0's vanishes; the fit must still run
        with pytest.raises(CalibrationCoverageError):
            calibration_fit([(np.zeros(12), np.linspace(0.1, 0.9, 12))])

    def test_too_few_points(self):
        with pytest.raises(CalibrationCoverageError):
            calibration_fit([(np.linspace(0, 0.5, 5), np.linspace(0, 1, 5))])

    def test_inverted_current_hits_half_power(self):
        # solve theta(I) = pi/2 numerically, then check the cell cross power
        from scipy.optimize import brentq
        model = synthetic_model(1, 7)
        target = model.theta0[0] + 2 * np.pi * (model.theta0[0] < np.pi / 2)
        want = np.pi / 2 if model.theta0[0] < np.pi / 2 else model.theta0[0] + (np.pi / 2 - model.theta0[0]) % (2 * np.pi)
        i_star = brentq(lambda i: calibration_forward(model, [i])[0] - want, 0.0, 0.8)
        theta = calibration_forward(model, [i_star])[0]
        cross = abs(mzi_transfer(theta, 0.0)[1, 0]) ** 2
        assert cross == pytest.approx((1 + np.cos(want)) / 2, abs=1e-9)
        assert cross == pytest.approx(0.5, abs=1e-9)


    @pytest.mark.parametrize("column, value", [(0, np.nan), (0, np.inf), (1, np.nan), (1, -np.inf)])
    def test_non_finite_sample_is_a_validation_error(self, column, value):
        sweep = [np.array(a) for a in synthetic_sweeps(synthetic_model(1, 3))[0]]
        sweep[column][5] = value
        with pytest.raises(ValidationError, match="finite"):
            calibration_fit([tuple(sweep)])


def circular_distance(a: float, b: float) -> float:
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def curve_fit_pairs(sweeps):
    """(library fit, dense-scan-plus-curve_fit fit) per heater, each as
    (theta0, alpha, beta, rms residual)."""
    fitted, residuals = calibration_fit(sweeps)
    ours = [(fitted.theta0[h], fitted.alpha[h, h], fitted.beta[h], residuals[h]) for h in range(len(sweeps))]
    return list(zip(ours, [curve_fit_single_heater(cur, pw) for cur, pw in sweeps]))


@pytest.fixture(scope="module")
def noiseless_corpus():
    return synthetic_sweeps(synthetic_model(100, 21))


@pytest.fixture(scope="module")
def noisy_corpus():
    return synthetic_sweeps(synthetic_model(30, 22), points=400, i_max=0.9, noise=0.01, seed=23)


@pytest.fixture(scope="module")
def noiseless_pairs(noiseless_corpus):
    return curve_fit_pairs(noiseless_corpus)


@pytest.fixture(scope="module")
def noisy_pairs(noisy_corpus):
    return curve_fit_pairs(noisy_corpus)


class TestCalibrationAgainstCurveFit:
    """The factored scan and the closed-form-Jacobian Levenberg-Marquardt
    against the dense scan and scipy's finite-difference `curve_fit`."""

    def test_noiseless_sweeps_agree(self, noiseless_pairs):
        for (t0, a, b, _), (t0_o, a_o, b_o, _) in noiseless_pairs:
            assert circular_distance(t0, t0_o) <= 1e-10
            assert abs(a - a_o) <= 1e-10
            assert abs(b / b_o - 1.0) <= 1e-9

    def test_noisy_sweeps_agree(self, noisy_pairs):
        for (t0, a, b, _), (t0_o, a_o, b_o, _) in noisy_pairs:
            assert circular_distance(t0, t0_o) <= 1e-6
            assert abs(a - a_o) <= 1e-6
            assert abs(b / b_o - 1.0) <= 1e-5

    def test_residual_never_above_curve_fit(self, noiseless_pairs, noisy_pairs):
        for ours, oracle in noiseless_pairs + noisy_pairs:
            assert ours[3] <= oracle[3] + 1e-12

    def test_factored_scan_matches_dense_scan(self, noiseless_corpus, noisy_corpus):
        # a few noisy sweeps only: the dense 4000 x 400 table is slow
        for cur, pw in noiseless_corpus + noisy_corpus[:5]:
            x, y = cur**2, 2.0 * np.clip(pw, 0.0, 1.0) - 1.0
            alphas, z = mesh._demodulation_scan(x, y)
            assert alphas.size == 4000
            assert abs(np.max(np.abs(z)) - dense_demodulation_peak(x, y)) <= 1e-12
            phase, alpha = mesh._demodulation_init(x, y)
            phase_o, alpha_o = dense_demodulation_init(x, y)
            assert alpha == alpha_o
            assert circular_distance(phase, phase_o) <= 1e-12

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_refinement_is_never_worse_than_its_start(self, seed):
        rng = make_rng(seed)
        cur, pw = synthetic_sweeps(synthetic_model(1, seed), points=400, i_max=0.9, noise=0.01, seed=seed)[0]
        x = cur**2

        def cost(params):
            return float(np.sum((mesh._power_model(x, *params) - pw) ** 2))

        for _ in range(20):
            start = (rng.uniform(0.0, 2 * np.pi), rng.uniform(1.0, 60.0), rng.uniform(-0.5, 0.5))
            assert cost(mesh._levenberg_marquardt(x, pw, start)) <= cost(start)


class TestFidelity:
    def test_self_fidelity(self):
        u = haar_random_unitary(6, 1)
        assert fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_output_phase_invariance(self):
        u = haar_random_unitary(6, 2)
        phases = np.exp(1j * make_rng(3).uniform(0, 2 * np.pi, 6))
        assert fidelity(u, u * phases) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bounded_by_one(self, seed):
        a = haar_random_unitary(5, seed)
        b = haar_random_unitary(5, seed + 100)
        assert fidelity(a, b) <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("kwargs", [
        {"n_unitaries": 0}, {"n_unitaries": -3}, {"sigma_rad": -0.1},
        {"sigma_rad": float("nan")}, {"sigma_rad": float("inf")}, {"modes": 1},
    ])
    def test_study_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValidationError):
            mesh.perturbed_mesh_fidelity_study(**{"modes": 4, "n_unitaries": 2, "sigma_rad": 0.1, **kwargs})

    @pytest.mark.parametrize("sigma", [1e308, 1.7e308])
    def test_study_with_overflowing_phase_errors_is_a_numerical_error(self, sigma):
        with pytest.raises(NumericalError, match="overflow"):
            mesh.perturbed_mesh_fidelity_study(modes=3, n_unitaries=4, sigma_rad=sigma, seed=0)

    def test_study_with_large_finite_phase_errors_has_finite_samples(self):
        study = mesh.perturbed_mesh_fidelity_study(modes=3, n_unitaries=4, sigma_rad=1e300, seed=0)
        assert np.all(np.isfinite(study.samples)) and np.all(study.samples <= 1.0 + 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=7, max_size=7))
def test_prepare_families_unit_norm_property(angles):
    for s in (prepare_qutrit(*angles[:4]), prepare_ququart(*angles[:6]), prepare_5mode(*angles)):
        assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-12
