import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapkit.states import (
    DensityMatrix,
    PureState,
    ValidationError,
    basis_state,
    bloch_vector,
    depolarize,
    haar_random_pure,
    make_rng,
    max_eigenvalue,
    overlap,
    qubit_state,
    split_seeds,
)
from overlapkit.inequalities import qubit_triple_max_eigenvalue

SEEDS = [0, 1, 2]


def random_density(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestConstruction:
    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_rejects_nan(self):
        with pytest.raises(ValidationError):
            PureState(np.array([np.nan, 0.0]))

    @staticmethod
    def scaled_unit_vector(norm_sq):
        v = np.array([1 + 2j, 3 - 1j, -0.5, 2j])
        return v * np.sqrt(norm_sq / np.sum(np.abs(v) ** 2))

    @pytest.mark.parametrize("offset", [5e-13, -5e-13])
    def test_pure_state_accepts_norm_within_tolerance(self, offset):
        v = self.scaled_unit_vector(1.0 + offset)
        assert np.array_equal(PureState(v).amplitudes, v)

    @pytest.mark.parametrize("offset", [2e-12, -2e-12])
    def test_pure_state_rejects_norm_beyond_tolerance(self, offset):
        with pytest.raises(ValidationError, match=r"^squared norm is 0\.99|^squared norm is 1\.00"):
            PureState(self.scaled_unit_vector(1.0 + offset))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
    def test_pure_state_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match=r"^squared norm is .*, expected 1 within 1e-12$"):
            PureState(np.array([bad, 0.0, 0.0]))

    def test_pure_state_normalized_factory(self):
        s = PureState.normalized([3.0, 4.0])
        assert s.amplitudes[0] == pytest.approx(0.6)

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_density_repairs_tiny_negativity(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        rho = DensityMatrix(m)
        assert np.linalg.eigvalsh(rho.entries)[0] >= 0.0
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-14)

    def test_density_rejects_nan(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex))

    def test_density_rejects_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                DensityMatrix(np.array([[0.5, np.inf], [np.inf, 0.5]]))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0.1], [0.4, 0.5]], dtype=complex))

    def test_arrays_frozen(self):
        s = basis_state(2, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestOverlap:
    def test_identical_pure(self):
        s = basis_state(2, 0)
        assert overlap(s, s) == 1.0

    def test_orthogonal_pure(self):
        assert overlap(basis_state(2, 0), basis_state(2, 1)) == 0.0

    def test_maximally_mixed_pair(self):
        # Tr(I_2/2 * I_2/2) = 1/2, derived by hand
        mm = DensityMatrix.maximally_mixed(2)
        assert overlap(mm, mm) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            overlap(basis_state(2, 0), basis_state(3, 0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_symmetry_bitwise(self, seed):
        rng = make_rng(seed)
        for d in (2, 3, 5):
            a, b = random_density(d, rng), random_density(d, rng)
            assert overlap(a, b) == overlap(b, a)
            pa, pb = haar_random_pure(d, rng), haar_random_pure(d, rng)
            assert overlap(pa, pb) == overlap(pb, pa)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_range(self, seed):
        rng = make_rng(seed)
        for _ in range(50):
            a, b = random_density(3, rng), random_density(3, rng)
            v = overlap(a, b)
            assert 0.0 <= v <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", SEEDS)
    def test_self_overlap_one_iff_pure(self, seed):
        rng = make_rng(seed)
        pure = haar_random_pure(3, rng).density()
        assert overlap(pure, pure) == pytest.approx(1.0, abs=1e-12)
        lam = np.array([0.7, 0.2, 0.1])
        mixed = DensityMatrix(np.diag(lam).astype(complex))
        assert overlap(mixed, mixed) < 1.0 - 1e-3
        assert overlap(mixed, mixed) == pytest.approx(float(np.sum(lam**2)), abs=1e-12)

    def test_pure_matches_density_route(self):
        rng = make_rng(5)
        a, b = haar_random_pure(4, rng), haar_random_pure(4, rng)
        assert overlap(a, b) == pytest.approx(overlap(a.density(), b.density()), abs=1e-12)


class TestDepolarize:
    def test_nu_zero_identity(self):
        rho = qubit_state(0.7, 0.3).density()
        out = depolarize(rho, 0.0)
        assert np.allclose(out.entries, rho.entries, atol=1e-15)

    def test_nu_one_maximally_mixed(self):
        rho = qubit_state(0.7, 0.3).density()
        out = depolarize(rho, 1.0)
        assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-15)

    def test_out_of_range(self):
        rho = basis_state(2, 0).density()
        for nu in (-0.1, 1.1):
            with pytest.raises(ValidationError):
                depolarize(rho, nu)

    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.3, 0.7, 1.0])
    def test_depolarized_self_overlap(self, nu):
        # overlap of a depolarized pure qubit with itself: 1 + nu^2/2 - nu
        rho = depolarize(qubit_state(1.1, 0.4), nu)
        assert overlap(rho, rho) == pytest.approx(1.0 + nu**2 / 2.0 - nu, abs=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_affine_in_nu(self, seed):
        rng = make_rng(seed)
        rho = random_density(3, rng)
        n1, n2 = 0.2, 0.8
        mid = depolarize(rho, (n1 + n2) / 2.0)
        avg = (depolarize(rho, n1).entries + depolarize(rho, n2).entries) / 2.0
        assert np.max(np.abs(mid.entries - avg)) < 1e-12

    def test_trace_preserved(self):
        rho = random_density(4, make_rng(9))
        assert np.trace(depolarize(rho, 0.37).entries).real == pytest.approx(1.0, abs=1e-12)


class TestHaar:
    def test_d1_trivial(self):
        s = haar_random_pure(1, 3)
        assert abs(abs(s.amplitudes[0]) - 1.0) < 1e-12

    def test_d0_error(self):
        with pytest.raises(ValidationError):
            haar_random_pure(0, 3)

    def test_frozen_reference_vector(self):
        # recorded on first run; asserts determinism of the seeded stream
        s = haar_random_pure(2, 12345)
        expected = np.array([-0.67499496 - 0.41275597j, 0.59909773 - 0.12286666j])
        assert np.allclose(s.amplitudes, expected, atol=1e-8)

    def test_mean_overlap_is_inverse_dimension(self):
        # E|<phi|psi>|^2 = 1/d for Haar psi; d=4, 1e4 samples, 3 sigma
        rng = make_rng(77)
        ref = basis_state(4, 0)
        vals = [overlap(ref, haar_random_pure(4, rng)) for _ in range(10_000)]
        sigma_mean = np.sqrt(3.0 / (16.0 * 5.0) / 10_000)  # Beta(1,3) variance
        assert abs(np.mean(vals) - 0.25) < 3.0 * sigma_mean

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bloch_uniformity(self, seed):
        rng = make_rng(seed)
        vecs = np.array([bloch_vector(haar_random_pure(2, rng)) for _ in range(10_000)])
        assert np.linalg.norm(vecs.mean(axis=0)) < 0.05

    def test_unitary_invariance(self):
        # rotating the samples by a fixed unitary leaves moments unchanged
        rng = make_rng(21)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        ref = basis_state(3, 0)
        plain, rotated = [], []
        for _ in range(4000):
            s = haar_random_pure(3, rng)
            plain.append(overlap(ref, s))
            rotated.append(overlap(ref, PureState(u @ s.amplitudes)))
        assert abs(np.mean(plain) - np.mean(rotated)) < 0.02

    def test_split_seeds_independent_and_deterministic(self):
        a = split_seeds(4, 3)
        b = split_seeds(4, 3)
        for sa, sb in zip(a, b):
            ga = np.random.Generator(np.random.PCG64(sa)).standard_normal(4)
            gb = np.random.Generator(np.random.PCG64(sb)).standard_normal(4)
            assert np.array_equal(ga, gb)
        g0 = np.random.Generator(np.random.PCG64(a[0])).standard_normal(4)
        g1 = np.random.Generator(np.random.PCG64(a[1])).standard_normal(4)
        assert not np.allclose(g0, g1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_split_seeds_checks_the_seed_as_make_rng_does(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            make_rng(seed)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            split_seeds(seed, 2)


class TestMaxEigenvalue:
    def test_identity(self):
        assert max_eigenvalue(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert max_eigenvalue(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            max_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_three_state_frame_closed_form(self):
        # frame operator of (|0>, |t>, |a,p>) against the closed form
        rng = make_rng(13)
        for _ in range(25):
            t, a = rng.uniform(0, np.pi / 2, 2)
            p = rng.uniform(0, 2 * np.pi)
            s0 = np.array([1.0, 0.0])
            s1 = np.array([np.cos(t), np.sin(t)])
            s2 = np.array([np.cos(a), np.exp(1j * p) * np.sin(a)])
            frame = sum(np.outer(s, s.conj()) for s in (s0, s1, s2))
            assert max_eigenvalue(frame) == pytest.approx(
                float(qubit_triple_max_eigenvalue(t, a, p)), abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_haar_unit_norm_property(d, seed):
    s = haar_random_pure(d, seed)
    assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**16))
def test_depolarize_purity_decreases(nu, seed):
    rho = haar_random_pure(2, seed).density()
    assert depolarize(rho, nu).purity() <= rho.purity() + 1e-12
