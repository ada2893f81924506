import numpy as np
import pytest

from overlapkit.interrogation import (
    crossover_nu,
    depolarized_overlap,
    eta_ideal,
    eta_nc_bound,
    eta_noisy,
    eta_quantum_depolarized,
    h3_robust,
    hexagon,
    interrogation_point,
    robustness_curve,
)
from overlapkit.states import ValidationError, depolarize, make_rng, overlap, qubit_state

from _oracles import per_point_curve, table_s2_cells

THETA = 5 * np.pi / 6

SEEDS = [0, 1, 2]


def brute_force_eta(r: float) -> float:
    """Independent two-splitter amplitude model of the interrogation task.

    The photon avoids the absorbing arm with probability r; the surviving
    amplitude exits the success port with probability 1 - r.
    """
    p_abs = 1.0 - r
    p_succ = r * (1.0 - r)
    if p_succ + p_abs == 0.0:
        return 0.0
    return p_succ / (p_succ + p_abs)


class TestEtaIdeal:
    def test_zero_reflectivity(self):
        assert eta_ideal(0.0) == 0.0

    def test_removable_singularity_at_one(self):
        assert eta_ideal(1.0) == 0.0

    def test_brute_force_agreement(self):
        for r in np.linspace(0.0, 0.999, 97):
            assert eta_ideal(r) == pytest.approx(brute_force_eta(r), abs=1e-12)

    def test_balanced_splitting(self):
        # overlap 1/2 at the balanced point: success 1/4 of 3/4 total
        assert eta_ideal(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
        pt = interrogation_point(0.5)
        assert pt.p_succ == pytest.approx(0.25, abs=1e-12)

    def test_reference_angle(self):
        # r equals the overlap cos^2(theta) = 3/4 at theta = 5pi/6
        assert eta_ideal(np.cos(THETA) ** 2) == pytest.approx(0.428571, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            eta_ideal(1.2)


class TestEtaNoisy:
    def test_noiseless_limit(self):
        for r in np.linspace(0, 0.99, 23):
            assert eta_noisy(r, 0.0, 0.0, 0.0) == pytest.approx(eta_ideal(r), abs=1e-14)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_zero_noise_is_bitwise_the_ideal_curve(self, sign):
        for r in [*np.linspace(0.0, 0.99, 1001), 1.0]:
            assert eta_noisy(r, 0.0, 0.0, 0.0, sign).hex() == eta_ideal(r).hex()

    def test_r_zero(self):
        n1, n2 = 0.004, 0.002
        assert eta_noisy(0.0, 0.0, n1, n2) == pytest.approx(n1 / (1 + n1 + n2), abs=1e-14)

    def test_band_straddles_ideal_near_r_one(self):
        r = 0.99
        lo = eta_noisy(r, 0.005, 0.005, 0.005, sign=+1)
        hi = eta_noisy(r, 0.005, 0.005, 0.005, sign=-1)
        mid = eta_ideal(r)
        assert min(lo, hi) < mid < max(lo, hi)
        # band width grows toward r = 1
        w1 = abs(eta_noisy(0.9, 0.005, 0.005, 0.005, -1) - eta_noisy(0.9, 0.005, 0.005, 0.005, +1))
        w2 = abs(eta_noisy(0.99, 0.005, 0.005, 0.005, -1) - eta_noisy(0.99, 0.005, 0.005, 0.005, +1))
        assert w2 > w1

    def test_envelope_validation(self):
        with pytest.raises(ValidationError):
            eta_noisy(0.5, 0.05, 0.0, 0.0)
        with pytest.raises(ValidationError):
            eta_noisy(0.5, 0.0, 0.0, 0.0, sign=2)


class TestDepolarizedOverlap:
    @pytest.mark.parametrize("nu", np.linspace(0, 1, 11))
    def test_matches_channel_route(self, nu):
        a, b = qubit_state(0.3), qubit_state(1.2)
        q = overlap(a, b)
        via_channel = overlap(depolarize(a, nu), depolarize(b, nu))
        assert depolarized_overlap(q, nu) == pytest.approx(via_channel, abs=1e-12)

    @pytest.mark.parametrize("nu", np.linspace(0, 1, 11))
    def test_discrimination_error(self, nu):
        # 1 - self-overlap of a depolarized pure state = nu - nu^2/2
        s = qubit_state(0.8, 0.5)
        err = 1.0 - overlap(depolarize(s, nu), depolarize(s, nu))
        assert err == pytest.approx(nu - nu**2 / 2.0, abs=1e-12)


class TestEtaQuantum:
    def test_pure_overlap_substitution(self):
        for theta in np.linspace(0.1, np.pi - 0.1, 17):
            q = np.cos(theta) ** 2
            assert eta_quantum_depolarized(theta, 0.0) == pytest.approx(q / (q + 1), abs=1e-12)

    def test_reference_value(self):
        assert eta_quantum_depolarized(THETA, 0.0) == pytest.approx(0.428571, abs=1e-6)

    def test_full_noise(self):
        assert eta_quantum_depolarized(0.77, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_agrees_with_eta_ideal_via_overlap(self):
        # both parameterizations reduce to q/(q+1) on the overlap q
        for theta in np.linspace(0.05, np.pi / 2 - 0.01, 9):
            q = np.cos(theta) ** 2
            assert eta_quantum_depolarized(theta, 0.0) == pytest.approx(eta_ideal(q), abs=1e-12)


class TestEtaNcBound:
    def test_ideal_bound(self):
        assert eta_nc_bound(THETA, 0.0) == pytest.approx(0.285714, abs=1e-4)

    def test_exact_ideal_fraction(self):
        assert eta_nc_bound(THETA, 0.0) == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_increases_with_noise(self):
        vals = [eta_nc_bound(THETA, nu) for nu in np.linspace(0, 0.3, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_published_worst_case_cells(self):
        # the worst-case efficiency column: the nu = 0 cell is the ideal
        # noncontextual bound; at positive nu it is the depolarized quantum
        # efficiency (the bound and the quantum curve meet at the crossover)
        cells = table_s2_cells()
        nu0, ideal = cells[0]
        assert eta_nc_bound(THETA, nu0) == pytest.approx(ideal, abs=1e-4)
        for nu, expected in cells[1:]:
            assert eta_quantum_depolarized(THETA, nu) == pytest.approx(expected, abs=1e-4)

    def test_bound_meets_quantum_at_crossover(self):
        nu_star = crossover_nu(THETA)
        assert eta_nc_bound(THETA, nu_star) == pytest.approx(
            eta_quantum_depolarized(THETA, nu_star), abs=1e-5)


class TestCrossover:
    def test_reference_crossover(self):
        assert crossover_nu(THETA) == pytest.approx(0.057, abs=1e-3)

    def test_closed_form_value(self):
        # the gap closes where (1-nu)^2 = 8/9 for theta = 5pi/6
        assert abs(crossover_nu(THETA) - (1 - 2 * np.sqrt(2) / 3)) <= 1e-12

    def test_curves_meet_at_crossover(self):
        # the root formula against the two efficiency curves it solves
        for theta in np.linspace(2.40, 3.12, 25):
            nu = crossover_nu(theta)
            assert abs(eta_quantum_depolarized(theta, nu) - eta_nc_bound(theta, nu)) <= 1e-12, theta
            assert eta_quantum_depolarized(theta, nu * 0.99) > eta_nc_bound(theta, nu * 0.99)
            assert eta_quantum_depolarized(theta, nu * 1.01) < eta_nc_bound(theta, nu * 1.01)

    def test_no_gap_raises(self):
        # between ~0.78 and ~2.36 rad the ideal advantage vanishes
        with pytest.raises(ValidationError):
            crossover_nu(1.2)

    def test_gap_sign_pattern(self):
        for nu in np.linspace(0.0, 0.05, 8):
            assert eta_quantum_depolarized(THETA, nu) > eta_nc_bound(THETA, nu)
        for nu in np.linspace(0.07, 0.2, 8):
            assert eta_quantum_depolarized(THETA, nu) < eta_nc_bound(THETA, nu)

    def test_curve_single_peak_shape(self):
        # crossover as a function of theta: continuous, one interior peak
        thetas = np.linspace(2.45, 3.10, 50)
        vals = np.array([crossover_nu(t) for t in thetas])
        assert np.all(vals > 0) and np.all(vals < 0.25)
        peak = int(np.argmax(vals))
        assert 0 < peak < len(vals) - 1
        rising, falling = np.diff(vals[: peak + 1]), np.diff(vals[peak:])
        assert np.all(rising > -1e-6) and np.all(falling < 1e-6)


class TestHexagon:
    def test_pure_equivalences_exact(self):
        frag = hexagon(THETA, 0.0)
        assert frag.equivalence_deviation < 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.7, 1.0])
    @pytest.mark.parametrize("theta", [0.4, THETA, 2.9])
    def test_depolarization_preserves_equivalences(self, theta, nu):
        assert hexagon(theta, nu).equivalence_deviation < 1e-12

    def test_state_order_and_overlaps(self):
        frag = hexagon(THETA, 0.0)
        r01 = overlap(frag.states[0], frag.states[1])
        r02 = overlap(frag.states[0], frag.states[2])
        r12 = overlap(frag.states[1], frag.states[2])
        assert r01 == pytest.approx(0.75, abs=1e-12)
        assert r02 == pytest.approx(0.75, abs=1e-12)
        assert r12 == pytest.approx(0.25, abs=1e-12)
        # antipodal partners are orthogonal at nu = 0
        for i in range(3):
            assert overlap(frag.states[i], frag.states[i + 3]) == pytest.approx(0.0, abs=1e-12)


class TestH3Robust:
    def test_ideal_value(self):
        assert h3_robust(hexagon(THETA, 0.0)) == pytest.approx(1.25, abs=1e-12)

    def test_fully_depolarized(self):
        assert h3_robust(hexagon(THETA, 1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_monotone_decrease_in_nu(self):
        vals = [h3_robust(hexagon(THETA, nu)) for nu in np.linspace(0, 1, 11)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestRobustnessCurve:
    def test_points_and_crossover(self):
        curve = robustness_curve(THETA, np.linspace(0, 0.2, 21))
        assert len(curve.points) == 21
        assert curve.crossover_nu == pytest.approx(0.0572, abs=1e-3)
        for nu, eq, en in curve.points:
            assert eq == pytest.approx(eta_quantum_depolarized(THETA, nu), abs=1e-15)
            assert en == pytest.approx(eta_nc_bound(THETA, nu), abs=1e-15)

    def test_no_gap_curve_has_none(self):
        curve = robustness_curve(1.2, [0.0, 0.1])
        assert curve.crossover_nu is None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_the_per_point_route(self, seed):
        # the whole grid in one pass equals the old one-nu-at-a-time loop,
        # bit for bit, for angles with and without a contextual gap
        rng = make_rng(seed)
        for _ in range(40):
            theta = float(rng.uniform(-4.0, 4.0))
            grid = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 300), np.linspace(0.0, 0.2, 41)])
            got = np.array(robustness_curve(theta, grid).points)
            want = np.array(per_point_curve(theta, grid))
            assert got.tobytes() == want.tobytes(), theta

    def test_scalar_and_array_calls_agree_bitwise(self):
        rng = make_rng(9)
        nus = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 500)])
        for theta in (THETA, 0.3, 2.9):
            want = np.array(per_point_curve(theta, nus))
            arrays = (eta_quantum_depolarized(theta, nus), eta_nc_bound(theta, nus))
            scalars = ([eta_quantum_depolarized(theta, nu) for nu in nus.tolist()],
                       [eta_nc_bound(theta, nu) for nu in nus.tolist()])
            for k in (0, 1):
                assert np.asarray(arrays[k]).tobytes() == want[:, k + 1].tobytes()
                assert np.asarray(scalars[k]).tobytes() == want[:, k + 1].tobytes()
        q = rng.uniform(0.0, 1.0, nus.size)
        per_point = [depolarized_overlap(float(a), float(b)) for a, b in zip(q, nus)]
        assert np.asarray(depolarized_overlap(q, nus)).tobytes() == np.asarray(per_point).tobytes()

    def test_empty_grid(self):
        assert robustness_curve(THETA, []).points == ()

    def test_points_are_python_floats(self):
        for point in robustness_curve(THETA, [0.0, 0.1]).points:
            assert all(type(x) is float for x in point)


class TestArrayRangeCheck:
    @pytest.mark.parametrize("f", [
        lambda nu: depolarized_overlap(0.5, nu),
        lambda nu: eta_quantum_depolarized(THETA, nu),
        lambda nu: eta_nc_bound(THETA, nu),
        lambda nu: robustness_curve(THETA, nu),
    ])
    @pytest.mark.parametrize("bad,shown", [(1.5, "1.5"), (-0.25, "-0.25"), (float("nan"), "nan")])
    def test_offending_nu_is_named(self, f, bad, shown):
        with pytest.raises(ValidationError, match=rf"nu must lie in \[0, 1\], got {shown}$"):
            f(np.array([0.0, 0.1, bad, 0.2]))

    def test_scalar_nu_checked(self):
        with pytest.raises(ValidationError, match="got 1.5"):
            eta_nc_bound(THETA, 1.5)


class TestNonFiniteTheta:
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    @pytest.mark.parametrize("f", [
        lambda t: robustness_curve(t, [0.0, 0.1]),
        lambda t: crossover_nu(t),
        lambda t: hexagon(t),
        lambda t: hexagon(t, 0.3),
        lambda t: eta_quantum_depolarized(t, 0.1),
        lambda t: eta_nc_bound(t, 0.1),
    ])
    def test_rejected(self, f, theta):
        # NaN used to run through to NaN points and a NaN crossover
        with pytest.raises(ValidationError, match="theta must be a finite real number"):
            f(theta)
