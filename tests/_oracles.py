"""Independent oracles shared by the test modules.

Everything here is computed by a different route than the code under test:
closed forms, brute force, or exhaustive search. Keep it that way.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Published maxima of the h_n functionals by (n, d). Six cells are known
# optimizer artifacts of the source table (its own caption flags the
# non-monotone rows); for those the closed-form optimum below is the
# oracle and the table value is only a lower reference.
PUBLISHED_HN_MAXIMA = {
    (3, 2): 1.250, (3, 3): 1.250,
    (4, 2): 1.000, (4, 3): 1.333, (4, 4): 1.333,
    (5, 2): 0.250, (5, 3): 1.000, (5, 4): 1.375, (5, 5): 1.375,
    (6, 2): -0.999, (6, 3): 0.333, (6, 4): 1.000, (6, 5): 1.400, (6, 6): 1.400,
    (7, 2): -2.750, (7, 3): -0.667, (7, 4): 0.375, (7, 5): 1.000, (7, 6): 1.417, (7, 7): 1.417,
    (8, 2): -5.000, (8, 3): -2.000, (8, 4): -0.500, (8, 5): 0.400, (8, 6): 1.000,
    (8, 7): 1.429, (8, 8): 1.417,
    (9, 2): -7.750, (9, 3): -3.667, (9, 4): -1.625, (9, 5): -0.400, (9, 6): 0.417,
    (9, 7): 1.000, (9, 8): 1.428, (9, 9): 1.429,
    (10, 2): -11.000, (10, 3): -5.667, (10, 4): -3.000, (10, 5): -1.400, (10, 6): -0.333,
    (10, 7): 0.429, (10, 8): 1.000, (10, 9): 1.443, (10, 10): 1.437,
}

# Cells where the published value undershoots the closed-form optimum by
# more than 1e-3 (verified below); tests treat the closed form as truth
# there and only require our result to be at least the published value.
FLAGGED_CELLS = {(8, 8), (9, 8), (9, 9), (10, 9), (10, 10)}

# One published cell rounds the other way: -0.999 printed where the
# optimum is exactly -1. Plain round-off, checked at a 2e-3 tolerance.
ROUNDED_CELLS = {(6, 2): 2e-3}


def quadratic_optimum(n: int, d: int) -> float:
    """Closed-form maximum of the h_n quadratic over d x d density matrices.

    The objective is -(L/2)||X - C/(n-1)||^2 + const with L = (n-1)^2 and
    C = |0><0|, so the maximizer is the simplex projection of the diagonal
    (1/(n-1), 0, ..., 0): top entry x = (n+d-2)/(d(n-1)), the rest equal.
    For d >= n-1 the maximum is constant in d.
    """
    d = min(d, n - 1)
    x = (n + d - 2) / (d * (n - 1))
    tr2 = x**2 + (1 - x) ** 2 / (d - 1) if d > 1 else 1.0
    return -((n - 1) ** 2 / 2.0) * tr2 + (n - 1) * x + (n - 1) / 2.0


def quadratic_value_exact(n: int, x: Fraction, tr2: Fraction) -> Fraction:
    """The h_n quadratic ``-((n-1)^2/2) Tr X^2 + (n-1) x + (n-1)/2`` in exact
    rationals, from the top entry x and Tr X^2 of the optimal mean."""
    return -Fraction((n - 1) ** 2, 2) * tr2 + (n - 1) * x + Fraction(n - 1, 2)


def hn_optimum_exact_pair(n: int) -> tuple[Fraction, Fraction]:
    """Exact h_n optimum at d = n-2 and at d = n-1, for n >= 4.

    At d = n-2 the top entry is x = 2/(n-1) and Tr X^2 = (n+1)/(n-1)^2.
    At d = n-1 the top entry is x = (2n-3)/(n-1)^2, the other n-2 entries
    share 1 - x = (n-2)^2/(n-1)^2 equally, so Tr X^2 = x^2 + (n-2)^3/(n-1)^4.
    """
    below = quadratic_value_exact(n, Fraction(2, n - 1), Fraction(n + 1, (n - 1) ** 2))
    x = Fraction(2 * n - 3, (n - 1) ** 2)
    top = quadratic_value_exact(n, x, x * x + Fraction((n - 2) ** 3, (n - 1) ** 4))
    return below, top


def _simplex_projection_bisection(v: np.ndarray) -> np.ndarray:
    """Projection onto the probability simplex: bisect the shift tau with
    sum(max(v - tau, 0)) = 1 (the library has the projection in closed form)."""
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(200):
        tau = (lo + hi) / 2.0
        if np.maximum(v - tau, 0.0).sum() > 1.0:
            lo = tau
        else:
            hi = tau
    return np.maximum(v - (lo + hi) / 2.0, 0.0)


def projected_gradient_optimum(n: int, d: int) -> float:
    """Maximum of the h_n quadratic over d x d density matrices, iteratively.

    Projected gradient ascent with fixed step 1/L, L = (n-1)^2, from the
    maximally mixed state; each iterate is projected onto the
    spectrahedron through an eigendecomposition and a bisection simplex
    projection. Stops when the objective moves by less than 1e-13 between
    iterates. Never uses the closed-form spectrum, so it is a second route
    to `quadratic_optimum`.
    """
    lip = float((n - 1) ** 2)

    def objective(x: np.ndarray) -> float:
        return -(lip / 2.0) * float(np.vdot(x, x).real) + (n - 1) * float(x[0, 0].real) + (n - 1) / 2.0

    e00 = np.zeros((d, d), dtype=np.complex128)
    e00[0, 0] = 1.0
    x = np.eye(d, dtype=np.complex128) / d
    f = objective(x)
    for _ in range(10_000):
        vals, vecs = np.linalg.eigh(x + (-lip * x + (n - 1) * e00) / lip)
        x = (vecs * _simplex_projection_bisection(vals)) @ vecs.conj().T
        f_next = objective(x)
        if abs(f_next - f) < 1e-13:
            break
        f = f_next
    return f_next


def brute_force_h4_qubit(theta: float, alpha: float, phi: float) -> float:
    """Numeric optimum of h_4 - 1 with three fixed qubit states.

    The fourth state maximizing the three star overlaps is the top
    eigenvector of the frame operator; uses a dense eigensolver, fully
    independent of the package's closed form.
    """
    s0 = np.array([1.0, 0.0])
    s1 = np.array([np.cos(theta), np.sin(theta)])
    s2 = np.array([np.cos(alpha), np.exp(1j * phi) * np.sin(alpha)])
    frame = sum(np.outer(s, s.conj()) for s in (s0, s1, s2))
    lam = np.linalg.eigvalsh(frame)[-1]
    r01 = abs(np.vdot(s0, s1)) ** 2
    r02 = abs(np.vdot(s0, s2)) ** 2
    r12 = abs(np.vdot(s1, s2)) ** 2
    return float(lam - 1.0 - r01 - r02 - r12)


def pentagon_exact() -> float:
    return 5.0 * np.sqrt(5.0) / 4.0


def table_s2_cells() -> list[tuple[float, float]]:
    """(nu, worst-case efficiency) pairs of the published robustness table."""
    return [(0.0, 0.285714), (0.057, 0.419385), (0.112, 0.410757), (0.333, 0.379353)]


def hn_value_of_amplitudes(amps: np.ndarray) -> float:
    """h_n of pure states given as rows, by an explicit pairwise sum:
    +|<psi_0|psi_k>|^2 for every k >= 1, -|<psi_i|psi_j>|^2 for 1 <= i < j."""
    n = len(amps)
    value = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r = abs(np.vdot(amps[i], amps[j])) ** 2
            value += r if i == 0 else -r
    return value


def pairwise_overlap_matrix(states) -> np.ndarray:
    """Overlap matrix of a state tuple, one `states.overlap` call per pair.

    The route `OverlapSet.from_states` took before its Gram product: unit
    diagonal, r_ij = r_ji = overlap(states[i], states[j]) for i < j.
    """
    from overlapkit.states import overlap

    n = len(states)
    m = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = overlap(states[i], states[j])
    return m


def mirrored_by_indices(n: int, m: np.ndarray) -> np.ndarray:
    """An `OverlapSet` matrix built through `np.triu_indices`, as it was:
    the strict upper triangle clipped to [0, 1], copied to the lower one,
    unit diagonal. The caller checks the range first."""
    iu = np.triu_indices(n, k=1)
    out = np.eye(n)
    out[iu] = np.clip(np.asarray(m, dtype=float)[iu], 0.0, 1.0)
    out[(iu[1], iu[0])] = out[iu]
    return out


def per_point_curve(theta: float, nu_grid) -> tuple[tuple[float, float, float], ...]:
    """The robustness curve one noise level at a time, in float arithmetic.

    The loop `interrogation.robustness_curve` ran before it took the whole
    grid at once, with the depolarized formulas written out: squares are
    float ``**`` (libm ``pow``), as the scalar calls computed them.
    """
    c1, c2 = float(np.cos(theta) ** 2), float(np.cos(2.0 * theta) ** 2)
    points = []
    for nu in np.asarray(nu_grid, dtype=float).tolist():
        eps = nu - nu**2 / 2.0
        q = (1.0 - nu) ** 2 * c1 + nu - nu**2 / 2.0
        r_plus_minus = (1.0 - nu) ** 2 * c2 + nu - nu**2 / 2.0
        points.append((nu, q / (q + 1.0), (1.0 + 3.0 * eps - q + r_plus_minus) / (q + 1.0)))
    return tuple(points)


def hn_family_gradient(amplitudes_of, params: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of h_n over a family's stacked angles.

    ``params`` holds one row of angles per state and ``amplitudes_of`` maps
    a row to that state's amplitude vector. Each angle is moved by
    ``+-step`` and every state rebuilt; the value is the explicit pairwise
    sum above, never a Gram-matrix product.
    """
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for idx in np.ndindex(params.shape):
        values = []
        for sign in (1.0, -1.0):
            moved = params.copy()
            moved[idx] += sign * step
            values.append(hn_value_of_amplitudes(np.array([amplitudes_of(row) for row in moved])))
        grad[idx] = (values[0] - values[1]) / (2.0 * step)
    return grad


def cell_by_cell_compose(modes: int, cells, output_phases, transfer) -> np.ndarray:
    """Mesh unitary multiplied one cell at a time, in (column, row) order.

    ``cells`` holds objects with ``row``, ``column``, ``theta`` and ``phi``;
    ``transfer(theta, phi)`` gives a cell's 2 x 2 matrix. Each cell's block
    left-multiplies rows (row, row + 1) of the running product, then the
    output phases (if any) scale the rows.
    """
    u = np.eye(modes, dtype=np.complex128)
    for cell in sorted(cells, key=lambda c: (c.column, c.row)):
        u[cell.row:cell.row + 2, :] = transfer(cell.theta, cell.phi) @ u[cell.row:cell.row + 2, :]
    if output_phases is not None:
        u = np.exp(1j * np.asarray(output_phases))[:, None] * u
    return u


# The Clements nulling as it stood before the per-cell loop was rewritten:
# numpy scalars throughout (`np.angle`, `np.sin`/`np.cos`/`np.exp`, the
# 2 x 2 blocks built and sliced per cell, `np.mod` reductions).

def mzi_transfer_numpy(theta: float, phi: float) -> np.ndarray:
    """Two-mode transfer matrix of one cell, from numpy scalar functions."""
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    pre = 1j * np.exp(1j * theta / 2.0)
    ephi = np.exp(1j * phi)
    return pre * np.array([[ephi * s, c], [ephi * c, -s]], dtype=np.complex128)


def haar_unitary_numpy(m: int, rng) -> np.ndarray:
    """Haar unitary from the next two (m, m) normal draws of ``rng``: QR of
    the complex Ginibre matrix, columns rephased by the diagonal of R."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _null_from_right(u: np.ndarray, row: int, col: int) -> tuple[float, float]:
    """Angles so that (u @ T(theta, phi)^dagger)[row, col] vanishes."""
    a, b = u[row, col], u[row, col + 1]
    if abs(a) < 1e-300:
        return np.pi, 0.0
    z = -b / a
    phi = float(-np.angle(z)) if abs(z) > 0 else 0.0
    return 2.0 * np.arctan(abs(z)), phi


def _null_from_left(u: np.ndarray, row: int, col: int) -> tuple[float, float]:
    """Angles so that (T(theta, phi) @ u)[row, col] vanishes (T on rows row-1, row)."""
    a, b = u[row - 1, col], u[row, col]
    if abs(b) < 1e-300:
        return np.pi, 0.0
    theta = 2.0 * np.arctan2(abs(a), abs(b))
    phi = float(np.angle(b) - np.angle(a)) if abs(a) > 0 else 0.0
    return theta, phi


def decompose_reference(u: np.ndarray):
    """(rows, cols, theta, phi, output phases) of the rectangular decomposition
    of the unitary ``u``, cells in nulling order and angles reduced by
    ``np.mod`` to [0, 2 pi). ``u`` is taken as unitary (unchecked)."""
    u = np.asarray(u, dtype=np.complex128)
    m = u.shape[0]
    work = u.copy()
    right_ops: list[tuple[int, float, float]] = []  # (top mode, theta, phi)
    left_ops: list[tuple[int, float, float]] = []
    for diag in range(1, m):
        if diag % 2 == 1:
            for j in range(diag):
                row, col = m - 1 - j, diag - 1 - j
                theta, phi = _null_from_right(work, row, col)
                block = mzi_transfer_numpy(theta, phi).conj().T
                work[:, col:col + 2] = work[:, col:col + 2] @ block
                right_ops.append((col, theta, phi))
        else:
            for j in range(1, diag + 1):
                row, col = m + j - diag - 1, j - 1
                theta, phi = _null_from_left(work, row, col)
                block = mzi_transfer_numpy(theta, phi)
                work[row - 1:row + 1, :] = block @ work[row - 1:row + 1, :]
                left_ops.append((row - 1, theta, phi))

    phases = np.diag(work).copy()
    physical: list[tuple[int, float, float]] = list(right_ops)
    for mode, theta, phi in reversed(left_ops):
        d1, d2 = phases[mode], phases[mode + 1]
        phi_new = float(np.angle(d1 * np.conj(d2)))
        phases[mode] = -np.exp(-1j * (theta + phi)) * d2
        phases[mode + 1] = -np.exp(-1j * theta) * d2
        physical.append((mode, theta, phi_new))

    # each cell takes the first column after the cells already on its modes
    avail = [0] * m
    rows, cols = [], []
    for mode, _, _ in physical:
        col = max(avail[mode], avail[mode + 1])
        avail[mode] = avail[mode + 1] = col + 1
        rows.append(mode)
        cols.append(col)
    two_pi = 2.0 * np.pi
    return (np.array(rows), np.array(cols),
            np.array([float(np.mod(theta, two_pi)) for _, theta, _ in physical]),
            np.array([float(np.mod(phi, two_pi)) for _, _, phi in physical]),
            np.array([float(np.mod(float(np.angle(p)), two_pi)) for p in phases]))


def chain_amplitudes(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Hyperspherical chain state, level by level: amplitude k is the running
    product of sines times cos(t_k) e^{i p_{k-1}}; the last level takes the
    full product of sines and the last phase."""
    d = len(thetas) + 1
    amps = np.zeros(d, dtype=np.complex128)
    prefix = 1.0
    for k in range(d - 1):
        amps[k] = prefix * np.cos(thetas[k]) * (np.exp(1j * phis[k - 1]) if k >= 1 else 1.0)
        prefix *= np.sin(thetas[k])
    amps[d - 1] = prefix * np.exp(1j * phis[d - 2])
    return amps


def ordered_functional(weights, prep, meas) -> float:
    """Sum of w |<meas_j|prep_i>|^2 over the edges (i, j) of ``weights``,
    one explicit inner product per edge."""
    total = 0.0
    for (i, j), w in weights.items():
        z = sum(np.conj(b) * a for a, b in zip(prep[i], meas[j]))
        total += w * abs(z) ** 2
    return float(total)


def hn_weight_matrix(n: int) -> np.ndarray:
    """h_n's coefficients as a sign matrix: -1 off the diagonal, then +1
    on row and column 0, and 0 on the diagonal."""
    w = -np.ones((n, n))
    w[0, :] = w[:, 0] = 1.0
    np.fill_diagonal(w, 0.0)
    return w


def full_batch_ascent(weights: np.ndarray, psi: np.ndarray, max_iter: int = 4000, grad_tol: float = 1e-9):
    """Multi-start sphere ascent that advances every restart on every pass.

    ``psi`` is the (restarts, n, d) starting batch. Each pass recomputes
    every restart's Gram matrix and gradient and masks the update of the
    stationary ones; nothing leaves the batch and no Gram matrix is kept
    between passes. When ``weights`` are h_n's and d >= 2, the loop also
    ends after the first pass that brings a restart within 1e-12 of
    `quadratic_optimum`, and such a restart counts as stationary. Returns
    the best restart's normalized rows, whether it was stationary, the
    number of ascent steps, the number of stationary restarts, and whether
    ``max_iter`` ran out first.
    """
    def objective(batch):
        gram = batch @ batch.conj().transpose(0, 2, 1)
        return 0.5 * np.einsum("ij,bij->b", weights, gram.real**2 + gram.imag**2)

    psi = psi.copy()
    restarts, n, d = psi.shape
    known = d >= 2 and np.array_equal(weights, hn_weight_matrix(n))
    target = quadratic_optimum(n, d) - 1e-12 if known else np.inf
    step = np.full(restarts, 0.25)
    f = objective(psi)
    grad_ok = np.zeros(restarts, dtype=bool)
    steps_taken, ran_out = 0, True
    for _ in range(max_iter):
        gram = psi @ psi.conj().transpose(0, 2, 1)
        grad = (weights * gram) @ psi
        radial = np.sum(psi.conj() * grad, axis=2, keepdims=True)
        tangent = grad - radial * psi
        gnorm_sq = np.sum(tangent.real**2 + tangent.imag**2, axis=(1, 2))
        grad_ok = gnorm_sq <= grad_tol**2
        active = ~grad_ok & (step > 1e-15)
        if not np.any(active):
            ran_out = False
            break
        trial = psi + step[:, None, None] * tangent
        trial /= np.linalg.norm(trial, axis=2, keepdims=True)
        f_trial = objective(trial)
        accept = active & (f_trial > f + 1e-4 * step * gnorm_sq)
        psi[accept] = trial[accept]
        f[accept] = f_trial[accept]
        step[accept] = np.minimum(step[accept] * 1.3, 10.0)
        shrink = active & ~accept
        step[shrink] *= 0.5
        steps_taken += 1
        if np.any(f >= target):
            ran_out = False
            break
    best = int(np.argmax(f))
    rows = np.array([psi[best, i] / np.linalg.norm(psi[best, i]) for i in range(psi.shape[1])])
    stationary = grad_ok | (step <= 1e-15) | (f >= target)
    return rows, bool(stationary[best]), steps_taken, int(np.sum(stationary)), ran_out


def haar_values_full_chunk(spec, d: int, num_sets: int, seed: int, chunk_size: int = 4096) -> np.ndarray:
    """Haar-sampling values built a whole chunk at a time.

    Per seed-split chunk: every state of the chunk drawn at once by
    `haar_random_pure_batch`, one Gram stack, one objective call, and the
    chunks concatenated. The library streams each chunk through blocks and
    must reproduce these values bitwise.
    """
    from overlapkit.optimize import _gram, _gram_objective
    from overlapkit.states import haar_random_pure_batch, split_seeds

    w = spec.weight_matrix()
    counts = [chunk_size] * (num_sets // chunk_size)
    if num_sets % chunk_size:
        counts.append(num_sets % chunk_size)
    parts = []
    for count, ss in zip(counts, split_seeds(seed, len(counts))):
        psi = haar_random_pure_batch(count, spec.n, d, np.random.Generator(np.random.PCG64(ss)))
        parts.append(_gram_objective(w, _gram(psi)))
    return np.concatenate(parts)


# The preparation circuits as numpy scalar expressions (np.sin, np.cos,
# np.exp(1j * p) per amplitude); the library computes the same products
# with `math` on Python floats.

def qutrit_amplitudes(theta1, theta2, phi1, phi2) -> np.ndarray:
    t1, t2 = float(theta1), float(theta2)
    return np.array([
        np.cos(t1),
        np.sin(t1) * np.cos(t2) * np.exp(1j * phi1),
        np.sin(t1) * np.sin(t2) * np.exp(1j * phi2),
    ], dtype=np.complex128)


def ququart_amplitudes(theta1, theta2, theta3, phi1, phi2, phi3) -> np.ndarray:
    t1, t2, t3 = float(theta1), float(theta2), float(theta3)
    return np.array([
        np.cos(t2) * np.cos(t1),
        np.sin(t2) * np.cos(t1) * np.exp(1j * phi1),
        np.sin(t1) * np.cos(t3) * np.exp(1j * phi2),
        np.sin(t1) * np.sin(t3) * np.exp(1j * phi3),
    ], dtype=np.complex128)


def five_mode_amplitudes(theta1, theta2, theta3, theta4, phi1, phi2, phi3) -> np.ndarray:
    t1, t2, t3, t4 = float(theta1), float(theta2), float(theta3), float(theta4)
    return np.array([
        np.sin(t1) * np.cos(t2) * np.sin(t4),
        np.sin(t1) * np.cos(t2) * np.cos(t4),
        np.sin(t1) * np.sin(t2) * np.exp(1j * phi1),
        np.cos(t1) * np.sin(t3) * np.exp(1j * phi2),
        np.cos(t1) * np.cos(t3) * np.exp(1j * phi3),
    ], dtype=np.complex128)


def family_value_and_grad(weights: np.ndarray, family, params_per_state: int, step: float = 1e-8):
    """Value and forward-difference family gradient of a functional, one
    probe at a time: the base rows first, then every row moved by each
    unit step in turn (``r + s``), two separate comprehensions."""
    steps = step * np.eye(params_per_state)

    def value_and_grad(flat: np.ndarray):
        rows = flat.reshape(len(weights), params_per_state)
        amps = np.array([family(r).amplitudes for r in rows])
        shifted = np.array([[family(r + s).amplitudes for s in steps] for r in rows])
        jac = (shifted - amps[:, None, :]) / step
        gram = amps @ amps.conj().T
        value = 0.5 * float(np.sum(weights * (gram.real**2 + gram.imag**2)))
        g = (weights * gram) @ amps
        grad = 2.0 * np.einsum("ka,kta->kt", g.conj(), jac).real
        return value, grad.ravel()

    return value_and_grad


# The calibration fit as it stood before the factored scan and the
# closed-form-Jacobian Levenberg-Marquardt: a dense 4000-frequency table of
# exponentials, then scipy's finite-difference `curve_fit` from that start.

def dense_demodulation_init(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Initial (theta0, alpha) for y ~ cos(theta0 + alpha x).

    Scans the demodulated response z(a) = mean(y exp(-i a x)) over positive
    frequencies up to the sampling limit; the peak sits at the true alpha
    with phase theta0. Robust to the arccos fold ambiguity and to noise,
    unlike pointwise phase unwrapping.
    """
    x_span = float(x[-1] - x[0])
    dx = float(np.max(np.diff(x))) if x.size > 1 else 1.0
    a_lo = 0.2 * 2.0 * np.pi / max(x_span, 1e-12)
    a_hi = np.pi / max(dx, 1e-12)
    alphas = np.linspace(a_lo, a_hi, 4000)
    z = (y[None, :] * np.exp(-1j * alphas[:, None] * x[None, :])).mean(axis=1)
    k = int(np.argmax(np.abs(z)))
    return float(np.angle(z[k])), float(alphas[k])


def dense_demodulation_peak(x: np.ndarray, y: np.ndarray) -> float:
    """Largest modulus of the dense scan of `dense_demodulation_init`."""
    x_span = float(x[-1] - x[0])
    dx = float(np.max(np.diff(x))) if x.size > 1 else 1.0
    a_lo = 0.2 * 2.0 * np.pi / max(x_span, 1e-12)
    a_hi = np.pi / max(dx, 1e-12)
    alphas = np.linspace(a_lo, a_hi, 4000)
    z = (y[None, :] * np.exp(-1j * alphas[:, None] * x[None, :])).mean(axis=1)
    return float(np.max(np.abs(z)))


def power_model_of_current(i: np.ndarray, theta0: float, alpha: float, beta: float) -> np.ndarray:
    return (1.0 + np.cos(theta0 + alpha * i**2 * (1.0 + beta * i**2))) / 2.0


def curve_fit_single_heater(currents: np.ndarray, powers: np.ndarray) -> tuple[float, float, float, float]:
    """Staged fit of one heater's (theta0, alpha, beta) from a power sweep.

    Demodulation in the I^2 coordinate initializes (theta0, alpha) with
    beta = 0; a least-squares pass on the power curve then refines all
    three. Coverage is judged from the fitted model, not the raw sweep.
    """
    from scipy.optimize import curve_fit  # loaded on first use, off the import path

    from overlapkit.mesh import CalibrationCoverageError

    if currents.size < 8:
        raise CalibrationCoverageError(
            f"need at least 8 sweep points per heater, got {currents.size}")
    order = np.argsort(currents)
    i_s, p_s = currents[order], np.clip(powers[order], 0.0, 1.0)
    x = i_s**2
    theta0_0, alpha_0 = dense_demodulation_init(x, 2.0 * p_s - 1.0)
    try:
        popt, _ = curve_fit(power_model_of_current, i_s, p_s,
                            p0=[theta0_0, alpha_0, 0.0], maxfev=20000)
        theta0_f, alpha_f, beta_f = (float(v) for v in popt)
    except RuntimeError:
        theta0_f, alpha_f, beta_f = theta0_0, alpha_0, 0.0
    if alpha_f < 0.0:
        # the power curve cannot tell (theta0, alpha) from (-theta0, -alpha);
        # heating only ever adds phase, so pin the positive branch
        theta0_f, alpha_f = -theta0_f, -alpha_f
    residual = float(np.sqrt(np.mean((power_model_of_current(i_s, theta0_f, alpha_f, beta_f) - p_s) ** 2)))
    span = abs(alpha_f) * float(x[-1]) * abs(1.0 + beta_f * float(x[-1]))
    if span < 2.0 * np.pi:
        raise CalibrationCoverageError(
            f"sweep induces only {span:.3f} rad of phase; need at least 2*pi "
            "to identify the response")
    return float(np.mod(theta0_f, 2.0 * np.pi)), alpha_f, beta_f, residual


# The family fit as it stood before the in-house L-BFGS ascent: multi-start
# scipy L-BFGS-B, fed by the one-probe-at-a-time gradient above (bitwise the
# library's), at scipy's default stop rules.

def scipy_family_fit(spec, family, params_per_state: int, restarts: int = 20, seed: int = 0):
    from scipy.optimize import minimize  # loaded on first use, off the import path

    from overlapkit.states import make_rng

    rng = make_rng(seed)
    n = spec.n
    value_and_grad = family_value_and_grad(spec.weight_matrix(), family, params_per_state)

    def negated(flat: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = value_and_grad(flat)
        return -value, -grad

    best_val, best_x = -np.inf, None
    for _ in range(restarts):
        x0 = rng.uniform(0.0, 2.0 * np.pi, n * params_per_state)
        res = minimize(negated, x0, jac=True, method="L-BFGS-B")
        if -res.fun > best_val:
            best_val, best_x = -float(res.fun), res.x.copy()
    return best_x.reshape(n, params_per_state), best_val
