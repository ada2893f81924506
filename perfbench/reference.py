"""Independent computations the benchmark checks the program against.

Everything here is derived from the definitions and closed forms, with
plain numpy, and never calls into `overlapkit`. None of it is a stored
copy of program output.
"""

from __future__ import annotations

import numpy as np


def hn_optimum(n: int, d: int) -> float:
    """Closed-form maximum of h_n over d-dimensional states.

    The quadratic ``-(n-1)^2/2 Tr X^2 + (n-1) x + (n-1)/2`` is maximized by
    the mean projector X with top entry ``x = (n+d-2)/(d(n-1))`` and the
    remaining weight spread evenly; for d >= n-1 it is constant in d.
    """
    d = min(d, n - 1)
    x = (n + d - 2) / (d * (n - 1))
    tr_x2 = x * x + (1.0 - x) ** 2 / (d - 1)
    return -((n - 1) ** 2) / 2.0 * tr_x2 + (n - 1) * x + (n - 1) / 2.0


def gram_abs2(vectors: np.ndarray) -> np.ndarray:
    """|<v_i|v_j>|^2 for the rows of ``vectors``."""
    g = vectors.conj() @ vectors.T
    return g.real**2 + g.imag**2


def hn_value(vectors: np.ndarray) -> float:
    """h_n straight from its definition: star edges minus all other edges."""
    r = gram_abs2(np.asarray(vectors))
    n = r.shape[0]
    star = sum(r[0, k] for k in range(1, n))
    rest = sum(r[i, j] for i in range(1, n) for j in range(i + 1, n))
    return float(star - rest)


def weighted_value(weights: dict, r: np.ndarray) -> float:
    return float(sum(w * r[i, j] for (i, j), w in weights.items()))


# the pentagon functional: +1 on the 5-cycle, -1 on its diagonals
HMZI_PLUS = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
HMZI_MINUS = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
HMZI_WEIGHTS = {**{e: 1.0 for e in HMZI_PLUS}, **{e: -1.0 for e in HMZI_MINUS}}
HN4_WEIGHTS = {(i, j): (1.0 if i == 0 else -1.0) for i in range(4) for j in range(i + 1, 4)}


def star_ensemble(n: int, d: int) -> np.ndarray:
    """Exact d-dimensional maximizer of h_n, as an (n, d) array of rows.

    Reference |0> plus n-1 Fourier-phased vectors with squared moduli
    (x, (1-x)/(d-1), ...); their mean projector is diagonal because the
    phases e^{2 pi i j k/(n-1)} average to zero for distinct j < d <= n-1.
    """
    m = n - 1
    x = (n + d - 2) / (d * m)
    lam = np.full(d, (1.0 - x) / (d - 1))
    lam[0] = x
    k = np.arange(m)[:, None]
    j = np.arange(d)[None, :]
    rows = np.sqrt(lam)[None, :] * np.exp(2j * np.pi * j * k / m)
    ref = np.zeros((1, d), dtype=np.complex128)
    ref[0, 0] = 1.0
    return np.vstack([ref, rows])


def haar_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# --- interrogation ----------------------------------------------------------

def depolarized(q: float, nu: float) -> float:
    """Overlap of two depolarized qubit preparations with pure overlap q."""
    a = (1.0 - nu) ** 2
    return a * q + (1.0 - a) / 2.0


def eta_quantum(theta: float, nu: float) -> float:
    big_q = depolarized(np.cos(theta) ** 2, nu)
    return big_q / (big_q + 1.0)


def eta_noncontextual(theta: float, nu: float) -> float:
    a = (1.0 - nu) ** 2
    eps = (1.0 - a) / 2.0
    q0 = depolarized(np.cos(theta) ** 2, nu)
    q2 = depolarized(np.cos(2.0 * theta) ** 2, nu)
    return (1.0 + 3.0 * eps - q0 + q2) / (q0 + 1.0)


def crossover(theta: float) -> float:
    """Exact root of the efficiency gap: (1-nu)^2 = 2/(2cos^2 t - cos^2 2t + 1)."""
    c1 = np.cos(theta) ** 2
    c2 = np.cos(2.0 * theta) ** 2
    return float(1.0 - np.sqrt(2.0 / (2.0 * c1 - c2 + 1.0)))


def qubit_density(theta: float, nu: float) -> np.ndarray:
    v = np.array([np.cos(theta), np.sin(theta)], dtype=np.complex128)
    return (1.0 - nu) * np.outer(v, v.conj()) + nu * np.eye(2) / 2.0


def hexagon_densities(theta: float, nu: float) -> list[np.ndarray]:
    angles = (0.0, theta, -theta, np.pi / 2, theta + np.pi / 2, -theta + np.pi / 2)
    return [qubit_density(a, nu) for a in angles]


def h3_robust_value(theta: float, nu: float) -> float:
    rho = hexagon_densities(theta, nu)
    r = lambda i, j: float(np.trace(rho[i] @ rho[j]).real)  # noqa: E731
    return r(0, 1) + r(0, 2) - r(1, 2) - r(0, 3) - r(1, 4) - r(2, 5)


# --- mesh ---------------------------------------------------------------------

def mesh_cell_transfer(theta: float, phi: float) -> np.ndarray:
    """Cell matrix as documented: i e^{i t/2} [[e^{i p} sin, cos], [e^{i p} cos, -sin]] of t/2."""
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    e = np.exp(1j * phi)
    return 1j * np.exp(1j * theta / 2.0) * np.array([[e * s, c], [e * c, -s]])


def mesh_unitary(config: dict) -> np.ndarray:
    m = config["modes"]
    u = np.eye(m, dtype=np.complex128)
    for cell in sorted(config["cells"], key=lambda c: (c["column"], c["row"])):
        r = cell["row"]
        u[r:r + 2, :] = mesh_cell_transfer(cell["theta"], cell["phi"]) @ u[r:r + 2, :]
    if config.get("output_phases") is not None:
        u = np.exp(1j * np.asarray(config["output_phases"]))[:, None] * u
    return u


def unitary_from_record(rec: dict) -> np.ndarray:
    dim = rec["dim"]
    return np.array([complex(a, b) for a, b in rec["entries"]]).reshape(dim, dim)


def chain_state(params: np.ndarray) -> np.ndarray:
    """Hyperspherical chain amplitudes: d-1 polar angles, then d-1 phases."""
    half = params.size // 2
    thetas, phis = params[:half], params[half:]
    d = half + 1
    amps = np.zeros(d, dtype=np.complex128)
    prefix = 1.0
    for k in range(d - 1):
        phase = np.exp(1j * phis[k - 1]) if k else 1.0
        amps[k] = prefix * np.cos(thetas[k]) * phase
        prefix *= np.sin(thetas[k])
    amps[d - 1] = prefix * np.exp(1j * phis[d - 2])
    return amps / np.linalg.norm(amps)


def dispersion_radius(weights: dict, params: list[np.ndarray], eps: float, delta: float) -> float:
    """Largest possible distance of a dispersion sample from the ideal value.

    Every chain-angle partial derivative of the amplitude vector has norm at
    most 1, so a state moves by at most L_i = sum_k (|a_k| eps + delta).
    Each overlap then moves by at most 2 (L_i + L_j).
    """
    lip = [float(np.sum(np.abs(p) * eps + delta)) for p in params]
    return sum(abs(w) * 2.0 * (lip[i] + lip[j]) for (i, j), w in weights.items())


def five_mode_state(p: np.ndarray) -> np.ndarray:
    """Amplitudes of the restricted five-mode family, from its definition."""
    t1, t2, t3, t4, p1, p2, p3 = p
    return np.array([
        np.sin(t1) * np.cos(t2) * np.sin(t4),
        np.sin(t1) * np.cos(t2) * np.cos(t4),
        np.sin(t1) * np.sin(t2) * np.exp(1j * p1),
        np.cos(t1) * np.sin(t3) * np.exp(1j * p2),
        np.cos(t1) * np.cos(t3) * np.exp(1j * p3),
    ])


def heater_powers(currents: np.ndarray, theta0: float, alpha: float, beta: float) -> np.ndarray:
    """Cross-port power (1 + cos theta)/2 of a cell driven by one heater."""
    return (1.0 + np.cos(theta0 + alpha * currents**2 * (1.0 + beta * currents**2))) / 2.0


def circular_distance(a: float, b: float) -> float:
    return float(abs((a - b + np.pi) % (2.0 * np.pi) - np.pi))


def count_tolerance(p: float, trials: int) -> float:
    """Five binomial standard deviations plus one count of rounding."""
    return 5.0 * float(np.sqrt(max(p * (1.0 - p), 0.0) / trials)) + 1.0 / trials
