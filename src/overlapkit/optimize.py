"""Maximization of inequality functionals, spectrahedron bounds, sampling.

Three routes to the maximum of an inequality functional at fixed dimension:

* `maximize_pure` - multi-start gradient ascent over tuples of pure states,
  a certified lower bound (every iterate is feasible).
* `sdp_upper_bound` - the concave quadratic program over density matrices
  whose optimum upper-bounds every pure-state realization; it has a
  closed-form solution, so no solver runs.
* `haar_experiment` - uniform sampling, for typicality rather than maxima.

`dimension_thresholds` combines the first two into a per-(n, d) table and
flags cells where they disagree; `thresholds_for` returns the closed-form
maxima alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .inequalities import InequalitySpec, evaluate_states, make_hn
from .states import (
    DensityMatrix,
    PureState,
    ValidationError,
    haar_random_pure_batch,
    make_rng,
    split_seeds,
)

__all__ = [
    "MaximizationResult",
    "SdpResult",
    "SamplingReport",
    "ThresholdCell",
    "maximize_pure",
    "sdp_upper_bound",
    "haar_experiment",
    "dimension_thresholds",
    "project_simplex",
    "project_density",
    "uniform_pure_ensemble",
]

THREADS_ENV = "OVERLAPKIT_THREADS"


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class MaximizationResult:
    """Best local maximum found over pure-state tuples."""

    value: float
    states: tuple[PureState, ...]
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class SdpResult:
    """Optimum of the quadratic program over the spectrahedron."""

    value: float
    x_star: DensityMatrix


@dataclass(frozen=True)
class SamplingReport:
    """Functional values over uniformly sampled state tuples."""

    n: int
    d: int
    num_sets: int
    values: np.ndarray
    max_value: float
    violation_count: int


def _batch_objective(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Functional value per batch item; psi has shape (batch, n, d)."""
    gram = psi @ psi.conj().transpose(0, 2, 1)
    return 0.5 * np.einsum("ij,bij->b", weights, gram.real**2 + gram.imag**2)


def maximize_pure(
    spec: InequalitySpec,
    d: int,
    restarts: int = 200,
    seed: int | np.random.Generator = 0,
    max_iter: int = 4000,
    grad_tol: float = 1e-9,
) -> MaximizationResult:
    """Multi-start gradient ascent over tuples of d-dimensional pure states.

    States are parameterized as unconstrained complex vectors normalized on
    evaluation; the ascent direction is the gradient of the smooth
    composite projected onto the tangent space of the product of spheres,
    with a step-halving line search per restart. All restarts advance
    simultaneously as one batched computation. Deterministic for a fixed
    seed; ties between restarts go to the first (seed-ordered) tuple.

    The returned value is recomputed through `evaluate_states`, so it is a
    certified lower bound on the true maximum.
    """
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    if restarts < 1:
        raise ValidationError("need at least one restart")
    rng = make_rng(seed)
    n = spec.n
    w = spec.weight_matrix()
    psi = haar_random_pure_batch(restarts, n, d, rng)
    step = np.full(restarts, 0.25)
    f = _batch_objective(w, psi)
    grad_ok = np.zeros(restarts, dtype=bool)

    for _ in range(max_iter):
        # gram[b, i, j] = <psi_j|psi_i>, so the ascent direction for state i
        # is sum_j w_ij gram[i, j] psi_j
        gram = psi @ psi.conj().transpose(0, 2, 1)
        grad = (w * gram) @ psi
        # project out the radial (and global-phase) component per state
        radial = np.sum(psi.conj() * grad, axis=2, keepdims=True)
        tangent = grad - radial * psi
        gnorm_sq = np.sum(tangent.real**2 + tangent.imag**2, axis=(1, 2))
        grad_ok = gnorm_sq <= grad_tol**2
        active = ~grad_ok & (step > 1e-15)
        if not np.any(active):
            break
        trial = psi + step[:, None, None] * tangent
        trial /= np.linalg.norm(trial, axis=2, keepdims=True)
        f_trial = _batch_objective(w, trial)
        # Armijo, strict: equal-value drift steps must not keep a restart
        # alive, or stalls at float resolution never register
        accept = active & (f_trial > f + 1e-4 * step * gnorm_sq)
        psi[accept] = trial[accept]
        f[accept] = f_trial[accept]
        step[accept] = np.minimum(step[accept] * 1.3, 10.0)
        shrink = active & ~accept
        step[shrink] *= 0.5

    best = int(np.argmax(f))
    states = tuple(PureState(psi[best, i] / np.linalg.norm(psi[best, i])) for i in range(n))
    value = evaluate_states(spec, states)
    # a step driven to the float floor means the line search cannot improve
    # a stationary point at working precision
    stationary = grad_ok | (step <= 1e-15)
    return MaximizationResult(
        value=value,
        states=states,
        restarts_used=restarts,
        converged=bool(stationary[best]),
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Sort-and-threshold: find the largest k with
    ``u_k + (1 - sum_{i<=k} u_i)/k > 0`` for the descending sort u, then
    shift and clip.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("expected a non-empty 1-d vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / ks > 0
    k = int(np.nonzero(cond)[0][-1]) + 1
    tau = (1.0 - css[k - 1]) / k
    return np.maximum(v + tau, 0.0)


def project_density(h: np.ndarray) -> DensityMatrix:
    """Frobenius-nearest density matrix to a Hermitian matrix.

    Diagonalize and project the eigenvalue vector onto the probability
    simplex; unitary invariance of the Frobenius norm makes this exact.
    """
    m = np.asarray(h, dtype=np.complex128)
    m = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    proj = project_simplex(vals)
    out = (vecs * proj) @ vecs.conj().T
    return DensityMatrix(out)


def _optimal_mean(n: int, d: int) -> tuple[np.ndarray, float]:
    """Spectrum and value of the h_n quadratic optimum at dimension d.

    The objective ``-((n-1)^2/2) Tr(X^2) + (n-1) <0|X|0> + (n-1)/2`` is
    ``-(L/2)||X - |0><0|/(n-1)||^2 + const`` with L = (n-1)^2, so its
    maximizer over d x d density matrices is the simplex projection of
    ``(1/(n-1), 0, ..., 0)``: ``(x, (1-x)/(d-1), ...)`` with
    ``x = (n+d-2)/(d(n-1))``. Valid for 2 <= d <= n-1.
    """
    x = (n + d - 2) / (d * (n - 1))
    lam = np.full(d, (1.0 - x) / (d - 1))
    lam[0] = x
    value = -((n - 1) ** 2) / 2.0 * float(np.sum(lam**2)) + (n - 1) * x + (n - 1) / 2.0
    return lam, value


def sdp_upper_bound(n: int, d: int) -> SdpResult:
    """Maximum of the h_n quadratic over d x d density matrices.

    Objective: ``-((n-1)^2/2) Tr(X^2) + (n-1) <0|X|0> + (n-1)/2``. Its
    Hessian is a multiple of the identity, so the maximizer is the
    Frobenius projection of the unconstrained optimum onto the
    spectrahedron, in closed form (`_optimal_mean`). The optimum
    upper-bounds every pure-state realization value of h_n at dimension
    d, and `mesh._star_ensemble_states` reaches it, so the bound is tight.
    """
    if n < 4:
        raise ValidationError("the quadratic bound is defined for n >= 4")
    if not 2 <= d <= n - 1:
        raise ValidationError(f"dimension must satisfy 2 <= d <= n-1, got d={d} for n={n}")
    lam, value = _optimal_mean(n, d)
    return SdpResult(value=value, x_star=DensityMatrix(np.diag(lam).astype(np.complex128)))


def _haar_chunk(spec_w: np.ndarray, n: int, d: int, count: int, ss: np.random.SeedSequence) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(ss))
    psi = haar_random_pure_batch(count, n, d, rng)
    return _batch_objective(spec_w, psi)


def haar_experiment(
    spec: InequalitySpec,
    d: int,
    num_sets: int,
    seed: int = 0,
    chunk_size: int = 4096,
) -> SamplingReport:
    """Evaluate the functional on ``num_sets`` Haar-random state tuples.

    Work is split into fixed-size chunks, each with its own child stream
    spawned from the seed, so results are bit-identical no matter how many
    worker threads run them (set ``OVERLAPKIT_THREADS`` to parallelize).
    ``violation_count`` counts values strictly above the classical bound.
    """
    if num_sets < 1:
        raise ValidationError("need at least one sample set")
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    w = spec.weight_matrix()
    counts = [chunk_size] * (num_sets // chunk_size)
    if num_sets % chunk_size:
        counts.append(num_sets % chunk_size)
    seeds = split_seeds(seed, len(counts))
    threads = _thread_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda args: _haar_chunk(w, spec.n, d, *args), zip(counts, seeds)))
    else:
        parts = [_haar_chunk(w, spec.n, d, c, s) for c, s in zip(counts, seeds)]
    values = np.concatenate(parts)
    values.setflags(write=False)
    return SamplingReport(
        n=spec.n,
        d=d,
        num_sets=num_sets,
        values=values,
        max_value=float(values.max()),
        violation_count=int(np.sum(values > spec.classical_bound)),
    )


@dataclass(frozen=True)
class ThresholdCell:
    """One (n, d) cell of the dimension-threshold table."""

    n: int
    d: int
    max_value: float
    method: str  # "ascent", "quadratic-bound", or "both"
    lower_bound: float | None
    upper_bound: float | None
    agree: bool | None  # lower/upper within 1e-3 when both present


def dimension_thresholds(
    n_max: int,
    d_max: int | None = None,
    restarts: int = 200,
    seed: int = 0,
    agree_tol: float = 1e-3,
) -> list[ThresholdCell]:
    """Per-(n, d) maxima of h_n, combining ascent and the quadratic bound.

    The ascent path runs for n <= 12 (it returns explicit states); the
    quadratic bound runs wherever defined (n >= 4). Each cell records which
    method produced it and whether the two agree within ``agree_tol``. For
    d >= n the maximum is constant in d, so those cells reuse the d = n-1
    ascent and bound. This is the cross-check table; `thresholds_for`
    gives the maxima alone without running any ascent.
    """
    if not 3 <= n_max:
        raise ValidationError("n_max must be at least 3")
    cells: list[ThresholdCell] = []
    rng = make_rng(seed)
    for n in range(3, n_max + 1):
        d_top = d_max if d_max is not None else n
        spec = make_hn(n)
        # cells with d >= n keep lower/upper from the d = n-1 pass
        lower = upper = None
        for d in range(2, d_top + 1):
            if n <= 12:
                # drawn for every cell so each d < n cell keeps its sub-seed
                sub = int(rng.integers(0, 2**63 - 1))
                if d < n:
                    lower = maximize_pure(spec, d, restarts=restarts, seed=sub).value
            if n >= 4 and d < n:
                upper = sdp_upper_bound(n, d).value
            if lower is not None and upper is not None:
                agree = bool(abs(lower - upper) <= agree_tol)
                value, method = upper, "both"
            elif upper is not None:
                agree, value, method = None, upper, "quadratic-bound"
            else:
                agree, value, method = None, lower, "ascent"
            cells.append(ThresholdCell(n=n, d=d, max_value=value, method=method,
                                       lower_bound=lower, upper_bound=upper, agree=agree))
    return cells


def thresholds_for(n: int) -> list[tuple[int, float]]:
    """(d, max_value) of h_n for d = 2..n, for `inequalities.classify`.

    Closed-form maxima of the quadratic bound, which is tight at every
    dimension (see `sdp_upper_bound`); for d >= n-1 the maximum is the
    d = n-1 value. No ascent runs.
    """
    if n < 3:
        raise ValidationError("h_n is defined for n >= 3")
    return [(d, _optimal_mean(n, min(d, n - 1))[1]) for d in range(2, n + 1)]


def uniform_pure_ensemble(rho: DensityMatrix, m: int) -> list[PureState]:
    """Decompose a density matrix into m equal-weight pure states.

    Works whenever m >= rank(rho): the uniform weight vector is majorized
    by any spectrum, and mixing the eigenvectors through a discrete Fourier
    matrix equalizes the norms. Satisfies
    ``(1/m) sum_k |psi_k><psi_k| == rho``.
    """
    vals, vecs = np.linalg.eigh(rho.entries)
    vals = np.clip(vals, 0.0, None)
    rank = int(np.sum(vals > 1e-14))
    if m < rank:
        raise ValidationError(f"need at least rank={rank} states, got m={m}")
    d = rho.dim
    lam = np.zeros(m)
    lam[:d] = vals[::-1]
    cols = np.zeros((d, m), dtype=np.complex128)
    cols[:, :d] = vecs[:, ::-1]
    fourier = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
    out = []
    for k in range(m):
        v = np.sqrt(m) * (cols * np.sqrt(lam)) @ fourier[:, k]
        out.append(PureState(v / np.linalg.norm(v)))
    return out
