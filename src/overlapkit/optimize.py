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

from .inequalities import InequalitySpec, evaluate_states, hn_order, make_hn
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
    "thresholds_for",
    "uniform_pure_ensemble",
]

THREADS_ENV = "OVERLAPKIT_THREADS"


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


# An h_n ascent stops once a restart comes this close to the closed-form
# optimum. The float objective of an exact maximizer sits a few ulps
# (~1e-15) from `_optimal_mean`, so the gap is reachable, and it stays
# well below the 1e-9 to which every maximum in this package is checked.
_CERTIFIED_GAP = 1e-12


@dataclass(frozen=True)
class MaximizationResult:
    """Best local maximum found over pure-state tuples.

    ``converged`` says whether the best restart was stationary, or
    certified, when the ascent stopped; a restart is certified when its
    value comes within ``_CERTIFIED_GAP`` of the known h_n optimum. The
    diagnostics describe the whole run: ``iterations`` counts ascent
    steps, ``restarts_converged`` the stationary or certified restarts,
    and ``hit_max_iter`` is True when the ascent stopped after ``max_iter``
    steps with restarts still moving and none certified. They are not
    serialized.
    """

    value: float
    states: tuple[PureState, ...]
    restarts_used: int
    converged: bool
    iterations: int
    restarts_converged: int
    hit_max_iter: bool


@dataclass(frozen=True)
class SdpResult:
    """Optimum of the quadratic program over the spectrahedron.

    The optimum is diagonal in the computational basis; ``spectrum`` holds
    that diagonal (read-only), and ``x_star`` builds the density matrix from
    it, through the validating constructor, each time it is read.
    """

    value: float
    spectrum: np.ndarray

    @property
    def x_star(self) -> DensityMatrix:
        return DensityMatrix(np.diag(self.spectrum).astype(np.complex128))


@dataclass(frozen=True)
class SamplingReport:
    """Functional values over uniformly sampled state tuples."""

    n: int
    d: int
    values: np.ndarray
    violation_count: int

    @property
    def num_sets(self) -> int:
        return self.values.size

    @property
    def max_value(self) -> float:
        return float(self.values.max())


def _gram(psi: np.ndarray) -> np.ndarray:
    """Gram matrix per batch item of psi, shape (batch, n, d):
    gram[b, i, j] = <psi_j|psi_i>."""
    return psi @ psi.conj().transpose(0, 2, 1)


def _gram_objective(weights: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Functional value per batch item from its Gram matrix."""
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
    with a step-halving line search per restart. The live restarts advance
    together as one batched computation. A restart that turns stationary
    (gradient test passed, or step at the float floor) never moves again,
    so it leaves the batch; the Gram matrix of an accepted trial is kept
    for the next gradient. Every restart follows the same floating-point
    path as in a batch of all restarts. Deterministic for a fixed seed;
    ties between restarts go to the first (seed-ordered) tuple.

    When the spec is h_n (`inequalities.hn_order`) and d >= 2, the optimum is
    known in closed form (`_optimal_mean`, as `thresholds_for` gives it),
    and the ascent ends after the first step at which a restart's value
    comes within ``_CERTIFIED_GAP`` of it: no restart can do better than
    the bound, so further steps only polish a degenerate maximizer set.
    Every other functional, and d = 1, runs until each restart is
    stationary or ``max_iter`` steps are spent.

    The returned value is recomputed through `evaluate_states`, so it is a
    certified lower bound on the true maximum.
    """
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    if restarts < 1:
        raise ValidationError("need at least one restart")
    if max_iter < 0:
        raise ValidationError("max_iter must be non-negative")
    if not grad_tol >= 0:  # also rejects NaN
        raise ValidationError("grad_tol must be a non-negative number")
    rng = make_rng(seed)
    n = spec.n
    w = spec.weight_matrix()
    # only an h_n run has a known optimum to stop at
    hn = d >= 2 and hn_order(spec) is not None
    stop_at = _optimal_mean(n, min(d, n - 1))[1] - _CERTIFIED_GAP if hn else np.inf
    # full per-restart arrays; a restart's row is final once it retires
    psi_all = haar_random_pure_batch(restarts, n, d, rng)
    step_all = np.full(restarts, 0.25)
    grad_ok_all = np.zeros(restarts, dtype=bool)
    # the live sub-batch, in seed order: restart indices and their state
    live = np.arange(restarts)
    psi, step = psi_all.copy(), step_all.copy()
    gram = _gram(psi)
    f_all = _gram_objective(w, gram)
    f = f_all.copy()
    iterations = 0

    for _ in range(max_iter):
        # gram[b, i, j] = <psi_j|psi_i>, so the ascent direction for state i
        # is sum_j w_ij gram[i, j] psi_j
        grad = (w * gram) @ psi
        # project out the radial (and global-phase) component per state
        radial = (psi.conj() * grad).sum(axis=2, keepdims=True)
        tangent = grad - radial * psi
        gnorm_sq = (tangent.real**2 + tangent.imag**2).sum(axis=(1, 2))
        grad_ok = gnorm_sq <= grad_tol**2
        active = ~grad_ok & (step > 1e-15)
        if np.count_nonzero(active) < live.size:
            # a stationary restart never moves again: file it and drop it
            done, retired = ~active, live[~active]
            psi_all[retired], f_all[retired] = psi[done], f[done]
            step_all[retired], grad_ok_all[retired] = step[done], grad_ok[done]
            live = live[active]
            psi, gram, f, step = psi[active], gram[active], f[active], step[active]
            if live.size == 0:
                break
            tangent, gnorm_sq = tangent[active], gnorm_sq[active]
        trial = psi + step[:, None, None] * tangent
        # the arithmetic of np.linalg.norm(trial, axis=2), minus its argument handling
        trial /= np.sqrt(np.add.reduce((trial.conj() * trial).real, axis=2, keepdims=True))
        gram_trial = _gram(trial)
        f_trial = _gram_objective(w, gram_trial)
        # Armijo, strict: equal-value drift steps must not keep a restart
        # alive, or stalls at float resolution never register
        accept = f_trial > f + 1e-4 * step * gnorm_sq
        np.copyto(psi, trial, where=accept[:, None, None])
        np.copyto(gram, gram_trial, where=accept[:, None, None])
        np.copyto(f, f_trial, where=accept)
        # grow an accepted step, halve a rejected one; a halved step is
        # below the cap of 10 already
        step *= np.where(accept, 1.3, 0.5)
        np.minimum(step, 10.0, out=step)
        iterations += 1
        if f.max() >= stop_at:
            break

    # restarts still live when the ascent stopped keep their last state
    psi_all[live], f_all[live], step_all[live] = psi, f, step
    best = int(np.argmax(f_all))
    states = tuple(PureState(psi_all[best, i] / np.linalg.norm(psi_all[best, i])) for i in range(n))
    value = evaluate_states(spec, states)
    # a step driven to the float floor means the line search cannot improve
    # a stationary point at working precision
    certified = f_all >= stop_at
    stationary = grad_ok_all | (step_all <= 1e-15) | certified
    return MaximizationResult(
        value=value,
        states=states,
        restarts_used=restarts,
        converged=bool(stationary[best]),
        iterations=iterations,
        restarts_converged=int(np.sum(stationary)),
        hit_max_iter=bool(live.size) and not certified.any(),
    )


def _optimal_mean(n: int, d: int) -> tuple[np.ndarray, float]:
    """Spectrum and value of the h_n quadratic optimum at dimension d.

    The objective ``-((n-1)^2/2) Tr(X^2) + (n-1) <0|X|0> + (n-1)/2`` is
    ``-(L/2)||X - |0><0|/(n-1)||^2 + const`` with L = (n-1)^2, so its
    maximizer over d x d density matrices is the simplex projection of
    ``(1/(n-1), 0, ..., 0)``: ``(x, (1-x)/(d-1), ...)`` with
    ``x = (n+d-2)/(d(n-1))``. Valid for 2 <= d <= n-1.

    Substituting that spectrum, the value simplifies to
    ``(d - 1 + (n-1)(d+3-n)) / (2d)``: an integer over an integer, so one
    division gives it correctly rounded at every n (summing the terms in
    floats drifts by up to 1.6e-12 near n = 4000, where they reach n/2).
    """
    x = (n + d - 2) / (d * (n - 1))
    lam = np.full(d, (1.0 - x) / (d - 1))
    lam[0] = x
    return lam, (d - 1 + (n - 1) * (d + 3 - n)) / (2 * d)


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
    lam.setflags(write=False)
    return SdpResult(value=value, spectrum=lam)


# Sets per block of a Haar chunk. A block's complex temporaries (states,
# Gram stack, |G|^2) stay cache-sized; the values do not depend on it,
# since every step below acts on each set alone.
_HAAR_BLOCK = 256


def _haar_chunk(spec_w: np.ndarray, n: int, d: int, out: np.ndarray, ss: np.random.SeedSequence) -> None:
    """Write the functional values of ``out.size`` Haar tuples into ``out``.

    Draws the stream of `haar_random_pure_batch` (every real part, then
    every imaginary part) but builds the states one block at a time, with
    bitwise the same arithmetic: assigning ``.real``/``.imag`` equals
    ``re + 1j*im``, and multiplying by the reciprocal norm equals numpy's
    complex-by-real division.
    """
    rng = np.random.Generator(np.random.PCG64(ss))
    count = out.size
    re = rng.standard_normal((count, n, d))
    z = np.empty((min(count, _HAAR_BLOCK), n, d), dtype=np.complex128)
    for start in range(0, count, _HAAR_BLOCK):
        stop = min(start + _HAAR_BLOCK, count)
        zb = z[: stop - start]
        zb.real = re[start:stop]
        zb.imag = rng.standard_normal(zb.shape)
        zb *= 1.0 / np.linalg.norm(zb, axis=2, keepdims=True)
        out[start:stop] = _gram_objective(spec_w, _gram(zb))


def haar_experiment(
    spec: InequalitySpec,
    d: int,
    num_sets: int,
    seed: int = 0,
    chunk_size: int = 4096,
) -> SamplingReport:
    """Evaluate the functional on ``num_sets`` Haar-random state tuples.

    Work is split into chunks of ``chunk_size`` sets, each with its own
    child stream spawned from the seed, so results are bit-identical no
    matter how many worker threads run them (set ``OVERLAPKIT_THREADS`` to
    parallelize); ``chunk_size`` therefore fixes the values. Each chunk
    draws its real parts at once, then walks its sets in blocks of
    ``_HAAR_BLOCK``, drawing the imaginary parts block by block in the same
    stream order, and writes into one preallocated ``values`` array. The
    values are bitwise those of drawing the whole chunk with
    `haar_random_pure_batch` and evaluating it in one batch. Besides
    ``values``, a worker holds about one chunk of real parts
    (``chunk_size * n * d`` floats) plus one block of complex temporaries.
    ``violation_count`` counts values strictly above the classical bound.
    """
    if num_sets < 1:
        raise ValidationError("need at least one sample set")
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    if chunk_size < 1:
        raise ValidationError("chunk_size must be at least 1")
    w = spec.weight_matrix()
    starts = range(0, num_sets, chunk_size)
    seeds = split_seeds(seed, len(starts))
    values = np.empty(num_sets)
    jobs = [(values[start:start + chunk_size], ss) for start, ss in zip(starts, seeds)]
    threads = _thread_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda job: _haar_chunk(w, spec.n, d, *job), jobs))
    else:
        for out, ss in jobs:
            _haar_chunk(w, spec.n, d, out, ss)
    values.setflags(write=False)
    return SamplingReport(
        n=spec.n,
        d=d,
        values=values,
        violation_count=int(np.sum(values > spec.classical_bound)),
    )


# Largest gap between the ascent and the quadratic bound at which a
# threshold cell reports that the two agree.
_AGREE_TOL = 1e-3


@dataclass(frozen=True)
class ThresholdCell:
    """One (n, d) cell of the dimension-threshold table.

    ``max_value`` is the quadratic bound when there is one, else the
    ascent value; ``method`` names the routes that ran, and ``agree`` is
    None unless both did.
    """

    n: int
    d: int
    lower_bound: float | None
    upper_bound: float | None

    @property
    def max_value(self) -> float:
        return self.lower_bound if self.upper_bound is None else self.upper_bound

    @property
    def method(self) -> str:
        if self.upper_bound is None:
            return "ascent"
        return "quadratic-bound" if self.lower_bound is None else "both"

    @property
    def agree(self) -> bool | None:
        if self.lower_bound is None or self.upper_bound is None:
            return None
        return bool(abs(self.lower_bound - self.upper_bound) <= _AGREE_TOL)


def dimension_thresholds(
    n_max: int,
    d_max: int | None = None,
    restarts: int = 200,
    seed: int = 0,
) -> list[ThresholdCell]:
    """Per-(n, d) maxima of h_n, combining ascent and the quadratic bound.

    The ascent path runs for n <= 12 (it returns explicit states); the
    quadratic bound runs wherever defined (n >= 4). Each cell records which
    method produced it and whether the two agree within 1e-3. For
    d >= n the maximum is constant in d, so those cells reuse the d = n-1
    ascent and bound. This is the cross-check table; `thresholds_for`
    gives the maxima alone without running any ascent.
    """
    if not 3 <= n_max:
        raise ValidationError("n_max must be at least 3")
    if d_max is not None and d_max < 2:
        raise ValidationError("d_max must be at least 2")
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
            cells.append(ThresholdCell(n=n, d=d, lower_bound=lower, upper_bound=upper))
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
    scaled = np.sqrt(m) * (cols * np.sqrt(lam))
    out = []
    # one matrix-vector product per state: a single matrix product rounds
    # differently in the last bits
    for k in range(m):
        v = scaled @ fourier[:, k]
        out.append(PureState(v / np.linalg.norm(v)))
    return out
