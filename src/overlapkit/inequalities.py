"""Event-graph inequality functionals over pairwise state overlaps.

A set of n states defines a weighted complete graph: nodes are states, the
edge (i, j) carries the overlap r_ij = Tr(rho_i rho_j). Linear functionals
of the edge weights bound what incoherent (simultaneously diagonalizable)
state sets can reach; values above the classical bound witness
basis-independent coherence, and the maximal violation grows with Hilbert
space dimension, so the same functionals double as dimension indicators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .states import (
    _OVERLAP_RANGE,
    DensityMatrix,
    NumericalError,
    PureState,
    StateLike,
    ValidationError,
    _as_density_array,
)

__all__ = [
    "OverlapSet",
    "InequalitySpec",
    "WitnessVerdict",
    "edge_order",
    "make_hn",
    "hn_order",
    "make_h_mzi",
    "make_h3_robust",
    "evaluate",
    "evaluate_states",
    "hn_plus",
    "classify",
    "qubit_triple_max_eigenvalue",
    "qubit_h4_gap",
]

# relative margin within which a value counts as equal to a dimension
# threshold: an exact maximizer evaluates a few ulps off its own maximum
THRESHOLD_ROUNDING = 1e-12


def _is_finite_real(x) -> bool:
    """True for a finite real number; False for NaN, inf, complex or text."""
    if isinstance(x, (complex, np.complexfloating)):  # math.isfinite would drop the imaginary part
        return False
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):  # not real, or an int past the float range
        return False


def edge_order(n: int) -> list[tuple[int, int]]:
    """Canonical edge ordering: upper-triangular row-major (0,1), (0,2), ..."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@functools.lru_cache(maxsize=8)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``: the `edge_order` entries, row-major.

    A pair holds n(n-1) integers (about 134 MB at n = 4095), so only the
    eight sizes used last are kept.
    """
    iu = np.triu_indices(n, 1)
    for a in iu:
        a.setflags(write=False)
    return iu


@dataclass(frozen=True)
class OverlapSet:
    """Symmetric n x n matrix of pairwise overlaps with unit diagonal.

    Only the upper triangle is authoritative; the stored matrix mirrors it
    exactly, so ``r[i, j] == r[j, i]`` bitwise. The diagonal is fixed to 1
    by convention (the graph has no self-edges and no functional reads it).
    """

    n: int
    r: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("an overlap set needs at least 2 nodes")
        m = np.asarray(self.r, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValidationError(f"overlap matrix must be {self.n}x{self.n}")
        iu = _upper_indices(self.n)
        up = m[iu]  # a copy; the diagonal and lower triangle are never read
        if not np.all((up >= -_OVERLAP_RANGE) & (up <= 1.0 + _OVERLAP_RANGE)):  # also rejects NaN
            raise ValidationError("overlaps must lie in [0, 1]")
        np.clip(up, 0.0, 1.0, out=up)
        # mirror by assignment, not by adding the transpose: a -0.0 keeps its sign
        out = np.eye(self.n)
        out[iu] = up
        out[iu[1], iu[0]] = up
        out.setflags(write=False)
        object.__setattr__(self, "r", out)

    @classmethod
    def from_upper(cls, n: int, upper: Sequence[float]) -> "OverlapSet":
        """Build from the canonical upper-triangular edge list."""
        edges = edge_order(n)
        if len(upper) != len(edges):
            raise ValidationError(f"expected {len(edges)} entries for n={n}, got {len(upper)}")
        m = np.eye(n)
        for (i, j), v in zip(edges, upper):
            m[i, j] = v
        return cls(n, m)

    @classmethod
    def from_states(cls, states: Sequence[StateLike]) -> "OverlapSet":
        """Overlaps Tr(rho_i rho_j) of all pairs, from one Gram product.

        Pure tuples take ``|<a_i|a_j>|^2`` from the amplitude Gram matrix;
        a tuple holding any density matrix takes ``Tr(rho_i rho_j)`` from
        the Gram matrix of the flattened entries, pure members entering as
        their projectors. Each overlap may leave [0, 1] by
        ``_OVERLAP_RANGE`` before it is clamped, as in `overlap`; beyond
        that it is a `NumericalError`.
        """
        states = list(states)
        n = len(states)
        if n < 2:
            raise ValidationError("an overlap set needs at least 2 nodes")
        for s in states:
            if not isinstance(s, (PureState, DensityMatrix)):
                raise ValidationError(f"expected PureState or DensityMatrix, got {type(s).__name__}")
            if s.dim != states[0].dim:
                raise ValidationError(f"dimension mismatch: {states[0].dim} vs {s.dim}")
        if all(isinstance(s, PureState) for s in states):
            a = np.array([s.amplitudes for s in states])
            g = a.conj() @ a.T
            r = g.real**2 + g.imag**2
        else:
            e = np.array([_as_density_array(s).ravel() for s in states])
            r = (e.conj() @ e.T).real
        try:
            return cls(n, r)
        except ValidationError:  # with n and the shape right, only the range check fails
            up = np.triu(r, 1)
            i, j = np.argwhere((up < -_OVERLAP_RANGE) | (up > 1.0 + _OVERLAP_RANGE))[0]
            raise NumericalError(f"overlap {float(r[i, j])!r} of states {i} and {j} "
                                 f"left [0, 1] beyond tolerance") from None

    def upper(self) -> np.ndarray:
        """The strict upper triangle, row-major: the `edge_order` entries."""
        return self.r[_upper_indices(self.n)]

    def restrict(self, nodes: Sequence[int]) -> "OverlapSet":
        """Sub-graph on the given nodes, relabeled 0..len(nodes)-1."""
        idx = list(nodes)
        return OverlapSet(len(idx), self.r[np.ix_(idx, idx)])


@dataclass(frozen=True)
class InequalitySpec:
    """Signed edge weights plus a classical bound.

    ``weights`` maps unordered pairs (i, j) with i < j to coefficients; the
    functional is ``sum_w weights[(i,j)] * r[i,j]`` and values above
    ``classical_bound`` witness coherence.
    """

    n: int
    weights: Mapping[tuple[int, int], float]
    classical_bound: float
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("inequality needs at least 2 nodes")
        clean = {}
        for (i, j), w in self.weights.items():
            if not (0 <= i < j < self.n):
                raise ValidationError(f"edge ({i},{j}) invalid for n={self.n}")
            if not _is_finite_real(w):
                raise ValidationError(f"coefficient on edge ({i},{j}) must be a finite real number, got {w!r}")
            clean[(int(i), int(j))] = float(w)
        object.__setattr__(self, "weights", dict(sorted(clean.items())))
        if not _is_finite_real(self.classical_bound):
            raise ValidationError(f"classical bound must be a finite real number, got {self.classical_bound!r}")

    def weight_matrix(self) -> np.ndarray:
        """Symmetric zero-diagonal coefficient matrix."""
        w = np.zeros((self.n, self.n))
        for (i, j), c in self.weights.items():
            w[i, j] = c
            w[j, i] = c
        return w


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of classifying a functional value against dimension maxima.

    ``min_dimension`` is one more than the largest dimension whose maximum
    the value exceeds (1 when it exceeds none). ``min_dimension_known`` is
    False when no thresholds were supplied.
    """

    value: float
    coherence_witnessed: bool
    min_dimension: int
    thresholds_used: tuple[tuple[int, float], ...]

    @property
    def min_dimension_known(self) -> bool:
        return bool(self.thresholds_used)


def make_hn(n: int) -> InequalitySpec:
    """The recursive h_n functional on the complete graph K_n.

    h_3 = r01 + r02 - r12, and each step to n adds +r_{0,n-1} and
    -r_{i,n-1} for 1 <= i <= n-2. Expanded: +1 on every edge from node 0,
    -1 on every edge among nodes 1..n-1. Classical bound 1.
    """
    if n < 3:
        raise ValidationError("h_n is defined for n >= 3")
    weights: dict[tuple[int, int], float] = {}
    for k in range(1, n):
        weights[(0, k)] = 1.0
    for i in range(1, n):
        for j in range(i + 1, n):
            weights[(i, j)] = -1.0
    return InequalitySpec(n=n, weights=weights, classical_bound=1.0, name=f"h{n}")


def hn_order(spec: InequalitySpec) -> int | None:
    """n when the spec's edge weights are those of `make_hn(n)`, else None.

    The one test of whether a spec is h_n: its name and classical bound are
    ignored, so a renamed h_n file is h_n and other weights saved under
    the name "h5" are not. Decided from the edges alone, without building
    `make_hn(n)`: the constructor keeps only edges 0 <= i < j < n, so
    n(n-1)/2 of them is every edge, and each must carry +1 from node 0
    and -1 elsewhere.
    """
    n, weights = spec.n, spec.weights
    if n < 3 or len(weights) != n * (n - 1) // 2:
        return None
    if all(w == (1.0 if i == 0 else -1.0) for (i, _), w in weights.items()):
        return n
    return None


def make_h_mzi() -> InequalitySpec:
    """Pentagon functional tailored to two-level interferometers.

    +1 on the 5-cycle edges, -1 on the diagonals; classical bound 2. The
    quantum maximum is 5*sqrt(5)/4, reached by five states equally spaced
    on a great circle of the Bloch sphere.
    """
    plus = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    minus = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    weights = {e: 1.0 for e in plus}
    weights.update({e: -1.0 for e in minus})
    return InequalitySpec(n=5, weights=weights, classical_bound=2.0, name="hmzi")


def make_h3_robust() -> InequalitySpec:
    """Six-state noncontextuality functional for the hexagon fragment.

    Nodes follow the hexagon order (0, theta, -theta, 1, theta_perp,
    -theta_perp): +r01 +r02 -r12 -r03 -r14 -r25 <= 1 whenever the three
    antipodal preparation pairs are operationally equivalent.
    """
    weights = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): -1.0,
               (0, 3): -1.0, (1, 4): -1.0, (2, 5): -1.0}
    return InequalitySpec(n=6, weights=weights, classical_bound=1.0, name="h3robust")


def evaluate(spec: InequalitySpec, overlaps: OverlapSet) -> float:
    """Apply the functional to an overlap set (upper-triangular entries only).

    The terms are summed exactly (`math.fsum`): a left-to-right float sum
    of the n(n-1)/2 terms of h_n drifts past `classify`'s rounding margin
    at a few hundred states.
    """
    if spec.n != overlaps.n:
        raise ValidationError(f"size mismatch: spec has n={spec.n}, overlaps n={overlaps.n}")
    r = overlaps.r.tolist()
    return math.fsum(w * r[i][j] for (i, j), w in spec.weights.items())


def evaluate_states(spec: InequalitySpec, states: Sequence[StateLike]) -> float:
    """Compose the overlap matrix of the states and evaluate the functional."""
    if len(states) != spec.n:
        raise ValidationError(f"spec expects {spec.n} states, got {len(states)}")
    return evaluate(spec, OverlapSet.from_states(states))


def hn_plus(overlaps: OverlapSet) -> float:
    """Sum of all pairwise overlaps, sum_{i<j} r_ij.

    For n pure states with mean projector X this equals
    (n^2/2) Tr(X^2) - n/2, and h_n decomposes as
    ``hn_plus(all) - 2 * hn_plus(restricted to nodes 1..n-1)``.
    """
    return float(np.sum(overlaps.upper()))


def classify(
    spec: InequalitySpec,
    value: float,
    thresholds: Sequence[tuple[int, float]],
    slack: float = 0.0,
) -> WitnessVerdict:
    """Classify a functional value against per-dimension maxima.

    ``thresholds`` is a list of (d, max_value) sorted ascending in d.
    Comparisons are strict with an additive ``slack`` for callers that need
    to absorb statistical uncertainty. A dimension threshold is exceeded
    only beyond a further rounding margin of ``THRESHOLD_ROUNDING *
    max(1, |max_value|)``, so an exact maximizer at dimension d is not
    reported above d; the classical-bound comparison has no such margin.
    With no thresholds the dimension is reported as 1 with
    ``min_dimension_known=False``. ``slack`` must be finite and
    non-negative: a negative one would witness below the bound. A NaN
    threshold would be exceeded by no value, so non-finite thresholds are
    rejected too.
    """
    if not 0.0 <= slack < math.inf:  # also rejects NaN
        raise ValidationError(f"slack must be a finite non-negative number, got {slack!r}")
    thr = tuple((int(d), float(v)) for d, v in thresholds)
    if not all(math.isfinite(v) for _, v in thr):
        raise ValidationError(f"threshold values must be finite, got {thr!r}")
    if any(thr[k][0] >= thr[k + 1][0] for k in range(len(thr) - 1)):
        raise ValidationError("thresholds must be sorted strictly ascending in dimension")
    witnessed = value > spec.classical_bound + slack
    exceeded = [d for d, vmax in thr
                if value > vmax + slack + THRESHOLD_ROUNDING * max(1.0, abs(vmax))]
    return WitnessVerdict(value, witnessed, 1 + max(exceeded, default=0), thr)


def qubit_triple_max_eigenvalue(theta, alpha, phi):
    """Largest eigenvalue of |0><0| + |theta><theta| + |alpha,phi><alpha,phi|.

    Closed form for the qubit frame operator of the three states
    cos(t)|0> + sin(t)|1> and cos(a)|0> + e^{i p} sin(a)|1>:
    ``3/2 + sqrt(2 sin2a sin2t cos p + 4 cos2a cos^2 t + 2 cos2t + 3) / 2``.
    Vectorized over array inputs.
    """
    theta, alpha, phi = np.asarray(theta), np.asarray(alpha), np.asarray(phi)
    rad = (2.0 * np.sin(2 * alpha) * np.sin(2 * theta) * np.cos(phi)
           + 4.0 * np.cos(2 * alpha) * np.cos(theta) ** 2
           + 2.0 * np.cos(2 * theta) + 3.0)
    return 1.5 + 0.5 * np.sqrt(np.maximum(rad, 0.0))


def qubit_h4_gap(theta, alpha, phi):
    """h_4 - 1 after optimizing the fourth state over all qubit states.

    The three fixed states are |0>, |theta>, |alpha,phi|; the optimal
    fourth state is the top eigenvector of their sum, giving the closed
    form ``lambda_max - 1 - (r_23 + r_24 + r_34)``. Nonpositive everywhere,
    which is exactly the statement that qubits cannot violate h_4.
    """
    theta, alpha, phi = np.asarray(theta), np.asarray(alpha), np.asarray(phi)
    lam = qubit_triple_max_eigenvalue(theta, alpha, phi)
    r23 = np.cos(theta) ** 2
    r24 = np.cos(alpha) ** 2
    r34 = (np.cos(theta) ** 2 * np.cos(alpha) ** 2
           + np.sin(theta) ** 2 * np.sin(alpha) ** 2
           + 0.5 * np.sin(2 * theta) * np.sin(2 * alpha) * np.cos(phi))
    return lam - 1.0 - r23 - r24 - r34
