"""Quantum-state primitives: pure and mixed states, overlaps, noise, sampling.

All values are immutable after construction (arrays are frozen), so they can
be shared freely across threads. The validation tolerances are fixed
module constants, not parameters. Randomness always flows through an
explicit 64-bit seed or a ``numpy.random.Generator``; see `make_rng` for
the stream convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ValidationError",
    "NumericalError",
    "PureState",
    "DensityMatrix",
    "overlap",
    "depolarize",
    "haar_random_pure",
    "haar_random_pure_batch",
    "max_eigenvalue",
    "basis_state",
    "qubit_state",
    "bloch_vector",
    "make_rng",
    "split_seeds",
]


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


# Validation tolerances. A pure state's squared norm may miss 1, and a
# density matrix its Hermiticity and unit trace, by 1e-12; eigenvalues in
# [_EIGENVALUE_FLOOR, 0) are clamped to zero and the trace renormalized;
# an overlap may leave [0, 1] by _OVERLAP_RANGE before it is clamped.
_UNIT_NORM_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
_OVERLAP_RANGE = 1e-12

SeedLike = Union[int, np.random.Generator]


def _is_int(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    """True for a finite real number; False for NaN, inf, complex or text."""
    if isinstance(x, (complex, np.complexfloating)):  # math.isfinite would drop the imaginary part
        return False
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):  # not real, or an int past the float range
        return False


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Return the package's reference generator (PCG64) for a 64-bit seed.

    Generators pass through unchanged, so library code can accept either.
    Parallel work items must never share one generator; use `split_seeds`
    to derive independent child streams deterministically.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed)))


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    """The root ``SeedSequence`` of a seed, which must be a non-negative integer."""
    if not _is_int(seed) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(int(seed))


def split_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Split a root seed into ``n`` independent child streams.

    Children are spawned from ``SeedSequence(seed)``, so the split is
    deterministic and the streams are statistically independent regardless
    of how callers schedule them. The seed is checked as `make_rng` checks
    it.
    """
    if n < 0:
        raise ValidationError("cannot split into a negative number of streams")
    return _seed_sequence(seed).spawn(n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector representing a ray.

    Global phase carries no meaning: two states are physically equal when
    their overlap is 1.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.size < 1:
            raise ValidationError("amplitudes must be a non-empty 1-d complex vector")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= _UNIT_NORM_TOL:  # also rejects NaN
            raise ValidationError(f"squared norm is {norm_sq!r}, expected 1 within {_UNIT_NORM_TOL}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @classmethod
    def normalized(cls, vec: Sequence[complex]) -> "PureState":
        """Build a state from an unnormalized, nonzero amplitude vector."""
        v = np.asarray(vec, dtype=np.complex128)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(v / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        """Rank-one projector onto this state."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    Construction repairs tiny numerical negativity: eigenvalues in
    ``[-1e-10, 0)`` are clamped to zero and the trace is
    renormalized, which keeps downstream iterative solvers stable. Anything
    more negative is rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError("entries must be a square complex matrix")
        if not np.all(np.isfinite(m)):
            raise ValidationError("matrix has non-finite entries")
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if not herm_err <= _HERMITIAN_TOL:
            raise ValidationError(f"matrix deviates from Hermiticity by {herm_err:g}")
        m = (m + m.conj().T) / 2.0
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise ValidationError(f"trace is {tr!r}, expected 1 within {_TRACE_TOL}")
        w = np.linalg.eigvalsh(m)
        w_min = float(w[0])
        if w_min < _EIGENVALUE_FLOOR:
            raise ValidationError(f"matrix has eigenvalue {w_min:g}, below the PSD floor")
        if w_min < 0.0:
            # PSD repair: clamp the offending eigenvalues, renormalize trace.
            vals, vecs = np.linalg.eigh(m)
            vals = np.clip(vals, 0.0, None)
            m = (vecs * vals) @ vecs.conj().T
            m = (m + m.conj().T) / 2.0
            m = m / float(np.trace(m).real)
        object.__setattr__(self, "entries", _frozen(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        """Tr(rho^2); equals 1 exactly for pure states."""
        return float(np.vdot(self.entries, self.entries).real)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        if d < 1:
            raise ValidationError("dimension must be at least 1")
        return cls(np.eye(d, dtype=np.complex128) / d)


StateLike = Union[PureState, DensityMatrix]


def _as_density_array(x: StateLike) -> np.ndarray:
    if isinstance(x, PureState):
        return np.outer(x.amplitudes, x.amplitudes.conj())
    if isinstance(x, DensityMatrix):
        return x.entries
    raise ValidationError(f"expected PureState or DensityMatrix, got {type(x).__name__}")


def overlap(a: StateLike, b: StateLike) -> float:
    """Two-state overlap Tr(a b), in [0, 1].

    For pure inputs this equals ``|<a|b>|^2``. The implementation is
    bit-symmetric in its arguments: each elementwise term is the same float
    expression either way, summed in the same order. This is the route for
    a single pair; `OverlapSet.from_states` takes all pairs of a tuple from
    one Gram product instead, whose sums may round differently by a few
    ulps.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        if a.dim != b.dim:
            raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
        z = np.vdot(a.amplitudes, b.amplitudes)
        val = z.real * z.real + z.imag * z.imag
    else:
        ma, mb = _as_density_array(a), _as_density_array(b)
        if ma.shape != mb.shape:
            raise ValidationError(f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
        # Tr(AB) = sum_ij conj(A_ij) B_ij for Hermitian A.
        val = float(np.vdot(ma, mb).real)
    if val < 0.0:
        if val < -_OVERLAP_RANGE:
            raise NumericalError(f"overlap {val!r} fell below 0 beyond tolerance")
        val = 0.0
    elif val > 1.0:
        if val > 1.0 + _OVERLAP_RANGE:
            raise NumericalError(f"overlap {val!r} exceeded 1 beyond tolerance")
        val = 1.0
    return float(val)


def depolarize(x: StateLike, nu: float) -> DensityMatrix:
    """Depolarizing channel: ``(1 - nu) x + nu * (I/d) Tr(x)``.

    ``nu`` is the noise weight; ``nu = 0`` is the identity channel and
    ``nu = 1`` maps every state to the maximally mixed one.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValidationError(f"noise weight nu must lie in [0, 1], got {nu!r}")
    m = _as_density_array(x)
    d = m.shape[0]
    tr = np.trace(m).real
    out = (1.0 - nu) * m + (nu * tr / d) * np.eye(d, dtype=np.complex128)
    return DensityMatrix(out)


def haar_random_pure(d: int, seed: SeedLike) -> PureState:
    """Draw a Haar-uniform pure state: normalized complex-Gaussian vector.

    A vector of i.i.d. standard complex normals has a unitarily invariant
    distribution, so its normalization is Haar-uniform on the sphere of
    rays. Deterministic for a fixed seed.
    """
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    rng = make_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def haar_random_pure_batch(num: int, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Array of shape (num, n, d): ``num`` independent n-tuples of Haar states."""
    z = rng.standard_normal((num, n, d)) + 1j * rng.standard_normal((num, n, d))
    return z / np.linalg.norm(z, axis=2, keepdims=True)


def max_eigenvalue(h: Union[np.ndarray, DensityMatrix]) -> float:
    """Largest eigenvalue of a Hermitian matrix.

    Rejects inputs whose anti-Hermitian part exceeds 1e-12 relative to the
    matrix scale.
    """
    m = h.entries if isinstance(h, DensityMatrix) else np.asarray(h, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(m))))
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if herm_err > _HERMITIAN_TOL * scale:
        raise ValidationError(f"matrix deviates from Hermiticity by {herm_err:g}")
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1])


def basis_state(d: int, k: int) -> PureState:
    """Computational basis vector |k> in dimension d."""
    if not 0 <= k < d:
        raise ValidationError(f"basis index {k} out of range for dimension {d}")
    v = np.zeros(d, dtype=np.complex128)
    v[k] = 1.0
    return PureState(v)


def qubit_state(theta: float, phi: float = 0.0) -> PureState:
    """cos(theta)|0> + e^{i phi} sin(theta)|1>.

    The orthogonal partner of |theta> is ``qubit_state(theta + pi/2, phi)``.
    """
    return PureState(np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)], dtype=np.complex128))


def bloch_vector(rho: StateLike) -> np.ndarray:
    """Bloch vector (x, y, z) of a qubit state."""
    m = _as_density_array(rho)
    if m.shape != (2, 2):
        raise ValidationError("Bloch vector is defined for qubits only")
    x = 2.0 * m[0, 1].real
    y = -2.0 * m[0, 1].imag
    z = (m[0, 0] - m[1, 1]).real
    return np.array([x, y, z])
