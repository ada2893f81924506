"""Programmable rectangular interferometer: composition, decomposition,
qudit preparation circuits, photon-count overlap estimation, angle-noise
dispersion, and the thermo-optic calibration model.

Cell convention. Each tunable beam splitter is a Mach-Zehnder cell: an
external phase ``phi`` on the upper input, then two balanced couplers
(transmission 1/sqrt(2), reflection i/sqrt(2)) around an internal phase
``theta``. The resulting two-mode transfer matrix is

    T(theta, phi) = i e^{i theta/2} [[e^{i phi} sin(theta/2), cos(theta/2)],
                                     [e^{i phi} cos(theta/2), -sin(theta/2)]]

so the cross-port power is exactly (1 + cos(theta)) / 2, which is what the
calibration model fits; theta = pi is a mirror (all bar), theta = 0 a full
crossing. The rectangular tiling and the nulling order follow Clements et
al., Optica 3, 1460 (2016).
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .inequalities import InequalitySpec, evaluate_states, make_hn
from .optimize import _optimal_mean, uniform_pure_ensemble
from .states import (
    DensityMatrix,
    NumericalError,
    PureState,
    ValidationError,
    basis_state,
    make_rng,
    overlap,
    qubit_state,
    split_seeds,
)

__all__ = [
    "MeshCell",
    "MeshConfig",
    "CountRecord",
    "CountEstimate",
    "AngleNoise",
    "DispersionResult",
    "CalibrationModel",
    "CalibrationCoverageError",
    "FidelityStudy",
    "clements_layout",
    "mzi_transfer",
    "compose",
    "decompose",
    "haar_random_unitary",
    "prepare_qutrit",
    "prepare_ququart",
    "prepare_5mode",
    "pentagon_qubit_set",
    "qutrit_h4_set",
    "ququart_h5_set",
    "ququart_parameters",
    "five_mode_parameters",
    "h5_ququart_parameters",
    "five_mode_h6_parameters",
    "maximize_pure_family",
    "hyperspherical_angles",
    "state_from_hyperspherical",
    "overlap_via_counts",
    "estimate_inequality_via_counts",
    "dispersion",
    "calibration_forward",
    "calibration_fit",
    "fidelity",
    "perturbed_mesh_fidelity_study",
]


class CalibrationCoverageError(ValidationError):
    """Sweep does not cover enough induced phase to identify the model."""


_TWO_PI = 2.0 * math.pi


def _mod_2pi(x: float) -> float:
    """``x`` reduced to [0, 2 pi), as ``np.mod`` does; a non-finite or
    non-real angle is a validation error."""
    try:
        finite = math.isfinite(x)
    except (TypeError, OverflowError):  # not a real number, or an int past the float range
        finite = False
    if not finite:
        raise ValidationError(f"mesh angles must be finite real numbers, got {x!r}")
    return float(x) % _TWO_PI


@dataclass(frozen=True)
class MeshCell:
    """One Mach-Zehnder cell: top mode index, layer column, and angles."""

    row: int
    column: int
    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _mod_2pi(self.theta))
        object.__setattr__(self, "phi", _mod_2pi(self.phi))


def clements_layout(m: int) -> list[tuple[int, int]]:
    """(row, column) slots of the rectangular tiling for m modes.

    Even columns host cells on rows 0, 2, ...; odd columns on rows 1, 3,
    ...; m(m-1)/2 cells in total.
    """
    if m < 2:
        raise ValidationError("a mesh needs at least 2 modes")
    slots = []
    for col in range(m):
        for row in range(col % 2, m - 1, 2):
            slots.append((row, col))
    return slots


@dataclass(frozen=True)
class MeshConfig:
    """Full rectangular mesh setting: one (theta, phi) pair per cell.

    The cell set must tile the rectangle exactly; ``output_phases`` holds
    the residual per-mode phases applied after the last column.
    """

    modes: int
    cells: tuple[MeshCell, ...]
    output_phases: tuple[float, ...] | None = None

    def __post_init__(self):
        expected = sorted(clements_layout(self.modes))
        got = sorted((c.row, c.column) for c in self.cells)
        if got != expected:
            raise ValidationError(
                f"cell layout does not tile the {self.modes}-mode rectangle "
                f"({len(got)} cells, expected {len(expected)})"
            )
        if self.output_phases is not None:
            if len(self.output_phases) != self.modes:
                raise ValidationError("output_phases must list one phase per mode")
            object.__setattr__(self, "output_phases",
                               tuple(_mod_2pi(p) for p in self.output_phases))
        object.__setattr__(self, "cells", tuple(self.cells))


def mzi_transfer(theta: float, phi: float) -> np.ndarray:
    """Two-mode transfer matrix of one cell (see module docstring).

    The factors come from `math`/`cmath`, which agree bitwise with numpy's
    scalar sin, cos and exp; the prefactor multiplies the 2 x 2 array as a
    numpy array product, which rounds differently from scalar products.
    """
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    pre = 1j * cmath.exp(1j * theta / 2.0)
    ephi = cmath.exp(1j * phi)
    return pre * np.array([[ephi * s, c], [ephi * c, -s]], dtype=np.complex128)


def _transfers(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """`mzi_transfer` of every (theta, phi) pair, shape ``theta.shape + (2, 2)``.

    Bit for bit the same matrices: the prefactor multiplies out of place,
    as the scalar form does (numpy's in-place complex product rounds
    differently). `decompose` builds one cell at a time with the scalar
    form, which is faster for one cell.
    """
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    pre = 1j * np.exp(1j * theta / 2.0)
    ephi = np.exp(1j * phi)
    t = np.empty(np.shape(theta) + (2, 2), dtype=np.complex128)
    t[..., 0, 0] = ephi * s
    t[..., 0, 1] = c
    t[..., 1, 0] = ephi * c
    t[..., 1, 1] = -s
    return pre[..., None, None] * t


def _compose_stack(
    m: int,
    rows: np.ndarray,
    cols: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
    out_phases: np.ndarray | None,
) -> np.ndarray:
    """`compose` of a stack of meshes sharing one rectangular layout.

    ``rows``/``cols`` place the cells (any order); ``theta``/``phi`` hold one
    row of cell angles per mesh and ``out_phases`` one row of output phases
    (or None). Each column's cells address the disjoint pairs (r0, r0+1),
    (r0+2, r0+3), ..., so a column is one batched 2 x 2 product on
    ``u[:, r0:r0+2k]`` viewed as (B, k, 2, m); per cell that is the same
    product as cell-by-cell composition, so the result is bitwise the same.
    """
    b = theta.shape[0]
    t = _transfers(theta, phi)
    u = np.zeros((b, m, m), dtype=np.complex128)
    u[:, np.arange(m), np.arange(m)] = 1.0
    order = np.lexsort((rows, cols))
    starts = np.searchsorted(cols[order], np.arange(m + 1))
    for col in range(m):
        idx = order[starts[col]:starts[col + 1]]
        if idx.size == 0:
            continue
        r0, k = int(rows[idx[0]]), idx.size
        block = u[:, r0:r0 + 2 * k].reshape(b, k, 2, m)
        u[:, r0:r0 + 2 * k] = (t[:, idx] @ block).reshape(b, 2 * k, m)
    if out_phases is not None:
        u = np.exp(1j * out_phases)[:, :, None] * u
    return u


def compose(config: MeshConfig) -> np.ndarray:
    """Multiply the mesh cells into an m x m unitary.

    Cells act in column order (cells within a column address disjoint mode
    pairs, so their order is immaterial), then the output phases.
    """
    cells = config.cells
    phases = None if config.output_phases is None else np.array([config.output_phases])
    return _compose_stack(
        config.modes,
        np.array([c.row for c in cells]),
        np.array([c.column for c in cells]),
        np.array([[c.theta for c in cells]]),
        np.array([[c.phi for c in cells]]),
        phases,
    )[0]


def _haar_from_ginibre(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normal parts of shape (..., m, m).

    QR of the complex Ginibre matrix ``(re + i im) / sqrt(2)``, then each
    column of Q rephased by its diagonal entry of R (Mezzadri 2007). A
    stack runs as one QR call, bitwise the same as one call per matrix.
    """
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_random_unitary(m: int, seed) -> np.ndarray:
    """Haar-distributed m x m unitary (QR of a complex Ginibre matrix)."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValidationError(f"unitary size must be a positive integer, got {m!r}")
    rng = make_rng(seed)
    return _haar_from_ginibre(rng.standard_normal((m, m)), rng.standard_normal((m, m)))


@lru_cache(maxsize=64)
def _greedy_columns(m: int, modes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(row, column) of each cell acting on modes (mode, mode + 1), in order.

    Each cell takes the first column after the cells already on its two
    modes; for the nulling order of `decompose` this reproduces the
    rectangular tiling.
    """
    avail = [0] * m
    slots = []
    for mode in modes:
        col = max(avail[mode], avail[mode + 1])
        avail[mode] = avail[mode + 1] = col + 1
        slots.append((mode, col))
    return tuple(slots)


def decompose(u: np.ndarray, atol: float = 1e-10) -> MeshConfig:
    """Rectangular decomposition of a unitary into mesh cell settings.

    Nulls the lower triangle diagonal by diagonal, alternating right
    multiplications (column mixes) and left multiplications (row mixes),
    then commutes the residual diagonal through the left factors so the
    result reads as ``diag(output_phases) @ (product of cells)``.
    ``compose(decompose(u))`` reproduces ``u`` exactly (global phase
    included) up to floating-point rounding. ``u`` must be unitary within
    ``atol``, a finite non-negative tolerance floored to 1e-10.
    """
    if not 0.0 <= atol < np.inf:  # also rejects NaN
        raise ValidationError(f"unitarity tolerance must be finite and non-negative, got {atol!r}")
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("expected a square matrix")
    m = u.shape[0]
    if m < 2:
        raise ValidationError("a mesh needs at least 2 modes")
    unit_err = float(np.max(np.abs(u.conj().T @ u - np.eye(m))))
    if not unit_err <= max(atol, 1e-10):  # also rejects NaN
        raise ValidationError(f"matrix deviates from unitarity by {unit_err:g}")

    # Each cell nulls one entry of `work` and updates two of its columns
    # (right) or rows (left) in place through precomputed views. Angles are
    # numpy's arctan/arctan2 of numpy scalar quotients and moduli, as
    # `_null_stack` computes them elementwise.
    work = u.copy()
    column_pairs = [work[:, k:k + 2] for k in range(m - 1)]
    row_pairs = [work[k:k + 2] for k in range(m - 1)]
    right_ops: list[tuple[int, float, float]] = []  # (top mode, theta, phi)
    left_ops: list[tuple[int, float, float]] = []
    arctan, arctan2 = np.arctan, np.arctan2
    for diag in range(1, m):
        if diag % 2 == 1:
            for j in range(diag):
                row, col = m - 1 - j, diag - 1 - j
                a = work[row, col]
                if abs(a) < 1e-300:
                    theta, phi = math.pi, 0.0
                else:
                    z = -work[row, col + 1] / a
                    abs_z = abs(z)
                    theta = 2.0 * float(arctan(abs_z))
                    phi = -float(arctan2(z.imag, z.real)) if abs_z > 0 else 0.0
                pair = column_pairs[col]
                pair[...] = pair @ mzi_transfer(theta, phi).conj().T
                right_ops.append((col, theta, phi))
        else:
            for j in range(1, diag + 1):
                row, col = m + j - diag - 1, j - 1
                a, b = work[row - 1, col], work[row, col]
                abs_a, abs_b = abs(a), abs(b)
                if abs_b < 1e-300:
                    theta, phi = math.pi, 0.0
                else:
                    # one arctan2 call for three angles, each as a call of its own gives it
                    half, arg_b, arg_a = arctan2((abs_a, b.imag, a.imag), (abs_b, b.real, a.real)).tolist()
                    theta = 2.0 * half
                    phi = arg_b - arg_a if abs_a > 0 else 0.0
                pair = row_pairs[row - 1]
                pair[...] = mzi_transfer(theta, phi) @ pair
                left_ops.append((row - 1, theta, phi))

    off = work - np.diag(np.diag(work))
    if float(np.max(np.abs(off))) > 1e-8:
        raise NumericalError("nulling failed to reach a diagonal matrix")
    phases = np.diag(work).tolist()

    # Commute the diagonal through the left factors:
    # T(theta, phi)^dagger diag(d1, d2) = diag(d1', d2') T(theta, phi') with
    # phi' = arg(d1 conj(d2)), d1' = -e^{-i(theta+phi)} d2, d2' = -e^{-i theta} d2.
    # Innermost left factor commutes first, which already yields the
    # remaining factors in application order. Python complex products and
    # `cmath.exp` round as numpy's scalar ones do.
    physical: list[tuple[int, float, float]] = list(right_ops)
    for mode, theta, phi in reversed(left_ops):
        d1, d2 = phases[mode], phases[mode + 1]
        w = d1 * d2.conjugate()
        phi_new = float(arctan2(w.imag, w.real))
        phases[mode] = -cmath.exp(-1j * (theta + phi)) * d2
        phases[mode + 1] = -cmath.exp(-1j * theta) * d2
        physical.append((mode, theta, phi_new))

    slots = _greedy_columns(m, tuple(mode for mode, _, _ in physical))
    cells = [MeshCell(row=row, column=col, theta=theta, phi=phi)
             for (row, col), (_, theta, phi) in zip(slots, physical)]
    return MeshConfig(
        modes=m,
        cells=tuple(cells),
        output_phases=tuple(float(arctan2(p.imag, p.real)) for p in phases),
    )


def _abs(z: np.ndarray) -> np.ndarray:
    # numpy's scalar abs(z) is hypot; its array np.abs rounds differently
    return np.hypot(z.real, z.imag)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # numpy's scalar complex product, written out; its array product rounds differently
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _null_stack(us: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`decompose` of a stack of unitaries (B, m, m), one nulling step for all.

    Returns ``(rows, cols, theta, phi, out_phases)`` with the cells in the
    order `decompose` lists them: ``theta``/``phi`` are (B, cells) and
    ``out_phases`` (B, m), all reduced to [0, 2 pi) as `MeshCell` and
    `MeshConfig` store them. Every step repeats `decompose`'s arithmetic
    elementwise, so each row equals `decompose` of its unitary bit for bit.
    The inputs are taken as unitary (unchecked).
    """
    b, m, _ = us.shape
    work = np.array(us, dtype=np.complex128)
    right_ops: list[tuple[int, np.ndarray, np.ndarray]] = []
    left_ops: list[tuple[int, np.ndarray, np.ndarray]] = []
    # a zero pivot divides by zero below; `tiny` overrides what that gives
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for diag in range(1, m):
            if diag % 2 == 1:
                for j in range(diag):
                    row, col = m - 1 - j, diag - 1 - j
                    a, c = work[:, row, col], work[:, row, col + 1]
                    z = -c / a
                    abs_z = _abs(z)
                    theta = 2.0 * np.arctan(abs_z)
                    phi = np.where(abs_z > 0, -np.arctan2(z.imag, z.real), 0.0)
                    tiny = _abs(a) < 1e-300
                    theta, phi = np.where(tiny, np.pi, theta), np.where(tiny, 0.0, phi)
                    block = _transfers(theta, phi).conj().swapaxes(-1, -2)
                    work[:, :, col:col + 2] = work[:, :, col:col + 2] @ block
                    right_ops.append((col, theta, phi))
            else:
                for j in range(1, diag + 1):
                    row, col = m + j - diag - 1, j - 1
                    a, c = work[:, row - 1, col], work[:, row, col]
                    abs_a, abs_c = _abs(a), _abs(c)
                    theta = 2.0 * np.arctan2(abs_a, abs_c)
                    phi = np.where(abs_a > 0, np.arctan2(c.imag, c.real) - np.arctan2(a.imag, a.real), 0.0)
                    tiny = abs_c < 1e-300
                    theta, phi = np.where(tiny, np.pi, theta), np.where(tiny, 0.0, phi)
                    block = _transfers(theta, phi)
                    work[:, row - 1:row + 1, :] = block @ work[:, row - 1:row + 1, :]
                    left_ops.append((row - 1, theta, phi))

    on_diag = (slice(None), np.arange(m), np.arange(m))
    phases = work[on_diag].copy()
    work[on_diag] = 0.0
    if float(np.max(np.abs(work))) > 1e-8:
        raise NumericalError("nulling failed to reach a diagonal matrix")

    # the commutation of `decompose`, with its scalar complex products
    physical = list(right_ops)
    for mode, theta, phi in reversed(left_ops):
        d1, d2 = phases[:, mode], phases[:, mode + 1]
        w = _times(d1, np.conj(d2))
        phi_new = np.arctan2(w.imag, w.real)
        phases[:, mode] = _times(-np.exp(-1j * (theta + phi)), d2)
        phases[:, mode + 1] = _times(-np.exp(-1j * theta), d2)
        physical.append((mode, theta, phi_new))

    rows, cols = np.array(_greedy_columns(m, tuple(op[0] for op in physical))).T
    theta = np.mod(np.stack([op[1] for op in physical], axis=1), _TWO_PI)
    phi = np.mod(np.stack([op[2] for op in physical], axis=1), _TWO_PI)
    return rows, cols, theta, phi, np.mod(np.arctan2(phases.imag, phases.real), _TWO_PI)


# --- qudit preparation circuits -------------------------------------------

def _finite_angles(*angles) -> tuple[float, ...]:
    """The angles as Python floats; non-finite ones are a validation error."""
    values = tuple(map(float, angles))
    if not all(map(math.isfinite, values)):
        raise ValidationError("circuit angles must be finite")
    return values


def _cis(p: float) -> complex:
    """``e^{i p}`` from libm's cos and sin, as ``np.exp(1j * p)`` computes it."""
    return complex(math.cos(p), math.sin(p))


# The preparation circuits run once per family call in the fits, so they are
# scalar `math` expressions (the same products, bitwise, as numpy scalars).

def prepare_qutrit(theta1: float, theta2: float, phi1: float, phi2: float) -> PureState:
    """Three-mode chain encoding of a qutrit.

    ``cos(t1)|0> + sin(t1) cos(t2) e^{i p1}|1> + sin(t1) sin(t2) e^{i p2}|2>``
    (first splitter peels mode 0, the second splits the remainder); unit
    norm for any finite angles.
    """
    t1, t2, p1, p2 = _finite_angles(theta1, theta2, phi1, phi2)
    s1 = math.sin(t1)
    return PureState(np.array([
        math.cos(t1),
        s1 * math.cos(t2) * _cis(p1),
        s1 * math.sin(t2) * _cis(p2),
    ], dtype=np.complex128))


def prepare_ququart(theta1, theta2, theta3, phi1, phi2, phi3) -> PureState:
    """Four-mode tree encoding of a ququart (photon enters the middle).

    ``cos(t2)cos(t1)|0> + sin(t2)cos(t1)e^{i p1}|1>
    + sin(t1)cos(t3)e^{i p2}|2> + sin(t1)sin(t3)e^{i p3}|3>``.
    """
    t1, t2, t3, p1, p2, p3 = _finite_angles(theta1, theta2, theta3, phi1, phi2, phi3)
    c1, s1 = math.cos(t1), math.sin(t1)
    return PureState(np.array([
        math.cos(t2) * c1,
        math.sin(t2) * c1 * _cis(p1),
        s1 * math.cos(t3) * _cis(p2),
        s1 * math.sin(t3) * _cis(p3),
    ], dtype=np.complex128))


def prepare_5mode(theta1, theta2, theta3, theta4, phi1, phi2, phi3) -> PureState:
    """Restricted five-mode family reachable by the six-mode device.

    Not universal: amplitudes on modes 0 and 1 always share a phase. The
    family still contains tuples maximizing the six-state functional.
    """
    t1, t2, t3, t4, p1, p2, p3 = _finite_angles(theta1, theta2, theta3, theta4, phi1, phi2, phi3)
    s1, c1 = math.sin(t1), math.cos(t1)
    s1c2 = s1 * math.cos(t2)
    return PureState(np.array([
        s1c2 * math.sin(t4),
        s1c2 * math.cos(t4),
        s1 * math.sin(t2) * _cis(p1),
        c1 * math.sin(t3) * _cis(p2),
        c1 * math.cos(t3) * _cis(p3),
    ], dtype=np.complex128))


def pentagon_qubit_set() -> list[PureState]:
    """Five qubit states equally spaced on the Bloch equator.

    Polar angle pi/4 (so cos/sin amplitudes are balanced) and phases
    2 pi k / 5; this tuple maximizes the pentagon functional at
    5 sqrt(5) / 4.
    """
    return [qubit_state(np.pi / 4.0, 2.0 * np.pi * k / 5.0) for k in range(5)]


def qutrit_h4_set() -> list[PureState]:
    """Four qutrits reaching h_4 = 4/3, the d = 3 maximum.

    One reference state plus three states at equal overlap 5/9 with it and
    1/9 with each other.
    """
    s5 = np.sqrt(5.0) / 3.0
    return [
        PureState(np.array([1.0, 0.0, 0.0], dtype=np.complex128)),
        PureState(np.array([s5, 2.0 / 3.0, 0.0], dtype=np.complex128)),
        PureState(np.array([s5, -1.0 / 3.0, 1j / np.sqrt(3.0)])),
        PureState(np.array([s5, -1.0 / 3.0, -1j / np.sqrt(3.0)])),
    ]


def _star_ensemble_states(n: int, d: int) -> list[PureState]:
    """Reference state |0> plus n-1 states averaging to the optimal mean.

    The optimal mean operator is diagonal with the spectrum from
    `optimize._optimal_mean`; a uniform Fourier ensemble realizes it with
    n - 1 pure states, giving the exact h_n maximum at dimension d
    (2 <= d <= n-1).
    """
    lam, _ = _optimal_mean(n, d)
    rho = DensityMatrix(np.diag(lam).astype(np.complex128))
    return [basis_state(d, 0)] + uniform_pure_ensemble(rho, n - 1)


def _helmert_star_states(n: int) -> list[PureState]:
    """Reference state |0> plus n-1 real states averaging to the optimal mean.

    At d = n-1 the optimal mean is ``diag(x, y, ..., y)`` (`optimize._optimal_mean`).
    The rows of a d x d Helmert matrix H are orthonormal and its first is
    constant, so the columns ``v_k = (sqrt(x), sqrt(d y) H[1:, k])`` have
    unit norm (x + (d-1) y = 1) and average to that mean: the exact h_n
    maximum at d = n-1, with real amplitudes.
    """
    d = n - 1
    lam, _ = _optimal_mean(n, d)
    helmert = np.zeros((d, d))
    for j in range(1, d):
        helmert[j, :j] = 1.0 / math.sqrt(j * (j + 1))
        helmert[j, j] = -j / math.sqrt(j * (j + 1))
    cols = math.sqrt(d * lam[1]) * helmert[1:]
    return [basis_state(d, 0)] + [
        PureState(np.concatenate([[math.sqrt(lam[0])], cols[:, k]]).astype(np.complex128)) for k in range(d)]


def ququart_h5_set() -> list[PureState]:
    """Five ququarts reaching h_5 = 11/8 = 1.375, the d = 4 maximum."""
    return _star_ensemble_states(5, 4)


def ququart_parameters(state: PureState) -> np.ndarray:
    """Invert `prepare_ququart`: angles (t1, t2, t3, p1, p2, p3) for a state.

    The global phase is fixed so the mode-0 amplitude is real nonnegative.
    """
    v = np.asarray(state.amplitudes)
    if v.size != 4:
        raise ValidationError("expected a 4-dimensional state")
    if abs(v[0]) > 0:
        v = v * np.exp(-1j * np.angle(v[0]))
    c1 = np.hypot(abs(v[0]), abs(v[1]))
    s1 = np.hypot(abs(v[2]), abs(v[3]))
    t1 = np.arctan2(s1, c1)
    t2 = np.arctan2(abs(v[1]), abs(v[0]))
    t3 = np.arctan2(abs(v[3]), abs(v[2]))
    p1 = float(np.angle(v[1])) if abs(v[1]) > 0 else 0.0
    p2 = float(np.angle(v[2])) if abs(v[2]) > 0 else 0.0
    p3 = float(np.angle(v[3])) if abs(v[3]) > 0 else 0.0
    return np.array([t1, t2, t3, p1, p2, p3])


def five_mode_parameters(state: PureState) -> np.ndarray:
    """Invert `prepare_5mode`: angles (t1, t2, t3, t4, p1, p2, p3) for a state.

    The global phase is fixed so the larger of the mode-0 and mode-1
    amplitudes is real, keeping its sign if it is real already; the family
    then needs the other one real as well, else the state is outside it.
    """
    v = np.asarray(state.amplitudes)
    if v.size != 5:
        raise ValidationError("expected a 5-dimensional state")
    ref = v[0] if abs(v[0]) >= abs(v[1]) else v[1]
    v = v * np.exp(-1j * (np.angle(ref) % np.pi))
    if abs(v[0].imag) + abs(v[1].imag) > 1e-12:
        raise ValidationError("state is outside the five-mode family: modes 0 and 1 differ in phase")
    a0, a1 = float(v[0].real), float(v[1].real)
    r01 = math.hypot(a0, a1)
    t1 = math.atan2(math.hypot(r01, abs(v[2])), math.hypot(abs(v[3]), abs(v[4])))
    t2 = math.atan2(abs(v[2]), r01)
    t3 = math.atan2(abs(v[3]), abs(v[4]))
    t4 = math.atan2(a0, a1)
    p1, p2, p3 = (float(np.angle(z)) if abs(z) > 0 else 0.0 for z in v[2:])
    return np.array([t1, t2, t3, t4, p1, p2, p3])


def h5_ququart_parameters() -> list[np.ndarray]:
    """Circuit angles preparing the exact h_5-maximizing ququart tuple."""
    return [ququart_parameters(s) for s in ququart_h5_set()]


# Forward-difference step of the family Jacobian: the square root of the
# machine epsilon, rounded, so the difference error and the rounding error
# are of the same size.
_FAMILY_STEP = 1e-8

# Stop rules of the family ascent, the defaults of L-BFGS-B: a relative gain
# of at most factr * eps with factr = 1e7, a gradient max-norm of at most
# pgtol, or a step cap; and its memory of 10 curvature pairs.
_LBFGS_MEMORY = 10
_LBFGS_GAIN_TOL = 2.22e-9
_LBFGS_GRAD_TOL = 1e-5
_LBFGS_MAX_STEPS = 15_000
_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking search
_MAX_BACKTRACKS = 20  # trial steps per search, as L-BFGS-B's maxls: the last is 2**-19 of the unit step


def _family_value_and_grad(
    spec: InequalitySpec,
    family: Callable[[np.ndarray], PureState],
    params_per_state: int,
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Functional value and gradient over a family's stacked angle vector.

    The amplitude gradient of the functional is exact: state k ascends along
    ``g_k = ((W o G) psi)_k`` with ``G = psi psi^dagger``, and an angle t of
    state k moves the value by ``2 Re <g_k | d psi_k / dt>``. Only the family
    Jacobian ``d psi_k / dt`` is a forward difference, and an angle of state
    k moves only psi_k, so one evaluation costs ``n (params_per_state + 1)``
    family calls, made over one array of probe rows: each state's angles,
    then those angles moved by each unit step.
    """
    n = spec.n
    w = spec.weight_matrix()
    steps = _FAMILY_STEP * np.eye(params_per_state)

    def value_and_grad(flat: np.ndarray) -> tuple[float, np.ndarray]:
        rows = flat.reshape(n, params_per_state)[:, None]
        probes = np.concatenate([rows, rows + steps], axis=1)  # (n, p + 1, p)
        probed = np.array([family(q).amplitudes for q in probes.reshape(-1, params_per_state)])
        probed = probed.reshape(n, params_per_state + 1, -1)
        amps = probed[:, 0].copy()  # contiguous: BLAS may round a strided operand differently
        jac = (probed[:, 1:] - amps[:, None, :]) / _FAMILY_STEP
        gram = amps @ amps.conj().T
        value = 0.5 * float(np.sum(w * (gram.real**2 + gram.imag**2)))
        g = (w * gram) @ amps
        grad = 2.0 * np.einsum("ka,kta->kt", g.conj(), jac).real
        return value, grad.ravel()

    return value_and_grad


def _lbfgs_ascent(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Limited-memory BFGS ascent (Liu & Nocedal, Math. Prog. 45, 1989).

    The direction is the two-loop product of the last `_LBFGS_MEMORY`
    curvature pairs with the gradient (the first step has length 1 along the
    gradient); a pair whose ``s . y`` is not positive is skipped, so the
    inverse-Hessian model stays positive definite. Each step backtracks by
    halving from the unit step until the Armijo rule holds, so the value
    never falls; if no trial passes, the ascent stops where it is. Returns
    the last point and its value.
    """
    x = np.array(x0, dtype=float)
    value, grad = value_and_grad(x)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_LBFGS_MEMORY)
    for _ in range(_LBFGS_MAX_STEPS):
        if np.max(np.abs(grad)) <= _LBFGS_GRAD_TOL:
            break
        d = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        else:
            d /= np.linalg.norm(d)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        slope, t = grad @ d, 1.0
        for _ in range(_MAX_BACKTRACKS):
            new_value, new_grad = value_and_grad(x + t * d)
            if new_value >= value + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        s, y = t * d, grad - new_grad  # y is the change of the gradient of -f
        sy = s @ y
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        gain = new_value - value
        x, value, grad = x + s, new_value, new_grad
        if gain <= _LBFGS_GAIN_TOL * max(abs(value), abs(value - gain), 1.0):
            break
    return x, value


def maximize_pure_family(
    spec: InequalitySpec,
    family: Callable[[np.ndarray], PureState],
    params_per_state: int,
    restarts: int = 20,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Maximize an inequality functional within a parameterized state family.

    Multi-start L-BFGS ascent (`_lbfgs_ascent`) over the stacked angle
    vector (one row of ``params_per_state`` angles per state), fed value and
    gradient by one call of `_family_value_and_grad`: the functional's
    gradient in the amplitudes is exact, chained through a forward-difference
    Jacobian of the family, so each evaluation makes
    ``n (params_per_state + 1)`` family calls (48 for six five-mode states).
    Returns the best parameter matrix and its functional value;
    deterministic for a fixed seed.
    """
    rng = make_rng(seed)
    n = spec.n
    value_and_grad = _family_value_and_grad(spec, family, params_per_state)
    best_val, best_x = -np.inf, None
    for _ in range(restarts):
        x0 = rng.uniform(0.0, 2.0 * np.pi, n * params_per_state)
        x, value = _lbfgs_ascent(value_and_grad, x0)
        if value > best_val:
            best_val, best_x = value, x
    return best_x.reshape(n, params_per_state), best_val


def five_mode_h6_parameters() -> tuple[np.ndarray, float]:
    """Angles of six restricted five-mode states maximizing h_6, and its value.

    The states are `_helmert_star_states(6)`: real, so they lie in the
    `prepare_5mode` family, and `five_mode_parameters` inverts each one.
    The value is h_6 of the states the angles prepare, the d = 5 maximum
    1.4 up to rounding.
    """
    params = np.array([five_mode_parameters(s) for s in _helmert_star_states(6)])
    value = evaluate_states(make_hn(6), [prepare_5mode(*p) for p in params])
    return params, value


# --- counts, noise, dispersion --------------------------------------------

@dataclass(frozen=True)
class CountRecord:
    """Photon counts at the projection port and everywhere else.

    ``sigma_c`` is the Poissonian standard error sqrt(k)/N per port.
    Counts sum to at most ``total_trials`` (lost trials are unrecorded).
    """

    counts: tuple[int, ...]
    total_trials: int

    @property
    def estimated_probability(self) -> tuple[float, ...]:
        return tuple(k / self.total_trials for k in self.counts)

    @property
    def sigma_c(self) -> tuple[float, ...]:
        return tuple(float(np.sqrt(k)) / self.total_trials for k in self.counts)


@dataclass(frozen=True)
class CountEstimate:
    """Inequality value assembled from per-edge count records."""

    value: float
    sigma: float
    records: dict[tuple[int, int], CountRecord]


@dataclass(frozen=True)
class AngleNoise:
    """Angle-setting error model: relative scale error and additive bias.

    Each angle a is drawn as ``a (1 + relative u) + additive v`` with u, v
    independent in [-1, 1].
    """

    relative: float = 0.0
    additive: float = 0.0

    def __post_init__(self):
        if self.relative < 0 or self.additive < 0:
            raise ValidationError("noise magnitudes must be nonnegative")

    def perturb(self, angles: np.ndarray, rng: np.random.Generator, corners: bool = False) -> np.ndarray:
        """One perturbation draw; ``corners=True`` samples the error-cube corners."""
        if corners:
            u = np.sign(rng.uniform(-1.0, 1.0, angles.shape))
            v = np.sign(rng.uniform(-1.0, 1.0, angles.shape))
        else:
            u = rng.uniform(-1.0, 1.0, angles.shape)
            v = rng.uniform(-1.0, 1.0, angles.shape)
        return angles * (1.0 + self.relative * u) + self.additive * v


@dataclass(frozen=True)
class DispersionResult:
    """Envelope of an inequality value under angle-setting errors."""

    values: np.ndarray
    ideal_value: float

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def half_width(self) -> float:
        return (self.max_value - self.min_value) / 2.0


def hyperspherical_angles(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Chain angles (thetas, phis) of any pure state.

    ``a_0 = cos(t_1)``, ``a_k = prod_{j<=k} sin(t_j) cos(t_{k+1}) e^{i p_k}``
    with the last cosine absent on the final level; the global phase is
    fixed so a_0 is real nonnegative. Inverse of `state_from_hyperspherical`.
    """
    v = np.asarray(state.amplitudes)
    d = v.size
    if d < 2:
        return np.zeros(0), np.zeros(0)
    if abs(v[0]) > 0:
        v = v * np.exp(-1j * np.angle(v[0]))
    mags = np.abs(v)
    tails = np.sqrt(np.maximum(np.cumsum(mags[::-1] ** 2)[::-1], 0.0))
    thetas = np.array([np.arctan2(tails[k + 1] if k + 1 < d else 0.0, mags[k])
                       for k in range(d - 1)])
    phis = np.array([float(np.angle(v[k])) if mags[k] > 0 else 0.0 for k in range(1, d)])
    return thetas, phis


def _chain(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Amplitudes of the hyperspherical chain: (..., d-1) angles -> (..., d).

    ``a_k = prod_{j<k} sin(t_j) cos(t_k) e^{i p_{k-1}}`` (no phase on a_0, no
    cosine on a_{d-1}); unit norm up to rounding.
    """
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    ones = np.ones(thetas.shape[:-1] + (1,))
    amps = np.cumprod(np.concatenate([ones, np.sin(thetas)], axis=-1), axis=-1).astype(np.complex128)
    amps[..., :-1] *= np.cos(thetas)
    amps[..., 1:] = amps[..., 1:] * np.exp(1j * phis)
    return amps


def state_from_hyperspherical(thetas: np.ndarray, phis: np.ndarray) -> PureState:
    """Rebuild a pure state from chain angles; unit norm by construction."""
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    if phis.size != thetas.size:
        raise ValidationError("need one phase per level past the first")
    return PureState.normalized(_chain(thetas, phis))


def overlap_via_counts(
    prep: PureState,
    meas: PureState,
    trials: int,
    seed,
    noise: AngleNoise | None = None,
    loss: float = 0.0,
    dark: float = 0.0,
) -> CountRecord:
    """Estimate |<meas|prep>|^2 from simulated photon counting.

    Each heralded photon is one Bernoulli trial at the projection port.
    With ``noise``, the chain angles of both stages are perturbed
    independently before computing the detection probability. Lost trials
    record nothing; dark counts fire on otherwise empty trials, so counts
    never exceed ``trials``.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if not 0.0 <= loss < 1.0 or not 0.0 <= dark < 1.0:
        raise ValidationError("loss and dark rates must lie in [0, 1)")
    rng = make_rng(seed)
    if noise is not None:
        t_p, p_p = hyperspherical_angles(prep)
        t_m, p_m = hyperspherical_angles(meas)
        prep = state_from_hyperspherical(noise.perturb(t_p, rng), noise.perturb(p_p, rng))
        meas = state_from_hyperspherical(noise.perturb(t_m, rng), noise.perturb(p_m, rng))
    p = overlap(prep, meas)
    kept = int(rng.binomial(trials, 1.0 - loss)) if loss > 0 else trials
    hits = int(rng.binomial(kept, p))
    dark_hits = int(rng.binomial(trials - kept, dark)) if dark > 0 and trials > kept else 0
    return CountRecord(counts=(hits + dark_hits, kept - hits), total_trials=trials)


def estimate_inequality_via_counts(
    spec: InequalitySpec,
    states: Sequence[PureState],
    trials_per_overlap: int,
    seed: int,
    noise: AngleNoise | None = None,
) -> CountEstimate:
    """Estimate an inequality value by count-sampling every edge overlap.

    Each edge gets its own child stream, so the result is deterministic
    and independent of evaluation order. The quoted ``sigma`` combines the
    per-edge Poissonian errors in quadrature with the edge weights.
    """
    if len(states) != spec.n:
        raise ValidationError(f"spec expects {spec.n} states, got {len(states)}")
    edges = sorted(spec.weights)
    seeds = split_seeds(seed, len(edges))
    records: dict[tuple[int, int], CountRecord] = {}
    value = 0.0
    var = 0.0
    for (i, j), ss in zip(edges, seeds):
        rec = overlap_via_counts(states[i], states[j], trials_per_overlap,
                                 np.random.Generator(np.random.PCG64(ss)), noise=noise)
        records[(i, j)] = rec
        w = spec.weights[(i, j)]
        value += w * rec.estimated_probability[0]
        var += (w * rec.sigma_c[0]) ** 2
    return CountEstimate(value=value, sigma=float(np.sqrt(var)), records=records)


def dispersion(
    spec: InequalitySpec,
    state_params: Sequence[np.ndarray],
    eps: float,
    delta: float,
    trials_mc: int,
    seed: int = 0,
    family: Callable[[np.ndarray], PureState] | None = None,
) -> DispersionResult:
    """Envelope of the inequality value under angle-setting errors.

    ``eps`` is the relative error and ``delta`` the additive bias (radians)
    on every circuit angle. Preparation and measurement stages are
    perturbed independently, so the sampled overlap matrix is generally
    not symmetric; the functional reads the (i, j), i < j entries with
    state i prepared and state j measured. Half of the Monte-Carlo draws
    sample the corners of the error cube, where the extremes of a locally
    linear response live, which tightens the envelope estimate.

    ``state_params`` holds one angle vector per state for ``family``
    (default: the hyperspherical chain, angles then phases concatenated).
    All perturbations are drawn in one call, in the order of one
    `AngleNoise.perturb` call per trial, stage and state, and all draws are
    scored at once; a custom ``family`` is called once per perturbed vector.
    """
    if not (0 <= eps < np.inf and 0 <= delta < np.inf):  # also rejects NaN
        raise ValidationError("error magnitudes must be finite and nonnegative")
    if trials_mc < 1:
        raise ValidationError("need at least one Monte-Carlo trial")
    params = [np.asarray(p, dtype=float) for p in state_params]
    if len(params) != spec.n:
        raise ValidationError(f"spec expects {spec.n} parameter vectors")
    if not all(np.all(np.isfinite(p)) for p in params):
        raise ValidationError("circuit angles must be finite")
    if family is None:
        for p in params:
            if p.size % 2:
                raise ValidationError("need one phase per level past the first")

        def amplitudes(angles: np.ndarray) -> np.ndarray:
            half = angles.shape[-1] // 2
            return _chain(angles[..., :half], angles[..., half:])
    else:
        def amplitudes(angles: np.ndarray) -> np.ndarray:
            flat = angles.reshape(-1, angles.shape[-1])
            return np.array([family(a).amplitudes for a in flat]).reshape(angles.shape[:-1] + (-1,))

    # The draws of `AngleNoise.perturb`, all at once: per trial, stage
    # (prep, meas) and state, the relative then the additive errors; odd
    # trials take the corners of the error cube.
    rng = make_rng(seed)
    sizes = [p.size for p in params]
    u = rng.uniform(-1.0, 1.0, (trials_mc, 2, 2 * sum(sizes)))
    u[1::2] = np.sign(u[1::2])
    offsets = np.cumsum([0] + [2 * k for k in sizes])
    drawn = np.stack([
        amplitudes(p * (1.0 + eps * u[..., o:o + p.size]) + delta * u[..., o + p.size:o + 2 * p.size])
        for p, o in zip(params, offsets)
    ], axis=2)  # (trials, stage, state, d)
    weights = np.triu(spec.weight_matrix(), 1)
    ideal = np.stack([amplitudes(p) for p in params])
    values = _ordered_values(weights, drawn[:, 0], drawn[:, 1])
    values.setflags(write=False)
    return DispersionResult(values=values, ideal_value=float(_ordered_values(weights, ideal, ideal)))


def _ordered_values(weights: np.ndarray, prep: np.ndarray, meas: np.ndarray) -> np.ndarray:
    """Functional with edge (i, j), i < j, read as |<meas_j|prep_i>|^2.

    ``prep`` and ``meas`` hold amplitudes (..., n, d); ``weights`` is the
    upper-triangular edge matrix.
    """
    g = np.einsum("...ja,...ia->...ij", meas.conj(), prep)
    return np.einsum("...ij,ij->...", g.real**2 + g.imag**2, weights)


# --- thermo-optic calibration ----------------------------------------------

@dataclass(frozen=True)
class CalibrationModel:
    """Phase response of the heaters: theta_i = theta0_i + sum_j alpha_ij I_j^2 (1 + beta_j I_j^2).

    ``alpha`` couples heater currents to cell phases; thermal crosstalk is
    negligible between mesh columns, so entries pairing different columns
    must vanish.
    """

    theta0: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    heater_columns: tuple[int, ...]

    def __post_init__(self):
        t0 = np.array(self.theta0, dtype=float)
        a = np.array(self.alpha, dtype=float)
        b = np.array(self.beta, dtype=float)
        k = t0.size
        if a.shape != (k, k) or b.shape != (k,):
            raise ValidationError("alpha must be k x k and beta length k")
        cols = tuple(int(c) for c in self.heater_columns)
        if len(cols) != k:
            raise ValidationError("need one column index per heater")
        for i in range(k):
            for j in range(k):
                if a[i, j] != 0.0 and cols[i] != cols[j]:
                    raise ValidationError(
                        f"alpha[{i},{j}] couples heaters in different columns")
        for arr in (t0, a, b):
            arr.setflags(write=False)
        object.__setattr__(self, "theta0", t0)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "heater_columns", cols)


def calibration_forward(model: CalibrationModel, currents: Sequence[float]) -> np.ndarray:
    """Cell phases produced by the given heater currents (amperes)."""
    i = np.asarray(currents, dtype=float)
    if i.shape != model.theta0.shape:
        raise ValidationError("need one current per heater")
    if np.any(~np.isfinite(i)) or np.any(i < 0):
        raise ValidationError("currents must be finite and nonnegative")
    drive = i**2 * (1.0 + model.beta * i**2)
    return model.theta0 + model.alpha @ drive


# Frequencies of the demodulation scan, and the fine block of its factored
# table: frequency k = 64 q + r of the grid is the coarse step q plus the
# fine step r.
_SCAN_POINTS = 4000
_SCAN_BLOCK = 64

# Stopping tolerances of the Levenberg-Marquardt refinement: MINPACK's
# defaults (the square root of the double-precision epsilon) for the
# relative cost decrease and the relative step; and a cap on its steps
# (a sweep in the benchmark's ranges takes 3-11).
_LM_FTOL = 1.49012e-8
_LM_XTOL = 1.49012e-8
_LM_MAX_ITER = 200


def _demodulation_scan(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies a and the demodulated response z(a) = mean(y exp(-i a x)).

    The grid runs over positive frequencies up to the sampling limit. Its
    frequency a_lo + k step, k = 64 q + r, factors exp(-i a x) into a
    coarse table over q and a fine table over r, so the whole scan is one
    small matrix product instead of one exponential per frequency and point.
    """
    x_span = float(x[-1] - x[0])
    dx = float(np.max(np.diff(x))) if x.size > 1 else 1.0
    a_lo = 0.2 * 2.0 * np.pi / max(x_span, 1e-12)
    a_hi = np.pi / max(dx, 1e-12)
    alphas = np.linspace(a_lo, a_hi, _SCAN_POINTS)
    step = (a_hi - a_lo) / (_SCAN_POINTS - 1)
    coarse_steps = -(-_SCAN_POINTS // _SCAN_BLOCK)
    coarse = np.exp(-1j * (a_lo + _SCAN_BLOCK * step * np.arange(coarse_steps))[:, None] * x)
    fine = np.exp(-1j * (step * np.arange(_SCAN_BLOCK))[:, None] * x)
    z = ((y * coarse) @ fine.T).ravel()[:_SCAN_POINTS] / x.size
    return alphas, z


def _demodulation_init(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Initial (theta0, alpha) for y ~ cos(theta0 + alpha x).

    The peak of the demodulated response sits at the true alpha with phase
    theta0. Robust to the arccos fold ambiguity and to noise, unlike
    pointwise phase unwrapping.
    """
    alphas, z = _demodulation_scan(x, y)
    k = int(np.argmax(np.abs(z)))
    return float(np.angle(z[k])), float(alphas[k])


def _power_model(x: np.ndarray, theta0: float, alpha: float, beta: float) -> np.ndarray:
    """Cross power (1 + cos theta) / 2 at squared currents ``x``."""
    return (1.0 + np.cos(theta0 + alpha * x * (1.0 + beta * x))) / 2.0


def _levenberg_marquardt(x: np.ndarray, p: np.ndarray, start: tuple[float, float, float]) -> np.ndarray:
    """Least-squares (theta0, alpha, beta) of `_power_model` to powers ``p``.

    Levenberg-Marquardt on the 3 x 3 normal equations of the closed-form
    Jacobian, damped in proportion to their diagonal. Only steps that lower
    the cost are taken, so the result is never worse than ``start``. It
    stops when a taken step lowers the cost by at most ``_LM_FTOL`` of it,
    or when a refused step is at most ``_LM_XTOL`` of the parameters, both
    measured in the Jacobian's column scale.
    """
    params = np.array(start, dtype=float)

    def residual_and_jacobian(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta0, alpha, beta = q
        drive = x * (1.0 + beta * x)
        phase = theta0 + alpha * drive
        s = -0.5 * np.sin(phase)
        jac = np.stack([s, s * drive, s * alpha * x * x], axis=1)
        return (1.0 + np.cos(phase)) / 2.0 - p, jac

    r, jac = residual_and_jacobian(params)
    cost = float(r @ r)
    damping = 1e-3
    for _ in range(_LM_MAX_ITER):
        normal = jac.T @ jac
        scale = np.diag(normal).copy()
        scale[scale == 0.0] = 1.0
        step = np.linalg.solve(normal + damping * np.diag(scale), -(jac.T @ r))
        trial = params + step
        r_trial, jac_trial = residual_and_jacobian(trial)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost:
            converged = cost - cost_trial <= _LM_FTOL * cost
            params, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            damping /= 10.0
        else:
            norm = np.sqrt(scale)
            converged = np.linalg.norm(norm * step) <= _LM_XTOL * np.linalg.norm(norm * params)
            damping *= 10.0
        if converged:
            break
    return params


def _fit_single_heater(currents: np.ndarray, powers: np.ndarray) -> tuple[float, float, float, float]:
    """Staged fit of one heater's (theta0, alpha, beta) from a power sweep.

    Demodulation in the I^2 coordinate initializes (theta0, alpha) with
    beta = 0; a least-squares pass on the power curve then refines all
    three. Coverage is judged from the fitted model, not the raw sweep.
    """
    if currents.size < 8:
        raise CalibrationCoverageError(
            f"need at least 8 sweep points per heater, got {currents.size}")
    order = np.argsort(currents)
    i_s, p_s = currents[order], np.clip(powers[order], 0.0, 1.0)
    x = i_s**2
    theta0_0, alpha_0 = _demodulation_init(x, 2.0 * p_s - 1.0)
    theta0_f, alpha_f, beta_f = (float(v) for v in _levenberg_marquardt(x, p_s, (theta0_0, alpha_0, 0.0)))
    if alpha_f < 0.0:
        # the power curve cannot tell (theta0, alpha) from (-theta0, -alpha);
        # heating only ever adds phase, so pin the positive branch
        theta0_f, alpha_f = -theta0_f, -alpha_f
    residual = float(np.sqrt(np.mean((_power_model(x, theta0_f, alpha_f, beta_f) - p_s) ** 2)))
    span = abs(alpha_f) * float(x[-1]) * abs(1.0 + beta_f * float(x[-1]))
    if span < 2.0 * np.pi:
        raise CalibrationCoverageError(
            f"sweep induces only {span:.3f} rad of phase; need at least 2*pi "
            "to identify the response")
    return float(np.mod(theta0_f, 2.0 * np.pi)), alpha_f, beta_f, residual


def calibration_fit(
    sweeps: Sequence[tuple[np.ndarray, np.ndarray]],
    heater_columns: Sequence[int] | None = None,
) -> tuple[CalibrationModel, np.ndarray]:
    """Fit the calibration model from per-heater (current, cross-power) sweeps.

    Heaters are characterized in isolation, so the fitted coupling matrix
    is diagonal. Returns the model and the per-heater RMS power residuals.
    Raises `ValidationError` for a non-finite sample, and
    `CalibrationCoverageError` when a sweep is too short or spans
    less than 2*pi of induced phase (a flat sweep is unidentifiable).
    """
    k = len(sweeps)
    if k == 0:
        raise ValidationError("need at least one heater sweep")
    cols = tuple(range(k)) if heater_columns is None else tuple(int(c) for c in heater_columns)
    theta0 = np.zeros(k)
    alpha = np.zeros((k, k))
    beta = np.zeros(k)
    residuals = np.zeros(k)
    for h, (cur, pw) in enumerate(sweeps):
        cur = np.asarray(cur, dtype=float)
        pw = np.asarray(pw, dtype=float)
        if cur.shape != pw.shape:
            raise ValidationError(f"sweep {h}: current and power arrays differ in length")
        if not (np.all(np.isfinite(cur)) and np.all(np.isfinite(pw))):
            raise ValidationError(f"sweep {h}: currents and powers must be finite")
        theta0[h], alpha[h, h], beta[h], residuals[h] = _fit_single_heater(cur, pw)
    return CalibrationModel(theta0=theta0, alpha=alpha, beta=beta, heater_columns=cols), residuals


# --- fidelity ---------------------------------------------------------------

def fidelity(t: np.ndarray, t_exp: np.ndarray) -> float:
    """Amplitude fidelity (1/m) Tr(|T^dagger| |T_exp|), moduli taken elementwise.

    Insensitive to output phases: multiplying ``t_exp`` by any diagonal
    phase matrix leaves it unchanged; equals 1 iff the moduli coincide.
    """
    a = np.asarray(t)
    b = np.asarray(t_exp)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("fidelity needs two square matrices of equal dimension")
    return float(np.sum(np.abs(a) * np.abs(b)) / a.shape[0])


@dataclass(frozen=True)
class FidelityStudy:
    """Fidelity distribution of a mesh with mis-set phases."""

    samples: np.ndarray
    sigma_rad: float

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        return float(self.samples.std())


def perturbed_mesh_fidelity_study(
    modes: int = 6,
    n_unitaries: int = 100,
    sigma_rad: float = 0.1,
    seed: int = 0,
) -> FidelityStudy:
    """Implementation accuracy of random unitaries under phase-setting noise.

    For each Haar target: decompose, add independent Gaussian errors of
    ``sigma_rad`` radians to every internal and external phase, recompose,
    and score with `fidelity`. The default error scale is chosen so a
    six-mode mesh lands in the high-99% fidelity regime typical of a
    calibrated thermo-optic device.

    Each target and then its errors (one (theta, phi) pair per cell, in
    `decompose`'s cell order) are drawn in turn; all targets then come from
    one stacked QR, are nulled in one `_null_stack` pass and recomposed,
    noisy, in one `_compose_stack` call, bitwise the same as the
    unitary-by-unitary route. Errors that overflow to infinity raise
    `NumericalError`.
    """
    if modes < 2:
        raise ValidationError("a mesh needs at least 2 modes")
    if n_unitaries < 1:
        raise ValidationError(f"need at least one unitary, got {n_unitaries}")
    if not (np.isfinite(sigma_rad) and sigma_rad >= 0):
        raise ValidationError(f"sigma_rad must be finite and nonnegative, got {sigma_rad!r}")
    cells = modes * (modes - 1) // 2
    # One row of draws per target: the stream of two standard_normal((modes,
    # modes)) calls and then normal(0, sigma_rad, (cells, 2)), which is
    # 0.0 + sigma_rad * standard_normal((cells, 2)) value by value.
    size = modes * modes
    draws = make_rng(seed).standard_normal((n_unitaries, 2 * size + 2 * cells))
    re = draws[:, :size].reshape(n_unitaries, modes, modes)
    im = draws[:, size:2 * size].reshape(n_unitaries, modes, modes)
    with np.errstate(over="ignore"):
        noise = 0.0 + sigma_rad * draws[:, 2 * size:].reshape(n_unitaries, cells, 2)
    if not np.isfinite(noise).all():
        raise NumericalError(f"phase errors of sigma_rad={sigma_rad!r} overflow to infinity")
    targets = _haar_from_ginibre(re, im)
    rows, cols, theta, phi, out_phases = _null_stack(targets)
    noisy = _compose_stack(modes, rows, cols, np.mod(theta + noise[..., 0], _TWO_PI),
                           np.mod(phi + noise[..., 1], _TWO_PI), out_phases)
    # `fidelity` of each (target, noisy) pair
    samples = (np.abs(targets) * np.abs(noisy)).reshape(n_unitaries, -1).sum(axis=1) / modes
    if not np.isfinite(samples).all():
        raise NumericalError("fidelity samples are not finite")
    samples.setflags(write=False)
    return FidelityStudy(samples=samples, sigma_rad=sigma_rad)
