"""Interaction-free interrogation task and its robustness to depolarization.

The task: detect a photon-absorbing object in one interferometer arm
without the photon being absorbed. Its efficiency is
``eta = p_succ / (p_succ + p_abs)``. Quantum strategies beat every
noncontextual model for a range of beam-splitter settings; depolarizing
noise shrinks that gap and closes it at a crossover noise level.

Two parameterizations appear side by side and both are kept:

* the main-curve reflectivity ``r`` (with ``r = sin(theta)`` for the
  beam-splitter angle) used by `eta_ideal` / `eta_noisy`;
* the preparation angle ``theta`` of the states
  ``|theta> = cos(theta)|0> + sin(theta)|1>`` used by the depolarized
  formulas. They agree through the substitution q = Tr(rho_0 rho_theta):
  both efficiencies reduce to q / (q + 1), with q = cos^2(theta) for pure
  states. Fixed-angle checks in the tests are keyed on theta = 5pi/6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inequalities import evaluate_states, make_h3_robust
from .states import DensityMatrix, ValidationError, _is_finite_real, depolarize, qubit_state

__all__ = [
    "InterrogationPoint",
    "HexagonFragment",
    "RobustnessCurve",
    "interrogation_point",
    "eta_ideal",
    "eta_noisy",
    "depolarized_overlap",
    "eta_quantum_depolarized",
    "eta_nc_bound",
    "crossover_nu",
    "hexagon",
    "h3_robust",
    "robustness_curve",
]

NOISE_ENVELOPE = 0.005  # model validity cap for eps, n1, n2

# the spec `h3_robust` evaluates; `make_h3_robust` hands callers their own
_H3_ROBUST = make_h3_robust()


@dataclass(frozen=True)
class InterrogationPoint:
    """Success/absorption bookkeeping at one reflectivity setting."""

    r: float
    p_succ: float
    p_abs: float
    eta: float


@dataclass(frozen=True)
class HexagonFragment:
    """Six preparations on one great circle, pairwise antipodal.

    Order: (|0>, |theta>, |-theta>, |1>, |theta_perp>, |-theta_perp>),
    each depolarized by ``nu``. ``equivalence_deviation`` is the largest
    Frobenius distance of an antipodal-pair average from the maximally
    mixed state; depolarization preserves the equivalences, so it is zero
    up to rounding for synthetic fragments.
    """

    theta: float
    nu: float
    states: tuple[DensityMatrix, ...]

    @property
    def equivalence_deviation(self) -> float:
        half_eye = np.eye(2) / 2.0
        return max(
            float(np.linalg.norm((self.states[i].entries + self.states[i + 3].entries) / 2.0 - half_eye))
            for i in range(3)
        )


@dataclass(frozen=True)
class RobustnessCurve:
    """Quantum and noncontextual efficiencies over a noise grid."""

    theta: float
    points: tuple[tuple[float, float, float], ...]  # (nu, eta_quantum, eta_nc)

    @property
    def crossover_nu(self) -> float | None:
        """`crossover_nu` of ``theta``, or None without a contextual gap."""
        try:
            return crossover_nu(self.theta)
        except ValidationError:
            return None


def interrogation_point(
    r: float,
    eps: float = 0.0,
    n1: float = 0.0,
    n2: float = 0.0,
    sign: int = +1,
) -> InterrogationPoint:
    """Success and absorption probabilities at reflectivity ``r``.

    Ideal model: ``p_succ = r (1 - r)`` and ``p_abs = 1 - r``. The noisy
    variant perturbs the second splitter by a relative mismatch
    ``(1 +/- eps)`` and adds dark-count ratios ``n1`` (success port) and
    ``n2`` (absorption port), reproducing
    ``eta = (r(1-(1±eps)r) + n1) / (r(1-(1±eps)r) - r + 1 + n1 + n2)``.
    """
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"reflectivity must lie in [0, 1], got {r!r}")
    for name, val in (("eps", eps), ("n1", n1), ("n2", n2)):
        if not 0.0 <= val <= NOISE_ENVELOPE:
            raise ValidationError(f"{name} must lie in [0, {NOISE_ENVELOPE}], got {val!r}")
    if sign not in (+1, -1):
        raise ValidationError("sign selects the +/- branch and must be +1 or -1")
    p_succ = r * (1.0 - (1.0 + sign * eps) * r) + n1
    p_abs = 1.0 - r + n2
    denom = p_succ + p_abs
    if denom <= 0.0:
        if eps == n1 == n2 == 0.0 and r == 1.0:
            # removable 0/0 point of the ideal curve; defined as 0
            return InterrogationPoint(r=1.0, p_succ=0.0, p_abs=0.0, eta=0.0)
        raise ValidationError("success + absorption probability is not positive; outside model validity")
    return InterrogationPoint(r=r, p_succ=p_succ, p_abs=p_abs, eta=p_succ / denom)


def eta_ideal(r: float) -> float:
    """Noiseless interrogation efficiency r(1-r) / (r(1-r) - r + 1).

    ``eta_ideal(1)`` is defined as 0 (both probabilities vanish there).
    """
    return interrogation_point(r).eta


def eta_noisy(r: float, eps: float, n1: float, n2: float, sign: int = +1) -> float:
    """Efficiency with splitter mismatch and dark counts; see `interrogation_point`."""
    return interrogation_point(r, eps=eps, n1=n1, n2=n2, sign=sign).eta


def _noise_terms(nu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``nu`` as a float array, every entry checked to lie in [0, 1], with
    the terms every depolarized overlap shares: ``(1-nu)^2`` and ``nu^2/2``."""
    nu = np.asarray(nu, dtype=float)
    outside = ~((nu >= 0.0) & (nu <= 1.0))  # also catches NaN
    if outside.any():
        raise ValidationError(f"nu must lie in [0, 1], got {float(nu[outside][0])!r}")
    return nu, _squared(1.0 - nu), _squared(nu) / 2.0


def _squared(x):
    """``x ** 2`` as libm ``pow`` rounds it, elementwise on arrays too.

    A float's ``**`` calls ``pow``; an array's ``**`` squares by
    multiplication, which rounds differently in about 0.1 % of inputs.
    `np.float_power` calls ``pow`` per element, so a point of a curve
    evaluated on a whole grid is bitwise the scalar call at its ``nu``.
    """
    return np.float_power(x, 2)


def _check_angle(theta) -> None:
    if not _is_finite_real(theta):
        raise ValidationError(f"theta must be a finite real number, got {theta!r}")


def _depolarized(q, terms):
    """``(1-nu)^2 q + nu - nu^2/2`` from the `_noise_terms` of ``nu``."""
    nu, a, half_sq = terms
    return a * q + nu - half_sq


def depolarized_overlap(q, nu):
    """Overlap of two qubit states after both pass the depolarizing channel.

    For pure states with overlap ``q``:
    ``(1-nu)^2 q + nu - nu^2/2``. The additive part at q = 1 gives the
    self-overlap ``1 - nu + nu^2/2``, i.e. the discrimination error
    ``eps_i = nu - nu^2/2`` used by the robust bound. Takes arrays of
    ``q`` and ``nu`` elementwise.
    """
    return _depolarized(q, _noise_terms(nu))


def _efficiencies(theta, nu):
    """`eta_quantum_depolarized` and `eta_nc_bound` at ``theta`` over ``nu``.

    Checks ``theta`` and ``nu`` once and forms the terms the two share
    once: the noise terms, ``Q = Tr(rho_0 rho_theta)`` and ``Q + 1``.
    """
    _check_angle(theta)
    terms = _noise_terms(nu)
    nu, _, half_sq = terms
    eps = nu - half_sq
    # Tr(rho_0 rho_-theta) equals Tr(rho_0 rho_theta)
    q = _depolarized(np.cos(theta) ** 2, terms)
    r_plus_minus = _depolarized(np.cos(2.0 * theta) ** 2, terms)
    q1 = q + 1.0
    return q / q1, (1.0 + 3.0 * eps - q + r_plus_minus) / q1


def eta_quantum_depolarized(theta, nu):
    """Quantum efficiency with depolarized preparations and effects.

    ``Q / (Q + 1)`` with ``Q = Tr(rho_0 rho_theta)`` after depolarization;
    the pure overlap is cos^2(theta). Takes an array of ``nu``.
    """
    return _efficiencies(theta, nu)[0]


def eta_nc_bound(theta, nu):
    """Upper bound on the efficiency reachable by noncontextual models.

    The triangle inequality on the overlaps of (|0>, |theta>, |-theta>)
    holds for noncontextual models up to the discrimination errors
    eps_i = nu - nu^2/2, capping the success statistic at
    ``1 + 3 eps - Tr(rho_0 rho_-theta) + Tr(rho_theta rho_-theta)``
    with all states depolarized; the cap divided by
    ``Tr(rho_0 rho_theta) + 1`` bounds eta. Noise raises this bound while
    lowering the quantum curve, so the two cross at `crossover_nu`.
    Takes an array of ``nu``.
    """
    return _efficiencies(theta, nu)[1]


def crossover_nu(theta: float) -> float:
    """Noise level where the noncontextual bound meets the quantum curve.

    With ``a = (1-nu)^2`` every depolarized overlap is ``a q + (1-a)/2``
    and ``eps = (1-a)/2``, so the gap ``eta_quantum_depolarized -
    eta_nc_bound`` has the sign of ``a (2cos^2 theta - cos^2 2theta + 1) - 2``.
    It closes at ``(1-nu)^2 = 2 / (2cos^2 theta - cos^2 2theta + 1)``; the
    denominator is at most 9/4, so the root lies in (0, 1 - 2 sqrt(2)/3].
    Raises when there is no contextual gap at nu = 0 (denominator <= 2).
    """
    _check_angle(theta)
    denom = 2.0 * np.cos(theta) ** 2 - np.cos(2.0 * theta) ** 2 + 1.0
    if denom <= 2.0:
        raise ValidationError("no contextual gap at nu=0 for this theta")
    return float(1.0 - np.sqrt(2.0 / denom))


def hexagon(theta: float, nu: float = 0.0) -> HexagonFragment:
    """Build the six-preparation fragment at angle ``theta``, noise ``nu``.

    States come in antipodal pairs (i, i+3) averaging to the maximally
    mixed state; the reported deviation is the worst Frobenius distance
    from that average.
    """
    _check_angle(theta)
    pures = (
        qubit_state(0.0),
        qubit_state(theta),
        qubit_state(-theta),
        qubit_state(np.pi / 2),          # |1>
        qubit_state(theta + np.pi / 2),  # |theta_perp>
        qubit_state(-theta + np.pi / 2),
    )
    return HexagonFragment(theta=theta, nu=nu, states=tuple(depolarize(p, nu) for p in pures))


def h3_robust(frag: HexagonFragment) -> float:
    """Six-term noncontextuality functional on a hexagon fragment.

    ``r01 + r02 - r12 - r03 - r14 - r25``; values above 1 witness
    contextuality provided the antipodal equivalences hold.
    """
    return evaluate_states(_H3_ROBUST, list(frag.states))


def robustness_curve(theta: float, nu_grid) -> RobustnessCurve:
    """Quantum vs noncontextual efficiency on a noise grid, with crossover.

    Both efficiencies are evaluated on the whole grid at once, from one
    check of the inputs; each point is bitwise the value of the scalar
    call at its ``nu``.
    """
    nu = np.asarray(nu_grid, dtype=float)
    eq, en = _efficiencies(theta, nu)
    return RobustnessCurve(theta=theta, points=tuple(zip(nu.tolist(), eq.tolist(), en.tolist())))
