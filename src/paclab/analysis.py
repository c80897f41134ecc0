"""Comparing empirical and theoretical loss distributions.

KL divergence (base 2, with a tiny floor standing in for empty
theoretical slots), slot-midpoint moments, learning-curve assembly, and
two monotonicity views: per-step checks on a mean curve and prefix-sum
stochastic dominance between whole distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .theory import DiscreteDistribution

__all__ = [
    "CurvePoint",
    "ExperimentRecord",
    "KL_FLOOR",
    "MonotonicityReport",
    "build_curve",
    "check_monotone",
    "dist_mean",
    "dist_std",
    "kl_divergence",
    "stochastic_dominance",
    "two_standard_error_tolerances",
]

# Default stand-in for a zero theoretical mass inside the KL sum; with
# base-2 logs an empty slot adds at most about 52 bits per unit of p mass.
KL_FLOOR = 2e-16


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution, floor: float = KL_FLOOR) -> float:
    """Sum of p_i * log2(p_i / q_i) over slots with p_i > 0, ``floor`` standing in for q_i == 0.

    The floor replaces an empty q_i only inside the ratio; a positive q_i,
    however small, is used as it is, so a distribution against itself
    scores exactly 0.  q is never renormalized, so two distributions with
    disjoint support score log2(1/floor) times the concentrated p mass
    (about 52 for the default floor).
    """
    if p.num_slots != q.num_slots:
        raise ValueError(f"slot-count mismatch: {p.num_slots} vs {q.num_slots}")
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    total = 0.0
    # Only the slots with p_i > 0 add a term, visited in slot order: the running sum is rounded.
    slots = np.flatnonzero(p.masses > 0.0)
    for p_i, q_i in zip(p.masses[slots].tolist(), q.masses[slots].tolist()):
        total += p_i * math.log2(p_i / (q_i or floor))
    return total


def _moments(d: DiscreteDistribution) -> tuple[float, float]:
    """Mass-weighted mean and standard deviation of the slot midpoints
    (i + 0.5)/l.  A zero mass adds an exact zero to an ``fsum``, so only
    the slots that carry mass are visited."""
    slots = np.flatnonzero(d.masses)
    masses, midpoints = d.masses[slots], (slots + 0.5) / d.num_slots
    mean = math.fsum((masses * midpoints).tolist())
    # Python's x ** 2 is libm pow(x, 2.0), which can differ from NumPy's x * x
    # in the last bit; fsum is exact, so only the elementwise results matter.
    squares = np.fromiter(map(pow, (midpoints - mean).tolist(), repeat(2)), float, len(masses))
    var = math.fsum((masses * squares).tolist())
    return mean, math.sqrt(max(var, 0.0))


def dist_mean(d: DiscreteDistribution) -> float:
    """Mass-weighted mean of slot midpoints (i + 0.5)/l."""
    return _moments(d)[0]


def dist_std(d: DiscreteDistribution) -> float:
    """Mass-weighted standard deviation around :func:`dist_mean`."""
    return _moments(d)[1]


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a per-step non-increase check along a curve.

    ``violations`` holds (step index, rise) for every step where the next
    value exceeds the current one by more than the tolerance; the rise is
    the raw increase values[i+1] - values[i].
    """

    violations: tuple[tuple[int, float], ...]
    num_steps: int

    @property
    def max_rise(self) -> float:
        return max((rise for _, rise in self.violations), default=0.0)

    @property
    def fraction_monotone_steps(self) -> float:
        return 1.0 - len(self.violations) / self.num_steps


def check_monotone(values: Sequence[float], tolerance: float | Sequence[float] = 0.0) -> MonotonicityReport:
    """Flag every step i where values[i+1] > values[i] + tolerance.

    ``tolerance`` is either one number for all steps or a per-step
    sequence of length len(values) - 1; it must be non-negative.
    """
    if len(values) < 2:
        raise ValueError("need at least 2 values to check steps")
    num_steps = len(values) - 1
    if isinstance(tolerance, (int, float)):
        tolerances = [float(tolerance)] * num_steps
    else:
        tolerances = [float(t) for t in tolerance]
        if len(tolerances) != num_steps:
            raise ValueError(f"expected {num_steps} per-step tolerances, got {len(tolerances)}")
    if any(t < 0.0 for t in tolerances):
        raise ValueError("tolerances must be non-negative")
    violations = []
    for i in range(num_steps):
        rise = values[i + 1] - values[i]
        if rise > tolerances[i]:
            violations.append((i, rise))
    return MonotonicityReport(violations=tuple(violations), num_steps=num_steps)


def two_standard_error_tolerances(stds: Sequence[float], k: int) -> list[float]:
    """Per-step two-standard-error allowance for an empirical mean curve.

    Each step compares two sample means of k trials each, so the relevant
    standard error is that of their difference:
    sqrt(s_i**2 + s_{i+1}**2) / sqrt(k).  Using only one endpoint's std
    degenerates to a zero tolerance whenever that sample happens to sit
    entirely in one slot, which flags plain sampling noise.
    """
    if k < 1:
        raise ValueError("need at least one trial")
    if len(stds) < 2:
        raise ValueError("need at least 2 curve points")
    return [2.0 * math.sqrt(a * a + b * b) / math.sqrt(k) for a, b in zip(stds, stds[1:])]


def stochastic_dominance(q1: DiscreteDistribution, q2: DiscreteDistribution, tol: float = 1e-12) -> bool:
    """True iff q2 is stochastically no larger than q1, slot-wise.

    Checked on prefix sums: every partial sum of q2 must be at least the
    matching partial sum of q1 (within ``tol``).  For discretized bounds
    this is the distribution-level face of the CDF growing with sample
    size.
    """
    if q1.num_slots != q2.num_slots:
        raise ValueError(f"slot-count mismatch: {q1.num_slots} vs {q2.num_slots}")
    # cumsum adds in slot order, as a running sum does.
    return not (np.cumsum(q2.masses) < np.cumsum(q1.masses) - tol).any()


@dataclass(frozen=True)
class ExperimentRecord:
    """Empirical and theoretical distributions at one sample size."""

    m: int
    empirical: DiscreteDistribution
    theoretical: DiscreteDistribution

    def __post_init__(self) -> None:
        if self.empirical.num_slots != self.theoretical.num_slots:
            raise ValueError("empirical and theoretical slot counts differ")


@dataclass(frozen=True)
class CurvePoint:
    """Summary statistics of one experiment record."""

    m: int
    mean_p: float
    std_p: float
    mean_q: float
    std_q: float
    kl: float


def build_curve(records: Sequence[ExperimentRecord]) -> list[CurvePoint]:
    """Means, deviations, and KL per record, in sample-size order."""
    if not records:
        raise ValueError("no records to build a curve from")
    slot_counts = {r.empirical.num_slots for r in records}
    if len(slot_counts) != 1:
        raise ValueError(f"records mix slot counts: {sorted(slot_counts)}")
    ms = [r.m for r in records]
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError(f"records must be sorted by strictly increasing m, got {ms}")
    return [
        CurvePoint(r.m, *_moments(r.empirical), *_moments(r.theoretical), kl_divergence(r.empirical, r.theoretical))
        for r in records
    ]
