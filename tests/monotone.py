"""Monotonicity checks the tests apply to learning curves and bound distributions.

Per-step non-increase checks on a mean curve, with a two-standard-error
allowance for empirical means, and prefix-sum stochastic dominance between
whole distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from paclab.theory import DiscreteDistribution


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
