"""Comparing empirical and theoretical loss distributions.

KL divergence (base 2, with a tiny floor standing in for empty
theoretical slots), slot-midpoint moments, and learning-curve assembly.
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
    "build_curve",
    "kl_divergence",
    "moments",
]

# Stand-in for a zero theoretical mass inside the KL sum; with base-2
# logs an empty slot adds at most about 52 bits per unit of p mass.
KL_FLOOR = 2e-16


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Sum of p_i * log2(p_i / q_i) over slots with p_i > 0, ``KL_FLOOR`` standing in for q_i == 0.

    The floor replaces an empty q_i only inside the ratio; a positive q_i,
    however small, is used as it is, so a distribution against itself
    scores exactly 0.  q is never renormalized, so two distributions with
    disjoint support score log2(1/KL_FLOOR), about 52, times the
    concentrated p mass.
    """
    if p.num_slots != q.num_slots:
        raise ValueError(f"slot-count mismatch: {p.num_slots} vs {q.num_slots}")
    total = 0.0
    # Only the slots with p_i > 0 add a term, visited in slot order: the running sum is rounded.
    slots = np.flatnonzero(p.masses > 0.0)
    for p_i, q_i in zip(p.masses[slots].tolist(), q.masses[slots].tolist()):
        ratio = p_i / (q_i or KL_FLOOR)
        # Over a subnormal q_i the ratio can overflow; the difference of the logs cannot.
        total += p_i * (math.log2(ratio) if ratio < math.inf else math.log2(p_i) - math.log2(q_i))
    return total


def moments(d: DiscreteDistribution) -> tuple[float, float]:
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
        CurvePoint(r.m, *moments(r.empirical), *moments(r.theoretical), kl_divergence(r.empirical, r.theoretical))
        for r in records
    ]
