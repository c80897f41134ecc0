"""Risk lower-bound distributions for PAC-learnable hypothesis classes.

A bound is a :class:`BoundSpec`, the pair ``(m, ln W)`` of an i.i.d. sample
size and the log of an envelope weight.  Its CDF over generalization loss is
zero below the cutoff ``ln(W)/m``, the ramp ``1 - W * exp(-m * eps)`` on
``[cutoff, 1)``, and one at ``eps >= 1``.  The finite and the finite-VC
classes differ only in ``W``: :meth:`BoundSpec.finite_h` takes ``|H|``, and
:meth:`BoundSpec.finite_vc` a bound on the growth function, ``2**m`` below
``m = d`` and the smaller of ``2**m`` and Sauer's ``(e*m/d)**d`` from
``m = d`` on.  :func:`bound_cdf` and :func:`bound_density` take a float of
eps and give a float, or take an array and give an array, equal bit for bit
to the per-element calls.

The jump at ``eps = 1`` is a genuine probability atom.  It is never folded
into the density; :func:`bound_point_mass` reports it separately and
:func:`bound_density` refuses ``eps == 1``, so every returned number stays
finite.

All weight-bearing arithmetic runs in log space (``ln W`` is stored, never
``W``): finite hypothesis spaces of size ``3**n`` overflow floats long
before ``n`` reaches interesting values, while ``exp(ln W - m*eps)`` is
stable everywhere we evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundSpec",
    "DiscreteDistribution",
    "bound_cdf",
    "bound_density",
    "bound_point_mass",
    "cutoff",
    "discretize_bound",
    "sample_complexity_finite",
    "sample_complexity_vc",
]


_LN2 = math.log(2.0)


def _check_sample_size(m: int) -> None:
    """A sample size is an int from 1 to 2**63 - 1: stored files read m as int64, and m*eps stays finite."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"sample size m must be a positive integer, got {m!r}")
    if m >= 2**63:
        raise ValueError(f"sample size m must be below 2**63, got {m}")


def _check_vc_dim(vc_dim):
    if not isinstance(vc_dim, int) or vc_dim < 1:
        raise ValueError(f"VC dimension must be a positive integer, got {vc_dim!r}")


@dataclass(frozen=True)
class BoundSpec:
    """One theoretical bound: sample size ``m`` and ``log_weight``, ln W.

    Two specs with equal ``m`` and ``ln W`` are one function, whichever
    constructor made them.  :meth:`finite_h` and :meth:`finite_vc` compute
    ``ln W`` from a class's capacity.
    """

    m: int
    log_weight: float

    def __post_init__(self) -> None:
        _check_sample_size(self.m)
        # Only finite_h can pass a bad ln W, its ln|H|: finite_vc's is finite and >= 0.
        if not math.isfinite(self.log_weight) or self.log_weight < 0.0:
            raise ValueError("finite-H bound needs ln|H| >= 0 (|H| >= 1)")

    @classmethod
    def finite_h(cls, m: int, h_size: float | None = None, *, log_h_size: float | None = None) -> BoundSpec:
        """Finite-|H| bound, ``W = |H|``; pass the cardinality or its natural log."""
        if (h_size is None) == (log_h_size is None):
            raise ValueError("provide exactly one of h_size or log_h_size")
        if log_h_size is None:
            if h_size < 1:
                raise ValueError(f"|H| must be >= 1, got {h_size!r}")
            log_h_size = math.log(h_size)
        return cls(m=m, log_weight=float(log_h_size))

    @classmethod
    def finite_vc(cls, m: int, vc_dim: int) -> BoundSpec:
        """Finite-VC-dimension bound, W a bound on the growth function.

        ln W is m*ln 2 below m = d, where Sauer's d*ln(e*m/d) does not hold
        (below d/e it is negative), and the smaller of the two from m = d on.
        Both bound the growth function; taking the smaller keeps ln W >= 0 and
        the CDF non-decreasing in m.
        """
        _check_vc_dim(vc_dim)
        _check_sample_size(m)  # before m meets a float
        d = vc_dim
        return cls(m=m, log_weight=m * _LN2 if m < d else min(m * _LN2, d * (1.0 + math.log(m) - math.log(d))))


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability masses on equal-width loss slots partitioning [0, 1].

    Slot ``i`` covers ``[i/l, (i+1)/l)`` except the last slot, which is
    closed at 1.0 so that a loss of exactly one has a home.  ``masses`` is a
    read-only float64 copy of the sequence or array it was built from.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        masses = np.array(self.masses, dtype=np.float64)
        if len(masses) < 2:
            raise ValueError("need at least 2 slots")
        if not masses.min() >= 0.0:  # NumPy's min is NaN if any mass is
            raise ValueError("slot masses must be non-negative")
        try:
            total = math.fsum(masses.tolist())  # faster than over NumPy scalars
        except OverflowError:  # finite masses whose sum passes the largest float
            total = math.inf
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"slot masses must sum to 1 (got {total!r})")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return np.array_equal(self.masses, other.masses)  # by length and value: -0.0 equals 0.0

    @property
    def num_slots(self) -> int:
        return len(self.masses)


def cutoff(spec: BoundSpec) -> float:
    """Loss value where the CDF leaves zero: ln(W)/m."""
    return spec.log_weight / spec.m


def bound_cdf(spec: BoundSpec, eps: float | np.ndarray) -> float | np.ndarray:
    """P(loss <= eps) lower bound at each eps: 0 below ``ln W / m``, the ramp, 1 from 1 on.

    A float or a 0-d array of eps gives a float, any other array an array of
    its shape.  The ramp ``1 - exp(x)``, ``x = ln W - m*eps``, is 1.0 without
    an ``exp`` where x < -40: there exp(x) < 4.3e-18 < 2**-54, so ``1 - exp(x)``
    rounds to 1.0.  The test is on x itself; a cut on eps, ``(ln W + 40) / m``, loses the
    40 to rounding once ln W reaches 2**59.  ``math.exp`` runs only on the
    ramp cells left, a NaN eps among them, so a NaN eps gives NaN.
    """
    log_weight, m = spec.log_weight, spec.m
    eps = np.asarray(eps, dtype=np.float64)
    x = log_weight - float(m) * eps  # float(m) * eps is Python's m * eps
    above = eps >= 1.0
    ramp = ~(above | (eps < log_weight / m))
    cdfs = np.array(above | ramp, dtype=np.float64)  # an array also where eps is 0-d
    ramp &= ~(x < -40.0)
    # exp(x) >= 0, so of a clamp to [0, 1] only the lower bound can bind.
    cdfs[ramp] = np.maximum(1.0 - np.fromiter(map(math.exp, x[ramp].tolist()), np.float64), 0.0)
    return cdfs if cdfs.ndim else float(cdfs)


def bound_density(spec: BoundSpec, eps: float | np.ndarray) -> float | np.ndarray:
    """Continuous density ``exp((ln W + ln m) - m*eps)`` on [cutoff, 1), else 0, at each eps.

    Takes and gives a float or an array, as :func:`bound_cdf` does.  Raises
    ValueError if any eps is exactly 1; the atom there is not a density and
    must be read from :func:`bound_point_mass`.
    """
    log_weight, m = spec.log_weight, spec.m
    eps = np.asarray(eps, dtype=np.float64)
    if (eps == 1.0).any():
        raise ValueError("density undefined at eps=1: the atom there is reported by the point-mass accessor")
    live = ~((eps < log_weight / m) | (eps > 1.0))
    densities = np.zeros(eps.shape)
    densities[live] = np.fromiter(map(math.exp, (log_weight + math.log(m) - float(m) * eps[live]).tolist()), np.float64)
    return densities if densities.ndim else float(densities)


def bound_point_mass(spec: BoundSpec) -> float:
    """Probability atom at loss 1: ``W*exp(-m)``, at most 1."""
    return math.exp(min(spec.log_weight - spec.m, 0.0))


def sample_complexity_finite(h_size: float, eps: float, delta: float) -> int:
    """Samples sufficient for a finite class: ``ceil(ln(|H|/delta)/eps)``."""
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0, 1)")
    if h_size < 1:
        raise ValueError(f"|H| must be >= 1, got {h_size!r}")
    return math.ceil((math.log(h_size) - math.log(delta)) / eps)


_VC_ITERATION_CAP = 10_000


def sample_complexity_vc(vc_dim: int, eps: float, delta: float) -> int:
    """Samples sufficient for a VC-d class, from the self-referential bound.

    The target ``m = ceil(ln((e*m/d)**d / delta) / eps)`` mentions m on
    both sides, so we iterate ``m <- ceil((d*ln(e*m/d) + ln(1/delta))/eps)``
    from ``m = d``.  The map is non-decreasing in m with logarithmic
    growth, so the iteration converges monotonically to a fixed point;
    the cap exists as a hard failure signal, not a tuning knob.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0, 1)")
    _check_vc_dim(vc_dim)
    d = m = vc_dim
    for _ in range(_VC_ITERATION_CAP):
        m_next = math.ceil((d * (1.0 + math.log(m) - math.log(d)) - math.log(delta)) / eps)
        if m_next == m:
            return m
        m = m_next
    raise RuntimeError(f"sample-complexity iteration did not stabilize within {_VC_ITERATION_CAP} steps")


def discretize_bound(spec: BoundSpec, num_slots: int) -> DiscreteDistribution:
    """Slice a bound CDF into ``num_slots`` equal-width loss slots.

    Slot i receives ``CDF((i+1)/l) - CDF(i/l)``; because ``CDF(1) = 1``
    includes the atom at loss 1, the final (upper-closed) slot picks up
    the point mass on top of its continuous share.  Monotonicity of the
    CDF makes every mass non-negative, and the telescoping sum is 1.
    """
    if num_slots < 2:
        raise ValueError("need at least 2 slots")
    return DiscreteDistribution(np.diff(bound_cdf(spec, np.arange(num_slots + 1) / num_slots)))
