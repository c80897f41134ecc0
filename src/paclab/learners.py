"""The two learning tasks: boolean-literal conjunctions and thresholds.

Each task bundles ground-truth generation under a uniform data
distribution, i.i.d. sampling, a consistent ERM learner, and exact
closed-form generalization loss.  Brute-force oracles
(:func:`conjunction_loss_enumerate`, :func:`threshold_loss_monte_carlo`)
exist so the closed forms never have to be taken on faith.

Losses are computed exactly rather than estimated on a held-out set,
which removes validation noise from learning-curve monotonicity checks.
Conjunction losses are dyadic rationals and are produced bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BooleanExample",
    "ConjunctionHypothesis",
    "ConjunctionTask",
    "LabeledPoint",
    "ThresholdHypothesis",
    "ThresholdTask",
    "VariableState",
    "conjunction_loss_enumerate",
    "conjunction_loss_exact",
    "label_conjunction",
    "label_conjunction_batch",
    "learn_conjunction",
    "learn_conjunction_bits",
    "learn_threshold",
    "random_conjunction_target",
    "random_threshold_target",
    "sample_conjunction_example",
    "sample_threshold_point",
    "threshold_loss_exact",
    "threshold_loss_monte_carlo",
]


class VariableState(IntEnum):
    """How one boolean variable participates in a conjunction."""

    POSITIVE = 0   # literal x_i
    NEGATED = 1    # literal not-x_i
    ABSENT = 2     # variable unused
    BOTH = 3       # x_i and not-x_i together: unsatisfiable


@dataclass(frozen=True)
class ConjunctionHypothesis:
    """A conjunction of literals over n boolean variables.

    ``BOTH`` entries make the formula contradictory (it satisfies no
    assignment); the fresh learner state is all-BOTH.
    """

    states: tuple[VariableState, ...]

    @property
    def n(self) -> int:
        return len(self.states)

    def literal_count(self) -> int:
        """Number of literals: 1 per single-literal variable, 2 per BOTH."""
        return sum(2 if s is VariableState.BOTH else (0 if s is VariableState.ABSENT else 1) for s in self.states)

    def is_contradictory(self) -> bool:
        return any(s is VariableState.BOTH for s in self.states)

    def satisfying_fraction(self) -> float:
        """Fraction of the 2**n assignments this conjunction satisfies."""
        if self.is_contradictory():
            return 0.0
        return math.ldexp(1.0, -self.literal_count())


@dataclass(frozen=True)
class BooleanExample:
    """One labeled assignment; label True means consistent with the target."""

    bits: tuple[int, ...]
    label: bool


@dataclass(frozen=True)
class ThresholdHypothesis:
    """Cut point of the indicator classifier h(x) = 1 iff x < a."""

    a: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.a!r}")

    def classify(self, x: float) -> int:
        return 1 if x < self.a else 0


@dataclass(frozen=True)
class LabeledPoint:
    """One sampled coordinate with its 0/1 label."""

    x: float
    label: int


# ---------------------------------------------------------------------------
# Conjunction task
# ---------------------------------------------------------------------------

def random_conjunction_target(n: int, rng: np.random.Generator) -> ConjunctionHypothesis:
    """Draw a target: each variable positive / negated / absent, 1/3 each.

    Equivalent to uniform over all 3**n satisfiable conjunctions; a target
    is never contradictory.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n!r}")
    codes = rng.integers(0, 3, size=n)
    return ConjunctionHypothesis(tuple(VariableState(int(c)) for c in codes))


def label_conjunction(hypothesis: ConjunctionHypothesis, bits: Sequence[int]) -> bool:
    """True iff every literal of the conjunction is satisfied by ``bits``."""
    if len(bits) != hypothesis.n:
        raise ValueError(f"expected {hypothesis.n} bits, got {len(bits)}")
    for state, bit in zip(hypothesis.states, bits):
        if state is VariableState.BOTH:
            return False
        if state is VariableState.POSITIVE and bit != 1:
            return False
        if state is VariableState.NEGATED and bit != 0:
            return False
    return True


def label_conjunction_batch(hypothesis: ConjunctionHypothesis, bits: np.ndarray) -> np.ndarray:
    """Vectorized :func:`label_conjunction` over a (rows, n) bit matrix."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != hypothesis.n:
        raise ValueError(f"expected a (rows, {hypothesis.n}) bit matrix, got shape {bits.shape}")
    rows = bits.shape[0]
    if hypothesis.is_contradictory():
        return np.zeros(rows, dtype=bool)
    codes = np.array(hypothesis.states, dtype=np.int64)
    labels = np.ones(rows, dtype=bool)
    pos = codes == VariableState.POSITIVE
    neg = codes == VariableState.NEGATED
    if pos.any():
        labels &= (bits[:, pos] == 1).all(axis=1)
    if neg.any():
        labels &= (bits[:, neg] == 0).all(axis=1)
    return labels


def sample_conjunction_example(target: ConjunctionHypothesis, rng: np.random.Generator) -> BooleanExample:
    """Uniform assignment over {0,1}**n labeled by the target."""
    bits = tuple(int(b) for b in rng.integers(0, 2, size=target.n))
    return BooleanExample(bits=bits, label=label_conjunction(target, bits))


def learn_conjunction_bits(bits: np.ndarray, labels: np.ndarray) -> ConjunctionHypothesis:
    """ERM learner on array input; see :func:`learn_conjunction`."""
    bits = np.asarray(bits)
    labels = np.asarray(labels, dtype=bool)
    if bits.ndim != 2:
        raise ValueError(f"expected a (rows, n) bit matrix, got shape {bits.shape}")
    n = bits.shape[1]
    positives = bits[labels]
    if positives.shape[0] == 0:
        return ConjunctionHypothesis((VariableState.BOTH,) * n)
    saw_one = positives.any(axis=0)
    saw_zero = (positives == 0).any(axis=0)
    states = []
    for one, zero in zip(saw_one, saw_zero):
        if one and zero:
            states.append(VariableState.ABSENT)
        elif one:
            states.append(VariableState.POSITIVE)
        else:
            states.append(VariableState.NEGATED)
    return ConjunctionHypothesis(tuple(states))


def learn_conjunction(examples: Sequence[BooleanExample], n: int) -> ConjunctionHypothesis:
    """Literal-elimination ERM learner for conjunctions.

    Starting from the contradictory all-literals formula, each positive
    example rules out the literal it falsifies at every position (bit 1
    rules out the negated literal, bit 0 the positive one).  Negative
    examples carry no per-bit information and are ignored.  The result is
    consistent with every positive training example.
    """
    for ex in examples:
        if len(ex.bits) != n:
            raise ValueError(f"expected {n} bits per example, got {len(ex.bits)}")
    if not examples:
        return ConjunctionHypothesis((VariableState.BOTH,) * n)
    bits = np.array([ex.bits for ex in examples], dtype=np.uint8)
    labels = np.array([ex.label for ex in examples], dtype=bool)
    return learn_conjunction_bits(bits, labels)


def _union_state(a: VariableState, b: VariableState) -> VariableState:
    if a == b:
        return a
    if a is VariableState.ABSENT:
        return b
    if b is VariableState.ABSENT:
        return a
    # distinct literals on the same variable, or anything joined with BOTH
    return VariableState.BOTH


def conjunction_loss_exact(target: ConjunctionHypothesis, learned: ConjunctionHypothesis) -> float:
    """Exact disagreement probability under uniform assignments.

    The two formulas disagree exactly where one is satisfied and the other
    is not, so the loss is P(sat T) + P(sat L) - 2*P(sat T-and-L), with
    each probability ``2**-literals`` (0 for a contradictory formula) and
    the conjunction formed by a per-variable union of literal sets.  All
    quantities are dyadic, so the float result is exact.
    """
    if target.n != learned.n:
        raise ValueError(f"variable count mismatch: {target.n} vs {learned.n}")
    both = ConjunctionHypothesis(tuple(_union_state(a, b) for a, b in zip(target.states, learned.states)))
    return target.satisfying_fraction() + learned.satisfying_fraction() - 2.0 * both.satisfying_fraction()


def conjunction_loss_enumerate(target: ConjunctionHypothesis, learned: ConjunctionHypothesis) -> float:
    """Brute-force disagreement fraction over all 2**n assignments (n <= 20)."""
    if target.n != learned.n:
        raise ValueError(f"variable count mismatch: {target.n} vs {learned.n}")
    n = target.n
    if n > 20:
        raise ValueError(f"enumeration over 2**{n} assignments refused (limit n=20)")
    grid = ((np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)
    disagree = label_conjunction_batch(target, grid) != label_conjunction_batch(learned, grid)
    return int(np.count_nonzero(disagree)) / float(1 << n)


# ---------------------------------------------------------------------------
# Threshold task
# ---------------------------------------------------------------------------

def random_threshold_target(rng: np.random.Generator) -> ThresholdHypothesis:
    """Cut point drawn uniformly from [0, 1)."""
    return ThresholdHypothesis(float(rng.random()))


def sample_threshold_point(target: ThresholdHypothesis, rng: np.random.Generator) -> LabeledPoint:
    """Uniform x in [0, 1) labeled by the target; x == a gets label 0."""
    x = float(rng.random())
    return LabeledPoint(x=x, label=target.classify(x))


def learn_threshold(points: Sequence[LabeledPoint]) -> ThresholdHypothesis:
    """ERM rule: the smallest negatively-labeled coordinate, else 1.0.

    With no negative point in the sample the cut is pushed to the top of
    the support, the conservative consistent choice.
    """
    negatives = [p.x for p in points if p.label == 0]
    return ThresholdHypothesis(min(negatives) if negatives else 1.0)


def threshold_loss_exact(target: ThresholdHypothesis, learned: ThresholdHypothesis) -> float:
    """|a_hat - a|: the uniform measure of the disagreement interval."""
    return abs(learned.a - target.a)


def threshold_loss_monte_carlo(
    target: ThresholdHypothesis,
    learned: ThresholdHypothesis,
    num_points: int,
    rng: np.random.Generator,
) -> float:
    """Disagreement frequency on uniform points; oracle for the closed form."""
    xs = rng.random(num_points)
    return float(np.mean((xs < target.a) != (xs < learned.a)))


# ---------------------------------------------------------------------------
# Task handles used by the trial runner
# ---------------------------------------------------------------------------

# Per-variable weight of a bit in a row's literal check: with w = -1 on
# positive literals and +1 on negated ones, bits @ w equals minus the
# number of positive literals exactly when the row satisfies the target.
_LITERAL_WEIGHT = np.array([-1.0, 1.0, 0.0])
_POSITIVE_CODE = int(VariableState.POSITIVE)  # a plain int compares faster than the enum


def _satisfying_fractions(states: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`ConjunctionHypothesis.satisfying_fraction` of a (k, n) code array."""
    both = states == VariableState.BOTH
    literals = np.count_nonzero(states <= VariableState.NEGATED, axis=1) + 2 * np.count_nonzero(both, axis=1)
    return np.where(both.any(axis=1), 0.0, np.ldexp(1.0, -literals))


@dataclass(frozen=True)
class ConjunctionTask:
    """Conjunction learning over n boolean variables (|H| = 3**n)."""

    n: int

    name = "conjunction"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n!r}")

    def draw_target(self, rng: np.random.Generator) -> ConjunctionHypothesis:
        return random_conjunction_target(self.n, rng)

    def trial_losses(
        self, m: int, rngs: Iterable[np.random.Generator], target: ConjunctionHypothesis | None = None
    ) -> np.ndarray:
        """Exact loss of one trial per generator in ``rngs``.

        Each trial makes the draws of :func:`random_conjunction_target`
        (unless ``target`` is given) and then m uniform assignments, keeps
        the column sums of the rows the target accepts, and is scored
        with the others at the end: :func:`learn_conjunction_bits` and
        :func:`conjunction_loss_exact` over code arrays instead of objects.
        """
        fixed = None if target is None else np.array(target.states, dtype=np.int64)
        codes, ones, positives = [], [], []
        for rng in rngs:
            code = rng.integers(0, 3, size=self.n) if fixed is None else fixed
            bits = rng.integers(0, 2, size=(m, self.n), dtype=np.uint8).astype(np.float64)
            accepted = bits @ _LITERAL_WEIGHT[code] == -np.count_nonzero(code == _POSITIVE_CODE)
            codes.append(code)
            ones.append(accepted.astype(np.float64) @ bits)
            positives.append(np.count_nonzero(accepted))
        target_codes = np.array(codes)
        ones = np.array(ones)
        positives = np.array(positives)[:, None]
        # Literal elimination: a variable keeps x_i if no positive had a 0,
        # not-x_i if none had a 1, neither if both occurred.
        kept = np.where(ones == positives, VariableState.POSITIVE, VariableState.ABSENT)
        learned = np.where(positives == 0, VariableState.BOTH, np.where(ones == 0, VariableState.NEGATED, kept))
        union = np.where(
            target_codes == learned,
            target_codes,
            np.where(
                target_codes == VariableState.ABSENT,
                learned,
                np.where(learned == VariableState.ABSENT, target_codes, VariableState.BOTH),
            ),
        )
        return _satisfying_fractions(target_codes) + _satisfying_fractions(learned) - 2.0 * _satisfying_fractions(union)


@dataclass(frozen=True)
class ThresholdTask:
    """Threshold learning on [0, 1] (VC dimension 1)."""

    name = "threshold"

    def draw_target(self, rng: np.random.Generator) -> ThresholdHypothesis:
        return random_threshold_target(rng)

    def trial_losses(
        self, m: int, rngs: Iterable[np.random.Generator], target: ThresholdHypothesis | None = None
    ) -> np.ndarray:
        """Exact loss of one trial per generator in ``rngs``.

        Each trial makes the draws of :func:`random_threshold_target`
        (unless ``target`` is given) and then m uniform points; the ERM
        cut of :func:`learn_threshold` is the smallest point at or above
        the target, 1.0 when there is none (every point is below 1).
        """
        cuts, learned = [], []
        for rng in rngs:
            a = rng.random() if target is None else target.a
            xs = rng.random(m)
            cuts.append(a)
            learned.append(np.minimum.reduce(xs[xs >= a], initial=1.0))
        return np.array(learned) - np.array(cuts)
