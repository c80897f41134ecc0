"""The two learning tasks: boolean-literal conjunctions and thresholds.

Each task bundles ground-truth generation under a uniform data
distribution, one consistent ERM learner, and one exact closed-form
loss; the batched ``trial_losses`` and the object-level functions call
the same ones (:func:`eliminate_literals` and :func:`disagreement` on
:class:`VariableState` code arrays, :func:`learn_threshold` on rows of
points).  ``trial_losses`` takes chunks of draws, one row per trial;
:meth:`ConjunctionTask.decode` turns raw PCG64 rows into the draws of
``Generator.integers``, its bits already the float matmul operand.
Brute-force oracles (:func:`conjunction_loss_enumerate`,
:func:`threshold_loss_monte_carlo`) exist so the closed forms never have
to be taken on faith.

Losses are computed exactly rather than estimated on a held-out set,
which removes validation noise from learning-curve monotonicity checks.
Conjunction losses are dyadic rationals and are produced bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .theory import _check_vc_dim

__all__ = [
    "ConjunctionHypothesis",
    "ConjunctionTask",
    "ThresholdHypothesis",
    "ThresholdTask",
    "VariableState",
    "conjunction_loss_enumerate",
    "conjunction_loss_exact",
    "disagreement",
    "eliminate_literals",
    "label_conjunction",
    "label_conjunction_batch",
    "learn_conjunction_bits",
    "learn_threshold",
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


@dataclass(frozen=True)
class ThresholdHypothesis:
    """Cut point of the indicator classifier h(x) = 1 iff x < a."""

    a: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.a!r}")


# ---------------------------------------------------------------------------
# Conjunction task
# ---------------------------------------------------------------------------

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
    if VariableState.BOTH in hypothesis.states:
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


def eliminate_literals(ones: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """Literal-elimination ERM learner (Valiant, CACM 1984) for k samples.

    ``positives[t]`` counts the positive examples of sample t and
    ``ones[t, i]`` those with bit i set; returns (k, n) learned codes.
    Each positive rules out the literal it falsifies, so a variable keeps
    x_i if no positive had a 0 there, not-x_i if none had a 1, neither if
    both occurred; with no positive the formula stays all-BOTH.
    """
    positives = np.asarray(positives)[:, None]
    kept = np.where(ones == positives, VariableState.POSITIVE, VariableState.ABSENT)
    return np.where(positives == 0, VariableState.BOTH, np.where(ones == 0, VariableState.NEGATED, kept))


# Literals each code puts in a conjunction; BOTH's count is so large that
# 2**-literals underflows to exactly 0 for any row holding it.
_LITERAL_COUNT = np.array([1, 1, 0, 2048])
# Per-variable union of two literal sets, indexed by their two codes: a
# code with itself or with ABSENT gives that code, any other pair BOTH.
_UNION = np.array([[0, 3, 0, 3], [3, 1, 1, 3], [0, 1, 2, 3], [3, 3, 3, 3]])


def _satisfying_fractions(states: np.ndarray) -> np.ndarray:
    """Fraction of the 2**n assignments each row of a (k, n) code array satisfies."""
    return np.ldexp(1.0, -_LITERAL_COUNT[states].sum(axis=1))


def disagreement(target_codes: np.ndarray, learned_codes: np.ndarray) -> np.ndarray:
    """Exact disagreement probability, row by row, of two (k, n) code arrays.

    The loss is P(sat T) + P(sat L) - 2*P(sat T-and-L), each probability
    ``2**-literals`` (0 if contradictory), with T-and-L the per-variable
    union of literal sets.  All quantities are dyadic, so it is exact.
    """
    union = _UNION[target_codes, learned_codes]
    return _satisfying_fractions(target_codes) + _satisfying_fractions(learned_codes) - 2.0 * _satisfying_fractions(union)


def learn_conjunction_bits(bits: np.ndarray, labels: np.ndarray) -> ConjunctionHypothesis:
    """:func:`eliminate_literals` on one labeled (rows, n) bit matrix."""
    bits = np.asarray(bits)
    labels = np.asarray(labels, dtype=bool)
    if bits.ndim != 2:
        raise ValueError(f"expected a (rows, n) bit matrix, got shape {bits.shape}")
    positives = bits[labels]
    codes = eliminate_literals(positives.sum(axis=0)[None, :], np.array([positives.shape[0]]))
    return ConjunctionHypothesis(tuple(VariableState(int(c)) for c in codes[0]))


def conjunction_loss_exact(target: ConjunctionHypothesis, learned: ConjunctionHypothesis) -> float:
    """:func:`disagreement` of one pair of hypotheses under uniform assignments."""
    if target.n != learned.n:
        raise ValueError(f"variable count mismatch: {target.n} vs {learned.n}")
    codes = np.array([target.states, learned.states], dtype=np.int64)
    return float(disagreement(codes[:1], codes[1:])[0])


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

# Bit patterns of non-negative doubles lie below 2**63, so the wrapping
# difference a - b of two of them is at least 2**63 exactly when a < b.
_NEGATIVE_GAP = 1 << 63
_MAX_GAP = (1 << 64) - 1


def learn_threshold(points: np.ndarray, cuts) -> np.ndarray:
    """ERM cut of each row of sample points under that row's target cut.

    The points at or above the cut are labeled 0; the learned cut is the
    smallest of them, or 1.0 (the conservative consistent choice) if none.
    Points and cuts must be non-negative doubles (``-0.0`` excluded), which
    order like their bit patterns: the smallest wrapping difference of
    bit patterns ``point - cut`` below 2**63 gives that point exactly,
    where a difference of floats can round two points to one gap.
    """
    cut_bits = np.asarray(cuts, dtype=np.float64).view(np.uint64)[..., None]
    gap = (np.asarray(points, dtype=np.float64).view(np.uint64) - cut_bits).min(axis=-1, initial=_MAX_GAP)
    return np.where(gap < _NEGATIVE_GAP, (gap + cut_bits[..., 0]).view(np.float64), 1.0)


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
# positive literals and +1 on negated ones, bits @ w equals the sum of the
# negative weights exactly when the row satisfies the target.
_LITERAL_WEIGHT = np.array([-1.0, 1.0, 0.0])
# uint32 words reserved past the n target words for zero words, which the
# target draw rejects; a trial needing more raises (odds about 2**-90).
_SPARE_WORDS = 2


@dataclass(frozen=True)
class ConjunctionTask:
    """Conjunction learning over n boolean variables (|H| = 3**n)."""

    n: int

    name = "conjunction"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n!r}")

    def draw_target(self, rng: np.random.Generator) -> ConjunctionHypothesis:
        """Each variable positive, negated or absent, 1/3 each: uniform over the 3**n satisfiable conjunctions."""
        return ConjunctionHypothesis(tuple(VariableState(int(c)) for c in rng.integers(0, 3, size=self.n)))

    def draw_width(self, m: int, fixed_target: bool) -> int:
        """Raw PCG64 outputs one trial reads: its target words (none if fixed), then m*n bit bytes."""
        return -(-(4 * (0 if fixed_target else self.n + _SPARE_WORDS) + m * self.n) // 8)

    def decode(self, m: int, raw: np.ndarray, fixed_target: bool) -> tuple[np.ndarray | None, np.ndarray]:
        """Target codes (k, n) (None if fixed) and 0/1 bits (k, m, n) of k trials from their raw outputs.

        Equals ``rng.integers(0, 3, size=n)`` then ``rng.integers(0, 2,
        size=(m, n), dtype=np.uint8)`` on each trial's stream.  Both read
        uint32 words, the low half of each output first.  Lemire's method
        (ACM TOMACS 2019) maps word w to ``(3 * w) >> 32`` and, for range
        3, rejects exactly w = 0; a bit is the top bit of one byte of the
        words after the target, low byte first.  The bits are written
        straight into the matmul operand of :meth:`trial_losses`: float32,
        which holds every count below 2**24 exactly, else float64.
        """
        n, bytes_, start = self.n, raw.view(np.uint8), 0 if fixed_target else 4 * self.n
        bits = np.empty((len(raw), m, n), dtype=np.float32 if m < 1 << 24 else np.float64)
        np.right_shift(bytes_[:, start : start + m * n].reshape(-1, m, n), 7, out=bits, casting="unsafe")
        if fixed_target:
            return None, bits
        words = raw.view(np.uint32)[:, : n + _SPARE_WORDS]
        codes = np.multiply(words[:, :n], 3, dtype=np.int64) >> 32
        if not words[:, :n].all():
            for row in np.flatnonzero((words[:, :n] == 0).any(axis=1)):
                kept = np.flatnonzero(words[row])[:n]
                if kept.size < n:
                    raise RuntimeError(f"more than {_SPARE_WORDS} zero words in a conjunction target draw")
                codes[row] = np.multiply(words[row, kept], 3, dtype=np.int64) >> 32
                start = 4 * (kept[-1] + 1)
                bits[row] = bytes_[row, start : start + m * n].reshape(m, n) >> 7
        return codes, bits

    def trial_losses(
        self, m: int, chunks: Iterable[np.ndarray], target: ConjunctionHypothesis | None = None
    ) -> np.ndarray:
        """Exact loss of each trial from chunks of rows of raw outputs, one row per trial (see :meth:`decode`).

        Batched matmuls reduce each chunk to the column sums of the rows
        the target accepts, exact in the float dtype of :meth:`decode`'s
        bits; all trials are then learned by :func:`eliminate_literals`
        and scored by :func:`disagreement` at once.
        """
        fixed = None if target is None else np.array(target.states, dtype=np.int64)
        codes, ones, positives = [], [], []
        # The operands are 0/1 bits and -1/0/+1 weights, so no result is
        # invalid; BLAS kernels have still raised the flag now and then.
        with np.errstate(invalid="ignore"):
            for raw in chunks:
                code, bits = self.decode(m, raw, fixed is not None)
                code = np.broadcast_to(fixed, (len(raw), self.n)) if fixed is not None else code
                weights = _LITERAL_WEIGHT.astype(bits.dtype)[code]
                accepted = (bits @ weights[:, :, None])[:, :, 0] == np.minimum(weights, 0).sum(axis=1, keepdims=True)
                codes.append(code)
                ones.append((accepted.astype(bits.dtype)[:, None, :] @ bits)[:, 0, :])
                positives.append(accepted.sum(axis=1))
        return disagreement(np.concatenate(codes), eliminate_literals(np.concatenate(ones), np.concatenate(positives)))


@dataclass(frozen=True)
class ThresholdTask:
    """Threshold learning on [0, 1]; its bound uses VC dimension ``vc_dim``
    (1, the class's own, unless a looser bound is asked for)."""

    vc_dim: int = 1

    name = "threshold"

    def __post_init__(self) -> None:
        _check_vc_dim(self.vc_dim)

    def draw_target(self, rng: np.random.Generator) -> ThresholdHypothesis:
        """Cut point drawn uniformly from [0, 1)."""
        return ThresholdHypothesis(float(rng.random()))

    def draw_width(self, m: int, fixed_target: bool) -> int:
        """Uniform doubles one trial reads: its target cut (none if fixed), then m points."""
        return m + (not fixed_target)

    def trial_losses(
        self, m: int, chunks: Iterable[np.ndarray], target: ThresholdHypothesis | None = None
    ) -> np.ndarray:
        """Exact loss of each trial from chunks of rows ``[a, x_1..x_m]`` (``[x_1..x_m]`` with a fixed target).

        :func:`learn_threshold` gives each row's ERM cut; the loss is the
        cut minus the target.
        """
        losses = []
        for draws in chunks:
            cut, points = (draws[:, 0], draws[:, 1:]) if target is None else (target.a, draws)
            losses.append(learn_threshold(points, cut) - cut)
        return np.concatenate(losses)
