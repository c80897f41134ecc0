"""Repeated seeded learning trials and their empirical loss distributions.

A batch of k trials at sample size m produces k exact generalization
losses; histogramming them over equal-width slots yields the empirical
distribution that gets compared against the discretized theoretical
bound.  Every trial owns an independent PCG64 stream seeded from
(master_seed, m, trial_index) by a fixed 64-bit mix, so trial i sees
the same stream whatever k is.  :func:`run_trials` derives the PCG64
state words of all k streams of a sample size at once in vectorised
uint64 arithmetic (:func:`pcg64_states`).  One PCG64 serves them all:
trial i is seated by writing its four words into the generator's
``pcg64_random_t``, reached through ``bit_generator.ctypes.state_address``,
and one NumPy call per trial fills a row of a chunk buffer with the
draws of ``Generator(PCG64(derive_trial_seed(...)))`` built per trial.
Conjunction rows are raw outputs, decoded a chunk at a time.

Three checks run once per call and raise ``RuntimeError``: trial 0's
derived words must equal ``PCG64(seed).state``; the struct must read
them in the order of a native ``__uint128_t`` or of NumPy's emulated
``pcg128_t`` (high word first); and, for conjunctions, trial 0's decode
must equal a ``Generator.integers`` replay.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .learners import ConjunctionTask, ThresholdTask
from .theory import DiscreteDistribution

__all__ = [
    "ExperimentConfig",
    "FIXED_TARGET_INDEX",
    "TrialBatch",
    "derive_trial_seed",
    "histogram",
    "pcg64_states",
    "run_trials",
]

Task = ConjunctionTask | ThresholdTask

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
# SplitMix64 increment and finalizer multipliers (Steele, Lea & Flood).
_GOLDEN_GAMMA = 0x9E37_79B9_7F4A_7C15
_MIX_MULT_1 = 0xBF58_476D_1CE4_E5B9
_MIX_MULT_2 = 0x94D0_49BB_1331_11EB

# Reserved trial index whose stream supplies the shared ground truth in
# fixed-target mode; real trial indices are far below it.
FIXED_TARGET_INDEX = _MASK64


def _mix64(z):
    """SplitMix64 finalizer on a Python int below 2**64, or elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, m: int, trial_index: int) -> int:
    """64-bit seed for one trial, a pure function of its coordinates.

    The master seed absorbs m and the trial index through two SplitMix64
    finalizer rounds.  The constants are load-bearing: changing them
    changes every experiment byte downstream.
    """
    h = master_seed & _MASK64
    for word in (m, trial_index):
        h = _mix64((h + _GOLDEN_GAMMA + (word & _MASK64)) & _MASK64)
    return h


def _trial_seeds(master_seed: int, m: int, k: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, m, i)`` for i < k, as uint64 (wrapping) arithmetic."""
    h = _mix64(((master_seed & _MASK64) + _GOLDEN_GAMMA + (m & _MASK64)) & _MASK64)
    return _mix64(np.arange(k, dtype=np.uint64) + np.uint64((h + _GOLDEN_GAMMA) & _MASK64))


# SeedSequence hash constants (O'Neill's seed_seq_fe, as in numpy.random.bit_generator).
_MASK32 = 0xFFFF_FFFF
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715
# Halves of PCG64's 128-bit LCG multiplier.
_PCG_MULT_HI = 0x2360_ED05_1FC6_5DA4
_PCG_MULT_LO = 0x4385_DF64_9FCC_F645
# Trials are drawn a chunk at a time into a buffer of this many bytes,
# small enough that the buffer and its decoded copies leave peak RSS as is.
_CHUNK_BYTES = 1 << 16


def _mul_hi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each 128-bit product ``a * b``, from 32-bit limb products."""
    a0, a1 = a & np.uint64(_MASK32), a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> np.uint64(32)) + (cross0 & np.uint64(_MASK32)) + (cross1 & np.uint64(_MASK32))
    return a1 * b1 + (cross0 >> np.uint64(32)) + (cross1 >> np.uint64(32)) + (mid >> np.uint64(32))


def pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """State words of ``np.random.PCG64(int(s))`` for every uint64 seed s.

    Row i is ``[state_lo, state_hi, inc_lo, inc_hi]``: the 128-bit LCG
    state and increment, each as two 64-bit halves, low half first.
    Replays ``SeedSequence(s).generate_state(4, np.uint64)`` in uint32
    arithmetic over all seeds at once.  A 64-bit seed is at most two
    entropy words; a seed below 2**32 has one, but the pool pads it with
    ``hashmix(0)``, which is what a zero high word gives.  PCG64 then
    seeds its LCG from the four words in wrapping uint64 arithmetic.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = [
        (seeds & np.uint64(_MASK32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        np.zeros(seeds.shape, np.uint32),
        np.zeros(seeds.shape, np.uint32),
    ]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * np.uint32(_MIX_MULT_L) - hashmix(pool[src]) * np.uint32(_MIX_MULT_R)
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # Little-endian pairs of 32-bit outputs form the four 64-bit words.
    hi_state, lo_state, hi_seq, lo_seq = (out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(4))
    # pcg_setseq_128_srandom_r: inc = 2 * seq + 1, then state = (inc + state) * MULT + inc, all mod 2**128.
    inc_lo = (lo_seq << np.uint64(1)) | np.uint64(1)
    inc_hi = (hi_seq << np.uint64(1)) | (lo_seq >> np.uint64(63))
    lo = inc_lo + lo_state
    hi = inc_hi + hi_state + (lo < inc_lo)
    hi = _mul_hi64(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + hi * np.uint64(_PCG_MULT_LO)
    lo = lo * np.uint64(_PCG_MULT_LO) + inc_lo
    return np.stack([lo, hi + inc_hi + (lo < inc_lo), inc_lo, inc_hi], axis=-1)


def _state_view(bit_generator: np.random.PCG64) -> np.ndarray:
    """Writable view of the four uint64 words of ``bit_generator``'s ``pcg64_random_t``.

    ``ctypes.state_address`` points at NumPy's ``pcg64_state``, whose first
    member points at that struct.  The view is valid while ``bit_generator`` lives.
    """
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))


# Column orders of [lo, hi, inc_lo, inc_hi] as a native __uint128_t stores
# them, and as NumPy's emulated pcg128_t ({high, low}) does.
_WORD_ORDERS = ([0, 1, 2, 3], [1, 0, 3, 2])


def _word_order(reading: np.ndarray, words: np.ndarray) -> list[int]:
    """The order of :data:`_WORD_ORDERS` in which ``words`` read as ``reading``."""
    for order in _WORD_ORDERS:
        if reading.tolist() == words[order].tolist():
            return order
    raise RuntimeError(f"PCG64 state layout of NumPy {np.__version__} is neither native nor emulated 128-bit")


def _trial_draws(task: Task, m: int, k: int, master_seed: int, fixed_target: bool) -> Iterator[np.ndarray]:
    """Chunks of rows, row i filled by one NumPy call on trial i's stream:
    raw PCG64 outputs for ``task.decode`` (the first checked against
    ``Generator.integers``), or the doubles of ``Generator.random``.

    One PCG64 serves every trial: trial i is seated by writing its four
    state words into the generator's struct.  ``random_raw`` and
    ``Generator.random`` do not read NumPy's buffered-uint32 flag, which
    that write leaves alone; the ``Generator.integers`` replay does, so it
    seats trial 0 through the ``state`` setter, which clears the flag.
    """
    seeds = _trial_seeds(master_seed, m, k)
    words = pcg64_states(seeds)
    bit_generator = np.random.PCG64(int(seeds[0]))
    first = bit_generator.state
    derived = [int(words[0, 1]) << 64 | int(words[0, 0]), int(words[0, 3]) << 64 | int(words[0, 2])]
    if [first["state"]["state"], first["state"]["inc"]] != derived:
        raise RuntimeError(f"derived PCG64 state disagrees with NumPy {np.__version__} for seed {int(seeds[0])}")
    view = _state_view(bit_generator)
    words = words[:, _word_order(view, words[0])]
    generator = np.random.Generator(bit_generator)
    raw = isinstance(task, ConjunctionTask)
    width = task.draw_width(m, fixed_target)
    rows = max(1, _CHUNK_BYTES // (8 * width))
    for start in range(0, k, rows):
        chunk = np.empty((min(rows, k - start), width), dtype=np.uint64 if raw else np.float64)
        for row, state in zip(chunk, words[start : start + rows]):
            view[:] = state
            if raw:
                row[:] = bit_generator.random_raw(width)
            else:
                generator.random(out=row)
        if raw and start == 0:
            bit_generator.state = first
            codes, bits = task.decode(m, chunk[:1], fixed_target)
            same = fixed_target or codes[0].tolist() == list(task.draw_target(generator).states)
            if not (same and np.array_equal(bits[0], generator.integers(0, 2, size=(m, task.n), dtype=np.uint8))):
                raise RuntimeError(f"raw-output decode disagrees with Generator.integers on NumPy {np.__version__}")
        yield chunk


@dataclass(frozen=True)
class TrialBatch:
    """k exact losses from independent trials at one sample size."""

    task: Task
    m: int
    k: int
    master_seed: int
    losses: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.losses) != self.k:
            raise ValueError(f"expected {self.k} losses, got {len(self.losses)}")
        if self.losses.size and (self.losses.min() < 0.0 or self.losses.max() > 1.0):
            raise ValueError("losses must lie in [0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one learning-curve experiment.

    The schedule runs m = m_start, m_start + m_step, ... up to m_max.
    ``fixed_target`` switches ground-truth generation from once per trial
    (the default, so the loss distribution marginalizes over targets) to
    once per sample size, shared by all k trials.
    """

    task: Task
    num_slots: int
    trials: int
    m_start: int
    m_step: int
    m_max: int
    master_seed: int
    fixed_target: bool = False

    def __post_init__(self) -> None:
        if self.num_slots < 2:
            raise ValueError("need at least 2 slots")
        if self.trials < 1:
            raise ValueError("need at least 1 trial")
        if self.m_start < 1 or self.m_step < 1 or self.m_max < self.m_start:
            raise ValueError(f"bad sample-size schedule ({self.m_start}, {self.m_step}, {self.m_max})")

    def schedule(self) -> list[int]:
        return list(range(self.m_start, self.m_max + 1, self.m_step))


def run_trials(task: Task, m: int, k: int, master_seed: int, *, fixed_target: bool = False) -> TrialBatch:
    """Run k independent trials at sample size m.

    Each trial draws a fresh ground truth from its own stream (or reuses
    the shared one in fixed-target mode), samples m labeled instances,
    learns, and records the exact loss.  Losses are ordered by trial
    index, and trial i's loss does not depend on k.
    """
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    target = None
    if fixed_target:
        shared = np.random.PCG64(derive_trial_seed(master_seed, m, FIXED_TARGET_INDEX))
        target = task.draw_target(np.random.Generator(shared))
    losses = task.trial_losses(m, _trial_draws(task, m, k, master_seed, fixed_target), target=target)
    return TrialBatch(task=task, m=m, k=k, master_seed=master_seed, losses=losses)


def histogram(losses: np.ndarray, num_slots: int) -> DiscreteDistribution:
    """Bin losses in [0, 1] into equal-width slots; masses are counts/k.

    Slot i is [i/l, (i+1)/l) with the last slot closed at 1.0, matching
    the slot layout of the discretized bounds so the two distributions are
    comparable slot by slot.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.size == 0:
        raise ValueError("cannot histogram an empty loss list")
    if num_slots < 2:
        raise ValueError("need at least 2 slots")
    if losses.min() < 0.0 or losses.max() > 1.0:
        raise ValueError("losses must lie in [0, 1]")
    edges = np.arange(1, num_slots) / num_slots
    idx = np.searchsorted(edges, losses, side="right")
    counts = np.bincount(idx, minlength=num_slots)
    return DiscreteDistribution(tuple((counts / losses.size).tolist()))
