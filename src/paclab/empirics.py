"""Repeated seeded learning trials and their empirical loss distributions.

A batch of k trials at sample size m produces k exact generalization
losses; histogramming them over equal-width slots yields the empirical
distribution that gets compared against the discretized theoretical
bound.  Every trial owns an independent PCG64 stream seeded from
(master_seed, m, trial_index) by a fixed 64-bit mix, so trial i sees
the same stream whatever k is.  :func:`run_trials` derives the PCG64
state words of the k streams of a sample size in vectorised uint64
arithmetic (:func:`pcg64_states`), up to 4,096 streams at a time.  One
PCG64 serves them all: trial i is seated by writing its four words into
the generator's ``pcg64_random_t``, reached through
``bit_generator.ctypes.state_address``, and one NumPy call per trial
fills a row of a chunk buffer with the draws of
``Generator(PCG64(derive_trial_seed(...)))`` built per trial.
Conjunction rows are raw outputs, decoded a chunk at a time.

The trials of a schedule of calls can be shared with forked workers
(:func:`schedule_losses`): each process claims ranges of consecutive trials
from one queue and writes their losses into one shared buffer, the parent
computes any range a worker leaves unfinished, and the bytes are the same
however the trials are split.  Every fork goes through one helper,
:func:`_forked`, which :mod:`paclab.boundgrid` uses too.
Three checks run once per range and raise :class:`NumpyMismatch`: its first
trial's derived words must equal ``PCG64(seed).state``; the struct must
read them in the order of a native ``__uint128_t`` or of NumPy's
emulated ``pcg128_t`` (high word first); and, for conjunctions, its
first trial's decode must equal a ``Generator.integers`` replay.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Generator, Iterable, Iterator

import numpy as np

from .learners import ConjunctionTask, ThresholdTask
from .theory import DiscreteDistribution

__all__ = [
    "ExperimentConfig",
    "FIXED_TARGET_INDEX",
    "NumpyMismatch",
    "TrialBatch",
    "derive_trial_seed",
    "histogram",
    "pcg64_states",
    "run_trials",
    "schedule_losses",
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

    The master seed absorbs m and the trial index, all three taken mod
    2**64, through two SplitMix64 finalizer rounds.  The constants are
    load-bearing: changing them changes every experiment byte downstream.
    """
    h = master_seed & _MASK64
    for word in (m, trial_index):
        h = _mix64((h + _GOLDEN_GAMMA + (word & _MASK64)) & _MASK64)
    return h


def _trial_seeds(master_seed: int, m: int, start: int, stop: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, m, i)`` for start <= i < stop, as uint64 (wrapping) arithmetic."""
    h = _mix64(((master_seed & _MASK64) + _GOLDEN_GAMMA + (m & _MASK64)) & _MASK64)
    return _mix64(np.arange(start, stop, dtype=np.uint64) + np.uint64((h + _GOLDEN_GAMMA) & _MASK64))


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
# Seeds and state words are derived for at most this many trials at a time:
# their temporaries, about 240 bytes a trial, then stay near 1 MiB however long
# the range.  Every range of a default run (at most 1,000 trials) is one block.
_STATE_TRIALS = 4096


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


class NumpyMismatch(RuntimeError):
    """This NumPy's PCG64 state, its struct layout or its ``Generator.integers`` draws differ from the engine's."""


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
    raise NumpyMismatch(f"PCG64 state layout of NumPy {np.__version__} is neither native nor emulated 128-bit")


def _trial_draws(
    task: Task, m: int, start: int, stop: int, master_seed: int, fixed_target: bool
) -> Iterator[np.ndarray]:
    """Chunks of rows for trials start <= i < stop, the row of trial i
    filled by one NumPy call on its stream: raw PCG64 outputs for
    ``task.decode`` (trial ``start``'s checked against
    ``Generator.integers``), or the doubles of ``Generator.random``.

    One PCG64 serves every trial: trial i is seated by writing its four
    state words, derived ``_STATE_TRIALS`` trials at a time, into the
    generator's struct.  ``random_raw`` and ``Generator.random`` do not
    read NumPy's buffered-uint32 flag, which that write leaves alone; the
    ``Generator.integers`` replay does, so it seats trial ``start`` through
    the ``state`` setter, which clears the flag.
    """
    raw = isinstance(task, ConjunctionTask)
    width = task.draw_width(m, fixed_target)
    rows = max(1, _CHUNK_BYTES // (8 * width))
    for block in range(start, stop, _STATE_TRIALS):
        seeds = _trial_seeds(master_seed, m, block, min(block + _STATE_TRIALS, stop))
        words = pcg64_states(seeds)
        if block == start:
            bit_generator = np.random.PCG64(int(seeds[0]))
            first = bit_generator.state
            derived = [int(words[0, 1]) << 64 | int(words[0, 0]), int(words[0, 3]) << 64 | int(words[0, 2])]
            if [first["state"]["state"], first["state"]["inc"]] != derived:
                raise NumpyMismatch(f"derived PCG64 state disagrees with NumPy {np.__version__} for seed {int(seeds[0])}")
            view = _state_view(bit_generator)
            order = _word_order(view, words[0])
            generator = np.random.Generator(bit_generator)
        words = words[:, order]
        for first_row in range(0, len(words), rows):
            chunk = np.empty((min(rows, len(words) - first_row), width), dtype=np.uint64 if raw else np.float64)
            for row, state in zip(chunk, words[first_row : first_row + rows]):
                view[:] = state
                if raw:
                    row[:] = bit_generator.random_raw(width)
                else:
                    generator.random(out=row)
            if raw and block == start and first_row == 0:
                bit_generator.state = first
                codes, bits = task.decode(m, chunk[:1], fixed_target)
                same = fixed_target or codes[0].tolist() == list(task.draw_target(generator).states)
                if not (same and np.array_equal(bits[0], generator.integers(0, 2, size=(m, task.n), dtype=np.uint8))):
                    raise NumpyMismatch(f"raw-output decode disagrees with Generator.integers on NumPy {np.__version__}")
            yield chunk


@dataclass(frozen=True)
class TrialBatch:
    """The exact losses of k independent trials at one sample size, in trial order."""

    losses: np.ndarray = field(repr=False)


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
        if self.m_max >= 2**63:  # as in BoundSpec; a longer schedule has no len()
            raise ValueError(f"sample size m must be below 2**63, got m_max={self.m_max}")
        # The trial seeds take it mod 2**64, so a seed outside that range would alias another.
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed <= _MASK64:
            raise ValueError(f"master seed must be an int from 0 to 2**64 - 1, got {self.master_seed!r}")

    def schedule(self) -> range:
        return range(self.m_start, self.m_max + 1, self.m_step)


def _range_losses(task: Task, m: int, start: int, stop: int, master_seed: int, fixed_target: bool) -> np.ndarray:
    """Losses of trials start <= i < stop: the unit of work a worker computes.  In fixed-target
    mode they share the ground truth drawn from the stream of trial index ``FIXED_TARGET_INDEX``."""
    target = None
    if fixed_target:
        target = task.draw_target(np.random.Generator(np.random.PCG64(derive_trial_seed(master_seed, m, FIXED_TARGET_INDEX))))
    return task.trial_losses(m, _trial_draws(task, m, start, stop, master_seed, fixed_target), target=target)


# A range holds at least this many draws: below it, the fixed set-up of a
# range and a worker's wake-up cost more than the split saves.
_MIN_RANGE_DRAWS = 1 << 15
# The split was measured with two processes on two CPUs; more ranges, each
# paying the set-up on fewer trials, are unmeasured and so not made.
_MAX_RANGES = 2


# The cgroup CPU quota: v2's "quota period" line ("max 100000" when there
# is none), and v1's two files, whose quota is -1 when there is none.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _words(path: str) -> list[str]:
    """The whitespace-separated words of a file; none if it cannot be read."""
    try:
        with open(path) as file:
            return file.read().split()
    except OSError:
        return []


def _quota_cpus() -> int | None:
    """Whole CPUs (at least 1) the cgroup CPU quota allows; None without a quota or its files."""
    try:
        quota, period = map(int, _words(_CPU_MAX) or _words(_CFS_QUOTA) + _words(_CFS_PERIOD))
    except ValueError:  # "max", a missing or unreadable file, or anything else
        return None
    return max(1, quota // period) if quota > 0 and period > 0 else None


def _usable_cpus() -> int:
    """CPUs this process may run on, capped by its cgroup CPU quota; 1 where the platform cannot tell."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    quota = _quota_cpus()
    return cpus if quota is None else min(cpus, quota)


def _range_count(k: int, width: int, cpus: int) -> int:
    """How many ranges k trials of ``width`` draws are split into: at most
    one per CPU of ``cpus`` and one per trial, each of at least
    ``_MIN_RANGE_DRAWS`` draws, and no more than ``_MAX_RANGES``."""
    return max(1, min(cpus, _MAX_RANGES, k, k * width // _MIN_RANGE_DRAWS))


@contextmanager
def _forked(count: int, work: Callable[[], object]) -> Iterator[Callable[[], None]]:
    """Forks up to ``count`` workers that run ``work()`` and yields a function that
    waits for them to exit; on leaving the block, kills and reaps them."""
    import gc
    import signal

    pids = []

    def wait() -> None:
        for pid in pids:  # leaves it to be reaped below
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)

    try:
        # SIGINT is blocked until each worker is on the list the finally reaps, and
        # stays blocked in them.  Frozen objects are skipped by a worker's
        # garbage collector, which so runs no finalizer of the parent's.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        gc.freeze()
        try:
            for _ in range(count):
                try:
                    pid = os.fork()
                except OSError:  # EAGAIN or ENOMEM: the processes already running do the work
                    break
                if pid == 0:
                    try:  # os._exit: a worker never unwinds into the parent's stack
                        work()
                    finally:
                        os._exit(0)
                pids.append(pid)
        finally:
            gc.unfreeze()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield wait
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def schedule_losses(task: Task, ms: Iterable[int], k: int, master_seed: int, *, fixed_target: bool = False) -> Generator:
    """The losses of ``run_trials(task, m, k, master_seed, fixed_target=...)``
    for each m of ``ms`` in turn, computed by this process and forked workers.

    Yields ``(call, losses)`` in schedule order, ``call`` being the ``run_trials``
    argument tuple: iterate it, or let ``run_trials(..., pool=...)`` take one call
    at a time, as ``run_experiment`` does.  The first ``next()`` does all the work.
    It queues each m's ``_range_count`` equal ranges for the usable CPUs (read
    once), the most draws first, forks the workers through :func:`_forked`,
    claims ranges beside them until the queue is empty, waits for them and
    computes any range they left.  Whatever happens, it reaps them and unmaps
    the shared buffer before that ``next()`` returns or raises.  Each ``next()``
    then reads its row from the buffer's memfd, which is closed when the
    generator ends or is closed.
    """
    import mmap

    cpus, calls, units, forks = _usable_cpus(), [], [], 0
    for row, m in enumerate(ms):
        calls.append((task, m, k, master_seed, fixed_target))
        width = task.draw_width(m, fixed_target)
        count = _range_count(k, width, cpus)
        forks = max(forks, count - 1)
        for start, stop in ((k * i // count, k * (i + 1) // count) for i in range(count)):
            units.append(((stop - start) * width, row, (task, m, start, stop, master_seed, fixed_target)))
    # The last ranges claimed are the shortest, so the processes run out of work together.
    units.sort(key=itemgetter(0), reverse=True)
    # The processes share a memfd: a claim counter, the losses, and a done byte per range;
    # a range is claimed under a record lock on it, which the kernel releases if its holder dies.
    size = 8 * (1 + len(calls) * k) + len(units)
    with open(os.memfd_create("paclab-trials"), "r+b", buffering=0) as memfd:
        fd = memfd.fileno()
        try:
            os.ftruncate(fd, size)
            counter = np.ndarray(1, np.int64, mmap.mmap(fd, size))
            losses = np.ndarray((len(calls), k), np.float64, counter.base, 8)
            done = np.ndarray(len(units), np.uint8, counter.base, size - len(units))

            def drain() -> None:
                """Claim ranges and compute them until the queue is empty; mark each done once written."""
                while True:
                    os.lockf(fd, os.F_LOCK, 1)
                    unit = int(counter[0])
                    counter[0] = unit + 1
                    os.lockf(fd, os.F_ULOCK, 1)
                    if unit >= len(units):
                        return
                    _, row, request = units[unit]
                    losses[row, request[2] : request[3]] = _range_losses(*request)
                    done[unit] = 1

            with _forked(forks, drain) as wait:
                drain()
                wait()
            for unit in np.flatnonzero(done == 0).tolist():  # ranges a worker left
                _, row, request = units[unit]
                losses[row, request[2] : request[3]] = _range_losses(*request)
        finally:
            counter = losses = done = None  # the views alone own the mapping, which a traceback would keep
        memfd.seek(8)  # a row is read when its call comes, so no loss is held twice
        for call in calls:
            yield call, np.fromfile(memfd, np.float64, k)


def run_trials(
    task: Task, m: int, k: int, master_seed: int, *, fixed_target: bool = False, pool: Generator | None = None
) -> TrialBatch:
    """Run k independent trials at sample size m.

    Each trial draws a fresh ground truth from its own stream (or reuses
    the shared one in fixed-target mode), samples m labeled instances,
    learns, and records the exact loss.  Losses are ordered by trial
    index, and trial i's loss does not depend on k.  With ``run_experiment``'s
    ``pool`` from :func:`schedule_losses` they are its next row, whichever process
    computed them; a call off its plan, or any after a failed one, raises ``RuntimeError``.
    """
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    if pool is None:
        losses = _range_losses(task, m, 0, k, master_seed, fixed_target)
    else:
        call, losses = next(pool, (None, None))
        if call != (task, m, k, master_seed, fixed_target):
            pool.close()
            raise RuntimeError(f"run_trials at m={m} is not the next call the trial workers planned")
    return TrialBatch(losses)


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
    if not np.all((losses >= 0.0) & (losses <= 1.0)):  # NaN fails both
        raise ValueError("losses must lie in [0, 1]")
    edges = np.arange(1, num_slots) / num_slots
    idx = np.searchsorted(edges, losses, side="right")
    counts = np.bincount(idx, minlength=num_slots)
    return DiscreteDistribution(counts / losses.size)
