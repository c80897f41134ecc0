"""Seed derivation, trial batches, determinism, and histogramming."""

import contextlib
import errno
import itertools
import math
import mmap
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import paclab.cli
import paclab.empirics as empirics
from paclab.analysis import moments
from paclab.cli import run_experiment
from paclab.empirics import (
    FIXED_TARGET_INDEX,
    ExperimentConfig,
    derive_trial_seed,
    histogram,
    pcg64_states,
    run_trials,
    schedule_losses,
)
from paclab.learners import (
    ConjunctionHypothesis,
    ConjunctionTask,
    ThresholdHypothesis,
    ThresholdTask,
    VariableState,
    conjunction_loss_exact,
    label_conjunction_batch,
    learn_conjunction_bits,
    threshold_loss_exact,
)
from paclab.theory import BoundSpec, discretize_bound

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
MASK64 = 2**64 - 1


def trial_rng(seed, m, index):
    return np.random.Generator(np.random.PCG64(derive_trial_seed(seed, m, index)))


def erm_cut(target, xs):
    """Smallest point ``target`` labels 0, else 1.0: the threshold ERM in plain Python."""
    return min((x for x in xs.tolist() if not x < target.a), default=1.0)


def reference_losses(task, m, k, seed, fixed_target):
    """Trial-by-trial replay of run_trials through the object-level functions."""
    shared = task.draw_target(trial_rng(seed, m, FIXED_TARGET_INDEX)) if fixed_target else None
    losses = []
    for i in range(k):
        rng = trial_rng(seed, m, i)
        target = shared if fixed_target else task.draw_target(rng)
        if isinstance(task, ConjunctionTask):
            bits = rng.integers(0, 2, size=(m, task.n), dtype=np.uint8)
            learned = learn_conjunction_bits(bits, label_conjunction_batch(target, bits))
            losses.append(conjunction_loss_exact(target, learned))
        else:
            losses.append(threshold_loss_exact(target, ThresholdHypothesis(erm_cut(target, rng.random(m)))))
    return losses


def ks_distance(losses, cdf, atom=None):
    """sup |F_k - F| for the law with right-continuous CDF ``cdf`` and an
    optional ``(point, mass)`` jump, checked on both sides of every step."""
    values, counts = np.unique(losses, return_counts=True)
    if atom is not None and atom[0] not in values:
        at = np.searchsorted(values, atom[0])
        values, counts = np.insert(values, at, atom[0]), np.insert(counts, at, 0)
    upper = np.cumsum(counts) / len(losses)
    lower = upper - counts / len(losses)
    law = cdf(values)
    law_left = law - (atom[1] * (values == atom[0]) if atom is not None else 0.0)
    return max(np.abs(upper - law).max(), np.abs(lower - law_left).max())


class TestSeedDerivation:
    def test_frozen_reference_values(self):
        # regression anchors: changing these changes every stored experiment
        assert derive_trial_seed(0, 0, 0) == 12035550249420947055
        assert derive_trial_seed(2024, 25, 0) == 12467265209873236253
        assert derive_trial_seed(2024, 25, 1) == 14397924879415649216
        assert derive_trial_seed(2024, 50, 0) == 17461684953660140614

    def test_stays_in_64_bits(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            for m in (1, 977, 10**6):
                value = derive_trial_seed(seed, m, 123)
                assert 0 <= value < 2**64

    def test_no_collisions_across_trial_grid(self):
        seeds = {
            derive_trial_seed(2024, m, i)
            for m in range(25, 1251, 25)
            for i in range(200)
        }
        assert len(seeds) == 50 * 200

    def test_sensitive_to_every_coordinate(self):
        base = derive_trial_seed(7, 30, 4)
        assert derive_trial_seed(8, 30, 4) != base
        assert derive_trial_seed(7, 31, 4) != base
        assert derive_trial_seed(7, 30, 5) != base

    def test_fixed_target_index_is_out_of_range(self):
        assert FIXED_TARGET_INDEX >= 2**64 - 1

    def test_vectorised_seeds_match_scalar_derivation(self):
        for seed in (2024, 7, -1, 0, 2**70):
            for m in (1, 977, 10**6):
                expected = [derive_trial_seed(seed, m, i) for i in range(300)]
                assert empirics._trial_seeds(seed, m, 0, 300).tolist() == expected
                assert empirics._trial_seeds(seed, m, 120, 300).tolist() == expected[120:]


NATIVE_ORDER, EMULATED_ORDER = [0, 1, 2, 3], [1, 0, 3, 2]


class TestStreamSeeding:
    def test_states_match_numpy_pcg64(self):
        randoms = np.random.default_rng(20250).integers(0, 2**64, size=2000, dtype=np.uint64)
        seeds = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), randoms])
        expected = [np.random.PCG64(s).state["state"] for s in seeds.tolist()]
        words = pcg64_states(seeds)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        got = [{"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo} for lo, hi, inc_lo, inc_hi in words.tolist()]
        assert got == expected

    def test_state_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(empirics, "pcg64_states", lambda seeds: np.ones((len(seeds), 4), dtype=np.uint64))
        with pytest.raises(RuntimeError, match="derived PCG64 state"):
            run_trials(ThresholdTask(), 5, 3, 2024)

    @pytest.mark.parametrize("order", [NATIVE_ORDER, EMULATED_ORDER], ids=["native", "emulated"])
    def test_word_order_accepts_both_layouts(self, order):
        words = pcg64_states(np.array(EDGE_SEEDS, dtype=np.uint64))
        for row in words:
            assert empirics._word_order(row[order], row) == order

    def test_word_order_rejects_other_readings(self):
        row = pcg64_states(np.array([2024], dtype=np.uint64))[0]
        orders = [list(order) for order in itertools.permutations(range(4))]
        readings = [row[order] for order in orders if order not in (NATIVE_ORDER, EMULATED_ORDER)]
        readings += [np.zeros(4, dtype=np.uint64), row ^ np.array([0, 0, 0, 1], dtype=np.uint64)]
        for reading in readings:
            with pytest.raises(RuntimeError, match="layout"):
                empirics._word_order(reading, row)

    @pytest.mark.parametrize("task", [ConjunctionTask(4), ThresholdTask()], ids=["conjunction", "threshold"])
    def test_misread_state_view_raises(self, monkeypatch, task):
        monkeypatch.setattr(empirics, "_state_view", lambda bit_generator: np.zeros(4, dtype=np.uint64))
        with pytest.raises(RuntimeError, match="layout"):
            run_trials(task, 5, 3, 2024)

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("seed", [2024, 7, -1, 0, 2**70])
    def test_engine_matches_reference_replay(self, seed, fixed_target):
        tasks = [ConjunctionTask(n) for n in (1, 3, 4, 10, 17)] + [ThresholdTask()]
        for m in (1, 25, 300, 1250):
            for task in tasks:
                batch = run_trials(task, m, 6, seed, fixed_target=fixed_target)
                assert batch.losses.tolist() == reference_losses(task, m, 6, seed, fixed_target), (task, m)


def pcg64_with_first_output(value, hi=0xDEAD_BEEF_0123_4567, inc=0x5851_F42D_4C95_7F2D_1405_7B7E_F767_814F):
    """A PCG64 whose next output is ``value``.

    A step goes state -> state * MULT + inc, then XSL-RR outputs
    rotr64(hi ^ lo, hi >> 58) of the stepped state, so choosing
    lo = hi ^ rotl64(value, hi >> 58) fixes the output; the state before
    the step is (stepped - inc) * MULT**-1 mod 2**128.
    """
    rot = hi >> 58
    lo = hi ^ (((value << rot) | (value >> (64 - rot))) & MASK64)
    state = (((hi << 64) | lo) - inc) * pow(PCG_MULT, -1, 2**128) % 2**128
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return bit_generator


def replayed_draws(task, m, bit_generator, fixed_target):
    """Target codes and bits through Generator.integers, the reference the decode must equal."""
    rng = np.random.Generator(bit_generator)
    codes = None if fixed_target else rng.integers(0, 3, size=task.n)
    return codes, rng.integers(0, 2, size=(m, task.n), dtype=np.uint8)


def decoded_draws(task, m, bit_generator, fixed_target):
    state = bit_generator.state
    codes, bits = task.decode(m, bit_generator.random_raw(task.draw_width(m, fixed_target))[None], fixed_target)
    bit_generator.state = state
    return None if codes is None else codes[0], bits[0]


class TestRawDecode:
    # 0 makes both uint32 words of the first output zero; the others one of them.
    @pytest.mark.parametrize("first", [0, 0xFFFF_FFFF_0000_0000, 0x0000_0000_FFFF_FFFF, 0x0000_0003_0000_0000])
    @pytest.mark.parametrize("n", [1, 3, 10, 17])
    def test_zero_target_words_are_skipped(self, first, n):
        task = ConjunctionTask(n)
        bit_generator = pcg64_with_first_output(first)
        assert int(bit_generator.random_raw()) == first
        bit_generator = pcg64_with_first_output(first)
        codes, bits = decoded_draws(task, 25, bit_generator, False)
        expected_codes, expected_bits = replayed_draws(task, 25, bit_generator, False)
        assert codes.tolist() == expected_codes.tolist()
        assert np.array_equal(bits, expected_bits)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_zero_word_row_scores_in_a_batch(self, n):
        m, task = 40, ConjunctionTask(n)

        def streams():
            return [np.random.PCG64(5), pcg64_with_first_output(0), np.random.PCG64(6)]

        raw = np.stack([bg.random_raw(task.draw_width(m, False)) for bg in streams()])
        expected = []
        for bg in streams():
            codes, bits = replayed_draws(task, m, bg, False)
            target = ConjunctionHypothesis(tuple(VariableState(int(c)) for c in codes))
            expected.append(conjunction_loss_exact(target, learn_conjunction_bits(bits, label_conjunction_batch(target, bits))))
        assert task.trial_losses(m, [raw[:1], raw[1:]]).tolist() == expected

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 10, 17])
    def test_float_bits_of_a_mixed_chunk_equal_the_replay(self, n, fixed_target):
        # Ordinary rows around rows whose target draw rejects zero words.
        m, task = 40, ConjunctionTask(n)

        def streams():
            return [np.random.PCG64(5), pcg64_with_first_output(0), np.random.PCG64(6), pcg64_with_first_output(1 << 32)]

        raw = np.stack([bg.random_raw(task.draw_width(m, fixed_target)) for bg in streams()])
        codes, bits = task.decode(m, raw, fixed_target)
        assert bits.dtype == np.float32 and bits.shape == (4, m, n)
        assert set(np.unique(bits).tolist()) <= {0.0, 1.0}
        for row, bg in enumerate(streams()):
            expected_codes, expected_bits = replayed_draws(task, m, bg, fixed_target)
            assert fixed_target or codes[row].tolist() == expected_codes.tolist()
            assert np.array_equal(bits[row], expected_bits), row
        assert codes is None if fixed_target else codes.shape == (4, n)

    @pytest.mark.parametrize("fixed_target", [False, True])
    def test_bits_are_float64_from_two_to_the_24(self, fixed_target):
        # Zero rows allocate nothing, however wide a row is.
        task = ConjunctionTask(1)
        for m, dtype in ((2**24 - 1, np.float32), (2**24, np.float64)):
            _, bits = task.decode(m, np.empty((0, task.draw_width(m, fixed_target)), dtype=np.uint64), fixed_target)
            assert bits.dtype == dtype and bits.shape == (0, m, 1)

    def test_too_many_zero_words_raise(self):
        task = ConjunctionTask(4)
        with pytest.raises(RuntimeError):
            task.decode(10, np.zeros((1, task.draw_width(10, False)), dtype=np.uint64), False)

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_odd_n_bits_start_mid_output(self, n, fixed_target):
        task = ConjunctionTask(n)
        for seed in range(20):
            for m in (1, 2, 7, 300):
                codes, bits = decoded_draws(task, m, np.random.PCG64(seed), fixed_target)
                expected_codes, expected_bits = replayed_draws(task, m, np.random.PCG64(seed), fixed_target)
                assert fixed_target or codes.tolist() == expected_codes.tolist()
                assert np.array_equal(bits, expected_bits)

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("task", [ConjunctionTask(10), ThresholdTask()], ids=["conjunction", "threshold"])
    def test_chunk_boundaries(self, task, fixed_target):
        rows = empirics._CHUNK_BYTES // (8 * task.draw_width(1250, fixed_target))
        assert rows > 1
        for k in (rows - 1, rows, rows + 1):
            losses = run_trials(task, 1250, k, 2024, fixed_target=fixed_target).losses
            assert losses.tolist() == reference_losses(task, 1250, k, 2024, fixed_target), k

    @pytest.mark.parametrize("broken, fixed_target", [("codes", False), ("bits", False), ("bits", True)])
    def test_bad_decode_raises(self, monkeypatch, broken, fixed_target):
        decode = ConjunctionTask.decode

        def bad_decode(self, m, raw, fixed):
            codes, bits = decode(self, m, raw, fixed)
            if broken == "codes":
                return (codes + 1) % 3, bits
            flipped = bits.copy()
            flipped[..., -1] = 1 - bits[..., -1]  # flips the last variable
            return codes, flipped

        monkeypatch.setattr(ConjunctionTask, "decode", bad_decode)
        with pytest.raises(RuntimeError, match="decode"):
            run_trials(ConjunctionTask(10), 25, 3, 2024, fixed_target=fixed_target)


class TestRunTrials:
    def test_batch_shape_and_range(self):
        batch = run_trials(ConjunctionTask(10), 25, 300, 2024)
        assert batch.losses.shape == (300,)
        assert batch.losses.min() >= 0.0 and batch.losses.max() <= 1.0

    def test_deterministic(self):
        b1 = run_trials(ThresholdTask(), 40, 100, 99)
        b2 = run_trials(ThresholdTask(), 40, 100, 99)
        assert np.array_equal(b1.losses, b2.losses)

    @pytest.mark.parametrize("fixed_target", [False, True])
    def test_trial_prefix_is_stable(self, fixed_target):
        longer = run_trials(ConjunctionTask(10), 50, 200, 2024, fixed_target=fixed_target)
        shorter = run_trials(ConjunctionTask(10), 50, 50, 2024, fixed_target=fixed_target)
        rerun = run_trials(ConjunctionTask(10), 50, 200, 2024, fixed_target=fixed_target)
        assert longer.losses[:50].tobytes() == shorter.losses.tobytes()
        assert longer.losses.tobytes() == rerun.losses.tobytes()

    def test_conjunction_mean_stays_below_bound_mean(self):
        batch = run_trials(ConjunctionTask(10), 25, 1000, 2024)
        q25 = discretize_bound(BoundSpec.finite_h(m=25, h_size=59049), 100)
        assert batch.losses.mean() < moments(q25)[0]

    def test_threshold_losses_vanish_at_huge_m(self):
        batch = run_trials(ThresholdTask(), 1_000_000, 5, 5)
        assert batch.losses.max() < 1e-4

    def test_conjunction_losses_dyadic_with_denominator_1024(self):
        batch = run_trials(ConjunctionTask(10), 25, 500, 11)
        scaled = batch.losses * 1024
        assert np.array_equal(scaled, np.round(scaled))

    def test_fixed_target_mode_deterministic_and_distinct(self):
        per_trial = run_trials(ThresholdTask(), 30, 50, 77)
        fixed_a = run_trials(ThresholdTask(), 30, 50, 77, fixed_target=True)
        fixed_b = run_trials(ThresholdTask(), 30, 50, 77, fixed_target=True)
        assert np.array_equal(fixed_a.losses, fixed_b.losses)
        assert not np.array_equal(fixed_a.losses, per_trial.losses)

    def test_fixed_target_shares_one_ground_truth(self):
        # replay: the shared target comes from the reserved index stream
        task = ThresholdTask()
        m, k, seed = 30, 40, 123
        target = task.draw_target(trial_rng(seed, m, FIXED_TARGET_INDEX))
        batch = run_trials(task, m, k, seed, fixed_target=True)
        for i, loss in enumerate(batch.losses):
            assert loss == threshold_loss_exact(target, ThresholdHypothesis(erm_cut(target, trial_rng(seed, m, i).random(m))))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            run_trials(ThresholdTask(), 0, 10, 1)
        with pytest.raises(ValueError):
            run_trials(ThresholdTask(), 10, 0, 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable CPU count that ``schedule_losses`` sees.  ``uncapped`` also
    lifts the cap on the range count to it, so more than two ranges run."""
    def set_cpus(count, uncapped=False):
        monkeypatch.setattr(empirics, "_usable_cpus", lambda: count)
        if uncapped:
            monkeypatch.setattr(empirics, "_MAX_RANGES", count)

    return set_cpus


@pytest.fixture
def cgroup(monkeypatch, tmp_path):
    """Points the cgroup quota files at ``tmp_path``, holding only the
    named ones, and sets the affinity to ``affinity`` CPUs."""
    def set_cgroup(files, affinity):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(empirics, "_CPU_MAX", str(tmp_path / "cpu.max"))
        monkeypatch.setattr(empirics, "_CFS_QUOTA", str(tmp_path / "cpu.cfs_quota_us"))
        monkeypatch.setattr(empirics, "_CFS_PERIOD", str(tmp_path / "cpu.cfs_period_us"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)

    return set_cgroup


def pooled_losses(task, ms, k, seed, fixed_target=False):
    """The rows ``schedule_losses`` yields for each m of ``ms`` in turn, each
    for its planned ``run_trials`` call; no worker outlives them."""
    calls, losses = zip(*schedule_losses(task, ms, k, seed, fixed_target=fixed_target))
    assert list(calls) == [(task, m, k, seed, fixed_target) for m in ms]
    assert_no_child_left()
    return list(losses)


def planned_queue(monkeypatch, task, ms, k):
    """The queue of ``schedule_losses(task, ms, k, 2024)`` in claim order, as
    ``(row, (m, start, stop))``: with every fork refused, this process claims
    each range in turn, and ``row`` is the schedule position whose losses it fills."""
    claims = []

    def range_losses(task, m, start, stop, *args):
        claims.append((m, start, stop))
        return np.full(stop - start, float(len(claims)))  # the claim's number marks where it landed

    def refused_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    with monkeypatch.context() as patch:
        patch.setattr(empirics, "_range_losses", range_losses)
        patch.setattr(os, "fork", refused_fork)
        rows = [losses for _, losses in schedule_losses(task, ms, k, 2024)]
    return [
        (next(row for row, losses in enumerate(rows) if losses[start] == number), (m, start, stop))
        for number, (m, start, stop) in enumerate(claims, 1)
    ]


class TestTrialRanges:
    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("task", [ConjunctionTask(10), ThresholdTask()], ids=["conjunction", "threshold"])
    @pytest.mark.parametrize("m", [25, 1250])
    def test_split_ranges_concatenate_to_the_whole(self, task, m, fixed_target):
        k, seed = 13, 2024  # at m = 1250 a 64 KiB chunk holds 5 or 6 rows
        whole = empirics._range_losses(task, m, 0, k, seed, fixed_target)
        assert whole.tolist() == reference_losses(task, m, k, seed, fixed_target)
        for split in (1, k // 2, k - 1):
            head = empirics._range_losses(task, m, 0, split, seed, fixed_target)
            tail = empirics._range_losses(task, m, split, k, seed, fixed_target)
            assert np.concatenate([head, tail]).tobytes() == whole.tobytes(), split

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("task", [ConjunctionTask(10), ThresholdTask()], ids=["conjunction", "threshold"])
    @pytest.mark.parametrize("m", [25, 1250])
    def test_state_words_derived_a_block_at_a_time(self, monkeypatch, task, m, fixed_target):
        # Blocks of 4 trials cut the draw chunks (5 or more rows) at other places; no loss moves.
        seed = 2024
        whole = empirics._range_losses(task, m, 3, 16, seed, fixed_target)
        monkeypatch.setattr(empirics, "_STATE_TRIALS", 4)
        assert empirics._range_losses(task, m, 3, 16, seed, fixed_target).tobytes() == whole.tobytes()

    def test_a_long_range_holds_no_state_words_of_all_its_trials(self):
        # Derived for all 400,000 trials at once, their temporaries raised the peak by about 90 MiB.
        script = (
            "import resource\n"
            "from paclab.empirics import run_trials\n"
            "from paclab.learners import ThresholdTask\n"
            "run_trials(ThresholdTask(), 20, 100, 1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "run_trials(ThresholdTask(), 20, 400_000, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=worker_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert int(proc.stdout) < 20 * 1024  # KiB

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("task", [ConjunctionTask(10), ThresholdTask()], ids=["conjunction", "threshold"])
    @pytest.mark.parametrize("count", [2, 3])
    def test_pooled_run_matches_one_process(self, cpus, task, count, fixed_target):
        cpus(count, uncapped=True)
        assert empirics._range_count(300, task.draw_width(400, fixed_target), empirics._usable_cpus()) == count
        for seed in (2024, 7):
            [pooled] = pooled_losses(task, [400], 300, seed, fixed_target)
            assert pooled.tobytes() == run_trials(task, 400, 300, seed, fixed_target=fixed_target).losses.tobytes()

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_ranges_cover_the_trials_in_equal_parts(self, cpus, monkeypatch, count):
        cpus(count, uncapped=True)
        for k in (1, 2, 3, 5, 100, 1000):
            ranges = sorted(request[1:] for _, request in planned_queue(monkeypatch, ThresholdTask(), [2**16], k))
            assert [start for start, _ in ranges] == [0, *(stop for _, stop in ranges[:-1])] and ranges[-1][1] == k
            sizes = [stop - start for start, stop in ranges]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1 and len(ranges) == min(k, count), (k, ranges)
        cpus(2)
        assert sorted(request[1:] for _, request in planned_queue(monkeypatch, ThresholdTask(), [1000], 1000)) == [
            (0, 500),
            (500, 1000),
        ]

    def test_queue_holds_the_most_draws_first(self, cpus, monkeypatch):
        cpus(2)
        task = ConjunctionTask(10)
        queue = planned_queue(monkeypatch, task, [25, 1250, 100, 1250], 1000)
        draws = [(stop - start) * task.draw_width(m, False) for _, (m, start, stop) in queue]
        assert draws == sorted(draws, reverse=True)
        # m = 25 is one range; equal draws keep the schedule's order.
        assert queue == [
            (1, (1250, 0, 500)),
            (1, (1250, 500, 1000)),
            (3, (1250, 0, 500)),
            (3, (1250, 500, 1000)),
            (2, (100, 0, 500)),
            (2, (100, 500, 1000)),
            (0, (25, 0, 1000)),
        ]

    def test_range_count_gate(self, cpus):
        assert empirics._range_count(20, 1001, 4) == 1  # wide-io: 20,020 draws stay in one process
        assert empirics._range_count(1000, 21, 4) == 1
        assert empirics._range_count(1000, 66, 4) == 2
        assert empirics._range_count(1000, 1575, 4) == 2  # no more than the two ranges measured
        assert empirics._range_count(1, 2**16, 4) == 1  # no more ranges than trials
        cpus(4, uncapped=True)
        assert empirics._range_count(1000, 1575, 4) == 4
        assert empirics._range_count(3, 2**16, 4) == 3
        assert empirics._range_count(1000, 1575, 1) == 1

    @pytest.mark.parametrize("uncapped", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_fewer_trials_than_cpus(self, cpus, k, uncapped):
        # Trials of 2**16 draws pass the draw gate one by one, so only the
        # trial count keeps a range from being empty.
        cpus(4, uncapped)
        m = 2**16 - 1
        [pooled] = pooled_losses(ThresholdTask(), [m], k, 2024)
        assert pooled.tobytes() == run_trials(ThresholdTask(), m, k, 2024).losses.tobytes()

    def test_no_affinity_call_means_one_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert empirics._usable_cpus() == 1

    @pytest.mark.parametrize(
        "files, usable",
        [
            ({"cpu.max": "max 100000\n"}, 4),
            ({"cpu.max": "150000 100000\n"}, 1),
            ({"cpu.max": "250000 100000\n"}, 2),
            ({"cpu.max": "50000 100000\n"}, 1),
            ({"cpu.max": "900000 100000\n"}, 4),
            ({"cpu.cfs_quota_us": "-1\n", "cpu.cfs_period_us": "100000\n"}, 4),
            ({"cpu.cfs_quota_us": "150000\n", "cpu.cfs_period_us": "100000\n"}, 1),
            ({"cpu.cfs_quota_us": "300000\n", "cpu.cfs_period_us": "100000\n"}, 3),
            ({"cpu.cfs_quota_us": "300000\n"}, 4),
            ({"cpu.max": "garbage\n"}, 4),
            ({}, 4),
        ],
    )
    def test_cgroup_quota_caps_usable_cpus(self, cgroup, files, usable):
        cgroup(files, affinity=4)
        assert empirics._usable_cpus() == usable

    def test_quota_of_one_cpu_forks_nothing(self, cgroup, monkeypatch):
        cgroup({"cpu.max": "100000 100000\n"}, affinity=2)

        def no_fork():
            raise AssertionError("forked under a one-CPU quota")

        monkeypatch.setattr(os, "fork", no_fork)
        [pooled] = pooled_losses(ConjunctionTask(10), [1250], 100, 2024)
        assert pooled.tobytes() == run_trials(ConjunctionTask(10), 1250, 100, 2024).losses.tobytes()

    def test_usable_cpus_are_read_once_per_group(self, monkeypatch):
        # Not once per call: the quota files cost a few reads each time.
        reads = []
        monkeypatch.setattr(empirics, "_usable_cpus", lambda: reads.append(1) or 2)
        pooled_losses(ThresholdTask(), [500, 1000, 1500], 100, 2024)
        assert len(reads) == 1

    def test_one_cpu_forks_nothing(self, cpus, monkeypatch):
        cpus(1)

        def no_fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        [pooled] = pooled_losses(ConjunctionTask(10), [1250], 100, 2024)
        assert pooled.tobytes() == run_trials(ConjunctionTask(10), 1250, 100, 2024).losses.tobytes()

    def test_fork_emits_no_warning(self, cpus):
        # Recorded, not raised: with a native thread alive, CPython 3.12's
        # "use of fork() may lead to deadlocks" DeprecationWarning is not
        # raised from os.fork under an "error" filter, but it is recorded.
        cpus(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled_losses(ConjunctionTask(10), [1250], 100, 2024)
        assert [str(warning.message) for warning in caught] == []


@pytest.fixture
def deadline():
    """Fails a test whose worker call hangs instead of raising."""
    def expire(signum, frame):
        raise TimeoutError("a trial worker call hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestTrialQueue:
    SCHEDULE = [400, 800, 1200]

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("task", [ConjunctionTask(10), ThresholdTask()], ids=["conjunction", "threshold"])
    def test_planned_schedule_matches_one_process(self, cpus, task, fixed_target):
        cpus(2)
        pool = schedule_losses(task, self.SCHEDULE, 300, 2024, fixed_target=fixed_target)
        for m, (call, pooled) in zip(self.SCHEDULE, pool, strict=True):
            assert call == (task, m, 300, 2024, fixed_target)
            alone = run_trials(task, m, 300, 2024, fixed_target=fixed_target)
            assert pooled.tobytes() == alone.losses.tobytes()
            assert_no_child_left()  # the first next() reaped the workers

    def test_the_first_call_forks_and_reaps(self, cpus, monkeypatch):
        cpus(2)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        pool = schedule_losses(ConjunctionTask(10), self.SCHEDULE, 300, 2024)
        assert forks == []
        for m, (_, pooled) in zip(self.SCHEDULE, pool, strict=True):
            assert forks == [1]
            assert_no_child_left()
            assert "paclab-trials" not in Path("/proc/self/maps").read_text()  # nor is the buffer mapped
            assert pooled.tobytes() == run_trials(ConjunctionTask(10), m, 300, 2024).losses.tobytes()

    @pytest.mark.parametrize(
        "task, m, seed, k, fixed_target",
        [
            (ThresholdTask(), 800, 2024, 300, False),
            (ThresholdTask(), 400, 7, 300, False),
            (ThresholdTask(), 400, 2024, 301, False),
            (ThresholdTask(2), 400, 2024, 300, False),
            (ConjunctionTask(10), 400, 2024, 300, False),
            (ThresholdTask(), 400, 2024, 300, True),
        ],
        ids=["out-of-order", "other-seed", "other-k", "other-vc-dim", "other-task", "other-target-mode"],
    )
    def test_off_plan_call_raises_and_leaves_no_child(self, cpus, task, m, seed, k, fixed_target):
        cpus(2)
        # The off-plan call takes the first row, and the second is planned for
        # the call the test makes next: the pool must not hand it over.
        pool = schedule_losses(ThresholdTask(), [400, *self.SCHEDULE], 300, 2024)
        with pytest.raises(RuntimeError, match=f"m={m} is not the next call"):
            run_trials(task, m, k, seed, fixed_target=fixed_target, pool=pool)
        assert_no_child_left()
        with pytest.raises(RuntimeError, match="m=400 is not the next call"):  # nor is the planned one after it
            run_trials(ThresholdTask(), 400, 300, 2024, pool=pool)

    def test_thousands_of_ranges_are_each_claimed_once(self, cpus, monkeypatch, tmp_path):
        # Four processes on at most two CPUs claim 8,400 one-trial ranges, each
        # the next number of the memfd's claim counter, taken under os.lockf;
        # there must be more claims than 64 KiB of 8-byte numbers.  A lost update
        # of the counter would hand one range to two of them.
        cpus(4, uncapped=True)
        monkeypatch.setattr(empirics, "_MIN_RANGE_DRAWS", 1)
        schedule = list(range(1, 2101))
        alone = [run_trials(ThresholdTask(), m, 4, 2024).losses.tobytes() for m in schedule]
        original, log = empirics._range_losses, os.open(tmp_path / "claims", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def range_losses(task, m, start, *args):
            os.write(log, f"{m} {start}\n".encode())
            return original(task, m, start, *args)

        with monkeypatch.context() as patch:
            patch.setattr(empirics, "_range_losses", range_losses)
            try:
                pooled = [losses.tobytes() for _, losses in schedule_losses(ThresholdTask(), schedule, 4, 2024)]
            finally:
                os.close(log)
        assert_no_child_left()
        claims = (tmp_path / "claims").read_text().splitlines()
        assert 8 * len(claims) > 1 << 16
        assert sorted(claims) == sorted(f"{m} {start}" for m in schedule for start in range(4))
        assert pooled == alone

    def test_slow_worker_leaves_the_parent_most_ranges(self, cpus, monkeypatch):
        cpus(2)
        schedule = list(range(400, 8001, 400))
        original, parent, claimed = empirics._range_losses, os.getpid(), []

        def range_losses(*args):
            if os.getpid() == parent:
                claimed.append(args[1:4])
            else:
                time.sleep(0.2)
            return original(*args)

        monkeypatch.setattr(empirics, "_range_losses", range_losses)
        pooled = pooled_losses(ThresholdTask(), schedule, 300, 2024)
        assert len(claimed) > len(schedule), claimed  # more than half of the two ranges per m
        for m, losses in zip(schedule, pooled):
            assert losses.tobytes() == run_trials(ThresholdTask(), m, 300, 2024).losses.tobytes()


def in_workers(monkeypatch, action):
    """Makes ``_range_losses`` run ``action`` on the start of every range a
    worker claims.  A range of this process first waits until a worker has
    taken the queue lock, so a worker claims one whatever the timing."""
    original, lockf, parent = empirics._range_losses, os.lockf, os.getpid()
    locked = mmap.mmap(-1, 1)  # anonymous and shared, so a worker's write reaches this process

    def queue_lockf(fd, command, length):
        lockf(fd, command, length)
        if command == os.F_LOCK and os.getpid() != parent:
            locked[0] = 1

    def range_losses(task, m, start, *args):
        if os.getpid() != parent:
            action(start)
        while not locked[0]:
            time.sleep(0.001)
        return original(task, m, start, *args)

    monkeypatch.setattr(empirics, "_range_losses", range_losses)
    monkeypatch.setattr(os, "lockf", queue_lockf)


def fail_in_parent(monkeypatch, error):
    """Makes every range this process claims raise ``error``; a worker's ranges are still computed."""
    original, parent = empirics._range_losses, os.getpid()

    def range_losses(*args):
        if os.getpid() == parent:
            raise error("parent range failed")
        return original(*args)

    monkeypatch.setattr(empirics, "_range_losses", range_losses)


# A run of five sample sizes whose every range holds enough draws to be split.
SMALL_RUN = ExperimentConfig(ConjunctionTask(10), 10, 100, 250, 250, 1250, 2024)


def empirical_masses(results):
    return [p.masses.tolist() for _, p, _ in results]


@pytest.mark.usefixtures("deadline")
class TestTrialWorkerFailures:
    """A range that fails or is killed only in a worker gives the one-process
    bytes, and one that fails in the parent raises there.  Either way the
    workers are reaped and print nothing."""

    def test_worker_exception_leaves_the_range_to_the_parent(self, cpus, monkeypatch, capfd):
        cpus(3, uncapped=True)
        alone = run_trials(ThresholdTask(), 1000, 100, 2024).losses

        def fail(start):
            raise ValueError(f"range at {start} failed in a worker")

        in_workers(monkeypatch, fail)
        [pooled] = pooled_losses(ThresholdTask(), [1000], 100, 2024)
        assert pooled.tobytes() == alone.tobytes()
        assert capfd.readouterr().err == ""

    def test_exception_surfaces_at_the_first_call(self, cpus, monkeypatch, capfd):
        # The first next() computes the whole queue, so a range of a later m
        # that fails in both processes fails it.
        cpus(2)
        original = empirics._range_losses

        def range_losses(task, m, start, *args):
            if m == 800 and start > 0:
                raise ValueError(f"range at m={m} failed")
            return original(task, m, start, *args)

        monkeypatch.setattr(empirics, "_range_losses", range_losses)
        pool = schedule_losses(ThresholdTask(), [400, 800, 1200], 300, 2024)
        with pytest.raises(ValueError, match="range at m=800 failed"):
            next(pool)
        assert_no_child_left()
        assert capfd.readouterr().err == ""

    def test_a_pool_never_called_forks_nothing(self, cpus, monkeypatch):
        cpus(2)

        def no_fork():
            raise AssertionError("forked before the first call")

        monkeypatch.setattr(os, "fork", no_fork)
        schedule_losses(ConjunctionTask(10), list(range(400, 4001, 400)), 300, 2024)
        assert_no_child_left()

    def test_killed_worker_leaves_the_one_process_bytes(self, cpus, monkeypatch, capfd):
        # The range it claimed is never marked done, so the parent computes
        # it instead of histogramming the zeros the buffer holds there.
        cpus(1)
        alone = empirical_masses(run_experiment(SMALL_RUN))
        cpus(2)
        in_workers(monkeypatch, lambda start: os.kill(os.getpid(), signal.SIGKILL))
        assert empirical_masses(run_experiment(SMALL_RUN)) == alone
        assert_no_child_left()
        assert capfd.readouterr().err == ""

    def test_worker_killed_holding_the_queue_lock_leaves_the_one_process_bytes(self, cpus, monkeypatch, capfd):
        # It dies after taking a range and before releasing the lock; the
        # kernel releases it, so the parent claims the rest instead of waiting.
        cpus(1)
        alone = empirical_masses(run_experiment(SMALL_RUN))
        cpus(2)
        in_workers(monkeypatch, lambda start: None)
        parent, lockf, released = os.getpid(), os.lockf, []

        def dying_lockf(fd, command, length):
            if command == os.F_ULOCK and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            released.append(command == os.F_ULOCK)
            return lockf(fd, command, length)

        monkeypatch.setattr(os, "lockf", dying_lockf)
        assert empirical_masses(run_experiment(SMALL_RUN)) == alone
        assert any(released)  # the parent went on claiming under the lock
        assert_no_child_left()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_error_tears_the_group_down(self, cpus, monkeypatch, capfd, error):
        cpus(2)
        fail_in_parent(monkeypatch, error)
        pool = schedule_losses(ConjunctionTask(10), [1250] * 3, 100, 2024)
        with pytest.raises(error, match="parent range failed"):
            run_trials(ConjunctionTask(10), 1250, 100, 2024, pool=pool)
        assert_no_child_left()
        # Every later call raises instead of reading the abandoned buffer.
        for _ in range(3):
            with pytest.raises(RuntimeError, match="is not the next call"):
                run_trials(ConjunctionTask(10), 1250, 100, 2024, pool=pool)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("case", ["success", "killed-worker", "parent-error", "ftruncate-error"])
    def test_no_descriptor_or_child_outlives_run_experiment(self, cpus, monkeypatch, case):
        cpus(2)
        before, raises = sorted(os.listdir("/proc/self/fd")), contextlib.nullcontext()
        if case == "killed-worker":
            in_workers(monkeypatch, lambda start: os.kill(os.getpid(), signal.SIGKILL))
        elif case == "parent-error":
            fail_in_parent(monkeypatch, RuntimeError)
            raises = pytest.raises(RuntimeError, match="parent range failed")
        elif case == "ftruncate-error":

            def no_space(fd, size):
                raise OSError(errno.ENOSPC, "no space for the loss buffer")

            monkeypatch.setattr(os, "ftruncate", no_space)
            raises = pytest.raises(OSError, match="no space")
        with raises as failure:
            run_experiment(SMALL_RUN)
        # Checked while ``failure`` holds the traceback, and so the frames of the failed call.
        assert sorted(os.listdir("/proc/self/fd")) == before, failure
        assert_no_child_left()

    def test_a_later_failure_closes_the_trial_queue(self, cpus, monkeypatch):
        # The first call ran the whole queue; a step after it fails at the second m.
        cpus(2)
        made = []

        def failing_histogram(losses, num_slots):
            made.append(num_slots)
            if len(made) == 2:
                raise ValueError("histogram failed at the second m")
            return histogram(losses, num_slots)

        monkeypatch.setattr(paclab.cli, "histogram", failing_histogram)
        with pytest.raises(ValueError, match="second m") as failure:
            run_experiment(SMALL_RUN)
        links = []
        for fd in os.listdir("/proc/self/fd"):
            with contextlib.suppress(OSError):  # the descriptor listdir itself used is gone
                links.append(os.readlink(f"/proc/self/fd/{fd}"))
        # Checked while ``failure`` holds the traceback, and so run_experiment's frame.
        assert not [link for link in links if "memfd:paclab-trials" in link], failure
        assert_no_child_left()

    def test_worker_never_unwinds_into_the_parent_stack(self):
        # A BaseException escaping a worker's loop must end it through
        # os._exit: unwinding would run the parent's code in the worker, print
        # a traceback and flush the parent's buffered "start" a second time.
        # The parent then computes the range the worker left.
        script = WORKER_SCRIPT + (
            "import mmap, os, time\n"
            "original, parent, claimed = empirics._range_losses, os.getpid(), mmap.mmap(-1, 1)\n"
            "def range_losses(task, m, start, *args):\n"
            "    if os.getpid() != parent:\n"
            "        claimed[0] = 1\n"
            "        raise KeyboardInterrupt\n"
            "    while not claimed[0]:\n"
            "        time.sleep(0.001)\n"
            "    return original(task, m, start, *args)\n"
            "empirics._range_losses = range_losses\n"
            "print('start')\n"
            "[(_, pooled)] = empirics.schedule_losses(ConjunctionTask(10), [1250], 100, 2024)\n"
            "print('one-process bytes:', pooled.tobytes() == original(ConjunctionTask(10), 1250, 0, 100, 2024, False).tobytes())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=worker_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["start", "one-process bytes: True"]

    def test_ctrl_c_leaves_no_process_and_one_traceback(self):
        # The signal lands while the first next() and the worker share a
        # queue of about 20 s of trials.
        script = WORKER_SCRIPT + (
            "pool = empirics.schedule_losses(ConjunctionTask(10), [1250] * 1000, 2000, 2024)\n"
            "print('split', flush=True)\n"
            "for _ in pool:\n"
            "    pass\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            assert proc.stdout.readline() == "split\n"
            time.sleep(0.5)
            os.killpg(proc.pid, signal.SIGINT)  # what Ctrl-C sends to the foreground group
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode != 0
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


# Prelude of the scripts above: two usable CPUs, so a worker is forked.
WORKER_SCRIPT = (
    "import paclab.empirics as empirics\n"
    "from paclab.learners import ConjunctionTask\n"
    "empirics._usable_cpus = lambda: 2\n"
)


def worker_env():
    return dict(os.environ, PYTHONPATH=str(Path(empirics.__file__).parents[1]))


class TestThresholdLossLaw:
    """KS tests of 20,000 losses against the exact law (alpha = 0.001)."""

    K = 20_000
    CRITICAL = 1.95

    @pytest.mark.parametrize("m", [20, 200])
    def test_per_trial_target(self, m):
        # P(loss > t) = (1 - t)**(m + 1): the target a is uniform too.
        losses = run_trials(ThresholdTask(), m, self.K, 2024).losses
        distance = ks_distance(losses, lambda t: 1.0 - (1.0 - t) ** (m + 1))
        assert math.sqrt(self.K) * distance < self.CRITICAL

    @pytest.mark.parametrize("m", [20, 200])
    def test_fixed_target(self, m):
        # P(loss > t) = (1 - t)**m below 1 - a; no point lands above a with
        # probability a**m, and then the loss is 1 - a.
        a = ThresholdTask().draw_target(trial_rng(2024, m, FIXED_TARGET_INDEX)).a
        top = 1.0 - a
        losses = run_trials(ThresholdTask(), m, self.K, 2024, fixed_target=True).losses
        assert losses.max() <= top
        distance = ks_distance(losses, lambda t: np.where(t < top, 1.0 - (1.0 - t) ** m, 1.0), atom=(top, a**m))
        assert math.sqrt(self.K) * distance < self.CRITICAL


def binom_pmf(trials, q):
    """Bin(trials, q) probabilities of 0..trials from log-space terms, which
    stay finite where ``math.comb(trials, c)`` would overflow a float."""
    counts = np.arange(trials + 1)
    if q in (0.0, 1.0):
        return (counts == trials * q).astype(float)
    log_comb = np.array([math.lgamma(trials + 1) - math.lgamma(c + 1) - math.lgamma(trials - c + 1) for c in counts])
    return np.exp(log_comb + counts * math.log(q) + (trials - counts) * math.log1p(-q))


def fixed_conjunction_loss_law(n, j, m):
    """Exact law of one conjunction loss under a fixed target of j literals.

    The sample has p ~ Bin(m, 2**-j) positives.  With p = 0 the learner
    stays contradictory and the loss is 2**-j; otherwise each of the n - j
    free variables keeps a literal with probability 2**(1-p), and s kept
    literals give loss 2**-j - 2**-(j+s).
    """
    law = {}
    for p, p_p in enumerate(binom_pmf(m, 2.0**-j)):
        if p == 0:
            law[2.0**-j] = law.get(2.0**-j, 0.0) + p_p
            continue
        for s, p_s in enumerate(binom_pmf(n - j, 2.0 ** (1 - p))):
            loss = 2.0**-j - 2.0 ** -(j + s)
            law[loss] = law.get(loss, 0.0) + p_p * p_s
    return law


def conjunction_loss_law(n, m):
    """Exact law of one per-trial conjunction loss as {loss: probability}:
    the fixed-target law mixed over j ~ Bin(n, 2/3) target literals."""
    law = {}
    for j, p_j in enumerate(binom_pmf(n, 2 / 3)):
        for loss, prob in fixed_conjunction_loss_law(n, j, m).items():
            law[loss] = law.get(loss, 0.0) + p_j * prob
    return law


def pooled_chi_square(losses, law):
    """Pearson's statistic and degrees of freedom of ``losses`` against
    ``law``; the cells expected fewer than 5 times are pooled into one,
    which joins the smallest other cell if it still expects fewer than 5."""
    values, counts = np.unique(losses, return_counts=True)
    observed = dict(zip(values.tolist(), counts.tolist()))
    cells = sorted(law, key=law.get, reverse=True)
    expected = [losses.size * law[v] for v in cells]
    seen = [observed.get(v, 0) for v in cells]
    big = sum(e >= 5 for e in expected)
    tail = (sum(expected[big:]), sum(seen[big:]))
    expected, seen = expected[:big], seen[:big]
    if tail[0] >= 5:
        expected.append(tail[0])
        seen.append(tail[1])
    else:
        expected[-1] += tail[0]
        seen[-1] += tail[1]
    expected, seen = np.array(expected), np.array(seen)
    return float(np.sum((seen - expected) ** 2 / expected)), expected.size - 1


def chi_square_sf(stat, df):
    """Upper tail of the chi-square law (Wilson-Hilferty cube-root normal approximation)."""
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


class TestConjunctionLossLaw:
    """Chi-square tests of 20,000 losses (n = 10) against the exact law,
    family alpha = 0.001 split over the two sample sizes of each target
    mode (Bonferroni)."""

    K = 20_000
    ALPHA = 0.001 / 2

    @pytest.mark.parametrize("m", [25, 100])
    def test_per_trial_target(self, m):
        law = conjunction_loss_law(10, m)
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
        losses = run_trials(ConjunctionTask(10), m, self.K, 2024).losses
        assert set(np.unique(losses).tolist()) <= set(law)
        stat, df = pooled_chi_square(losses, law)
        assert chi_square_sf(stat, df) > self.ALPHA

    @pytest.mark.parametrize("m", [25, 100])
    def test_fixed_target(self, m):
        # Seed 2024 gives targets of 3 literals at m = 25 and 8 at m = 100.
        target = ConjunctionTask(10).draw_target(trial_rng(2024, m, FIXED_TARGET_INDEX))
        law = fixed_conjunction_loss_law(10, sum(s != VariableState.ABSENT for s in target.states), m)
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
        losses = run_trials(ConjunctionTask(10), m, self.K, 2024, fixed_target=True).losses
        assert set(np.unique(losses).tolist()) <= set(law)
        stat, df = pooled_chi_square(losses, law)
        assert chi_square_sf(stat, df) > self.ALPHA


class TestHistogram:
    def test_all_zero_losses(self):
        d = histogram(np.zeros(10), 100)
        assert d.masses[0] == 1.0
        assert math.fsum(d.masses) == 1.0

    def test_reference_binning(self):
        d = histogram(np.array([0.0, 0.5, 1.0]), 2)
        assert d.masses.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3)]

    def test_loss_one_lands_in_last_slot(self):
        d = histogram(np.array([1.0, 1.0, 0.999]), 100)
        assert d.masses[99] == 1.0

    def test_slot_edges_are_half_open(self):
        d = histogram(np.array([0.01, 0.00999999]), 100)
        assert d.masses[0] == 0.5 and d.masses[1] == 0.5

    def test_masses_are_exact_count_ratios(self):
        rng = np.random.default_rng(55)
        losses = rng.random(173)
        d = histogram(losses, 7)
        counts = [round(mass * 173) for mass in d.masses.tolist()]
        assert sum(counts) == 173
        assert d.masses.dtype == np.float64 and not d.masses.flags.writeable
        assert all(mass == count / 173 for mass, count in zip(d.masses.tolist(), counts))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            histogram(np.array([]), 10)

    @pytest.mark.parametrize("bad", [1.0001, -0.25, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="losses must lie in"):
            histogram(np.array([bad, 0.5]), 4)


class TestExperimentConfig:
    def test_schedule_expansion(self):
        config = ExperimentConfig(
            task=ConjunctionTask(10), num_slots=100, trials=1000,
            m_start=25, m_step=25, m_max=1250, master_seed=2024,
        )
        schedule = config.schedule()
        assert len(schedule) == 50
        assert schedule[0] == 25 and schedule[-1] == 1250

    def test_threshold_schedule(self):
        config = ExperimentConfig(
            task=ThresholdTask(), num_slots=100, trials=1000,
            m_start=20, m_step=20, m_max=1000, master_seed=2024,
        )
        assert len(config.schedule()) == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task=ThresholdTask(), num_slots=1, trials=10, m_start=5, m_step=5, m_max=50, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(task=ThresholdTask(), num_slots=10, trials=0, m_start=5, m_step=5, m_max=50, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(task=ThresholdTask(), num_slots=10, trials=10, m_start=50, m_step=5, m_max=5, master_seed=0)

    @pytest.mark.parametrize("m_max", [2**63, 10**400])
    def test_m_max_from_2_to_the_63_is_rejected(self, m_max):
        # Beyond it the schedule has no len(), and stored files could not read its m back.
        with pytest.raises(ValueError, match=rf"^sample size m must be below 2\*\*63, got m_max={m_max}$"):
            ExperimentConfig(task=ThresholdTask(), num_slots=10, trials=10, m_start=5, m_step=5, m_max=m_max, master_seed=0)
        assert ExperimentConfig(ThresholdTask(), 10, 10, 5, 2**62, 2**63 - 1, 0).schedule() == range(5, 2**63, 2**62)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2024.0])
    def test_master_seed_outside_64_bits_is_rejected(self, seed):
        # derive_trial_seed takes it mod 2**64, so -1 would run the trials of 2**64 - 1.
        with pytest.raises(ValueError, match=rf"^master seed must be an int from 0 to 2\*\*64 - 1, got {seed}$"):
            ExperimentConfig(ThresholdTask(), 10, 10, 5, 5, 50, seed)
        assert ExperimentConfig(ThresholdTask(), 10, 10, 5, 5, 50, 2**64 - 1).master_seed == 2**64 - 1
