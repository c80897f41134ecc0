"""Seed derivation, trial batches, determinism, and histogramming."""

import math

import numpy as np
import pytest

import paclab.empirics as empirics
from paclab.analysis import dist_mean
from paclab.empirics import (
    FIXED_TARGET_INDEX,
    ExperimentConfig,
    TrialBatch,
    derive_trial_seed,
    histogram,
    pcg64_states,
    run_trials,
)
from paclab.learners import (
    ConjunctionTask,
    LabeledPoint,
    ThresholdTask,
    conjunction_loss_exact,
    label_conjunction_batch,
    learn_conjunction_bits,
    learn_threshold,
    threshold_loss_exact,
)
from paclab.theory import BoundSpec, discretize_bound

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def trial_rng(seed, m, index):
    return np.random.Generator(np.random.PCG64(derive_trial_seed(seed, m, index)))


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
            points = [LabeledPoint(x, target.classify(x)) for x in rng.random(m).tolist()]
            losses.append(threshold_loss_exact(target, learn_threshold(points)))
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
                assert empirics._trial_seeds(seed, m, 300).tolist() == expected


class TestStreamSeeding:
    def test_states_match_numpy_pcg64(self):
        randoms = np.random.default_rng(20250).integers(0, 2**64, size=2000, dtype=np.uint64)
        seeds = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), randoms])
        expected = [np.random.PCG64(s).state["state"] for s in seeds.tolist()]
        assert [{"state": state, "inc": inc} for state, inc in pcg64_states(seeds)] == expected

    def test_state_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(empirics, "pcg64_states", lambda seeds: [(1, 1)] * len(seeds))
        with pytest.raises(RuntimeError):
            run_trials(ThresholdTask(), 5, 3, 2024)

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("seed", [2024, 7, -1, 0, 2**70])
    def test_engine_matches_reference_replay(self, seed, fixed_target):
        tasks = [ConjunctionTask(n) for n in (1, 3, 4, 10, 17)] + [ThresholdTask()]
        for m in (1, 25, 300, 1250):
            for task in tasks:
                batch = run_trials(task, m, 6, seed, fixed_target=fixed_target)
                assert batch.losses.tolist() == reference_losses(task, m, 6, seed, fixed_target), (task, m)


class TestRunTrials:
    def test_batch_shape_and_range(self):
        batch = run_trials(ConjunctionTask(10), 25, 300, 2024)
        assert batch.k == 300
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
        assert batch.losses.mean() < dist_mean(q25)

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
            points = [LabeledPoint(x, target.classify(x)) for x in trial_rng(seed, m, i).random(m).tolist()]
            assert loss == threshold_loss_exact(target, learn_threshold(points))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            run_trials(ThresholdTask(), 0, 10, 1)
        with pytest.raises(ValueError):
            run_trials(ThresholdTask(), 10, 0, 1)

    def test_batch_validates_loss_count(self):
        with pytest.raises(ValueError):
            TrialBatch(task=ThresholdTask(), m=5, k=3, master_seed=1, losses=np.zeros(2))

    def test_batch_validates_loss_range(self):
        with pytest.raises(ValueError):
            TrialBatch(task=ThresholdTask(), m=5, k=2, master_seed=1, losses=np.array([0.5, 1.5]))


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


class TestHistogram:
    def test_all_zero_losses(self):
        d = histogram(np.zeros(10), 100)
        assert d.masses[0] == 1.0
        assert math.fsum(d.masses) == 1.0

    def test_reference_binning(self):
        d = histogram(np.array([0.0, 0.5, 1.0]), 2)
        assert d.masses == (pytest.approx(1 / 3), pytest.approx(2 / 3))

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
        counts = [round(mass * 173) for mass in d.masses]
        assert sum(counts) == 173
        assert all(mass == count / 173 for mass, count in zip(d.masses, counts))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            histogram(np.array([]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            histogram(np.array([0.5, 1.0001]), 10)


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
