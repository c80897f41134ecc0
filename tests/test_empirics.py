"""Seed derivation, trial batches, determinism, and histogramming."""

import itertools
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
    return min((x for x in xs.tolist() if target.classify(x) == 0), default=1.0)


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
                assert empirics._trial_seeds(seed, m, 300).tolist() == expected


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
            return codes, bits ^ (np.arange(self.n) == self.n - 1)  # flips the last variable

        monkeypatch.setattr(ConjunctionTask, "decode", bad_decode)
        with pytest.raises(RuntimeError, match="decode"):
            run_trials(ConjunctionTask(10), 25, 3, 2024, fixed_target=fixed_target)


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
            assert loss == threshold_loss_exact(target, ThresholdHypothesis(erm_cut(target, trial_rng(seed, m, i).random(m))))

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
        assert all(type(mass) is float for mass in d.masses)
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
