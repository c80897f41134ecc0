"""Targets, sampling, ERM learners, and exact-vs-oracle loss agreement."""

import itertools

import numpy as np
import pytest

from paclab.learners import (
    ConjunctionHypothesis,
    ConjunctionTask,
    ThresholdHypothesis,
    ThresholdTask,
    VariableState,
    conjunction_loss_enumerate,
    conjunction_loss_exact,
    disagreement,
    label_conjunction,
    label_conjunction_batch,
    learn_conjunction_bits,
    learn_threshold,
    threshold_loss_exact,
    threshold_loss_monte_carlo,
)

P, N, A, B = VariableState.POSITIVE, VariableState.NEGATED, VariableState.ABSENT, VariableState.BOTH


def hyp(*states):
    return ConjunctionHypothesis(tuple(states))


def sample_bits(target, m, rng):
    """m uniform assignments and their labels under ``target``."""
    bits = rng.integers(0, 2, size=(m, target.n), dtype=np.uint8)
    return bits, label_conjunction_batch(target, bits)


def negatives_of(target, xs):
    """The points of ``xs`` that ``target`` labels 0."""
    return np.array([x for x in xs.tolist() if not x < target.a])


class TestConjunctionHypothesis:
    def test_satisfying_fraction(self):
        # the all-ABSENT formula accepts everything, so its loss against H is 1 - P(sat H)
        for h, sat in ((hyp(A, A, A), 1.0), (hyp(P, N, A), 0.25), (hyp(B, A, A), 0.0)):
            assert conjunction_loss_exact(hyp(A, A, A), h) == 1.0 - sat


class TestRandomConjunctionTarget:
    def test_deterministic_given_seed(self):
        t1 = ConjunctionTask(12).draw_target(np.random.default_rng(99))
        t2 = ConjunctionTask(12).draw_target(np.random.default_rng(99))
        assert t1 == t2

    def test_never_contradictory(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            assert B not in ConjunctionTask(6).draw_target(rng).states

    def test_state_frequencies_one_third(self):
        rng = np.random.default_rng(11)
        counts = {P: 0, N: 0, A: 0}
        draws = 30_000
        for _ in range(draws):
            counts[ConjunctionTask(1).draw_target(rng).states[0]] += 1
        for state, count in counts.items():
            assert count / draws == pytest.approx(1 / 3, abs=0.02), state

    def test_rejects_zero_variables(self):
        with pytest.raises(ValueError):
            ConjunctionTask(0)


class TestLabelConjunction:
    # target not-x1 and x3 and x5 labels (0,1,1,0,1) positive
    TARGET = hyp(N, A, P, A, P)

    def test_reference_positive_example(self):
        assert label_conjunction(self.TARGET, (0, 1, 1, 0, 1)) is True

    def test_reference_negative_example(self):
        assert label_conjunction(self.TARGET, (1, 1, 1, 0, 1)) is False

    def test_empty_hypothesis_accepts_everything(self):
        empty = hyp(A, A, A)
        for bits in [(0, 0, 0), (1, 1, 1), (1, 0, 1)]:
            assert label_conjunction(empty, bits) is True

    def test_contradictory_hypothesis_rejects_everything(self):
        full = hyp(B, B, B)
        for bits in [(0, 0, 0), (1, 1, 1)]:
            assert label_conjunction(full, bits) is False

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            label_conjunction(self.TARGET, (0, 1))

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            target = ConjunctionTask(7).draw_target(rng)
            bits = rng.integers(0, 2, size=(40, 7), dtype=np.uint8)
            batch = label_conjunction_batch(target, bits)
            scalar = [label_conjunction(target, tuple(int(b) for b in row)) for row in bits]
            assert batch.tolist() == scalar

    def test_batch_shape_check(self):
        with pytest.raises(ValueError):
            label_conjunction_batch(self.TARGET, np.zeros((4, 3), dtype=np.uint8))


class TestLearnConjunction:
    def test_no_examples_returns_contradiction(self):
        learned = learn_conjunction_bits(np.zeros((0, 4), dtype=np.uint8), np.zeros(0, dtype=bool))
        assert learned.states == (B, B, B, B)

    def test_no_positive_examples_returns_contradiction(self):
        bits = np.array([(0, 1, 0), (1, 1, 1)], dtype=np.uint8)
        assert learn_conjunction_bits(bits, [False, False]).states == (B, B, B)

    def test_single_positive_keeps_matching_literals(self):
        learned = learn_conjunction_bits(np.array([(1, 0, 1)], dtype=np.uint8), [True])
        assert learned.states == (P, N, P)

    def test_negative_examples_are_ignored(self):
        with_neg = learn_conjunction_bits(np.array([(1, 0), (1, 1)], dtype=np.uint8), [True, False])
        without = learn_conjunction_bits(np.array([(1, 0)], dtype=np.uint8), [True])
        assert with_neg == without

    def test_consistent_with_positive_examples(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            target = ConjunctionTask(8).draw_target(rng)
            bits, labels = sample_bits(target, 30, rng)
            learned = learn_conjunction_bits(bits, labels)
            for row in bits[labels]:
                assert label_conjunction(learned, tuple(int(b) for b in row))

    def test_learned_literals_superset_of_target(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            target = ConjunctionTask(8).draw_target(rng)
            learned = learn_conjunction_bits(*sample_bits(target, 20, rng))
            for t_state, l_state in zip(target.states, learned.states):
                if t_state in (P, N):
                    assert l_state in (t_state, B)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            learn_conjunction_bits(np.array([1, 0, 1], dtype=np.uint8), [True, True, True])


class TestConjunctionLoss:
    def test_identical_hypotheses_lose_nothing(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = ConjunctionTask(6).draw_target(rng)
            assert conjunction_loss_exact(t, t) == 0.0

    def test_empty_vs_contradiction_is_one(self):
        n = 5
        empty = hyp(*[A] * n)
        contradiction = hyp(*[B] * n)
        assert conjunction_loss_exact(empty, contradiction) == 1.0

    def test_single_extra_literal(self):
        # target x1, learned x1 and x2: disagree on x1=1, x2=0 assignments
        assert conjunction_loss_exact(hyp(P, A), hyp(P, P)) == 0.25

    def test_disjoint_single_literals(self):
        # x1 vs x2: disagreement where exactly one of them holds
        assert conjunction_loss_exact(hyp(P, A), hyp(A, P)) == 0.5

    def test_matches_enumeration_on_learned_pairs(self):
        rng = np.random.default_rng(17)
        for n in (3, 6, 10, 12):
            for _ in range(100):
                target = ConjunctionTask(n).draw_target(rng)
                learned = learn_conjunction_bits(*sample_bits(target, int(rng.integers(0, 3 * n + 1)), rng))
                assert conjunction_loss_exact(target, learned) == conjunction_loss_enumerate(target, learned)

    def test_matches_enumeration_on_arbitrary_pairs(self):
        # includes pairs with conflicting literals, which never arise from learning
        rng = np.random.default_rng(19)
        states = list(VariableState)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            left = hyp(*(states[i] for i in rng.integers(0, 4, size=n)))
            right = hyp(*(states[i] for i in rng.integers(0, 4, size=n)))
            assert conjunction_loss_exact(left, right) == conjunction_loss_enumerate(left, right)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_match_enumeration_on_every_code_pair(self, n):
        # One batched call over all 4**n x 4**n pairs, BOTH on either side included.
        codes = np.array(list(itertools.product(VariableState, repeat=n)))
        targets, learned = np.repeat(codes, len(codes), axis=0), np.tile(codes, (len(codes), 1))
        expected = [
            conjunction_loss_enumerate(hyp(*map(VariableState, t)), hyp(*map(VariableState, l)))
            for t, l in zip(targets, learned)
        ]
        assert disagreement(targets, learned).tolist() == expected

    def test_losses_are_dyadic(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            target = ConjunctionTask(10).draw_target(rng)
            learned = learn_conjunction_bits(*sample_bits(target, 10, rng))
            loss = conjunction_loss_exact(target, learned)
            assert 0.0 <= loss <= 1.0
            assert loss * 1024 == int(loss * 1024)

    def test_loss_shrinks_as_positives_accumulate(self):
        # ruled-out literals stay ruled out, so more positives never hurt
        rng = np.random.default_rng(29)
        for _ in range(50):
            target = ConjunctionTask(6).draw_target(rng)
            bits, labels = sample_bits(target, 40, rng)
            prev = 1.0
            for cut in (0, 5, 10, 20, 40):
                loss = conjunction_loss_exact(target, learn_conjunction_bits(bits[:cut], labels[:cut]))
                assert loss <= prev + 1e-15
                prev = loss

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            conjunction_loss_exact(hyp(P, A), hyp(P, A, A))

    def test_enumerate_refuses_large_n(self):
        big = hyp(*[A] * 21)
        with pytest.raises(ValueError):
            conjunction_loss_enumerate(big, big)


class TestThresholdSampling:
    def test_target_deterministic(self):
        task = ThresholdTask()
        assert task.draw_target(np.random.default_rng(4)) == task.draw_target(np.random.default_rng(4))

    def test_boundary_point_labeled_zero(self):
        # A point at the cut is a negative, so the learner takes it; one just below is not.
        assert learn_threshold(np.array([0.4]), 0.4) == 0.4
        assert learn_threshold(np.array([0.39999]), 0.4) == 1.0

    def test_label_frequency_tracks_target(self):
        # Against the cut 0, which labels every point 0, the oracle's
        # disagreement is the frequency of label 1 (x < a).
        rng = np.random.default_rng(31)
        for a in (0.2, 0.5, 0.9):
            freq = threshold_loss_monte_carlo(ThresholdHypothesis(a), ThresholdHypothesis(0.0), 30_000, rng)
            assert freq == pytest.approx(a, abs=0.02)

    def test_hypothesis_validates_range(self):
        with pytest.raises(ValueError):
            ThresholdHypothesis(1.2)


def erm_cut_reference(xs, cut):
    """The smallest point at or above ``cut``, else 1.0, in plain Python."""
    return min((x for x in xs if x >= cut), default=1.0)


MIN_NORMAL = 2.2250738585072014e-308
# 0.0, the two smallest subnormals, both sides of the smallest normal,
# 0.5, and the largest double below 1.0.
SPECIAL_POINTS = [0.0, 5e-324, 1e-323, float(np.nextafter(MIN_NORMAL, 0.0)), MIN_NORMAL, 0.5, float(np.nextafter(1.0, 0.0))]


class TestLearnThreshold:
    def test_matches_python_reference_exactly(self):
        rng = np.random.default_rng(61)
        rows = 200
        for width in range(13):
            points = rng.random((rows, width))
            special = rng.random(points.shape) < 0.2
            points[special] = rng.choice(SPECIAL_POINTS, size=int(special.sum()))
            cuts = rng.random(rows)
            kind = rng.integers(0, 4, size=rows)
            cuts[kind == 1] = rng.choice(SPECIAL_POINTS, size=int((kind == 1).sum()))
            cuts[kind == 2] = 1.0
            if width:
                on_point = np.flatnonzero(kind == 3)
                cuts[on_point] = points[on_point, rng.integers(0, width, size=on_point.size)]
            expected = [erm_cut_reference(xs, cut) for xs, cut in zip(points.tolist(), cuts.tolist())]
            assert learn_threshold(points, cuts).tolist() == expected, width
            for cut in [0.3, 1.0, *SPECIAL_POINTS]:
                expected = [erm_cut_reference(xs, cut) for xs in points.tolist()]
                assert learn_threshold(points, cut).tolist() == expected, (width, cut)

    def test_points_whose_float_gaps_collide(self):
        # The cut has a bit below the points' last place, and ties-to-even
        # rounds both float differences to 0.625.
        cut = 0.25 + 2**-54
        points = np.array([0.875 + 2**-53, 0.875])
        assert points[0] - cut == points[1] - cut
        assert learn_threshold(points, cut) == 0.875
        assert learn_threshold(points[::-1][None], np.array([cut])).tolist() == [0.875]

    def test_takes_smallest_negative(self):
        assert learn_threshold(np.array([0.2, 0.9, 0.7]), 0.5) == 0.7

    def test_fallback_without_negatives(self):
        assert learn_threshold(np.array([0.2, 0.5]), 0.6) == 1.0
        assert learn_threshold(np.array([]), 0.3) == 1.0

    def test_estimate_never_undershoots_target(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            target = ThresholdTask().draw_target(rng)
            xs = rng.random(int(rng.integers(1, 40)))
            assert learn_threshold(xs, target.a) >= target.a

    def test_estimate_tightens_with_more_points(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            target = ThresholdTask().draw_target(rng)
            xs = rng.random(60)
            prev = 1.0
            for cut in (5, 15, 30, 60):
                a_hat = learn_threshold(xs[:cut], target.a)
                assert a_hat <= prev
                prev = a_hat


    def test_rows_match_classify_labels(self):
        rng = np.random.default_rng(43)
        points, cuts = rng.random((40, 12)), rng.random(40)
        learned = learn_threshold(points, cuts)
        for xs, a, a_hat in zip(points, cuts, learned):
            assert a_hat == min(negatives_of(ThresholdHypothesis(a), xs).tolist(), default=1.0)


class TestThresholdLoss:
    def test_zero_on_match(self):
        t = ThresholdHypothesis(0.3)
        assert threshold_loss_exact(t, t) == 0.0

    def test_interval_length(self):
        assert threshold_loss_exact(ThresholdHypothesis(0.3), ThresholdHypothesis(0.45)) == pytest.approx(0.15)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            t = ThresholdTask().draw_target(rng)
            learned = ThresholdHypothesis(min(1.0, t.a + float(rng.random()) * 0.3))
            mc = threshold_loss_monte_carlo(t, learned, 1_000_000, rng)
            assert threshold_loss_exact(t, learned) == pytest.approx(mc, abs=0.002)


class TestTaskTrials:
    def test_conjunction_trial_matches_op_composition(self):
        # replay each trial's exact draw order through the scalar operations
        task = ConjunctionTask(8)
        raw = np.stack([np.random.PCG64(seed).random_raw(task.draw_width(12, False)) for seed in range(20)])
        losses = task.trial_losses(12, [raw])
        for seed, loss in enumerate(losses):
            rng = np.random.default_rng(seed)
            target = ConjunctionTask(8).draw_target(rng)
            bits = rng.integers(0, 2, size=(12, 8), dtype=np.uint8)
            labels = [label_conjunction(target, tuple(int(b) for b in row)) for row in bits]
            expected = conjunction_loss_exact(target, learn_conjunction_bits(bits, labels))
            assert loss == expected

    def test_threshold_trial_matches_op_composition(self):
        task = ThresholdTask()
        losses = task.trial_losses(15, [np.stack([np.random.default_rng(seed).random(16) for seed in range(20)])])
        for seed, loss in enumerate(losses):
            rng = np.random.default_rng(seed)
            target = ThresholdTask().draw_target(rng)
            xs = rng.random(15)
            expected = threshold_loss_exact(target, ThresholdHypothesis(min(negatives_of(target, xs).tolist(), default=1.0)))
            assert loss == pytest.approx(expected, abs=0.0)

    def test_trials_accept_fixed_target(self):
        task = ConjunctionTask(5)
        target = hyp(P, N, A, A, P)
        raw = np.random.PCG64(2).random_raw(task.draw_width(10, True))
        l1, l2 = task.trial_losses(10, [raw[None], raw[None]], target=target)
        assert l1 == l2
        bits = np.random.default_rng(2).integers(0, 2, size=(10, 5), dtype=np.uint8)
        assert l1 == conjunction_loss_exact(target, learn_conjunction_bits(bits, label_conjunction_batch(target, bits)))

    def test_task_validates_n(self):
        with pytest.raises(ValueError):
            ConjunctionTask(0)

    @pytest.mark.parametrize("vc_dim", [0, -1, 1.5])
    def test_task_validates_vc_dim(self, vc_dim):
        with pytest.raises(ValueError):
            ThresholdTask(vc_dim=vc_dim)
