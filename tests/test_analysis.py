"""KL divergence, moments, monotonicity reports, dominance, curve building."""

import math

import numpy as np
import pytest

import paclab.analysis
from monotone import check_monotone, stochastic_dominance, two_standard_error_tolerances
from paclab.analysis import ExperimentRecord, build_curve, kl_divergence, moments
from paclab.empirics import histogram, run_trials
from paclab.learners import ConjunctionTask
from paclab.theory import BoundSpec, DiscreteDistribution, bound_density, bound_point_mass, cutoff, discretize_bound

CONJ_SCHEDULE = list(range(25, 1251, 25))


def conj_bound(m):
    return BoundSpec.finite_h(m=m, h_size=59049)


def point_mass_dist(slot, num_slots=100):
    masses = [0.0] * num_slots
    masses[slot] = 1.0
    return DiscreteDistribution(tuple(masses))


class TestKlDivergence:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            masses = rng.random(50)
            d = DiscreteDistribution(tuple(masses / masses.sum()))
            assert kl_divergence(d, d) == 0.0

    def test_disjoint_supports_hit_floor_ceiling(self):
        value = kl_divergence(point_mass_dist(0), point_mass_dist(99))
        assert value == pytest.approx(math.log2(1 / 2e-16), rel=1e-12)
        assert value == pytest.approx(52, abs=1)

    def test_hand_computed_two_slots(self):
        p = DiscreteDistribution((1.0, 0.0))
        q = DiscreteDistribution((0.5, 0.5))
        assert kl_divergence(p, q) == 1.0

    def test_floor_applies_only_to_empty_q_slots(self):
        # one floored slot plus one regular slot, no renormalization of q
        p = DiscreteDistribution((0.5, 0.5, 0.0))
        q = DiscreteDistribution((0.0, 0.25, 0.75))
        expected = 0.5 * math.log2(0.5 / 2e-16) + 0.5 * math.log2(0.5 / 0.25)
        assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-12)

    def test_positive_q_below_the_floor_is_used_as_it_is(self):
        p = DiscreteDistribution((1e-320, 1.0))
        assert kl_divergence(p, p) == 0.0  # flooring 1e-320 gave -1.0e-317
        even, q = DiscreteDistribution((0.5, 0.5)), DiscreteDistribution((1e-17, 1.0 - 1e-17))
        assert kl_divergence(even, q) == 0.5 * math.log2(0.5 / 1e-17) + 0.5 * math.log2(0.5 / (1.0 - 1e-17))
        # 0.5 / 1e-320 overflows to inf; the term is then 0.5 * (log2(0.5) - log2(1e-320)).
        q = DiscreteDistribution((1e-320, 1.0))
        assert kl_divergence(even, q) == 0.5 * (math.log2(0.5) - math.log2(1e-320)) + 0.5 * math.log2(0.5)
        assert kl_divergence(even, q) == pytest.approx(530.5085, abs=1e-4)
        assert kl_divergence(DiscreteDistribution((1.0, 0.0)), DiscreteDistribution((5e-324, 1.0))) == 1074.0

    def test_custom_floor(self, monkeypatch):
        monkeypatch.setattr(paclab.analysis, "KL_FLOOR", 0.25)
        assert kl_divergence(point_mass_dist(0, 4), point_mass_dist(3, 4)) == 2.0

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            p_raw = rng.random(30)
            q_raw = rng.random(30)
            p_raw[rng.random(30) < 0.3] = 0.0
            q_raw[rng.random(30) < 0.3] = 0.0
            p_raw[0] += 1e-9
            q_raw[0] += 1e-9
            p = DiscreteDistribution(tuple(p_raw / p_raw.sum()))
            q = DiscreteDistribution(tuple(q_raw / q_raw.sum()))
            assert kl_divergence(p, q) >= -1e-9

    def test_matches_the_every_slot_loop_bit_for_bit(self):
        # kl_divergence visits only the slots with p_i > 0, in slot order, so
        # its rounded running sum is the loop's over every slot.
        def loop_kl(p, q):
            total = 0.0
            for p_i, q_i in zip(p.masses, q.masses):
                if p_i > 0.0:
                    total += p_i * math.log2(p_i / (q_i if q_i > 0.0 else 2e-16))
            return total

        rng = np.random.default_rng(73)
        for slots in (3, 100, 2000):
            qs = [discretize_bound(conj_bound(m), slots) for m in (25, 400, 1250)]
            ps = [histogram(rng.random(k), slots) for k in (1, 20, 1000)] + qs
            ps.append(DiscreteDistribution((-0.0, 5e-324, 1.0) + (0.0,) * (slots - 3)))
            for p in ps:
                for q in qs:
                    assert kl_divergence(p, q) == loop_kl(p, q)

    def test_rejects_slot_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(point_mass_dist(0, 10), point_mass_dist(0, 20))


class TestMoments:
    def test_point_mass_in_first_slot(self):
        d = point_mass_dist(0)
        assert moments(d) == (pytest.approx(0.005), 0.0)

    def test_uniform_two_slots(self):
        d = DiscreteDistribution((0.5, 0.5))
        assert moments(d) == pytest.approx((0.5, 0.25))

    def test_match_the_scalar_loop_bit_for_bit(self):
        # The scalar loop is the reference: the vectorised moments must do the
        # same IEEE operations (math.fsum makes the summation order moot).
        def loop_mean(d):
            return math.fsum(mass * ((i + 0.5) / d.num_slots) for i, mass in enumerate(d.masses))

        def loop_std(d):
            mean = loop_mean(d)
            var = math.fsum(mass * (((i + 0.5) / d.num_slots) - mean) ** 2 for i, mass in enumerate(d.masses))
            return math.sqrt(max(var, 0.0))

        rng = np.random.default_rng(71)
        dists = [discretize_bound(conj_bound(m), slots) for m in (25, 400, 1250) for slots in (7, 100, 2000)]
        for slots in (2, 13, 100, 2000):
            masses = rng.random(slots)
            dists.append(DiscreteDistribution(tuple((masses / masses.sum()).tolist())))
            dists.append(histogram(rng.random(50), slots))
        # In a two-slot variance each rounded square shows; pow(x, 2) and x * x
        # differ in the last bit for about one x in a thousand.
        dists += [DiscreteDistribution((p, 1.0 - p)) for p in rng.random(20_000).tolist()]
        # The moments visit only the slots with non-zero mass.
        dists += [point_mass_dist(slot, 2000) for slot in (0, 777, 1999)]
        dists += [DiscreteDistribution((-0.0, 1.0)), DiscreteDistribution((5e-324, 1.0, -0.0, 0.0))]
        for d in dists:
            assert moments(d) == (loop_mean(d), loop_std(d))

    def test_bound_means_decrease_strictly_along_schedule(self):
        means = [moments(discretize_bound(conj_bound(m), 100))[0] for m in CONJ_SCHEDULE]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_mean_matches_density_integral(self):
        # slot-midpoint mean vs integral of eps*density plus the atom at 1
        for spec in (conj_bound(25), conj_bound(250), BoundSpec.finite_vc(m=20, vc_dim=1)):
            num_slots = 100
            q = discretize_bound(spec, num_slots)
            lo = cutoff(spec)
            xs = np.linspace(lo, 1.0 - 1e-12, 200_000)
            integral = float(np.trapezoid(xs * bound_density(spec, xs), xs))
            exact_mean = integral + 1.0 * bound_point_mass(spec)
            assert moments(q)[0] == pytest.approx(exact_mean, abs=1 / (2 * num_slots) + 1e-6)


class TestCheckMonotone:
    def test_strictly_decreasing_is_clean(self):
        report = check_monotone([5.0, 4.0, 2.0, 1.5], 0.0)
        assert report.violations == ()
        assert report.fraction_monotone_steps == 1.0
        assert report.max_rise == 0.0

    def test_flags_rise_beyond_tolerance(self):
        tau = 0.01
        report = check_monotone([0.5, 0.5 + 2 * tau], tau)
        assert report.violations == ((0, pytest.approx(2 * tau)),)
        assert report.fraction_monotone_steps == 0.0
        assert report.max_rise == pytest.approx(2 * tau)

    def test_rise_within_tolerance_passes(self):
        report = check_monotone([0.5, 0.5005], 0.001)
        assert report.violations == ()

    def test_per_step_tolerances(self):
        report = check_monotone([1.0, 1.1, 1.2], [0.2, 0.05])
        assert [i for i, _ in report.violations] == [1]
        assert report.fraction_monotone_steps == 0.5

    def test_bound_mean_curve_is_monotone_at_zero_tolerance(self):
        means = [moments(discretize_bound(conj_bound(m), 100))[0] for m in CONJ_SCHEDULE]
        assert check_monotone(means, 0.0).violations == ()

    def test_fraction_accounting(self):
        report = check_monotone([1.0, 2.0, 0.5, 3.0, 0.1], 0.0)
        assert len(report.violations) == 2
        assert report.num_steps == 4
        assert report.fraction_monotone_steps == 0.5

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            check_monotone([1.0], 0.0)

    def test_rejects_wrong_tolerance_count(self):
        with pytest.raises(ValueError):
            check_monotone([1.0, 2.0, 3.0], [0.1])

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            check_monotone([1.0, 2.0], -0.1)

    def test_two_standard_error_helper(self):
        taus = two_standard_error_tolerances([0.4, 0.2, 0.1], 400)
        expected = [2 * math.sqrt(0.4**2 + 0.2**2) / 20, 2 * math.sqrt(0.2**2 + 0.1**2) / 20]
        assert taus == [pytest.approx(e) for e in expected]

    def test_two_standard_error_nonzero_when_one_endpoint_degenerates(self):
        taus = two_standard_error_tolerances([0.0, 0.3], 100)
        assert taus == [pytest.approx(2 * 0.3 / 10)]


class TestStochasticDominance:
    def test_reflexive(self):
        q = discretize_bound(conj_bound(25), 100)
        assert stochastic_dominance(q, q)

    def test_larger_sample_dominates(self):
        q25 = discretize_bound(conj_bound(25), 100)
        q50 = discretize_bound(conj_bound(50), 100)
        assert stochastic_dominance(q25, q50)
        assert not stochastic_dominance(q50, q25)

    def test_all_schedule_pairs(self):
        qs = [discretize_bound(conj_bound(m), 100) for m in CONJ_SCHEDULE[::5]]
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                assert stochastic_dominance(qs[i], qs[j])

    def test_rejects_slot_mismatch(self):
        with pytest.raises(ValueError):
            stochastic_dominance(point_mass_dist(0, 10), point_mass_dist(0, 12))


class TestBuildCurve:
    def make_records(self, ms):
        records = []
        for m in ms:
            batch = run_trials(ConjunctionTask(10), m, 50, 2024)
            records.append(
                ExperimentRecord(
                    m=m,
                    empirical=histogram(batch.losses, 100),
                    theoretical=discretize_bound(conj_bound(m), 100),
                )
            )
        return records

    def test_single_record(self):
        curve = build_curve(self.make_records([25]))
        assert len(curve) == 1
        assert curve[0].m == 25

    def test_columns_match_recomputation(self):
        records = self.make_records([25, 50, 100])
        curve = build_curve(records)
        for rec, pt in zip(records, curve):
            assert (pt.mean_p, pt.std_p) == moments(rec.empirical)
            assert (pt.mean_q, pt.std_q) == moments(rec.theoretical)
            assert pt.kl == kl_divergence(rec.empirical, rec.theoretical)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_curve([])

    def test_rejects_unsorted_or_duplicate_m(self):
        records = self.make_records([25, 50])
        with pytest.raises(ValueError):
            build_curve(records[::-1])
        with pytest.raises(ValueError):
            build_curve([records[0], records[0]])

    def test_rejects_mixed_slot_counts(self):
        rec25 = self.make_records([25])[0]
        batch = run_trials(ConjunctionTask(10), 50, 50, 2024)
        rec50 = ExperimentRecord(
            m=50, empirical=histogram(batch.losses, 40), theoretical=discretize_bound(conj_bound(50), 40)
        )
        with pytest.raises(ValueError):
            build_curve([rec25, rec50])

    def test_record_validates_slot_agreement(self):
        with pytest.raises(ValueError):
            ExperimentRecord(m=5, empirical=point_mass_dist(0, 10), theoretical=point_mass_dist(0, 20))
