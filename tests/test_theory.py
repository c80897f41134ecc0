"""Bound CDFs, densities, point masses, sample complexities, discretization."""

import math
import sys

import numpy as np
import pytest

import paclab.theory
from paclab.theory import (
    BoundSpec,
    DiscreteDistribution,
    bound_cdf,
    bound_density,
    bound_point_mass,
    cutoff,
    discretize_bound,
    sample_complexity_finite,
    sample_complexity_vc,
)

LN_1E9 = 9 * math.log(10.0)
FH_59049_25 = BoundSpec.finite_h(m=25, h_size=59049)
FH_1E9_35 = BoundSpec.finite_h(m=35, h_size=1e9)
VC_1_20 = BoundSpec.finite_vc(m=20, vc_dim=1)
VC_1_100 = BoundSpec.finite_vc(m=100, vc_dim=1)

MAX = sys.float_info.max


def density_integral(spec, lo, hi, num):
    """Trapezoid rule over ``num`` points of ``bound_density``, evaluated on the array of them."""
    xs = np.linspace(lo, hi, num)
    return float(np.trapezoid(bound_density(spec, xs), xs))


class TestBoundSpec:
    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            BoundSpec.finite_h(m=0, h_size=2)

    def test_rejects_fractional_m(self):
        with pytest.raises(ValueError):
            BoundSpec.finite_vc(m=2.5, vc_dim=1)

    def test_rejects_h_size_below_one(self):
        with pytest.raises(ValueError):
            BoundSpec.finite_h(m=10, h_size=0.5)

    def test_rejects_bad_vc_dim(self):
        with pytest.raises(ValueError):
            BoundSpec.finite_vc(m=10, vc_dim=0)

    def test_log_storage_handles_huge_h(self):
        # 3**700 overflows a float; the log representation must not
        spec = BoundSpec.finite_h(m=10, log_h_size=700 * math.log(3.0))
        assert bound_cdf(spec, 0.5) == 0.0
        assert bound_point_mass(spec) == 1.0

    @pytest.mark.parametrize("log_weight", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_raw_constructor_rejects_bad_log_weight(self, log_weight):
        with pytest.raises(ValueError, match=r"^finite-H bound needs ln\|H\| >= 0 \(\|H\| >= 1\)$"):
            BoundSpec(m=10, log_weight=log_weight)

    @pytest.mark.parametrize("m", [0, -3, 2.5, 10.0, "10", None])
    def test_raw_constructor_rejects_bad_m(self, m):
        with pytest.raises(ValueError, match=r"^sample size m must be a positive integer, got "):
            BoundSpec(m=m, log_weight=1.0)

    @pytest.mark.parametrize("m", [2**63, 10**400])
    def test_m_from_2_to_the_63_is_rejected_by_every_constructor(self, m):
        # 10**400 does not convert to a float, so finite_vc checks m before m*ln 2.
        for make in (lambda: BoundSpec(m, 1.0), lambda: BoundSpec.finite_h(m, 2.0), lambda: BoundSpec.finite_vc(m, 1)):
            with pytest.raises(ValueError, match=rf"^sample size m must be below 2\*\*63, got {m}$"):
                make()

    def test_the_largest_m_evaluates(self):
        spec = BoundSpec.finite_vc(m=2**63 - 1, vc_dim=1)
        assert bound_cdf(spec, 0.5) == 1.0 and bound_point_mass(spec) == 0.0

    def test_a_spec_is_its_m_and_log_weight(self):
        # W = |H| = 2 and the VC-1 growth-function bound 2**1 are one function.
        assert BoundSpec.finite_h(m=1, h_size=2.0) == BoundSpec.finite_vc(m=1, vc_dim=1) == BoundSpec(1, math.log(2.0))
        assert hash(BoundSpec.finite_h(m=1, h_size=2.0)) == hash(BoundSpec.finite_vc(m=1, vc_dim=1))
        assert BoundSpec(m=1, log_weight=0.0) == BoundSpec(m=1, log_weight=-0.0)
        assert BoundSpec.finite_h(m=2, h_size=2.0) != BoundSpec.finite_h(m=1, h_size=2.0)

    def test_h_size_and_log_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            BoundSpec.finite_h(m=10, h_size=2, log_h_size=math.log(2))
        with pytest.raises(ValueError):
            BoundSpec.finite_h(m=10)


class TestFiniteHCdf:
    def test_below_cutoff_is_zero(self):
        # cutoff for |H|=59049, m=25 sits at 0.4394
        assert bound_cdf(FH_59049_25, 0.438) == 0.0

    def test_cutoff_value(self):
        assert cutoff(FH_59049_25) == pytest.approx(0.439, abs=1e-3)

    def test_near_one_value(self):
        # 1 - 1e9 * exp(-35), quoted to 8 digits
        expected = 1.0 - 6.3051168e-07
        assert bound_cdf(FH_1E9_35, 1.0 - 1e-12) == pytest.approx(expected, rel=1e-6)

    def test_top_branch(self):
        assert bound_cdf(FH_59049_25, 1.5) == 1.0
        assert bound_cdf(FH_1E9_35, 1.0) == 1.0

    def test_m22_below_cutoff_clamps_to_zero(self):
        # ln(1e9)/22 = 0.9420, so eps=0.9 is still in the flat-zero branch
        spec = BoundSpec.finite_h(m=22, h_size=1e9)
        assert cutoff(spec) == pytest.approx(0.9419666, rel=1e-6)
        assert bound_cdf(spec, 0.9) == 0.0

    def test_ramp_value(self):
        # frozen from 1 - exp(ln(59049) - 25*0.5)
        assert bound_cdf(FH_59049_25, 0.5) == pytest.approx(0.7799448568419263, rel=1e-12)


class TestFiniteHPointMass:
    def test_quoted_value(self):
        assert bound_point_mass(FH_1E9_35) == pytest.approx(6.3051168e-07, rel=1e-6)

    def test_decays_with_m(self):
        spec = BoundSpec.finite_h(m=200, h_size=1)
        assert bound_point_mass(spec) < 1e-80

    def test_direct_evaluation(self):
        expected = math.exp(math.log(59049) - 25)  # 8.2e-7
        assert bound_point_mass(FH_59049_25) == pytest.approx(expected, rel=1e-12)

    def test_clamped_when_cutoff_exceeds_one(self):
        spec = BoundSpec.finite_h(m=10, h_size=1e9)
        assert bound_point_mass(spec) == 1.0


class TestFiniteHDensity:
    def test_below_cutoff(self):
        assert bound_density(FH_59049_25, 0.3) == 0.0

    def test_interior_value(self):
        expected = 59049 * 25 * math.exp(-12.5)
        assert bound_density(FH_59049_25, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_matches_cdf_slope(self):
        h = 1e-6
        slope = (bound_cdf(FH_59049_25, 0.5 + h) - bound_cdf(FH_59049_25, 0.5 - h)) / (2 * h)
        assert bound_density(FH_59049_25, 0.5) == pytest.approx(slope, rel=1e-6)

    def test_refuses_eps_one(self):
        with pytest.raises(ValueError):
            bound_density(FH_59049_25, 1.0)

    def test_zero_above_one(self):
        assert bound_density(FH_59049_25, 1.3) == 0.0

    def test_integral_plus_atom_is_one(self):
        lo = cutoff(FH_59049_25)
        integral = density_integral(FH_59049_25, lo, 1.0 - 1e-12, 100_000)
        assert integral + bound_point_mass(FH_59049_25) == pytest.approx(1.0, abs=1e-6)


class TestVcBound:
    def test_below_cutoff_is_zero(self):
        # cutoff = (1/20) ln(20e) = 0.19979
        assert cutoff(VC_1_20) == pytest.approx(0.1998, abs=1e-4)
        assert bound_cdf(VC_1_20, 0.19) == 0.0

    def test_top_branch(self):
        assert bound_cdf(VC_1_100, 1.0) == 1.0
        assert bound_cdf(VC_1_100, 7.0) == 1.0

    def test_ramp_value(self):
        expected = 1.0 - math.exp(1.0 + math.log(100.0) - 10.0)
        assert bound_cdf(VC_1_100, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_ramp_value_against_density_quadrature(self):
        lo = cutoff(VC_1_100)
        integral = density_integral(VC_1_100, lo, 0.1, 200_000)
        assert bound_cdf(VC_1_100, 0.1) == pytest.approx(integral, abs=1e-6)

    def test_point_mass_direct(self):
        expected = math.exp(math.log(20 * math.e) - 20)  # 1.1206e-7
        assert bound_point_mass(VC_1_20) == pytest.approx(expected, rel=1e-12)
        assert bound_point_mass(VC_1_20) == pytest.approx(1.1205592875e-07, rel=1e-9)

    def test_density_below_cutoff(self):
        assert bound_density(VC_1_20, 0.1) == 0.0

    def test_density_refuses_eps_one(self):
        with pytest.raises(ValueError):
            bound_density(VC_1_20, 1.0)

    def test_integral_plus_atom_is_one(self):
        lo = cutoff(VC_1_20)
        integral = density_integral(VC_1_20, lo, 1.0 - 1e-12, 100_000)
        assert integral + bound_point_mass(VC_1_20) == pytest.approx(1.0, abs=1e-6)

    def test_higher_dimension(self):
        spec = BoundSpec.finite_vc(m=50, vc_dim=3)
        assert cutoff(spec) == pytest.approx((3 / 50) * math.log(50 * math.e / 3), rel=1e-12)
        eps = 0.9
        expected = 1.0 - math.exp(3 * math.log(50 * math.e / 3) - 45.0)
        assert bound_cdf(spec, eps) == pytest.approx(expected, rel=1e-12)

    def test_weight_is_the_smaller_growth_function_bound(self):
        # 2**m below m = d, where Sauer's (e*m/d)**d does not hold; the smaller
        # of the two from m = d on, Sauer's term as its own expression.
        ln2 = math.log(2.0)
        assert BoundSpec.finite_vc(m=3, vc_dim=10).log_weight == 3 * ln2
        assert BoundSpec.finite_vc(m=10, vc_dim=10).log_weight == 10 * ln2  # 2**10 < e**10
        assert BoundSpec.finite_vc(m=3, vc_dim=1).log_weight == 3 * ln2  # 8 < 3e
        assert BoundSpec.finite_vc(m=4, vc_dim=1).log_weight == 1 * (1.0 + math.log(4) - math.log(1))
        assert BoundSpec.finite_vc(m=50, vc_dim=3).log_weight == 3 * (1.0 + math.log(50) - math.log(3))

    def test_log_weight_is_never_negative(self):
        # So the CDF is 0 at eps = 0 and every spec's slot masses sum to 1.
        for d in (*range(1, 31), 100, 10**6):
            for m in (*range(1, 601), 10**6):
                spec = BoundSpec.finite_vc(m=m, vc_dim=d)
                assert spec.log_weight >= 0.0, (d, m)
                assert bound_cdf(spec, 0.0) == 0.0, (d, m)
                discretize_bound(spec, 10)

    def test_cdf_never_falls_as_m_grows(self):
        # Zero tolerance, 17,970 steps: the CDF at m + 1 is at least that at m.
        grid = np.linspace(0.0, 1.0, 201)
        for d in range(1, 31):
            prev = np.zeros(len(grid))
            for m in range(1, 601):
                cdfs = bound_cdf(BoundSpec.finite_vc(m=m, vc_dim=d), grid)
                assert (cdfs >= prev).all(), (d, m)
                prev = cdfs


class TestBoundTable:
    """``bound_cdf`` and ``bound_density`` on an array of eps, as the bound
    command tabulates them: the per-element scalar calls' values, bit for bit."""

    @pytest.mark.parametrize(
        "spec",
        [FH_59049_25, FH_1E9_35, VC_1_20, VC_1_100, BoundSpec.finite_vc(m=50, vc_dim=3),
         BoundSpec.finite_vc(m=1000, vc_dim=1), BoundSpec(m=1, log_weight=30.0)],
    )
    def test_equals_scalar_evaluations(self, spec):
        cut = cutoff(spec)
        eps = np.array(
            np.linspace(0.0, 1.1, 1000).tolist() + np.linspace(-0.5, 1.5, 2001).tolist()
            + [-math.inf, -1.0, -0.0, 0.0, cut / 2, math.nextafter(cut, -1.0), cut, math.nextafter(cut, 2.0),
               (spec.log_weight + 41.0) / spec.m, 1.0 - 1e-16, 1.0, 1.5, math.inf, math.nan]
        )
        x = spec.log_weight - spec.m * eps
        regions = {
            "negative": eps < 0.0,
            "below-cutoff": (eps >= 0.0) & (eps < cut),
            "ramp": (eps >= cut) & (eps < 1.0) & (x >= -40.0),
            "saturated": (eps >= cut) & (eps < 1.0) & (x < -40.0),
            "one-and-above": eps >= 1.0,
            "nan": np.isnan(eps),
        }
        # Every region the spec has is hit: no ramp from a cutoff at 1 on, no saturation where x stays above -40 below 1.
        expected = set(regions) - ({"ramp"} if cut >= 1.0 else set())
        if (spec.log_weight + 40.0) / spec.m >= 1.0:
            expected.discard("saturated")
        assert {name for name, cells in regions.items() if cells.any()} == expected
        assert bits(bound_cdf(spec, eps)) == bits([bound_cdf(spec, e) for e in eps.tolist()])
        off_one = eps[eps != 1.0]
        assert bits(bound_density(spec, off_one)) == bits([bound_density(spec, e) for e in off_one.tolist()])

    def test_refuses_eps_one(self):
        with pytest.raises(ValueError):
            bound_density(VC_1_20, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            bound_density(VC_1_20, np.array(1.0))

    def test_returns_python_floats(self):
        for eps in (0.5, 0, np.float64(0.5), np.array(0.5)):
            assert type(bound_cdf(FH_59049_25, eps)) is float and type(bound_density(FH_59049_25, eps)) is float
        grid = np.linspace(0.0, 1.5, 6).reshape(2, 3)
        for values in (bound_cdf(FH_59049_25, grid), bound_density(FH_59049_25, grid)):
            assert type(values) is np.ndarray and values.dtype == np.float64 and values.shape == (2, 3)
        assert bound_cdf(FH_59049_25, [0.0, 0.5, 1.5]).tolist() == [0.0, bound_cdf(FH_59049_25, 0.5), 1.0]

    def test_nan_eps_gives_nan(self):
        assert math.isnan(bound_cdf(VC_1_20, math.nan)) and math.isnan(bound_density(VC_1_20, math.nan))
        assert np.isnan(bound_cdf(VC_1_20, np.array([math.nan]))).all()

    def test_density_equals_direct_evaluation_on_default_schedules(self):
        # The bound command's grid, for the bounds of both default experiments.
        grid = np.linspace(0.0, 1.1, 1000).tolist()
        specs = [BoundSpec.finite_h(m=m, log_h_size=10 * math.log(3.0)) for m in range(25, 1251, 25)]
        specs += [BoundSpec.finite_vc(m=m, vc_dim=1) for m in range(20, 1001, 20)]
        for spec in specs:
            log_weight, m = spec.log_weight, spec.m
            direct = [
                0.0 if eps < log_weight / m or eps > 1.0 else math.exp(log_weight + math.log(m) - m * eps) for eps in grid
            ]
            assert bound_density(spec, np.array(grid)).tolist() == direct, m
            assert [bound_density(spec, eps) for eps in grid] == direct, m


class TestSampleComplexity:
    def test_finite_hand_values(self):
        assert sample_complexity_finite(2, 0.1, 0.1) == 30
        assert sample_complexity_finite(1, 0.5, 0.5) == 2

    def test_finite_rejects_bad_domain(self):
        for eps, delta in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)]:
            with pytest.raises(ValueError):
                sample_complexity_finite(10, eps, delta)

    def test_boundary_identity(self):
        # choose eps so ln(|H|/delta)/eps lands exactly on integer m=35;
        # there the ramp evaluates to exactly 1-delta
        delta = 0.5
        m = 35
        eps = (LN_1E9 - math.log(delta)) / m
        assert sample_complexity_finite(1e9, eps, delta) == m
        assert bound_cdf(BoundSpec.finite_h(m=m, h_size=1e9), eps) == pytest.approx(1 - delta, abs=1e-12)

    def test_vc_fixed_point(self):
        m = sample_complexity_vc(1, 0.5, 0.5)
        assert m == 8
        # returned m satisfies the self-referential requirement
        assert m >= (1 * math.log(math.e * m / 1) - math.log(0.5)) / 0.5
        # and the next smaller integer does not
        assert m - 1 < (math.log(math.e * (m - 1)) - math.log(0.5)) / 0.5

    def test_vc_requirement_holds_across_grid(self):
        for d in (1, 2, 5):
            for eps in (0.05, 0.2, 0.7):
                for delta in (0.01, 0.3, 0.9):
                    m = sample_complexity_vc(d, eps, delta)
                    assert m >= 1
                    assert m >= (d * math.log(math.e * m / d) - math.log(delta)) / eps

    def test_vc_monotone_in_eps(self):
        prev = 0
        for eps in (0.9, 0.7, 0.5, 0.3, 0.1, 0.05):
            m = sample_complexity_vc(1, eps, 0.5)
            assert m >= prev
            prev = m

    def test_vc_weak_requirement_gives_small_m(self):
        assert sample_complexity_vc(1, 0.999, 0.999) >= 1

    def test_vc_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(paclab.theory, "_VC_ITERATION_CAP", 1)
        with pytest.raises(RuntimeError, match="within 1 steps"):
            sample_complexity_vc(1, 0.01, 0.01)

    def test_vc_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            sample_complexity_vc(0, 0.5, 0.5)
        with pytest.raises(ValueError):
            sample_complexity_vc(1, 1.5, 0.5)
        # The message BoundSpec.finite_vc and ThresholdTask give.
        with pytest.raises(ValueError, match=r"VC dimension must be a positive integer, got 1\.5"):
            sample_complexity_vc(1.5, 0.1, 0.1)


class TestDiscreteDistribution:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0.5, 0.4))

    def test_validates_nonnegative(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((1.5, -0.5))

    @pytest.mark.parametrize("masses", [(math.nan, 1.0), (1.0, math.nan), (0.5, 0.5, math.nan)])
    def test_rejects_nan_mass(self, masses):
        # fsum of a NaN is NaN, which no tolerance comparison catches.
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteDistribution(masses)

    def test_validates_slot_count(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0,))

    @pytest.mark.parametrize(
        "masses",
        [
            (math.nan, 0.25, 0.75), (0.5, math.nan, 0.5), (0.25, 0.75, math.nan), (0.5, -math.inf, 0.5),
            (math.inf, math.nan), (math.nan, -1.0), (-0.0, 1.0), (math.inf, 0.0), (0.25, 0.75), (1.0,),
            # fsum overflows before it reaches the NaN; the NaN is still reported first.
            (1e308, 1e308, math.nan), (1e308, 1e308),
        ],
    )
    def test_check_matches_the_all_form(self, masses):
        def outcome(make):
            try:
                make(masses)
            except (ValueError, OverflowError) as exc:
                return type(exc), str(exc)
            return None

        assert outcome(DiscreteDistribution) == outcome(all_form_check)

    @pytest.mark.parametrize(
        "masses", [(1e308, 1e308), (MAX, MAX * 2**-54, MAX * 2**-54)], ids=["plain-sum-inf", "plain-sum-finite"]
    )
    def test_sum_past_the_largest_float_reads_inf(self, masses):
        # math.fsum raises OverflowError here, which no caller of the check reports.
        with pytest.raises(ValueError, match=r"^slot masses must sum to 1 \(got inf\)$"):
            DiscreteDistribution(masses)

    def test_slot_geometry(self):
        d = DiscreteDistribution((0.25,) * 4)
        assert d.num_slots == 4

    def test_masses_are_a_read_only_float64_array(self):
        d = DiscreteDistribution([0.25, 0.75])
        assert d.masses.dtype == np.float64 and d.masses.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError, match="read-only"):
            d.masses[0] = 0.75

    def test_later_mutation_of_the_input_changes_nothing(self):
        source = np.array([0.5, 0.5])
        d = DiscreteDistribution(source)
        source[0] = 7.0
        assert d.masses.tolist() == [0.5, 0.5]

    def test_equality_by_length_and_value(self):
        assert DiscreteDistribution((-0.0, 1.0)) == DiscreteDistribution((0.0, 1.0))
        assert DiscreteDistribution((0.5, 0.5)) != DiscreteDistribution((0.25,) * 4)
        assert DiscreteDistribution((1.0, 0.0)) != DiscreteDistribution((1.0, 0.0, 0.0))
        assert DiscreteDistribution((0.5, 0.5)) != (0.5, 0.5)


def all_form_check(masses):
    """``DiscreteDistribution``'s check as first written: an ``all(...)`` generator for the sign, then the sum."""
    if len(masses) < 2:
        raise ValueError("need at least 2 slots")
    if not all(mass >= 0.0 for mass in masses):
        raise ValueError("slot masses must be non-negative")
    try:
        total = math.fsum(masses)
    except OverflowError:  # a sum past the largest float is reported as inf
        total = math.inf
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"slot masses must sum to 1 (got {total!r})")


def plain_cdfs(log_weight, m, eps_values):
    """The CDF with ``exp`` evaluated on every ramp cell, as before the saturation shortcut."""
    cut = log_weight / m
    return [1.0 if eps >= 1 else 0.0 if eps < cut else max(1 - math.exp(log_weight - m * eps), 0.0) for eps in eps_values]


def bits(values):
    return [float.hex(v) for v in values]  # tells -0.0 from 0.0


class TestRampSaturation:
    """``bound_cdf`` returns 1.0 without ``exp`` where ln W - m*eps < -40;
    on an array of eps it must give the plain formula's bits everywhere."""

    DEFAULT_SPECS = [BoundSpec.finite_h(m=m, log_h_size=10 * math.log(3.0)) for m in range(25, 1251, 25)]
    DEFAULT_SPECS += [BoundSpec.finite_vc(m=m, vc_dim=1) for m in range(20, 1001, 20)]

    @pytest.mark.parametrize(
        "eps_values",
        [
            [i / 100 for i in range(101)],
            [i / 2000 for i in range(2001)],
            np.linspace(0.0, 1.1, 1000).tolist(),
        ],
        ids=["100-slot-edges", "2000-slot-edges", "bound-grid"],
    )
    def test_default_schedules(self, eps_values):
        for spec in self.DEFAULT_SPECS:
            assert bits(bound_cdf(spec, eps_values)) == bits(plain_cdfs(spec.log_weight, spec.m, eps_values))

    def test_either_side_of_minus_40(self):
        # ln W = 10, m = 100: x = -40 exactly at eps = 0.5.  Steps of single
        # ulps around it, and a sweep of x from -45 to -30, where 1 - exp(x)
        # leaves 1.0 near x = -37.4.
        eps_values, eps = [], 0.5
        for _ in range(50):
            eps = math.nextafter(eps, 0.0)
        for _ in range(100):
            eps_values.append(eps)
            eps = math.nextafter(eps, 1.0)
        xs = [10.0 - 100 * e for e in eps_values]
        assert min(xs) < -40.0 < max(xs) and -40.0 in xs
        eps_values += np.linspace(0.4, 0.55, 20001).tolist()
        got = bound_cdf(BoundSpec(m=100, log_weight=10.0), eps_values).tolist()
        assert bits(got) == bits(plain_cdfs(10.0, 100, eps_values))
        assert 1.0 in got and any(0.0 < cdf < 1.0 for cdf in got)

    @pytest.mark.parametrize(
        "log_weight, m",
        [(1e18, 2 * 10**18), (2.0**60, 2**61), (0.0, 1), (0.5, 1), (LN_1E9, 1), (30.0, 1)],
        ids=["ln-w-1e18", "ln-w-2-to-60", "m1-h1", "m1", "m1-h1e9", "m1-cut-above-one"],
    )
    def test_extreme_specs(self, log_weight, m):
        cut = log_weight / m
        eps_values = np.linspace(0.0, 1.1, 1000).tolist() + [cut, math.nextafter(cut, 2.0), math.nextafter(cut, -1.0)]
        near = cut
        for _ in range(200):  # the ramp just past the cutoff, where x falls fastest relative to eps
            near = math.nextafter(near, 2.0)
            eps_values.append(near)
        assert bits(bound_cdf(BoundSpec(m=m, log_weight=log_weight), eps_values)) == bits(plain_cdfs(log_weight, m, eps_values))


class TestDiscretizeBound:
    def test_masses_sum_to_one(self):
        for spec in (FH_59049_25, FH_1E9_35, VC_1_20, VC_1_100):
            q = discretize_bound(spec, 100)
            assert math.fsum(q.masses) == pytest.approx(1.0, abs=1e-9)

    def test_masses_nonnegative(self):
        q = discretize_bound(FH_59049_25, 997)
        assert all(mass >= 0.0 for mass in q.masses)

    def test_conjunction_bound_zero_slots(self):
        # cutoff 0.4394: slots strictly below it carry nothing, and the
        # slot containing it carries CDF(0.44) = 0.0138
        q = discretize_bound(FH_59049_25, 100)
        assert all(q.masses[i] == 0.0 for i in range(43))
        assert q.masses[43] == pytest.approx(bound_cdf(FH_59049_25, 0.44), rel=1e-12)
        assert q.masses[43] == pytest.approx(0.0137813, rel=1e-4)

    def test_slot_masses_match_cdf_differences(self):
        q = discretize_bound(VC_1_20, 50)
        for i in range(49):
            expected = bound_cdf(VC_1_20, (i + 1) / 50) - bound_cdf(VC_1_20, i / 50)
            assert q.masses[i] == pytest.approx(expected, abs=1e-15)

    def test_vc_m1000_concentrates_low(self):
        q = discretize_bound(BoundSpec.finite_vc(m=1000, vc_dim=1), 100)
        # slot 0 holds CDF(0.01) = 0.8766; together with slot 1 nearly everything
        assert q.masses[0] == pytest.approx(0.8765901959133204, rel=1e-10)
        assert q.masses[0] + q.masses[1] > 0.999

    def test_last_slot_receives_atom(self):
        q = discretize_bound(FH_1E9_35, 100)
        continuous = bound_cdf(FH_1E9_35, 1.0 - 1e-12) - bound_cdf(FH_1E9_35, 0.99)
        assert q.masses[99] == pytest.approx(continuous + bound_point_mass(FH_1E9_35), abs=1e-9)

    def test_rejects_tiny_slot_count(self):
        with pytest.raises(ValueError):
            discretize_bound(FH_59049_25, 1)


class TestCdfInvariants:
    GRID = np.linspace(-0.1, 1.1, 1000)

    @pytest.mark.parametrize(
        "spec",
        [FH_59049_25, FH_1E9_35, BoundSpec.finite_h(m=22, h_size=1e9), VC_1_20, VC_1_100,
         BoundSpec.finite_vc(m=7, vc_dim=3)],
        ids=["finite-h-59049-25", "finite-h-1e9-35", "finite-h-1e9-22", "vc-1-20", "vc-1-100", "vc-3-7"],
    )
    def test_monotone_and_bounded(self, spec):
        values = [bound_cdf(spec, float(e)) for e in self.GRID]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "make",
        [lambda m: BoundSpec.finite_h(m=m, h_size=59049), lambda m: BoundSpec.finite_vc(m=m, vc_dim=1)],
        ids=["finite-h", "vc"],
    )
    def test_cdf_grows_with_m(self, make):
        grid = np.linspace(0.001, 0.999, 200)
        for m1, m2 in [(25, 50), (50, 400), (400, 1250)]:
            assert (bound_cdf(make(m2), grid) >= bound_cdf(make(m1), grid)).all()

    @pytest.mark.parametrize(
        "spec",
        [FH_59049_25, BoundSpec.finite_h(m=1250, h_size=59049), VC_1_20, BoundSpec.finite_vc(m=1000, vc_dim=1)],
        ids=["finite-h-59049-25", "finite-h-59049-1250", "vc-1-20", "vc-1-1000"],
    )
    def test_normalization(self, spec):
        lo = cutoff(spec)
        num = max(100_000, 1000 * spec.m)
        integral = density_integral(spec, lo, 1.0 - 1e-12, num)
        assert integral + bound_point_mass(spec) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "spec",
        [FH_59049_25, FH_1E9_35, VC_1_20, VC_1_100],
        ids=["finite-h-59049-25", "finite-h-1e9-35", "vc-1-20", "vc-1-100"],
    )
    def test_density_matches_finite_differences(self, spec):
        lo = cutoff(spec) + 0.01
        h = 1e-6
        for eps in np.linspace(lo, 0.99, 100):
            eps = float(eps)
            slope = (bound_cdf(spec, eps + h) - bound_cdf(spec, eps - h)) / (2 * h)
            assert bound_density(spec, eps) == pytest.approx(slope, abs=1e-4)
