"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; the
statistical criteria (4, 5) run the full experiments at the pinned seed
and take a few seconds each.
"""

import math
import time

import numpy as np
import pytest

from monotone import check_monotone, stochastic_dominance, two_standard_error_tolerances
from paclab.analysis import KL_FLOOR, build_curve, kl_divergence
from paclab.cli import cmd_experiment, run_experiment
from paclab.empirics import ExperimentConfig, run_trials
from paclab.learners import (
    ConjunctionTask,
    ThresholdHypothesis,
    ThresholdTask,
    conjunction_loss_enumerate,
    conjunction_loss_exact,
    label_conjunction_batch,
    learn_conjunction_bits,
    threshold_loss_exact,
    threshold_loss_monte_carlo,
)
from paclab.theory import (
    BoundSpec,
    DiscreteDistribution,
    bound_cdf,
    bound_density,
    bound_point_mass,
    cutoff,
    discretize_bound,
)

SEED = 2024
K = 1000
SLOTS = 100


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def experiment_curve(task, m_start, m_step, m_max):
    config = ExperimentConfig(
        task=task, num_slots=SLOTS, trials=K,
        m_start=m_start, m_step=m_step, m_max=m_max, master_seed=SEED,
    )
    start = time.perf_counter()
    records = run_experiment(config)
    elapsed = time.perf_counter() - start
    return build_curve(records), elapsed


@pytest.fixture(scope="module")
def conjunction_results():
    return experiment_curve(ConjunctionTask(10), 25, 25, 1250)


@pytest.fixture(scope="module")
def threshold_results():
    return experiment_curve(ThresholdTask(), 20, 20, 1000)


def test_criterion_1_bound_value_near_one():
    spec = BoundSpec.finite_h(m=35, h_size=1e9)
    got = bound_cdf(spec, 1.0 - 1e-12)
    want = 1.0 - 6.3051168e-07
    ok = math.isclose(got, want, rel_tol=1e-6)
    report("1 bound value", ok, f"F(1-1e-12) = {got!r}, expected {want!r} within rel 1e-6")


def test_criterion_2_cutoff_location():
    got = cutoff(BoundSpec.finite_h(m=25, h_size=59049))
    ok = abs(got - 0.439) <= 1e-3
    report("2 cutoff", ok, f"cutoff(|H|=59049, m=25) = {got:.6f}, expected 0.439 +/- 0.001")


def test_criterion_3_kl_ceiling():
    p = DiscreteDistribution((1.0,) + (0.0,) * (SLOTS - 1))
    q = DiscreteDistribution((0.0,) * (SLOTS - 1) + (1.0,))
    assert KL_FLOOR == 2e-16
    got = kl_divergence(p, q)
    ok = abs(got - 52.0) <= 1.0
    report("3 KL ceiling", ok, f"disjoint-support KL = {got:.4f}, expected 52 +/- 1")


def test_criterion_4a_conjunction_bound_dominates_means(conjunction_results):
    curve, _ = conjunction_results
    gaps = [(pt.m, pt.mean_q - pt.mean_p) for pt in curve]
    worst_m, worst = min(gaps, key=lambda t: t[1])
    ok = worst >= 0.0 and len(curve) == 50
    report("4a conjunction mean(Q) >= mean(P)", ok, f"min gap {worst:.6f} at m={worst_m} over {len(curve)} sizes")


def test_criterion_4b_conjunction_curve_monotone(conjunction_results):
    curve, _ = conjunction_results
    taus = two_standard_error_tolerances([pt.std_p for pt in curve], K)
    result = check_monotone([pt.mean_p for pt in curve], taus)
    ok = result.fraction_monotone_steps >= 0.95
    report(
        "4b conjunction empirical curve monotone",
        ok,
        f"fraction {result.fraction_monotone_steps:.4f} (>= 0.95), violations {list(result.violations)}",
    )


def test_criterion_4c_conjunction_kl_drop(conjunction_results):
    curve, elapsed = conjunction_results
    kls = {pt.m: pt.kl for pt in curve}
    near_ceiling = kls[25] >= 40.0
    settled = kls[1250] < 0.5
    high_through_800 = all(kl >= 0.5 for m, kl in kls.items() if m <= 800)
    ok = near_ceiling and settled and high_through_800 and elapsed <= 600.0
    report(
        "4c conjunction KL trajectory",
        ok,
        f"KL(25) = {kls[25]:.2f} (>= 40), KL(1250) = {kls[1250]:.4f} (< 0.5), "
        f"drop after m=800 ({high_through_800}), runtime {elapsed:.1f}s (<= 600s)",
    )


def test_criterion_5a_threshold_bound_dominates_means(threshold_results):
    curve, _ = threshold_results
    gaps = [(pt.m, pt.mean_q - pt.mean_p) for pt in curve]
    worst_m, worst = min(gaps, key=lambda t: t[1])
    ok = worst >= 0.0 and len(curve) == 50
    report("5a threshold mean(Q) >= mean(P)", ok, f"min gap {worst:.6f} at m={worst_m} over {len(curve)} sizes")


def test_criterion_5b_threshold_curve_monotone(threshold_results):
    curve, elapsed = threshold_results
    taus = two_standard_error_tolerances([pt.std_p for pt in curve], K)
    result = check_monotone([pt.mean_p for pt in curve], taus)
    ok = result.fraction_monotone_steps >= 0.95 and elapsed <= 60.0
    report(
        "5b threshold empirical curve monotone",
        ok,
        f"fraction {result.fraction_monotone_steps:.4f} (>= 0.95), violations {list(result.violations)}, "
        f"runtime {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    checked = 0
    for n in range(3, 13):
        for _ in range(1000):
            target = ConjunctionTask(n).draw_target(rng)
            m = int(rng.integers(0, 3 * n + 1))
            bits = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            learned = learn_conjunction_bits(bits, label_conjunction_batch(target, bits))
            if conjunction_loss_exact(target, learned) != conjunction_loss_enumerate(target, learned):
                report("6 oracle equivalence", False, f"closed form != enumeration at n={n}")
            checked += 1

    worst = 0.0
    for _ in range(100):
        a = ThresholdHypothesis(float(rng.random()))
        a_hat = ThresholdHypothesis(float(rng.random()))
        mc = threshold_loss_monte_carlo(a, a_hat, 1_000_000, rng)
        worst = max(worst, abs(threshold_loss_exact(a, a_hat) - mc))
    ok = worst <= 0.002
    report(
        "6 oracle equivalence",
        ok,
        f"{checked} conjunction pairs exact-equal; threshold MC max |diff| {worst:.6f} (<= 0.002)",
    )


def test_criterion_7_theory_properties():
    conj_specs = [BoundSpec.finite_h(m=m, h_size=59049) for m in range(25, 1251, 25)]
    thr_specs = [BoundSpec.finite_vc(m=m, vc_dim=1) for m in range(20, 1001, 20)]
    probes = [conj_specs[0], conj_specs[13], conj_specs[-1], thr_specs[0], thr_specs[24], thr_specs[-1]]

    grid = np.linspace(-0.1, 1.1, 1000)
    for spec in probes:
        values = bound_cdf(spec, grid)
        assert ((0.0 <= values) & (values <= 1.0)).all(), spec
        assert (values[1:] >= values[:-1]).all(), spec

    for specs in (conj_specs, thr_specs):
        qs = [discretize_bound(s, SLOTS) for s in specs]
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                assert stochastic_dominance(qs[i], qs[j]), (specs[i].m, specs[j].m)

    worst_norm = 0.0
    for spec in probes:
        lo = cutoff(spec)
        xs = np.linspace(lo, 1.0 - 1e-12, max(100_000, 1000 * spec.m))
        integral = float(np.trapezoid(bound_density(spec, xs), xs))
        worst_norm = max(worst_norm, abs(integral + bound_point_mass(spec) - 1.0))
    assert worst_norm <= 1e-6

    worst_density = 0.0
    h = 1e-6
    for spec in (conj_specs[0], conj_specs[3], thr_specs[0], thr_specs[4]):
        for eps in np.linspace(cutoff(spec) + 0.01, 0.99, 100):
            eps = float(eps)
            slope = (bound_cdf(spec, eps + h) - bound_cdf(spec, eps - h)) / (2 * h)
            worst_density = max(worst_density, abs(bound_density(spec, eps) - slope))
    ok = worst_density <= 1e-4
    report(
        "7 theory properties",
        ok,
        "CDF monotone on 1000-point grid; dominance holds for all schedule pairs; "
        f"normalization off by {worst_norm:.2e} (<= 1e-6); density vs finite diff off by {worst_density:.2e} (<= 1e-4)",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    config = ExperimentConfig(
        task=ConjunctionTask(10), num_slots=SLOTS, trials=60,
        m_start=25, m_step=25, m_max=150, master_seed=SEED,
    )
    cmd_experiment(config, tmp_path / "first")
    cmd_experiment(config, tmp_path / "second")
    same = {
        name: (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("distributions.csv", "curve.csv", "manifest.json")
    }
    prefix = {
        mode: run_trials(ConjunctionTask(10), 50, 200, SEED, fixed_target=fixed).losses[:50].tobytes()
        == run_trials(ConjunctionTask(10), 50, 50, SEED, fixed_target=fixed).losses.tobytes()
        for mode, fixed in (("per-trial", False), ("fixed", True))
    }
    ok = all(same.values()) and all(prefix.values())
    report(
        "8 determinism",
        ok,
        f"reruns byte-identical: {same}; first 50 of k=200 trials equal k=50 trials: {prefix}",
    )
