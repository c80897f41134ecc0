"""Command-line behavior: config handling, outputs, reproducibility, exit codes."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from paclab.analysis import build_curve, kl_divergence
from paclab.cli import (
    ConfigError,
    cmd_bound,
    cmd_experiment,
    cmd_kl,
    load_config_file,
    main,
    read_curve_csv,
    read_distributions_csv,
    run_experiment,
    task_bound_spec,
)
from paclab.empirics import ExperimentConfig, run_trials
from paclab.learners import ConjunctionTask, ThresholdTask
from paclab.theory import BoundKind, DiscreteDistribution, discretize_bound


def small_config(task=None, **overrides):
    defaults = dict(
        task=task or ThresholdTask(),
        num_slots=100,
        trials=30,
        m_start=20,
        m_step=20,
        m_max=80,
        master_seed=4242,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def write_single_dist_csv(path, masses, m=1, source="P"):
    d = DiscreteDistribution(tuple(masses))
    lines = ["m,source,slot_index,slot_lo,slot_hi,mass"]
    for i, mass in enumerate(d.masses):
        lo, hi = d.slot_bounds(i)
        lines.append(f"{m},{source},{i},{lo!r},{hi!r},{mass!r}")
    Path(path).write_text("\n".join(lines) + "\n")


class TestTaskBoundSpec:
    def test_conjunction_maps_to_finite_h(self):
        spec = task_bound_spec(ConjunctionTask(10), 25)
        assert spec.kind is BoundKind.FINITE_H
        assert spec.log_h_size == pytest.approx(math.log(59049), rel=1e-12)
        assert spec.m == 25

    def test_threshold_maps_to_vc_dim_one(self):
        spec = task_bound_spec(ThresholdTask(), 40)
        assert spec.kind is BoundKind.FINITE_VC
        assert spec.vc_dim == 1


class TestExperimentCommand:
    def test_outputs_exist_and_are_consistent(self, tmp_path):
        config = small_config()
        cmd_experiment(config, tmp_path)
        for name in ("distributions.csv", "curve.csv", "manifest.json"):
            assert (tmp_path / name).exists()

        groups = read_distributions_csv(tmp_path / "distributions.csv")
        schedule = config.schedule()
        assert set(groups) == {(m, s) for m in schedule for s in ("P", "Q")}
        for dist in groups.values():
            assert math.fsum(dist.masses) == pytest.approx(1.0, abs=1e-9)

        curve = read_curve_csv(tmp_path / "curve.csv")
        assert [row["m"] for row in curve] == schedule
        # curve statistics must be recomputable from the stored distributions
        for row in curve:
            p = groups[(row["m"], "P")]
            q = groups[(row["m"], "Q")]
            assert row["kl"] == kl_divergence(p, q)

    def test_q_matches_direct_discretization(self, tmp_path):
        config = small_config()
        cmd_experiment(config, tmp_path)
        groups = read_distributions_csv(tmp_path / "distributions.csv")
        for m in config.schedule():
            expected = discretize_bound(task_bound_spec(ThresholdTask(), m), 100)
            assert groups[(m, "Q")].masses == expected.masses

    def test_reruns_are_byte_identical(self, tmp_path):
        config = small_config(task=ConjunctionTask(6), m_start=25, m_step=25, m_max=75)
        cmd_experiment(config, tmp_path / "a")
        cmd_experiment(config, tmp_path / "b")
        for name in ("distributions.csv", "curve.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for fixed in (False, True):
            longer = run_trials(config.task, 25, 200, config.master_seed, fixed_target=fixed)
            shorter = run_trials(config.task, 25, 50, config.master_seed, fixed_target=fixed)
            assert longer.losses[:50].tobytes() == shorter.losses.tobytes()

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        rc = main([
            "experiment", "--task", "threshold", "--trials", "25", "--m-max", "60",
            "--seed", "31", "--out-dir", str(tmp_path / "a"),
        ])
        assert rc == 0
        rc = main(["experiment", "--config", str(tmp_path / "a" / "manifest.json"), "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        for name in ("distributions.csv", "curve.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        config = small_config()
        cmd_experiment(config, tmp_path)
        groups = read_distributions_csv(tmp_path / "distributions.csv")
        records = run_experiment(config)
        for rec in records:
            assert groups[(rec.m, "P")].masses == rec.empirical.masses
            assert groups[(rec.m, "Q")].masses == rec.theoretical.masses
        curve = read_curve_csv(tmp_path / "curve.csv")
        for row, pt in zip(curve, build_curve(records)):
            assert row["mean_p"] == pt.mean_p
            assert row["kl"] == pt.kl


class TestConfigHandling:
    def test_flat_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ntask=threshold\ntrials=10\nm_start=20\nm_step=20\nm_max=40\nseed=5\n")
        parsed = load_config_file(cfg)
        assert parsed == {"task": "threshold", "trials": 10, "m_start": 20, "m_step": 20, "m_max": 40, "seed": 5}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line in ("bogus=1\n", "workers=2\n"):
            cfg.write_text(line)
            with pytest.raises(ConfigError):
                load_config_file(cfg)

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=threshold\ntrials=10\nm_start=20\nm_step=20\nm_max=40\nseed=5\n")
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg), "--trials", "7", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 7
        assert manifest["config"]["seed"] == 5

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PACLAB_SEED", "777")
        out = tmp_path / "out"
        rc = main(["experiment", "--task", "threshold", "--trials", "5", "--m-max", "40", "--out-dir", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 777

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PACLAB_SEED", "777")
        out = tmp_path / "out"
        main(["experiment", "--task", "threshold", "--trials", "5", "--m-max", "40", "--seed", "9", "--out-dir", str(out)])
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 9

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PACLAB_SEED", "not-a-number")
        rc = main(["experiment", "--task", "threshold", "--trials", "5", "--m-max", "40", "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_gt_mode_flag_round_trips(self, tmp_path):
        out = tmp_path / "out"
        main([
            "experiment", "--task", "threshold", "--trials", "5", "--m-max", "40",
            "--gt-mode", "fixed", "--out-dir", str(out),
        ])
        assert json.loads((out / "manifest.json").read_text())["config"]["gt_mode"] == "fixed"


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["experiment", "--task", "threshold", "--trials", "3", "--m-max", "40", "--out-dir", str(tmp_path)]) == 0

    def test_invalid_flag_value(self):
        assert main(["experiment", "--task", "nonsense"]) == 1
        assert main(["experiment", "--workers", "2"]) == 1

    def test_invalid_config_value(self, tmp_path):
        assert main(["experiment", "--task", "threshold", "--slots", "1", "--out-dir", str(tmp_path)]) == 1

    def test_missing_input_file_is_io_failure(self, tmp_path):
        assert main(["kl", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv")]) == 2

    def test_unwritable_out_dir_is_io_failure(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["experiment", "--task", "threshold", "--trials", "3", "--m-max", "40", "--out-dir", str(blocker / "sub")])
        assert rc == 2

    def test_malformed_csv_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("definitely,not,the,right,schema\n1,2,3,4,5\n")
        assert main(["kl", str(bad), str(bad)]) == 1


class TestBoundCommand:
    def test_summary_cutoffs(self, tmp_path):
        cmd_bound("finite-h", [22, 35, 100], tmp_path, h_size=1e9)
        rows = (tmp_path / "bound_summary.csv").read_text().splitlines()
        assert rows[0] == "m,cutoff,point_mass"
        by_m = {int(r.split(",")[0]): [float(x) for x in r.split(",")[1:]] for r in rows[1:]}
        assert by_m[22][0] == pytest.approx(0.9420, abs=1e-4)
        assert by_m[100][0] == pytest.approx(0.2072, abs=1e-4)
        assert by_m[35][1] == pytest.approx(6.3051168e-07, rel=1e-6)

    def test_grid_saturates_at_one(self, tmp_path):
        cmd_bound("finite-h", [22], tmp_path, h_size=1e9)
        saw_high_eps = False
        for line in (tmp_path / "bound_grid.csv").read_text().splitlines()[1:]:
            _, eps, cdf_value, density = line.split(",")
            if float(eps) >= 1.0:
                saw_high_eps = True
                assert float(cdf_value) == 1.0
                assert float(density) == 0.0
        assert saw_high_eps

    def test_grid_matches_direct_evaluation(self, tmp_path):
        from paclab.theory import BoundSpec, bound_cdf, bound_density

        cmd_bound("vc", [20], tmp_path, vc_dim=1)
        spec = BoundSpec.finite_vc(m=20, vc_dim=1)
        lines = (tmp_path / "bound_grid.csv").read_text().splitlines()[1:]
        assert len(lines) == 1000
        for line in lines[::97]:
            _, eps, cdf_value, density = line.split(",")
            assert float(cdf_value) == bound_cdf(spec, float(eps))
            assert float(density) == bound_density(spec, float(eps))

    def test_q_masses_sum_to_one(self, tmp_path):
        cmd_bound("finite-h", [22, 35], tmp_path, h_size=1e9, slots=100)
        groups = read_distributions_csv(tmp_path / "bound_q.csv")
        assert set(groups) == {(22, "Q"), (35, "Q")}
        for dist in groups.values():
            assert math.fsum(dist.masses) == pytest.approx(1.0, abs=1e-9)

    def test_rerun_from_manifest(self, tmp_path):
        cmd_bound("finite-h", [22], tmp_path / "a", h_size=1e9)
        rc = main(["bound", "--config", str(tmp_path / "a" / "manifest.json"), "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        for name in ("bound_grid.csv", "bound_summary.csv", "bound_q.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_finite_h_requires_size(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_bound("finite-h", [10], tmp_path)

    def test_huge_h_via_log(self, tmp_path):
        cmd_bound("finite-h", [10], tmp_path, log_h_size=700 * math.log(3.0))
        groups = read_distributions_csv(tmp_path / "bound_q.csv")
        assert groups[(10, "Q")].masses[-1] == 1.0


class TestKlCommand:
    def test_file_with_itself_is_zero(self, tmp_path):
        path = tmp_path / "p.csv"
        write_single_dist_csv(path, [0.25, 0.25, 0.5])
        assert cmd_kl(path, path) == 0.0

    def test_disjoint_fixtures_hit_ceiling(self, tmp_path):
        p_path = tmp_path / "p.csv"
        q_path = tmp_path / "q.csv"
        write_single_dist_csv(p_path, [1.0] + [0.0] * 99)
        write_single_dist_csv(q_path, [0.0] * 99 + [1.0], source="Q")
        assert cmd_kl(p_path, q_path) == pytest.approx(52, abs=1)

    def test_matches_curve_column_on_experiment_output(self, tmp_path):
        cmd_experiment(small_config(), tmp_path)
        dist_path = tmp_path / "distributions.csv"
        for row in read_curve_csv(tmp_path / "curve.csv"):
            assert cmd_kl(dist_path, dist_path, m=row["m"]) == row["kl"]

    def test_ambiguous_selection_rejected(self, tmp_path):
        cmd_experiment(small_config(), tmp_path)
        dist_path = tmp_path / "distributions.csv"
        with pytest.raises(ConfigError):
            cmd_kl(dist_path, dist_path)  # several m values present

    def test_source_override(self, tmp_path):
        cmd_experiment(small_config(), tmp_path)
        dist_path = tmp_path / "distributions.csv"
        assert cmd_kl(dist_path, dist_path, m=20, p_source="Q", q_source="Q") == 0.0

    def test_slot_mismatch_rejected(self, tmp_path):
        p_path = tmp_path / "p.csv"
        q_path = tmp_path / "q.csv"
        write_single_dist_csv(p_path, [0.5, 0.5])
        write_single_dist_csv(q_path, [0.25, 0.25, 0.5])
        with pytest.raises(ValueError):
            cmd_kl(p_path, q_path)

    def test_cli_prints_value(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        write_single_dist_csv(path, [0.5, 0.5])
        assert main(["kl", str(path), str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0"


# sha256 of the default experiment outputs at seed 2024 (NumPy 2.4.x).
GOLDEN_SHA256 = {
    "conjunction": {
        "distributions.csv": "c8b4fa33cdb98d59b071155d4961d29dabce7a489bdab5d843803698235cb80d",
        "curve.csv": "2ddf7521be8bf3f78aea4be5f7376ac906ec6d53695c520d97f1e4c75039e366",
    },
    "threshold": {
        "distributions.csv": "c21aaf857ece10106c3faddd7ac8af52f3635be1571d1135ed9c2b039dec1410",
        "curve.csv": "af4a452cf2d18ce58fddd927be16058292efd1f42227e851b596399fc74bf534",
    },
}


@pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason="goldens were recorded with NumPy 2.4.x; NEP 19 does not promise Generator streams across versions",
)
@pytest.mark.parametrize("task", sorted(GOLDEN_SHA256))
def test_default_experiment_matches_golden_hashes(tmp_path, monkeypatch, task):
    monkeypatch.delenv("PACLAB_SEED", raising=False)
    assert main(["experiment", "--task", task, "--out-dir", str(tmp_path)]) == 0
    for name, want in GOLDEN_SHA256[task].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
