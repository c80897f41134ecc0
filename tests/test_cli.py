"""Command-line behavior: config handling, outputs, reproducibility, exit codes."""

import argparse
import csv
import errno
import hashlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from paclab.analysis import kl_divergence, moments
import paclab.boundgrid
import paclab.cli
import paclab.distcsv
import paclab.empirics
from paclab.cli import (
    CURVE_HEADER,
    DISTRIBUTIONS_HEADER,
    ConfigError,
    build_parser,
    cmd_bound,
    cmd_experiment,
    cmd_kl,
    main,
    read_distributions_csv,
    run_experiment,
    task_bound_spec,
)
from paclab.empirics import ExperimentConfig, histogram, run_trials
from paclab.learners import ConjunctionTask, ThresholdTask
from paclab.theory import BoundSpec, DiscreteDistribution, bound_cdf, bound_density, discretize_bound


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
    for i, mass in enumerate(d.masses.tolist()):
        lo, hi = i / d.num_slots, (i + 1) / d.num_slots
        lines.append(f"{m},{source},{i},{lo!r},{hi!r},{mass!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_curve(path):
    """The rows of a curve.csv paclab wrote, as dicts: m an int, the statistics floats."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and list(rows[0]) == CURVE_HEADER
    return [{"m": int(row["m"]), **{name: float(row[name]) for name in CURVE_HEADER[1:]}} for row in rows]


class TestTaskBoundSpec:
    def test_conjunction_maps_to_finite_h(self):
        spec = task_bound_spec(ConjunctionTask(10), 25)
        assert spec == BoundSpec.finite_h(m=25, log_h_size=10 * math.log(3.0))
        assert spec.log_weight == pytest.approx(math.log(59049), rel=1e-12)
        assert spec.m == 25

    def test_threshold_maps_to_vc_dim_one(self):
        spec = task_bound_spec(ThresholdTask(), 40)
        assert spec == BoundSpec.finite_vc(m=40, vc_dim=1)
        assert spec.log_weight == 1.0 + math.log(40) - math.log(1)  # Sauer's e*m/d: below 2**40

    def test_threshold_task_carries_vc_dim(self):
        assert task_bound_spec(ThresholdTask(vc_dim=3), 40) == BoundSpec.finite_vc(m=40, vc_dim=3)
        assert task_bound_spec(ThresholdTask(vc_dim=3), 40) != BoundSpec.finite_vc(m=40, vc_dim=1)


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

        curve = read_curve(tmp_path / "curve.csv")
        assert [row["m"] for row in curve] == list(schedule)
        # curve statistics must be recomputable from the stored distributions
        for row in curve:
            p = groups[(row["m"], "P")]
            q = groups[(row["m"], "Q")]
            assert row["kl"] == kl_divergence(p, q)

    @pytest.mark.parametrize("fixed_target", [False, True])
    @pytest.mark.parametrize("task", [ConjunctionTask(10), ThresholdTask()], ids=["conjunction", "threshold"])
    def test_one_run_trials_call_per_scheduled_m(self, monkeypatch, task, fixed_target):
        # perfbench/layertrace.py times and replays each of these calls from its arguments and its losses.
        calls, signature = [], inspect.signature(run_trials)

        def spy(*args, **kwargs):
            batch = run_trials(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments, batch))
            return batch

        monkeypatch.setattr(paclab.cli, "run_trials", spy)
        config = small_config(task, m_start=400, m_step=400, m_max=1200, trials=100, fixed_target=fixed_target)
        run_experiment(config)
        assert [(a["task"], a["m"], a["k"], a["master_seed"], a["fixed_target"]) for a, _ in calls] == [
            (task, m, config.trials, config.master_seed, fixed_target) for m in config.schedule()
        ]
        for arguments, batch in calls:
            alone = run_trials(task, arguments["m"], config.trials, config.master_seed, fixed_target=fixed_target)
            assert len(batch.losses) == config.trials and batch.losses.tobytes() == alone.losses.tobytes()

    def test_distribution_blocks_are_formatted_as_they_are_written(self, tmp_path, monkeypatch):
        # No group's rows are formatted before the writer asks for them, so the file's text is never held at once.
        formatted, write_run = [], paclab.cli._write_run

        def spy_lines(*args):
            formatted.append(args[:2])
            return distribution_lines(*args)

        def spy_write_run(*args):
            assert formatted == []
            return write_run(*args)

        distribution_lines = paclab.cli._distribution_lines
        monkeypatch.setattr(paclab.cli, "_distribution_lines", spy_lines)
        monkeypatch.setattr(paclab.cli, "_write_run", spy_write_run)
        config = small_config()
        cmd_experiment(config, tmp_path)
        assert formatted == [(m, source) for m in config.schedule() for source in ("P", "Q")]

    def test_q_matches_direct_discretization(self, tmp_path):
        config = small_config()
        cmd_experiment(config, tmp_path)
        groups = read_distributions_csv(tmp_path / "distributions.csv")
        for m in config.schedule():
            expected = discretize_bound(task_bound_spec(ThresholdTask(), m), 100)
            assert groups[(m, "Q")].masses.tolist() == expected.masses.tolist()

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

    def test_q_follows_task_vc_dim(self):
        config = small_config(task=ThresholdTask(vc_dim=2))
        for m, _, q in run_experiment(config):
            assert q == discretize_bound(BoundSpec.finite_vc(m, 2), config.num_slots)
        assert q != discretize_bound(BoundSpec.finite_vc(m, 1), config.num_slots)

    def test_bad_vc_dim_fails_before_any_trial(self, tmp_path, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(paclab.cli, "run_trials", no_trials)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=threshold\nvc_dim=0\n")
        assert main(["experiment", "--task", "threshold", "--vc-dim", "0", "--out-dir", str(out)]) == 1
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_vc_dim_above_the_sample_sizes(self, tmp_path):
        argv = ["experiment", "--task", "threshold", "--vc-dim", "50", "--m-start", "1", "--m-step", "1", "--m-max", "5"]
        assert main([*argv, "--trials", "200", "--out-dir", str(tmp_path)]) == 0
        groups = read_distributions_csv(tmp_path / "distributions.csv")
        assert [groups[(m, "Q")] for m in range(1, 6)] == [
            discretize_bound(BoundSpec.finite_vc(m, 50), 100) for m in range(1, 6)
        ]

    def test_floats_round_trip_exactly(self, tmp_path):
        # Every stored mass and every curve.csv column reads back as the float computed from the (m, P, Q) triples.
        config = small_config()
        cmd_experiment(config, tmp_path)
        groups = read_distributions_csv(tmp_path / "distributions.csv")
        results = run_experiment(config)
        assert [m for m, _, _ in results] == list(config.schedule())
        for m, p, q in results:
            assert groups[(m, "P")].masses.tolist() == p.masses.tolist()
            assert groups[(m, "Q")].masses.tolist() == q.masses.tolist()
        rows = [tuple(row.values()) for row in read_curve(tmp_path / "curve.csv")]
        assert rows == [(m, *moments(p), *moments(q), kl_divergence(p, q)) for m, p, q in results]


_THR = ["--task", "threshold", "--trials", "3", "--m-max", "40"]
# (command, base flags, key, non-default value): one case per flag of each subcommand.
PARITY_CASES = [
    ("experiment", ["--trials", "3", "--m-max", "25"], "task", "threshold"),
    ("experiment", ["--trials", "3", "--m-max", "25"], "n", "4"),
    ("experiment", _THR, "vc_dim", "2"),
    ("experiment", _THR, "slots", "7"),
    ("experiment", ["--task", "threshold", "--m-max", "40"], "trials", "4"),
    ("experiment", _THR, "m_start", "40"),
    ("experiment", _THR, "m_step", "10"),
    ("experiment", ["--task", "threshold", "--trials", "3"], "m_max", "60"),
    ("experiment", _THR, "seed", "7"),
    ("experiment", _THR, "gt_mode", "fixed"),
    ("experiment", _THR, "out_dir", "elsewhere"),
    ("bound", ["--vc-dim", "2", "--m", "5"], "kind", "vc"),
    ("bound", ["--m", "5"], "h_size", "59049"),
    ("bound", ["--m", "5"], "log_h_size", "23.5"),
    ("bound", ["--kind", "vc", "--m", "5"], "vc_dim", "3"),
    ("bound", ["--m", "5"], "slots", "7"),
    ("bound", [], "m", "5,9"),
    ("bound", ["--m", "5"], "out_dir", "elsewhere"),
]


class TestConfigHandling:
    def test_flat_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ntask=threshold\ntrials=10\nm_start=20\nm_step=20\nm_max=40\nseed=5\n")
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == {
            "task": "threshold", "vc_dim": 1, "slots": 100, "trials": 10,
            "m_start": 20, "m_step": 20, "m_max": 40, "seed": 5, "gt_mode": "per-trial",
        }

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        for line in ("bogus=1\n", "workers=2\n", "m-start=40\n"):
            cfg.write_text(line)
            for command in ("experiment", "bound"):
                assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
                assert str(cfg) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "bound"])
    def test_abbreviated_or_nested_key_rejected(self, tmp_path, command):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        other = tmp_path / "other.cfg"
        other.write_text("slots=3\n")
        assert main([command, "--slot", "3", "--out-dir", str(out)]) == 1
        for text in ("slot=3\n", f"config={other}\n", json.dumps({"config": str(other)})):
            cfg.write_text(text)
            assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("experiment", "gt_mode", "bogus"),
            ("experiment", "task", "nonsense"),
            ("experiment", "n", "abc"),
            ("bound", "kind", "nonsense"),
        ],
    )
    def test_bad_config_value_gets_flag_message(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "out"
        assert main([command, f"--{key.replace('_', '-')}", value, "--out-dir", str(out)]) == 1
        flag_err = capsys.readouterr().err
        assert flag_err.startswith("paclab: error: argument --")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == flag_err.replace("error: ", f"error: {cfg}: ", 1)
        assert not out.exists()

    def test_bad_m_list_says_integers_expected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bound", "--m", "5,x", "--out-dir", str(out)]) == 1
        flag_err = capsys.readouterr().err
        assert flag_err == "paclab: error: argument --m: expected comma-separated integers, got '5,x'\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=5,x\n")
        assert main(["bound", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == flag_err.replace("error: ", f"error: {cfg}: ", 1)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line",
        [
            ("experiment", "h_size=100"),
            ("experiment", "kind=vc"),
            ("experiment", "m=10,20"),
            ("bound", "trials=5"),
            ("bound", "task=threshold"),
            ("bound", "seed=3"),
        ],
    )
    def test_key_of_other_subcommand_rejected(self, tmp_path, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "task, flag, line",
        [("threshold", ["--n", "5"], "n=5"), ("conjunction", ["--vc-dim", "3"], "vc_dim=3")],
    )
    def test_key_of_other_task_rejected(self, tmp_path, capsys, task, flag, line):
        out = tmp_path / "out"
        common = ["experiment", "--trials", "3", "--m-max", "40", "--out-dir", str(out)]
        assert main(common + ["--task", task] + flag) == 1
        assert f"{task} task" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"task={task}\n{line}\n")
        assert main(common + ["--config", str(cfg)]) == 1
        assert f"{task} task" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_of_other_subcommand_rejected(self, tmp_path, capsys):
        cmd_bound("finite-h", [22], tmp_path / "bound", h_size=1e9)
        cmd_experiment(small_config(), tmp_path / "experiment")
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(tmp_path / "bound" / "manifest.json"), "--out-dir", str(out)]) == 1
        assert "'bound' run" in capsys.readouterr().err
        assert main(["bound", "--config", str(tmp_path / "experiment" / "manifest.json"), "--out-dir", str(out)]) == 1
        assert "'experiment' run" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, base, key, value", PARITY_CASES, ids=[f"{c[0]}-{c[2]}" for c in PARITY_CASES])
    def test_config_line_matches_flag(self, tmp_path, command, base, key, value):
        flag_out, file_out = tmp_path / "flag", tmp_path / "file"
        flag = [f"--{key.replace('_', '-')}", value]
        assert flag[0] not in base  # a flag would override the config line
        cfg = tmp_path / "run.cfg"
        if key == "out_dir":
            flag_out = tmp_path / value
            cfg.write_text(f"out_dir={file_out}\n")
            assert main([command, *base, *flag[:1], str(flag_out)]) == 0
            assert main([command, *base, "--config", str(cfg)]) == 0
        else:
            cfg.write_text(f"{key}={value}\n")
            assert main([command, *base, *flag, "--out-dir", str(flag_out)]) == 0
            assert main([command, *base, "--config", str(cfg), "--out-dir", str(file_out)]) == 0
        names = json.loads((flag_out / "manifest.json").read_text())["outputs"].values()
        for name in names:
            assert (flag_out / name).read_bytes() == (file_out / name).read_bytes(), name

    def test_parity_cases_cover_every_flag(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for command in ("experiment", "bound"):
            dests = {a.dest for a in subparsers[command]._actions if a.option_strings and a.dest not in ("help", "config")}
            assert dests == {key for c, _, key, _ in PARITY_CASES if c == command}

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=threshold\ntrials=10\nm_start=20\nm_step=20\nm_max=40\nseed=5\n")
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg), "--trials", "7", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 7
        assert manifest["config"]["seed"] == 5

    def test_environment_does_not_change_the_seed(self, tmp_path, monkeypatch):
        # Only --seed or a config's seed key sets the seed: a pinned configuration gives the same bytes anywhere.
        argv = ["experiment", "--task", "threshold", "--trials", "5", "--m-max", "40", "--out-dir"]
        monkeypatch.delenv("PACLAB_SEED", raising=False)
        assert main([*argv, str(tmp_path / "unset")]) == 0
        monkeypatch.setenv("PACLAB_SEED", "777")
        assert main([*argv, str(tmp_path / "set")]) == 0
        assert json.loads((tmp_path / "set" / "manifest.json").read_text())["config"]["seed"] == 2024
        for name in ("distributions.csv", "curve.csv", "manifest.json"):
            assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes(), name

    @pytest.mark.parametrize("seed, rc", [(-1, 1), (2**64, 1), (2**64 + 5, 1), (0, 0), (2**64 - 1, 0)])
    def test_seed_outside_64_bits_is_rejected(self, tmp_path, capsys, seed, rc):
        # The trial seeds take the master seed mod 2**64: -1 would run the trials of 2**64 - 1.
        out = tmp_path / "out"
        argv = ["experiment", "--task", "threshold", "--trials", "2", "--m-max", "40", "--seed", str(seed)]
        assert main([*argv, "--out-dir", str(out)]) == rc
        if rc:
            message = f"paclab: error: master seed must be an int from 0 to 2**64 - 1, got {seed}"
            assert capsys.readouterr().err.splitlines() == [message]
            assert not out.exists()
        else:
            assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == seed

    @pytest.mark.parametrize("text", [b"trials=5\nseed=\xff\n", b'{"trials": 5, "seed": "\xff"}'], ids=["flat", "json"])
    @pytest.mark.parametrize("command", ["experiment", "bound"])
    def test_config_that_is_not_utf8_names_itself(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"paclab: error: {cfg}: ") and "invalid start byte" in err
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_unwritable_out_dir_is_io_failure(self, tmp_path, capsys):
        # The directory is made after the compute, so this is found last.
        blocker = tmp_path / "file"
        blocker.write_text("x")
        for argv in (["experiment", "--task", "threshold", "--trials", "3", "--m-max", "40"], ["bound", "--m", "22"]):
            assert main([*argv, "--out-dir", str(blocker / "sub")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("paclab: i/o error:") and "Traceback" not in err
        assert blocker.read_text() == "x"

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["experiment", "--task", "threshold", "--trials", "3", "--m-max", "80"], "run_trials"),
            (["bound", "--m", "22,35,100"], "discretize_bound"),
        ],
        ids=["experiment", "bound"],
    )
    def test_failed_run_leaves_no_directory(self, tmp_path, monkeypatch, capsys, argv, target):
        real, calls = getattr(paclab.cli, target), []

        def third_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise ValueError("third call failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(paclab.cli, target, third_call_fails)
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert len(calls) == 3
        assert capsys.readouterr().err == "paclab: error: third call failed\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "task, name, fake",
        [
            ("threshold", "_state_view", lambda real: lambda bit_generator: np.zeros(4, np.uint64)),
            ("conjunction", "_word_order", lambda real: lambda reading, words: real(reading + 1, words)),
        ],
        ids=["state-view", "word-order"],
    )
    def test_numpy_mismatch_exits_3_in_one_line(self, tmp_path, monkeypatch, capsys, task, name, fake):
        # The engine's once-per-range checks find this NumPy's PCG64 struct read in neither known order.
        monkeypatch.setattr(paclab.empirics, name, fake(getattr(paclab.empirics, name)))
        out = tmp_path / "out"
        assert main(["experiment", "--task", task, "--trials", "5", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("paclab: error: ") and err.count("\n") == 1 and f"NumPy {np.__version__}" in err
        assert not out.exists()

    def test_malformed_csv_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("definitely,not,the,right,schema\n1,2,3,4,5\n")
        assert main(["kl", str(bad), str(bad)]) == 1

    def test_short_csv_row_is_config_error(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("m,source,slot_index,slot_lo,slot_hi,mass\n1,P,0\n")
        assert main(["kl", str(short), str(short)]) == 1


def int_flags():
    """(command, flag) for every int-typed flag of every subcommand, and bound's list-valued --m."""
    parser = build_parser()
    commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices
    flags = [(name, action.option_strings[0]) for name, sub in commands.items() for action in sub._actions
             if action.type is int]
    return [*flags, ("bound", "--m")]


@pytest.mark.parametrize("command, flag", int_flags(), ids=lambda arg: arg.strip("-"))
@pytest.mark.parametrize("value", [0, -1, 2**63, 10**400], ids=["zero", "minus-one", "two-to-63", "ten-to-400"])
def test_int_flag_at_the_extremes_exits_cleanly(tmp_path, capsys, command, flag, value):
    # A run small enough to finish fast if the value is accepted; the flag under test comes last and wins.
    out, dist = tmp_path / "out", tmp_path / "d.csv"
    write_single_dist_csv(dist, [0.5, 0.5], m=1)
    argv = {
        "experiment": ["--task", "conjunction" if flag == "--n" else "threshold", "--trials", "2", "--slots", "2",
                       "--m-start", "1", "--m-step", "1", "--m-max", "2", "--out-dir", str(out)],
        "bound": ["--kind", "vc", "--vc-dim", "1", "--slots", "2", "--m", "1", "--out-dir", str(out)],
        "kl": [str(dist), str(dist)],
    }[command]
    rc = main([command, *argv, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert rc in (0, 1, 2)
    assert "Traceback" not in captured.out + captured.err
    assert rc == 0 or not out.exists()


def default_config(task, **overrides):
    """The CLI's default experiment for ``task``, with overrides."""
    m_start = 25 if isinstance(task, ConjunctionTask) else 20
    fields = dict(task=task, num_slots=100, trials=1000, m_start=m_start, m_step=m_start, m_max=50 * m_start, master_seed=2024)
    return ExperimentConfig(**(fields | overrides))


# Prints a split run's size estimate, the growth of the process's peak RSS
# over a one-process warm-up run that paid the one-off costs (library pages,
# BLAS buffers), and each worker's peak RSS growth from its first range on,
# which the worker writes to a file; argv[1] is the output directory.
RSS_SCRIPT = """
import dataclasses, json, os, resource, sys
from pathlib import Path
import paclab.cli as cli
import paclab.empirics as empirics
from paclab.empirics import ExperimentConfig
from paclab.learners import ConjunctionTask, ThresholdTask
out = Path(sys.argv[1])
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
parent, starts, range_losses = os.getpid(), {{}}, empirics._range_losses
def measured_range_losses(*args):
    start = starts.setdefault(os.getpid(), peak())
    losses = range_losses(*args)
    if os.getpid() != parent:
        (out / f"worker-{{os.getpid()}}.rss").write_text(str(peak() - start))
    return losses
empirics._range_losses = measured_range_losses
config = ExperimentConfig(
    task={task!r}, num_slots=50, trials=20000, m_start=1250, m_step=1, m_max=1250, master_seed=4242
)
empirics._usable_cpus = lambda: 1
cli.cmd_experiment(dataclasses.replace(config, trials=200), out)
empirics._usable_cpus = lambda: 2
before = peak()
cli.cmd_experiment(config, out)
workers = [int(path.read_text()) for path in out.glob("worker-*.rss")]
print(json.dumps({{"estimate": cli._experiment_bytes(config), "parent": peak() - before, "workers": workers}}))
"""


# The same for a split bound over the wide-io sample sizes: the growth of
# the process's peak RSS over a one-process warm-up run, and the grid
# worker's peak RSS growth from its first block on; argv[1] is the output directory.
BOUND_RSS_SCRIPT = """
import json, os, resource, sys
from pathlib import Path
import paclab.boundgrid as boundgrid
import paclab.cli as cli
import paclab.empirics as empirics
out = Path(sys.argv[1])
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
parent, starts, split_blocks = os.getpid(), {}, boundgrid.split_blocks
def measured_split_blocks(block, items, item_rows):
    def measured_block(item):
        start = starts.setdefault(os.getpid(), peak())
        text = block(item)
        if os.getpid() != parent:
            (out / f"worker-{os.getpid()}.rss").write_text(str(peak() - start))
        return text
    return split_blocks(measured_block, items, item_rows)
boundgrid.split_blocks = measured_split_blocks
m_list = list(range(20, 1001, 20))
empirics._usable_cpus = lambda: 1
cli.cmd_bound("vc", m_list, out, vc_dim=1, slots=50)
empirics._usable_cpus = lambda: 2
before = peak()
cli.cmd_bound("vc", m_list, out, vc_dim=1, slots=50)
workers = [int(path.read_text()) for path in out.glob("worker-*.rss")]
print(json.dumps({"estimate": cli._bound_bytes(len(m_list), 50), "parent": peak() - before, "workers": workers}))
"""


class TestSizeBudget:
    @pytest.mark.parametrize(
        "config",
        [
            default_config(ConjunctionTask(10)),
            default_config(ThresholdTask()),
            default_config(ThresholdTask(), trials=20, num_slots=2000),
        ],
        ids=["conj-default", "thr-default", "wide-io"],
    )
    def test_default_runs_fit(self, config):
        assert paclab.cli._experiment_bytes(config) < paclab.cli.SIZE_BUDGET_BYTES
        assert paclab.cli._bound_bytes(50, config.num_slots) < paclab.cli.SIZE_BUDGET_BYTES

    @pytest.mark.parametrize(
        "overrides",
        [dict(num_slots=100_000_000), dict(trials=100_000_000), dict(m_max=10**12), dict(n=10**8)],
        ids=["slots", "trials", "m-max", "variables"],
    )
    def test_huge_runs_exceed_budget(self, overrides):
        config = default_config(ConjunctionTask(overrides.pop("n", 10)), **overrides)
        assert paclab.cli._experiment_bytes(config) > paclab.cli.SIZE_BUDGET_BYTES

    def test_estimate_does_not_depend_on_the_cpu_count(self, monkeypatch):
        # It counts draw buffers for the most processes the engine runs, so a
        # configuration fits the budget on every machine or on none.
        estimates = []
        for cpus in (1, 2):
            monkeypatch.setattr(paclab.empirics, "_usable_cpus", lambda: cpus)
            estimates.append(paclab.cli._experiment_bytes(default_config(ConjunctionTask(10))))
        assert estimates[0] == estimates[1]

    def test_huge_bound_exceeds_budget(self):
        assert paclab.cli._bound_bytes(3, 100_000_000) > paclab.cli.SIZE_BUDGET_BYTES
        assert paclab.cli._bound_bytes(10**7, 100) > paclab.cli.SIZE_BUDGET_BYTES

    @pytest.mark.parametrize("task", [ConjunctionTask(3), ThresholdTask()], ids=["conjunction", "threshold"])
    def test_estimate_covers_written_bytes(self, tmp_path, task):
        config = small_config(task=task, num_slots=50)
        cmd_experiment(config, tmp_path)
        written = sum(path.stat().st_size for path in tmp_path.iterdir())
        assert paclab.cli._experiment_bytes(config) >= written
        cmd_bound("vc", [5, 50, 500], tmp_path / "bound", vc_dim=1, slots=50)
        written = sum(path.stat().st_size for path in (tmp_path / "bound").iterdir())
        assert paclab.cli._bound_bytes(3, 50) >= written
        # Peak memory of a split run, in a fresh interpreter: the growth of the
        # parent's peak RSS plus that of its worker's.
        script = RSS_SCRIPT.format(task=task)
        env = dict(os.environ, PYTHONPATH=str(Path(paclab.cli.__file__).parents[1]))
        argv = [sys.executable, "-c", script, str(tmp_path / "rss")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert len(result["workers"]) <= 1, result  # a worker that claimed no range wrote none
        assert result["estimate"] >= result["parent"] + sum(result["workers"]), result

    def test_estimate_covers_a_split_bound(self, tmp_path):
        # Peak memory of a bound whose grid is split, in a fresh interpreter:
        # the growth of the parent's peak RSS plus that of its grid worker's.
        env = dict(os.environ, PYTHONPATH=str(Path(paclab.cli.__file__).parents[1]))
        argv = [sys.executable, "-c", BOUND_RSS_SCRIPT, str(tmp_path)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert len(result["workers"]) == 1, result
        assert result["estimate"] >= result["parent"] + sum(result["workers"]), result

    def test_estimate_counts_the_schedule_loss_buffer(self, tmp_path, monkeypatch, capsys):
        # Every loss of the schedule is held at once: 8 bytes for each of a
        # million trials at 300 sample sizes is over the budget by itself.
        config = default_config(ConjunctionTask(10), trials=1_000_000, m_start=1, m_step=1, m_max=300)
        buffer = 8 * config.trials * len(config.schedule())
        assert buffer > paclab.cli.SIZE_BUDGET_BYTES > paclab.cli._experiment_bytes(config) - buffer
        assert paclab.cli._experiment_bytes(config) > paclab.cli.SIZE_BUDGET_BYTES

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(paclab.cli, "schedule_losses", no_trials)
        out = tmp_path / "out"
        argv = ["experiment", "--trials", "1000000", "--m-start", "1", "--m-step", "1", "--m-max", "300"]
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(paclab.cli, "run_trials", no_trials)
        monkeypatch.setattr(paclab.cli, "SIZE_BUDGET_BYTES", 1 << 20)
        out = tmp_path / "out"
        assert main(["experiment", "--task", "threshold", "--slots", "5000", "--out-dir", str(out)]) == 1
        assert "budget" in capsys.readouterr().err
        assert main(["bound", "--m", "5,9", "--slots", "5000", "--out-dir", str(out)]) == 1
        assert "budget" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "vc", "--vc-dim", "1", "--h-size", "5"],
            ["--kind", "vc", "--vc-dim", "1", "--log-h-size", "5"],
            ["--kind", "finite-h", "--vc-dim", "3"],
        ],
    )
    def test_key_of_other_kind_rejected(self, tmp_path, capsys, flags):
        kind = flags[1]
        out = tmp_path / "out"
        assert main(["bound", *flags, "--out-dir", str(out)]) == 1
        assert f"{kind} bound" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{flag[2:].replace('-', '_')}={value}\n" for flag, value in zip(flags[::2], flags[1::2])))
        assert main(["bound", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"{kind} bound" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--kind", "vc"], ["--h-size", "0.5"], ["--m", "0"], ["--m", "22,0"], ["--slots", "1"]],
        ids=["vc-without-dim", "h-size-below-one", "m-zero", "m-zero-last", "one-slot"],
    )
    def test_bad_parameter_leaves_no_directory(self, tmp_path, flags):
        out = tmp_path / "out"
        assert main(["bound", *flags, "--out-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--h-size", "nan"], "finite-H bound needs ln|H| >= 0 (|H| >= 1)"),
            (["--h-size", "inf"], "finite-H bound needs ln|H| >= 0 (|H| >= 1)"),
            (["--log-h-size", "-1"], "finite-H bound needs ln|H| >= 0 (|H| >= 1)"),
            (["--log-h-size", "nan"], "finite-H bound needs ln|H| >= 0 (|H| >= 1)"),
            (["--h-size", "0.5"], "|H| must be >= 1, got 0.5"),
            (["--m", "0"], "sample size m must be a positive integer, got 0"),
            (["--m", "0", "--h-size", "nan"], "sample size m must be a positive integer, got 0"),
            (["--kind", "vc", "--vc-dim", "0"], "VC dimension must be a positive integer, got 0"),
            (["--kind", "vc", "--vc-dim", "1", "--m", "0"], "sample size m must be a positive integer, got 0"),
            # finite_vc checks d before it computes ln W, so of two bad values d is named first.
            (["--kind", "vc", "--vc-dim", "0", "--m", "0"], "VC dimension must be a positive integer, got 0"),
            (["--slots", "0"], "need at least 2 slots"),
            (["--slots", "1"], "need at least 2 slots"),
        ],
        ids=["h-nan", "h-inf", "log-h-negative", "log-h-nan", "h-below-one", "m-zero", "m-zero-h-nan", "vc-dim-zero",
             "vc-m-zero", "vc-dim-zero-m-zero", "slots-zero", "slots-one"],
    )
    def test_bound_parameter_messages(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["bound", *flags, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"paclab: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["vc", "finite-h"])
    def test_repeated_sample_size_is_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, kind):
        # kl rejects a group written twice, so bound must not write one.
        def no_work(*args):
            raise AssertionError("bound tabulated a repeated m")

        monkeypatch.setattr(paclab.boundgrid, "bound_cdf", no_work)
        out = tmp_path / "out"
        assert main(["bound", "--kind", kind, "--vc-dim" if kind == "vc" else "--h-size", "3", "--m", "5,7,5",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "paclab: error: sample sizes must not repeat, got [5, 7, 5]\n"
        assert not out.exists()

    def test_vc_dim_above_the_sample_sizes(self, tmp_path):
        assert main(["bound", "--kind", "vc", "--vc-dim", "10", "--m", "1,2,5,10", "--out-dir", str(tmp_path)]) == 0
        summary = (tmp_path / "bound_summary.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in summary] == [m * math.log(2.0) / m for m in (1, 2, 5, 10)]  # W = 2**m

    def test_huge_h_via_log(self, tmp_path):
        cmd_bound("finite-h", [10], tmp_path, log_h_size=700 * math.log(3.0))
        groups = read_distributions_csv(tmp_path / "bound_q.csv")
        assert groups[(10, "Q")].masses[-1] == 1.0


# The per-row formatters the writer replaced: every cell through %d/%.17g.
def reference_distribution_lines(m, source, masses, num_slots):
    return "".join(
        f"{m},{source},{i},{i / num_slots:.17g},{(i + 1) / num_slots:.17g},{mass:.17g}\n" for i, mass in enumerate(masses)
    )


def reference_grid_lines(spec):
    grid = np.linspace(0.0, 1.1, 1000).tolist()
    return "".join("%d,%.17g,%.17g,%.17g\n" % (spec.m, eps, bound_cdf(spec, eps), bound_density(spec, eps)) for eps in grid)


def one_mass(num_slots, slot):
    return tuple(1.0 if i == slot else 0.0 for i in range(num_slots))


class TestWriterMatchesPerRowFormatting:
    """The writer skips formatting for a mass of +0.0 and a CDF of 1.0; its
    bytes must still be those of formatting every cell."""

    @pytest.mark.parametrize(
        "masses",
        [
            (-0.0, 5e-324, 1.0, 0.0),
            (0.1 + 0.2, 0.0, 0.7, -0.0),
            (0.25, 0.75),
            (1.0, 0.0),
            (0.0, 1.0),
            one_mass(2000, 0),
            one_mass(2000, 1234),
            one_mass(2000, 1999),
            histogram(np.random.default_rng(7).random(20), 2000).masses,
            discretize_bound(BoundSpec.finite_vc(m=1000, vc_dim=1), 2000).masses,
            discretize_bound(BoundSpec.finite_h(m=1250, log_h_size=10 * math.log(3.0)), 2000).masses,
        ],
        ids=["signed-zero-subnormal-one", "inexact-sum", "two-slots", "two-slots-first", "two-slots-last",
             "one-of-2000-first", "one-of-2000", "one-of-2000-last", "histogram-2000", "vc-bound-2000", "finite-h-2000"],
    )
    def test_distribution_group(self, masses):
        dist = DiscreteDistribution(masses)
        for m, source in [(7, "P"), (1000, "Q")]:
            got = paclab.cli._distribution_lines(m, source, dist, *paclab.cli._slot_cells(len(masses)))
            assert got == reference_distribution_lines(m, source, masses, len(masses))

    @pytest.mark.parametrize(
        "kind, m, params",
        [
            ("finite-h", 22, {"h_size": 1e9}),
            ("finite-h", 1, {"h_size": 1.0}),
            ("finite-h", 2 * 10**18, {"log_h_size": 1e18}),
            ("vc", 20, {"vc_dim": 1}),
            ("vc", 1000, {"vc_dim": 1}),
            ("vc", 10**6, {"vc_dim": 3}),
        ],
        ids=["finite-h-22", "finite-h-m1", "finite-h-extreme", "vc-20", "vc-1000", "vc-million"],
    )
    def test_grid_and_q_rows(self, tmp_path, kind, m, params):
        # Every grid holds rows with CDF 1.0 and density 0.0 past eps = 1.
        cmd_bound(kind, [m], tmp_path, slots=2000, **params)
        spec = BoundSpec.finite_h(m=m, **params) if kind == "finite-h" else BoundSpec.finite_vc(m=m, **params)
        grid = reference_grid_lines(spec)
        assert ",1,0\n" in grid
        assert (tmp_path / "bound_grid.csv").read_text() == "m,eps,cdf,density\n" + grid
        q = reference_distribution_lines(spec.m, "Q", discretize_bound(spec, 2000).masses, 2000)
        assert (tmp_path / "bound_q.csv").read_text() == ",".join(DISTRIBUTIONS_HEADER) + "\n" + q

    def test_experiment_files(self, tmp_path):
        config = small_config(task=ThresholdTask(), num_slots=300)
        cmd_experiment(config, tmp_path)
        want = [",".join(DISTRIBUTIONS_HEADER) + "\n"]
        for m, p, q in run_experiment(config):
            want.append(reference_distribution_lines(m, "P", p.masses, 300))
            want.append(reference_distribution_lines(m, "Q", q.masses, 300))
        assert (tmp_path / "distributions.csv").read_text() == "".join(want)
        assert not list(tmp_path.glob("*.tmp"))


DIST_ROWS = [
    # m, source, slot_index, slot_lo, slot_hi, mass
    ("7", "P", "0", "0", "0.5", "0.25"),
    ("7", "P", "1", "0.5", "1", "0.75"),
    ("7", "Q", "0", "0", "0.5", "0.5"),
    ("7", "Q", "1", "0.5", "1", "0.5"),
]
DIST_GROUPS = {
    (7, "P"): DiscreteDistribution((0.25, 0.75)),
    (7, "Q"): DiscreteDistribution((0.5, 0.5)),
}


def dist_text(header=tuple(DISTRIBUTIONS_HEADER), rows=DIST_ROWS, newline="\n"):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return newline.join(lines) + newline


MALFORMED_FILES = [
    (dist_text(rows=[*DIST_ROWS, ("7", "P", "0")]), "malformed distribution row"),
    (dist_text(DISTRIBUTIONS_HEADER[:-1], [row[:-1] for row in DIST_ROWS]), "expected columns"),
    (dist_text(rows=[*DIST_ROWS[:-1], ("7", "Q", "1", "0.5", "1", "half")]), "malformed distribution row"),
    (dist_text(rows=[*DIST_ROWS[:-1], ("7", "Q", "one", "0.5", "1", "0.5")]), "malformed distribution row"),
    (dist_text(rows=[*DIST_ROWS, DIST_ROWS[1]]), "duplicate slot 1 in group (7, 'P')"),
    (dist_text(rows=[*DIST_ROWS, ("7", "P", "1", "0.5", "1", "0.5")]), "duplicate slot 1 in group (7, 'P')"),
    (dist_text(rows=[*DIST_ROWS, ("7", "P", "1", "0.5", "1", "0" * 200_000)]), "malformed distribution row"),
    (dist_text(rows=[*DIST_ROWS[:-1], ("7", "Q", "2", "0.5", "1", "0.5")]), "group (7, 'Q') has non-contiguous slot indices"),
    (dist_text(rows=[*DIST_ROWS[:-1], ("7", "Q", "-1", "0.5", "1", "0.5")]), "group (7, 'Q') has non-contiguous slot indices"),
    # Groups whose rows interleave: the first repeat in file order is named.
    (dist_text(rows=[DIST_ROWS[2], DIST_ROWS[0], DIST_ROWS[3], DIST_ROWS[1], DIST_ROWS[2], DIST_ROWS[0]]),
     "duplicate slot 0 in group (7, 'Q')"),
    (dist_text(rows=[DIST_ROWS[0], DIST_ROWS[2], DIST_ROWS[1], DIST_ROWS[0], DIST_ROWS[3], DIST_ROWS[3]]),
     "duplicate slot 0 in group (7, 'P')"),
    # Of several faults, a repeat comes first, then a slot outside 0..l-1, then a bad mass.
    (dist_text(rows=[DIST_ROWS[0], ("7", "P", "2", "0.5", "1", "0.75"), DIST_ROWS[2], DIST_ROWS[2]]),
     "duplicate slot 0 in group (7, 'Q')"),
    (dist_text(rows=[(*DIST_ROWS[0][:5], "nan"), DIST_ROWS[1], DIST_ROWS[2], ("7", "Q", "2", "0.5", "1", "0.5")]),
     "group (7, 'Q') has non-contiguous slot indices"),
    # Python's int() takes these; the int64 reader does not.
    (dist_text(rows=[(str(2**63), *row[1:]) for row in DIST_ROWS]), "malformed distribution row"),
    (dist_text(rows=[("1_000", *row[1:]) for row in DIST_ROWS]), "malformed distribution row"),
    (dist_text(rows=[("7", "P", "1_0", *DIST_ROWS[0][3:]), *DIST_ROWS[1:]]), "malformed distribution row"),
]
MALFORMED_IDS = ["short-row", "missing-column", "non-numeric-mass", "non-numeric-index", "duplicate-row",
                 "conflicting-row", "oversized-cell", "slot-gap", "negative-slot", "interleaved-repeat",
                 "interleaved-repeat-later-group", "repeat-after-slot-gap", "slot-gap-after-bad-mass", "m-above-int64",
                 "underscored-m", "underscored-slot"]


class TestReadDistributionsCsv:
    @pytest.mark.parametrize(
        "text",
        [
            dist_text(),
            dist_text(DISTRIBUTIONS_HEADER[::-1], [row[::-1] for row in DIST_ROWS]),
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, "x") for row in DIST_ROWS]),
            dist_text(newline="\r\n"),
            dist_text().replace("\n7,Q", "\n\n7,Q") + "\n",
            dist_text().replace(",0.75", ',"0.75"').replace(",P,", ',"P",'),
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, "#x") for row in DIST_ROWS]),
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, '"a,""b"""') for row in DIST_ROWS]),
            dist_text(rows=[(*row, "x", "y") for row in DIST_ROWS]),
            dist_text((*DISTRIBUTIONS_HEADER, '"no\nte"'), [(*row, "x") for row in DIST_ROWS]),
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, '"a\nb"') for row in DIST_ROWS]),
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, '"a\r\nb"') for row in DIST_ROWS], newline="\r\n"),
            # The quote opens on one line and closes on the next, whose text reads like a row.
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*DIST_ROWS[0], '"x'), ("9", "Z", "0", "0", "0.5", '1"'),
                                                         *[(*row, "y") for row in DIST_ROWS[1:]]]),
            dist_text(newline="\r"),
        ],
        ids=["plain", "reordered", "extra-column", "crlf", "blank-lines", "quoted-cells", "hash-in-cell",
             "quoted-comma-and-quote", "more-cells-than-header", "quoted-newline-in-header",
             "quoted-newline-in-extra-column", "quoted-crlf-in-extra-column", "quoted-cell-spanning-into-a-row",
             "cr-line-ends"],
    )
    def test_layouts_read_to_same_masses(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert read_distributions_csv(path) == DIST_GROUPS

    @pytest.mark.parametrize("text, message", MALFORMED_FILES, ids=MALFORMED_IDS)
    def test_malformed_file_exits_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert main(["kl", str(path), str(path), "--m", "7"]) == 1
        assert capsys.readouterr().err.startswith(f"paclab: error: {path}: {message}")

    @staticmethod
    def hundred_groups(path, order=None):
        """100 (m, source) groups of 1,000 slots each, one run per group, or their rows in ``order``."""
        rows = [f"{g // 2 + 1},{'PQ'[g % 2]},{i},0,1,{(i + g) % 2 / 500}\n" for g in range(100) for i in range(1000)]
        rows = rows if order is None else [rows[i] for i in order]
        path.write_text(",".join(DISTRIBUTIONS_HEADER) + "\n" + "".join(rows))

    @staticmethod
    def traced_peak(path):
        """The peak of memory traced while ``path`` is read a second time, and its group count."""
        read_distributions_csv(path)  # NumPy's one-off allocations are not the reader's
        tracemalloc.start()
        try:
            groups = read_distributions_csv(path)
            return tracemalloc.get_traced_memory()[1], len(groups)
        finally:
            tracemalloc.stop()

    def test_contiguous_groups_read_in_at_most_24_bytes_a_row(self, tmp_path):
        # Each group keeps a copy of its slots (2 bytes a row here) and masses (8) until
        # the end of the file, and its built masses take 8; a parsed block of 2**14 rows is freed when copied.
        path = tmp_path / "d.csv"
        self.hundred_groups(path)
        peak, count = self.traced_peak(path)
        assert count == 100
        assert peak <= 24 * 100_000

    def test_shuffled_rows_read_in_at_most_40_bytes_a_row(self, tmp_path):
        # A gathered row also keeps its place in its block (2 bytes), and a block of thousands
        # of runs makes a key only for each run that starts a group.
        path = tmp_path / "d.csv"
        self.hundred_groups(path, np.random.default_rng(5).permutation(100_000))
        peak, count = self.traced_peak(path)
        assert count == 100
        assert peak <= 40 * 100_000

    def test_shuffled_rows_read_to_the_same_groups(self, tmp_path):
        # Every group comes back in many runs, in any order: its rows are gathered by index.
        ordered, shuffled = tmp_path / "d.csv", tmp_path / "shuffled.csv"
        self.hundred_groups(ordered)
        self.hundred_groups(shuffled, np.random.default_rng(5).permutation(100_000))
        expected = read_distributions_csv(ordered)
        assert read_distributions_csv(shuffled) == expected
        assert expected[(50, "Q")].masses.tolist() == [(i + 99) % 2 / 500 for i in range(1000)]

    def test_a_compressed_file_suffix_is_only_a_name(self, tmp_path):
        for name in ("d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.csv.lzma"):
            path = tmp_path / name
            path.write_text(dist_text())
            assert read_distributions_csv(path) == DIST_GROUPS, name

    def test_a_name_that_parses_as_a_url_is_a_path(self, tmp_path, monkeypatch):
        # NumPy would look for "a://b/c" at b/c under the working directory first.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a:" / "b").mkdir(parents=True)
        (tmp_path / "a:" / "b" / "c").write_text(dist_text())
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "c").write_text(dist_text(rows=[(*row[:5], "0.5") for row in DIST_ROWS]))
        assert read_distributions_csv("a://b/c") == DIST_GROUPS

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_once(self, monkeypatch, read_cpus):
        # As `paclab kl <(cat p.csv) <(cat q.csv)` passes it: a second open would find the pipe drained,
        # and a pipe is never split between two CPUs.
        read_cpus(2)
        forks = counted_forks(monkeypatch)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, dist_text().encode())
            os.close(write_end)
            assert read_distributions_csv(f"/dev/fd/{read_end}") == DIST_GROUPS
        finally:
            os.close(read_end)
        assert forks == []

    def test_duplicate_row_in_experiment_output_rejected(self, tmp_path, capsys):
        cmd_experiment(small_config(), tmp_path)
        dist_path = tmp_path / "distributions.csv"
        assert main(["kl", str(dist_path), str(dist_path), "--m", "40"]) == 0
        lines = dist_path.read_text().splitlines(keepends=True)
        dist_path.write_text("".join(lines + lines[5:6]))
        capsys.readouterr()
        assert main(["kl", str(dist_path), str(dist_path), "--m", "40"]) == 1
        assert "duplicate slot 4 in group (20, 'P')" in capsys.readouterr().err

    def test_kl_reads_a_shared_file_once(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_single_dist_csv(a, [0.25, 0.25, 0.5])
        write_single_dist_csv(b, [0.5, 0.25, 0.25], source="Q")
        reads = []

        def spy(path):
            reads.append(Path(path))
            return read_distributions_csv(path)

        monkeypatch.setattr(paclab.cli, "read_distributions_csv", spy)
        assert cmd_kl(a, a) == 0.0
        assert reads == [a]
        reads.clear()
        assert cmd_kl(a, b) == kl_divergence(DiscreteDistribution((0.25, 0.25, 0.5)), DiscreteDistribution((0.5, 0.25, 0.25)))
        assert reads == [a, b]


class TestReaderDialect:
    """The CSV dialect the reader accepts: comments off, double quotes, int64 m and slot."""

    def test_hash_in_a_source_tag_is_data(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(dist_text(rows=[(row[0], f"#{row[1]}", *row[2:]) for row in DIST_ROWS]))
        assert read_distributions_csv(path) == {(m, f"#{source}"): dist for (m, source), dist in DIST_GROUPS.items()}

    def test_header_only_file_exits_1_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text(dist_text(rows=[]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kl", str(path), str(path)]) == 1
        assert capsys.readouterr().err == f"paclab: error: {path}: no distributions found\n"

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([(*DIST_ROWS[0][:5], "nan"), *DIST_ROWS[1:]], "slot masses must be non-negative"),
            ([(*DIST_ROWS[0][:5], "-0.25"), *DIST_ROWS[1:]], "slot masses must be non-negative"),
            ([(*DIST_ROWS[0][:5], "inf"), *DIST_ROWS[1:]], "slot masses must sum to 1 (got inf)"),
            ([(*DIST_ROWS[0][:5], "1"), *DIST_ROWS[2:]], "need at least 2 slots"),
            ([(*row[:5], "1e308") for row in DIST_ROWS[:2]] + DIST_ROWS[2:], "slot masses must sum to 1 (got inf)"),
        ],
        ids=["nan", "negative", "inf", "one-row", "sum-past-the-largest-float"],
    )
    def test_bad_group_exits_1_naming_file_and_group(self, tmp_path, capsys, rows, error):
        path = tmp_path / "d.csv"
        path.write_text(dist_text(rows=rows))
        assert main(["kl", str(path), str(path), "--m", "7"]) == 1
        assert capsys.readouterr().err == f"paclab: error: {path}: group (7, 'P'): {error}\n"

    def test_experiment_output_equals_a_dict_reader_rebuild(self, tmp_path):
        cmd_experiment(small_config(ConjunctionTask(10), m_start=25, m_step=25, m_max=100), tmp_path)
        path = tmp_path / "distributions.csv"
        rebuilt: dict = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rebuilt.setdefault((int(row["m"]), row["source"]), {})[int(row["slot_index"])] = float(row["mass"])
        groups = read_distributions_csv(path)
        assert list(groups) == list(rebuilt) and len(groups) == 8
        for key, slots in rebuilt.items():
            assert groups[key].masses.tolist() == [slots[i] for i in range(len(slots))], key

    def test_both_readers_share_one_parser(self, tmp_path, monkeypatch):
        # kl reads its P and its Q file through the one parser, and one file named twice once.
        cmd_experiment(small_config(), tmp_path)
        calls = []
        original = paclab.distcsv._read_pieces

        def spy(path):
            calls.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(paclab.distcsv, "_read_pieces", spy)
        copy = tmp_path / "copy.csv"
        copy.write_bytes((tmp_path / "distributions.csv").read_bytes())
        assert cmd_kl(tmp_path / "distributions.csv", copy, m=20) == cmd_kl(copy, copy, m=20)
        assert calls == ["distributions.csv", "copy.csv", "copy.csv"]


@pytest.fixture(params=[1, 2, 3, 5])
def small_blocks(request, monkeypatch):
    """The reader's block shrunk to a few rows: 10 rows fill whole blocks of 1, 2 and 5, and not of 3."""
    monkeypatch.setattr(paclab.distcsv, "_BLOCK_ROWS", request.param)
    return request.param


# Two groups of five slots: ten rows, each with a note cell.
FIVE_SLOTS = [("7", source, str(i), "0", "1", "0.2", "x") for source in "PQ" for i in range(5)]
FIVE_GROUPS = {(7, "P"): DiscreteDistribution((0.2,) * 5), (7, "Q"): DiscreteDistribution((0.2,) * 5)}
NOTE_HEADER = (*DISTRIBUTIONS_HEADER, "note")


class TestBlocks:
    """The rows are parsed in blocks of ``_BLOCK_ROWS``: rows, blank lines and faults at a
    block's edge read as they would in one pass, and no NumPy warning escapes."""

    @pytest.mark.parametrize(
        "text",
        [
            dist_text(NOTE_HEADER, FIVE_SLOTS),
            dist_text(NOTE_HEADER, FIVE_SLOTS).replace("\n", "\n\n"),
            dist_text(NOTE_HEADER, [(*row[:6], '"a\n\nb"') for row in FIVE_SLOTS]),
            dist_text(NOTE_HEADER, [row for pair in zip(FIVE_SLOTS[:5], FIVE_SLOTS[5:]) for row in pair]),
            dist_text(NOTE_HEADER, [*FIVE_SLOTS[:3], *FIVE_SLOTS[5:8], *FIVE_SLOTS[3:5], *FIVE_SLOTS[8:]]),
        ],
        ids=["plain", "blank-lines", "quoted-newlines", "interleaved", "two-runs-a-group"],
    )
    def test_rows_across_blocks_read_to_the_same_groups(self, tmp_path, small_blocks, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_distributions_csv(path) == FIVE_GROUPS

    @pytest.mark.parametrize(
        "fault",
        [(*FIVE_SLOTS[8][:5], "half", "x"), ("7", "Q", "3"), ("7", "Q", "three", *FIVE_SLOTS[8][3:])],
        ids=["non-numeric-mass", "short-row", "non-numeric-index"],
    )
    @pytest.mark.parametrize("gap", ["\n", "\n\n"], ids=["packed", "blank-lines"])
    def test_a_fault_past_the_first_block_is_named_as_in_one_pass(self, tmp_path, capsys, small_blocks, fault, gap):
        # The fault is data row 8, after a quoted line break; each NumPy call numbers its rows from 0, skipping blank lines.
        rows = [*FIVE_SLOTS[:7], (*FIVE_SLOTS[7][:6], '"a\nb"'), fault, FIVE_SLOTS[9]]
        text = dist_text(NOTE_HEADER, rows).replace("\n", gap)
        with pytest.raises(ValueError) as one_pass:
            np.loadtxt(text.splitlines(keepends=True)[1:], dtype=paclab.distcsv._DISTRIBUTION_DTYPE, delimiter=",",
                       quotechar='"', comments=None, usecols=[0, 1, 2, 5], ndmin=1)
        path = tmp_path / "d.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kl", str(path), str(path), "--m", "7"]) == 1
        assert capsys.readouterr().err == f"paclab: error: {path}: malformed distribution row ({one_pass.value!r})\n"

    @pytest.mark.parametrize("text, message", MALFORMED_FILES, ids=MALFORMED_IDS)
    def test_malformed_file_exits_1_in_small_blocks(self, tmp_path, capsys, small_blocks, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert main(["kl", str(path), str(path), "--m", "7"]) == 1
        assert capsys.readouterr().err.startswith(f"paclab: error: {path}: {message}")


@pytest.fixture(params=["default", 50])
def field_limit(request):
    """``csv.field_size_limit()`` as it is, or lowered to 50 for the test."""
    old = csv.field_size_limit()
    if request.param != "default":
        csv.field_size_limit(request.param)
    yield csv.field_size_limit()
    csv.field_size_limit(old)


def straddling_text(limit, note):
    """A distributions file whose second row, ending in ``note``, starts 20 bytes before
    byte ``2 * limit``, after blank lines: a row of over 20 bytes crosses that byte."""
    head = dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*DIST_ROWS[0], "x")])
    tail = dist_text((), [(*row, note if i == 0 else "x") for i, row in enumerate(DIST_ROWS[1:])])[1:]
    return head + "\n" * (2 * limit - 20 - len(head)) + tail


class TestFieldSizeLimit:
    """A cell longer than ``csv.field_size_limit()`` is rejected, as ``csv.reader`` would; only a
    line longer than the limit can hold one."""

    def test_cell_over_the_limit_is_rejected(self, tmp_path, capsys, field_limit):
        path = tmp_path / "d.csv"
        path.write_text(dist_text(rows=[*DIST_ROWS[:-1], (*DIST_ROWS[-1][:5], "0" * (field_limit + 10))]))
        assert main(["kl", str(path), str(path), "--m", "7"]) == 1
        message = f"malformed distribution row (Error('field larger than field limit ({field_limit})'))"
        assert capsys.readouterr().err == f"paclab: error: {path}: {message}\n"

    def test_long_line_of_short_cells_is_accepted(self, tmp_path, field_limit):
        path = tmp_path / "d.csv"
        path.write_text(dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, "x," * field_limit) for row in DIST_ROWS]))
        assert read_distributions_csv(path) == DIST_GROUPS

    def test_quoted_cell_over_the_limit_in_short_lines_is_accepted(self, tmp_path, field_limit):
        # Each line is checked on its own, as csv.reader saw it line by line.
        lines = "\n".join(["y" * (field_limit // 2)] * 4)
        path = tmp_path / "d.csv"
        path.write_text(dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, f'"{lines}"') for row in DIST_ROWS]))
        assert read_distributions_csv(path) == DIST_GROUPS

    @pytest.mark.parametrize("limits", [1, 2], ids=["one-limit", "two-limits"])
    def test_oversized_cell_after_blank_lines(self, tmp_path, capsys, field_limit, limits):
        path = tmp_path / "d.csv"
        path.write_text(straddling_text(field_limit, "z" * (limits * field_limit + 1)))
        assert main(["kl", str(path), str(path), "--m", "7"]) == 1
        assert f"field larger than field limit ({field_limit})" in capsys.readouterr().err

    def test_the_first_fault_in_file_order_is_reported(self, tmp_path, capsys, field_limit):
        big = (*DIST_ROWS[1][:5], "0" * (field_limit + 10))
        path = tmp_path / "d.csv"
        path.write_text(dist_text(rows=[*DIST_ROWS, ("7", "P", "0"), big]))
        assert main(["kl", str(path), str(path)]) == 1
        assert "invalid column index 5 at row 5 with 3 columns" in capsys.readouterr().err
        path.write_text(dist_text(rows=[*DIST_ROWS, big, ("7", "P", "0")]))
        assert main(["kl", str(path), str(path)]) == 1
        assert f"field larger than field limit ({field_limit})" in capsys.readouterr().err


class TestByName:
    """Files named to the reader, whatever their line ends, quotes, bytes or line lengths: each is
    read once, line by line, to its groups."""

    def test_experiment_output_and_a_crlf_copy(self, tmp_path):
        cmd_experiment(small_config(), tmp_path)
        path, crlf = tmp_path / "distributions.csv", tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert read_distributions_csv(crlf) == read_distributions_csv(path)
        for row in read_curve(tmp_path / "curve.csv"):
            assert cmd_kl(crlf, crlf, m=row["m"]) == cmd_kl(path, path, m=row["m"]) == row["kl"]

    @pytest.mark.parametrize(
        "text",
        [
            dist_text((*DISTRIBUTIONS_HEADER, '"no\nte"'), [(*row, '"a\nb"') for row in DIST_ROWS]),
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, '"a\nb"') for row in DIST_ROWS], newline="\r\n"),
            dist_text((*DISTRIBUTIONS_HEADER, "note"), [(*row, "\u00e9") for row in DIST_ROWS]),
        ],
        ids=["quoted-newlines", "quote-and-cr", "not-ascii"],
    )
    def test_conditions(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert read_distributions_csv(path) == DIST_GROUPS
        assert cmd_kl(path, path, m=7) == kl_divergence(DIST_GROUPS[7, "P"], DIST_GROUPS[7, "Q"])

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_a_line_of_the_limit_in_bytes_is_read_line_by_line(self, tmp_path, field_limit, end):
        # The first row is limit - 1 or limit bytes before its line end, after ``start`` blank lines.
        path = tmp_path / "d.csv"
        cells = ",".join(DIST_ROWS[0]) + ","
        for start in (0, 1, field_limit // 2, field_limit - 1, field_limit, 2 * field_limit - 1):
            for length in (field_limit - 1, field_limit):
                rows = [(*DIST_ROWS[0], "x" * (length - len(cells))), *[(*row, "y") for row in DIST_ROWS[1:]]]
                head, body = dist_text((*DISTRIBUTIONS_HEADER, "note"), rows, newline=end).split(end, 1)
                path.write_text(head + end * (start + 1) + body, newline="")
                assert read_distributions_csv(path) == DIST_GROUPS, (start, length)


@pytest.fixture
def read_cpus(monkeypatch):
    """Sets the usable CPU count the reader sees, with every regular file large
    enough to split, so two CPUs fork a worker for the back half of its lines."""
    def set_cpus(count):
        monkeypatch.setattr(paclab.empirics, "_usable_cpus", lambda: count)
        monkeypatch.setattr(paclab.distcsv, "_MIN_SPLIT_BYTES", 1)

    return set_cpus


def counted_forks(monkeypatch, refuse=False):
    """The ``os.fork`` calls made from now on, each refused if ``refuse``."""
    fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        if refuse:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def parsed_here(monkeypatch, action=None):
    """The rows of each block this process parses, in turn; a forked
    worker runs ``action`` on each block it parses instead of recording it."""
    original, parent, counts = paclab.distcsv._add_block, os.getpid(), []

    def add_block(groups, start, rows):
        if os.getpid() == parent:
            counts.append(len(rows))
        elif action is not None:
            action()
        return original(groups, start, rows)

    monkeypatch.setattr(paclab.distcsv, "_add_block", add_block)
    return counts


def split_rows():
    """10,000 rows: 40 (m, source) groups of 250 slots, one run per group, m from 1 to 20."""
    return [f"{g // 2 + 1},{'PQ'[g % 2]},{i},0,1,{(i + g) % 2 / 125}\n" for g in range(40) for i in range(250)]


def write_rows(path, rows):
    path.write_bytes((",".join(DISTRIBUTIONS_HEADER) + "\n" + "".join(rows)).encode(errors="surrogateescape"))


def kl_run(capsys, path):
    """The exit code, stdout and stderr of ``paclab kl path path --m 5``."""
    code = main(["kl", str(path), str(path), "--m", "5"])
    return (code, *capsys.readouterr())


def back_half_fault(rows, fault):
    """``rows`` with ``fault`` a few rows before the end, far past the middle of the file."""
    if fault == "duplicate-slots-in-both-halves":
        # Row 4,000 repeats a slot before the middle, and row 7,001 one of row 6,000, past it: one pass names
        # the first.  The worker numbers its rows from the middle, where the second is near row 2,000.
        return [*rows[:4000], rows[0], *rows[4000:7000], rows[6000], *rows[7000:]]
    row = rows[-5]
    faulty = {
        "bad-cell": row.replace(",0,1,", ",0,1,x"),
        "short-row": ",".join(row.split(",")[:3]) + "\n",
        "non-numeric-index": row.replace(",Q,", ",Q,x"),
        "duplicate-slot": row + rows[-10],
        "non-utf-8": row.replace(",0,1,", ",0,1,\udcff"),  # written as the byte 0xFF
    }[fault]
    return [*rows[:-5], faulty, *rows[-4:]]


class TestSplitRead:
    """On two usable CPUs a large regular file is read as two halves, the back one by a
    forked worker; what the reader returns or reports is what one pass gives."""

    def test_the_cut_is_the_first_line_start_past_the_middle(self, tmp_path, read_cpus):
        read_cpus(2)
        path = tmp_path / "d.csv"
        write_rows(path, split_rows())
        data = path.read_bytes()
        with open(path, "rb") as fh:
            offset, lines = paclab.distcsv._cut(fh.fileno())
        assert offset == data.index(b"\n", len(data) // 2) + 1
        assert lines == data[:offset].count(b"\n")

    @pytest.mark.parametrize("layout", ["plain", "shuffled", "blank-lines"])
    def test_one_and_two_cpus_read_the_same_groups(self, tmp_path, capsys, monkeypatch, read_cpus, layout):
        rows = split_rows()
        if layout == "shuffled":
            rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
        elif layout == "blank-lines":
            rows = [row + "\n" * (i % 7 == 0) for i, row in enumerate(rows)]
        path = tmp_path / "d.csv"
        write_rows(path, rows)
        data, read = path.read_bytes(), {}
        front = data[: data.index(b"\n", len(data) // 2) + 1].split(b"\n")[1:]
        for cpus in (1, 2):
            read_cpus(cpus)
            forks, here = counted_forks(monkeypatch), parsed_here(monkeypatch)
            before = sorted(os.listdir("/proc/self/fd"))
            read[cpus] = read_distributions_csv(path), kl_run(capsys, path)
            assert len(forks) == 2 * (cpus - 1)  # kl reads the file again
            assert sum(here) == 2 * (10_000 if cpus == 1 else sum(map(bool, front)))
            assert sorted(os.listdir("/proc/self/fd")) == before
            with pytest.raises(ChildProcessError):  # the worker was reaped
                os.waitpid(-1, os.WNOHANG)
        assert read[1] == read[2]
        assert len(read[1][0]) == 40 and read[1][1][0] == 0 and read[1][1][1].count("\n") == 1

    @pytest.mark.parametrize("fault", ["bad-cell", "short-row", "non-numeric-index", "duplicate-slot",
                                       "duplicate-slots-in-both-halves", "non-utf-8"])
    def test_a_fault_in_the_back_half_is_reported_as_in_one_pass(self, tmp_path, capsys, read_cpus, fault):
        path = tmp_path / "d.csv"
        write_rows(path, back_half_fault(split_rows(), fault))
        runs = []
        for cpus in (1, 2):
            read_cpus(cpus)
            runs.append(kl_run(capsys, path))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, out, err.count("\n")) == (1, "", 1)
        # NumPy names a short row's row from 1, and a bad cell's from 0.
        assert {"short-row": "at row 9996", "duplicate-slot": "duplicate slot 240 in group (20, 'Q')",
                "duplicate-slots-in-both-halves": "duplicate slot 0 in group (1, 'P')",
                "non-utf-8": "(invalid start byte)"}.get(fault, "at row 9995") in err

    def test_a_cell_over_the_limit_in_the_back_half_is_reported_as_in_one_pass(self, tmp_path, capsys, read_cpus,
                                                                                field_limit):
        rows = split_rows()
        rows[-5] = rows[-5].replace(",0,1,", ",0,1," + "0" * (field_limit + 10))
        path = tmp_path / "d.csv"
        write_rows(path, rows)
        runs = []
        for cpus in (1, 2):
            read_cpus(cpus)
            runs.append(kl_run(capsys, path))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and f"field larger than field limit ({field_limit})" in runs[0][2]

    @pytest.mark.parametrize("failure", ["worker-raises", "worker-killed", "refused-fork"])
    def test_the_back_half_of_a_failed_worker_is_read_here(self, tmp_path, monkeypatch, capfd, read_cpus, failure):
        path = tmp_path / "d.csv"
        write_rows(path, split_rows())
        read_cpus(1)
        expected = read_distributions_csv(path)
        read_cpus(2)
        forks = counted_forks(monkeypatch, refuse=failure == "refused-fork")
        here = parsed_here(monkeypatch, {"worker-raises": raise_in_worker, "worker-killed": kill_self}.get(failure))
        before = sorted(os.listdir("/proc/self/fd"))
        assert read_distributions_csv(path) == expected
        assert len(forks) == 1 and sum(here) == 10_000
        assert capfd.readouterr().err == ""
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("where, splits", [(1, False), (-1, True)], ids=["before-the-middle", "after-the-middle"])
    @pytest.mark.parametrize("change", ["quoted-cell", "cr-line-end", "crlf-line-end"])
    def test_a_quote_or_cr_keeps_the_read_in_one_pass_only_before_the_middle(self, tmp_path, monkeypatch, read_cpus,
                                                                            change, where, splits):
        rows = split_rows()
        read_cpus(1)
        path = tmp_path / "d.csv"
        write_rows(path, rows)
        expected = read_distributions_csv(path)
        # A line ended by a lone CR is a line that no count of LF bytes sees.
        rows[where] = {"quoted-cell": rows[where].replace(",0,1,", ',"0",1,'), "cr-line-end": rows[where][:-1] + "\r",
                       "crlf-line-end": rows[where][:-1] + "\r\n"}[change]
        write_rows(path, rows)
        read_cpus(2)
        forks = counted_forks(monkeypatch)
        assert read_distributions_csv(path) == expected
        assert len(forks) == splits

    def test_only_a_file_of_enough_bytes_is_split(self, tmp_path, monkeypatch, read_cpus):
        path = tmp_path / "d.csv"
        write_rows(path, split_rows())
        read_cpus(2)
        forks = counted_forks(monkeypatch)
        for least, splits in [(path.stat().st_size + 1, 0), (path.stat().st_size, 1)]:
            monkeypatch.setattr(paclab.distcsv, "_MIN_SPLIT_BYTES", least)
            assert len(read_distributions_csv(path)) == 40
            assert len(forks) == splits
            forks.clear()

    @pytest.mark.parametrize("fault", [None, "bad-cell"], ids=["plain", "bad-cell"])
    def test_a_split_read_under_warnings_as_errors_prints_what_one_cpu_does(self, tmp_path, fault):
        # The worker ends by os._exit: a file or warning it left would print "Exception ignored ..." on stderr.
        rows = split_rows()
        path = tmp_path / "d.csv"
        write_rows(path, rows if fault is None else back_half_fault(rows, fault))
        code = "\n".join([
            "import os, sys, paclab.distcsv, paclab.empirics",
            "paclab.empirics._usable_cpus = lambda: int(sys.argv[1])",
            "paclab.distcsv._MIN_SPLIT_BYTES = 1",
            "fork, forks = os.fork, []",
            "os.fork = lambda: forks.append(1) or fork()",
            "from paclab.cli import main",
            "code = main(sys.argv[2:])",
            "print('forks', len(forks))",
            "sys.exit(code)",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(paclab.cli.__file__).parents[1]))
        runs = [
            subprocess.run([sys.executable, "-W", "error", "-c", code, str(cpus), "kl", str(path), str(path), "--m", "5"],
                           env=env, capture_output=True, text=True, timeout=60)
            for cpus in (1, 2)
        ]
        assert [run.stdout.splitlines()[-1] for run in runs] == ["forks 0", "forks 1"]
        one, two = [(run.returncode, run.stdout.splitlines()[:-1], run.stderr) for run in runs]
        assert one == two
        assert (one[0], len(one[1]), one[2].count("\n")) == ((0, 1, 0) if fault is None else (1, 0, 1))


class TestKlCommand:
    def test_file_with_itself_is_zero(self, tmp_path):
        path = tmp_path / "p.csv"
        write_single_dist_csv(path, [0.25, 0.25, 0.5])
        assert cmd_kl(path, path) == 0.0

    def test_file_with_a_subnormal_mass_against_itself_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        write_single_dist_csv(path, [1e-320, 1.0])
        assert main(["kl", str(path), str(path)]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_subnormal_q_mass_prints_a_finite_value(self, tmp_path, capsys):
        # One file holding P and Q groups; kl picks P from the first name and Q from the second.
        path = tmp_path / "pq.csv"
        write_single_dist_csv(path, [0.5, 0.5])
        write_single_dist_csv(tmp_path / "q.csv", [1e-320, 1.0], source="Q")
        path.write_text(path.read_text() + "".join((tmp_path / "q.csv").read_text().splitlines(True)[1:]))
        assert main(["kl", str(path), str(path)]) == 0
        printed = capsys.readouterr().out
        assert printed == f"{0.5 * (math.log2(0.5) - math.log2(1e-320)) + 0.5 * math.log2(0.5):.17g}\n"
        assert float(printed) == pytest.approx(530.5085, abs=1e-4)

    def test_disjoint_fixtures_hit_ceiling(self, tmp_path):
        p_path = tmp_path / "p.csv"
        q_path = tmp_path / "q.csv"
        write_single_dist_csv(p_path, [1.0] + [0.0] * 99)
        write_single_dist_csv(q_path, [0.0] * 99 + [1.0], source="Q")
        assert cmd_kl(p_path, q_path) == pytest.approx(52, abs=1)

    def test_matches_curve_column_on_experiment_output(self, tmp_path):
        cmd_experiment(small_config(), tmp_path)
        dist_path = tmp_path / "distributions.csv"
        for row in read_curve(tmp_path / "curve.csv"):
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

    def test_undecodable_byte_gives_one_short_line(self, tmp_path, capsys):
        # The decoder's error quotes the chunk it was decoding: thousands of the file's bytes.
        path = tmp_path / "p.csv"
        write_single_dist_csv(path, [1 / 2000] * 2000)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        assert main(["kl", str(path), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300 and str(path) in err, err[:300]


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
def test_default_experiment_matches_golden_hashes(tmp_path, task):
    assert main(["experiment", "--task", task, "--out-dir", str(tmp_path)]) == 0
    for name, want in GOLDEN_SHA256[task].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


# sha256 of the default experiment outputs with --gt-mode fixed at seed 2024 (NumPy 2.4.x).
FIXED_TARGET_GOLDEN_SHA256 = {
    "conjunction": {
        "distributions.csv": "4ff613b82bdedbabd6776883969f2a7dccb5e70632195e4e5b74c2cba0948598",
        "curve.csv": "078fd09a70f5e62d90a1d65391ac16cc47d9b709cfdd6df8144108a41723c4b2",
    },
    "threshold": {
        "distributions.csv": "9a77502c53e9bcf4d6a4dda79954512112893953ddd422857e6b39844affa999",
        "curve.csv": "b885835176a0c7b89208bd8728716e419c5cf2c766fb7827e02d82c0b89fb12b",
    },
}


@pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason="goldens were recorded with NumPy 2.4.x; NEP 19 does not promise Generator streams across versions",
)
@pytest.mark.parametrize("task", sorted(FIXED_TARGET_GOLDEN_SHA256))
def test_fixed_target_experiment_matches_golden_hashes(tmp_path, task):
    assert main(["experiment", "--task", task, "--gt-mode", "fixed", "--out-dir", str(tmp_path)]) == 0
    for name, want in FIXED_TARGET_GOLDEN_SHA256[task].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


@pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason="goldens were recorded with NumPy 2.4.x; NEP 19 does not promise Generator streams across versions",
)
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("task", sorted(GOLDEN_SHA256))
def test_golden_hashes_whatever_the_range_count(tmp_path, monkeypatch, task, cpus):
    monkeypatch.setattr(paclab.empirics, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(paclab.empirics, "_MAX_RANGES", cpus)
    cmd_experiment(default_config(ConjunctionTask(10) if task == "conjunction" else ThresholdTask()), tmp_path)
    for name, want in GOLDEN_SHA256[task].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
    with pytest.raises(ChildProcessError):  # the worker group was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason="goldens were recorded with NumPy 2.4.x; NEP 19 does not promise Generator streams across versions",
)
@pytest.mark.parametrize("cpus, refused", [(2, 1), (3, 2)], ids=["first-fork", "second-of-three"])
@pytest.mark.parametrize("task", sorted(GOLDEN_SHA256))
def test_golden_hashes_when_a_fork_is_refused(tmp_path, monkeypatch, task, cpus, refused):
    # A fork refused under a process limit stops the forking; the processes
    # already running drain the queue and the run writes the golden bytes.
    monkeypatch.setattr(paclab.empirics, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(paclab.empirics, "_MAX_RANGES", cpus)
    fork, forks = os.fork, []

    def refusing_fork():
        forks.append(1)
        if len(forks) == refused:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", refusing_fork)
    before = sorted(os.listdir("/proc/self/fd"))
    assert main(["experiment", "--task", task, "--out-dir", str(tmp_path)]) == 0
    assert len(forks) == refused
    for name, want in GOLDEN_SHA256[task].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
    assert sorted(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):  # the worker forked before the refusal was reaped
        os.waitpid(-1, os.WNOHANG)


# sha256 of the outputs of ``paclab bound`` at its defaults: the finite-h bound
# with |H| = 1e9 at m = 22, 35 and 100, 100 slots.  The manifest holds the paclab
# version, so its hash moves with it.
DEFAULT_BOUND_SHA256 = {
    "bound_grid.csv": "3dcd2deb45fd5c3689523e4d026deb51227b248e5ad3b028df73e5ce39e9587e",
    "bound_q.csv": "6f83a3e0cc2d118bb5fcf8aaa8b6fcd853bcd02226890c7e780f6af983274291",
    "bound_summary.csv": "bf837d1486e81a51515489b723f1975e5772f08c496d5e929ec8e3b67f41c4c5",
    "manifest.json": "d8c1873626d1e2defc4df4d542bb3ab31d93abefb9aa08864ed6df9f521860bb",
}


@pytest.fixture
def grid_cpus(monkeypatch):
    """Sets the usable CPU count ``split_blocks`` sees, with every bound grid
    large enough to split, so two CPUs fork a worker for the back half of m."""
    def set_cpus(count):
        monkeypatch.setattr(paclab.empirics, "_usable_cpus", lambda: count)
        monkeypatch.setattr(paclab.boundgrid, "_MIN_SPLIT_ROWS", 1)

    return set_cpus


def grid_evaluations(monkeypatch, action=None):
    """The m of each bound grid this process evaluates, in turn; a forked
    grid worker runs ``action`` on each m it evaluates instead of recording it."""
    original, parent, evaluated = paclab.boundgrid.bound_cdf, os.getpid(), []

    def bound_cdf(spec, eps):
        if os.getpid() == parent:
            evaluated.append(spec.m)
        elif action is not None:
            action()
        return original(spec, eps)

    monkeypatch.setattr(paclab.boundgrid, "bound_cdf", bound_cdf)
    return evaluated


@pytest.mark.parametrize("cpus", [1, 2])
def test_default_bound_matches_golden_hashes(tmp_path, monkeypatch, grid_cpus, cpus):
    grid_cpus(cpus)
    evaluated = grid_evaluations(monkeypatch)
    assert main(["bound", "--out-dir", str(tmp_path)]) == 0
    for name, want in DEFAULT_BOUND_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
    assert evaluated == ([22, 35, 100] if cpus == 1 else [22])  # on two CPUs the worker took 35 and 100
    with pytest.raises(ChildProcessError):  # the grid worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("m_list, forks", [("22,35,100", 0), (",".join(map(str, range(20, 1001, 20))), 1)],
                         ids=["default-3-m", "wide-io-50-m"])
def test_only_a_grid_of_enough_rows_is_split(tmp_path, monkeypatch, m_list, forks):
    # The default bound's 3,000 grid rows stay in one process, where a fork would cost more than it saves.
    # A worker is forked before the slot masses are computed, so the parent computes them beside it.
    monkeypatch.setattr(paclab.empirics, "_usable_cpus", lambda: 2)
    fork, discretize, events = os.fork, paclab.cli.discretize_bound, []
    monkeypatch.setattr(os, "fork", lambda: events.append("fork") or fork())
    monkeypatch.setattr(paclab.cli, "discretize_bound", lambda *args: events.append("q") or discretize(*args))
    assert main(["bound", "--kind", "vc", "--vc-dim", "1", "--m", m_list, "--out-dir", str(tmp_path)]) == 0
    assert events.count("fork") == forks
    assert events.index("q") == forks


def test_only_the_bound_command_imports_the_grid_split():
    # paclab.boundgrid is compiled when bound runs, so importing the CLI for another command costs no memory for it.
    env = dict(os.environ, PYTHONPATH=str(Path(paclab.cli.__file__).parents[1]))
    code = "import sys, paclab.cli; print('paclab.boundgrid' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n", proc.stderr


def test_only_the_kl_command_imports_the_reader():
    # paclab.distcsv, and csv with it, are compiled when kl reads a file, so the other commands pay for neither.
    env = dict(os.environ, PYTHONPATH=str(Path(paclab.cli.__file__).parents[1]))
    code = "import sys, paclab.cli; print(sorted({'csv', 'paclab.distcsv'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "[]\n", proc.stderr

def test_reader_fault_exits_1_when_the_cli_runs_as_a_module(tmp_path):
    # Run as ``python -m paclab.cli`` the CLI is __main__, and the reader it imports must raise the class it catches.
    env = dict(os.environ, PYTHONPATH=str(Path(paclab.cli.__file__).parents[1]))
    path = tmp_path / "d.csv"
    path.write_text(dist_text(rows=[*DIST_ROWS, DIST_ROWS[1]]))
    argv = [sys.executable, "-m", "paclab.cli", "kl", str(path), str(path), "--m", "7"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, f"paclab: error: {path}: duplicate slot 1 in group (7, 'P')\n")

def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_in_worker():
    raise ValueError("grid block failed in the worker")


@pytest.mark.parametrize("failure", ["refused-fork", "worker-raises", "worker-killed"])
def test_bound_golden_hashes_when_the_grid_worker_fails(tmp_path, monkeypatch, capfd, grid_cpus, failure):
    # Blocks a worker did not mark done are formatted by the parent instead.
    grid_cpus(2)
    forks = []
    if failure == "refused-fork":

        def refusing_fork():
            forks.append(1)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refusing_fork)
    evaluated = grid_evaluations(monkeypatch, {"worker-raises": raise_in_worker, "worker-killed": kill_self}.get(failure))
    before = sorted(os.listdir("/proc/self/fd"))
    assert main(["bound", "--out-dir", str(tmp_path)]) == 0
    assert evaluated == [22, 35, 100]
    assert len(forks) == (failure == "refused-fork")
    for name, want in DEFAULT_BOUND_SHA256.items():
        assert sha256_hex((tmp_path / name).read_bytes()) == want, name
    assert capfd.readouterr().err == ""
    assert sorted(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# sha256 of the outputs of the benchmark's wide-io workload at seed 2024, as
# recorded in perfbench/reference.json; the experiment and kl hashes need NumPy 2.4.x.
WIDE_IO_BOUND_SHA256 = {
    "bound_grid.csv": "6629d182f64b340f4a4f9b0cdfa01637e0683f208cc6c22fae4fc4daef2ddb1b",
    "bound_summary.csv": "bbad848a4fc9060d969973e1274ed74d88848ddc4ef17d8411dbda318ec94436",
    "bound_q.csv": "832785b3fe712e915aa15b087cce6f20904fd711738e16d9906d466602ef61ee",
}
WIDE_IO_EXPERIMENT_SHA256 = {
    "distributions.csv": "dd3ad01c2df4f222554a6b2fe21de7365fcd6360ce2a70d172cbf1c8cbf2d7d7",
    "curve.csv": "9270148b276ef00d628c514b5a753a5ba233173eb61b1e109036313813384da8",
}
WIDE_IO_KL_STDOUT_SHA256 = "7d4b8868beb2d2cb4b6719e5b684d3666dc333371f9211eaa915537613f6d6a2"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cpus", [1, 2])
def test_wide_io_bound_matches_golden_hashes(tmp_path, grid_cpus, cpus):
    grid_cpus(cpus)
    m_list = ",".join(str(m) for m in range(20, 1001, 20))
    assert main(["bound", "--kind", "vc", "--vc-dim", "1", "--m", m_list, "--out-dir", str(tmp_path)]) == 0
    for name, want in WIDE_IO_BOUND_SHA256.items():
        assert sha256_hex((tmp_path / name).read_bytes()) == want, name
    with pytest.raises(ChildProcessError):  # the grid worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason="goldens were recorded with NumPy 2.4.x; NEP 19 does not promise Generator streams across versions",
)
def test_wide_io_experiment_and_kl_match_golden_hashes(tmp_path, capsys):
    argv = ["experiment", "--task", "threshold", "--trials", "20", "--slots", "2000", "--seed", "2024"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    for name, want in WIDE_IO_EXPERIMENT_SHA256.items():
        assert sha256_hex((tmp_path / name).read_bytes()) == want, name
    capsys.readouterr()
    dist_path = str(tmp_path / "distributions.csv")
    assert main(["kl", dist_path, dist_path, "--m", "1000"]) == 0
    assert sha256_hex(capsys.readouterr().out.encode()) == WIDE_IO_KL_STDOUT_SHA256
