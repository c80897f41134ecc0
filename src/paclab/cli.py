"""Command-line front end: run experiments, tabulate bounds, recompute KL.

Three subcommands:

* ``experiment`` runs a full learning-curve experiment (trials, empirical
  histograms, discretized bounds, curve statistics) and writes
  ``distributions.csv``, ``curve.csv``, and ``manifest.json``.
* ``bound`` tabulates a single bound family: CDF/density on a fixed grid,
  cutoff and point mass per sample size, and the discretized slot masses.
* ``kl`` recomputes the divergence between two distributions stored in
  CSV form.

Every file-producing run emits a manifest that pins the configuration;
feeding a manifest back through ``--config`` reproduces the run byte for
byte.  Reals are printed with 17 significant digits so parsing them back
recovers the exact float.  Exit codes: 0 success, 1 invalid
configuration or input data, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import ExperimentRecord, build_curve, kl_divergence
from .empirics import ExperimentConfig, Task, histogram, run_trials
from .learners import ConjunctionTask, ThresholdTask
from .theory import (
    BoundSpec,
    DiscreteDistribution,
    bound_cdf,
    bound_density,
    bound_point_mass,
    cutoff,
    discretize_bound,
)

__all__ = [
    "ConfigError",
    "RunManifest",
    "cmd_bound",
    "cmd_experiment",
    "cmd_kl",
    "main",
    "read_curve_csv",
    "read_distributions_csv",
    "run_experiment",
    "task_bound_spec",
]

SEED_ENV_VAR = "PACLAB_SEED"
DEFAULT_SEED = 2024

# Built-in experiment defaults; the sample-size schedule depends on the task.
_TASK_DEFAULTS = {
    "conjunction": {"n": 10, "m_start": 25, "m_step": 25, "m_max": 1250},
    "threshold": {"vc_dim": 1, "m_start": 20, "m_step": 20, "m_max": 1000},
}
_COMMON_DEFAULTS = {"slots": 100, "trials": 1000, "gt_mode": "per-trial", "out_dir": "paclab-out"}

_GRID_POINTS = 1000
_GRID_TOP = 1.1

DISTRIBUTIONS_HEADER = ["m", "source", "slot_index", "slot_lo", "slot_hi", "mass"]
CURVE_HEADER = ["m", "mean_p", "std_p", "mean_q", "std_q", "kl"]


class ConfigError(Exception):
    """Invalid configuration or unusable input data (exit code 1)."""


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run: config echo plus output map."""

    command: str
    version: str
    config: dict
    outputs: dict

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "outputs": self.outputs,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Formatting and atomic file output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

_LN3 = math.log(3.0)


def task_bound_spec(task: Task, m: int, vc_dim: int = 1) -> BoundSpec:
    """Theoretical bound matched to a task: |H| = 3**n, or VC dimension d."""
    if isinstance(task, ConjunctionTask):
        return BoundSpec.finite_h(m=m, log_h_size=task.n * _LN3)
    return BoundSpec.finite_vc(m=m, vc_dim=vc_dim)


def run_experiment(config: ExperimentConfig, *, vc_dim: int = 1) -> list[ExperimentRecord]:
    """Empirical and theoretical distributions for every scheduled m."""
    records = []
    for m in config.schedule():
        batch = run_trials(config.task, m, config.trials, config.master_seed, fixed_target=config.fixed_target)
        empirical = histogram(batch.losses, config.num_slots)
        theoretical = discretize_bound(task_bound_spec(config.task, m, vc_dim), config.num_slots)
        records.append(ExperimentRecord(m=m, empirical=empirical, theoretical=theoretical))
    return records


def _distribution_rows(m: int, source: str, dist: DiscreteDistribution) -> list[list]:
    rows = []
    for i, mass in enumerate(dist.masses):
        lo, hi = dist.slot_bounds(i)
        rows.append([m, source, i, lo, hi, mass])
    return rows


def cmd_experiment(config: ExperimentConfig, out_dir: str | Path, *, vc_dim: int = 1) -> RunManifest:
    """Run the experiment and write distributions.csv, curve.csv, manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = run_experiment(config, vc_dim=vc_dim)
    curve = build_curve(records)

    dist_rows = []
    for rec in records:
        dist_rows += _distribution_rows(rec.m, "P", rec.empirical)
        dist_rows += _distribution_rows(rec.m, "Q", rec.theoretical)
    curve_rows = [[pt.m, pt.mean_p, pt.std_p, pt.mean_q, pt.std_q, pt.kl] for pt in curve]

    task = config.task
    echo: dict = {"task": task.name}
    if isinstance(task, ConjunctionTask):
        echo["n"] = task.n
    else:
        echo["vc_dim"] = vc_dim
    echo.update(
        slots=config.num_slots,
        trials=config.trials,
        m_start=config.m_start,
        m_step=config.m_step,
        m_max=config.m_max,
        seed=config.master_seed,
        gt_mode="fixed" if config.fixed_target else "per-trial",
    )
    manifest = RunManifest(
        command="experiment",
        version=__version__,
        config=echo,
        outputs={"distributions": "distributions.csv", "curve": "curve.csv", "manifest": "manifest.json"},
    )
    _write_csv(out / "distributions.csv", DISTRIBUTIONS_HEADER, dist_rows)
    _write_csv(out / "curve.csv", CURVE_HEADER, curve_rows)
    _atomic_write_text(out / "manifest.json", manifest.to_json())
    return manifest


# ---------------------------------------------------------------------------
# Bound tabulation
# ---------------------------------------------------------------------------

def _bound_spec_from_params(kind: str, m: int, h_size: float | None, log_h_size: float | None, vc_dim: int | None) -> BoundSpec:
    if kind == "finite-h":
        if h_size is None and log_h_size is None:
            raise ConfigError("finite-h bound needs --h-size or --log-h-size")
        return BoundSpec.finite_h(m=m, h_size=h_size, log_h_size=log_h_size)
    if kind == "vc":
        if vc_dim is None:
            raise ConfigError("vc bound needs --vc-dim")
        return BoundSpec.finite_vc(m=m, vc_dim=vc_dim)
    raise ConfigError(f"unknown bound kind {kind!r}")


def cmd_bound(
    kind: str,
    m_list: Sequence[int],
    out_dir: str | Path,
    *,
    h_size: float | None = None,
    log_h_size: float | None = None,
    vc_dim: int | None = None,
    slots: int = 100,
) -> RunManifest:
    """Tabulate CDF/density curves, cutoffs, atoms, and slot masses per m.

    Writes bound_grid.csv (m, eps, cdf, density on a fixed grid over
    [0, 1.1]), bound_summary.csv (m, cutoff, point_mass), bound_q.csv
    (discretized slot masses, same schema as distributions.csv), and a
    manifest.
    """
    if not m_list:
        raise ConfigError("need at least one sample size m")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = np.linspace(0.0, _GRID_TOP, _GRID_POINTS)
    grid_rows = []
    summary_rows = []
    q_rows = []
    for m in m_list:
        spec = _bound_spec_from_params(kind, m, h_size, log_h_size, vc_dim)
        for eps in grid:
            eps_f = float(eps)
            grid_rows.append([m, eps_f, bound_cdf(spec, eps_f), bound_density(spec, eps_f)])
        summary_rows.append([m, cutoff(spec), bound_point_mass(spec)])
        q_rows += _distribution_rows(m, "Q", discretize_bound(spec, slots))

    echo: dict = {"kind": kind, "slots": slots, "m": list(m_list)}
    if kind == "finite-h":
        if h_size is not None:
            echo["h_size"] = float(h_size)
        else:
            echo["log_h_size"] = float(log_h_size)
    else:
        echo["vc_dim"] = vc_dim
    manifest = RunManifest(
        command="bound",
        version=__version__,
        config=echo,
        outputs={
            "grid": "bound_grid.csv",
            "summary": "bound_summary.csv",
            "distributions": "bound_q.csv",
            "manifest": "manifest.json",
        },
    )
    _write_csv(out / "bound_grid.csv", ["m", "eps", "cdf", "density"], grid_rows)
    _write_csv(out / "bound_summary.csv", ["m", "cutoff", "point_mass"], summary_rows)
    _write_csv(out / "bound_q.csv", DISTRIBUTIONS_HEADER, q_rows)
    _atomic_write_text(out / "manifest.json", manifest.to_json())
    return manifest


# ---------------------------------------------------------------------------
# Stored-distribution KL
# ---------------------------------------------------------------------------

def read_distributions_csv(path: str | Path) -> dict[tuple[int, str], DiscreteDistribution]:
    """Load every (m, source) group from a distributions-schema CSV."""
    groups: dict[tuple[int, str], dict[int, float]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(DISTRIBUTIONS_HEADER) <= set(reader.fieldnames):
                raise ConfigError(f"{path}: expected columns {DISTRIBUTIONS_HEADER}")
            for row in reader:
                key = (int(row["m"]), row["source"])
                groups.setdefault(key, {})[int(row["slot_index"])] = float(row["mass"])
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
        raise ConfigError(f"{path}: malformed distribution row ({exc})") from exc
    out = {}
    for key, slots in groups.items():
        if sorted(slots) != list(range(len(slots))):
            raise ConfigError(f"{path}: group {key} has non-contiguous slot indices")
        out[key] = DiscreteDistribution(tuple(slots[i] for i in range(len(slots))))
    if not out:
        raise ConfigError(f"{path}: no distributions found")
    return out


def read_curve_csv(path: str | Path) -> list[dict]:
    """Load curve.csv rows as dicts with typed values."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                rows.append({"m": int(row["m"])} | {k: float(row[k]) for k in CURVE_HEADER[1:]})
    except (KeyError, TypeError, ValueError) as exc:
        # KeyError: a missing column; TypeError: a short row; ValueError: a non-numeric cell
        raise ConfigError(f"{path}: malformed curve row ({exc!r})") from exc
    return rows


def _select_distribution(
    groups: dict[tuple[int, str], DiscreteDistribution],
    m: int | None,
    source: str | None,
    default_source: str,
    label: str,
) -> DiscreteDistribution:
    keys = list(groups)
    if m is not None:
        keys = [k for k in keys if k[0] == m]
    if source is not None:
        keys = [k for k in keys if k[1] == source]
    elif len(keys) > 1:
        preferred = [k for k in keys if k[1] == default_source]
        if preferred:
            keys = preferred
    if len(keys) == 1:
        return groups[keys[0]]
    if not keys:
        raise ConfigError(f"{label}: no distribution matches m={m} source={source}")
    raise ConfigError(f"{label}: ambiguous selection {sorted(keys)}; pass --m and/or a source")


def cmd_kl(
    p_path: str | Path,
    q_path: str | Path,
    *,
    m: int | None = None,
    p_source: str | None = None,
    q_source: str | None = None,
) -> float:
    """KL divergence between two stored distributions.

    Files holding a single distribution need no selectors.  On
    experiment output (which stores P and Q per m), pass --m; the first
    file then defaults to its P group and the second to its Q group.
    """
    p = _select_distribution(read_distributions_csv(p_path), m, p_source, "P", str(p_path))
    q = _select_distribution(read_distributions_csv(q_path), m, q_source, "Q", str(q_path))
    return kl_divergence(p, q)


# ---------------------------------------------------------------------------
# Configuration loading and merging
# ---------------------------------------------------------------------------

def _parse_m_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(part) for part in str(value).split(",") if part.strip()]

_SHARED_KEY_TYPES = {"vc_dim": int, "slots": int, "out_dir": str}
# Config keys per subcommand; a key of the other subcommand is rejected, not ignored.
_KEY_TYPES = {
    "experiment": _SHARED_KEY_TYPES | {
        "task": str,
        "n": int,
        "trials": int,
        "m_start": int,
        "m_step": int,
        "m_max": int,
        "seed": int,
        "gt_mode": str,
    },
    "bound": _SHARED_KEY_TYPES | {"kind": str, "h_size": float, "log_h_size": float, "m": _parse_m_list},
}


def load_config_file(path: str | Path, command: str) -> dict:
    """Read ``command``'s config: flat key=value lines, JSON, or a previous manifest of it."""
    text = Path(path).read_text(encoding="utf-8")
    raw: dict = {}
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    else:
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
        if obj.get("command", command) != command:
            raise ConfigError(f"{path}: manifest of a {obj['command']!r} run, not {command!r}")
        raw = obj.get("config", obj)
    key_types = _KEY_TYPES[command]
    typed = {}
    for key, value in raw.items():
        if key not in key_types:
            raise ConfigError(f"{path}: unknown config key {key!r} for {command}")
        try:
            typed[key] = key_types[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from exc
    return typed


def _merged(args: argparse.Namespace, file_config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = file_config.get(key, default)
    return value


def _resolve_seed(args: argparse.Namespace, file_config: dict) -> int:
    seed = _merged(args, file_config, "seed")
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        else:
            seed = DEFAULT_SEED
    return int(seed)


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ConfigError
    # instead so usage errors share the invalid-config exit code.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="paclab", description="Risk-bound simulation lab for PAC-learnable tasks.")
    parser.add_argument("--version", action="version", version=f"paclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a learning-curve experiment", parents=[], add_help=True)
    exp.add_argument("--task", choices=["conjunction", "threshold"])
    exp.add_argument("--n", type=int, help="boolean variables for the conjunction task")
    exp.add_argument("--vc-dim", dest="vc_dim", type=int, help="VC dimension for the threshold bound")
    exp.add_argument("--slots", type=int, help="loss slots per distribution")
    exp.add_argument("--trials", type=int, help="trials per sample size")
    exp.add_argument("--m-start", dest="m_start", type=int)
    exp.add_argument("--m-step", dest="m_step", type=int)
    exp.add_argument("--m-max", dest="m_max", type=int)
    exp.add_argument("--seed", type=int, help=f"master seed (falls back to ${SEED_ENV_VAR})")
    exp.add_argument("--gt-mode", dest="gt_mode", choices=["per-trial", "fixed"])
    exp.add_argument("--out-dir", dest="out_dir")
    exp.add_argument("--config", help="key=value file, JSON config, or a previous manifest.json")
    exp.set_defaults(func=_handle_experiment)

    bnd = sub.add_parser("bound", help="tabulate a theoretical bound")
    bnd.add_argument("--kind", choices=["finite-h", "vc"])
    bnd.add_argument("--h-size", dest="h_size", type=float, help="|H| for the finite-h kind")
    bnd.add_argument("--log-h-size", dest="log_h_size", type=float, help="ln|H|, for sizes too large to store")
    bnd.add_argument("--vc-dim", dest="vc_dim", type=int)
    bnd.add_argument("--slots", type=int)
    bnd.add_argument("--m", type=_parse_m_list, help="comma-separated sample sizes")
    bnd.add_argument("--out-dir", dest="out_dir")
    bnd.add_argument("--config", help="key=value file, JSON config, or a previous manifest.json")
    bnd.set_defaults(func=_handle_bound)

    kl = sub.add_parser("kl", help="KL divergence between two stored distributions")
    kl.add_argument("p_csv")
    kl.add_argument("q_csv")
    kl.add_argument("--m", type=int, help="select this sample size in both files")
    kl.add_argument("--p-source", dest="p_source", choices=["P", "Q"])
    kl.add_argument("--q-source", dest="q_source", choices=["P", "Q"])
    kl.set_defaults(func=_handle_kl)
    return parser


def _handle_experiment(args: argparse.Namespace) -> int:
    file_config = load_config_file(args.config, "experiment") if args.config else {}
    task_name = _merged(args, file_config, "task", "conjunction")
    if task_name not in _TASK_DEFAULTS:
        raise ConfigError(f"unknown task {task_name!r}")
    defaults = _TASK_DEFAULTS[task_name] | _COMMON_DEFAULTS
    other_key = "vc_dim" if task_name == "conjunction" else "n"
    if _merged(args, file_config, other_key) is not None:
        raise ConfigError(f"{other_key} does not apply to the {task_name} task")

    if task_name == "conjunction":
        task: Task = ConjunctionTask(n=int(_merged(args, file_config, "n", defaults["n"])))
        vc_dim = 1
    else:
        task = ThresholdTask()
        vc_dim = int(_merged(args, file_config, "vc_dim", defaults["vc_dim"]))
    gt_mode = _merged(args, file_config, "gt_mode", defaults["gt_mode"])
    if gt_mode not in ("per-trial", "fixed"):
        raise ConfigError(f"gt_mode must be per-trial or fixed, got {gt_mode!r}")
    config = ExperimentConfig(
        task=task,
        num_slots=int(_merged(args, file_config, "slots", defaults["slots"])),
        trials=int(_merged(args, file_config, "trials", defaults["trials"])),
        m_start=int(_merged(args, file_config, "m_start", defaults["m_start"])),
        m_step=int(_merged(args, file_config, "m_step", defaults["m_step"])),
        m_max=int(_merged(args, file_config, "m_max", defaults["m_max"])),
        master_seed=_resolve_seed(args, file_config),
        fixed_target=(gt_mode == "fixed"),
    )
    out_dir = _merged(args, file_config, "out_dir", defaults["out_dir"])
    manifest = cmd_experiment(config, out_dir, vc_dim=vc_dim)
    print(f"wrote {', '.join(sorted(manifest.outputs.values()))} to {out_dir}")
    return 0


def _handle_bound(args: argparse.Namespace) -> int:
    file_config = load_config_file(args.config, "bound") if args.config else {}
    kind = _merged(args, file_config, "kind", "finite-h")
    h_size = _merged(args, file_config, "h_size")
    log_h_size = _merged(args, file_config, "log_h_size")
    if kind == "finite-h" and h_size is None and log_h_size is None:
        h_size = 1e9
    m_list = _merged(args, file_config, "m", [22, 35, 100])
    manifest = cmd_bound(
        kind,
        [int(m) for m in m_list],
        _merged(args, file_config, "out_dir", _COMMON_DEFAULTS["out_dir"]),
        h_size=h_size,
        log_h_size=log_h_size,
        vc_dim=_merged(args, file_config, "vc_dim"),
        slots=int(_merged(args, file_config, "slots", _COMMON_DEFAULTS["slots"])),
    )
    print(f"wrote {', '.join(sorted(manifest.outputs.values()))}")
    return 0


def _handle_kl(args: argparse.Namespace) -> int:
    value = cmd_kl(args.p_csv, args.q_csv, m=args.m, p_source=args.p_source, q_source=args.q_source)
    print(_fmt(value))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"paclab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"paclab: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
