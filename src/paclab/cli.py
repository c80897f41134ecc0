"""Command-line front end: run experiments, tabulate bounds, recompute KL.

Three subcommands:

* ``experiment`` runs a full learning-curve experiment (trials, empirical
  histograms, discretized bounds, curve statistics) and writes
  ``distributions.csv``, ``curve.csv``, and ``manifest.json``.
* ``bound`` tabulates a single bound family: CDF/density on a fixed grid,
  cutoff and point mass per sample size, and the discretized slot masses.
* ``kl`` recomputes the divergence between two distributions stored in
  CSV form.

A subcommand's argparse parser is its one schema: a ``--config`` file is
read as its flags (key ``m_start`` as ``--m-start``) ahead of the command
line's, which override them.  Every file-producing run emits a manifest
that pins the configuration; feeding it back through ``--config``
reproduces the run byte for byte.  CSV rows are written unquoted, reals
as ``%.17g`` so that parsing them back recovers the exact float.  Reading
finds columns by header name; a short row, a missing column, a
non-numeric cell and a repeated slot of an (m, source) group are input
errors.  Exit codes: 0 success, 1 invalid configuration or input data,
2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import __version__, empirics
from .analysis import ExperimentRecord, build_curve, kl_divergence
from .empirics import ExperimentConfig, Task, TrialWorkers, _range_count, histogram, run_trials
from .learners import ConjunctionTask, ThresholdTask
from .theory import (
    BoundSpec,
    DiscreteDistribution,
    bound_point_mass,
    bound_table,
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
_BOUND_DEFAULTS = {"kind": "finite-h", "m": [22, 35, 100], "slots": 100, "out_dir": "paclab-out"}

_GRID_POINTS = 1000
_GRID_TOP = 1.1

# A run whose estimated peak memory is above this exits 1 before it creates
# a directory or runs a trial.  The per-item costs are rounded up from
# peaks measured on CPython 3.11 with NumPy 2.4: about 200 bytes per CSV
# row held for writing and, for one sample size, about 240 bytes per trial
# (seed and state words, losses) plus 45 per conjunction variable (code
# and count arrays); the draw buffer holds a row and its decoded copies.
# Each process holds the per-trial arrays of its range of a sample size and a
# draw buffer, and the losses of the whole schedule share one 8-byte-a-trial buffer.
SIZE_BUDGET_BYTES = 2 << 30
_ROW_BYTES = 256
_TRIAL_BYTES = 256
_VARIABLE_BYTES = 48
_DRAW_COPIES = 8

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
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Formatting and atomic file output
# ---------------------------------------------------------------------------

def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header: Sequence[str], lines: Sequence[str]) -> None:
    """Header plus rows pre-formatted with ``%d``/``%.17g``, each ending in a newline.

    No cell needs quoting: every cell is a number or a P/Q source tag.
    """
    _atomic_write_text(path, ",".join(header) + "\n" + "".join(lines))


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

_LN3 = math.log(3.0)


def task_bound_spec(task: Task, m: int) -> BoundSpec:
    """Theoretical bound matched to a task: |H| = 3**n, or the threshold task's VC dimension."""
    if isinstance(task, ConjunctionTask):
        return BoundSpec.finite_h(m=m, log_h_size=task.n * _LN3)
    return BoundSpec.finite_vc(m=m, vc_dim=task.vc_dim)


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Empirical and theoretical distributions for every scheduled m.

    The trials of the whole schedule are shared between the usable CPUs by
    workers forked and reaped inside its first ``run_trials`` call.
    """
    records = []
    schedule = config.schedule()
    pool = TrialWorkers(config.task, schedule, config.trials, config.master_seed, fixed_target=config.fixed_target)
    for m in schedule:
        batch = run_trials(config.task, m, config.trials, config.master_seed, fixed_target=config.fixed_target, pool=pool)
        empirical = histogram(batch.losses, config.num_slots)
        theoretical = discretize_bound(task_bound_spec(config.task, m), config.num_slots)
        records.append(ExperimentRecord(m=m, empirical=empirical, theoretical=theoretical))
    return records


def _experiment_bytes(config: ExperimentConfig) -> int:
    """Estimated peak memory of ``cmd_experiment(config)`` over its processes:
    its CSV rows, one sample size's trials and the schedule's losses."""
    sizes = len(config.schedule())
    per_trial = _TRIAL_BYTES + (_VARIABLE_BYTES * config.task.n if isinstance(config.task, ConjunctionTask) else 0)
    width = config.task.draw_width(config.m_max, config.fixed_target)
    draw_buffers = _range_count(config.trials, width, empirics._usable_cpus()) * _DRAW_COPIES * 8 * width
    return sizes * (2 * config.num_slots + 1) * _ROW_BYTES + config.trials * per_trial + draw_buffers + 8 * config.trials * sizes


def _bound_bytes(m_count: int, slots: int) -> int:
    """Estimated peak memory of ``cmd_bound`` over ``m_count`` sample sizes: its CSV rows."""
    return m_count * (_GRID_POINTS + 1 + slots) * _ROW_BYTES


def _check_size(estimate: int) -> None:
    if estimate > SIZE_BUDGET_BYTES:
        raise ConfigError(
            f"run needs an estimated {estimate / 2**20:,.0f} MiB, over the {SIZE_BUDGET_BYTES / 2**20:,.0f} MiB budget;"
            " lower the slots, trials or sample sizes"
        )


def _slot_prefixes(num_slots: int) -> list[str]:
    """The ``slot_index,slot_lo,slot_hi,`` cells of every slot, edges as ``slot_bounds`` computes them."""
    return [f"{i},{i / num_slots:.17g},{(i + 1) / num_slots:.17g}," for i in range(num_slots)]


def _distribution_lines(m: int, source: str, dist: DiscreteDistribution, prefixes: list[str]) -> str:
    head = f"{m},{source},"
    return "".join([f"{head}{prefix}{mass:.17g}\n" for prefix, mass in zip(prefixes, dist.masses, strict=True)])


def cmd_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunManifest:
    """Run the experiment and write distributions.csv, curve.csv, manifest.json.

    A run over the size budget fails before the directory is created.
    """
    _check_size(_experiment_bytes(config))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = run_experiment(config)
    curve = build_curve(records)

    prefixes = _slot_prefixes(config.num_slots)
    dist_lines = []
    for rec in records:
        dist_lines.append(_distribution_lines(rec.m, "P", rec.empirical, prefixes))
        dist_lines.append(_distribution_lines(rec.m, "Q", rec.theoretical, prefixes))
    curve_lines = [
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (pt.m, pt.mean_p, pt.std_p, pt.mean_q, pt.std_q, pt.kl) for pt in curve
    ]

    echo = {
        "task": config.task.name,
        **asdict(config.task),
        "slots": config.num_slots,
        "trials": config.trials,
        "m_start": config.m_start,
        "m_step": config.m_step,
        "m_max": config.m_max,
        "seed": config.master_seed,
        "gt_mode": "fixed" if config.fixed_target else "per-trial",
    }
    manifest = RunManifest(
        command="experiment",
        version=__version__,
        config=echo,
        outputs={"distributions": "distributions.csv", "curve": "curve.csv", "manifest": "manifest.json"},
    )
    _write_csv(out / "distributions.csv", DISTRIBUTIONS_HEADER, dist_lines)
    _write_csv(out / "curve.csv", CURVE_HEADER, curve_lines)
    _atomic_write_text(out / "manifest.json", manifest.to_json())
    return manifest


# ---------------------------------------------------------------------------
# Bound tabulation
# ---------------------------------------------------------------------------

def _bound_spec_from_params(kind: str, m: int, h_size: float | None, log_h_size: float | None, vc_dim: int | None) -> BoundSpec:
    if kind == "finite-h":
        if vc_dim is not None:
            raise ConfigError("vc_dim does not apply to the finite-h bound")
        if h_size is None and log_h_size is None:
            raise ConfigError("finite-h bound needs --h-size or --log-h-size")
        return BoundSpec.finite_h(m=m, h_size=h_size, log_h_size=log_h_size)
    if kind == "vc":
        if h_size is not None or log_h_size is not None:
            raise ConfigError("h_size and log_h_size do not apply to the vc bound")
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
    manifest; a bad parameter or a run over the size budget fails before
    any work and before the directory is created.
    """
    if not m_list:
        raise ConfigError("need at least one sample size m")
    _check_size(_bound_bytes(len(m_list), slots))
    specs = [_bound_spec_from_params(kind, m, h_size, log_h_size, vc_dim) for m in m_list]

    grid = np.linspace(0.0, _GRID_TOP, _GRID_POINTS).tolist()
    prefixes = _slot_prefixes(slots)
    grid_lines = []
    summary_lines = []
    q_lines = []
    for m, spec in zip(m_list, specs):
        grid_lines += [
            "%d,%.17g,%.17g,%.17g\n" % (m, eps, cdf, density) for eps, (cdf, density) in zip(grid, bound_table(spec, grid))
        ]
        summary_lines.append("%d,%.17g,%.17g\n" % (m, cutoff(spec), bound_point_mass(spec)))
        q_lines.append(_distribution_lines(m, "Q", discretize_bound(spec, slots), prefixes))

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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "bound_grid.csv", ["m", "eps", "cdf", "density"], grid_lines)
    _write_csv(out / "bound_summary.csv", ["m", "cutoff", "point_mass"], summary_lines)
    _write_csv(out / "bound_q.csv", DISTRIBUTIONS_HEADER, q_lines)
    _atomic_write_text(out / "manifest.json", manifest.to_json())
    return manifest


# ---------------------------------------------------------------------------
# Stored-distribution KL
# ---------------------------------------------------------------------------

_DISTRIBUTION_DTYPE = np.dtype([("m", np.int64), ("source", object), ("slot_index", np.int64), ("mass", np.float64)])
_CURVE_DTYPE = np.dtype([("m", np.int64)] + [(name, np.float64) for name in CURVE_HEADER[1:]])


def _checked_lines(fh: TextIO) -> Iterator[str]:
    """The lines of ``fh``; one long enough to hold a cell over ``csv.field_size_limit()`` is split to check."""
    limit = csv.field_size_limit()
    for line in fh:
        if len(line) > limit:
            next(csv.reader([line]))  # csv.Error on a cell over the limit
        yield line


def _read_columns(path: str | Path, header: Sequence[str], dtype: np.dtype, what: str) -> np.ndarray:
    """The columns of a CSV named by ``dtype``'s fields, found by name in its header, in one ``np.loadtxt`` pass.

    The file must have every column of ``header``, in any order.  Cells may
    be quoted, ``#`` is data, blank lines are skipped and extra cells are
    ignored; a short row or a cell that does not parse raises ConfigError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            index = {name: i for i, name in enumerate(next(csv.reader(fh), []))}
            if not set(header) <= index.keys():
                raise ConfigError(f"{path}: expected columns {list(header)}")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # the caller's to judge
            return np.loadtxt(
                _checked_lines(fh), dtype=dtype, delimiter=",", quotechar='"', comments=None,
                usecols=[index[name] for name in dtype.names], ndmin=1,
            )
    except (ValueError, csv.Error) as exc:
        raise ConfigError(f"{path}: malformed {what} row ({exc!r})") from exc


def read_distributions_csv(path: str | Path) -> dict[tuple[int, str], DiscreteDistribution]:
    """Load every (m, source) group from a distributions-schema CSV, in order of first appearance."""
    rows = _read_columns(path, DISTRIBUTIONS_HEADER, _DISTRIBUTION_DTYPE, "distribution")
    if not len(rows):
        raise ConfigError(f"{path}: no distributions found")
    m, source, slot = rows["m"], rows["source"], rows["slot_index"]
    # Runs of rows of one group: usually one run per group.
    starts = np.flatnonzero(np.r_[True, (m[1:] != m[:-1]) | (source[1:] != source[:-1])])
    ids: dict[tuple[int, str], int] = {}
    runs = [ids.setdefault(key, len(ids)) for key in zip(m[starts].tolist(), source[starts].tolist())]
    keys, row_group = list(ids), np.repeat(runs, np.diff(np.r_[starts, len(rows)]))
    sizes = np.bincount(row_group)
    ends = np.cumsum(sizes)
    # Each row's place once its group is sorted by slot; with no repeated slot,
    # the slots of a group of l rows run 0..l-1 when none lies outside them.
    outside = (slot < 0) | (slot >= sizes[row_group])
    place = (ends - sizes)[row_group] + slot
    if outside.any() or np.bincount(place, minlength=len(rows)).max() > 1:
        _, first, pair = np.unique(np.c_[row_group, slot], axis=0, return_index=True, return_inverse=True)
        repeats = np.flatnonzero(first[pair] != np.arange(len(rows)))
        if len(repeats):
            raise ConfigError(f"{path}: duplicate slot {slot[repeats[0]]} in group {keys[row_group[repeats[0]]]}")
        raise ConfigError(f"{path}: group {keys[row_group[outside].min()]} has non-contiguous slot indices")
    by_slot = np.empty(len(rows))
    by_slot[place] = rows["mass"]
    masses, bounds, groups = by_slot.tolist(), [0, *ends.tolist()], {}
    for key, a, b in zip(keys, bounds, bounds[1:]):
        try:
            groups[key] = DiscreteDistribution(tuple(masses[a:b]))
        except ValueError as exc:
            raise ConfigError(f"{path}: group {key}: {exc}") from exc
    return groups


def read_curve_csv(path: str | Path) -> list[dict]:
    """Load curve.csv rows as dicts with typed values."""
    return [dict(zip(CURVE_HEADER, row)) for row in _read_columns(path, CURVE_HEADER, _CURVE_DTYPE, "curve").tolist()]


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
    p_groups = read_distributions_csv(p_path)
    q_groups = p_groups if Path(p_path) == Path(q_path) else read_distributions_csv(q_path)
    p = _select_distribution(p_groups, m, p_source, "P", str(p_path))
    q = _select_distribution(q_groups, m, q_source, "Q", str(q_path))
    return kl_divergence(p, q)


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

def _parse_m_list(value: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}") from None


def _config_flags(path: str | Path, command: str) -> list[str]:
    """``command``'s key=value lines, JSON config or manifest as ``--key=value``
    flags: ``_`` becomes ``-``, and a JSON list a comma-joined value."""
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
        if isinstance(obj, dict) and obj.get("command", command) != command:
            raise ConfigError(f"{path}: manifest of a {obj['command']!r} run, not {command!r}")
        raw = obj.get("config", obj) if isinstance(obj, dict) else obj
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
    flags = []
    for key, value in raw.items():
        # A key names a flag exactly: no nested config, no dashed spelling.
        if key == "config" or "-" in key:
            raise ConfigError(f"{path}: unknown config key {key!r} for {command}")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ConfigError
    # instead so usage errors share the invalid-config exit code.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The one schema of each subcommand, for flags and config keys alike."""
    parser = _Parser(prog="paclab", description="Risk-bound simulation lab for PAC-learnable tasks.")
    parser.add_argument("--version", action="version", version=f"paclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviated flags: a config key must name its flag exactly.
    exp = sub.add_parser("experiment", help="run a learning-curve experiment", allow_abbrev=False)
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

    bnd = sub.add_parser("bound", help="tabulate a theoretical bound", allow_abbrev=False)
    bnd.add_argument("--kind", choices=["finite-h", "vc"])
    bnd.add_argument("--h-size", dest="h_size", type=float, help="|H| for the finite-h kind")
    bnd.add_argument("--log-h-size", dest="log_h_size", type=float, help="ln|H|, for sizes too large to store")
    bnd.add_argument("--vc-dim", dest="vc_dim", type=int, help="VC dimension for the vc kind")
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
    given = {key: value for key, value in vars(args).items() if value is not None}
    task_name = given.get("task", "conjunction")
    other_key = "vc_dim" if task_name == "conjunction" else "n"
    if other_key in given:
        raise ConfigError(f"{other_key} does not apply to the {task_name} task")
    opts = _TASK_DEFAULTS[task_name] | _COMMON_DEFAULTS | given
    if "seed" not in opts:
        env = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            opts["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    task = ConjunctionTask(n=opts["n"]) if task_name == "conjunction" else ThresholdTask(vc_dim=opts["vc_dim"])
    config = ExperimentConfig(
        task=task,
        num_slots=opts["slots"],
        trials=opts["trials"],
        m_start=opts["m_start"],
        m_step=opts["m_step"],
        m_max=opts["m_max"],
        master_seed=opts["seed"],
        fixed_target=(opts["gt_mode"] == "fixed"),
    )
    manifest = cmd_experiment(config, opts["out_dir"])
    print(f"wrote {', '.join(sorted(manifest.outputs.values()))} to {opts['out_dir']}")
    return 0


def _handle_bound(args: argparse.Namespace) -> int:
    opts = _BOUND_DEFAULTS | {key: value for key, value in vars(args).items() if value is not None}
    if opts["kind"] == "finite-h" and "h_size" not in opts and "log_h_size" not in opts:
        opts["h_size"] = 1e9
    manifest = cmd_bound(
        opts["kind"],
        opts["m"],
        opts["out_dir"],
        h_size=opts.get("h_size"),
        log_h_size=opts.get("log_h_size"),
        vc_dim=opts.get("vc_dim"),
        slots=opts["slots"],
    )
    print(f"wrote {', '.join(sorted(manifest.outputs.values()))}")
    return 0


def _handle_kl(args: argparse.Namespace) -> int:
    value = cmd_kl(args.p_csv, args.q_csv, m=args.m, p_source=args.p_source, q_source=args.q_source)
    print(f"{value:.17g}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            file_flags = _config_flags(args.config, args.command)
            try:
                parser.parse_args([args.command, *file_flags])
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: {exc}") from exc
            args = parser.parse_args([args.command, *file_flags, *argv[1:]])
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"paclab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"paclab: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
