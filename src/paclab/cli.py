"""Command-line front end: run experiments, tabulate bounds, recompute KL.

Three subcommands:

* ``experiment`` runs a full learning-curve experiment (trials, empirical
  histograms, discretized bounds, curve statistics) and writes
  ``distributions.csv``, ``curve.csv``, and ``manifest.json``.
* ``bound`` tabulates a single bound family: CDF/density on a fixed grid,
  cutoff and point mass per sample size, and the discretized slot masses;
  on two usable CPUs a forked worker formats the back half of a large grid.
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
2 I/O failure, 3 a NumPy whose random streams the trial engine does not
reproduce.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import DISTRIBUTIONS_HEADER, ConfigError, __version__
from .analysis import kl_divergence, moments
from .empirics import _MAX_RANGES, ExperimentConfig, NumpyMismatch, Task, histogram, run_trials, schedule_losses
from .learners import ConjunctionTask, ThresholdTask
from .theory import BoundSpec, DiscreteDistribution, bound_point_mass, cutoff, discretize_bound

__all__ = [
    "ConfigError",
    "cmd_bound",
    "cmd_experiment",
    "cmd_kl",
    "main",
    "read_distributions_csv",
    "run_experiment",
    "task_bound_spec",
]

# Built-in experiment defaults; the sample-size schedule depends on the task.
_TASK_DEFAULTS = {
    "conjunction": {"n": 10, "m_start": 25, "m_step": 25, "m_max": 1250},
    "threshold": {"vc_dim": 1, "m_start": 20, "m_step": 20, "m_max": 1000},
}
_COMMON_DEFAULTS = {"slots": 100, "trials": 1000, "seed": 2024, "gt_mode": "per-trial", "out_dir": "paclab-out"}
_BOUND_DEFAULTS = {"kind": "finite-h", "m": [22, 35, 100], "slots": 100, "out_dir": "paclab-out"}

_GRID_POINTS = 1000
_GRID_TOP = 1.1

# A run whose estimated peak memory is above this exits 1 before it creates
# a directory or runs a trial.  The per-item costs are rounded up from peaks
# measured on CPython 3.11 with NumPy 2.4, or kept from older, higher ones.
# A CSV row costs about 110 bytes in an experiment and 45 in the bound tables
# (200 while a file was held as one string).  A trial of a range costs 20-40
# bytes plus 50 per conjunction variable (240 while a range's state words were
# derived at once).  Each process holds one range's trials and a draw buffer
# (a row and its decoded copies); the schedule's losses share one 8-byte-a-trial buffer.
SIZE_BUDGET_BYTES = 2 << 30
_ROW_BYTES = 256
_TRIAL_BYTES = 256
_VARIABLE_BYTES = 48
_DRAW_COPIES = 8

CURVE_HEADER = ["m", "mean_p", "std_p", "mean_q", "std_q", "kl"]


# ---------------------------------------------------------------------------
# Formatting and atomic file output
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str, blocks: Iterable[str] = ()) -> None:
    """Streams ``text``, then ``blocks``, into a temp file next to ``path``, then renames it to ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.writelines(blocks)
    os.replace(tmp, path)


def _write_run(out_dir: str | Path, command: str, echo: dict, tables: dict[str, tuple]) -> dict:
    """Makes ``out_dir``, writes each ``name: (file, header, blocks)`` table, then
    the manifest, and returns it: everything needed to reproduce the run.

    Every row of a block ends in a newline, and no cell needs quoting: each
    is a number or a P/Q source tag.  ``blocks`` may be a generator, drawn
    one block at a time.  A run that fails before this call leaves no directory.
    """
    outputs = {name: filename for name, (filename, _, _) in tables.items()} | {"manifest": "manifest.json"}
    manifest = {"command": command, "version": __version__, "config": echo, "outputs": outputs}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for filename, header, blocks in tables.values():
        _atomic_write(out / filename, ",".join(header) + "\n", blocks)
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

_LN3 = math.log(3.0)


def task_bound_spec(task: Task, m: int) -> BoundSpec:
    """Theoretical bound matched to a task: |H| = 3**n, or the threshold task's VC dimension."""
    if isinstance(task, ConjunctionTask):
        return BoundSpec.finite_h(m=m, log_h_size=task.n * _LN3)
    return BoundSpec.finite_vc(m=m, vc_dim=task.vc_dim)


def run_experiment(config: ExperimentConfig) -> list[tuple[int, DiscreteDistribution, DiscreteDistribution]]:
    """``(m, P, Q)`` for every scheduled m, in schedule order: the empirical
    loss histogram P and the discretized bound Q, on one slot count.

    The trials of the whole schedule are shared between the usable CPUs by
    workers forked and reaped inside its first ``run_trials`` call.  The
    queue's memfd is closed on return, and when any step raises.
    """
    results = []
    schedule = config.schedule()
    pool = schedule_losses(config.task, schedule, config.trials, config.master_seed, fixed_target=config.fixed_target)
    with closing(pool):
        for m in schedule:
            batch = run_trials(config.task, m, config.trials, config.master_seed, fixed_target=config.fixed_target, pool=pool)
            p = histogram(batch.losses, config.num_slots)
            results.append((m, p, discretize_bound(task_bound_spec(config.task, m), config.num_slots)))
    return results


def _experiment_bytes(config: ExperimentConfig) -> int:
    """Estimated peak memory of ``cmd_experiment(config)`` over the most processes the
    engine runs, whatever the CPU count: its CSV rows, trials, draw buffers and losses."""
    sizes = len(config.schedule())
    per_trial = _TRIAL_BYTES + (_VARIABLE_BYTES * config.task.n if isinstance(config.task, ConjunctionTask) else 0)
    width = config.task.draw_width(config.m_max, config.fixed_target)
    draw_buffers = _MAX_RANGES * _DRAW_COPIES * 8 * width
    return sizes * (2 * config.num_slots + 1) * _ROW_BYTES + config.trials * per_trial + draw_buffers + 8 * config.trials * sizes


def _bound_bytes(m_count: int, slots: int) -> int:
    """Estimated peak memory of ``cmd_bound`` over ``m_count`` sample sizes and the most
    processes it runs, whatever the CPU count: its CSV rows, which cover the grid worker too."""
    return m_count * (_GRID_POINTS + 1 + slots) * _ROW_BYTES


def _check_size(estimate: int) -> None:
    if estimate > SIZE_BUDGET_BYTES:
        raise ConfigError(
            f"run needs an estimated {estimate >> 20:,} MiB, over the {SIZE_BUDGET_BYTES >> 20:,} MiB budget;"
            " lower the slots, trials or sample sizes"
        )


def _slot_cells(num_slots: int) -> tuple[list[str], list[str]]:
    """The ``slot_index,slot_lo,slot_hi,`` cells of every slot, edges ``i/l`` and
    ``(i+1)/l`` (each edge formatted once), and each slot's row body for a mass of +0.0."""
    edges = [f"{i / num_slots:.17g}" for i in range(num_slots + 1)]
    prefixes = [f"{i},{lo},{hi}," for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    return prefixes, [f"{prefix}0\n" for prefix in prefixes]


def _distribution_lines(
    m: int, source: str, dist: DiscreteDistribution, prefixes: list[str], zero_rows: list[str]
) -> str:
    """The rows of one (m, source) group.  A mass of +0.0 takes its slot's
    precomputed body; only the others, -0.0 among them, are formatted."""
    masses, rows = dist.masses, zero_rows.copy()
    slots = np.flatnonzero((masses != 0.0) | np.signbit(masses))
    for i, mass in zip(slots.tolist(), masses[slots].tolist()):
        rows[i] = f"{prefixes[i]}{mass:.17g}\n"
    head = f"{m},{source},"
    return head + head.join(rows)


def cmd_experiment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Run the experiment and write distributions.csv, curve.csv, manifest.json.

    A run over the size budget fails before any trial.
    """
    _check_size(_experiment_bytes(config))
    results = run_experiment(config)

    cells = _slot_cells(config.num_slots)
    dist_blocks = (
        _distribution_lines(m, source, dist, *cells) for m, p, q in results for source, dist in (("P", p), ("Q", q))
    )
    curve_lines = [
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (m, *moments(p), *moments(q), kl_divergence(p, q))
        for m, p, q in results
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
    return _write_run(out_dir, "experiment", echo, {
        "distributions": ("distributions.csv", DISTRIBUTIONS_HEADER, dist_blocks),
        "curve": ("curve.csv", CURVE_HEADER, curve_lines),
    })


# ---------------------------------------------------------------------------
# Bound tabulation
# ---------------------------------------------------------------------------

def cmd_bound(
    kind: str,
    m_list: Sequence[int],
    out_dir: str | Path,
    *,
    h_size: float | None = None,
    log_h_size: float | None = None,
    vc_dim: int | None = None,
    slots: int = 100,
) -> dict:
    """Tabulate CDF/density curves, cutoffs, atoms, and slot masses per m.

    Writes bound_grid.csv (m, eps, cdf, density on a fixed grid over
    [0, 1.1]), bound_summary.csv (m, cutoff, point_mass), bound_q.csv
    (discretized slot masses, same schema as distributions.csv), and a
    manifest; a bad parameter (a repeated m too) or a run over the size
    budget fails before any work and before the directory is created.
    With two usable CPUs, a worker formats the back half of a large grid
    while this process does the rest (``boundgrid.split_blocks``); the bytes
    are the same, and ``taskset -c 0`` keeps the run in one process.
    """
    if not m_list:
        raise ConfigError("need at least one sample size m")
    if len(set(m_list)) < len(m_list):
        raise ConfigError(f"sample sizes must not repeat, got {list(m_list)}")
    _check_size(_bound_bytes(len(m_list), slots))
    echo: dict = {"kind": kind, "slots": slots, "m": list(m_list)}
    if kind == "finite-h":
        if vc_dim is not None:
            raise ConfigError("vc_dim does not apply to the finite-h bound")
        if h_size is None and log_h_size is None:
            raise ConfigError("finite-h bound needs --h-size or --log-h-size")
        specs = [BoundSpec.finite_h(m=m, h_size=h_size, log_h_size=log_h_size) for m in m_list]
        if h_size is not None:
            echo["h_size"] = float(h_size)
        else:
            echo["log_h_size"] = float(log_h_size)
    elif kind == "vc":
        if h_size is not None or log_h_size is not None:
            raise ConfigError("h_size and log_h_size do not apply to the vc bound")
        if vc_dim is None:
            raise ConfigError("vc bound needs --vc-dim")
        specs = [BoundSpec.finite_vc(m=m, vc_dim=vc_dim) for m in m_list]
        echo["vc_dim"] = vc_dim
    else:
        raise ConfigError(f"unknown bound kind {kind!r}")
    if slots < 2:
        raise ConfigError("need at least 2 slots")

    cells = _slot_cells(slots)
    from .boundgrid import bound_grid_blocks  # compiled by this command alone

    with bound_grid_blocks(specs, np.linspace(0.0, _GRID_TOP, _GRID_POINTS)) as grid_lines:
        summary_lines = ["%d,%.17g,%.17g\n" % (m, cutoff(spec), bound_point_mass(spec)) for m, spec in zip(m_list, specs)]
        q_lines = [_distribution_lines(m, "Q", discretize_bound(spec, slots), *cells) for m, spec in zip(m_list, specs)]
        return _write_run(out_dir, "bound", echo, {
            "grid": ("bound_grid.csv", ["m", "eps", "cdf", "density"], grid_lines),
            "summary": ("bound_summary.csv", ["m", "cutoff", "point_mass"], summary_lines),
            "distributions": ("bound_q.csv", DISTRIBUTIONS_HEADER, q_lines),
        })


# ---------------------------------------------------------------------------
# Stored-distribution KL
# ---------------------------------------------------------------------------

def read_distributions_csv(path: str | Path) -> dict[tuple[int, str], DiscreteDistribution]:
    """Load every (m, source) group from a distributions-schema CSV, in order of first appearance."""
    from .distcsv import read_groups  # compiled by kl alone

    return read_groups(path)


def _select_distribution(
    groups: dict[tuple[int, str], DiscreteDistribution],
    m: int | None,
    source: str | None,
    default_source: str,
    label: str,
) -> DiscreteDistribution:
    keys = [k for k in groups if m in (None, k[0]) and source in (None, k[1])]
    if source is None and len(keys) > 1:
        keys = [k for k in keys if k[1] == default_source] or keys
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # its str quotes no path
        raise ConfigError(f"{path}: not UTF-8 at byte {exc.start} ({exc.reason})") from exc
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
            value = ",".join(map(str, value))
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
    exp.add_argument("--seed", type=int, help="master seed")
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
    print(f"wrote {', '.join(sorted(manifest['outputs'].values()))} to {opts['out_dir']}")
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
    print(f"wrote {', '.join(sorted(manifest['outputs'].values()))}")
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
    except NumpyMismatch as exc:  # each message names the NumPy version
        print(f"paclab: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
