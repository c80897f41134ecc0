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
from contextlib import closing
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .analysis import kl_divergence, moments
from .empirics import _MAX_RANGES, ExperimentConfig, Task, histogram, run_trials, schedule_losses
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

DISTRIBUTIONS_HEADER = ["m", "source", "slot_index", "slot_lo", "slot_hi", "mass"]
CURVE_HEADER = ["m", "mean_p", "std_p", "mean_q", "std_q", "kl"]


class ConfigError(Exception):
    """Invalid configuration or unusable input data (exit code 1)."""


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
    """Estimated peak memory of ``cmd_bound`` over ``m_count`` sample sizes: its CSV rows."""
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

    grid = np.linspace(0.0, _GRID_TOP, _GRID_POINTS)
    eps_cells = [f"{eps:.17g}," for eps in grid.tolist()]
    cells = _slot_cells(slots)
    grid_lines = []
    summary_lines = []
    q_lines = []
    for m, spec in zip(m_list, specs):
        rows = [
            f"{eps}1,{density:.17g}\n" if cdf == 1.0 else f"{eps}{cdf:.17g},{density:.17g}\n"
            for eps, cdf, density in zip(eps_cells, bound_cdf(spec, grid).tolist(), bound_density(spec, grid).tolist())
        ]
        head = f"{m},"
        grid_lines.append(head + head.join(rows))
        summary_lines.append("%d,%.17g,%.17g\n" % (m, cutoff(spec), bound_point_mass(spec)))
        q_lines.append(_distribution_lines(m, "Q", discretize_bound(spec, slots), *cells))

    return _write_run(out_dir, "bound", echo, {
        "grid": ("bound_grid.csv", ["m", "eps", "cdf", "density"], grid_lines),
        "summary": ("bound_summary.csv", ["m", "cutoff", "point_mass"], summary_lines),
        "distributions": ("bound_q.csv", DISTRIBUTIONS_HEADER, q_lines),
    })


# ---------------------------------------------------------------------------
# Stored-distribution KL
# ---------------------------------------------------------------------------

_DISTRIBUTION_DTYPE = np.dtype([("m", np.int64), ("source", object), ("slot_index", np.int64), ("mass", np.float64)])


def _checked_lines(fh: TextIO) -> Iterator[str]:
    """The lines of ``fh``; one long enough to hold a cell over ``csv.field_size_limit()`` is split to check."""
    limit = csv.field_size_limit()
    for line in fh:
        if len(line) > limit:
            next(csv.reader([line]))  # csv.Error on a cell over the limit
        yield line


def _by_name(path: str | Path) -> bool:
    """Whether ``np.loadtxt`` reading ``path`` by name, in chunks, gets what its lines would give it.

    Not for a pipe (it reads once), a suffix NumPy decompresses, a byte that
    is not ASCII (a decode error would quote other bytes), a CR in a file with
    a quote (NumPy reads a quoted CR as LF), or a line of ``csv.field_size_limit()``
    bytes before its LF, CR or CRLF: only such a line can hold a cell over the
    limit, which NumPy does not check.  In blocks of at most the limit, only a
    line across a block boundary can be that long.
    """
    if not os.path.isfile(path) or str(path).endswith((".gz", ".bz2", ".xz", ".lzma")):
        return False
    limit, run, crs, quotes = csv.field_size_limit(), 0, 0, 0  # run: bytes since the last line end
    with open(path, "rb") as raw:
        while block := raw.read(min(limit, 1 << 20)):
            if b"\r" in block:
                crs, block = crs + 1, block.replace(b"\r", b"\n")
            first, last = block.find(b"\n"), block.rfind(b"\n")
            if not block.isascii() or run + (first if first >= 0 else len(block)) >= limit:
                return False
            run = len(block) - 1 - last if last >= 0 else run + len(block)
            quotes += b'"' in block
    return not (crs and quotes)


def _read_columns(path: str | Path) -> np.ndarray:
    """The distribution columns of a CSV, found by name in its header, in one ``np.loadtxt`` pass.

    The file must have every column of ``DISTRIBUTIONS_HEADER``, in any
    order.  Cells may be quoted, ``#`` is data, blank lines are skipped and
    extra cells are ignored; a short row or a cell that does not parse
    raises ConfigError.  NumPy reads the rows by name if it can, else as
    ``fh``'s checked lines.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            reader = csv.reader(fh)
            index = {name: i for i, name in enumerate(next(reader, []))}
            if not set(DISTRIBUTIONS_HEADER) <= index.keys():
                raise ConfigError(f"{path}: expected columns {DISTRIBUTIONS_HEADER}")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # the caller's to judge
            # skiprows counts lines, not rows; abspath, as NumPy would fetch a name that parses as a URL.
            data, skip = (os.path.abspath(path), reader.line_num) if _by_name(path) else (_checked_lines(fh), 0)
            return np.loadtxt(
                data, dtype=_DISTRIBUTION_DTYPE, delimiter=",", quotechar='"', comments=None, skiprows=skip,
                encoding="utf-8", usecols=[index[name] for name in _DISTRIBUTION_DTYPE.names], ndmin=1,
            )
    except (ValueError, csv.Error) as exc:  # a UnicodeDecodeError's repr quotes the decoder's whole chunk
        detail = exc.reason if isinstance(exc, UnicodeDecodeError) else repr(exc)
        raise ConfigError(f"{path}: malformed distribution row ({detail})") from exc


def read_distributions_csv(path: str | Path) -> dict[tuple[int, str], DiscreteDistribution]:
    """Load every (m, source) group from a distributions-schema CSV, in order of first appearance."""
    rows = _read_columns(path)
    if not len(rows):
        raise ConfigError(f"{path}: no distributions found")
    m, source, slot = rows["m"], rows["source"], rows["slot_index"]
    # Runs of rows of one group: one run per group in every file paclab writes.
    starts = np.flatnonzero(np.r_[True, (m[1:] != m[:-1]) | (source[1:] != source[:-1])])
    ids = {}
    runs = np.array([ids.setdefault(key, len(ids)) for key in zip(m[starts].tolist(), source[starts].tolist())],
                    np.min_scalar_type(len(ids)))  # a stable sort of ids of 16 bits or less is a radix sort
    keys, sizes = list(ids), np.diff(np.r_[starts, len(rows)])
    if len(runs) == len(keys):  # a group's rows: a slice of the file, else their indices in file order
        picks = map(slice, starts, starts + sizes)
    else:
        row_group = np.repeat(runs, sizes)
        picks = np.split(np.argsort(row_group, kind="stable"), np.cumsum(np.bincount(row_group))[:-1])
    # Each group is built in turn; its l slots must be 0..l-1 once each, and a bad mass waits for every group's slots.
    groups, error = {}, None
    for key, index in zip(keys, picks):
        slots = slot[index]
        if slots.min() < 0 or slots.max() >= len(slots) or np.bincount(slots).max() > 1:
            row_group = np.repeat(runs, sizes)
            _, first = np.unique(np.c_[row_group, slot], axis=0, return_index=True)
            repeats = np.setdiff1d(np.arange(len(slot)), first)
            if len(repeats):
                raise ConfigError(f"{path}: duplicate slot {slot[repeats[0]]} in group {keys[row_group[repeats[0]]]}")
            raise ConfigError(f"{path}: group {key} has non-contiguous slot indices")
        masses = np.empty(len(slots))
        masses[slots] = rows["mass"][index]
        try:
            groups[key] = DiscreteDistribution(masses)
        except ValueError as exc:
            error = error or ConfigError(f"{path}: group {key}: {exc}")
    if error:
        raise error
    return groups


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


if __name__ == "__main__":
    sys.exit(main())
