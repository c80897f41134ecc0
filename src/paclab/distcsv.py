"""Reading a distributions-schema CSV back into its (m, source) groups.

Only ``paclab.cli.read_distributions_csv`` imports this module, when it is
called, so the commands that read no CSV pay for compiling neither it nor
``csv``.  ``np.loadtxt`` parses the file in blocks of ``_BLOCK_ROWS`` rows,
each call reading on from one iterator of its checked lines.  A block's
rows are copied, group by group, into pieces that belong to their group,
and the block is freed: what is held follows the groups (a slot index and a
mass a row), not the rows of the whole file.
"""

from __future__ import annotations

import csv
import re
import warnings
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

import numpy as np

from . import DISTRIBUTIONS_HEADER, ConfigError
from .theory import DiscreteDistribution

__all__ = ["read_groups"]

# Rows a loadtxt call parses; a gathered row's place in its block must fit the offsets' uint16.
_BLOCK_ROWS = 1 << 14
_DISTRIBUTION_DTYPE = np.dtype([("m", np.int64), ("source", object), ("slot_index", np.int64), ("mass", np.float64)])

_Key = tuple[int, str]


class _Piece(NamedTuple):
    """Copies of one group's rows of one block, in file order.  Its row ``j`` is
    the file's data row ``start + j``, or ``start + offsets[j]`` when the rows were gathered."""

    start: int
    offsets: np.ndarray | None
    slots: np.ndarray
    masses: np.ndarray

    def rows(self) -> np.ndarray:
        return self.start + (np.arange(len(self.slots)) if self.offsets is None else self.offsets.astype(np.int64))


def _checked_lines(fh: TextIO) -> Iterator[str]:
    """The lines of ``fh``; one long enough to hold a cell over ``csv.field_size_limit()`` is split to check."""
    limit = csv.field_size_limit()
    for line in fh:
        if len(line) > limit:
            next(csv.reader([line]))  # csv.Error on a cell over the limit
        yield line


def _add_block(groups: dict[_Key, list[_Piece]], start: int, rows: np.ndarray) -> int:
    """Copies the parsed ``rows``, the file's data rows from ``start`` on, into
    pieces of their groups, and returns their count.  A group whose rows are one
    run of the block takes them as a slice; otherwise a stable sort gathers them."""
    if not len(rows):
        return 0
    m, source, slot, mass = rows["m"], rows["source"], rows["slot_index"], rows["mass"]
    if slot.min() >= 0 and slot.max() <= np.iinfo(np.uint16).max:  # exact, and a quarter of the bytes
        slot = slot.astype(np.uint16)
    starts = np.flatnonzero(np.r_[True, (m[1:] != m[:-1]) | (source[1:] != source[:-1])])
    # A run's key is kept only when it starts a group: a shuffled block has thousands of runs.
    ids: dict[_Key, int] = {}
    runs = np.fromiter((ids.setdefault(key, len(ids)) for key in zip(m[starts].tolist(), source[starts].tolist())),
                       np.int64, len(starts))
    if len(ids) == len(runs):
        bounds = [*starts.tolist(), len(rows)]
        for key, lo, hi in zip(ids, bounds, bounds[1:]):
            groups.setdefault(key, []).append(_Piece(start + lo, None, slot[lo:hi].copy(), mass[lo:hi].copy()))
        return len(rows)
    # A stable sort of ids of 16 bits or less is a radix sort.
    row_group = np.repeat(runs.astype(np.min_scalar_type(len(ids))), np.diff(np.r_[starts, len(rows)]))
    order = np.argsort(row_group, kind="stable")
    for key, picks in zip(ids, np.split(order, np.cumsum(np.bincount(row_group))[:-1])):
        groups.setdefault(key, []).append(_Piece(start, picks.astype(np.uint16), slot[picks], mass[picks]))
    return len(rows)


def _read_pieces(path: str | Path) -> dict[_Key, list[_Piece]]:
    """Each (m, source) group's pieces, in order of first appearance, from the
    distribution columns of a CSV, found by name in its header.

    The file must have every column of ``DISTRIBUTIONS_HEADER``, in any
    order.  Cells may be quoted, ``#`` is data, blank lines are skipped and
    extra cells are ignored; a short row or a cell that does not parse
    raises ConfigError, naming the row as one ``np.loadtxt`` pass would.
    NumPy reads the rows as ``fh``'s checked lines, so a pipe is read once
    and a name is only a path.
    """
    groups: dict[_Key, list[_Piece]] = {}
    start = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            index = {name: i for i, name in enumerate(next(csv.reader(fh), []))}
            if not set(DISTRIBUTIONS_HEADER) <= index.keys():
                raise ConfigError(f"{path}: expected columns {DISTRIBUTIONS_HEADER}")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # the caller's to judge
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data and will not be counted towards `max_rows")
            lines, usecols = _checked_lines(fh), [index[name] for name in _DISTRIBUTION_DTYPE.names]
            while True:  # each block is referenced by _add_block alone, so it is freed before the next is parsed
                count = _add_block(groups, start, np.loadtxt(
                    lines, dtype=_DISTRIBUTION_DTYPE, delimiter=",", quotechar='"', comments=None,
                    encoding="utf-8", usecols=usecols, ndmin=1, max_rows=_BLOCK_ROWS,
                ))
                start += count
                if count < _BLOCK_ROWS:
                    return groups
    except (ValueError, csv.Error) as exc:  # a UnicodeDecodeError's repr quotes the decoder's whole chunk
        detail = exc.reason if isinstance(exc, UnicodeDecodeError) else repr(exc)
        # NumPy numbers the rows of each call from 0; its row number is the last "at row" of the message.
        detail = re.sub(r"(.*at row )(\d+)", lambda match: f"{match[1]}{int(match[2]) + start}", detail, count=1, flags=re.S)
        raise ConfigError(f"{path}: malformed distribution row ({detail})") from exc


def _slot_error(path: str | Path, key: _Key, groups: dict[_Key, list[_Piece]]) -> ConfigError:
    """The first slot in file order that repeats one of its group's, among ``groups``
    (the groups not yet built), else ``key``'s non-contiguous slot indices."""
    first = None
    for group, pieces in groups.items():
        slots = np.concatenate([piece.slots for piece in pieces])
        _, once = np.unique(slots, return_index=True)
        repeats = np.setdiff1d(np.arange(len(slots)), once)
        if len(repeats):
            found = (np.concatenate([piece.rows() for piece in pieces])[repeats[0]], slots[repeats[0]], group)
            first = found if first is None or found < first else first
    if first:
        return ConfigError(f"{path}: duplicate slot {first[1]} in group {first[2]}")
    return ConfigError(f"{path}: group {key} has non-contiguous slot indices")


def read_groups(path: str | Path) -> dict[_Key, DiscreteDistribution]:
    """Load every (m, source) group from a distributions-schema CSV, in order of first appearance."""
    groups = _read_pieces(path)
    if not groups:
        raise ConfigError(f"{path}: no distributions found")
    # Each group is checked and built in turn, then its pieces are freed; its l slots
    # must be 0..l-1 once each, and a bad mass waits for every group's slots.
    built, error = {}, None
    for key in list(groups):
        slots = np.concatenate([piece.slots for piece in groups[key]])
        if slots.min() < 0 or slots.max() >= len(slots) or np.bincount(slots).max() > 1:
            raise _slot_error(path, key, groups)
        masses = np.empty(len(slots))
        for piece in groups.pop(key):
            masses[piece.slots] = piece.masses
        try:
            built[key] = DiscreteDistribution(masses)
        except ValueError as exc:
            error = error or ConfigError(f"{path}: group {key}: {exc}")
    if error:
        raise error
    return built
