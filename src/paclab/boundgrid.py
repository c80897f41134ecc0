"""The rows of ``bound_grid.csv``, formatted on two CPUs where the grid is large.

Only ``cmd_bound`` imports this module, so the other commands do not pay
for compiling it.  A worker forked through :func:`paclab.empirics._forked`
formats the back half of the blocks into a memfd while the caller goes on;
the bytes are the same however the blocks are split.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, contextmanager
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import empirics
from .theory import BoundSpec, bound_cdf, bound_density

__all__ = ["bound_grid_blocks", "split_blocks"]

# Blocks of fewer rows in all are formatted by this process alone.  Formatting
# the bound grid's rows (about 1.2 us each) on two CPUs broke even with one at
# about 8,000 rows, the fork and the wait costing about 3-4 ms.
_MIN_SPLIT_ROWS = 10_000


@contextmanager
def split_blocks(block: Callable[[object], str], items: Sequence, item_rows: int) -> Iterator[Iterator[str]]:
    """Yields an iterator of ``block(item)`` for each item of ``items`` in turn, blocks
    of ``item_rows`` rows.  Where ``_MIN_SPLIT_ROWS`` rows and two CPUs allow, entering
    forks a worker that formats the back half while the caller goes on; leaving reaps it."""
    # The worker writes its blocks to a memfd, then sets a done byte; blocks not marked
    # done (the worker failed or was not forked) are formatted here: the same text.
    half = len(items) // 2 if len(items) * item_rows >= _MIN_SPLIT_ROWS and empirics._usable_cpus() >= 2 else len(items)
    front, back = items[:half], items[half:]
    with open(os.memfd_create("paclab-blocks"), "w+b") as memfd:  # a done byte, then the worker's text

        def work() -> None:
            memfd.seek(1)
            memfd.writelines(map(str.encode, map(block, back)))
            memfd.flush()
            os.pwrite(memfd.fileno(), b"\1", 0)

        def blocks() -> Iterator[str]:
            yield from map(block, front)
            wait()
            if os.pread(memfd.fileno(), 1, 0) != b"\1":
                yield from map(block, back)
            else:
                memfd.seek(1)
                yield from map(bytes.decode, iter(partial(memfd.read, 1 << 16), b""))

        with empirics._forked(1 if back else 0, work) as wait:
            yield blocks()


def bound_grid_blocks(specs: Sequence[BoundSpec], grid: np.ndarray) -> AbstractContextManager[Iterator[str]]:
    """The ``bound_grid.csv`` rows ``m,eps,cdf,density`` of each spec on ``grid``, a
    block a spec, reals as ``%.17g`` and a CDF of 1.0 as ``1``, through :func:`split_blocks`."""
    eps_cells = ["%.17g," % eps for eps in grid.tolist()]

    def block(spec: BoundSpec) -> str:
        rows = [
            "%s1,%.17g\n" % (eps, density) if cdf == 1.0 else "%s%.17g,%.17g\n" % (eps, cdf, density)
            for eps, cdf, density in zip(eps_cells, bound_cdf(spec, grid).tolist(), bound_density(spec, grid).tolist())
        ]
        head = "%d," % spec.m
        return head + head.join(rows)

    return split_blocks(block, specs, len(grid))
