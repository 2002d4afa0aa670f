"""An ordered map of a function over fixed-size blocks of a range, on every CPU.

Row formatting in the CLI and the nearest-point solve both work on blocks
of BLOCK items; only row formatting goes through the pool.  The solve is
cheap enough per point that forking would cost more than it saves, so
``spiral.nearest_distances`` loops over its blocks in-process.

``map_blocks`` yields a function's result for each block in order.  With
more than one block, more than one CPU and the ``fork`` start method, the
blocks run in a pool of forked worker processes, one per CPU this process
may use; otherwise they run in-process.  The workers inherit the function
and its data by fork, so only block start indices and results cross the
pipes.

The pool names ``fork`` rather than taking the platform default because
Python 3.14 changes that default to ``forkserver``, which would pickle the
function and everything it holds.  On Python >= 3.12 ``os.fork`` warns
(DeprecationWarning) when the process already runs threads, as numpy's
OpenBLAS does once loaded; the workers only slice numpy arrays and format
strings, never BLAS.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

#: Items per block: rows of one CLI write, points of one nearest-point solve.
BLOCK = 1 << 14
#: Blocks submitted and not yet yielded, per worker; bounds memory behind a slow consumer.
IN_FLIGHT_PER_WORKER = 2

_block_fn = None  # set in each worker by _install


def cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity: macOS, Windows
        return 1


def _install(fn) -> None:
    import signal  # here, not at import time: only workers need it

    global _block_fn
    _block_fn = fn
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle


def _call(start: int):
    return _block_fn(start)


def map_blocks(fn: Callable[[int], T], total: int) -> Iterator[T]:
    """Yield fn(start) for each start in range(0, total, BLOCK), in order.

    In a pool, at most IN_FLIGHT_PER_WORKER blocks per worker are submitted
    ahead of the consumer, so memory stays O(workers * BLOCK) however
    slowly the results are consumed.  An exception raised by fn surfaces
    from the iteration as it does in-process.  Closing the iterator early
    (``contextlib.closing``) cancels the blocks not yet started and waits
    only for those running.
    """
    starts = range(0, total, BLOCK)
    workers = cpu_count() if len(starts) > 1 else 1
    if workers > 1:
        import multiprocessing  # lazily: one-block and one-CPU runs never pay for it

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        for start in starts:
            yield fn(start)
        return

    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _install, (fn,))
    try:
        pending = deque()
        for start in starts:
            pending.append(pool.submit(_call, start))
            if len(pending) == IN_FLIGHT_PER_WORKER * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
