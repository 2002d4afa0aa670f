"""The ordered block map: the same results in the same order at every CPU count.

The CPU count is monkeypatched to force the pool on any machine (and the
in-process path on a multi-core one); a run with more workers than CPUs is
slower but must give the same results.
"""

import multiprocessing
import os

import numpy as np
import pytest

from polyspiral import blocks
from polyspiral.blocks import BLOCK, map_blocks

CPU_COUNTS = (1, 2, 3)


@pytest.fixture(params=CPU_COUNTS, ids=lambda n: f"cpus{n}")
def cpus(request, monkeypatch):
    monkeypatch.setattr(blocks, "cpu_count", lambda: request.param)
    return request.param


@pytest.mark.parametrize("total", [0, 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 7 * BLOCK - 5])
def test_results_in_order(cpus, total):
    data = np.arange(total, dtype=float) ** 0.5
    results = list(map_blocks(lambda start: data[start : start + BLOCK].copy(), total))
    assert len(results) == -(-total // BLOCK)
    assert np.array_equal(np.concatenate(results) if results else data, data)
    assert multiprocessing.active_children() == []


def test_runs_in_workers_only_with_several_blocks_and_cpus(cpus):
    parent = os.getpid()
    one = list(map_blocks(lambda start: os.getpid(), BLOCK))
    several = list(map_blocks(lambda start: os.getpid(), 3 * BLOCK))
    assert one == [parent]
    assert (set(several) == {parent}) == (cpus == 1)


def test_worker_exception_surfaces_as_in_process(cpus):
    def fn(start):
        if start == 2 * BLOCK:
            raise ValueError(f"bad block at {start}")
        return start

    seen = []
    with pytest.raises(ValueError, match=f"^bad block at {2 * BLOCK}$"):
        for start in map_blocks(fn, 6 * BLOCK):
            seen.append(start)
    assert seen == [0, BLOCK]
    assert multiprocessing.active_children() == []


def test_closing_early_stops_the_workers(cpus):
    results = map_blocks(lambda start: start, 50 * BLOCK)
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []
