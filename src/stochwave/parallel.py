"""Deterministic worker-pool helper: results depend only on the task list."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

__all__ = ["parallel_map"]


def parallel_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """Map fn over tasks, in-process when workers <= 1.

    ``fn`` and every task must pickle when workers > 1.  The pool has no more
    workers than tasks.  Output order always matches the task order, so
    downstream reductions are schedule-independent.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))
