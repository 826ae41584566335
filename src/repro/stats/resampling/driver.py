"""The resampling loop, written once.

Permutation (Algorithm 2) and Monte Carlo (Algorithm 3) differ only in the
replicate stream and in what counting one batch costs -- a local GEMM or a
job on the engine -- so every caller hands :func:`resample` a stream and a
``count_batch``.  The module imports nothing from the engine or the
observability plane: the monitor is duck-typed (``fold`` / ``done`` /
``finish``) and per-batch metrics go in ``after_batch``.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np


def exceedances(stats: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """``#{b : stats[b] >= observed}``: ``(b, K)`` replicates -> ``(K,)`` int64."""
    return (stats >= observed).sum(axis=0, dtype=np.int64)


def resample(
    batches: Iterable[np.ndarray],
    count_batch: Callable[[np.ndarray], np.ndarray],
    monitor=None,
    *,
    n_sets: int,
    per_set_masking: bool = True,
    after_batch: Callable[[int, float], None] | None = None,
) -> tuple[np.ndarray, int]:
    """Count batches until the stream ends or the monitor is done; returns
    the ``(n_sets,)`` exceedance counts and the replicates consumed.

    Per batch: ``count_batch(batch)``, its counts added as ``monitor.fold``
    returns them (plainly without a monitor), ``after_batch(width,
    seconds)`` timing the count and the fold, then a stop if
    ``monitor.done``.  ``monitor.finish()`` runs exactly once.

    ``per_set_masking=False`` keeps this run's monitor from freezing decided
    sets, for counts that need one common denominator (step-down maxT,
    SKAT-O's min-p calibration): the run stops only once every set is
    decided, and the monitor's early-stop policy is left as it was.
    """
    if monitor is not None and not per_set_masking:
        monitor.masking = False
    counts = np.zeros(n_sets, dtype=np.int64)
    used = 0
    for batch in batches:
        start = time.perf_counter()
        batch_counts = count_batch(batch)
        width = len(batch)
        counts += batch_counts if monitor is None else monitor.fold(batch_counts, width)
        used += width
        if after_batch is not None:
            after_batch(width, time.perf_counter() - start)
        if monitor is not None and monitor.done:
            break
    if monitor is not None:
        monitor.finish()
    return counts, used
