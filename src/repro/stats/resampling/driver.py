"""The resampling loop, written once.

Permutation (Algorithm 2) and Monte Carlo (Algorithm 3) differ only in the
replicate stream and in what counting costs -- a local GEMM per batch or one
engine job per *wave* of batches -- so every caller hands :func:`resample`
a stream and a ``count_wave``.  The module imports nothing from the engine
or the observability plane: the monitor is duck-typed (``fold`` / ``done`` /
``finish``).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


def exceedances(stats: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """``#{b : stats[b] >= observed}``: ``(b, K)`` replicates -> ``(K,)`` int64."""
    return (stats >= observed).sum(axis=0, dtype=np.int64)


def per_batch(count_batch: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """A one-batch count as a ``count_wave`` (what local callers pass)."""
    return lambda wave: [count_batch(batch) for batch in wave]


def _counted(batches, count_wave, wave: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(width, counts)`` per batch, counted ``wave`` batches at a time."""
    batches = iter(batches)
    while chunk := list(itertools.islice(batches, wave)):
        for batch, batch_counts in zip(chunk, list(count_wave(chunk))):
            yield batch if isinstance(batch, int) else len(batch), batch_counts


def resample(
    batches: Iterable[np.ndarray | int],
    count_wave: Callable[[Sequence[np.ndarray | int]], Iterable[np.ndarray]],
    monitor=None,
    *,
    n_sets: int,
    wave: int = 1,
    per_set_masking: bool = True,
) -> tuple[np.ndarray, int]:
    """Count batches until the stream ends or the monitor is done; returns
    the ``(n_sets,)`` exceedance counts and the replicates consumed.

    The stream is cut into waves of up to ``wave`` batches and
    ``count_wave(batches)`` returns one ``(n_sets,)`` count per batch.  A
    batch is its replicate rows or, for a ``count_wave`` that draws them
    where it counts, just its width.  Then,
    batch by batch in stream order: its counts added as ``monitor.fold``
    returns them (plainly without a monitor), then a stop if
    ``monitor.done`` -- which discards the rest
    of the wave, so counts and replicates consumed do not depend on
    ``wave``.  ``monitor.finish()`` runs exactly once.

    ``per_set_masking=False`` keeps this run's monitor from freezing decided
    sets, for counts that need one common denominator (step-down maxT):
    the run stops only once every set is
    decided, and the monitor's early-stop policy is left as it was.
    """
    if monitor is not None and not per_set_masking:
        monitor.masking = False
    counts = np.zeros(n_sets, dtype=np.int64)
    used = 0
    for width, batch_counts in _counted(batches, count_wave, wave):
        counts += batch_counts if monitor is None else monitor.fold(batch_counts, width)
        used += width
        if monitor is not None and monitor.done:
            break
    if monitor is not None:
        monitor.finish()
    return counts, used
