"""Deterministic resampling streams shared by local and engine runs.

Both the pure-NumPy reference implementation and the distributed engine
draw their Monte Carlo multipliers and permutations from these generators,
so given the same seed and batch size the two paths consume *identical*
random sequences -- making "engine result == local result" an exact
(bitwise-comparable) test oracle instead of a statistical one.

A stream is named by a :class:`ReplicateStream` -- method, patients,
replicates, seed and batch size -- and a :class:`StreamCursor` replays it
to any batch with the generator calls of a run from the start, so a
process handed only a batch's index draws the same replicates the
stream's first consumer did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

METHODS = ("monte_carlo", "permutation")


def mc_multiplier_batches(
    n_patients: int, n_resamples: int, seed: int, batch_size: int
) -> Iterator[np.ndarray]:
    """Yield ``(b, n)`` standard-normal multiplier batches totalling B rows."""
    if n_resamples < 0:
        raise ValueError("n_resamples must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    remaining = n_resamples
    while remaining > 0:
        b = min(batch_size, remaining)
        yield rng.standard_normal((b, n_patients))
        remaining -= b


def permutation_stream(
    n_patients: int, n_resamples: int, seed: int
) -> Iterator[np.ndarray]:
    """Yield B independent permutations of ``range(n_patients)``."""
    if n_resamples < 0:
        raise ValueError("n_resamples must be >= 0")
    rng = np.random.default_rng(seed)
    for _ in range(n_resamples):
        yield rng.permutation(n_patients)


def permutation_batches(
    n_patients: int, n_resamples: int, seed: int, batch_size: int
) -> Iterator[np.ndarray]:
    """Yield ``(b, n)`` permutation batches totalling B rows.

    Draws each permutation sequentially from the same generator state as
    :func:`permutation_stream`, so a batched consumer sees the *identical*
    replicate sequence as an unbatched one -- batching changes scheduling,
    never statistics.
    """
    if n_resamples < 0:
        raise ValueError("n_resamples must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    remaining = n_resamples
    while remaining > 0:
        b = min(batch_size, remaining)
        yield np.stack([rng.permutation(n_patients) for _ in range(b)])
        remaining -= b


@dataclass(frozen=True)
class ReplicateStream:
    """A seeded replicate stream by name: Monte Carlo multipliers
    (:func:`mc_multiplier_batches`) or permutations
    (:func:`permutation_batches`) of ``n_patients``, ``n_resamples`` rows
    in batches of ``batch_size``."""

    method: str
    n_patients: int
    n_resamples: int
    seed: int
    batch_size: int

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")

    def batches(self) -> Iterator[np.ndarray]:
        draw = mc_multiplier_batches if self.method == "monte_carlo" else permutation_batches
        return draw(self.n_patients, self.n_resamples, self.seed, self.batch_size)

    def widths(self) -> Iterator[int]:
        """The batches' widths, drawing nothing: every batch
        ``batch_size`` wide but a shorter last one."""
        if self.n_resamples < 0:
            raise ValueError("n_resamples must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for start in range(0, self.n_resamples, self.batch_size):
            yield min(self.batch_size, self.n_resamples - start)


class StreamCursor:
    """A :class:`ReplicateStream` replayed batch by batch.

    A cursor at the batch :meth:`take` asks for draws on; a cursor behind
    it draws and discards up to it; a cursor ahead of it restarts from the
    seed.  Every batch therefore comes from the generator calls, in the
    order, of one pass from the start -- the same values whoever asks.
    """

    def __init__(self, stream: ReplicateStream) -> None:
        self.stream = stream
        self._restart()

    def _restart(self) -> None:
        self._batches = self.stream.batches()
        self.position = 0

    def take(self, first: int, count: int) -> list[np.ndarray]:
        """Batches ``first`` to ``first + count`` (fewer at the stream's end)."""
        if first < self.position:
            self._restart()
        for _ in itertools.islice(self._batches, first - self.position):
            pass
        taken = list(itertools.islice(self._batches, count))
        self.position = first + len(taken)
        return taken
