"""The data plane's one frame format.

A *frame* is ``pickle.dumps(records, HIGHEST_PROTOCOL)``.  The records the
engine moves encoded -- shuffle buckets -- are frames, produced by
:func:`dumps` and decoded by :func:`loads`.  This
module is the only place that decision lives: a frame is self-describing,
so a worker decodes what the driver encoded (and vice versa) with no format
name on the wire.

:class:`FrameBatch` sits next to the codec: a picklable list of frames that
decodes on iteration, so shuffle input reaches a task without a
driver-side decode + re-pickle.

DESIGN.md section 10 records why there is no second format and why nothing
(frames, task binaries, broadcast payloads) is compressed.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any, Iterator

__all__ = [
    "dumps",
    "loads",
    "FrameBatch",
    "get_serializer",
]


def dumps(obj: Any) -> bytes:
    """Encode ``obj`` as one frame."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def loads(frame: bytes) -> Any:
    """Decode one frame; the result shares no memory with ``frame``."""
    return pickle.loads(frame)


# -- deferred-decode batches --------------------------------------------------


class FrameBatch:
    """A picklable sequence of frames, decoded on iteration.

    The scheduler pre-fetches a reduce task's shuffle input as the map
    outputs' *frames* (no driver-side decode + re-pickle); the task
    decodes each frame as its traversal reaches it
    (:meth:`~repro.engine.task.TaskContext.shuffle_input`), and iterating
    the batch yields the concatenated records.
    """

    __slots__ = ("frames",)

    def __init__(self, frames: list[bytes]) -> None:
        self.frames = frames

    def __iter__(self) -> Iterator:
        for frame in self.frames:
            yield from loads(frame)

    def __reduce__(self):
        return (FrameBatch, (self.frames,))

    def __repr__(self) -> str:
        return f"FrameBatch({len(self.frames)} frames)"


def get_serializer(which: Any = None):
    """This module (it has ``dumps``/``loads``), whatever ``which`` is.

    Kept only for benchmarks/e2e (``layers.py`` calls
    ``get_serializer(config.serializer).dumps/.loads``); drop in the next
    ``[benchmark]`` PR.
    """
    return sys.modules[__name__]
