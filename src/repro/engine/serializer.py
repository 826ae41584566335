"""The data plane's one frame format.

A *frame* is ``pickle.dumps(records, HIGHEST_PROTOCOL)``.  Everything the
engine stores or moves as encoded records -- shuffle buckets, ``MEMORY_SER``
cache blocks, spilled blocks, cache blocks shipped to worker processes --
is a frame, produced by :func:`dumps` and decoded by :func:`loads`.  This
module is the only place that decision lives: a frame is self-describing,
so a worker decodes what the driver encoded (and vice versa) with no format
name on the wire.

Two helpers sit next to the codec:

- :func:`compress_blob` / :func:`decompress_blob` -- flag-prefixed zlib
  framing for bytes that are *already* serialized (task binaries, broadcast
  payloads);
- :class:`FrameBatch` -- a picklable list of frames that decodes on
  iteration, so shuffle input travels to a worker without a driver-side
  decode + re-pickle.

DESIGN.md section 10 records why there is no second format.
"""

from __future__ import annotations

import pickle
import sys
import zlib
from typing import Any, Iterator

__all__ = [
    "dumps",
    "loads",
    "FrameBatch",
    "compress_blob",
    "decompress_blob",
    "get_serializer",
]


def dumps(obj: Any) -> bytes:
    """Encode ``obj`` as one frame."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def loads(frame: bytes) -> Any:
    """Decode one frame; the result shares no memory with ``frame``."""
    return pickle.loads(frame)


# -- standalone blob compression ---------------------------------------------
#
# Task binaries and broadcast payloads are already bytes when the transport
# sees them; these helpers apply flag-prefixed zlib framing to a blob
# without re-serializing it.

_COMP_RAW = b"R"
_COMP_ZLIB = b"Z"


def compress_blob(blob: bytes, threshold: int = 512, level: int = 6) -> bytes:
    """Flag-prefixed, possibly-zlib'd copy of ``blob`` (see ``decompress_blob``)."""
    if len(blob) >= threshold:
        packed = zlib.compress(blob, level)
        if len(packed) < len(blob):
            return _COMP_ZLIB + packed
    return _COMP_RAW + blob


def decompress_blob(framed: bytes) -> bytes:
    flag = framed[:1]
    if flag == _COMP_ZLIB:
        return zlib.decompress(memoryview(framed)[1:])
    if flag == _COMP_RAW:
        return bytes(memoryview(framed)[1:])
    raise ValueError(f"unknown compression flag {flag!r}")


# -- deferred-decode batches --------------------------------------------------


class FrameBatch:
    """A picklable sequence of frames, decoded on iteration.

    The scheduler pre-fetches shuffle input for worker-process tasks as the
    map outputs' *frames* (no driver-side decode + re-pickle); the worker
    iterates the batch, which decodes each frame as the traversal reaches
    it and yields the concatenated records.
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
