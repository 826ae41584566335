"""Broadcast variables.

A broadcast wraps a read-only value shipped once to every executor rather
than with every task closure.  On the serial backend the win is
semantic fidelity plus metrics: the context records broadcast sizes so the
cost model can charge network transfer, and ``unpersist``/``destroy``
lifecycle matches Spark's.

On the cluster backend the value travels as a
:class:`~repro.engine.transport.ByRef` -- the same publish-once /
fetch-lazily / memoize-per-worker path ``parallelize`` partitions take: the
first pickle of a large broadcast publishes its raw pickle under its content
hash exactly once, every task binary thereafter carries only a
:class:`~repro.engine.transport.TransportRef`, and workers resolve
``.value`` through a byte-budgeted per-process memo (the Torrent-broadcast
idea reduced to one host).  Nothing is compressed on the way.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

from repro.engine.transport import BY_REF_MIN_BYTES, ByRef

T = TypeVar("T")


class BroadcastDestroyedError(RuntimeError):
    """Raised when ``.value`` is read after ``destroy()``."""


class Broadcast(Generic[T]):
    """Handle to a value broadcast to all executors."""

    def __init__(
        self,
        broadcast_id: int,
        value: T,
        transport: Any = None,
        transport_min: int = BY_REF_MIN_BYTES,
    ) -> None:
        self.id = broadcast_id
        self._payload: ByRef | None = ByRef(value, transport, transport_min)

    def _live(self) -> ByRef:
        if self._payload is None:
            raise BroadcastDestroyedError(f"broadcast {self.id} was destroyed")
        return self._payload

    @property
    def value(self) -> T:
        # read per chunk by the paper flavor's kernels and per record by its
        # filter and re-keying: no extra call
        payload = self._payload
        if payload is None:
            raise BroadcastDestroyedError(f"broadcast {self.id} was destroyed")
        return payload.value

    def __getstate__(self) -> dict:
        return {"id": self.id, "_payload": self._live()}

    @property
    def size_bytes(self) -> int:
        """Pickled size of the payload (lazy, cached)."""
        return self._live().size_bytes

    def unpersist(self) -> None:
        """Release executor copies and any published transport segment."""
        if self._payload is not None:
            self._payload.unpublish()

    def destroy(self) -> None:
        """Release the value entirely; further ``.value`` reads raise."""
        self.unpersist()
        self._payload = None

    def __repr__(self) -> str:
        state = "destroyed" if self._payload is None else "live"
        return f"Broadcast(id={self.id}, {state})"
