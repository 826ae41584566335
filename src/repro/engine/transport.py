"""Out-of-band payload transport for the cluster backend.

A worker's task socket is the wrong place for megabyte payloads: every
task that carried its stage's task binary (or a large broadcast / result
body) inline would pay a full copy per task.
This module moves those payloads through POSIX shared memory
(:mod:`multiprocessing.shared_memory`) -- or a temp-file handoff where
shared memory is unusable -- and ships only a tiny :class:`TransportRef`
in the task frame.  Every worker shares the driver's host, so there is no
network variant: :meth:`Transport.create` picks the scheme once per fleet.

Key properties:

- **Content-hash dedup**: ``put(blob, dedup=True)`` keys the segment by
  the blob's SHA-256, so a stage's task binary (or an identical broadcast)
  is materialized once no matter how many tasks reference it.
- **Bidirectional**: workers can ``put`` large result bodies and return a
  ref; the driver reads and deletes the segment after merging.
- **Lifecycle**: the driver-side owner tracks every segment it created and
  unlinks them all on ``close()`` (fleet stop); worker-created segments
  are deleted by the driver as soon as the result is merged.
- **Nothing is compressed**: shared memory and loopback never earn it
  (zlib cost 0.168 s per 3.1 MB payload, DESIGN.md section 10), and the
  content hash is taken over the raw bytes, so a dedup hit costs one
  SHA-256 and nothing else.

:class:`ByRef` is the one publish-once / fetch-lazily / memoize-per-worker
path built on those refs: broadcast values and ``parallelize`` partitions
both cross to workers as one.

A :class:`Transport` is addressed by a picklable :meth:`spec`; worker
processes rebuild a handle lazily from the spec riding in the task payload
(:func:`from_spec` memoizes per process).  On Python < 3.13 attaching a
shared-memory segment registers it with the resource tracker just like
creating one (bpo-39959), which corrupts the tracker's set-based accounting
when several processes attach the same segment -- attach paths therefore
suppress tracker registration entirely (see :func:`_attach_shm`), leaving
exactly one tracker entry per created segment for ``unlink`` to retire.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import secrets
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

__all__ = [
    "TransportRef",
    "Transport",
    "ByRef",
    "from_spec",
    "worker_transport",
]


@dataclass(frozen=True)
class TransportRef:
    """Picklable handle to one out-of-band payload."""

    scheme: str  # "shm" | "file"
    key: str  # segment name or absolute file path
    size: int
    content_hash: str | None = None


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _shm_usable() -> bool:
    """Probe whether POSIX shared memory actually works here (it is absent
    or broken in some containers; /dev/shm may be unmounted)."""
    try:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=16)
        try:
            seg.buf[:4] = b"ping"
        finally:
            seg.close()
            seg.unlink()
        return True
    except (ImportError, OSError, ValueError):
        return False


_ATTACH_LOCK = threading.Lock()


def _attach_shm(name: str):
    """Attach to an existing segment without registering it with the
    resource tracker.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the segment on
    *attach* as well as on create (bpo-39959), and the tracker's cache is a
    set -- so two attaches collapse to one entry and the second unregister
    (or the eventual unlink) raises a KeyError inside the tracker process.
    Suppressing registration during attach keeps the tracker's view exactly
    "one entry per created segment", which the final ``unlink`` removes.
    """
    from multiprocessing import shared_memory

    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        with _ATTACH_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
    except ImportError:
        return shared_memory.SharedMemory(name=name)


class Transport:
    """Driver- or worker-side handle to the payload store."""

    def __init__(self, scheme: str, root: str, namespace: str | None = None) -> None:
        if scheme not in ("shm", "file"):
            raise ValueError(f"unknown transport scheme {scheme!r}")
        self.scheme = scheme
        self.root = root
        #: per-handle token mixed into every dedup'd segment name: content
        #: addressing must be deterministic *within* one transport (refs
        #: ride in task closures, so a warm job has to regenerate the same
        #: bytes) but never collide *across* driver processes -- a shared
        #: system-wide name would let one driver's close() unlink a segment
        #: another driver still references
        self.namespace = namespace if namespace is not None else secrets.token_hex(6)
        self._lock = threading.Lock()
        #: serializes dedup'd creates so a second put of the same content
        #: waits for the first to finish copying instead of handing out a
        #: ref to a half-written segment
        self._create_lock = threading.Lock()
        #: content hash -> ref, for dedup'd puts
        self._by_hash: dict[str, TransportRef] = {}
        #: content hash -> dedup'd puts not yet matched by a delete: two
        #: contexts on one fleet that publish the same dataset share one
        #: segment, and the first to stop must not unlink it under the other
        self._holders: dict[str, int] = {}
        #: every ref this handle created (unlinked on close)
        self._created: list[TransportRef] = []
        self.bytes_published = 0
        self.dedup_hits = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls) -> "Transport":
        """Make a driver-side transport: shared memory where it works,
        temp files where it does not."""
        if _shm_usable():
            return cls("shm", "")
        return cls("file", tempfile.mkdtemp(prefix="repro-transport-"))

    def spec(self) -> tuple[str, str]:
        """Picklable description a worker can rebuild a handle from."""
        return (self.scheme, self.root)

    # -- put / get / delete ------------------------------------------------

    def put(self, blob: bytes, dedup: bool = False) -> TransportRef:
        """Store ``blob``; returns a ref.  ``dedup=True`` keys by content."""
        content_hash = _sha256(blob) if dedup else None
        if content_hash is None:
            ref = self._write(blob, None)
            with self._lock:
                self._created.append(ref)
                self.bytes_published += len(blob)
            return ref
        # dedup'd creates run one at a time: a concurrent put of the same
        # content must either see the finished ref in _by_hash or wait here
        # until the first writer has copied every byte -- never observe a
        # freshly created but still-zeroed segment
        with self._create_lock:
            with self._lock:
                existing = self._by_hash.get(content_hash)
                if existing is not None:
                    self.dedup_hits += 1
                    self._holders[content_hash] += 1
                    return existing
            ref = self._write(blob, content_hash)
            with self._lock:
                self._created.append(ref)
                self.bytes_published += len(blob)
                self._by_hash[content_hash] = ref
                self._holders[content_hash] = 1
            return ref

    def _write(self, blob: bytes, content_hash: str | None) -> TransportRef:
        # dedup'd payloads get *content-addressed* names: a republication of
        # identical content (same broadcast in a fresh Context, after an
        # unpersist, ...) must yield a byte-identical ref, because refs ride
        # inside task closures and a random name there would change the
        # closure's own content hash -- defeating the persistent cluster's
        # task-binary dedup for every stage that carries a broadcast
        if self.scheme == "shm":
            from multiprocessing import shared_memory

            name = (
                f"repro-{self.namespace}-{content_hash[:16]}"
                if content_hash else None
            )
            try:
                # size 0 segments are invalid; clamp to 1.  _ATTACH_LOCK keeps
                # a concurrent _attach_shm from suppressing this create's
                # resource-tracker registration
                with _ATTACH_LOCK:
                    seg = shared_memory.SharedMemory(
                        create=True, size=max(len(blob), 1), name=name
                    )
            except FileExistsError:
                # only reachable when an earlier delete() of this handle's
                # own segment failed to unlink (names are namespaced per
                # handle, so no other process can own it); the content is
                # identical by hash, but re-copy anyway so a half-dead
                # leftover can never be served with stale bytes
                seg = _attach_shm(name)
                try:
                    if seg.size < len(blob):
                        raise RuntimeError(
                            f"shm segment {name} too small for its content"
                        )
                    seg.buf[: len(blob)] = blob
                finally:
                    seg.close()
                return TransportRef("shm", name, len(blob), content_hash)
            try:
                seg.buf[: len(blob)] = blob
                name = seg.name.lstrip("/")
            finally:
                seg.close()
            return TransportRef("shm", name, len(blob), content_hash)
        stem = f"blob-{content_hash[:24]}" if content_hash else f"blob-{secrets.token_hex(8)}"
        path = os.path.join(self.root, stem)
        tmp = path + f".tmp-{secrets.token_hex(4)}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)  # atomic: readers never see a partial blob
        return TransportRef("file", path, len(blob), content_hash)

    def get(self, ref: TransportRef) -> bytes:
        if ref.scheme == "shm":
            seg = _attach_shm(ref.key)
            try:
                data = bytes(seg.buf[: ref.size])
            finally:
                seg.close()
            return data
        with open(ref.key, "rb") as fh:
            return fh.read()

    def delete(self, ref: TransportRef) -> None:
        """Remove one payload (idempotent); a dedup'd payload goes with the
        last of its publishers."""
        if ref.content_hash is not None:
            with self._lock:
                holders = self._holders.get(ref.content_hash, 0) - 1
                if holders > 0:
                    self._holders[ref.content_hash] = holders
                    return
                self._holders.pop(ref.content_hash, None)
        try:
            if ref.scheme == "shm":
                # attach (untracked) + unlink; unlink() unregisters the one
                # tracker entry the original create added
                seg = _attach_shm(ref.key)
                seg.close()
                seg.unlink()
            else:
                os.unlink(ref.key)
        except (FileNotFoundError, OSError):
            pass
        with self._lock:
            if ref.content_hash is not None:
                self._by_hash.pop(ref.content_hash, None)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unlink every payload this handle created."""
        with self._lock:
            created, self._created = self._created, []
            self._by_hash.clear()
            self._holders.clear()
        for ref in created:
            self.delete(ref)
        if self.scheme == "file":
            try:
                os.rmdir(self.root)
            except OSError:
                pass  # worker blobs may still be in flight; leave the dir


# -- worker-side handle cache -------------------------------------------------

_WORKER: dict[str, Any] = {"spec": None, "transport": None}
_WORKER_LOCK = threading.Lock()


def from_spec(spec: tuple) -> Transport:
    """Worker-side: rebuild (and memoize) a transport handle from its
    ``(scheme, root)`` spec."""
    spec = tuple(spec)
    with _WORKER_LOCK:
        if _WORKER["spec"] != spec:
            _WORKER["spec"] = spec
            _WORKER["transport"] = Transport(spec[0], spec[1])
        return _WORKER["transport"]


def worker_transport() -> Transport | None:
    """The transport handle of the task currently running in this process."""
    with _WORKER_LOCK:
        return _WORKER["transport"]


# -- values by ref --------------------------------------------------------------

#: pickles at least this large travel by transport ref.  A ref is ~150
#: pickled bytes, ~0.1 ms to publish and ~0.05 ms to attach once per worker;
#: an inline value rides again in every stage's task binary, so only values
#: too small to matter there (a 10-stage analysis re-ships < 40 KB) stay inline
BY_REF_MIN_BYTES = 4 * 1024

#: byte budget of a worker process's memo of fetched values (sized with
#: ``estimate_size``).  Persistent workers outlive driver contexts, so the
#: memo must evict rather than keep every dataset slice ever seen
_WORKER_VALUES_BUDGET = 256 * 1024 * 1024


class _ValueMemo:
    """Byte-budgeted LRU: content hash -> decoded (read-only) value.

    Keyed by content hash rather than any driver-side id because every
    fresh context restarts its ids at 0, while identical content published
    by a later context should hit.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.bytes_used = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, tuple[Any, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> "tuple[Any, int] | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, value: Any) -> None:
        from repro.engine.blockmanager import estimate_size

        size = estimate_size(value)
        with self._lock:
            if key in self._entries or size > self.budget:
                return  # an oversized value is used once and dropped
            self._entries[key] = (value, size)
            self.bytes_used += size
            while self.bytes_used > self.budget:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.bytes_used -= evicted


_WORKER_VALUES = _ValueMemo(_WORKER_VALUES_BUDGET)


def _fetch_value(holder: "ByRef") -> Any:
    """Worker side of :class:`ByRef`: the value behind ``holder``'s ref.

    Runs on every read (per chunk or per record, on the paper flavor), so the hit path
    is one memo lookup; a *warm* hit -- the holder's first read found the
    value already there -- is counted once per holder, on the reading task's
    ``broadcast_memo_hits``.  A memo miss fetches
    and unpickles; that time is moved from the running task's
    ``compute_seconds`` to its ``deserialize_seconds``, where the layer
    table expects it.
    """
    ref = holder._ref
    entry = _WORKER_VALUES.get(ref.content_hash)
    if entry is not None:
        if not holder._read:
            from repro.engine.task import current_task_context

            holder._read = True
            tc = current_task_context()
            if tc is not None:
                tc.metrics.broadcast_memo_hits += 1
        return entry[0]
    holder._read = True
    transport = worker_transport()
    if transport is None:
        raise RuntimeError(f"value shipped as {ref.key!r} but no transport attached")
    from repro.engine.task import current_task_context

    start = time.perf_counter()
    value = pickle.loads(transport.get(ref))
    elapsed = time.perf_counter() - start
    tc = current_task_context()
    if tc is not None:
        tc.metrics.deserialize_seconds += elapsed
        tc.metrics.compute_seconds -= elapsed  # Task.run adds the enclosing wall
    _WORKER_VALUES.put(ref.content_hash, value)
    return value


class ByRef:
    """A value that crosses to workers out-of-band when it is large.

    Driver side it wraps the live value.  Pickling it publishes the value's
    raw pickle under its content hash -- once, however many task binaries
    embed it, and a republication of identical content is a dedup hit --
    and ships the :class:`TransportRef`; a pickle under ``min_bytes`` (or a
    holder with no transport) rides inline instead.  The published segment
    lasts until ``unpublish()`` or the holder's death.  Worker side ``.value``
    resolves through the process memo on every read and never keeps the
    value on the holder, so a cached task binary stays kilobytes and the
    memo's byte budget is what bounds the worker.
    """

    def __init__(
        self, value: Any, transport: Any = None, min_bytes: int = BY_REF_MIN_BYTES
    ) -> None:
        self._value = value
        self._transport = transport
        self._min_bytes = min_bytes
        self._ref: TransportRef | None = None
        self._blob: bytes | None = None  # inline pickle, kept for re-pickling
        self._size_bytes: int | None = None
        self._read = False  # worker side: resolved at least once

    @property
    def value(self) -> Any:
        if self._ref is not None and self._transport is None:
            return _fetch_value(self)
        return self._value

    @property
    def size_bytes(self) -> int:
        """Pickled size of the value (lazy, cached)."""
        if self._size_bytes is None:
            self._size_bytes = len(
                pickle.dumps(self._value, protocol=pickle.HIGHEST_PROTOCOL)
            )
        return self._size_bytes

    def __getstate__(self) -> dict:
        if self._ref is None and self._blob is None:
            blob = pickle.dumps(self._value, protocol=pickle.HIGHEST_PROTOCOL)
            self._size_bytes = len(blob)
            if self._transport is not None and len(blob) >= self._min_bytes:
                self._ref = self._transport.put(blob, dedup=True)
                # the segment goes with the holder (an RDD dropped mid-context
                # must not leave its slices in /dev/shm) or at unpublish()
                self._release = weakref.finalize(
                    self, self._transport.delete, self._ref
                )
            else:
                self._blob = blob
        return {"ref": self._ref, "blob": self._blob}

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            pickle.loads(state["blob"]) if state["blob"] is not None else None
        )
        self._ref = state["ref"]

    def unpublish(self) -> None:
        """Delete the published segment, if any; the live value stays."""
        if self._ref is not None and self._transport is not None:
            self._release()
            self._ref = None
