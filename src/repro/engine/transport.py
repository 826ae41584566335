"""Out-of-band payload transport for the cluster backend.

A worker's task socket is the wrong place for megabyte payloads: every
task that carried its stage's task binary (or a large broadcast / result
body) inline would pay a full copy per task.
This module moves those payloads through POSIX shared memory
(:mod:`multiprocessing.shared_memory`) -- or a temp-file handoff when
shared memory is unavailable -- and ships only a tiny
:class:`TransportRef` in the task frame.  A third variant,
:class:`SocketTransport`, serves the same refs over TCP with SHA-256
dedup offers ahead of every payload push, so executors on *other hosts*
(the persistent cluster's remote workers) speak the identical protocol.
Socket connections authenticate with an HMAC challenge before any frame
is processed; the shared secret rides inside the transport spec, which
itself only travels over authenticated cluster channels.

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
import socket
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
    "SocketTransport",
    "ByRef",
    "advertised_host",
    "create_transport",
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


#: byte budget for a socket transport's dedup'd blob store; a persistent
#: head otherwise keeps every task binary ever offered for the life of the
#: fleet
_STORE_BUDGET = 256 * 1024 * 1024


def advertised_host(bind_host: str) -> str:
    """A host other machines can dial when we bound a wildcard address.

    Binding ``0.0.0.0`` is fine, *advertising* it in a transport spec is
    not -- a remote driver would dial its own loopback.  Resolve the
    machine's outbound address instead; concrete hosts pass through.
    """
    if bind_host not in ("", "0.0.0.0", "::"):
        return bind_host
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        # no packet is sent; connect() just selects the outbound interface
        probe.connect(("10.255.255.255", 1))
        return probe.getsockname()[0]
    except OSError:
        try:
            return socket.gethostbyname(socket.gethostname())
        except OSError:
            return "127.0.0.1"
    finally:
        probe.close()


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
        #: bytes a dedup hit kept off the wire/segment store -- the fleet
        #: observability plane's "warm bytes saved" figure
        self.dedup_bytes_saved = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, prefer_shm: bool = True) -> "Transport":
        """Make a driver-side transport, probing shared-memory support."""
        if prefer_shm and _shm_usable():
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
                    self.dedup_bytes_saved += len(blob)
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


# -- socket transport ---------------------------------------------------------
#
# The cross-host variant: blobs live in a driver-side (or cluster-head-side)
# in-memory store fronted by a tiny TCP server speaking the frame protocol
# of :mod:`repro.engine.frames`.  Remote writers never push a payload blind:
# a ``put(dedup=True)`` first sends a SHA-256 *offer* (hash + size) and only
# ships the bytes when the server answers WANT -- the second executor to
# publish an identical task binary or result body pays ~100 bytes, not
# megabytes.  This is the stepping stone from one box to the paper's real
# multi-node EMR topology: a ``TransportRef`` with scheme ``tcp`` is valid
# on any host that can reach the server.


class SocketTransport:
    """TCP blob store: length-prefixed frames, SHA-256 dedup offers.

    Two personalities behind one interface:

    - **serving** (driver / cluster head): :meth:`serve` binds a listener
      and handles GET/OFFER/PUSH/DELETE from remote handles; local ``put``
      and ``get`` touch the in-memory store directly (no loopback hop).
    - **client** (worker, or an external driver): built by
      :func:`from_spec` from ``("tcp", "host:port")``; one persistent
      connection per process, a lock serializing request/response pairs.
    """

    scheme = "tcp"

    def __init__(
        self,
        addr: str,
        serving: bool = False,
        secret: bytes | None = None,
        store_budget: int | None = None,
    ) -> None:
        self.addr = addr
        self._serving = serving
        #: shared HMAC secret: the server challenges every connection and
        #: drops it before the first deserialize unless the reply checks out
        self.secret = secret if secret is not None else secrets.token_bytes(32)
        #: byte budget for dedup'd (``sha256-``) blobs; oldest-touched are
        #: evicted past it.  ``tok-`` blobs (one-shot result bodies) are
        #: exempt: they are deleted explicitly as soon as the driver merges
        #: them, while evicted content blobs just cost a re-offer/re-push.
        self.store_budget = (
            store_budget if store_budget is not None else _STORE_BUDGET
        )
        self._lock = threading.Lock()
        #: key -> blob (server side only), LRU order: oldest-touched first
        self._store: "OrderedDict[str, bytes]" = OrderedDict()
        self._store_bytes = 0
        #: content hash -> ref (server side dedup index; client side memo)
        self._by_hash: dict[str, TransportRef] = {}
        self.bytes_published = 0
        self.dedup_hits = 0
        #: bytes dedup offers kept off the wire (fleet "warm bytes saved")
        self.dedup_bytes_saved = 0
        self.evictions = 0
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conn: socket.socket | None = None  # client-mode connection
        self._server_conns: list[socket.socket] = []  # accepted connections
        self._closed = threading.Event()

    # -- construction -----------------------------------------------------

    @classmethod
    def serve(
        cls, host: str = "127.0.0.1", port: int = 0,
        thread_prefix: str = "repro-transport",
        secret: bytes | None = None,
    ) -> "SocketTransport":
        """Start a serving transport; returns once the listener is bound."""
        listener = socket.create_server((host, port))
        bound_port = listener.getsockname()[1]
        transport = cls(
            f"{advertised_host(host)}:{bound_port}", serving=True, secret=secret
        )
        transport._listener = listener
        accept = threading.Thread(
            target=transport._accept_loop,
            name=f"{thread_prefix}-accept",
            args=(thread_prefix,),
            daemon=True,
        )
        transport._threads.append(accept)
        accept.start()
        return transport

    def spec(self) -> tuple[str, str, str]:
        # the secret rides in the spec: specs only travel over already
        # authenticated channels (task payloads on cluster sockets, the
        # head's ATTACH_REPLY), so holding a spec is holding the key
        return ("tcp", self.addr, self.secret.hex())

    # -- server side -------------------------------------------------------

    def _accept_loop(self, thread_prefix: str) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            with self._lock:
                self._server_conns.append(conn)
            handler = threading.Thread(
                target=self._serve_conn,
                name=f"{thread_prefix}-conn",
                args=(conn,),
                daemon=True,
            )
            self._threads.append(handler)
            handler.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        import pickle

        from repro.engine import frames

        try:
            # close() may reap this conn before the handler thread gets here
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # challenge first: nothing below -- in particular the pickled
            # BLOB_OFFER body -- is reachable by an unauthenticated peer
            frames.expect_auth(conn, self.secret)
            while True:
                received = frames.recv_frame(conn)
                if received is None:
                    return
                ftype, payload = received
                if ftype == frames.BLOB_GET:
                    key = payload.decode("utf-8")
                    with self._lock:
                        blob = self._store.get(key)
                        if blob is not None:
                            self._store.move_to_end(key)
                    if blob is None:
                        frames.send_frame(conn, frames.BLOB_MISSING, payload)
                    else:
                        frames.send_frame(conn, frames.BLOB_DATA, blob)
                elif ftype == frames.BLOB_OFFER:
                    content_hash, size = pickle.loads(payload)
                    with self._lock:
                        existing = self._by_hash.get(content_hash)
                        if existing is not None:
                            self.dedup_hits += 1
                            self.dedup_bytes_saved += int(size)
                    if existing is not None:
                        frames.send_frame(
                            conn, frames.BLOB_HAVE,
                            pickle.dumps(existing, protocol=pickle.HIGHEST_PROTOCOL),
                        )
                    else:
                        frames.send_frame(conn, frames.BLOB_WANT, payload)
                elif ftype == frames.BLOB_PUSH:
                    key_len = int.from_bytes(payload[:2], "big")
                    key = bytes(payload[2:2 + key_len]).decode("utf-8")
                    blob = bytes(payload[2 + key_len:])
                    self._store_blob(key, blob)
                    frames.send_frame(conn, frames.BLOB_OK, key.encode("utf-8"))
                elif ftype == frames.BLOB_DELETE:
                    self._delete_key(payload.decode("utf-8"))
                    frames.send_frame(conn, frames.BLOB_OK, payload)
                else:
                    return  # unknown frame: drop the connection
        except (ConnectionError, OSError):
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _store_blob(self, key: str, blob: bytes, content_hash: str | None = None) -> None:
        if content_hash is None and key.startswith("sha256-"):
            content_hash = key[len("sha256-"):]
        ref = TransportRef("tcp", key, len(blob), content_hash)
        with self._lock:
            old = self._store.pop(key, None)
            if old is None:
                self.bytes_published += len(blob)
            else:
                self._store_bytes -= len(old)
            self._store[key] = blob
            self._store_bytes += len(blob)
            if content_hash is not None:
                self._by_hash[content_hash] = ref
            self._evict_locked(keep=key)

    def _evict_locked(self, keep: str) -> None:
        """Drop oldest-touched dedup'd blobs past the byte budget.

        Only ``sha256-`` keys are candidates: their eviction is recoverable
        (the next offer gets WANT and re-pushes), while ``tok-`` result
        bodies must survive until the driver's explicit delete.  ``keep``
        (the blob just stored) is never evicted, even when it alone
        overflows the budget.
        """
        if self._store_bytes <= self.store_budget:
            return
        for key in [k for k in self._store if k != keep and k.startswith("sha256-")]:
            if self._store_bytes <= self.store_budget:
                return
            blob = self._store.pop(key)
            self._store_bytes -= len(blob)
            self._by_hash.pop(key[len("sha256-"):], None)
            self.evictions += 1

    def _delete_key(self, key: str) -> None:
        with self._lock:
            blob = self._store.pop(key, None)
            if blob is not None:
                self._store_bytes -= len(blob)
            if blob is not None and key.startswith("sha256-"):
                self._by_hash.pop(key[len("sha256-"):], None)

    # -- put / get / delete ------------------------------------------------

    def put(self, blob: bytes, dedup: bool = False) -> TransportRef:
        content_hash = _sha256(blob) if dedup else None
        if self._serving:
            if content_hash is not None:
                with self._lock:
                    existing = self._by_hash.get(content_hash)
                if existing is not None:
                    with self._lock:
                        self.dedup_hits += 1
                        self.dedup_bytes_saved += len(blob)
                    return existing
                key = f"sha256-{content_hash}"
            else:
                key = f"tok-{secrets.token_hex(8)}"
            self._store_blob(key, blob, content_hash)
            return TransportRef("tcp", key, len(blob), content_hash)
        return self._remote_put(blob, content_hash)

    def _remote_put(self, blob: bytes, content_hash: str | None) -> TransportRef:
        import pickle

        from repro.engine import frames

        if content_hash is not None:
            with self._lock:
                memo = self._by_hash.get(content_hash)
            if memo is not None:
                with self._lock:
                    self.dedup_hits += 1
                    self.dedup_bytes_saved += len(blob)
                return memo
            key = f"sha256-{content_hash}"
        else:
            key = f"tok-{secrets.token_hex(8)}"
        with self._lock:
            conn = self._connect_locked()
            if content_hash is not None:
                # dedup offer: hash + size first; the payload only moves if
                # the server does not already hold this content
                frames.send_frame(conn, frames.BLOB_OFFER, pickle.dumps(
                    (content_hash, len(blob)), protocol=pickle.HIGHEST_PROTOCOL
                ))
                reply = frames.recv_frame(conn)
                if reply is None:
                    raise ConnectionError("transport server closed during offer")
                ftype, payload = reply
                if ftype == frames.BLOB_HAVE:
                    ref = pickle.loads(payload)
                    self.dedup_hits += 1
                    self.dedup_bytes_saved += len(blob)
                    self._by_hash[content_hash] = ref
                    return ref
            key_bytes = key.encode("utf-8")
            frames.send_frame(
                conn, frames.BLOB_PUSH,
                len(key_bytes).to_bytes(2, "big") + key_bytes + blob,
            )
            reply = frames.recv_frame(conn)
            if reply is None or reply[0] != frames.BLOB_OK:
                raise ConnectionError("transport server rejected push")
            self.bytes_published += len(blob)
            ref = TransportRef("tcp", key, len(blob), content_hash)
            if content_hash is not None:
                self._by_hash[content_hash] = ref
            return ref

    def get(self, ref: TransportRef) -> bytes:
        if self._serving:
            with self._lock:
                blob = self._store.get(ref.key)
                if blob is not None:
                    self._store.move_to_end(ref.key)
            if blob is None:
                raise KeyError(f"transport blob {ref.key!r} not found")
            return blob
        from repro.engine import frames

        with self._lock:
            conn = self._connect_locked()
            frames.send_frame(conn, frames.BLOB_GET, ref.key.encode("utf-8"))
            reply = frames.recv_frame(conn)
        if reply is None:
            raise ConnectionError("transport server closed during get")
        ftype, payload = reply
        if ftype != frames.BLOB_DATA:
            raise KeyError(f"transport blob {ref.key!r} not found on server")
        return payload

    def delete(self, ref: TransportRef) -> None:
        if self._serving:
            self._delete_key(ref.key)
            return
        from repro.engine import frames

        try:
            with self._lock:
                conn = self._connect_locked()
                frames.send_frame(conn, frames.BLOB_DELETE, ref.key.encode("utf-8"))
                frames.recv_frame(conn)
                if ref.content_hash is not None:
                    self._by_hash.pop(ref.content_hash, None)
        except (ConnectionError, OSError):
            pass

    # -- client connection --------------------------------------------------

    def _connect_locked(self) -> socket.socket:
        if self._conn is None:
            from repro.engine import frames

            host, _, port = self.addr.rpartition(":")
            conn = socket.create_connection((host, int(port)), timeout=30.0)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                frames.answer_challenge(conn, self.secret)
            except (ConnectionError, OSError):
                conn.close()
                raise
            self._conn = conn
        return self._conn

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._closed.set()
        if self._listener is not None:
            # a blocked accept() is not reliably woken by close(); dial in
            # once so the accept loop observes _closed and exits
            try:
                host, _, port = self.addr.rpartition(":")
                socket.create_connection((host, int(port)), timeout=1.0).close()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
                self._conn = None
            # unblock handler threads waiting in recv_frame on live clients
            conns, self._server_conns = self._server_conns, []
            self._store.clear()
            self._store_bytes = 0
            self._by_hash.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        self._threads.clear()


def create_transport(
    scheme: str = "auto",
    thread_prefix: str = "repro-transport",
    host: str = "127.0.0.1",
) -> "Transport | SocketTransport":
    """Factory over the transport variants.

    ``auto`` probes shared memory and falls back to temp files; ``shm`` /
    ``file`` force one local scheme; ``tcp`` starts a serving socket
    transport bound to ``host`` (executors on other hosts reach it by the
    advertised address in its spec).
    """
    if scheme == "auto":
        return Transport.create()
    if scheme == "shm":
        if not _shm_usable():
            raise RuntimeError("shared memory transport requested but unusable here")
        return Transport("shm", "")
    if scheme == "file":
        return Transport("file", tempfile.mkdtemp(prefix="repro-transport-"))
    if scheme == "tcp":
        return SocketTransport.serve(host=host, thread_prefix=thread_prefix)
    raise ValueError(f"unknown transport scheme {scheme!r}")


# -- worker-side handle cache -------------------------------------------------

_WORKER: dict[str, Any] = {"spec": None, "transport": None}
_WORKER_LOCK = threading.Lock()


def from_spec(spec: tuple) -> "Transport | SocketTransport":
    """Worker-side: rebuild (and memoize) a transport handle from its spec.

    Specs are ``(scheme, root)`` for the local variants and
    ``("tcp", addr, secret_hex)`` for the socket transport.
    """
    spec = tuple(spec)
    with _WORKER_LOCK:
        if _WORKER["spec"] != spec:
            _WORKER["spec"] = spec
            if spec[0] == "tcp":
                _WORKER["transport"] = SocketTransport(
                    spec[1], secret=bytes.fromhex(spec[2])
                )
            else:
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
    value already there -- is counted once per holder.  A memo miss fetches
    and unpickles; that time is moved from the running task's
    ``compute_seconds`` to its ``deserialize_seconds``, where the layer
    table expects it.
    """
    ref = holder._ref
    entry = _WORKER_VALUES.get(ref.content_hash)
    if entry is not None:
        if not holder._read:
            holder._read = True
            from repro.engine.backends import current_task_executor
            from repro.obs.registry import REGISTRY

            REGISTRY.counter(
                "broadcast_memo_hits_total",
                "By-ref values (broadcasts, partitions) a worker's memo already held",
                labelnames=("executor",),
            ).labels(executor=current_task_executor()).inc()
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
