"""Persistent executor cluster: long-lived workers, event-driven dispatch.

Spawning workers, shipping every stage closure and publishing every
broadcast are the dominant costs of a small job, so this module pays them
once and keeps the fleet alive.  A :class:`ClusterManager` owns one
single-threaded worker *process per task slot* (``executor_cores`` slots
form one logical executor) connected back to the driver over loopback
TCP, and survives any number of driver Contexts.  A fleet no wider
than the host confines each worker to its own share of the CPUs
(:func:`_claim_cpu_share`), so where a task runs does not depend on what
the fleet did a second earlier, and every worker freezes the heap it was
forked with (``gc.freeze()``), so what its first task costs does not depend
on how close the driver's collector was to a full collection.  The payoff
is the warm second job: workers' task-binary caches (content-hash keyed, see
:mod:`repro.engine.backends`), by-ref value memos (dataset slices,
broadcasts), resident cache blocks and transport handles all hit, so a
rerun ships kilobytes of refs and recomputes nothing it already holds.

Dispatch is a single event-driven thread multiplexing every worker socket
through :mod:`selectors`: non-blocking accepts, incremental
:class:`~repro.engine.frames.FrameParser` reads, per-worker output buffers
flushed under ``EVENT_WRITE`` (backpressure never blocks the loop), and a
wake socketpair so ``submit`` from the scheduler thread is a lock-free
buffer append plus one byte.  Task launches pipeline: the scheduler keeps
two attempts per slot in flight, so a worker finishing a task finds its
next one already sitting in its socket buffer.

Executor lifecycle is explicit -- *register* (worker connects and
announces itself), *heartbeat* (socket frames, at the cadence the task's
driver asked for, fanned out to every subscribed
:class:`~repro.engine.heartbeat.HeartbeatHub`), *drain* (finish in-flight,
take nothing new), *decommission* (worker exits) -- and read back from
:meth:`ClusterManager.executor_info`.

``Context(backend="cluster")`` lazily builds a process-wide
:class:`ClusterManager` keyed by cluster shape; it persists until
:func:`stop_all_clusters` (or interpreter exit), so the fleet lives and
dies with its driver process (DESIGN.md section 13 records why no fleet
outlives it, and section 12 why it keeps no telemetry of its own: each
driver's Context reports what its executors did).
"""

from __future__ import annotations

import atexit
import concurrent.futures
import ctypes
import gc
import hashlib
import itertools
import os
import pickle
import secrets
import selectors
import socket
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.engine import frames
from repro.engine.allocator import release_free_heap
from repro.engine.backends import unframe_result
from repro.engine.closure import dumps as closure_dumps
from repro.engine.executor import ExecutorLostError
from repro.engine.transport import Transport
from repro.obs.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import EngineConfig

log = get_logger("repro.cluster")

#: how long to wait for the fleet to register before declaring a dud start
_REGISTER_TIMEOUT = 60.0


# -- worker process -----------------------------------------------------------


def _claim_cpu_share(slot: int, num_slots: int) -> int:
    """Confine this worker to its share of the CPUs the fleet may run on;
    returns how many CPUs that share is worth (at least one).

    A socket send wakes its reader on the *sender's* CPU (the kernel takes
    the send as a hint that the sender is about to sleep), so a driver that
    hands tasks to several idle workers gets them stacked on its own core,
    where the first one runs its task before the driver can launch the
    next; the load balancer only spreads them out after a second or two of
    dense traffic.  A warm 0.1 s job therefore ran in one of two modes, 30%
    apart, chosen by how busy the fleet had been just before.  One share
    per slot makes placement the same whatever came before.  A fleet with
    more slots than CPUs is left to the scheduler.
    """
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - not Linux
        return max(1, (os.cpu_count() or 1) // num_slots)
    cpus = sorted(os.sched_getaffinity(0))
    if num_slots <= len(cpus):
        try:
            os.sched_setaffinity(0, cpus[slot::num_slots])
        except OSError:  # pragma: no cover - a cpuset that forbids it
            pass
    return max(1, len(cpus) // num_slots)


def _openblas() -> "tuple[Any, Any] | None":
    """``(get_num_threads, set_num_threads)`` of the scipy-openblas library
    NumPy's wheels bundle, if this process has loaded it; else None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split()[-1] for line in fh if "scipy_openblas" in line
            })
    except OSError:  # pragma: no cover - not Linux
        return None
    for path in paths:
        lib = ctypes.CDLL(path)  # already mapped: returns the loaded handle
        get_fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_fn = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get_fn is not None and set_fn is not None:
            return get_fn, set_fn
    return None


def _limit_blas_threads(budget: int) -> None:
    """Shrink this process's OpenBLAS pool to at most ``budget`` threads.

    A worker is forked after NumPy has loaded OpenBLAS, which sized its pool
    to the whole host, so an environment variable set at spawn is read by
    nobody.  Left alone, every worker of a fleet that pins one CPU per slot
    runs a host-wide pool on that one CPU: a warm Monte Carlo analysis at
    gate size took 6.4 s instead of 0.38 s on a 2-CPU host.
    """
    calls = _openblas()
    if calls is None:
        return
    get_threads, set_threads = calls
    if budget < get_threads():
        set_threads(budget)


def _cluster_worker_main(
    host: str, port: int, slot: int, num_slots: int, executor_id: str, secret_hex: str
) -> None:
    """Worker process entry point: one task slot, one socket, one loop.

    Single-threaded on purpose: tasks run serially per slot (parallelism
    comes from the fleet), so process-wide worker state (the warm caches,
    the resident blocks) is only ever touched by one task at a time, and
    DRAIN can exit at any frame boundary knowing nothing is in flight.
    """
    _limit_blas_threads(_claim_cpu_share(slot, num_slots))
    # The heap this process was forked with is the driver's: park it in the
    # permanent generation so no collection here ever traverses it.  A fork
    # also copies the driver's collector counters, so a full collection that
    # had come due in the driver ran in every worker's first task as well,
    # over memory shared copy-on-write (+45-65 ms on a 0.08 s cold job).
    gc.freeze()
    from repro.engine.backends import (
        _WORKER_HB,
        _run_pickled_task,
        release_resident_blocks,
    )

    try:
        conn = socket.create_connection((host, port), timeout=30.0)
    except OSError:
        return
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        # prove we hold the cluster secret (shipped via the spawn args,
        # never over the wire) before the driver will read a frame from us
        frames.answer_challenge(conn, bytes.fromhex(secret_hex))
    except (ConnectionError, OSError):
        conn.close()
        return
    conn.settimeout(None)
    send_lock = threading.Lock()

    def send_heartbeat(record: Any) -> None:
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        with send_lock:
            frames.send_frame(conn, frames.HEARTBEAT, payload)

    _WORKER_HB["send"] = send_heartbeat
    try:
        with send_lock:
            frames.send_frame(conn, frames.REGISTER, pickle.dumps(
                {"slot": slot, "executor_id": executor_id, "pid": os.getpid()},
                protocol=pickle.HIGHEST_PROTOCOL,
            ))
        while True:
            received = frames.recv_frame(conn)
            if received is None:
                return
            ftype, payload = received
            if ftype == frames.TASK:
                token, spec = frames.unpack_token(payload)
                try:
                    result = _run_pickled_task(spec)
                except BaseException as exc:  # noqa: BLE001 - shipped to driver
                    try:
                        body = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
                    except Exception:
                        body = pickle.dumps(
                            RuntimeError(f"{type(exc).__name__}: {exc}"),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    with send_lock:
                        frames.send_frame(
                            conn, frames.TASK_ERROR, frames.pack_token(token, body)
                        )
                else:
                    with send_lock:
                        frames.send_frame(
                            conn, frames.RESULT, frames.pack_token(token, result)
                        )
            elif ftype in (frames.DRAIN, frames.SHUTDOWN):
                # single-threaded slot: at a frame boundary nothing is in
                # flight, so drain and shutdown converge to a clean exit
                return
    except (ConnectionError, OSError):
        return
    finally:
        release_resident_blocks()
        try:
            conn.close()
        except OSError:
            pass


# -- driver-side manager ------------------------------------------------------


class _HeartbeatFanout:
    """Hands each worker heartbeat to whoever is subscribed when it arrives.

    Subscribers are the heartbeat hubs of attached drivers, and each gets
    its own copy of a record (its hub posts it as is; the bus stamps it).
    A record nobody is subscribed to is dropped unread: liveness is only
    ever read by a live hub.  Sinks run on the publishing thread (the
    dispatch loop) and must not block.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: tuple = ()

    def subscribe(self, sink: Any) -> None:
        with self._lock:
            self._sinks += (sink,)

    def unsubscribe(self, sink: Any) -> None:
        with self._lock:
            self._sinks = tuple(s for s in self._sinks if s != sink)

    def publish(self, payload: bytes) -> None:
        for sink in self._sinks:
            sink(pickle.loads(payload))


class _WorkerHandle:
    """Driver-side state for one worker slot."""

    __slots__ = (
        "slot", "executor_id", "process", "sock", "parser", "outbuf",
        "inflight", "pid", "registered", "alive", "draining", "tasks_done",
    )

    def __init__(self, slot: int, executor_id: str) -> None:
        self.slot = slot
        self.executor_id = executor_id
        self.process: Any = None
        self.sock: socket.socket | None = None
        self.parser = frames.FrameParser()
        self.outbuf = bytearray()
        #: token -> Future awaiting this slot's RESULT/TASK_ERROR
        self.inflight: dict[int, concurrent.futures.Future] = {}
        self.pid = 0
        self.registered = threading.Event()
        self.alive = False
        self.draining = False
        self.tasks_done = 0


class ClusterManager:
    """Owns a persistent worker fleet and its event-driven dispatch loop.

    Lives independently of any Context: each driver Context submits its
    jobs through it; the workers -- and everything warm inside them --
    stay up for the next one.  The manager also owns the blob transport,
    for the same reason: worker-side transport handles memoize by spec,
    so a transport that died with its context would strand them.
    """

    def __init__(self, num_executors: int, executor_cores: int) -> None:
        self.num_executors = num_executors
        self.executor_cores = executor_cores
        #: per-cluster authkey (multiprocessing-style): workers receive it
        #: via their spawn args and must answer the listener's HMAC
        #: challenge before any frame of theirs is deserialized
        self.secret = secrets.token_bytes(32)
        self.transport = Transport.create()
        self.heartbeats = _HeartbeatFanout()
        self.stopped = False
        self._tokens = itertools.count(1)
        self._lock = threading.Lock()
        self._cmds: deque = deque()
        self._exec_state: dict[str, str] = {}
        #: (executor_id, binary content hash) pairs already charged in the
        #: task_binary_bytes accounting -- persists across contexts, which
        #: is exactly what makes warm jobs report ~0 binary bytes
        self._shipped: set[tuple[str, str]] = set()

        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.setblocking(False)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._stop_event = threading.Event()

        self.workers = [
            _WorkerHandle(slot, f"exec-{slot // executor_cores}")
            for slot in range(num_executors * executor_cores)
        ]
        for eid in {h.executor_id for h in self.workers}:
            self._exec_state[eid] = "starting"
        self._spawn_workers()

        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listen")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._dispatch = threading.Thread(
            target=self._dispatch_loop, name="repro-cluster-dispatch", daemon=True
        )
        self._dispatch.start()
        self._await_registration()
        # a driver that exits without stopping its fleet would leak the
        # transport's shared-memory segments; stop() unregisters again
        atexit.register(self.stop)

    # -- startup ----------------------------------------------------------

    def _spawn_workers(self) -> None:
        import multiprocessing

        host, _, port = self.address.rpartition(":")
        release_free_heap()
        for handle in self.workers:
            proc = multiprocessing.Process(
                target=_cluster_worker_main,
                args=(host, int(port), handle.slot, len(self.workers),
                      handle.executor_id, self.secret.hex()),
                name=f"repro-cluster-{handle.executor_id}-s{handle.slot}",
                daemon=True,
            )
            proc.start()
            handle.process = proc

    def _await_registration(self) -> None:
        deadline = time.monotonic() + _REGISTER_TIMEOUT
        for handle in self.workers:
            if not handle.registered.wait(max(0.0, deadline - time.monotonic())):
                self.stop()
                raise RuntimeError(
                    f"cluster worker slot {handle.slot} "
                    f"({handle.executor_id}) never registered"
                )
        for eid in self._exec_state:
            self._exec_state[eid] = "registered"

    # -- backend interface -------------------------------------------------

    def submit(
        self, payload: bytes, executor_id: str, partition: int = 0
    ) -> concurrent.futures.Future:
        """Queue one task on the named executor's slot for ``partition``;
        it goes out at the next :meth:`flush`.

        The slot is a function of the partition, not of load: each slot is
        its own worker process with its own resident blocks and memos, so
        the same partition must reach the same process while it lives.  An
        executor with no alive slot fails the future with
        :class:`ExecutorLostError`; the scheduler then forgets its block
        locations and places the task elsewhere.
        """
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            if self.stopped:
                future.set_exception(RuntimeError("cluster is stopped"))
                return future
            candidates = [
                h for h in self.workers
                if h.executor_id == executor_id and h.alive and not h.draining
            ]
            if not candidates:
                future.set_exception(ExecutorLostError(executor_id))
                return future
            # executors take partitions round-robin, so consecutive
            # partitions of one executor are num_executors apart
            handle = candidates[(partition // self.num_executors) % len(candidates)]
            token = next(self._tokens)
            handle.inflight[token] = future
            # the token rides along so the dispatch loop can drop the frame
            # if the future is cancelled (an abandoned attempt) before sending
            self._cmds.append(("send", handle, frames.encode_frame(
                frames.TASK, frames.pack_token(token, payload)
            ), token))
        return future

    def flush(self) -> None:
        """Send every task queued since the last flush: one wake of the
        dispatch thread for a whole pass of launches, so every worker gets
        its first frame together -- a wake per task let the dispatch thread
        hold the GIL between the driver's submits."""
        self._wake()

    def note_binary_shipped(self, executor_id: str, binary_id: str) -> bool:
        """True exactly once per (executor, binary content hash) -- ever."""
        with self._lock:
            key = (executor_id, binary_id)
            if key in self._shipped:
                return False
            self._shipped.add(key)
            return True

    def executor_info(self) -> list[dict]:
        """Per-executor lifecycle snapshot: state, pid, slots, tasks done."""
        with self._lock:
            grouped: dict[str, dict] = {}
            for h in self.workers:
                info = grouped.setdefault(h.executor_id, {
                    "executor_id": h.executor_id,
                    "state": self._exec_state.get(h.executor_id, "unknown"),
                    "pid": 0,
                    "slots": 0,
                    "tasks_done": 0,
                })
                info["slots"] += 1
                info["tasks_done"] += h.tasks_done
                if info["pid"] == 0:
                    info["pid"] = h.pid
            return [grouped[eid] for eid in sorted(grouped)]

    def decommission(self, executor_id: str) -> None:
        """Drain one executor: finish in-flight work, then retire its slots."""
        with self._lock:
            targets = [
                h for h in self.workers
                if h.executor_id == executor_id and h.alive and not h.draining
            ]
            for handle in targets:
                handle.draining = True
                self._cmds.append(("send", handle, frames.encode_frame(frames.DRAIN)))
            if targets:
                self._exec_state[executor_id] = "draining"
        self._wake()

    # -- dispatch loop -----------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x01")
        except (BlockingIOError, OSError):
            pass  # a wake byte is already pending (or we are stopping)

    def _dispatch_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                events = self._selector.select(timeout=0.5)
            except OSError:
                return
            for key, mask in events:
                tag = key.data
                try:
                    if tag == "wake":
                        while self._wake_r.recv(4096):
                            pass
                    elif tag == "listen":
                        self._accept_pending()
                    else:
                        self._service_conn(key.fileobj, tag, mask)
                except (BlockingIOError, OSError):
                    pass
                except Exception as exc:  # noqa: BLE001 - logged, the loop lives on
                    # a poisoned frame must not kill the dispatch plane; the
                    # offending connection is dropped
                    handle = tag if isinstance(tag, _WorkerHandle) else None
                    log.warning(
                        "dropping a connection the dispatch loop failed to service",
                        executor_id=handle.executor_id if handle else None,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    if handle is not None or isinstance(tag, dict):
                        self._on_disconnect(key.fileobj, handle)
            self._process_commands()

    def _accept_pending(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            conn.setblocking(False)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # challenge immediately; the 37-byte frame always fits a fresh
            # socket buffer, so a blocking-would-occur here means the peer
            # is already broken and we just drop it
            nonce = secrets.token_bytes(frames.AUTH_NONCE_LEN)
            try:
                conn.send(frames.encode_frame(frames.CHALLENGE, nonce))
            except OSError:
                conn.close()
                continue
            # anonymous (and untrusted) until AUTH + REGISTER arrive
            self._selector.register(
                conn, selectors.EVENT_READ,
                {"parser": frames.FrameParser(), "nonce": nonce, "authed": False},
            )

    def _process_commands(self) -> None:
        with self._lock:
            cmds, self._cmds = self._cmds, deque()
        for cmd in cmds:
            _op, handle, frame_bytes = cmd[0], cmd[1], cmd[2]
            if len(cmd) > 3:
                # task frame: skip it entirely if the scheduler already
                # cancelled the attempt (queued, then abandoned)
                token = cmd[3]
                with self._lock:
                    future = handle.inflight.get(token)
                    if future is None or future.cancelled():
                        handle.inflight.pop(token, None)
                        continue
            if handle.sock is None or not handle.alive:
                continue
            handle.outbuf.extend(frame_bytes)
            self._want_write(handle)

    def _want_write(self, handle: _WorkerHandle) -> None:
        try:
            self._selector.modify(
                handle.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, handle
            )
        except (KeyError, ValueError, OSError):
            pass

    def _service_conn(self, sock: socket.socket, tag: Any, mask: int) -> None:
        handle = tag if isinstance(tag, _WorkerHandle) else None
        if mask & selectors.EVENT_WRITE and handle is not None and handle.outbuf:
            try:
                sent = sock.send(handle.outbuf)
                del handle.outbuf[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._on_disconnect(sock, handle)
                return
            if not handle.outbuf:
                try:
                    self._selector.modify(sock, selectors.EVENT_READ, handle)
                except (KeyError, ValueError, OSError):
                    pass
        if not (mask & selectors.EVENT_READ):
            return
        try:
            data = sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._on_disconnect(sock, handle)
            return
        parser = handle.parser if handle is not None else tag["parser"]
        try:
            parsed = parser.feed(data)
        except ConnectionError:
            self._on_disconnect(sock, handle)
            return
        for ftype, payload in parsed:
            if handle is None:
                if not tag["authed"]:
                    # first frame must be a valid AUTH answer to our nonce;
                    # anything else is dropped before any deserialization
                    if ftype == frames.AUTH and frames.auth_ok(
                        self.secret, tag["nonce"], payload
                    ):
                        tag["authed"] = True
                        continue
                    self._drop_conn(sock)
                    return
                handle = self._on_register(sock, tag, ftype, payload)
                if handle is None:
                    return  # bogus post-auth frame: connection dropped
            else:
                self._on_frame(handle, ftype, payload)

    def _drop_conn(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _on_register(
        self, sock: socket.socket, tag: dict, ftype: int, payload: bytes
    ) -> _WorkerHandle | None:
        if ftype != frames.REGISTER:
            self._drop_conn(sock)
            return None
        info = pickle.loads(payload)
        handle = self.workers[info["slot"]]
        handle.sock = sock
        handle.parser = tag["parser"]
        handle.pid = info["pid"]
        handle.alive = True
        self._selector.modify(sock, selectors.EVENT_READ, handle)
        handle.registered.set()
        return handle

    def _on_frame(self, handle: _WorkerHandle, ftype: int, payload: bytes) -> None:
        if ftype in (frames.RESULT, frames.TASK_ERROR):
            token, body = frames.unpack_token(payload)
            with self._lock:
                future = handle.inflight.pop(token, None)
                handle.tasks_done += 1
            if future is None or future.cancelled():
                return  # attempt abandoned after a heartbeat timeout
            try:
                if ftype == frames.RESULT:
                    future.set_result(body)
                else:
                    future.set_exception(pickle.loads(body))
            except concurrent.futures.InvalidStateError:
                pass
        elif ftype == frames.HEARTBEAT:
            self.heartbeats.publish(payload)

    def _on_disconnect(self, sock: socket.socket, handle: _WorkerHandle | None) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass
        if handle is None:
            return
        with self._lock:
            handle.alive = False
            handle.sock = None
            was_draining = handle.draining
            orphans = list(handle.inflight.values())
            handle.inflight.clear()
            peers_alive = any(
                h.alive for h in self.workers if h.executor_id == handle.executor_id
            )
            if not peers_alive:
                self._exec_state[handle.executor_id] = (
                    "decommissioned" if was_draining else "lost"
                )
        for future in orphans:
            if future.cancelled():
                continue
            try:
                future.set_exception(ExecutorLostError(handle.executor_id))
            except concurrent.futures.InvalidStateError:
                pass

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Tear the fleet down for real (tests / interpreter exit)."""
        with self._lock:
            if self.stopped:
                return
            self.stopped = True
            atexit.unregister(self.stop)
            for handle in self.workers:
                if handle.alive and handle.sock is not None:
                    self._cmds.append(
                        ("send", handle, frames.encode_frame(frames.SHUTDOWN))
                    )
        self._wake()
        time.sleep(0.05)  # give the loop one pass to flush SHUTDOWN frames
        self._stop_event.set()
        self._wake()
        if self._dispatch.is_alive():
            self._dispatch.join(timeout=5.0)
        for handle in self.workers:
            proc = handle.process
            if proc is not None and proc.is_alive():
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
            handle.alive = False
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self.transport.close()


# -- process-wide cluster registry --------------------------------------------

_CLUSTERS: dict[tuple, ClusterManager] = {}
_CLUSTERS_LOCK = threading.Lock()


def get_cluster(config: "EngineConfig") -> ClusterManager:
    """The process-wide persistent cluster for this shape (create on first use)."""
    key = (config.num_executors, config.executor_cores)
    with _CLUSTERS_LOCK:
        manager = _CLUSTERS.get(key)
        if manager is None or manager.stopped:
            manager = ClusterManager(config.num_executors, config.executor_cores)
            _CLUSTERS[key] = manager
        return manager


def stop_all_clusters() -> None:
    """Stop every persistent cluster this process started."""
    with _CLUSTERS_LOCK:
        managers = list(_CLUSTERS.values())
        _CLUSTERS.clear()
    for manager in managers:
        manager.stop()


class ClusterBackend:
    """Backend facade over the process-wide persistent cluster.

    ``shutdown`` only detaches -- the cluster outlives the context by
    design.  Partition -> worker-process placement is pinned across jobs
    and contexts so resident blocks and warm memos actually get re-hit, and
    every task binary is published by transport ref, which is what turns
    job 2's publication into a dedup hit.
    """

    name = "cluster"

    def __init__(self, config: "EngineConfig") -> None:
        self.parallelism = max(1, config.total_cores)
        self._config = config
        self._manager = get_cluster(config)
        self._detached = False

    @property
    def transport(self) -> Transport:
        return self._manager.transport

    @property
    def heartbeats(self) -> _HeartbeatFanout:
        """Where a heartbeat hub subscribes to this fleet's worker records."""
        return self._manager.heartbeats

    @staticmethod
    def block_key(rdd: Any) -> str:
        """The lineage fingerprint (SHA-256 of the RDD's closure-aware
        pickle): a worker's store outlives every Context, whose rdd ids all
        restart at 0, and an identical lineage finds its blocks again."""
        return hashlib.sha256(closure_dumps(rdd)).hexdigest()

    def submit_task(
        self, task: Any, attempt: int, executor: Any, prefetched: dict,
        job_id: int, keys: dict, binary: Any,
    ) -> concurrent.futures.Future:
        """Queue one attempt as an envelope of refs and its prefetched
        shuffle frames (``binary`` carries the lineage and ``keys``)."""
        config = self._config
        payload = pickle.dumps(
            {
                "binary_ref": binary.ref,
                "partition": task.partition,
                "attempt": attempt,
                "executor_id": executor.executor_id,
                "prefetched_shuffle": prefetched,
                # budget of the worker process's resident block manager:
                # the executor's, split over its slot processes
                "storage_memory": (
                    config.storage_memory_per_executor // config.executor_cores
                ),
                "transport": self.transport.spec(),
                # the worker heartbeats at *this* driver's cadence while the
                # task runs, whoever spawned the fleet (0 = none)
                "heartbeat_interval": config.heartbeat_interval,
                # structured-logging correlation: the worker captures at the
                # driver's level and stamps this id on its records
                "job_id": job_id,
                "log_level": config.log_level,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return self.submit_pickled(payload, executor.executor_id, task.partition)

    def submit_pickled(
        self, payload: bytes, executor_id: str | None = None, partition: int = 0
    ) -> concurrent.futures.Future:
        if self._detached:
            raise RuntimeError("backend is shut down")
        return self._manager.submit(payload, executor_id or "exec-0", partition)

    def open_result(self, frame: bytes) -> dict:
        """A worker's ``out`` dict, with the serialization time its frame
        header carries (outside the body it measured) folded in."""
        out, serialize_seconds, serialize_offset = unframe_result(frame, self.transport)
        out["metrics"].result_serialize_seconds += serialize_seconds
        out["span_fragments"].append({
            "name": "result_serialize",
            "start": serialize_offset,
            "end": serialize_offset + serialize_seconds,
        })
        return out

    def flush(self) -> None:
        """Send the tasks :meth:`submit_pickled` queued."""
        self._manager.flush()

    def note_binary_shipped(self, executor_id: str, binary_id: str) -> bool:
        return self._manager.note_binary_shipped(executor_id, binary_id)

    def decommission(self, executor_id: str) -> None:
        self._manager.decommission(executor_id)

    def shutdown(self) -> None:
        """Detach only; the fleet stays warm for the next context."""
        self._detached = True


__all__ = [
    "ClusterManager",
    "ClusterBackend",
    "get_cluster",
    "stop_all_clusters",
]
