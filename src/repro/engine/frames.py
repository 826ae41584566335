"""Length-prefixed socket frames: the cluster wire protocol.

Every byte that crosses a cluster socket -- task dispatch, results,
heartbeats, lifecycle control, and the socket transport's blob traffic --
is a *frame*:

    length u32 (big-endian, payload bytes) | type u8 | payload

The fixed header keeps parsing allocation-free and lets the driver's
single dispatch thread interleave frames from many executors without
ambiguity.  Payload encodings are per-type (documented next to each
constant); task payloads deliberately avoid a pickle wrapper so the
multi-hundred-KB spec bytes are sliced, never re-copied through pickle.

:class:`FrameParser` is the incremental decoder used by non-blocking
readers (the dispatch loop feeds it whatever ``recv`` returned);
:func:`send_frame` / :func:`recv_frame` are the blocking pair used by
worker main loops and the blob server, where one-frame-at-a-time is the
natural cadence.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import socket
import struct

_HEADER = struct.Struct("!IB")
#: refuse frames past this size -- a corrupt length prefix must not make
#: the receiver try to allocate gigabytes
MAX_FRAME = 1 << 31

# -- control plane ------------------------------------------------------------
#: worker -> driver: pickled dict {slot, executor_id, pid}; only accepted
#: after the CHALLENGE/AUTH handshake has proven the peer holds the
#: cluster secret -- no pickle ever touches unauthenticated bytes
REGISTER = 1
#: driver -> worker (or driver -> head): ``!QIH`` token, partition,
#: executor-id length, executor id utf-8, task spec bytes (executor id and
#: partition route head-side -- the same partition always reaches the same
#: worker process; workers ignore both)
TASK = 2
#: worker -> driver: ``!Q`` token, framed result bytes (see
#: :func:`repro.engine.backends.unframe_result`)
RESULT = 3
#: worker -> driver: ``!Q`` token, pickled exception
TASK_ERROR = 4
#: worker -> driver: pickled :class:`~repro.engine.heartbeat.HeartbeatRecord`
HEARTBEAT = 5
#: driver -> worker: stop accepting tasks, finish in-flight, then exit
DRAIN = 6
#: driver -> worker / CLI -> head: terminate now
SHUTDOWN = 7
#: CLI -> head: request a pickled executor-info list
STATUS = 8
STATUS_REPLY = 9
#: external driver -> head: attach as a job submitter
ATTACH = 10
#: head -> driver: pickled dict {num_executors, executor_cores,
#: executor_ids, transport_spec}
ATTACH_REPLY = 11
#: external driver -> head, fire-and-forget: pickled (executor_id,
#: binary_id) so the head's shipped-binary index (``cluster status``
#: ``binaries_cached``) stays truthful across drivers
BINARY_SHIPPED = 12
#: server -> connecting peer, first frame on every cluster socket: a
#: random nonce the peer must answer before anything else is processed
CHALLENGE = 13
#: peer -> server: HMAC-SHA256(secret, nonce).  Connections whose first
#: frame is not a valid AUTH are dropped on the floor; everything that
#: pickles (REGISTER, HEARTBEAT, RESULT, BLOB_OFFER, ...) sits behind it
AUTH = 14
#: CLI/driver -> head: request a pickled fleet-stats snapshot (the
#: cluster-resident observability plane: per-executor series + totals)
FLEET = 15
#: head -> requester: pickled dict, see
#: :meth:`repro.obs.fleet.FleetStats.snapshot`
FLEET_REPLY = 16
#: driver -> head, fire-and-forget: pickled inference-convergence summary
#: (replicates done/planned, throughput, sets converged) for cluster top
INFERENCE = 17

# -- blob transport (socket variant of repro.engine.transport) ---------------
#: utf-8 key
BLOB_GET = 20
#: raw blob bytes
BLOB_DATA = 21
#: key not present on the server
BLOB_MISSING = 22
#: pickled (sha256 hex, size): dedup offer sent *before* any payload moves
BLOB_OFFER = 23
#: pickled :class:`~repro.engine.transport.TransportRef` -- server already
#: holds the content; the offerer never pushes the payload
BLOB_HAVE = 24
#: server wants the payload; follow with BLOB_PUSH
BLOB_WANT = 25
#: ``!H`` key length, key utf-8, blob bytes
BLOB_PUSH = 26
#: generic ack (push stored / delete done)
BLOB_OK = 27
#: utf-8 key
BLOB_DELETE = 28

_TASK_PREFIX = struct.Struct("!QIH")
_TOKEN = struct.Struct("!Q")


def pack_task(token: int, executor_id: str, partition: int, payload: bytes) -> bytes:
    eid = executor_id.encode("utf-8")
    return _TASK_PREFIX.pack(token, partition, len(eid)) + eid + payload


def unpack_task(frame: bytes) -> tuple[int, str, int, bytes]:
    token, partition, eid_len = _TASK_PREFIX.unpack_from(frame)
    start = _TASK_PREFIX.size
    eid = bytes(frame[start:start + eid_len]).decode("utf-8")
    return token, eid, partition, bytes(frame[start + eid_len:])


def pack_token(token: int, payload: bytes) -> bytes:
    return _TOKEN.pack(token) + payload


def unpack_token(frame: bytes) -> tuple[int, bytes]:
    (token,) = _TOKEN.unpack_from(frame)
    return token, bytes(frame[_TOKEN.size:])


# -- authentication -----------------------------------------------------------

#: bytes of random nonce in a CHALLENGE frame
AUTH_NONCE_LEN = 32


def auth_digest(secret: bytes, nonce: bytes) -> bytes:
    """The expected AUTH payload for a given CHALLENGE nonce."""
    return hmac.new(secret, nonce, hashlib.sha256).digest()


def auth_ok(secret: bytes, nonce: bytes, digest: bytes) -> bool:
    """Constant-time check of an AUTH payload against the nonce we issued."""
    return hmac.compare_digest(auth_digest(secret, nonce), digest)


def answer_challenge(sock: socket.socket, secret: bytes) -> None:
    """Blocking client half of the handshake: read CHALLENGE, send AUTH."""
    received = recv_frame(sock)
    if received is None or received[0] != CHALLENGE:
        raise ConnectionError("peer did not issue an auth challenge")
    send_frame(sock, AUTH, auth_digest(secret, received[1]))


def expect_auth(sock: socket.socket, secret: bytes) -> None:
    """Blocking server half: send CHALLENGE, require a valid AUTH reply.

    Raises :class:`ConnectionError` on anything else; callers drop the
    connection without ever deserializing a byte from it.
    """
    nonce = secrets.token_bytes(AUTH_NONCE_LEN)
    send_frame(sock, CHALLENGE, nonce)
    received = recv_frame(sock)
    if (
        received is None
        or received[0] != AUTH
        or not auth_ok(secret, nonce, received[1])
    ):
        raise ConnectionError("peer failed cluster auth handshake")


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_FRAME:
        raise ValueError(f"frame too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload), ftype) + payload


def send_frame(sock: socket.socket, ftype: int, payload: bytes = b"") -> None:
    """Blocking send of one frame (worker loops, blob server)."""
    sock.sendall(encode_frame(ftype, payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on a clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n and not chunks:
                return None
            raise ConnectionError("socket closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Blocking receive of one frame; None when the peer closed cleanly."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, ftype = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ConnectionError(f"oversized frame announced: {length} bytes")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ConnectionError("socket closed between header and payload")
    return ftype, payload


class FrameParser:
    """Incremental frame decoder for non-blocking readers.

    Feed it whatever ``recv`` produced; it yields every complete frame and
    buffers the tail until the next feed.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buf.extend(data)
        frames: list[tuple[int, bytes]] = []
        offset = 0
        while True:
            if len(self._buf) - offset < _HEADER.size:
                break
            length, ftype = _HEADER.unpack_from(self._buf, offset)
            if length > MAX_FRAME:
                raise ConnectionError(f"oversized frame announced: {length} bytes")
            end = offset + _HEADER.size + length
            if len(self._buf) < end:
                break
            frames.append((ftype, bytes(self._buf[offset + _HEADER.size:end])))
            offset = end
        if offset:
            del self._buf[:offset]
        return frames


__all__ = [
    "REGISTER", "TASK", "RESULT", "TASK_ERROR", "HEARTBEAT", "DRAIN",
    "SHUTDOWN", "STATUS", "STATUS_REPLY", "ATTACH", "ATTACH_REPLY",
    "BINARY_SHIPPED", "CHALLENGE", "AUTH", "FLEET", "FLEET_REPLY",
    "INFERENCE", "AUTH_NONCE_LEN",
    "BLOB_GET", "BLOB_DATA", "BLOB_MISSING", "BLOB_OFFER", "BLOB_HAVE",
    "BLOB_WANT", "BLOB_PUSH", "BLOB_OK", "BLOB_DELETE",
    "pack_task", "unpack_task", "pack_token", "unpack_token",
    "auth_digest", "auth_ok", "answer_challenge", "expect_auth",
    "encode_frame", "send_frame", "recv_frame", "FrameParser", "MAX_FRAME",
]
