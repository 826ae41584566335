"""Length-prefixed socket frames: the cluster wire protocol.

Every byte that crosses a socket between the driver and its workers --
the auth handshake, task dispatch, results, heartbeats and lifecycle
control -- is a *frame*:

    length u32 (big-endian, payload bytes) | type u8 | payload

The fixed header keeps parsing allocation-free and lets the driver's
single dispatch thread interleave frames from many executors without
ambiguity.  Payload encodings are per-type (documented next to each
constant); task payloads deliberately avoid a pickle wrapper so the
multi-hundred-KB spec bytes are sliced, never re-copied through pickle.

:class:`FrameParser` is the incremental decoder used by non-blocking
readers (the dispatch loop feeds it whatever ``recv`` returned);
:func:`send_frame` / :func:`recv_frame` are the blocking pair used by
worker main loops, where one-frame-at-a-time is the natural cadence.
Large payloads never ride a frame: they go through
:mod:`repro.engine.transport` and a frame carries the ref.
"""

from __future__ import annotations

import hashlib
import hmac
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
#: driver -> worker: ``!Q`` token, task spec bytes (the driver already
#: routed the task to this worker by executor and partition)
TASK = 2
#: worker -> driver: ``!Q`` token, framed result bytes (see
#: :func:`repro.engine.backends.unframe_result`)
RESULT = 3
#: worker -> driver: ``!Q`` token, pickled exception
TASK_ERROR = 4
#: worker -> driver: pickled :class:`~repro.engine.listener.ExecutorHeartbeat`
HEARTBEAT = 5
#: driver -> worker: stop accepting tasks, finish in-flight, then exit
DRAIN = 6
#: driver -> worker: terminate now
SHUTDOWN = 7
#: driver -> connecting worker, first frame on every cluster socket: a
#: random nonce the worker must answer before anything else is processed
CHALLENGE = 13
#: worker -> driver: HMAC-SHA256(secret, nonce).  Connections whose first
#: frame is not a valid AUTH are dropped on the floor; everything that
#: pickles (REGISTER, HEARTBEAT, RESULT, ...) sits behind it
AUTH = 14

_TOKEN = struct.Struct("!Q")


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
    """Blocking worker half of the handshake: read CHALLENGE, send AUTH.

    The driver's half runs inside its non-blocking dispatch loop: it sends
    the CHALLENGE on accept and checks the reply with :func:`auth_ok`.
    """
    received = recv_frame(sock)
    if received is None or received[0] != CHALLENGE:
        raise ConnectionError("peer did not issue an auth challenge")
    send_frame(sock, AUTH, auth_digest(secret, received[1]))


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_FRAME:
        raise ValueError(f"frame too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload), ftype) + payload


def send_frame(sock: socket.socket, ftype: int, payload: bytes = b"") -> None:
    """Blocking send of one frame (worker loops)."""
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
    "SHUTDOWN", "CHALLENGE", "AUTH", "AUTH_NONCE_LEN",
    "pack_token", "unpack_token",
    "auth_digest", "auth_ok", "answer_challenge",
    "encode_frame", "send_frame", "recv_frame", "FrameParser", "MAX_FRAME",
]
