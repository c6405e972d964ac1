"""Wire protocol between the shard router and its worker processes.

The process-sharded server talks to each OS worker over a byte pipe.
Every message is one *frame*::

    +-------+---------+------+-----+-------------+----------+
    | magic | version | kind | pad | payload len | crc32    |  header
    +-------+---------+------+-----+-------------+----------+
    | pickled message payload ...                           |  body
    +-------------------------------------------------------+

The 16-byte header carries 4 magic bytes (``FWP1``), a protocol
version, the message kind, the payload length and a CRC32 of the
payload; the body is the pickled message dataclass.  ``decode_frame``
verifies all four before unpickling, so a torn or corrupted frame
surfaces as a :class:`~repro.errors.WireProtocolError` instead of a
pickle error deep inside the router — the router treats that like a
dead shard.

Messages are deliberately plain data: scripts go down as
:class:`~repro.serving.workload.SessionScript` (architecture enum,
call list), results come back as rows / floats / a
:class:`~repro.serving.session.SessionSummary` — everything pickles
without touching live engine objects, so the same frames work under
both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import WireProtocolError
from repro.fdbs.config import EngineConfig
from repro.serving.session import SessionSummary
from repro.serving.workload import SessionScript

#: Frame magic: Federated Wire Protocol, revision 1.
MAGIC = b"FWP1"

#: Protocol version; bumped on any incompatible header/payload change.
VERSION = 1

#: Header layout: magic, version, kind, 2 pad bytes, payload length, crc32.
HEADER = struct.Struct(">4sBBxxII")


@dataclass(frozen=True)
class Hello:
    """Worker -> router: the shard booted and is ready for frames.

    ``config`` echoes the engine config the worker builds its servers
    with, so the router can show what actually crossed the fork.
    """

    shard_id: int
    pid: int
    config: EngineConfig | None = None


@dataclass(frozen=True)
class RunScript:
    """Router -> worker: run one session script on a fresh shard server."""

    request_id: int
    script: SessionScript


@dataclass(frozen=True)
class ScriptDone:
    """Worker -> router: one script completed; the picklable outcome.

    ``row_sets`` / ``call_sim_ms`` / ``latencies`` are per call, in
    script order; ``simulated_ms`` is the session total (the parity
    gates compare it bit-for-bit against the bare stack).
    """

    request_id: int
    session_id: int
    row_sets: list = field(default_factory=list)
    call_sim_ms: list = field(default_factory=list)
    simulated_ms: float = 0.0
    latencies: list = field(default_factory=list)
    summary: SessionSummary | None = None


@dataclass(frozen=True)
class ScriptFailed:
    """Worker -> router: the script raised; the worker itself survives."""

    request_id: int
    session_id: int
    error_kind: str
    message: str


@dataclass(frozen=True)
class Ping:
    """Router -> worker: liveness probe."""

    token: int


@dataclass(frozen=True)
class Pong:
    """Worker -> router: liveness reply with the scripts-completed count."""

    token: int
    completed: int


@dataclass(frozen=True)
class Shutdown:
    """Router -> worker: drain and exit.

    Frames are delivered in order, so a ``Shutdown`` sent after a batch
    of ``RunScript`` frames is only seen once the worker has finished
    them — the graceful-drain path needs no extra bookkeeping.
    """


@dataclass(frozen=True)
class ShutdownAck:
    """Worker -> router: drained; exiting after this frame."""

    completed: int


#: kind byte <-> message class (the wire's closed vocabulary).
MESSAGE_KINDS: dict[int, type] = {
    1: Hello,
    2: RunScript,
    3: ScriptDone,
    4: ScriptFailed,
    5: Ping,
    6: Pong,
    7: Shutdown,
    8: ShutdownAck,
}
_KIND_OF = {cls: kind for kind, cls in MESSAGE_KINDS.items()}


def encode_frame(message: object) -> bytes:
    """Serialize one message into a checksummed wire frame."""
    try:
        kind = _KIND_OF[type(message)]
    except KeyError:
        raise WireProtocolError(
            f"{type(message).__name__} is not a wire message"
        ) from None
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    header = HEADER.pack(MAGIC, VERSION, kind, len(payload), zlib.crc32(payload))
    return header + payload


def decode_frame(frame: bytes) -> object:
    """Parse and verify one wire frame back into its message."""
    if len(frame) < HEADER.size:
        raise WireProtocolError(
            f"short frame: {len(frame)} bytes < {HEADER.size}-byte header"
        )
    magic, version, kind, length, crc = HEADER.unpack(frame[: HEADER.size])
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise WireProtocolError(
            f"unsupported protocol version {version} (speaking {VERSION})"
        )
    if kind not in MESSAGE_KINDS:
        raise WireProtocolError(f"unknown message kind {kind}")
    payload = frame[HEADER.size:]
    if len(payload) != length:
        raise WireProtocolError(
            f"payload length {len(payload)} != declared {length}"
        )
    if zlib.crc32(payload) != crc:
        raise WireProtocolError("payload checksum mismatch")
    message = pickle.loads(payload)
    if type(message) is not MESSAGE_KINDS[kind]:
        raise WireProtocolError(
            f"kind byte {kind} carries a {type(message).__name__} payload"
        )
    return message


def send_frame(conn, message: object) -> None:
    """Encode and send one message over a multiprocessing connection."""
    conn.send_bytes(encode_frame(message))


def recv_frame(conn) -> object:
    """Receive and decode the next message from a connection.

    Propagates ``EOFError``/``OSError`` from a closed or broken pipe —
    the router maps those to shard death.
    """
    return decode_frame(conn.recv_bytes())


__all__ = [
    "HEADER",
    "MAGIC",
    "MESSAGE_KINDS",
    "VERSION",
    "Hello",
    "Ping",
    "Pong",
    "RunScript",
    "ScriptDone",
    "ScriptFailed",
    "Shutdown",
    "ShutdownAck",
    "decode_frame",
    "encode_frame",
    "recv_frame",
    "send_frame",
]
