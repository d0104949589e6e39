"""Length-prefixed, CRC-checked socket framing for shard transport.

Sockets give a shard transport nothing beyond byte ordering — no
message boundaries, no integrity check — so the remote-shard transport
(:mod:`repro.serving.netshard`) defines an explicit frame::

    0      2     3     4        8        12
    +------+-----+-----+--------+--------+----------------+
    | 'RQ' | ver | rsv | length | crc32  | payload ...    |
    +------+-----+-----+--------+--------+----------------+
      magic  u8    u8    u32 BE   u32 BE   `length` bytes

* **magic + version** reject cross-protocol garbage (a stray HTTP
  probe, a mismatched peer) on the first 3 bytes instead of feeding
  junk into the unpickler.
* **length** is read *before* the payload and validated against
  ``max_frame_bytes`` — a corrupted or hostile length prefix is
  rejected without allocating or reading gigabytes.
* **crc32** covers the payload; a frame that arrives bit-flipped is
  dropped as :class:`FrameCorrupted`, never unpickled.
* **payload** is a compact pickled ``(kind, body)`` tuple — one
  message of the shard vocabulary listed in :mod:`repro.serving.netshard`.

Every failure mode is a typed :class:`FrameError` subclass, so the
reader thread can distinguish "peer is gone" (:class:`FrameClosed`)
from "peer is speaking garbage" (:class:`FrameCorrupted` /
:class:`FrameTooLarge`) — both tear the connection down cleanly
instead of wedging the reader.

:class:`FrameStream` wraps a connected socket with per-message read
timeouts (``recv(timeout=...)`` returns ``None`` on timeout, it never
blocks forever) and a send lock so heartbeat, resend and data-plane
writers may share one connection.  Read deadlines are implemented
with ``select`` — never ``settimeout`` — so a sender and a receiver
thread sharing the socket cannot clobber each other's timeout
mid-syscall (the socket's timeout is fixed to the send ceiling once,
at construction).

**Trust boundary.**  The payload is a pickle, and ``pickle.loads`` on
attacker-controlled bytes is arbitrary code execution — CRC32 is an
integrity check against line noise, not an authenticity check against
a hostile peer.  Both ends therefore run an HMAC-SHA256
challenge/response (:func:`deliver_challenge` /
:func:`answer_challenge`, the same shape as
``multiprocessing.connection``'s authkey handshake) over a shared
secret *before a single frame is read*: the listener proves the
dialer holds the key before unpickling anything, and the dialer
proves the listener does before shipping it a model.  An empty key
degrades to an unauthenticated handshake and is only acceptable on a
loopback or otherwise-trusted link — never expose a worker port with
an empty key on a network where untrusted hosts can reach it.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import select
import socket
import struct
import threading
import time
import zlib
from typing import Any, Optional, Tuple

from repro.obs import get_registry

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "HEADER_LEN",
    "DEFAULT_MAX_FRAME_BYTES",
    "AUTH_CHALLENGE_MAGIC",
    "AUTH_WELCOME_MAGIC",
    "FrameError",
    "FrameClosed",
    "FrameCorrupted",
    "FrameTooLarge",
    "FrameAuthFailed",
    "FrameStream",
    "encode_frame",
    "decode_frame",
    "deliver_challenge",
    "answer_challenge",
]

FRAME_MAGIC = b"RQ"
FRAME_VERSION = 1
#: ``magic(2) + version(1) + reserved(1) + length(4) + crc32(4)``.
_HEADER = struct.Struct(">2sBBII")
HEADER_LEN = _HEADER.size
#: Generous for entry batches (a 256-entry batch pickles to ~100 KB)
#: while still rejecting a garbage length prefix instantly.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

_REG = get_registry()
_FRAMES = _REG.counter(
    "repro_serving_net_frames_total",
    "Frames moved over shard socket transports, by direction.",
    labelnames=("direction",),
)
_FRAME_ERRORS = _REG.counter(
    "repro_serving_net_frame_errors_total",
    "Frames rejected by the shard socket transport, by error kind.",
    labelnames=("kind",),
)


class FrameError(Exception):
    """Base class for every framing failure."""


class FrameClosed(FrameError):
    """The peer closed the connection (EOF mid-frame or between frames)."""


class FrameCorrupted(FrameError):
    """Bad magic, unsupported version, or a CRC mismatch."""


class FrameTooLarge(FrameError):
    """The length prefix exceeds the configured frame bound."""


class FrameAuthFailed(FrameError):
    """The peer failed (or never completed) the authentication handshake."""


# ----------------------------------------------------------------------
# Authentication handshake (before any frame is read)
# ----------------------------------------------------------------------

AUTH_CHALLENGE_MAGIC = b"RQA1"
AUTH_WELCOME_MAGIC = b"RQA2"
_AUTH_NONCE_LEN = 16
_AUTH_DIGEST_LEN = hashlib.sha256().digest_size
AUTH_HANDSHAKE_TIMEOUT_S = 5.0


def _auth_digest(auth_key: bytes, magic: bytes, nonce: bytes) -> bytes:
    return hmac.new(auth_key, magic + nonce, hashlib.sha256).digest()


def _recv_exact(sock: socket.socket, n: int, deadline: float) -> bytes:
    """Read exactly ``n`` bytes before ``deadline`` (monotonic seconds).

    Uses ``select`` for the wait so it never touches the socket's
    timeout; raises :class:`FrameClosed` on EOF and
    :class:`FrameAuthFailed` when the deadline passes first.
    """
    buf = b""
    while len(buf) < n:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise FrameAuthFailed(
                f"handshake timed out with {len(buf)} of {n} bytes read"
            )
        readable, _, _ = select.select([sock], [], [], remaining)
        if not readable:
            continue
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise FrameClosed("peer closed the connection mid-handshake")
        buf += chunk
    return buf


def deliver_challenge(
    sock: socket.socket,
    auth_key: bytes,
    timeout_s: float = AUTH_HANDSHAKE_TIMEOUT_S,
) -> None:
    """Listener side: authenticate the dialer before reading any frame.

    Sends ``RQA1 + nonce``, requires ``HMAC-SHA256(key, RQA1+nonce)``
    back, then proves key possession to the dialer with
    ``HMAC-SHA256(key, RQA2+nonce)``.  Raises :class:`FrameAuthFailed`
    (after recording the rejection) on a bad or missing response —
    the caller must close the connection, and nothing the peer sent
    ever reaches the unpickler.
    """
    deadline = time.monotonic() + timeout_s
    nonce = os.urandom(_AUTH_NONCE_LEN)
    try:
        sock.sendall(AUTH_CHALLENGE_MAGIC + nonce)
        response = _recv_exact(sock, _AUTH_DIGEST_LEN, deadline)
    except OSError as exc:
        raise FrameClosed(f"handshake transport failed: {exc}") from exc
    expected = _auth_digest(auth_key, AUTH_CHALLENGE_MAGIC, nonce)
    if not hmac.compare_digest(response, expected):
        _FRAME_ERRORS.labels(kind="auth").inc()
        raise FrameAuthFailed("peer failed the authentication challenge")
    try:
        sock.sendall(_auth_digest(auth_key, AUTH_WELCOME_MAGIC, nonce))
    except OSError as exc:
        raise FrameClosed(f"handshake transport failed: {exc}") from exc


def answer_challenge(
    sock: socket.socket,
    auth_key: bytes,
    timeout_s: float = AUTH_HANDSHAKE_TIMEOUT_S,
) -> None:
    """Dialer side: answer the listener's challenge, verify its welcome.

    The welcome check is what makes the handshake *mutual*: the parent
    ships the model (a pickle the worker executes) inside ``hello``,
    so it must not talk to a listener that cannot prove it holds the
    key either.  Raises :class:`FrameAuthFailed` on any mismatch.
    """
    deadline = time.monotonic() + timeout_s
    try:
        challenge = _recv_exact(
            sock, len(AUTH_CHALLENGE_MAGIC) + _AUTH_NONCE_LEN, deadline
        )
    except OSError as exc:
        raise FrameClosed(f"handshake transport failed: {exc}") from exc
    if not challenge.startswith(AUTH_CHALLENGE_MAGIC):
        _FRAME_ERRORS.labels(kind="auth").inc()
        raise FrameAuthFailed(
            f"peer did not open with an auth challenge: {challenge[:4]!r}"
        )
    nonce = challenge[len(AUTH_CHALLENGE_MAGIC):]
    try:
        sock.sendall(_auth_digest(auth_key, AUTH_CHALLENGE_MAGIC, nonce))
        welcome = _recv_exact(sock, _AUTH_DIGEST_LEN, deadline)
    except OSError as exc:
        raise FrameClosed(f"handshake transport failed: {exc}") from exc
    expected = _auth_digest(auth_key, AUTH_WELCOME_MAGIC, nonce)
    if not hmac.compare_digest(welcome, expected):
        _FRAME_ERRORS.labels(kind="auth").inc()
        raise FrameAuthFailed("listener failed to prove key possession")


def encode_frame(message: Any, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Serialize one message into a complete frame (header + payload)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > max_frame_bytes:
        raise FrameTooLarge(
            f"payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame bound"
        )
    header = _HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION, 0, len(payload), zlib.crc32(payload)
    )
    return header + payload


def decode_frame(
    data: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Tuple[Any, int]:
    """Decode one frame from ``data``; returns ``(message, bytes_consumed)``.

    Raises :class:`FrameClosed` when ``data`` holds a truncated frame
    (more bytes may complete it), :class:`FrameCorrupted` on bad
    magic/version/CRC, :class:`FrameTooLarge` on a hostile length.
    """
    if len(data) < HEADER_LEN:
        raise FrameClosed(
            f"truncated header: {len(data)} of {HEADER_LEN} bytes"
        )
    magic, version, _reserved, length, crc = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameCorrupted(f"bad magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameCorrupted(f"unsupported frame version {version}")
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"length prefix {length} exceeds the {max_frame_bytes}-byte bound"
        )
    end = HEADER_LEN + length
    if len(data) < end:
        raise FrameClosed(
            f"truncated payload: {len(data) - HEADER_LEN} of {length} bytes"
        )
    payload = data[HEADER_LEN:end]
    if zlib.crc32(payload) != crc:
        raise FrameCorrupted("payload CRC mismatch")
    return pickle.loads(payload), end


class FrameStream:
    """A connected socket speaking the shard frame protocol.

    Parameters
    ----------
    sock:
        A connected ``socket.socket``.  The stream owns it: ``close()``
        closes it, and send/recv errors leave it closed.
    max_frame_bytes:
        Upper bound on a single frame's payload, both directions.
    send_timeout_s:
        Hard ceiling on one blocking ``sendall`` — the guard against a
        peer that stopped reading forever (a *partitioned* peer stalls
        for seconds; a wedged one would otherwise hold the sender
        hostage indefinitely).
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        send_timeout_s: float = 30.0,
    ) -> None:
        self._sock = sock
        self.max_frame_bytes = max_frame_bytes
        self.send_timeout_s = send_timeout_s
        self._send_lock = threading.Lock()
        self._recv_buf = b""
        self._closed = False
        # The socket timeout is fixed to the send ceiling once, here,
        # and never touched again: `send` relies on it, `recv` waits
        # with select() instead.  Calling settimeout per-operation
        # from the two threads sharing this socket (parent sender +
        # receiver) could run sendall under a 0.5 s read timeout
        # (spurious mid-frame timeout → desynced stream) or leave a
        # read blocking for the 30 s send ceiling (stale-looking
        # heartbeats → false partition).
        sock.settimeout(send_timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # not a TCP socket (socketpair in tests)
            pass

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def send(self, kind: str, body: Any = None) -> None:
        """Frame and send one ``(kind, body)`` message.

        Raises ``OSError`` (or :class:`FrameClosed`) when the
        connection is unusable; the caller decides whether that means
        reconnect or death.
        """
        frame = encode_frame((kind, body), self.max_frame_bytes)
        with self._send_lock:
            if self._closed:
                raise FrameClosed("send on a closed frame stream")
            self._sock.sendall(frame)
        _FRAMES.labels(direction="sent").inc()

    def recv(self, timeout: Optional[float] = None) -> Optional[Tuple[str, Any]]:
        """Receive one message; ``None`` when ``timeout`` elapses first.

        Raises :class:`FrameClosed` on EOF, :class:`FrameCorrupted` /
        :class:`FrameTooLarge` on protocol garbage — the reader thread
        never wedges on a bad peer.
        """
        while True:
            message = self._try_decode_buffered()
            if message is not None:
                return message
            if self._closed:
                raise FrameClosed("recv on a closed frame stream")
            # Wait for readability with select — not settimeout — so
            # the deadline never races a concurrent sender's use of
            # the shared socket's timeout (see __init__).
            try:
                readable, _, _ = select.select([self._sock], [], [], timeout)
            except (OSError, ValueError):
                # The fd went away under us (close() from another
                # thread mid-wait).
                raise FrameClosed("recv on a closed frame stream")
            if not readable:
                return None
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                # Readability then a timeout should not happen; treat
                # as "nothing arrived" rather than wedging the reader.
                return None
            except BlockingIOError:
                return None
            if not chunk:
                _FRAME_ERRORS.labels(kind="closed").inc()
                raise FrameClosed(
                    "peer closed the connection"
                    + (" mid-frame" if self._recv_buf else "")
                )
            self._recv_buf += chunk

    def _try_decode_buffered(self) -> Optional[Tuple[str, Any]]:
        if len(self._recv_buf) < HEADER_LEN:
            return None
        try:
            message, consumed = decode_frame(self._recv_buf, self.max_frame_bytes)
        except FrameClosed:
            return None  # incomplete: wait for more bytes
        except FrameTooLarge:
            _FRAME_ERRORS.labels(kind="too_large").inc()
            raise
        except FrameCorrupted:
            _FRAME_ERRORS.labels(kind="corrupted").inc()
            raise
        except Exception as exc:  # unpickling garbage
            _FRAME_ERRORS.labels(kind="corrupted").inc()
            raise FrameCorrupted(f"undecodable payload: {exc!r}") from exc
        self._recv_buf = self._recv_buf[consumed:]
        _FRAMES.labels(direction="received").inc()
        return message
