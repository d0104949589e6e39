"""Socket frame protocol tests: round-trips, corruption, hostile input.

The framing layer is the only thing standing between the unpickler and
arbitrary network bytes, so the properties here are adversarial:
whatever message round-trips must round-trip bit-identically, and
*every* malformed byte string must raise a typed :class:`FrameError`
subclass — truncation is retryable (:class:`FrameClosed`), garbage is
terminal (:class:`FrameCorrupted` / :class:`FrameTooLarge`) — without
ever feeding junk into ``pickle.loads`` or wedging the reader.
"""

from __future__ import annotations

import socket
import struct
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.framing import (
    AUTH_CHALLENGE_MAGIC,
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_MAGIC,
    FRAME_VERSION,
    HEADER_LEN,
    FrameAuthFailed,
    FrameClosed,
    FrameCorrupted,
    FrameError,
    FrameStream,
    FrameTooLarge,
    answer_challenge,
    decode_frame,
    deliver_challenge,
    encode_frame,
)

_HEADER = struct.Struct(">2sBBII")


# Messages shaped like the real shard vocabulary: a kind string plus a
# picklable body of nested primitives.
_bodies = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_messages = st.tuples(
    st.sampled_from(["hello", "entries", "out", "hb", "drain", "dying"]),
    _bodies,
)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(_messages)
    def test_encode_decode_round_trip(self, message):
        frame = encode_frame(message)
        decoded, consumed = decode_frame(frame)
        assert decoded == message
        assert consumed == len(frame)

    @settings(max_examples=50, deadline=None)
    @given(_messages, _messages)
    def test_concatenated_frames_decode_in_order(self, first, second):
        data = encode_frame(first) + encode_frame(second)
        decoded_first, consumed = decode_frame(data)
        decoded_second, rest = decode_frame(data[consumed:])
        assert decoded_first == first
        assert decoded_second == second
        assert consumed + rest == len(data)


class TestTruncation:
    @settings(max_examples=50, deadline=None)
    @given(_messages, st.data())
    def test_every_proper_prefix_raises_frame_closed(self, message, data):
        """Truncation at any byte is retryable, never corruption."""
        frame = encode_frame(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(FrameClosed):
            decode_frame(frame[:cut])


class TestCorruption:
    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(("hb", None)))
        frame[0:2] = b"GE"  # a stray HTTP GET
        with pytest.raises(FrameCorrupted, match="magic"):
            decode_frame(bytes(frame))

    def test_unsupported_version_rejected(self):
        frame = bytearray(encode_frame(("hb", None)))
        frame[2] = FRAME_VERSION + 1
        with pytest.raises(FrameCorrupted, match="version"):
            decode_frame(bytes(frame))

    @settings(max_examples=50, deadline=None)
    @given(_messages, st.data())
    def test_payload_bit_flip_fails_crc(self, message, data):
        frame = bytearray(encode_frame(message))
        index = data.draw(
            st.integers(min_value=HEADER_LEN, max_value=len(frame) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[index] ^= 1 << bit
        with pytest.raises(FrameCorrupted, match="CRC"):
            decode_frame(bytes(frame))

    def test_hostile_length_prefix_rejected_before_allocation(self):
        """A 4 GiB length claim is refused from the header alone —
        no waiting for (or allocating) the claimed payload."""
        header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, 0, 2**32 - 1, 0)
        with pytest.raises(FrameTooLarge):
            decode_frame(header)

    def test_oversized_payload_refused_at_encode_time(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(("entries", b"x" * 1024), max_frame_bytes=64)

    def test_undecodable_payload_is_corrupted_not_crash(self):
        payload = b"\x80\x05not-a-pickle"
        header = _HEADER.pack(
            FRAME_MAGIC, FRAME_VERSION, 0, len(payload), zlib.crc32(payload)
        )
        stream = _stream_pair()[0]
        stream._recv_buf = header + payload
        with pytest.raises(FrameCorrupted):
            stream._try_decode_buffered()


def _stream_pair():
    left, right = socket.socketpair()
    return FrameStream(left), FrameStream(right)


class TestFrameStream:
    def test_send_recv_over_socketpair(self):
        a, b = _stream_pair()
        try:
            a.send("hello", {"shard": 3, "resume": False})
            kind, body = b.recv(timeout=5.0)
            assert kind == "hello"
            assert body == {"shard": 3, "resume": False}
        finally:
            a.close()
            b.close()

    def test_recv_timeout_returns_none(self):
        a, b = _stream_pair()
        try:
            assert b.recv(timeout=0.05) is None
        finally:
            a.close()
            b.close()

    def test_peer_close_raises_frame_closed(self):
        a, b = _stream_pair()
        try:
            a.close()
            with pytest.raises(FrameClosed):
                b.recv(timeout=5.0)
        finally:
            b.close()

    def test_byte_dribble_reassembles_frames(self):
        """Frames split across arbitrary TCP segment boundaries still
        decode whole — the buffered reader waits for completion."""
        left, right = socket.socketpair()
        stream = FrameStream(right)
        frame = encode_frame(("entries", {"base_seq": 7, "entries": [1, 2]}))
        frame += encode_frame(("hb", {"recv_seq": 9}))

        def dribble():
            for i in range(0, len(frame), 3):
                left.sendall(frame[i : i + 3])
            left.close()

        writer = threading.Thread(target=dribble, daemon=True)
        writer.start()
        try:
            first = stream.recv(timeout=5.0)
            while first is None:
                first = stream.recv(timeout=5.0)
            second = stream.recv(timeout=5.0)
            while second is None:
                second = stream.recv(timeout=5.0)
            assert first == ("entries", {"base_seq": 7, "entries": [1, 2]})
            assert second == ("hb", {"recv_seq": 9})
            writer.join(timeout=5.0)
        finally:
            stream.close()

    def test_corrupt_frame_does_not_wedge_reader(self):
        """A garbage frame raises on the reader, and the stream stays
        usable as an object (close is clean) — no hang, no partial
        consume loop."""
        left, right = socket.socketpair()
        stream = FrameStream(right)
        bad = bytearray(encode_frame(("out", [1, 2, 3])))
        bad[HEADER_LEN] ^= 0xFF
        left.sendall(bytes(bad))
        try:
            with pytest.raises(FrameCorrupted):
                while True:
                    if stream.recv(timeout=5.0) is not None:
                        raise AssertionError("corrupt frame decoded")
        finally:
            left.close()
            stream.close()

    def test_send_on_closed_stream_raises(self):
        a, b = _stream_pair()
        b.close()
        a.close()
        with pytest.raises(FrameClosed):
            a.send("hb", {})

    def test_max_frame_bytes_default(self):
        a, b = _stream_pair()
        try:
            assert a.max_frame_bytes == DEFAULT_MAX_FRAME_BYTES
        finally:
            a.close()
            b.close()

    def test_concurrent_send_and_recv_timeouts_do_not_interfere(self):
        """A sender on one end must not perturb the receiver's deadline
        on the other: every wait is a select with its own timeout."""
        a, b = _stream_pair()
        received = []
        errors = []

        def pump_recv():
            try:
                for _ in range(200):
                    msg = b.recv(timeout=0.01)
                    if msg is not None:
                        received.append(msg)
            except FrameError as exc:
                errors.append(exc)

        reader = threading.Thread(target=pump_recv, daemon=True)
        reader.start()
        try:
            for i in range(50):
                a.send("hb", {"i": i})
            reader.join(timeout=10.0)
            assert not errors
            assert [m[1]["i"] for m in received] == sorted(
                m[1]["i"] for m in received
            )
        finally:
            a.close()
            b.close()


    def test_simultaneous_large_sends_do_not_deadlock(self):
        """Both ends send a frame far larger than the socket buffers at
        the same moment, one thread per end.  Each send reads the
        peer's bytes while its own cannot go out, so both return, and
        each side's next recv yields the peer's frame."""
        left, right = socket.socketpair()
        for sock in (left, right):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        streams = [
            FrameStream(left, send_timeout_s=2.0),
            FrameStream(right, send_timeout_s=2.0),
        ]
        payloads = [b"L" * 1_000_000, b"R" * 1_000_000]
        results = [None, None]
        start = threading.Barrier(2)

        def exchange(side):
            start.wait()
            try:
                streams[side].send("entries", payloads[side])
                results[side] = streams[side].recv(timeout=5.0)
            except Exception as exc:  # noqa: BLE001 - asserted below
                results[side] = exc

        threads = [
            threading.Thread(target=exchange, args=(side,), daemon=True)
            for side in (0, 1)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert results[0] == ("entries", payloads[1])
            assert results[1] == ("entries", payloads[0])
        finally:
            for stream in streams:
                stream.close()


class TestAuthHandshake:
    """The HMAC challenge is the trust boundary in front of the
    unpickler: no frame (hence no pickle) is read from a peer that has
    not proven key possession, and the dialer equally refuses to ship
    anything to a listener that cannot prove it back."""

    def _handshake(self, server_key, client_key):
        left, right = socket.socketpair()
        results = {}

        def server():
            try:
                deliver_challenge(left, server_key, timeout_s=5.0)
                results["server"] = "ok"
            except FrameError as exc:
                results["server"] = exc

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        try:
            answer_challenge(right, client_key, timeout_s=5.0)
            results["client"] = "ok"
        except FrameError as exc:
            results["client"] = exc
        thread.join(timeout=5.0)
        left.close()
        right.close()
        return results

    def test_matching_keys_pass_both_directions(self):
        assert self._handshake(b"secret", b"secret") == {
            "server": "ok",
            "client": "ok",
        }

    def test_matching_empty_keys_pass(self):
        """The documented loopback/trusted-link degradation."""
        assert self._handshake(b"", b"") == {"server": "ok", "client": "ok"}

    def test_wrong_key_rejected_by_server(self):
        results = self._handshake(b"secret", b"wrong")
        assert isinstance(results["server"], FrameAuthFailed)
        assert results["client"] != "ok"

    def test_keyless_client_rejected_by_keyed_server(self):
        results = self._handshake(b"secret", b"")
        assert isinstance(results["server"], FrameAuthFailed)

    def test_client_rejects_listener_without_the_key(self):
        """Mutual: the parent ships the model (a pickle the worker
        executes) in its hello, so it must not hello an impostor."""
        results = self._handshake(b"", b"secret")
        assert isinstance(results["client"], FrameAuthFailed)

    def test_raw_frame_sender_never_reaches_the_challenge(self):
        """A peer that skips auth and immediately sends a pickled
        frame (today's unauthenticated protocol) must be rejected —
        its bytes are read as a digest, compared, and thrown away."""
        left, right = socket.socketpair()

        def hostile_client():
            try:
                right.sendall(encode_frame(("hello", {"token": "x"})) * 2)
            except OSError:
                pass

        thread = threading.Thread(target=hostile_client, daemon=True)
        thread.start()
        try:
            with pytest.raises(FrameAuthFailed):
                deliver_challenge(left, b"secret", timeout_s=5.0)
            thread.join(timeout=5.0)
        finally:
            left.close()
            right.close()

    def test_client_rejects_non_challenge_greeting(self):
        left, right = socket.socketpair()
        left.sendall(b"HTTP/1.1 200 OK\r\n" + b"\x00" * 16)
        try:
            with pytest.raises(FrameAuthFailed):
                answer_challenge(right, b"secret", timeout_s=5.0)
        finally:
            left.close()
            right.close()

    def test_silent_peer_times_out(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(FrameAuthFailed, match="timed out"):
                answer_challenge(right, b"secret", timeout_s=0.2)
        finally:
            left.close()
            right.close()

    def test_challenge_misread_as_frame_fails_typed(self):
        """An old-protocol peer that misreads the challenge preamble
        as a frame header gets a typed version rejection — fast and
        diagnosable, never silent garbage."""
        challenge = AUTH_CHALLENGE_MAGIC + b"\x00" * 16
        with pytest.raises(FrameCorrupted, match="version"):
            decode_frame(challenge)
