"""Push-server tests: framing, verbs, sessions over connections, hot swap."""

import io
import socket
import struct
import threading

import pytest

from repro.obs.metrics import set_enabled
from repro.rules.rule import RecurrentRule
from repro.serving.pool import MonitorPool
from repro.serving.server import (
    DEFAULT_MAX_FRAME_BYTES,
    MAX_REPLY_FRAME_BYTES,
    EventPushServer,
    ProtocolError,
    PushClient,
    encode_frame,
    read_frame,
)
from repro.specs.repository import SpecificationRepository

RULES = [
    RecurrentRule(premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0),
]


def _repository(rules, name="swapped"):
    repository = SpecificationRepository(name=name)
    for rule in rules:
        repository.add_rule(rule)
    return repository


@pytest.fixture
def served():
    with MonitorPool(RULES, shards=2, queue_depth=64) as pool:
        server = EventPushServer(pool, port=0)
        server.start()
        try:
            yield server, pool
        finally:
            server.close()


@pytest.fixture
def client(served):
    server, _ = served
    host, port = server.address
    with PushClient(host, port) as push_client:
        yield push_client


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def test_frame_round_trip():
    payload = {"op": "EVENT", "session": "s", "event": "münchen"}
    stream = io.BytesIO(encode_frame(payload) + encode_frame({"op": "PING"}))
    assert read_frame(stream) == payload
    assert read_frame(stream) == {"op": "PING"}
    assert read_frame(stream) is None  # clean EOF between frames


@pytest.mark.parametrize(
    "raw",
    [
        b"\x00\x00",  # truncated header
        struct.pack(">I", 10) + b"short",  # truncated payload
        struct.pack(">I", 4) + b"\xff\xfe\x00\x01",  # not UTF-8 JSON
        encode_frame({"op": "PING"})[:4] + b"1234",  # JSON but not an object
    ],
)
def test_malformed_frames_raise(raw):
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(raw))


def test_oversized_frame_is_rejected_without_reading_it():
    stream = io.BytesIO(struct.pack(">I", 1 << 30))
    with pytest.raises(ProtocolError, match="exceeds"):
        read_frame(stream, max_frame_bytes=1024)


# --------------------------------------------------------------------------- #
# Verbs over a live socket
# --------------------------------------------------------------------------- #
def test_event_end_round_trip(client):
    assert client.ping() == {"op": "PONG"}
    assert client.feed("s1", "open") == {"op": "OK"}
    assert client.feed_batch("s1", ["use", "close", "open"]) == {"op": "OK"}
    reply = client.end("s1")
    assert reply["op"] == "SESSION" and reply["session"] == "s1"
    assert reply["points"] == 2 and reply["satisfied"] == 1
    (violation,) = reply["violations"]
    assert violation["trace_name"] == "s1"
    assert violation["position"] == 3


def test_verb_errors_keep_the_connection(client):
    assert client.request({"op": "NO-SUCH-VERB"})["op"] == "ERROR"
    assert client.end("never-opened")["op"] == "ERROR"
    assert client.request({"op": "BATCH", "session": "s", "events": "oops"})["op"] == "ERROR"
    assert client.request({"op": "EVENT", "session": "", "event": "x"})["op"] == "ERROR"
    assert client.ping() == {"op": "PONG"}  # still alive after every error


def test_malformed_frame_gets_error_then_close(served):
    server, _ = served
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", 3) + b"{{{")
        stream = sock.makefile("rb")
        reply = read_frame(stream)
        assert reply["op"] == "ERROR"
        assert read_frame(stream) is None  # server hung up on us


def test_stats_and_report(client):
    client.feed_batch("a", ["open", "close"])
    client.feed_batch("b", ["open"])
    client.end("a")
    client.end("b")
    stats = client.stats()
    assert stats["op"] == "STATS"
    assert stats["sessions_closed"] == 2
    assert stats["events_processed"] == 3
    assert stats["uptime_seconds"] >= 0
    report = client.report()
    assert report["op"] == "REPORT"
    assert report["points"] == 2 and report["violation_count"] == 1
    assert client.report(limit=0)["violations"] == []


def test_sessions_span_connections(served):
    """A logical session is keyed by session_id, not by TCP connection."""
    server, _ = served
    host, port = server.address
    with PushClient(host, port) as first, PushClient(host, port) as second:
        assert first.feed("shared", "open") == {"op": "OK"}
        assert second.feed("shared", "close") == {"op": "OK"}
        reply = second.end("shared")
        assert reply["points"] == 1 and reply["satisfied"] == 1


def test_swap_over_the_wire(client, served):
    _, pool = served
    client.feed("old", "open")  # admitted under generation 0
    new_rules = [
        RecurrentRule(
            premise=("open", "use"), consequent=("close",), s_support=2, i_support=2, confidence=1.0
        )
    ]
    reply = client.swap(_repository(new_rules))
    assert reply == {"op": "OK", "generation": 1, "rules": 1}
    assert pool.generation == 1
    client.feed("new", "open")  # admitted under generation 1
    old = client.end("old")
    new = client.end("new")
    # Old rules fire on a lone open; the swapped rule needs open,use.
    assert old["violation_count"] == 1
    assert new["violation_count"] == 0


def test_swap_rejects_garbage_repository(client):
    assert client.request({"op": "SWAP", "repository": {"rules": "nope"}})["op"] == "ERROR"
    assert client.ping() == {"op": "PONG"}


def test_busy_propagates_over_the_wire():
    with MonitorPool(RULES, shards=1, queue_depth=2) as pool:
        with EventPushServer(pool, port=0) as server:
            host, port = server.address
            with PushClient(host, port) as push_client:
                pool.pause_shard(0)
                replies = [push_client.feed("s", f"e{n}")["op"] for n in range(20)]
                assert replies[-1] == "BUSY"
                assert "OK" in replies  # the queue accepted up to its bound
                assert push_client.end("s") == {"op": "BUSY"}  # END refused too
                pool.resume_shard(0)
                assert pool.drain(timeout=10.0)
                assert push_client.end("s")["op"] == "SESSION"


def test_pipelined_requests_reply_in_order(client):
    payloads = [{"op": "EVENT", "session": f"s{n % 7}", "event": "open"} for n in range(300)]
    replies = client.pipeline(payloads, window=32)
    assert len(replies) == 300
    assert all(reply == {"op": "OK"} for reply in replies)
    for n in range(7):
        assert client.end(f"s{n}")["op"] == "SESSION"


def test_shutdown_verb_stops_the_server(served):
    server, pool = served
    host, port = server.address
    with PushClient(host, port) as push_client:
        assert push_client.shutdown() == {"op": "OK"}
    server.close()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=0.5).close()


# --------------------------------------------------------------------------- #
# Client: large replies and unreadable reply frames
# --------------------------------------------------------------------------- #
def test_client_reads_replies_above_the_inbound_frame_limit():
    """The server's inbound 1 MiB limit does not bound its own replies: an
    ANALYTICS reply over a large rule set runs past it and must be read."""
    rules = [
        RecurrentRule(
            premise=(f"e{index}-" + "x" * 1000,), consequent=("close",),
            s_support=2, i_support=2, confidence=1.0,
        )
        for index in range(1100)
    ]
    set_enabled(False)  # keep 1,100 long rule labels out of the registry
    try:
        with MonitorPool(rules, shards=1) as pool:
            with EventPushServer(pool, port=0) as server:
                with PushClient(*server.address) as push_client:
                    push_client.feed_batch("s", ["close"])
                    assert push_client.end("s")["op"] == "SESSION"
                    reply = push_client.analytics()
                    assert len(encode_frame(reply)) > DEFAULT_MAX_FRAME_BYTES
                    assert len(reply["rules"]) == len(rules)
                    assert push_client.ping() == {"op": "PONG"}
    finally:
        set_enabled(True)


def _scripted_server(connections):
    """Serve one connection per script: each request frame is answered with
    the script's next raw bytes; returns the listening address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            for script in connections:
                conn, _ = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    for raw in script:
                        if read_frame(stream) is None:
                            break
                        stream.write(raw)
                        stream.flush()
                    stream.read()  # hold the connection until the client drops it

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()


#: A reply header past the client's reply limit, followed by body bytes that
#: would read as another huge header if the client kept the stream.
_OVERSIZED_REPLY = struct.pack(">I", MAX_REPLY_FRAME_BYTES + 1) + b"{\"op\":\"METRICS\"," * 4


def test_unreadable_reply_closes_the_connection():
    host, port = _scripted_server([[_OVERSIZED_REPLY, encode_frame({"op": "PONG"})]])
    with PushClient(host, port, timeout=5.0) as push_client:
        with pytest.raises(ProtocolError, match="exceeds"):
            push_client.request({"op": "METRICS"})
        # The leftover body bytes are never parsed as the next header.
        with pytest.raises(ProtocolError, match="connection is closed"):
            push_client.report()


def test_unreadable_reply_reconnects_under_retries():
    host, port = _scripted_server(
        [[_OVERSIZED_REPLY], [encode_frame({"op": "PONG"})]]
    )
    with PushClient(host, port, timeout=5.0, retries=2, backoff=0.01) as push_client:
        assert push_client.ping() == {"op": "PONG"}
        assert push_client.reconnects == 1
