"""The event-push socket front end over a :class:`MonitorPool`.

The watch daemon *polls files*; production traffic is *pushed*.  This module
is the network edge of the serving plane: a TCP server speaking a
length-prefixed JSON frame protocol, multiplexing any number of **logical
sessions** over any number of connections.  A session is identified by its
``session`` id, **not** by the connection carrying it — one connection may
drive thousands of interleaved sessions, a session may migrate between
connections, and several producer processes may push into one pool.

Wire format (documented in full in ``docs/serving.md``)::

    frame   := length payload
    length  := 4-byte big-endian unsigned payload byte count
    payload := one UTF-8 JSON object with an "op" field

Requests are answered with exactly one reply frame each, in request order,
so clients may pipeline freely.  The verbs:

========  ============================================================
``EVENT``     push one event of a session (reply ``OK`` / ``BUSY``)
``BATCH``     push several events of one session atomically
``END``       close a session; the reply carries its final report
``STATS``     pool/server counters (shards, queues, generations)
``METRICS``   the full metrics registry, Prometheus text format
``ANALYTICS`` per-rule serving counters merged across the pool's shards
``REPORT``    the aggregate over all closed sessions
``SWAP``      hot-swap the served rule set to a new compile generation
``PING``      liveness probe (reply ``PONG``)
``SHUTDOWN``  stop the server after acknowledging
========  ============================================================

``BUSY`` is the backpressure half of the protocol: it means the session's
shard queue was full and *nothing* was queued — the client must resend the
same frame (typically after a short backoff).  Because a batch is accepted
or rejected atomically, retrying can never duplicate or reorder a prefix.

``SESSION_LOST`` is the failure half (see ``docs/robustness.md``): a
session whose pool shard crashed answers it exactly once on the next
``EVENT``/``BATCH``/``END`` under its id — the monitoring state is gone,
the id is free to re-admit.  ``EVENT``/``BATCH`` may carry an optional
integer ``seq`` (per-session, monotonic): a re-sent batch whose ``seq``
was already accepted is acknowledged ``OK`` without being fed again, which
makes retry-after-reconnect idempotent even when the original reply was
lost with the connection.

:class:`PushClient` is the matching client: a thin framing wrapper plus
convenience verbs, a pipelined bulk mode, socket timeouts surfacing as
:class:`~repro.core.errors.ServingTimeout`, and (opt-in via ``retries``)
exponential-backoff reconnect with idempotent re-send of unanswered
frames.  Used by the bench driver, the protocol tests and
``examples/push_client.py``.

When tracing is armed (``repro.obs.tracing``), frames carry a trace
context: the client stamps its current ``trace``/``parent`` span ids into
each request payload, and the server opens a ``server.request`` child span
under the received ids — so one trace threads client → server → pool shard
(see ``docs/observability.md``).  Both sides degrade to plain frames when
tracing is disarmed; unknown extra fields are ignored by either end.
"""

from __future__ import annotations

import json
import random
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.errors import DataFormatError, MonitoringError, ServingTimeout, SessionLost
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..specs.repository import SpecificationRepository
from ..testing import faults
from ..testing.faults import FaultInjected
from .pool import ACCEPTED, SESSION_LOST, MonitorPool

#: Frames above this size are refused (and the connection closed): a bad
#: length prefix must never make the server buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 1 << 20

#: The client-side bound on a *reply* frame.  Replies are not bounded by
#: the server's inbound limit: a METRICS or ANALYTICS reply over a large
#: rule set legitimately runs to megabytes.  This only guards the client
#: against a corrupt length prefix.
MAX_REPLY_FRAME_BYTES = 64 << 20

_LENGTH = struct.Struct(">I")

#: The verbs the protocol knows.  Request latency is labelled by verb;
#: anything else is bucketed under ``"other"`` so a misbehaving client
#: cannot inflate the metric label space.
_KNOWN_OPS = frozenset(
    {
        "EVENT",
        "BATCH",
        "END",
        "STATS",
        "METRICS",
        "ANALYTICS",
        "REPORT",
        "SWAP",
        "PING",
        "SHUTDOWN",
    }
)


class ProtocolError(Exception):
    """A malformed frame — the connection cannot be trusted past it."""


# --------------------------------------------------------------------- #
# Framing (shared by server, client and the example script)
# --------------------------------------------------------------------- #
def encode_frame(payload: Dict[str, object]) -> bytes:
    """Encode one JSON object as a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def read_frame(
    stream, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Dict[str, object]]:
    """Read one frame from a binary file-like stream.

    Returns ``None`` on a clean end of stream (EOF exactly between frames);
    raises :class:`ProtocolError` on a truncated or oversized frame or a
    payload that is not a JSON object.
    """
    header = stream.read(_LENGTH.size)
    if not header:
        return None
    if len(header) != _LENGTH.size:
        raise ProtocolError("truncated frame header")
    (length,) = _LENGTH.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_frame_bytes} byte limit")
    body = stream.read(length)
    if len(body) != length:
        raise ProtocolError("truncated frame payload")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


def _string_field(payload: Dict[str, object], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value:
        raise MonitoringError(f"{payload.get('op', '?')} needs a non-empty string {field!r}")
    return value


def _trace_field(payload: Dict[str, object]) -> Optional[Tuple[str, Optional[str]]]:
    """The frame's ``(trace_id, parent_span_id)``, or ``None`` when absent.

    Wire values are untrusted: anything that is not a non-empty string is
    treated as absent rather than rejected — trace context is best-effort
    telemetry, never a reason to refuse a request.  When the handler's own
    ``server.request`` span is open on this trace, it becomes the parent,
    so downstream pool spans nest client → server → shard rather than
    skipping the server tier.
    """
    trace = payload.get("trace")
    if not isinstance(trace, str) or not trace:
        return None
    if tracing.ACTIVE is not None:
        ids = tracing.current_ids()
        if ids is not None and ids[0] == trace:
            return trace, ids[1]
    parent = payload.get("parent")
    return trace, parent if isinstance(parent, str) and parent else None


def _seq_field(payload: Dict[str, object]) -> Optional[int]:
    value = payload.get("seq")
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise MonitoringError("'seq' must be an integer batch sequence number")
    return value


def _report_payload(report, limit: Optional[int]) -> Dict[str, object]:
    violations = report.violations if limit is None else report.violations[:limit]
    return {
        "points": report.total_points,
        "satisfied": report.satisfied_points,
        "violation_count": report.violation_count,
        "violations": [violation.as_dict() for violation in violations],
    }


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read frames, dispatch verbs, reply in order."""

    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        server: "_PushTCPServer" = self.server  # type: ignore[assignment]
        front = server.front
        frame_index = 0
        obs_metrics.SERVER_CONNECTIONS_TOTAL.inc()
        while True:
            try:
                payload = read_frame(self.rfile, front.max_frame_bytes)
            except ProtocolError as error:
                try:
                    self._reply({"op": "ERROR", "error": str(error)})
                except OSError:
                    pass  # half-closed peer; nothing left to tell it
                return  # framing is gone; drop the connection
            except OSError:
                return  # peer reset mid-frame; drop the connection
            if payload is None:
                return
            op = payload.get("op")
            op_label = op if op in _KNOWN_OPS else "other"
            started = time.perf_counter()
            try:
                if faults.ACTIVE is not None:
                    # Chaos hooks: drop the connection before (frame) or
                    # after (reply) the request takes effect.
                    faults.trigger("server.frame", key=str(frame_index))
                request_span = (
                    tracing.remote_span(
                        "server.request",
                        payload.get("trace"),
                        payload.get("parent"),
                        op=op_label,
                    )
                    if tracing.ACTIVE is not None and "trace" in payload
                    else tracing._NOOP
                )
                try:
                    with request_span:
                        reply, stop = front._dispatch(payload)
                except (
                    MonitoringError,
                    DataFormatError,
                    KeyError,
                    TypeError,
                    ValueError,
                ) as error:
                    reply, stop = {"op": "ERROR", "error": str(error)}, False
                if faults.ACTIVE is not None:
                    faults.trigger("server.reply", key=str(frame_index))
            except FaultInjected:
                return  # injected connection drop
            frame_index += 1
            obs_metrics.SERVER_REQUEST_SECONDS.observe(
                time.perf_counter() - started, op=op_label
            )
            obs_metrics.SERVER_REQUESTS_TOTAL.inc(op=op_label)
            reply_op = reply.get("op")
            if reply_op == "BUSY":
                obs_metrics.SERVER_BUSY_REPLIES_TOTAL.inc()
            elif reply_op == "SESSION_LOST":
                obs_metrics.SERVER_SESSION_LOST_REPLIES_TOTAL.inc()
            elif reply_op == "ERROR":
                obs_metrics.SERVER_ERRORS_TOTAL.inc()
            try:
                self._reply(reply)
            except OSError:
                return
            if stop:
                # Acknowledge first, then stop accepting: SHUTDOWN's OK
                # must reach the client that asked for it.
                threading.Thread(target=server.shutdown, daemon=True).start()
                return

    def _reply(self, payload: Dict[str, object]) -> None:
        self.wfile.write(encode_frame(payload))
        self.wfile.flush()


class _PushTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, front: "EventPushServer") -> None:
        self.front = front
        super().__init__(address, _Handler)


class EventPushServer:
    """The TCP front end: bind, accept, route frames into a pool.

    Parameters
    ----------
    pool:
        The :class:`~repro.serving.pool.MonitorPool` every connection
        pushes into.  The server never monitors anything itself — it only
        frames, validates and routes.
    host / port:
        Bind address; port ``0`` binds an ephemeral port (the bound
        address is :attr:`address` either way).
    max_frame_bytes:
        Upper bound on one frame's payload.
    end_timeout:
        How long an ``END`` reply may wait for the session's shard to
        drain the session's queued events.

    Use :meth:`start` for a background server (tests, the watch daemon's
    push mode) or :meth:`serve_forever` to block (the ``repro serve``
    command).
    """

    def __init__(
        self,
        pool: MonitorPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        end_timeout: float = 60.0,
    ) -> None:
        self.pool = pool
        self.max_frame_bytes = max_frame_bytes
        self.end_timeout = end_timeout
        self._server = _PushTCPServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — with port 0, the port actually bound."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever, name="event-push-server", daemon=True
            )
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or SHUTDOWN)."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting and unwind ``serve_forever`` (idempotent)."""
        self._server.shutdown()

    def close(self) -> None:
        """Shut down and release the listening socket (the pool stays up)."""
        self.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "EventPushServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Verb dispatch
    # ------------------------------------------------------------------ #
    @staticmethod
    def _feed_reply(status: str, session: str) -> Dict[str, object]:
        if status == ACCEPTED:
            return {"op": "OK"}
        if status == SESSION_LOST:
            return {"op": "SESSION_LOST", "session": session}
        return {"op": "BUSY"}

    def _dispatch(self, payload: Dict[str, object]) -> Tuple[Dict[str, object], bool]:
        """Handle one request; returns ``(reply, stop_serving)``."""
        op = payload.get("op")
        if op == "EVENT":
            session = _string_field(payload, "session")
            event = _string_field(payload, "event")
            status = self.pool.feed(
                session, event, seq=_seq_field(payload), trace=_trace_field(payload)
            )
            return self._feed_reply(status, session), False
        if op == "BATCH":
            session = _string_field(payload, "session")
            events = payload.get("events")
            if not isinstance(events, list) or not all(
                isinstance(event, str) for event in events
            ):
                raise MonitoringError("BATCH needs an 'events' list of strings")
            status = self.pool.feed_batch(
                session, events, seq=_seq_field(payload), trace=_trace_field(payload)
            )
            return self._feed_reply(status, session), False
        if op == "END":
            session = _string_field(payload, "session")
            try:
                ticket = self.pool.end_session(session, trace=_trace_field(payload))
                if ticket is None:
                    return {"op": "BUSY"}, False
                report = ticket.wait(timeout=self.end_timeout)
            except SessionLost as error:
                return {"op": "SESSION_LOST", "session": session, "error": str(error)}, False
            limit = payload.get("limit")
            reply = {"op": "SESSION", "session": session}
            reply.update(_report_payload(report, limit if isinstance(limit, int) else None))
            return reply, False
        if op == "STATS":
            stats = dict(self.pool.stats())
            stats["op"] = "STATS"
            stats["uptime_seconds"] = round(time.monotonic() - self._started, 3)
            return stats, False
        if op == "METRICS":
            # A scrape of the process-wide registry: refresh the pool's
            # level gauges (queue depths, active sessions) first so the
            # rendering reflects this instant, then ship the Prometheus
            # text inside the ordinary JSON reply frame.
            self.pool.stats()
            return {
                "op": "METRICS",
                "content_type": "text/plain; version=0.0.4",
                "text": obs_metrics.REGISTRY.render_text(),
            }, False
        if op == "ANALYTICS":
            # Per-rule serving counters, merged order-free across shards.
            # An optional integer "top" keeps only the N most-violated
            # rules (ties broken by opened points, then rule id) so a
            # dashboard polling a huge rule set gets a bounded reply.
            rules = self.pool.rule_analytics()
            top = payload.get("top")
            if isinstance(top, int) and not isinstance(top, bool) and top >= 0:
                ranked = sorted(
                    rules.items(),
                    key=lambda item: (-item[1]["violated"], -item[1]["opened"], item[0]),
                )
                rules = dict(ranked[:top])
            return {
                "op": "ANALYTICS",
                "generation": self.pool.generation,
                "rules": rules,
            }, False
        if op == "REPORT":
            limit = payload.get("limit")
            reply = {"op": "REPORT"}
            reply.update(
                _report_payload(self.pool.report(), limit if isinstance(limit, int) else None)
            )
            return reply, False
        if op == "SWAP":
            repository = payload.get("repository")
            if not isinstance(repository, dict):
                raise MonitoringError(
                    "SWAP needs a 'repository' object (SpecificationRepository.to_dict())"
                )
            rules = SpecificationRepository.from_dict(repository).rules
            generation = self.pool.swap(rules)
            return {"op": "OK", "generation": generation, "rules": len(rules)}, False
        if op == "PING":
            return {"op": "PONG"}, False
        if op == "SHUTDOWN":
            return {"op": "OK"}, True
        raise MonitoringError(f"unknown op {op!r}")


class PushClient:
    """A small synchronous client for the push protocol.

    One instance wraps one connection; any number of logical sessions can
    be driven through it.  :meth:`request` is strict request/reply;
    :meth:`pipeline` keeps up to ``window`` requests in flight for bulk
    pushes (replies still arrive in request order).

    Failure semantics (see ``docs/robustness.md``):

    * every read is bounded by ``timeout`` — a server that stops replying
      surfaces as :class:`~repro.core.errors.ServingTimeout` instead of a
      hang (the connection is closed: a stream interrupted mid-frame
      cannot be resynchronized);
    * a reply frame that cannot be read — truncated, not JSON, or longer
      than :data:`MAX_REPLY_FRAME_BYTES` — raises
      :class:`ProtocolError` and closes the connection for the same
      reason, so the next call fails cleanly (or reconnects under
      ``retries``) instead of parsing leftover bytes as a header;
    * with ``retries > 0`` a dropped or refused connection is rebuilt with
      exponential backoff plus jitter, and every request still awaiting a
      reply is re-sent on the new connection in order.  Because the
      convenience feeds number their batches (``seq``) per session, the
      server acknowledges-without-refeeding any batch it already accepted,
      so retry-after-reconnect is exactly-once for event delivery.  The
      numbering assumes one writer per session — drive a session through
      a single client at a time (sessions may still migrate between
      connections sequentially).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        *,
        connect_timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.2,
        max_backoff: float = 5.0,
        jitter: float = 0.25,
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self._retries = retries
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._jitter = jitter
        self._unanswered: Deque[Dict[str, object]] = deque()
        self._session_seq: Dict[str, int] = {}
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # -- connection management ----------------------------------------- #
    def _connect(self) -> None:
        self._sock = socket.create_connection(self._address, timeout=self._connect_timeout)
        self._sock.settimeout(self._timeout)
        self._file = self._sock.makefile("rwb")

    def _teardown(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _reconnect(self) -> None:
        """Rebuild the connection (backoff + jitter); re-send unanswered frames."""
        self._teardown()
        delay = self._backoff
        last_error: Optional[BaseException] = None
        for _ in range(self._retries):
            try:
                self._connect()
                break
            except OSError as error:
                last_error = error
                time.sleep(delay + random.uniform(0.0, self._jitter * delay))
                delay = min(delay * 2, self._max_backoff)
        else:
            host, port = self._address
            raise ProtocolError(
                f"could not reconnect to {host}:{port} after "
                f"{self._retries} attempt(s): {last_error}"
            )
        self.reconnects += 1
        assert self._file is not None
        for payload in self._unanswered:
            self._file.write(encode_frame(payload))
        self._file.flush()

    # -- framing ------------------------------------------------------- #
    def send(self, payload: Dict[str, object]) -> None:
        """Write one request frame without waiting for its reply.

        With tracing armed, the caller's current trace context is stamped
        into the payload (``trace``/``parent`` fields) before the frame is
        queued, so a retried re-send carries the same ids the original
        did.  A payload that already names a ``trace`` is left alone.
        """
        if tracing.ACTIVE is not None and "trace" not in payload:
            trace_id, parent = tracing.ensure_context()
            payload["trace"] = trace_id
            if parent is not None:
                payload["parent"] = parent
        self._unanswered.append(payload)
        if self._file is None:
            if not self._retries:
                raise ProtocolError("the connection is closed")
            self._reconnect()  # re-sends the queue, including this payload
            return
        try:
            self._file.write(encode_frame(payload))
        except OSError:
            if not self._retries:
                raise
            self._reconnect()

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def read(self) -> Dict[str, object]:
        """Read one reply frame (replies arrive in request order).

        Raises :class:`~repro.core.errors.ServingTimeout` when no reply
        arrives within the socket timeout; with ``retries`` configured, a
        dropped connection is rebuilt (unanswered requests re-sent) and
        the read continues on the new connection.
        """
        while True:
            if self._file is None:
                if not self._retries:
                    raise ProtocolError("the connection is closed")
                self._reconnect()
            try:
                self.flush()
                reply = read_frame(self._file, MAX_REPLY_FRAME_BYTES)
            except TimeoutError as error:
                # A stream interrupted mid-frame cannot be resumed; drop
                # the connection so the next call starts clean.
                self._teardown()
                host, port = self._address
                raise ServingTimeout(
                    f"no reply from {host}:{port} within {self._timeout:g}s "
                    "(server unresponsive or overloaded)"
                ) from error
            except (OSError, ProtocolError):
                # Same as a timeout: the stream may stop mid-frame, and
                # reading on would parse leftover body bytes as a header.
                self._teardown()
                if not self._retries:
                    raise
                self._reconnect()
                continue
            if reply is None:
                if not self._retries:
                    raise ProtocolError("server closed the connection")
                self._teardown()
                self._reconnect()
                continue
            if self._unanswered:
                self._unanswered.popleft()
            return reply

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one request and read its reply."""
        self.send(payload)
        return self.read()

    def pipeline(
        self, payloads: Iterable[Dict[str, object]], window: int = 256
    ) -> List[Dict[str, object]]:
        """Send many requests with at most ``window`` in flight.

        Bounding the in-flight window keeps both sides' socket buffers
        from deadlocking on huge bursts (the server replies to every
        frame; someone has to read those replies).  An unresponsive server
        surfaces as :class:`~repro.core.errors.ServingTimeout` from the
        first overdue reply rather than a silent hang.
        """
        replies: List[Dict[str, object]] = []
        pending = 0
        for payload in payloads:
            self.send(payload)
            pending += 1
            if pending >= window:
                replies.append(self.read())
                pending -= 1
        for _ in range(pending):
            replies.append(self.read())
        return replies

    # -- convenience verbs --------------------------------------------- #
    def _next_seq(self, session: str) -> int:
        seq = self._session_seq.get(session, -1) + 1
        self._session_seq[session] = seq
        return seq

    def feed(self, session: str, event: str) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "EVENT", "session": session, "event": event}
        if self._retries:
            payload["seq"] = self._next_seq(session)
        return self.request(payload)

    def feed_batch(self, session: str, events: Sequence[str]) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "op": "BATCH",
            "session": session,
            "events": list(events),
        }
        if self._retries:
            payload["seq"] = self._next_seq(session)
        return self.request(payload)

    def end(self, session: str, limit: Optional[int] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "END", "session": session}
        if limit is not None:
            payload["limit"] = limit
        return self.request(payload)

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "STATS"})

    def metrics(self) -> str:
        """Scrape the server's metrics registry (Prometheus text format)."""
        reply = self.request({"op": "METRICS"})
        text = reply.get("text")
        if reply.get("op") != "METRICS" or not isinstance(text, str):
            raise ProtocolError(f"unexpected METRICS reply: {reply!r}")
        return text

    def analytics(self, top: Optional[int] = None) -> Dict[str, object]:
        """Fetch the per-rule serving analytics (optionally only the top N)."""
        payload: Dict[str, object] = {"op": "ANALYTICS"}
        if top is not None:
            payload["top"] = top
        reply = self.request(payload)
        if reply.get("op") != "ANALYTICS" or not isinstance(reply.get("rules"), dict):
            raise ProtocolError(f"unexpected ANALYTICS reply: {reply!r}")
        return reply

    def report(self, limit: Optional[int] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "REPORT"}
        if limit is not None:
            payload["limit"] = limit
        return self.request(payload)

    def swap(
        self, repository: Union[SpecificationRepository, Dict[str, object]]
    ) -> Dict[str, object]:
        payload = (
            repository.to_dict()
            if isinstance(repository, SpecificationRepository)
            else repository
        )
        return self.request({"op": "SWAP", "repository": payload})

    def ping(self) -> Dict[str, object]:
        return self.request({"op": "PING"})

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "SHUTDOWN"})

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "PushClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
