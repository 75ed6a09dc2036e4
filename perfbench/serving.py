"""The serving workload: ``serve-sessions``.

The server is ``repro serve`` in its own process with the CLI defaults,
serving rules mined from the loop corpus.  The load generator is this
process: one :class:`~repro.serving.server.PushClient` connection driving a
closed loop.  ``lanes`` sessions are in flight at once; each lane sends its
session's batches and then its END, round-robin with the other lanes, and
starts its next session only after the previous END was sent.  At most
``lanes`` frames are unanswered at any time.  A reader thread reads the
replies and stamps each one as it arrives.  Sessions come in segments;
between segments the client waits for every reply and calibrates, and the
timings of each segment are scaled to the reference speed (see
``measure.py``).

A run serves a fixed number of sessions, ``seconds`` times the shape's
nominal rate (about what the reference host sustains), not as many as fit
in ``seconds``: the pool keeps every closed session's report, so the
server's memory grows with the sessions served, and a fixed amount of work
keeps ``peak_rss_mb`` — and every other figure — comparable between runs.

The frame order is a function of the seed alone (the closed loop decides
when to *send*, never what to send next), so the admission order — and the
compile generation each session was admitted under — is known to the
client, and the reference report can be rebuilt in-process.
"""

from __future__ import annotations

import json
import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.sequence import SequenceDatabase
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.serving import PushClient, StreamingMonitor, compile_rules
from repro.serving.server import _report_payload, encode_frame
from repro.specs.repository import SpecificationRepository
from repro.verification.violations import MonitoringReport

import inputs
from layers import span_metrics
from measure import (
    REFERENCE_CALIBRATION_S,
    RunResult,
    calibration_s,
    median,
    percentile,
    process_cpu_seconds,
    process_peak_rss_mb,
)
from tracer import read_jsonl, within

#: The served rules: mined from the serving bench corpus (about 1,200 rules).
SERVE_TRACES_PER_FAMILY = 4
SERVE_REPEATS = 10
SERVE_RULES = RuleMiningConfig(
    min_s_support=2, min_confidence=0.5, max_premise_length=2, max_consequent_length=1
)
#: Set-ups per measured run (the reported ``setup_s`` is their median).
SETUPS = 3
#: How long the server may take to start, and to drain and exit.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: Distinct rule sets the SWAPs rotate through.
SWAP_VARIANTS = 4
#: Sessions per drive segment.  Between segments the drive pauses with the
#: server idle and calibrates (about 2.5 s of drive per calibration): the
#: host's speed changes within a run, and a calibration taken while the
#: server works would also time the server's own use of the CPUs.
SEGMENT_SESSIONS = 300


@dataclass(frozen=True)
class Shape:
    """The session shape of the serving workload."""

    repeats: int  # loop bodies per session
    batch_bodies: int  # loop bodies per BATCH frame
    violate_every: int  # one session per block this size ends without its commit
    lanes: int  # sessions (and frames) in flight
    swap_every: int  # BATCH frames between SWAPs
    sessions_per_second: float  # nominal rate: a run serves seconds * this

    def sessions(self, seconds: float) -> int:
        return max(self.lanes, round(seconds * self.sessions_per_second))

    def as_dict(self) -> Dict[str, object]:
        return {
            "events_per_session": f"{self.repeats * inputs.LOOP_BODY + 1} (violators 1 fewer)",
            "events_per_batch": self.batch_bodies * inputs.LOOP_BODY,
            "violating_sessions": f"1 in {self.violate_every}",
            "window_sessions": self.lanes,
            "op_p50_ms": "server time of an END: from sent (or the reply before) to its reply",
            "swap_every_batches": self.swap_every,
            "segment_sessions": SEGMENT_SESSIONS,
            "sessions_per_run_second": self.sessions_per_second,
            "rules_from": {
                "families": inputs.FAMILIES,
                "traces_per_family": SERVE_TRACES_PER_FAMILY,
                "repeats": SERVE_REPEATS,
            },
        }


SESSIONS = Shape(
    repeats=2, batch_bodies=1, violate_every=16, lanes=32, swap_every=1000,
    sessions_per_second=120,
)
NAME = "serve-sessions"


@dataclass
class Drive:
    """What one closed-loop drive of a server observed."""

    #: ``(session id, batches, compile generation)`` in admission order.
    admitted: List[Tuple[str, List[List[str]], int]] = field(default_factory=list)
    #: session id -> ``(points, satisfied, violation_count)`` from its END reply.
    verdicts: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)
    #: Server time of each END and SWAP, as the client sees it (see
    #: :func:`drive`), each with the index of the segment it fell in.
    verdict_ms: List[Tuple[float, int]] = field(default_factory=list)
    swap_ms: List[Tuple[float, int]] = field(default_factory=list)
    #: Per segment: ``(wall seconds, events whose verdict came back)``.
    segments: List[Tuple[float, int]] = field(default_factory=list)
    #: Calibration passes at the quiet points: before the first segment
    #: and after each one (``len(segments) + 1`` entries).
    calibrations: List[float] = field(default_factory=list)
    frames: int = 0
    failures: List[str] = field(default_factory=list)
    queued_peak: int = 0
    #: ``time.perf_counter`` at the first frame sent and the last reply read.
    started: float = 0.0
    finished: float = 0.0

    def scales(self) -> List[float]:
        """Per segment: reference seconds per wall second, from the mean of
        the calibrations before and after it."""
        pairs = zip(self.calibrations, self.calibrations[1:])
        return [2.0 * REFERENCE_CALIBRATION_S / (before + after) for before, after in pairs]

    def events_per_s(self, scaled: bool = True) -> float:
        """Events whose verdict came back per second of segment time."""
        scales = self.scales() if scaled else [1.0] * len(self.segments)
        seconds = sum(wall * scale for (wall, _), scale in zip(self.segments, scales))
        return sum(events for _, events in self.segments) / seconds

    def times_ms(self, timed: List[Tuple[float, int]], scaled: bool = True) -> List[float]:
        """``verdict_ms`` or ``swap_ms``, each scaled by its segment's scale."""
        scales = self.scales() if scaled else None
        return [ms * scales[segment] if scaled else ms for ms, segment in timed]


def mine_served_rules(seed: int):
    rng = random.Random(seed)
    families = inputs.family_labels(rng)
    corpus = inputs.loop_corpus(families, SERVE_TRACES_PER_FAMILY, SERVE_REPEATS)
    rules = NonRedundantRecurrentRuleMiner(SERVE_RULES).mine(
        SequenceDatabase.from_sequences(corpus)
    ).rules
    return families, rules


def _repository(rules) -> SpecificationRepository:
    repository = SpecificationRepository("perfbench")
    for rule in rules:
        repository.add_rule(rule)
    return repository


def swap_variant(rules, variant: int):
    """The rule set of SWAP variant ``variant`` (>= 1): one rule left out."""
    drop = (variant * 7919) % len(rules)
    return rules[:drop] + rules[drop + 1 :]


class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, rules_path: Path, spans: Optional[Path]) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        serve = ["serve", "--rules", str(rules_path), "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            command = [sys.executable, str(launcher), str(spans), *serve]
        self.stderr_path = workdir / f"server-{time.monotonic_ns()}.err"
        self._stderr = open(self.stderr_path, "w+", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = self.stderr_path.read_text(encoding="utf-8")
            for line in text.splitlines():
                if line.startswith("serving ") and " on " in line:
                    return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{text}")
            time.sleep(0.005)
        raise RuntimeError("repro serve did not report its port in time")

    def stop(self) -> None:
        """SHUTDOWN over the wire and wait for the process to exit."""
        try:
            if self.process.poll() is None:
                with PushClient("127.0.0.1", self.port, timeout=STOP_TIMEOUT) as client:
                    client.shutdown()
                self.process.wait(timeout=STOP_TIMEOUT)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._stderr.close()
        self.stderr_path.unlink(missing_ok=True)


def setup_server(
    root: Path, workdir: Path, seed: int, spans: Optional[Path] = None
) -> Tuple[Server, list, list]:
    """Mine and save the rules, start the server, wait for its first PONG."""
    families, rules = mine_served_rules(seed)
    rules_path = workdir / "rules.json"
    _repository(rules).save(rules_path)
    server = Server(root, workdir, rules_path, spans)
    try:
        with PushClient("127.0.0.1", server.port, timeout=START_TIMEOUT) as client:
            if client.ping().get("op") != "PONG":
                raise RuntimeError("PING was not answered with PONG")
    except BaseException:
        server.kill()
        raise
    return server, families, rules


def raw_request(port: int, payload: Dict[str, object]) -> bytes:
    """One request on a fresh connection; returns the reply payload bytes.

    Used for REPORT and METRICS, whose replies can exceed the client's
    default frame limit.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=STOP_TIMEOUT) as sock:
        stream = sock.makefile("rwb")
        stream.write(encode_frame(payload))
        stream.flush()
        (length,) = struct.unpack(">I", stream.read(4))
        body = stream.read(length)
        stream.close()
    if len(body) != length:
        raise RuntimeError(f"truncated {payload['op']} reply")
    return body


def plan(
    seed: int,
    families,
    swap_payloads: List[Dict[str, object]],
    sessions: int,
    probe_every: int = 0,
):
    """The frames of one drive in send order, and the admitted sessions.

    Returns ``(frames, admitted)``: ``frames`` are ``(kind, payload)``
    pairs; ``admitted`` is ``(session id, batches, compile generation)`` in
    admission order.  The sessions come in segments of
    ``SEGMENT_SESSIONS``; a ``("CALIBRATE", None)`` marker stands before
    the first segment and after each one, where every session sent so far
    has ended.  ``probe_every`` > 0 puts a STATS request after every that
    many frames, to sample the pool's queue depth (traced runs only).
    """
    shape = SESSIONS
    stream = inputs.session_stream(
        random.Random(seed), families, shape.repeats, shape.batch_bodies, shape.violate_every
    )
    frames: List[Tuple[str, Optional[Dict[str, object]]]] = [("CALIBRATE", None)]
    admitted: List[Tuple[str, List[List[str]], int]] = []
    generation = batches_sent = sent_frames = 0

    def put(kind: str, payload: Dict[str, object]) -> None:
        nonlocal sent_frames
        frames.append((kind, payload))
        sent_frames += 1
        if probe_every and sent_frames % probe_every == 0:
            frames.append(("STATS", {"op": "STATS"}))

    while len(admitted) < sessions:
        limit = min(sessions, len(admitted) + SEGMENT_SESSIONS)
        lanes: List[Optional[list]] = [None] * shape.lanes
        retired = [False] * shape.lanes
        while not all(retired):
            for lane in range(shape.lanes):
                if retired[lane]:
                    continue
                state = lanes[lane]
                if state is None:
                    if len(admitted) >= limit:
                        retired[lane] = True
                        continue
                    session_id = f"s{len(admitted)}"
                    batches = next(stream)
                    admitted.append((session_id, batches, generation))
                    state = lanes[lane] = [session_id, batches, 0]
                session_id, batches, sent = state
                if sent < len(batches):
                    state[2] += 1
                    put("BATCH", {"op": "BATCH", "session": session_id, "events": batches[sent]})
                    batches_sent += 1
                    if batches_sent % shape.swap_every == 0:
                        generation += 1
                        payload = swap_payloads[(generation - 1) % len(swap_payloads)]
                        put("SWAP", {"op": "SWAP", "repository": payload})
                else:
                    lanes[lane] = None
                    put("END", {"op": "END", "session": session_id, "limit": 0})
        frames.append(("CALIBRATE", None))
    return frames, admitted


EXPECTED_REPLY = {"BATCH": "OK", "SWAP": "OK", "END": "SESSION", "STATS": "STATS"}


def drive(
    port: int,
    seed: int,
    families,
    swap_payloads: List[Dict[str, object]],
    seconds: float,
    probe_every: int = 0,
) -> Drive:
    """Run the closed loop over ``SESSIONS.sessions(seconds)`` sessions; see
    the module docstring.

    The server reads one connection's frames in order and answers each
    before it reads the next, so it starts on a frame when the frame has
    been sent and the reply before it has arrived.  The time of an END or a
    SWAP is taken from then to its own reply's arrival: the server's time
    on it — for an END, the wait for the session's shard to reach its close
    plus the close — without the wait behind the frames ahead of it on the
    connection.

    At each CALIBRATE marker the sender waits for every reply, so no
    session is open and the server is idle, and times two calibration
    passes; a segment's wall time runs from the first frame sent after one
    quiet point to the last reply before the next.
    """
    run = Drive()
    frames, run.admitted = plan(
        seed, families, swap_payloads, SESSIONS.sessions(seconds), probe_every
    )
    events_of = {
        session_id: sum(len(batch) for batch in batches)
        for session_id, batches, _ in run.admitted
    }
    replies = sum(kind != "CALIBRATE" for kind, _ in frames)
    window = threading.Semaphore(SESSIONS.lanes)
    pending: deque = deque()  # (kind, session id, time sent), in send order
    errors: List[BaseException] = []
    segment = 0  # index of the segment being sent; the reader reads it
    segment_events = 0
    last_reply = 0.0

    with PushClient("127.0.0.1", port, timeout=STOP_TIMEOUT) as client:

        def read_replies() -> None:
            nonlocal segment_events, last_reply
            try:
                for _ in range(replies):
                    reply = client.read()
                    now = time.perf_counter()
                    kind, session_id, sent_at = pending.popleft()
                    server_ms = (now - max(sent_at, last_reply)) * 1000.0
                    last_reply = now
                    if reply.get("op") != EXPECTED_REPLY[kind]:
                        run.failures.append(f"{kind} {session_id}: {reply}")
                    elif kind == "END":
                        run.verdict_ms.append((server_ms, segment))
                        run.verdicts[session_id] = (
                            reply["points"],
                            reply["satisfied"],
                            reply["violation_count"],
                        )
                        segment_events += events_of[session_id]
                    elif kind == "SWAP":
                        run.swap_ms.append((server_ms, segment))
                    elif kind == "STATS":
                        queued = sum(shard["queued"] for shard in reply["per_shard"])
                        run.queued_peak = max(run.queued_peak, queued)
                    window.release()
            except BaseException as error:  # handed to the sending thread
                errors.append(error)
                window.release()

        def quiet() -> bool:
            """Wait until every reply has been read (the whole window free)."""
            for taken in range(SESSIONS.lanes):
                if not window.acquire(timeout=STOP_TIMEOUT) or errors:
                    for _ in range(taken):
                        window.release()
                    return False
            for _ in range(SESSIONS.lanes):
                window.release()
            return True

        reader = threading.Thread(target=read_replies, name="perfbench-replies")
        reader.start()
        try:
            segment_started = None
            for kind, payload in frames:
                if kind == "CALIBRATE":
                    if not quiet():
                        break
                    if segment_started is not None:
                        run.segments.append((last_reply - segment_started, segment_events))
                        segment_events = 0
                        segment += 1
                    run.calibrations.append((calibration_s() + calibration_s()) / 2.0)
                    segment_started = None
                    continue
                if not window.acquire(timeout=STOP_TIMEOUT) or errors:
                    break
                sent_at = time.perf_counter()
                if segment_started is None:
                    segment_started = last_reply = sent_at
                    if not run.started:
                        run.started = sent_at
                pending.append((kind, payload.get("session"), sent_at))
                client.send(payload)
                client.flush()
                run.frames += 1
        finally:
            reader.join()
    if errors:
        raise RuntimeError(f"{NAME}: reading replies failed") from errors[0]
    if run.frames < replies:
        raise RuntimeError(f"{NAME}: the server stopped answering")
    run.finished = last_reply
    return run


def report_payload_bytes(report: MonitoringReport) -> bytes:
    """The REPORT reply the server must send for ``report``, as bytes
    (the frame without its 4-byte length prefix)."""
    return encode_frame({"op": "REPORT", **_report_payload(report, None)})[4:]


def reference(run: Drive, rules, swap_rule_sets) -> Tuple[MonitoringReport, list, float]:
    """One in-process StreamingMonitor per session, fed in admission order.

    Returns the merged report, the per-session reports and the events per
    second of the in-process monitoring itself (compilation excluded).
    """
    compiled = [compile_rules(rules)] + [compile_rules(variant) for variant in swap_rule_sets]
    reports = []
    events = 0
    started = time.perf_counter()
    for index, (session_id, batches, generation) in enumerate(run.admitted):
        variant = 0 if generation == 0 else 1 + (generation - 1) % len(swap_rule_sets)
        monitor = StreamingMonitor(compiled[variant], first_trace_index=index)
        monitor.begin_trace(name=session_id)
        for batch in batches:
            for event in batch:
                monitor.feed(event)
            events += len(batch)
        reports.append(monitor.end_trace())
    elapsed = time.perf_counter() - started
    return MonitoringReport.merge_all(reports), reports, events / elapsed


def verify(result: RunResult, served: bytes, run: Drive, rules, swap_rule_sets) -> float:
    """Output checks: every verdict and the served REPORT payload bytes
    against the in-process reference.  Returns the reference's events per
    second."""
    merged, reports, inproc_rate = reference(run, rules, swap_rule_sets)
    for (session_id, _, _), report in zip(run.admitted, reports):
        expected = (report.total_points, report.satisfied_points, report.violation_count)
        result.check(
            run.verdicts.get(session_id) == expected,
            f"{NAME}: verdict of {session_id} {run.verdicts.get(session_id)} != {expected}",
        )
    result.check(
        served == report_payload_bytes(merged),
        f"{NAME}: REPORT payload differs from the in-process reference",
    )
    result.check(merged.violation_count > 0, f"{NAME}: the run produced no violations")
    return inproc_rate


def _request_seconds(metrics_text: str) -> Dict[str, float]:
    """``repro_server_request_seconds_sum`` per op from a METRICS scrape."""
    sums: Dict[str, float] = {}
    prefix = 'repro_server_request_seconds_sum{op="'
    for line in metrics_text.splitlines():
        if line.startswith(prefix):
            op, value = line[len(prefix) :].split('"}', 1)
            sums[op] = float(value)
    return sums


def _measure(
    root: Path,
    workdir: Path,
    seed: int,
    seconds: float,
    result: RunResult,
    spans: Optional[Path],
    setups: int,
) -> Dict[str, object]:
    """Set up (``setups`` times), drive, check and stop one server.

    The drive calibrates between its segments (see :func:`drive`).  Set-up
    times are raw: a set-up runs in two processes at once (mining here, the
    server starting), and scaling them by calibrations taken around each
    widened their spread over ten seeds (0.10 raw, 0.16 scaled).
    """
    server = None
    observed: Dict[str, object] = {}
    try:
        setup_times = []
        for attempt in range(setups):
            started = time.perf_counter()
            server, families, rules = setup_server(root, workdir, seed, spans)
            setup_times.append(time.perf_counter() - started)
            if attempt + 1 < setups:
                server.stop()
        swap_rule_sets = [swap_variant(rules, v) for v in range(1, SWAP_VARIANTS + 1)]
        swap_payloads = [_repository(variant).to_dict() for variant in swap_rule_sets]
        observed["setups"] = setup_times
        cpu_before = process_cpu_seconds(server.process.pid)
        run = drive(
            server.port, seed, families, swap_payloads, seconds,
            probe_every=64 if spans is not None else 0,
        )
        observed["server_cpu_s"] = process_cpu_seconds(server.process.pid) - cpu_before
        result.attempted += run.frames
        result.failed += len(run.failures)
        result.mismatches.extend(run.failures[:10])
        observed["peak_rss_mb"] = process_peak_rss_mb(server.process.pid)
        served = raw_request(server.port, {"op": "REPORT"})
        observed["inproc_events_per_s"] = verify(result, served, run, rules, swap_rule_sets)
        if spans is not None:
            stats = json.loads(raw_request(server.port, {"op": "STATS"}))
            scrape = raw_request(server.port, {"op": "METRICS"})
            observed["busy_replies"] = stats["busy_rejections"]
            observed["scrape_bytes"] = len(scrape)
            observed["request_seconds"] = _request_seconds(json.loads(scrape)["text"])
        server.stop()
    finally:
        if server is not None:
            server.kill()
    observed["run"] = run
    return observed


def run_serving(root: Path, workdir: Path, seed: int, seconds: float) -> RunResult:
    """A measured run: set-up several times, then drive the last server."""
    result = RunResult()
    observed = _measure(root, workdir, seed, seconds, result, None, SETUPS)
    run: Drive = observed["run"]
    if not run.verdict_ms:
        raise RuntimeError(f"{NAME}: no session verdict came back")
    verdicts = run.times_ms(run.verdict_ms)
    events_per_s = run.events_per_s()
    p50 = median(verdicts)
    result.metrics = {
        "setup_s": (median(observed["setups"]), "s"),
        "events_per_s": (events_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "peak_rss_mb": (observed["peak_rss_mb"], "MB"),
    }
    result.detail = {
        "events_per_s": (events_per_s, "1/s"),
        "verdict_p50_ms": (p50, "ms"),
        "verdicts": (len(verdicts), "count"),
        "raw_events_per_s": (run.events_per_s(scaled=False), "1/s"),
        "raw_verdict_p50_ms": (median(run.times_ms(run.verdict_ms, scaled=False)), "ms"),
        "segments": (len(run.segments), "count"),
        "sessions": (len(run.admitted), "count"),
        "frames": (run.frames, "count"),
    }
    if len(verdicts) >= 100:
        result.detail["verdict_p90_ms"] = (percentile(verdicts, 0.9), "ms")
    if run.swap_ms:
        result.detail["swap_ms"] = (median(run.times_ms(run.swap_ms)), "ms")
        result.detail["swaps"] = (len(run.swap_ms), "count")
    return result


def trace_serving(
    root: Path, workdir: Path, spans_dir: Path, seed: int, seconds: float
) -> RunResult:
    """A traced run: one untraced pass, then one through the traced launcher.

    Returns the checks of both passes and the per-layer metrics, plus
    ``server_cpu_s``: the traced server's CPU time during the drive, the
    end-to-end time its layers' self times are shares of.
    """
    result = RunResult()
    plain = _measure(root, workdir, seed, seconds, result, None, 1)
    spans_path = spans_dir / f"spans-{NAME}-{seed}.jsonl"
    traced = _measure(root, workdir, seed, seconds, result, spans_path, 1)
    # Only the drive: set-up's compile and the checks' REPORT/METRICS replies
    # fall outside the window the server's CPU time was taken over.
    spans = within(read_jsonl(str(spans_path)), traced["run"].started, traced["run"].finished)
    with open(f"{spans_path}.totals.json", encoding="utf-8") as handle:
        totals = json.load(handle)
    values = span_metrics(spans, totals)
    request_seconds = traced["request_seconds"]
    traced_rate = traced["run"].events_per_s()
    plain_rate = plain["run"].events_per_s()
    traced_p50 = median(traced["run"].times_ms(traced["run"].verdict_ms))
    plain_p50 = median(plain["run"].times_ms(plain["run"].verdict_ms))
    values.update(
        {
            "server.batch_s": request_seconds.get("BATCH", 0.0),
            "server.end_s": request_seconds.get("END", 0.0),
            "server.swap_s": request_seconds.get("SWAP", 0.0),
            "pool.busy_replies": traced["busy_replies"],
            "pool.queued_peak": traced["run"].queued_peak,
            "obs.scrape_bytes": traced["scrape_bytes"],
            "stream_monitor.inproc_events_per_s": traced["inproc_events_per_s"],
            "trace.overhead_events_per_s": plain_rate / traced_rate,
            "trace.overhead_op_p50": traced_p50 / plain_p50,
            "server_cpu_s": traced["server_cpu_s"],
        }
    )
    result.layers = values
    result.detail = {
        "traced_events_per_s": (traced_rate, "1/s"),
        "traced_verdict_p50_ms": (traced_p50, "ms"),
        "untraced_events_per_s": (plain_rate, "1/s"),
        "untraced_verdict_p50_ms": (plain_p50, "ms"),
    }
    result.spans = str(spans_path)
    result.window = (traced["run"].started, traced["run"].finished)
    return result
