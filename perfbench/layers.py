"""The per-layer metrics and the public calls each one is measured at.

:data:`LAYER_METRICS` is the stable list of per-layer metric names (every
traced run reports all of them; a layer a workload does not exercise reads
0).  :func:`install_mining_layers` wraps the mining calls in the benchmark's
own process; :func:`install_serving_layers` wraps the serving calls inside
the server process (see ``serve_traced.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from tracer import Tracer, layer_totals

#: ``(metric name, unit)`` in report order.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("core.encode_s", "s"),
    ("ingest.append_s", "s"),
    ("ingest.append_bytes", "bytes"),
    ("ingest.roots_remined_ratio", "ratio"),
    ("core.index_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.search_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.instances_materialized", "count"),
    ("engine.shipped_bytes", "bytes"),
    ("patterns.nodes", "count"),
    ("patterns.closed_ratio", "ratio"),
    ("patterns.closure_s", "s"),
    ("patterns.closure_calls", "count"),
    ("rules.growth_s", "s"),
    ("rules.premises", "count"),
    ("rules.redundancy_s", "s"),
    ("rules.redundancy_tests", "count"),
    ("rules.kept_ratio", "ratio"),
    ("rules.decode_s", "s"),
    ("server.frame_decode_s", "s"),
    ("server.frame_encode_s", "s"),
    ("server.frame_bytes", "bytes"),
    ("server.batch_s", "s"),
    ("server.end_s", "s"),
    ("server.swap_s", "s"),
    ("pool.admit_s", "s"),
    ("pool.queue_wait_s", "s"),
    ("pool.busy_replies", "count"),
    ("pool.queued_peak", "count"),
    ("stream_monitor.feed_s", "s"),
    ("stream_monitor.events", "count"),
    ("stream_monitor.close_s", "s"),
    ("stream_monitor.closes", "count"),
    ("obs.rule_close_s", "s"),
    ("obs.rule_close_calls", "count"),
    ("verification.merge_s", "s"),
    ("compile.compile_s", "s"),
    ("compile.rules", "count"),
    ("obs.scrape_bytes", "bytes"),
    ("stream_monitor.inproc_events_per_s", "1/s"),
    ("trace.overhead_events_per_s", "ratio"),
    ("trace.overhead_op_p50", "ratio"),
    ("trace.layer_coverage", "ratio"),
]

#: Span name -> the call-count metric it also feeds.
SPAN_COUNTS = {
    "patterns.closure": "patterns.closure_calls",
    "rules.growth": "rules.premises",
    "stream_monitor.feed": "stream_monitor.events",
    "stream_monitor.close": "stream_monitor.closes",
    "obs.rule_close": "obs.rule_close_calls",
}

#: Timed layers (span names) -> the end-to-end figures each should move
#: (the table in README.md; the traced summary prints it).
MINING_LAYERS = {
    "core.encode": "setup_s",
    "ingest.append": "refresh_s",
    "core.index": "rules_s, patterns_s",
    "engine.plan": "rules_s, patterns_s",
    "engine.search": "patterns_s, rules_s",
    "engine.merge": "rules_s, patterns_s",
    "patterns.closure": "patterns_s",
    "rules.growth": "rules_s",
    "rules.redundancy": "rules_s, refresh_s",
    "rules.decode": "rules_s",
}
SERVING_LAYERS = {
    "server.frame_decode": "events_per_s",
    "server.frame_encode": "events_per_s",
    "pool.admit": "events_per_s",
    "pool.queue_wait": "verdict_p50_ms, verdict_p90_ms",
    "stream_monitor.feed": "events_per_s",
    "stream_monitor.close": "events_per_s, verdict_p50_ms",
    "obs.rule_close": "events_per_s, verdict_p50_ms",
    "verification.merge": "events_per_s",
    "compile.compile": "swap_ms, setup_s",
}


def span_metrics(spans, totals: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values derived from spans and tracer totals."""
    values: Dict[str, float] = {}
    for name, (seconds, calls) in layer_totals(spans).items():
        values[f"{name}_s"] = seconds
        if name in SPAN_COUNTS:
            values[SPAN_COUNTS[name]] = calls
    for name, value in totals.items():
        values[name] = value
    return values


def install_mining_layers(tracer: Tracer) -> None:
    """Wrap the mining-path calls (benchmark process, one thread)."""
    from repro.core.positions import PositionIndex
    from repro.core.sequence import SequenceDatabase
    from repro.engine import backend as engine_backend
    from repro.engine.runner import ShardRunner
    from repro.ingest.store import TraceStore
    from repro.patterns import closed_miner
    from repro.rules import miner_base as rules_miner_base
    from repro.rules.consequent_miner import ConsequentGrower
    from repro.rules.rule import RecurrentRule

    totals = tracer.totals

    def appended(info, *_):
        totals["ingest.append_bytes"] += info.nbytes

    def filtered(split, rules):
        kept, dropped = split
        totals["rules.kept"] += len(kept)
        totals["rules.candidates"] += len(kept) + len(dropped)

    tracer.wrap(SequenceDatabase, "from_sequences", "core.encode")
    tracer.wrap(TraceStore, "snapshot", "core.encode")
    tracer.wrap(TraceStore, "append_batch", "ingest.append", after=appended)
    tracer.wrap(PositionIndex, "__init__", "core.index")
    tracer.wrap(PositionIndex, "extend", "core.index")
    tracer.wrap(ShardRunner, "plan", "engine.plan")
    tracer.wrap(ShardRunner, "run_shard", "engine.search")
    tracer.wrap(engine_backend, "merge_outcomes", "engine.merge")
    for name in (
        "forward_closure_violation",
        "backward_extension_events_block",
        "infix_closure_violation_block",
    ):
        tracer.wrap(closed_miner, name, "patterns.closure")
    tracer.wrap(ConsequentGrower, "grow", "rules.growth", materialize=True)
    tracer.wrap(rules_miner_base, "filter_redundant", "rules.redundancy", after=filtered)
    tracer.wrap(rules_miner_base.RecurrentRuleMinerBase, "collect_result", "rules.decode")
    tracer.count(RecurrentRule, "is_redundant_with_respect_to", "rules.redundancy_tests")


class _CountingReader:
    """A read-only stream proxy that counts the bytes read through it."""

    __slots__ = ("stream", "bytes")

    def __init__(self, stream) -> None:
        self.stream = stream
        self.bytes = 0

    def read(self, size: int = -1) -> bytes:
        data = self.stream.read(size)
        self.bytes += len(data)
        return data


def install_serving_layers(tracer: Tracer) -> None:
    """Wrap the serving-path calls (inside the server process).

    Times are thread CPU seconds (the tracer's clock), except
    ``pool.queue_wait``: the wall time from ``MonitorPool.end_session``
    returning to ``StreamingMonitor.end_trace`` starting for the same
    session, which is waiting, not work.
    """
    from repro.obs import metrics as obs_metrics
    from repro.serving import pool as pool_module
    from repro.serving import server as server_module
    from repro.serving.pool import MonitorPool
    from repro.serving.stream_monitor import StreamingMonitor
    from repro.verification.violations import MonitoringReport

    totals = tracer.totals
    ended_at: Dict[str, float] = {}
    read_frame = server_module.read_frame

    def counted_read_frame(stream, *args, **kwargs):
        proxy = _CountingReader(stream)
        try:
            return read_frame(proxy, *args, **kwargs)
        finally:
            totals["server.frame_bytes"] += proxy.bytes

    def encoded(frame, *_):
        totals["server.frame_bytes"] += len(frame)

    def session_of(pool, session_id, *_):
        return session_id

    def trace_name(monitor, *_):
        run = monitor._run
        return run.name if run is not None else None

    def ending(pool, session_id, *_):
        # Stamped as the close is queued, so the shard cannot start the
        # close before the stamp exists.
        ended_at[session_id] = time.perf_counter()

    def closing(monitor, *_):
        name = trace_name(monitor)
        started = ended_at.pop(name, None)
        if started is not None:
            tracer.add_span("pool.queue_wait", started, time.perf_counter(), name)

    def compiled(rule_set, *_):
        totals["compile.rules"] += len(rule_set)

    tracer.replace(server_module, "read_frame", counted_read_frame)
    tracer.wrap(server_module, "read_frame", "server.frame_decode")
    tracer.wrap(server_module, "encode_frame", "server.frame_encode", after=encoded)
    tracer.wrap(MonitorPool, "feed_batch", "pool.admit", request=session_of)
    tracer.wrap(MonitorPool, "end_session", "pool.admit", request=session_of, before=ending)
    tracer.wrap(StreamingMonitor, "feed", "stream_monitor.feed", request=trace_name)
    tracer.wrap(
        StreamingMonitor, "end_trace", "stream_monitor.close", request=trace_name, before=closing
    )
    tracer.wrap(obs_metrics, "record_rule_close", "obs.rule_close")
    tracer.wrap(MonitoringReport, "merge", "verification.merge")
    tracer.wrap(MonitoringReport, "merge_all", "verification.merge")
    tracer.wrap(pool_module, "compile_rules", "compile.compile", after=compiled)
