"""Monitor-pool tests: parity with a single monitor, backpressure, hot swap."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import MonitoringError
from repro.serving.compile import compile_rules
from repro.serving.pool import ACCEPTED, BUSY, MonitorPool
from repro.serving.stream_monitor import StreamingMonitor
from repro.rules.rule import RecurrentRule
from repro.verification.monitor import RuleMonitor

RULES_A = [
    RecurrentRule(premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0),
    RecurrentRule(premise=("lock",), consequent=("unlock", "close"), s_support=2, i_support=2, confidence=1.0),
]
RULES_B = [
    RecurrentRule(premise=("open", "use"), consequent=("close",), s_support=2, i_support=2, confidence=1.0),
]
ALPHABET = ["open", "use", "lock", "unlock", "close", "idle"]


def report_bytes(report):
    """Canonical byte serialisation of a report, for byte-identity checks."""
    payload = {
        "total": report.total_points,
        "satisfied": report.satisfied_points,
        "violations": [v.as_dict() for v in report.violations],
        "per_rule": sorted(
            (repr(key), count) for key, count in report.per_rule_points.items()
        ),
    }
    return json.dumps(payload, sort_keys=True).encode()


def reference_report(sessions, rules_of_session):
    """What one sequential monitor per session, merged in admission order, says.

    ``sessions`` is an ordered mapping session_id -> list of events (order =
    admission order); ``rules_of_session`` maps session_id to the rule list
    that was live when the session was admitted.
    """
    reports = []
    for index, (session_id, events) in enumerate(sessions.items()):
        monitor = StreamingMonitor(
            compile_rules(rules_of_session[session_id]), first_trace_index=index
        )
        monitor.begin_trace(name=session_id)
        for event in events:
            monitor.feed(event)
        reports.append(monitor.end_trace())
    from repro.verification.violations import MonitoringReport

    return MonitoringReport.merge_all(reports)


# --------------------------------------------------------------------------- #
# Property: pool == single monitor, under arbitrary session interleavings
# --------------------------------------------------------------------------- #
stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from(ALPHABET)),
    max_size=60,
)


@given(stream=stream_strategy, shards=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pool_report_matches_single_monitor(stream, shards):
    """The merged pool report is byte-identical to one monitor fed the same
    sessions sequentially in admission order, for any interleaving."""
    with MonitorPool(RULES_A, shards=shards, queue_depth=256) as pool:
        sessions = {}
        for slot, event in stream:
            session_id = f"s{slot}"
            assert pool.feed(session_id, event) == ACCEPTED
            sessions.setdefault(session_id, []).append(event)
        tickets = [pool.end_session(sid) for sid in sessions]
        for ticket in tickets:
            assert ticket is not None
            ticket.wait(timeout=10.0)
        pooled = pool.report()
    expected = reference_report(sessions, {sid: RULES_A for sid in sessions})
    assert report_bytes(pooled) == report_bytes(expected)


@given(stream=stream_strategy, swap_at=st.integers(min_value=0, max_value=60))
@settings(max_examples=40, deadline=None)
def test_pool_parity_across_mid_stream_hot_swap(stream, swap_at):
    """Sessions admitted before a swap finish on their generation; sessions
    admitted after use the new rules — and the merged report still matches
    the per-generation sequential reference byte for byte."""
    with MonitorPool(RULES_A, shards=3, queue_depth=256) as pool:
        sessions = {}
        rules_of_session = {}
        live = RULES_A
        for position, (slot, event) in enumerate(stream):
            if position == swap_at:
                assert pool.swap(RULES_B) == pool.generation
                live = RULES_B
            session_id = f"s{slot}"
            assert pool.feed(session_id, event) == ACCEPTED
            sessions.setdefault(session_id, []).append(event)
            rules_of_session.setdefault(session_id, live)
        tickets = [pool.end_session(sid) for sid in sessions]
        for ticket in tickets:
            ticket.wait(timeout=10.0)
        pooled = pool.report()
    expected = reference_report(sessions, rules_of_session)
    assert report_bytes(pooled) == report_bytes(expected)


#: Shares a signature with RULES_A and repeats one of its own, so the merged
#: per-rule tallies must union two generations' templates and sum duplicates.
RULES_C = [
    RecurrentRule(premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0),
    RecurrentRule(premise=("use",), consequent=("idle",), s_support=2, i_support=2, confidence=1.0),
    RecurrentRule(premise=("open",), consequent=("close",), s_support=3, i_support=3, confidence=0.9),
]


@given(stream=stream_strategy, swap_at=st.integers(min_value=0, max_value=60))
@settings(max_examples=40, deadline=None)
def test_pool_per_rule_points_match_offline_oracle_across_hot_swap(stream, swap_at):
    """``pool.report().per_rule_points`` equals a dict folded by hand from
    offline :class:`RuleMonitor` runs, one per session on its generation's
    rules — an oracle that shares no report merging with the pool."""
    with MonitorPool(RULES_A, shards=3, queue_depth=256) as pool:
        sessions = {}
        rules_of_session = {}
        live = RULES_A
        for position, (slot, event) in enumerate(stream):
            if position == swap_at:
                pool.swap(RULES_C)
                live = RULES_C
            session_id = f"s{slot}"
            assert pool.feed(session_id, event) == ACCEPTED
            sessions.setdefault(session_id, []).append(event)
            rules_of_session.setdefault(session_id, live)
        for ticket in [pool.end_session(sid) for sid in sessions]:
            ticket.wait(timeout=10.0)
        pooled = pool.report().per_rule_points
    expected = {}
    for session_id, events in sessions.items():  # admission order
        offline = RuleMonitor(rules_of_session[session_id]).check_trace(events)
        for key, count in offline.per_rule_points.items():
            expected[key] = expected.get(key, 0) + count
    assert list(pooled.items()) == list(expected.items())


def test_mutating_a_materialised_report_leaves_the_next_session_alone():
    with MonitorPool(RULES_C, shards=1) as pool:
        pool.feed_batch("first", ["open", "close"])
        first = pool.end_session("first").wait(timeout=10.0)
        points = first.per_rule_points
        points[(("open",), ("close",))] = 99
        points[(("ghost",), ("phantom",))] = 1
        pool.feed_batch("second", ["idle"])
        second = pool.end_session("second").wait(timeout=10.0)
        zeros = {(("open",), ("close",)): 0, (("use",), ("idle",)): 0}
        assert second.per_rule_points == zeros
        assert first.per_rule_points == {(("open",), ("close",)): 2, (("use",), ("idle",)): 0}
        assert dict(pool.compiled.zero_points) == zeros


# --------------------------------------------------------------------------- #
# Backpressure
# --------------------------------------------------------------------------- #
def test_stalled_shard_answers_busy_instead_of_growing():
    """A stalled shard fills its bounded queue and rejects with BUSY; memory
    is bounded by queue_depth, not by offered load."""
    with MonitorPool(RULES_A, shards=1, queue_depth=4) as pool:
        pool.pause_shard(0)
        accepted = 0
        outcomes = []
        for n in range(50):
            outcome = pool.feed("stalled", f"e{n}")
            outcomes.append(outcome)
            if outcome == ACCEPTED:
                accepted += 1
        # The queue holds queue_depth items plus at most one in the worker's
        # hand; everything beyond that is refused, not buffered.
        assert accepted <= 4 + 1
        assert outcomes[-1] == BUSY
        assert pool.stats()["busy_rejections"] == 50 - accepted
        # Ending the session is refused too while the queue is full.
        assert pool.end_session("stalled") is None
        assert pool.active_sessions == 1

        pool.resume_shard(0)
        assert pool.drain(timeout=10.0)
        ticket = pool.end_session("stalled")
        report = ticket.wait(timeout=10.0)
        # Exactly the accepted events were monitored — BUSY batches left
        # no partial residue.
        assert pool.stats()["events_processed"] == accepted


def test_busy_batch_is_atomic_and_retry_does_not_duplicate():
    """A rejected batch leaves nothing behind; retrying it after the stall
    clears yields the same report as an unstalled run."""
    events = ["open", "use", "close"]
    with MonitorPool(RULES_A, shards=1, queue_depth=1) as pool:
        assert pool.feed_batch("s", ["open"]) == ACCEPTED
        pool.pause_shard(0)
        # Fill the queue (worker holds one item after the pause gate).
        while pool.feed_batch("s", ["idle"]) == ACCEPTED:
            pass
        assert pool.feed_batch("s", events) == BUSY  # rejected whole
        pool.resume_shard(0)
        assert pool.drain(timeout=10.0)
        assert pool.feed_batch("s", events) == ACCEPTED  # retried whole
        ticket = pool.end_session("s")
        while ticket is None:  # queue_depth=1: END may race the batch
            assert pool.drain(timeout=10.0)
            ticket = pool.end_session("s")
        report = ticket.wait(timeout=10.0)
    # The session saw exactly two "open"s (the seed and one from the retried
    # batch): two open->close temporal points, both satisfied.  Had the
    # rejected batch partially landed, the retry would duplicate events and
    # raise the point count.
    assert report.per_rule_points[(("open",), ("close",))] == 2
    assert report.violation_count == 0
    assert report.satisfied_points == report.total_points


# --------------------------------------------------------------------------- #
# Sessions, routing, lifecycle
# --------------------------------------------------------------------------- #
def test_routing_is_stable_and_spreads_sessions():
    with MonitorPool(RULES_A, shards=4, queue_depth=16) as pool:
        ids = [f"session-{n}" for n in range(200)]
        first = [pool.route(sid) for sid in ids]
        assert first == [pool.route(sid) for sid in ids]  # deterministic
        assert set(first) == {0, 1, 2, 3}  # all shards participate


def test_session_id_may_be_reused_after_end():
    with MonitorPool(RULES_A, shards=2, queue_depth=16) as pool:
        pool.feed("s", "open")
        pool.end_session("s").wait(timeout=10.0)
        assert pool.feed("s", "open") == ACCEPTED  # a fresh session
        pool.end_session("s").wait(timeout=10.0)
        report = pool.report()
        # Two distinct sessions, two dangling opens.
        assert report.total_points == 2
        assert report.violation_count == 2
        assert pool.stats()["sessions_closed"] == 2


def test_session_lifecycle_errors():
    with MonitorPool(RULES_A, shards=1, queue_depth=16) as pool:
        with pytest.raises(MonitoringError):
            pool.end_session("never-seen")
        pool.feed("s", "open")
        pool.end_session("s")
        with pytest.raises(MonitoringError):
            pool.end_session("s")  # already closed: id unknown again
    with pytest.raises(MonitoringError):
        pool.feed("t", "open")  # pool closed
    with pytest.raises(MonitoringError):
        pool.end_session("t")  # pool closed


def test_zero_event_session_reports_zero_points():
    with MonitorPool(RULES_A, shards=1, queue_depth=16) as pool:
        assert pool.feed_batch("empty", []) == ACCEPTED
        report = pool.end_session("empty").wait(timeout=10.0)
        assert report.total_points == 0
        assert report.violation_count == 0
        # Parity: the reference zero-length trace also tallies every rule
        # at zero points.
        expected = reference_report({"empty": []}, {"empty": RULES_A})
        assert report_bytes(pool.report()) == report_bytes(expected)


def test_swap_bumps_generation_and_serves_new_sessions_new_rules():
    with MonitorPool(RULES_A, shards=2, queue_depth=16) as pool:
        assert pool.generation == 0
        pool.feed("old", "open")          # admitted at generation 0
        generation = pool.swap(RULES_B)
        assert generation == pool.generation == 1
        assert [r.premise for r in pool.compiled.rules] == [("open", "use")]
        pool.feed("new", "open")          # admitted at generation 1
        old = pool.end_session("old").wait(timeout=10.0)
        new = pool.end_session("new").wait(timeout=10.0)
        # RULES_A fires on a lone open; RULES_B needs open,use — so the
        # old session (old rules) violates, the new one is clean.
        assert old.violation_count == 1
        assert new.violation_count == 0
        assert pool.stats()["generation"] == 1


def test_stats_shape():
    with MonitorPool(RULES_A, shards=2, queue_depth=8) as pool:
        pool.feed_batch("s", ["open", "close"])
        pool.end_session("s").wait(timeout=10.0)
        stats = pool.stats()
        assert stats["shards"] == 2
        assert stats["queue_depth"] == 8
        assert stats["rules"] == len(RULES_A)
        assert stats["sessions_opened"] == 1
        assert stats["sessions_closed"] == 1
        assert stats["sessions_active"] == 0
        assert stats["events_processed"] == 2
        assert len(stats["per_shard"]) == 2
        assert json.loads(json.dumps(stats)) == stats  # log-shippable
