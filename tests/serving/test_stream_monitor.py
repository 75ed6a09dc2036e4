"""Streaming-monitor parity and incremental-API tests.

The serving contract: a :class:`StreamingMonitor` over a compiled automaton
produces *identical* monitoring reports — point counts, per-rule tallies
and the exact violation list — to the offline
:class:`~repro.verification.monitor.RuleMonitor`, which re-derives temporal
points per rule per trace, and satisfiability agrees with the LTL
translation of Table 2.  The hypothesis suites drive randomized rule sets
and databases through all three views.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import MonitoringError
from repro.core.sequence import SequenceDatabase
from repro.ltl.semantics import holds
from repro.ltl.translate import rule_to_ltl
from repro.rules.nonredundant_miner import mine_non_redundant_rules
from repro.rules.rule import RecurrentRule
from repro.obs import metrics as obs_metrics
from repro.serving import StreamingMonitor, compile_rules, monitor_stream
from repro.serving import compile as compile_module
from repro.verification.monitor import RuleMonitor

ALPHABET = [str(i) for i in range(5)]

event_strategy = st.sampled_from(ALPHABET)
pattern_strategy = st.lists(event_strategy, min_size=1, max_size=3).map(tuple)
rule_strategy = st.builds(
    lambda premise, consequent: RecurrentRule(
        premise=premise, consequent=consequent, s_support=1, i_support=1, confidence=1.0
    ),
    premise=pattern_strategy,
    consequent=pattern_strategy,
)
rules_strategy = st.lists(rule_strategy, min_size=0, max_size=5)
trace_strategy = st.lists(event_strategy, min_size=0, max_size=14)
database_strategy = st.lists(trace_strategy, min_size=0, max_size=5)


def _assert_reports_identical(offline, streaming):
    assert streaming.total_points == offline.total_points
    assert streaming.satisfied_points == offline.satisfied_points
    assert streaming.per_rule_points == offline.per_rule_points
    assert streaming.violations == offline.violations


# --------------------------------------------------------------------- #
# Parity with the temporal-points (offline) semantics.
# --------------------------------------------------------------------- #
@given(rules=rules_strategy, traces=database_strategy)
@settings(max_examples=300, deadline=None)
def test_streaming_report_identical_to_offline_monitor(rules, traces):
    database = SequenceDatabase.from_sequences(traces)
    offline = RuleMonitor(rules).check_database(database)
    streaming = StreamingMonitor(compile_rules(rules)).check_database(database)
    _assert_reports_identical(offline, streaming)


@given(rules=rules_strategy, traces=database_strategy)
@settings(max_examples=100, deadline=None)
def test_cumulative_report_matches_offline_database_check(rules, traces):
    database = SequenceDatabase.from_sequences(traces)
    monitor = StreamingMonitor(compile_rules(rules))
    for index in range(len(database)):
        monitor.check_trace(database[index], name=database.name(index))
    _assert_reports_identical(RuleMonitor(rules).check_database(database), monitor.report())


@given(rule=rule_strategy, trace=trace_strategy)
@settings(max_examples=200, deadline=None)
def test_event_at_a_time_feeding_matches_whole_trace_check(rule, trace):
    by_event = StreamingMonitor(compile_rules([rule]))
    by_event.begin_trace()
    for event in trace:
        by_event.feed(event)
    _assert_reports_identical(RuleMonitor([rule]).check_trace(trace), by_event.end_trace())


# --------------------------------------------------------------------- #
# Parity with the LTL semantics (Table 2 translation).
# --------------------------------------------------------------------- #
@given(rule=rule_strategy, trace=st.lists(event_strategy, min_size=0, max_size=10))
@settings(max_examples=200, deadline=None)
def test_streaming_satisfaction_agrees_with_ltl(rule, trace):
    formula = rule_to_ltl(rule.premise, rule.consequent)
    report = StreamingMonitor(compile_rules([rule])).check_trace(trace)
    assert (report.violation_count == 0) == holds(formula, trace)


# --------------------------------------------------------------------- #
# Mined rules compile and serve: the mine -> compile -> monitor loop.
# --------------------------------------------------------------------- #
@given(traces=st.lists(trace_strategy, min_size=1, max_size=5), probe=database_strategy)
@settings(max_examples=50, deadline=None)
def test_mined_rules_compile_and_match_offline_monitoring(traces, probe):
    mined = mine_non_redundant_rules(
        SequenceDatabase.from_sequences(traces), min_s_support=1, min_confidence=0.5
    ).rules
    database = SequenceDatabase.from_sequences(probe)
    _assert_reports_identical(
        RuleMonitor(mined).check_database(database),
        monitor_stream(database, mined),
    )


# --------------------------------------------------------------------- #
# Incremental API behaviour.
# --------------------------------------------------------------------- #
def _rule(premise, consequent):
    return RecurrentRule(
        premise=tuple(premise), consequent=tuple(consequent),
        s_support=1, i_support=1, confidence=1.0,
    )


def test_violations_carry_trace_names_and_global_indexes():
    monitor = StreamingMonitor([_rule(["lock"], ["unlock"])], first_trace_index=41)
    monitor.check_trace(["lock", "unlock"], name="good")
    report = monitor.check_trace(["lock", "work"], name="bad")
    (violation,) = report.violations
    assert violation.trace_index == 42
    assert violation.trace_name == "bad"
    assert violation.position == 0
    assert "bad@0" in violation.describe()


def test_end_trace_without_an_open_trace_raises():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    with pytest.raises(MonitoringError, match="no trace is open"):
        monitor.end_trace()


def test_begin_trace_twice_raises():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    monitor.begin_trace()
    with pytest.raises(MonitoringError, match="already open"):
        monitor.begin_trace()


def test_report_only_covers_ended_traces():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    monitor.feed("a")  # auto-opens a trace; premise completes, no consequent yet
    assert monitor.report().total_points == 0
    monitor.end_trace()
    assert monitor.report().total_points == 1
    assert monitor.report().violation_count == 1


def test_events_outside_every_rule_are_skipped_but_positions_advance():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    report = monitor.check_trace(["noise", "a", "noise", "noise"])
    (violation,) = report.violations
    assert violation.position == 1  # positions count unknown events too


def test_empty_rule_set_serves_cleanly():
    monitor = StreamingMonitor(())
    report = monitor.check_trace(["a", "b", "c"])
    assert report.total_points == 0
    assert report.violation_count == 0
    assert monitor.report().satisfaction_rate == 1.0


def test_monitor_counters_track_traffic():
    monitor = StreamingMonitor([_rule(["a"], ["b"])])
    monitor.check_trace(["a", "b"])
    monitor.check_trace(["c"])
    assert monitor.traces_seen == 2
    assert monitor.events_seen == 3


def test_one_compiled_set_serves_concurrent_sessions_independently():
    compiled = compile_rules([_rule(["a"], ["b"])])
    first = StreamingMonitor(compiled)
    second = StreamingMonitor(compiled)
    first.feed("a")
    assert second.check_trace(["a", "b"]).violation_count == 0
    assert first.end_trace().violation_count == 1


def test_close_does_only_the_work_of_the_rules_the_trace_armed(monkeypatch):
    """Thousands of compiled rules the session never arms cost its close
    nothing: no signature or rule key is derived while feeding or closing,
    and the registry mirror is one call per closed trace carrying only the
    armed rule.  A per-rule walk re-introduced into the close fails this."""
    silent = [_rule([f"never{index}", f"gone{index}"], [f"absent{index}"]) for index in range(2000)]
    armed = _rule(["open"], ["close"])
    compiled = compile_rules(silent + [armed])

    calls = {"signature": 0, "rule_key": 0}
    tallies_per_close = []
    signature, rule_key = RecurrentRule.signature, compile_module.rule_key
    record_rule_close = obs_metrics.record_rule_close

    def counting_signature(rule):
        calls["signature"] += 1
        return signature(rule)

    def counting_rule_key(rule):
        calls["rule_key"] += 1
        return rule_key(rule)

    def counting_record(tallies):
        tallies_per_close.append(dict(tallies))
        return record_rule_close(tallies)

    monkeypatch.setattr(RecurrentRule, "signature", counting_signature)
    monkeypatch.setattr(compile_module, "rule_key", counting_rule_key)
    monkeypatch.setattr(obs_metrics, "record_rule_close", counting_record)
    monitor = StreamingMonitor(compiled)
    for trace in (["open", "noise", "close"], ["open", "open"], []):
        monitor.begin_trace()
        monitor.feed_many(trace)
        monitor.end_trace()
    assert calls == {"signature": 0, "rule_key": 0}
    assert [sorted(tallies) for tallies in tallies_per_close] == [["open -> close"]] * 3
    monkeypatch.undo()

    per_rule = monitor.report().per_rule_points
    assert len(per_rule) == len(silent) + 1
    assert per_rule[armed.signature()] == 3
    assert sum(per_rule.values()) == 3
