"""Tests for runtime monitoring and coverage analysis."""

import pytest

from repro.core.sequence import SequenceDatabase
from repro.ltl.semantics import holds
from repro.ltl.translate import rule_to_ltl
from repro.patterns.result import MinedPattern
from repro.rules.rule import RecurrentRule
from repro.verification.coverage import coverage_of, specification_events
from repro.verification.monitor import RuleMonitor, monitor_database
from repro.verification.violations import MonitoringReport


def _rule(premise, consequent):
    return RecurrentRule(
        premise=tuple(premise),
        consequent=tuple(consequent),
        s_support=1,
        i_support=1,
        confidence=1.0,
    )


def test_monitor_with_no_rules_reports_clean():
    """An empty rule set is vacuously satisfied, never a crash."""
    monitor = RuleMonitor([])
    assert monitor.satisfies(["a", "b"])
    report = monitor.check_database(SequenceDatabase.from_sequences([["a"], []]))
    assert report.total_points == 0
    assert report.violation_count == 0
    assert report.satisfaction_rate == 1.0


def test_monitor_detects_satisfaction_and_violation():
    monitor = RuleMonitor([_rule(["lock"], ["unlock"])])
    good = ["lock", "use", "unlock", "lock", "unlock"]
    bad = ["lock", "use", "unlock", "lock"]
    assert monitor.satisfies(good)
    assert not monitor.satisfies(bad)
    report = monitor.check_trace(bad, trace_index=3, trace_name="t3")
    assert report.total_points == 2
    assert report.satisfied_points == 1
    assert report.violation_count == 1
    violation = report.violations[0]
    assert violation.trace_index == 3
    assert violation.position == 3
    assert "t3" in violation.describe()


def test_monitor_multi_event_rule():
    monitor = RuleMonitor([_rule(["init", "start"], ["stop", "cleanup"])])
    assert monitor.satisfies(["init", "start", "work", "stop", "cleanup"])
    assert not monitor.satisfies(["init", "start", "stop"])
    assert monitor.satisfies(["init", "boot"])  # premise never completes


def test_monitor_agrees_with_ltl_semantics():
    rule = _rule(["a", "b"], ["c"])
    formula = rule_to_ltl(rule.premise, rule.consequent)
    monitor = RuleMonitor([rule])
    traces = [
        ["a", "b", "c"],
        ["a", "b"],
        ["b", "c"],
        ["a", "x", "b", "y", "c", "a", "b"],
    ]
    for trace in traces:
        assert monitor.satisfies(trace) == holds(formula, trace)


def test_monitor_database_aggregates_and_reports_per_rule_points():
    db = SequenceDatabase.from_sequences(
        [["lock", "unlock"], ["lock", "work"], ["idle"]]
    )
    report = monitor_database(db, [_rule(["lock"], ["unlock"])])
    assert report.total_points == 2
    assert report.satisfied_points == 1
    assert report.violation_count == 1
    assert report.satisfaction_rate == pytest.approx(0.5)
    assert report.per_rule_points[(("lock",), ("unlock",))] == 2
    assert report.violated_rules() == [_rule(["lock"], ["unlock"])]
    assert "violations" in report.summary()


def test_report_with_no_points_has_full_satisfaction():
    db = SequenceDatabase.from_sequences([["idle"]])
    report = monitor_database(db, [_rule(["lock"], ["unlock"])])
    assert report.total_points == 0
    assert report.satisfaction_rate == 1.0


def test_specification_events_union():
    events = specification_events(
        [MinedPattern(("a", "b"), support=1)], [_rule(["c"], ["d"])]
    )
    assert events == {"a", "b", "c", "d"}


def test_coverage_of_patterns():
    db = SequenceDatabase.from_sequences([["a", "x", "b", "z"], ["q", "r"]])
    report = coverage_of(db, patterns=[MinedPattern(("a", "b"), support=1)])
    assert report.total_events == 6
    # The instance <a, x, b> covers 3 of the 6 positions.
    assert report.covered_positions == 3
    assert report.position_coverage == pytest.approx(0.5)
    assert report.per_trace_coverage == [pytest.approx(0.75), 0.0]
    # Vocabulary: a and b are mentioned, out of 6 distinct observed events.
    assert report.vocabulary_coverage == pytest.approx(2 / 6)


def test_coverage_with_rules_counts_vocabulary_only():
    db = SequenceDatabase.from_sequences([["a", "b"]])
    report = coverage_of(db, rules=[_rule(["a"], ["b"])])
    assert report.covered_positions == 0
    assert report.vocabulary_coverage == pytest.approx(1.0)


def test_coverage_of_empty_database():
    report = coverage_of(SequenceDatabase())
    assert report.position_coverage == 0.0
    assert report.vocabulary_coverage == 0.0
    assert report.summary()["total_events"] == 0.0


# --------------------------------------------------------------------- #
# Edge cases: empty databases, never-occurring events, overlap, merging.
# --------------------------------------------------------------------- #
def test_monitor_empty_database_yields_an_empty_report():
    report = monitor_database(SequenceDatabase(), [_rule(["a"], ["b"])])
    assert report.total_points == 0
    assert report.violation_count == 0
    assert report.per_rule_points == {}
    assert report.satisfaction_rate == 1.0


def test_monitor_rules_whose_events_never_occur():
    db = SequenceDatabase.from_sequences([["x", "y"], ["z"]])
    report = monitor_database(db, [_rule(["ghost"], ["phantom"])])
    assert report.total_points == 0
    assert report.violation_count == 0
    # The rule is still accounted for: zero points per checked trace.
    assert report.per_rule_points == {(("ghost",), ("phantom",)): 0}


def test_monitor_empty_trace_in_database():
    db = SequenceDatabase.from_sequences([[], ["lock"]])
    report = monitor_database(db, [_rule(["lock"], ["unlock"])])
    assert report.total_points == 1
    assert report.violation_count == 1
    assert report.violations[0].trace_index == 1


def test_coverage_of_empty_database_with_specifications():
    report = coverage_of(
        SequenceDatabase(),
        patterns=[MinedPattern(("a", "b"), support=1)],
        rules=[_rule(["c"], ["d"])],
    )
    assert report.total_events == 0
    assert report.position_coverage == 0.0
    # No observed events at all: vocabulary coverage is 0, not NaN.
    assert report.vocabulary_coverage == 0.0
    assert report.per_trace_coverage == []


def test_coverage_with_empty_traces_counts_them_as_zero_covered():
    db = SequenceDatabase.from_sequences([[], ["a", "b"]])
    report = coverage_of(db, patterns=[MinedPattern(("a", "b"), support=1)])
    assert report.per_trace_coverage == [0.0, 1.0]
    assert report.total_events == 2


def test_coverage_ignores_specification_events_never_observed():
    db = SequenceDatabase.from_sequences([["a", "b"]])
    report = coverage_of(
        db,
        patterns=[MinedPattern(("never", "seen"), support=1)],
        rules=[_rule(["ghost"], ["a"])],
    )
    # "never"/"seen"/"ghost" are mentioned but unobserved: only the
    # intersection with the observed vocabulary counts.
    assert report.covered_positions == 0
    assert report.vocabulary_coverage == pytest.approx(1 / 2)


def test_coverage_counts_overlapping_instances_once_per_position():
    # <a, b> covers 0-1 and <b, c> covers 1-2: position 1 overlaps.
    db = SequenceDatabase.from_sequences([["a", "b", "c"]])
    report = coverage_of(
        db,
        patterns=[MinedPattern(("a", "b"), support=1), MinedPattern(("b", "c"), support=1)],
    )
    assert report.covered_positions == 3
    assert report.position_coverage == pytest.approx(1.0)


def test_coverage_of_repeated_instances_of_one_pattern():
    db = SequenceDatabase.from_sequences([["a", "b", "x", "a", "b"]])
    report = coverage_of(db, patterns=[MinedPattern(("a", "b"), support=2)])
    assert report.covered_positions == 4
    assert report.per_trace_coverage == [pytest.approx(4 / 5)]


def test_report_merge_accumulates_everything():
    db = SequenceDatabase.from_sequences([["lock", "unlock"], ["lock"]])
    rule = _rule(["lock"], ["unlock"])
    monitor = RuleMonitor([rule])
    merged = monitor.check_trace(db[0], trace_index=0)
    merged.merge(monitor.check_trace(db[1], trace_index=1))
    whole = monitor.check_database(db)
    assert merged.total_points == whole.total_points == 2
    assert merged.satisfied_points == whole.satisfied_points == 1
    assert merged.violations == whole.violations
    assert merged.per_rule_points == whole.per_rule_points


def test_report_per_rule_points_is_dense_summed_and_in_first_seen_order():
    """A report stores sparse tallies over shared zero templates, but reads
    back as the dense map: every monitored signature, zeros included,
    duplicate signatures summed, keys in first-seen order."""
    a_b, c_d, e_f = _rule(["a"], ["b"]), _rule(["c"], ["d"]), _rule(["e"], ["f"])
    first = RuleMonitor([a_b, c_d, a_b])
    second = RuleMonitor([e_f, c_d])
    merged = MonitoringReport.merge_all(
        [
            first.check_trace(["a", "b"]),
            second.check_trace(["c", "e"]),
            first.check_trace(["a", "c"]),
        ]
    )
    assert list(merged.per_rule_points.items()) == [
        (a_b.signature(), 4),
        (c_d.signature(), 2),
        (e_f.signature(), 1),
    ]


def test_report_merge_all_leaves_its_inputs_untouched():
    monitor = RuleMonitor([_rule(["a"], ["b"]), _rule(["c"], ["d"])])
    reports = [monitor.check_trace(["a"]), monitor.check_trace(["c", "d"])]
    before = [(repr(report), report.per_rule_points) for report in reports]
    merged = MonitoringReport.merge_all(reports)
    merged.merge(monitor.check_trace(["a", "a", "c"]))
    assert [(repr(report), report.per_rule_points) for report in reports] == before


def test_report_equality_and_repr_use_the_materialised_tallies():
    rule = _rule(["a"], ["b"])
    streamed = RuleMonitor([rule]).check_trace(["x"])
    built = MonitoringReport(per_rule_points={rule.signature(): 0})
    assert streamed == built
    assert repr(streamed) == repr(built)
    assert "per_rule_points={(('a',), ('b',)): 0}" in repr(built)
    assert streamed != MonitoringReport(per_rule_points={rule.signature(): 1})
    assert MonitoringReport() == MonitoringReport(per_rule_points={})


def test_report_materialised_points_are_a_copy():
    rule = _rule(["a"], ["b"])
    monitor = RuleMonitor([rule])
    report = monitor.check_trace(["a", "b"])
    report.per_rule_points[rule.signature()] = 99
    assert report.per_rule_points == {rule.signature(): 1}
    assert monitor.check_trace([]).per_rule_points == {rule.signature(): 0}


def test_violations_of_and_violated_rules_with_multiple_rules():
    first = _rule(["a"], ["b"])
    second = _rule(["c"], ["d"])
    db = SequenceDatabase.from_sequences([["a", "c"], ["a", "b", "c"]])
    report = monitor_database(db, [first, second])
    assert len(report.violations_of(first)) == 1
    assert len(report.violations_of(second)) == 2
    assert report.violated_rules() == [first, second]
    assert report.violations_of(_rule(["x"], ["y"])) == []


def test_violation_describe_falls_back_to_trace_index():
    violation = monitor_database(
        SequenceDatabase.from_sequences([["a"]]), [_rule(["a"], ["b"])]
    ).violations[0]
    assert violation.trace_name is None
    assert violation.describe().startswith("trace 0@0")
