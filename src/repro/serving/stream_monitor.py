"""Streaming runtime monitoring over a compiled rule automaton.

:class:`StreamingMonitor` consumes events and traces *incrementally* —
``feed`` one event at a time, ``end_trace`` when a trace closes, ``report``
for the running aggregate — and emits byte-for-byte the same
:class:`~repro.verification.violations.RuleViolation`s the offline
:class:`~repro.verification.monitor.RuleMonitor` derives by re-scanning,
pinned by the hypothesis parity suite in ``tests/serving/`` against both
the temporal-points semantics and the LTL translation.

Per event the monitor does three things, in an order that encodes the
"strictly after" halves of Definition 5.1:

1. **advance consequent trackers** — pending temporal points opened at
   *earlier* positions consume this event for their greedy consequent
   match (a point opened at this very position must not, so opening comes
   second);
2. **open temporal points** — every rule already armed whose premise-last
   event equals this one opens a point here (a rule arming at this very
   position must not, so arming comes third);
3. **advance the premise trie** — trie nodes watching this symbol are
   reached, registering their children in the watch index and arming the
   rules whose premise prefix ends there.

Every step only touches state that actually moves: unknown events fall out
of the symbol table in O(1), each trie node is activated at most once per
trace, and consequent advancement splices whole stage lists.  The per-event
cost is therefore amortized O(active states), independent of trace length —
the property that makes the monitor serviceable on live streams where the
offline monitor's per-trace re-scans are quadratic.

Closing a trace is likewise O(rules the trace armed), not O(rules
compiled): the close visits only armed rules, the per-trace report holds
their non-zero point tallies plus a reference to the compiled set's shared
zero template, and the trace's per-rule analytics reach the metrics
registry in one batched call.  A short session checked against a large
mined specification therefore pays for what it touched.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence as TypingSequence, Tuple

from ..core.errors import MonitoringError
from ..core.events import EventLabel
from ..core.sequence import SequenceDatabase
from ..obs import metrics as obs_metrics
from ..verification.violations import MonitoringReport, RuleViolation, Signature
from .compile import CompiledRuleSet, NodeId, RuleSource, Symbol, compile_rules


class _ConsequentTracker:
    """All pending temporal points of one rule within the current trace.

    ``stages[s]`` holds the opening positions of the points whose greedy
    consequent match has consumed ``s`` events so far; a point leaving the
    last stage is satisfied and only counted.  Points open in ascending
    position order and whole stages advance together, so every stage list
    stays ascending — end-of-trace violation order is position order.
    """

    __slots__ = ("stages", "opened", "satisfied", "first_open")

    def __init__(self, consequent_length: int) -> None:
        self.stages: List[List[int]] = [[] for _ in range(consequent_length)]
        self.opened = 0
        self.satisfied = 0
        #: perf_counter at the first opened point — the start of the rule's
        #: "active" window for the per-rule latency histogram.
        self.first_open: Optional[float] = None

    def open(self, position: int) -> None:
        if self.opened == 0:
            self.first_open = time.perf_counter()
        self.opened += 1
        self.stages[0].append(position)

    def advance(self, moves: TypingSequence[int]) -> None:
        last = len(self.stages) - 1
        for stage in moves:  # descending: one consequent step per event
            pending = self.stages[stage]
            if not pending:
                continue
            if stage == last:
                self.satisfied += len(pending)
            else:
                self.stages[stage + 1].extend(pending)
            pending.clear()

    def pending_positions(self) -> List[int]:
        return sorted(
            position for stage in self.stages for position in stage
        )


class _TraceRun:
    """Mutable matching state of one in-flight trace."""

    __slots__ = (
        "trace_index",
        "name",
        "position",
        "node_watch",
        "point_watch",
        "consequent_watch",
        "trackers",
        "armed_counts",
    )

    def __init__(self, compiled: CompiledRuleSet, trace_index: int, name: Optional[str]) -> None:
        self.trace_index = trace_index
        self.name = name
        self.position = -1
        #: rule id -> times the premise trie armed the rule this trace
        #: (plain int bumps on the arming path only — never per event).
        self.armed_counts: Dict[int, int] = {}
        #: symbol -> trie nodes reachable from an already-reached node via
        #: that symbol.  This is the trie's "failure function" in disguise:
        #: a mismatching event touches none of the waiting nodes.
        self.node_watch: Dict[Symbol, List[NodeId]] = {}
        #: symbol -> armed rule ids opening a point on that symbol.
        self.point_watch: Dict[Symbol, List[int]] = {}
        #: symbol -> rule ids with a live tracker advancing on that symbol.
        self.consequent_watch: Dict[Symbol, List[int]] = {}
        #: rule id -> consequent tracker (created at the rule's first point).
        self.trackers: Dict[int, _ConsequentTracker] = {}
        self._reach(compiled, 0)

    def _reach(self, compiled: CompiledRuleSet, node: NodeId) -> None:
        """Activate a trie node: register its children, arm its rules."""
        for symbol, child in compiled.children[node].items():
            self.node_watch.setdefault(symbol, []).append(child)
        for rule_id in compiled.arm_at_node[node]:
            self.point_watch.setdefault(compiled.last_symbol[rule_id], []).append(rule_id)
            self.armed_counts[rule_id] = self.armed_counts.get(rule_id, 0) + 1

    def feed(self, compiled: CompiledRuleSet, event: EventLabel) -> None:
        self.position += 1
        symbol = compiled.symbol_of.get(event)
        if symbol is None:
            return
        # 1. Earlier points consume this event for their consequent match.
        for rule_id in self.consequent_watch.get(symbol, ()):
            self.trackers[rule_id].advance(compiled.consequent_moves[rule_id][symbol])
        # 2. Rules armed strictly before this position open points here.
        for rule_id in self.point_watch.get(symbol, ()):
            tracker = self.trackers.get(rule_id)
            if tracker is None:
                tracker = _ConsequentTracker(len(compiled.consequents[rule_id]))
                self.trackers[rule_id] = tracker
                for watched in compiled.consequent_moves[rule_id]:
                    self.consequent_watch.setdefault(watched, []).append(rule_id)
            tracker.open(self.position)
        # 3. The premise trie advances; newly armed rules wait for the
        #    *next* occurrence of their last event (strictly-after).
        reached = self.node_watch.pop(symbol, None)
        if reached is not None:
            for node in reached:
                self._reach(compiled, node)

    def close(
        self,
        compiled: CompiledRuleSet,
        analytics: Optional[Dict[str, Tuple[int, int, int, int, Optional[float]]]] = None,
    ) -> MonitoringReport:
        """Finish the trace: unmatched pending points become violations.

        Costs O(rules this trace armed), not O(rules compiled): only the
        ``armed_counts`` rule ids are visited — a rule never armed opened
        no point and contributes only the zeros the report's shared
        template already holds.  They are visited in ascending rule id,
        so violations come out in monitor order, as the dense walk did.

        ``analytics``, when given, is filled with this trace's per-rule
        tallies — ``rule key -> (opened, satisfied, violated, armings,
        active_seconds)`` — for the serving analytics layer.  The key is
        :func:`~repro.serving.compile.rule_key`, a plain string so the
        tallies survive JSON framing; ``active_seconds`` runs from the
        rule's first opened point to this close, ``None`` if it opened
        none.  The report itself is untouched by the collection: the pool
        parity suites pin it byte-identical with analytics on.
        """
        closed_at = time.perf_counter()
        counts: Dict[Signature, int] = {}
        total = satisfied = 0
        violations: List[RuleViolation] = []
        for rule_id in sorted(self.armed_counts):
            tracker = self.trackers.get(rule_id)
            if tracker is None:
                if analytics is not None:
                    analytics[compiled.rule_keys[rule_id]] = (
                        0, 0, 0, self.armed_counts[rule_id], None
                    )
                continue
            key = compiled.signatures[rule_id]
            counts[key] = counts.get(key, 0) + tracker.opened
            total += tracker.opened
            satisfied += tracker.satisfied
            pending = tracker.pending_positions()
            if analytics is not None:
                analytics[compiled.rule_keys[rule_id]] = (
                    tracker.opened,
                    tracker.satisfied,
                    len(pending),
                    self.armed_counts[rule_id],
                    closed_at - tracker.first_open,
                )
            rule = compiled.rules[rule_id]
            for position in pending:
                violations.append(
                    RuleViolation(
                        rule=rule,
                        trace_index=self.trace_index,
                        position=position,
                        trace_name=self.name,
                    )
                )
        return MonitoringReport.of_trace(
            compiled.zero_points, counts, total, satisfied, violations
        )


class StreamingMonitor:
    """Monitors an event stream against a compiled rule set, incrementally.

    Accepts a :class:`~repro.serving.compile.CompiledRuleSet` (the serving
    path: compile once, monitor many sessions) or anything
    :func:`~repro.serving.compile.compile_rules` accepts (rules, a
    specification repository).  ``first_trace_index`` offsets the trace
    numbering so violations reported by a long-running service reference
    corpus-wide trace indexes.

    One instance monitors one stream of traces *sequentially* and is not
    thread-safe; multi-tenant serving — many concurrent sessions, each its
    own monitor over the one shared compiled set — is the job of
    :class:`~repro.serving.pool.MonitorPool`, which also aggregates the
    per-session reports deterministically (in admission order, so the
    merged report is byte-identical to a single monitor fed the same
    sessions back to back).

    Example
    -------
    >>> monitor = StreamingMonitor(repository.rules)
    >>> for event in live_stream:
    ...     monitor.feed(event)
    >>> trace_report = monitor.end_trace()
    >>> monitor.report().violation_count
    """

    def __init__(self, rules: RuleSource, first_trace_index: int = 0) -> None:
        self.compiled = (
            rules if isinstance(rules, CompiledRuleSet) else compile_rules(rules)
        )
        self._next_trace_index = first_trace_index
        self._run: Optional[_TraceRun] = None
        self._combined = MonitoringReport()
        #: Completed traces (all sessions' ``end_trace`` calls so far).
        self.traces_seen = 0
        #: Events consumed across completed *and* the in-flight trace.
        self.events_seen = 0
        #: Cumulative per-rule analytics over every closed trace:
        #: ``signature -> [opened, satisfied, violated, trie_advances]``.
        #: Plain int adds folded at trace close (never per event), so
        #: accumulation is order-free and cheap; :meth:`rule_analytics`
        #: exposes the dict-shaped view the ANALYTICS wire verb serves.
        self.analytics: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------ #
    # Incremental consumption
    # ------------------------------------------------------------------ #
    def begin_trace(self, name: Optional[str] = None) -> None:
        """Open a new trace explicitly (``feed`` auto-opens an unnamed one)."""
        if self._run is not None:
            raise MonitoringError(
                "a trace is already open; call end_trace() before begin_trace()"
            )
        self._run = _TraceRun(self.compiled, self._next_trace_index, name)

    def feed(self, event: EventLabel) -> None:
        """Consume one event of the current trace."""
        if self._run is None:
            self.begin_trace()
        self.events_seen += 1
        self._run.feed(self.compiled, event)

    def feed_many(self, events: Iterable[EventLabel]) -> None:
        """Consume several events of the current trace."""
        for event in events:
            self.feed(event)

    def end_trace(self) -> MonitoringReport:
        """Close the current trace and return *its* monitoring report.

        The per-trace report is also folded into the cumulative
        :meth:`report`.  Premise matches still pending mid-consequent are
        violations — exactly the offline semantics on the finished trace.
        """
        if self._run is None:
            raise MonitoringError("no trace is open; feed events or begin_trace() first")
        trace_analytics: Dict[str, Tuple[int, int, int, int, Optional[float]]] = {}
        report = self._run.close(self.compiled, trace_analytics)
        self._run = None
        self._next_trace_index += 1
        self.traces_seen += 1
        self._combined.merge(report)
        for key, (opened, satisfied, violated, armed, _) in trace_analytics.items():
            slot = self.analytics.get(key)
            if slot is None:
                self.analytics[key] = [opened, satisfied, violated, armed]
            else:
                slot[0] += opened
                slot[1] += satisfied
                slot[2] += violated
                slot[3] += armed
        obs_metrics.record_rule_close(trace_analytics)
        return report

    def check_trace(
        self, trace: TypingSequence[EventLabel], name: Optional[str] = None
    ) -> MonitoringReport:
        """Feed one whole trace and return its report (streaming in one call)."""
        self.begin_trace(name=name)
        self.feed_many(trace)
        return self.end_trace()

    # ------------------------------------------------------------------ #
    # Reports
    # ------------------------------------------------------------------ #
    def report(self) -> MonitoringReport:
        """The cumulative report over every trace ended so far (a copy)."""
        return MonitoringReport().merge(self._combined)

    def rule_analytics(self) -> Dict[str, Dict[str, int]]:
        """Per-rule serving analytics over every closed trace (a copy).

        ``signature -> {"opened", "satisfied", "violated", "trie_advances"}``
        — the counters the rule-ranking loop consumes.  Values are plain
        sums over closed traces, so merging two monitors' analytics is
        key-wise addition in any order.
        """
        return {
            key: {
                "opened": values[0],
                "satisfied": values[1],
                "violated": values[2],
                "trie_advances": values[3],
            }
            for key, values in self.analytics.items()
        }

    def check_database(self, database: SequenceDatabase) -> MonitoringReport:
        """Monitor every trace of a database; returns their combined report.

        Equivalent to :meth:`RuleMonitor.check_database
        <repro.verification.monitor.RuleMonitor.check_database>` — the
        parity suite asserts the reports are identical — but single-pass.
        """
        combined = MonitoringReport()
        for index in range(len(database)):
            combined.merge(self.check_trace(database[index], name=database.name(index)))
        return combined


def monitor_stream(
    database: SequenceDatabase, rules: RuleSource
) -> MonitoringReport:
    """Convenience wrapper: compile ``rules`` and stream a database through."""
    return StreamingMonitor(rules).check_database(database)
