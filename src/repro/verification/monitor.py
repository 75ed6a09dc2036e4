"""Runtime monitoring of mined specifications over traces.

Section 1 motivates specification mining with two uses: program
comprehension and *program verification / runtime monitoring*.  This module
provides the second use: given mined recurrent rules (or rules written by
hand), it checks traces for temporal points where a rule's premise completed
but its consequent never followed, and reports them as violations.

Checking agrees by construction with both the rule semantics used by the
miners (temporal points + "followed by") and the LTL translation of
Table 2 — the property tests assert all three views coincide.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence as TypingSequence

from ..core.events import EventLabel
from ..core.sequence import SequenceDatabase
from ..rules.rule import RecurrentRule
from ..rules.temporal_points import is_followed_by, temporal_points_in_sequence
from .violations import MonitoringReport, RuleViolation, Signature, zero_template


class RuleMonitor:
    """Checks recurrent rules against traces and collects violations.

    An empty rule set is a valid (if vacuous) specification: every trace
    satisfies it and every report is all zeroes.  A repository that mined
    zero rules must monitor cleanly, not crash.
    """

    def __init__(self, rules: Iterable[RecurrentRule]) -> None:
        self.rules: List[RecurrentRule] = list(rules)
        self._zero_points = zero_template(rule.signature() for rule in self.rules)

    # ------------------------------------------------------------------ #
    # Single-trace checks
    # ------------------------------------------------------------------ #
    def check_trace(
        self,
        trace: TypingSequence[EventLabel],
        trace_index: int = 0,
        trace_name: str = None,
    ) -> MonitoringReport:
        """Check every rule against one trace."""
        counts: Dict[Signature, int] = {}
        total = satisfied = 0
        violations: List[RuleViolation] = []
        events = tuple(trace)
        for rule in self.rules:
            points = temporal_points_in_sequence(events, rule.premise)
            if points:
                key = rule.signature()
                counts[key] = counts.get(key, 0) + len(points)
            for position in points:
                total += 1
                if is_followed_by(events, position, rule.consequent):
                    satisfied += 1
                else:
                    violations.append(
                        RuleViolation(
                            rule=rule,
                            trace_index=trace_index,
                            position=position,
                            trace_name=trace_name,
                        )
                    )
        return MonitoringReport.of_trace(self._zero_points, counts, total, satisfied, violations)

    def satisfies(self, trace: TypingSequence[EventLabel]) -> bool:
        """Whether the trace satisfies every monitored rule (no violations)."""
        return self.check_trace(trace).violation_count == 0

    # ------------------------------------------------------------------ #
    # Database checks
    # ------------------------------------------------------------------ #
    def check_database(self, database: SequenceDatabase) -> MonitoringReport:
        """Check every rule against every trace of a database."""
        combined = MonitoringReport()
        for index in range(len(database)):
            combined.merge(
                self.check_trace(database[index], trace_index=index, trace_name=database.name(index))
            )
        return combined


def monitor_database(
    database: SequenceDatabase, rules: Iterable[RecurrentRule]
) -> MonitoringReport:
    """Convenience wrapper: monitor ``rules`` over every trace of ``database``."""
    return RuleMonitor(rules).check_database(database)
