"""Violation records produced by runtime monitoring."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.events import EventLabel
from ..rules.rule import RecurrentRule


@dataclass(frozen=True)
class RuleViolation:
    """One unsatisfied temporal point of a monitored rule.

    The rule's premise completed at ``position`` of trace ``trace_index``
    (named ``trace_name`` when available) but the consequent never occurred
    in the remainder of the trace.
    """

    rule: RecurrentRule
    trace_index: int
    position: int
    trace_name: Optional[str] = None

    def describe(self) -> str:
        """A one-line human-readable description of the violation."""
        where = self.trace_name if self.trace_name else f"trace {self.trace_index}"
        return (
            f"{where}@{self.position}: premise {self.rule.premise} completed "
            f"but consequent {self.rule.consequent} never followed"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (what the push server puts on the wire)."""
        return {
            "premise": list(self.rule.premise),
            "consequent": list(self.rule.consequent),
            "trace_index": self.trace_index,
            "position": self.position,
            "trace_name": self.trace_name,
        }


#: A rule's ``(premise, consequent)`` signature — the per-rule tally key.
Signature = Tuple[Tuple[EventLabel, ...], Tuple[EventLabel, ...]]


class MonitoringReport:
    """Aggregated outcome of monitoring a set of rules over a trace database.

    ``per_rule_points`` maps each monitored rule's signature to its number
    of temporal points.  It is *materialised on read*: a report stores only
    its non-zero tallies plus references to the immutable zero templates
    (``signature -> 0`` over a whole monitored rule set) of the rule sets
    it covers, so closing a trace costs the rules it touched rather than
    the rules it was checked against.  The materialised dict is a fresh
    copy with every key of every covered template, in first-seen order,
    zeros included and duplicate signatures summed; a report that covers
    no trace (an empty database) materialises to ``{}``.  Equality and
    ``repr`` use the materialised value.
    """

    __slots__ = ("total_points", "satisfied_points", "violations", "_counts", "_templates")

    def __init__(
        self,
        total_points: int = 0,
        satisfied_points: int = 0,
        violations: Optional[List[RuleViolation]] = None,
        per_rule_points: Optional[Mapping[Signature, int]] = None,
    ) -> None:
        self.total_points = total_points
        self.satisfied_points = satisfied_points
        self.violations: List[RuleViolation] = [] if violations is None else violations
        #: Non-zero point tallies; every key is in some template below.
        self._counts: Dict[Signature, int] = {}
        #: ``id(template) -> template``, in first-merged order.  Keying by
        #: identity dedupes the one template a generation shares across all
        #: its sessions; ids stay unique because the values keep them alive.
        self._templates: Dict[int, Mapping[Signature, int]] = {}
        if per_rule_points is not None:
            template = zero_template(per_rule_points)
            self._templates[id(template)] = template
            self._counts = {key: count for key, count in per_rule_points.items() if count}

    @classmethod
    def of_trace(
        cls,
        template: Mapping[Signature, int],
        counts: Dict[Signature, int],
        total_points: int,
        satisfied_points: int,
        violations: List[RuleViolation],
    ) -> "MonitoringReport":
        """A one-trace report: sparse ``counts`` over a shared zero ``template``.

        ``template`` is the monitored rule set's :func:`zero_template`;
        ``counts`` holds the non-zero tallies and is adopted, not copied.
        """
        report = cls(total_points, satisfied_points, violations)
        report._counts = counts
        report._templates[id(template)] = template
        return report

    @property
    def per_rule_points(self) -> Dict[Signature, int]:
        """Signature -> temporal points, materialised as a fresh dict."""
        dense: Dict[Signature, int] = {}
        for template in self._templates.values():
            dense.update(template)
        for key, count in self._counts.items():
            dense[key] += count
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonitoringReport):
            return NotImplemented
        return (
            self.total_points == other.total_points
            and self.satisfied_points == other.satisfied_points
            and self.violations == other.violations
            and self.per_rule_points == other.per_rule_points
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"MonitoringReport(total_points={self.total_points!r}, "
            f"satisfied_points={self.satisfied_points!r}, "
            f"violations={self.violations!r}, "
            f"per_rule_points={self.per_rule_points!r})"
        )

    @property
    def violation_count(self) -> int:
        """Number of violating temporal points."""
        return len(self.violations)

    @property
    def satisfaction_rate(self) -> float:
        """Fraction of monitored temporal points that were satisfied (1.0 if none)."""
        if self.total_points == 0:
            return 1.0
        return self.satisfied_points / self.total_points

    def merge(self, other: "MonitoringReport") -> "MonitoringReport":
        """Fold another report into this one (returns ``self`` for chaining).

        Point counts add up, violations append in order, and the per-rule
        point tallies combine key-wise — the aggregation both the offline
        database check and the streaming monitor's cumulative report use.
        Only the sparse tallies are added; zero templates are shared by
        reference, once each, so a merge costs the rules the traces touched.
        """
        self.total_points += other.total_points
        self.satisfied_points += other.satisfied_points
        self.violations.extend(other.violations)
        for template in other._templates.values():
            self._templates.setdefault(id(template), template)
        own = self._counts
        for key, count in other._counts.items():
            own[key] = own.get(key, 0) + count
        return self

    @classmethod
    def merge_all(cls, reports: Iterable["MonitoringReport"]) -> "MonitoringReport":
        """Fold an ordered iterable of reports into one fresh report.

        Merging is order-sensitive (the violation list concatenates), so
        callers that need a deterministic aggregate — the monitor pool
        merging per-session reports, the daemon merging per-batch reports —
        pass the reports in a canonical order (admission/trace order) and
        get an aggregate byte-identical to a single sequential monitor run.
        The inputs are left untouched.
        """
        combined = cls()
        for report in reports:
            combined.merge(report)
        return combined

    def violations_of(self, rule: RecurrentRule) -> List[RuleViolation]:
        """All recorded violations of one rule."""
        return [violation for violation in self.violations if violation.rule == rule]

    def violated_rules(self) -> List[RecurrentRule]:
        """The distinct rules with at least one violation."""
        seen = []
        for violation in self.violations:
            if violation.rule not in seen:
                seen.append(violation.rule)
        return seen

    def summary(self) -> str:
        """A short multi-line summary suitable for CLI output."""
        lines = [
            f"monitored temporal points : {self.total_points}",
            f"satisfied                 : {self.satisfied_points}",
            f"violations                : {self.violation_count}",
            f"satisfaction rate         : {self.satisfaction_rate:.3f}",
        ]
        return "\n".join(lines)


def zero_template(signatures: Iterable[Signature]) -> Mapping[Signature, int]:
    """An immutable ``signature -> 0`` map over a monitored rule set.

    Build it once per rule set and hand the same object to every
    :meth:`MonitoringReport.of_trace`: merged reports keep one reference
    per distinct template, however many traces they cover.
    """
    return MappingProxyType(dict.fromkeys(signatures, 0))
