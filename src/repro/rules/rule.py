"""The recurrent-rule value type (Section 5).

A recurrent rule ``pre -> post`` states: *whenever the series of events*
``pre`` *has just occurred at a temporal point, eventually the series of
events* ``post`` *occurs*.  Each rule carries the three statistics the paper
attaches to it:

* **s-support** — the number of sequences in which the premise occurs;
* **i-support** — the number of occurrences (temporal points) of
  ``pre ++ post`` in the whole database;
* **confidence** — the fraction of temporal points of ``pre`` that are
  eventually followed by ``post``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.errors import PatternError
from ..core.events import EventLabel
from ..core.pattern import concat, format_pattern, is_subsequence


@dataclass(frozen=True)
class RecurrentRule:
    """A mined recurrent rule ``premise -> consequent`` with its statistics."""

    premise: Tuple[EventLabel, ...]
    consequent: Tuple[EventLabel, ...]
    s_support: int
    i_support: int
    confidence: float

    def __post_init__(self) -> None:
        if not self.premise:
            raise PatternError("a recurrent rule needs a non-empty premise")
        if not self.consequent:
            raise PatternError("a recurrent rule needs a non-empty consequent")

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> Tuple[EventLabel, ...]:
        """The concatenation ``premise ++ consequent`` used by the redundancy check."""
        return concat(self.premise, self.consequent)

    def __len__(self) -> int:
        return len(self.premise) + len(self.consequent)

    def __str__(self) -> str:
        return (
            f"{format_pattern(self.premise)} -> {format_pattern(self.consequent)} "
            f"(s-sup={self.s_support}, i-sup={self.i_support}, conf={self.confidence:.3f})"
        )

    def signature(self) -> Tuple[Tuple[EventLabel, ...], Tuple[EventLabel, ...]]:
        """The ``(premise, consequent)`` pair identifying the rule."""
        return (self.premise, self.consequent)

    # ------------------------------------------------------------------ #
    # Redundancy (Definition 5.2)
    # ------------------------------------------------------------------ #
    def statistics_key(self) -> Tuple[int, int, float]:
        """The statistics class of the rule: s-support, i-support and the
        confidence rounded to 12 places.

        Rules can only make each other redundant within one class; the
        redundancy filter groups by this key and :meth:`same_statistics`
        compares it, so the two always agree.
        """
        return (self.s_support, self.i_support, round(self.confidence, 12))

    def same_statistics(self, other: "RecurrentRule") -> bool:
        """Whether both rules share s-support, i-support and confidence."""
        return self.statistics_key() == other.statistics_key()

    def is_redundant_with_respect_to(self, other: "RecurrentRule") -> bool:
        """Definition 5.2: is ``self`` made redundant by ``other``?

        ``self`` is redundant when ``other`` has the same statistics and the
        concatenation of ``self`` is a subsequence of the concatenation of
        ``other``; when the concatenations are identical the rule with the
        longer premise is the redundant one (the tie-break retains the rule
        with the shorter premise and longer consequent).  A rule is never
        redundant with respect to itself, nor to a copy of itself.
        """
        if not self.same_statistics(other):
            return False
        own, others = self.events, other.events
        if own == others:
            return len(self.premise) > len(other.premise)
        return is_subsequence(own, others)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_ltl(self) -> str:
        """The rule rendered as an LTL formula (Table 2)."""
        from ..ltl.translate import rule_to_ltl

        return str(rule_to_ltl(self.premise, self.consequent))

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "premise": list(self.premise),
            "consequent": list(self.consequent),
            "s_support": self.s_support,
            "i_support": self.i_support,
            "confidence": self.confidence,
        }
