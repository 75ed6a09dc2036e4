"""Rule redundancy filtering (Definition 5.2, Step 5).

A rule ``RX`` is redundant when some other rule ``RY`` has the same
s-support, i-support and confidence and the concatenation
``premise ++ consequent`` of ``RX`` is a subsequence of that of ``RY``
(with the tie broken towards the rule with the *shorter premise* when the
concatenations coincide).  Redundancy is transitive along these chains, so
filtering against the set of emitted rules removes exactly the redundant
ones even when intermediate dominating rules were themselves suppressed
early by the miner.  For the same reason a rule may be witnessed by a rule
that is itself redundant.

Only rules with equal :meth:`RecurrentRule.statistics_key` can make each
other redundant, and on repetitive traces such a statistics class can hold
hundreds of rules.  The filter therefore makes one indexed pass per class
instead of testing every pair:

1. **Dedupe by concatenation.**  Rules sharing a concatenation differ only
   in where the premise ends; all but those with the shortest premise are
   redundant by the tie-break, and the rest stand or fall together.
2. **Post events to concatenations.**  A concatenation can only be a
   subsequence of one that holds each of its events, so its candidates are
   the intersection of those events' postings.  A posting is a bitmask over
   the posted concatenations, which makes the intersection one AND per
   event.  The concatenations are visited longest first and each length is
   posted only once all of it was judged, so every candidate is strictly
   longer, as the container of a proper subsequence must be.
3. **Judge the candidates.**  The Definition 5.2 predicate
   :meth:`RecurrentRule.is_redundant_with_respect_to` runs on one
   representative rule per concatenation, against one representative per
   candidate, longest candidate first; the first witness makes every rule
   of the concatenation redundant.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..core.events import EventLabel
from .rule import RecurrentRule


def _redundant_in_class(
    rules: List[RecurrentRule], by_events: Dict[Tuple[EventLabel, ...], List[int]]
) -> Iterator[int]:
    """Yield the positions (indices into ``rules``) of the rules redundant
    within one statistics class, given as its concatenations mapped to the
    positions of the rules sharing each."""
    by_length: Dict[int, List[Tuple[Tuple[EventLabel, ...], List[int]]]] = defaultdict(list)
    for events, positions in by_events.items():
        by_length[len(events)].append((events, positions))

    # Lengths are visited longest first and a length's concatenations are
    # posted only after all of them were judged, so the postings hold just
    # the strictly longer ones.  A posting is a bitmask over ``posted``, so
    # candidates come out longest first (lowest bit first).
    postings: Dict[EventLabel, int] = defaultdict(int)
    posted: List[RecurrentRule] = []
    lengths = sorted(by_length, reverse=True)
    for length in lengths:
        group = by_length[length]
        for events, positions in group:
            if posted and _is_contained(rules[positions[0]], events, postings, posted):
                yield from positions
            elif len(positions) > 1:
                shortest_premise = min(len(rules[position].premise) for position in positions)
                for position in positions:
                    if len(rules[position].premise) > shortest_premise:
                        yield position
        if length == lengths[-1]:
            break  # nothing shorter is left to query the postings
        for events, positions in group:
            bit = 1 << len(posted)
            posted.append(rules[positions[0]])
            for event in events:
                postings[event] |= bit


def _is_contained(
    rule: RecurrentRule,
    events: Tuple[EventLabel, ...],
    postings: Dict[EventLabel, int],
    posted: List[RecurrentRule],
) -> bool:
    """Whether a posted concatenation holding all of ``events`` witnesses
    ``rule`` (whose concatenation is ``events``) as redundant."""
    candidates = -1
    for event in events:
        candidates &= postings.get(event, 0)
    while candidates:
        lowest = candidates & -candidates
        candidates ^= lowest
        if rule.is_redundant_with_respect_to(posted[lowest.bit_length() - 1]):
            return True
    return False


def _redundant_positions(rules: List[RecurrentRule]) -> Set[int]:
    """The positions in ``rules`` of the rules redundant within their
    statistics class."""
    by_statistics: Dict[Tuple[int, int, float], List[int]] = defaultdict(list)
    for position, rule in enumerate(rules):
        by_statistics[rule.s_support, rule.i_support, rule.confidence].append(position)
    # Equal statistics give equal keys, so each distinct triple is keyed once.
    classes: Dict[Tuple[int, int, float], Dict[Tuple[EventLabel, ...], List[int]]]
    classes = defaultdict(lambda: defaultdict(list))
    for positions in by_statistics.values():
        by_events = classes[rules[positions[0]].statistics_key()]
        for position in positions:
            by_events[rules[position].events].append(position)
    redundant: Set[int] = set()
    for by_events in classes.values():
        redundant.update(_redundant_in_class(rules, by_events))
    return redundant


def find_redundant(rules: Iterable[RecurrentRule]) -> List[RecurrentRule]:
    """Return the rules that are redundant with respect to the given
    collection, in input order."""
    rules = list(rules)
    redundant = _redundant_positions(rules)
    return [rule for position, rule in enumerate(rules) if position in redundant]


def filter_redundant(rules: Iterable[RecurrentRule]) -> Tuple[List[RecurrentRule], List[RecurrentRule]]:
    """Split rules into ``(non_redundant, redundant)`` per Definition 5.2,
    both in input order.

    The indexed pass described above (concatenation dedupe, event postings,
    then the Definition 5.2 predicate on strictly longer candidates, per
    statistics class) finds the redundant rules; every rule sharing a
    signature with one of them is dropped.
    """
    rules = list(rules)
    redundant_signatures = {
        rules[position].signature() for position in _redundant_positions(rules)
    }
    kept: List[RecurrentRule] = []
    dropped: List[RecurrentRule] = []
    for rule in rules:
        if rule.signature() in redundant_signatures:
            dropped.append(rule)
        else:
            kept.append(rule)
    return kept, dropped
