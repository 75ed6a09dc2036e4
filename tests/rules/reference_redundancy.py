"""Pairwise reference for the Definition 5.2 redundancy filter (test oracle).

The straightforward algorithm: group the rules by statistics class, then
test every rule against every other rule of its class.  The predicate is
written out from the definition here rather than taken from
:meth:`RecurrentRule.is_redundant_with_respect_to`, so the oracle shares
only the rule data type with the filter it checks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.rules.rule import RecurrentRule


def _is_subsequence(candidate: Sequence[str], container: Sequence[str]) -> bool:
    remaining = iter(container)
    return all(any(event == other for other in remaining) for event in candidate)


def redundant_wrt(rule: RecurrentRule, other: RecurrentRule) -> bool:
    """Definition 5.2 for two rules already known to share their statistics."""
    if (rule.premise, rule.consequent) == (other.premise, other.consequent):
        return False
    own = rule.premise + rule.consequent
    others = other.premise + other.consequent
    if own == others:
        return len(rule.premise) > len(other.premise)
    return _is_subsequence(own, others)


def reference_find_redundant(rules: Sequence[RecurrentRule]) -> List[RecurrentRule]:
    """The redundant rules, in input order, by all-pairs tests per class."""
    classes: Dict[Tuple[int, int, float], List[RecurrentRule]] = {}
    for rule in rules:
        classes.setdefault(rule.statistics_key(), []).append(rule)
    return [
        rule
        for rule in rules
        if any(redundant_wrt(rule, other) for other in classes[rule.statistics_key()])
    ]


def reference_filter_redundant(
    rules: Sequence[RecurrentRule],
) -> Tuple[List[RecurrentRule], List[RecurrentRule]]:
    """``(kept, dropped)``: every rule whose signature was found redundant is dropped."""
    redundant = {(rule.premise, rule.consequent) for rule in reference_find_redundant(rules)}
    kept = [rule for rule in rules if (rule.premise, rule.consequent) not in redundant]
    dropped = [rule for rule in rules if (rule.premise, rule.consequent) in redundant]
    return kept, dropped
