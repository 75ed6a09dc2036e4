"""Tests for the RecurrentRule value type and Definition 5.2 redundancy."""

import pytest

from repro.analysis.compare import nonredundant_result_is_consistent
from repro.core.errors import PatternError
from repro.rules.redundancy import filter_redundant
from repro.rules.result import RuleMiningResult
from repro.rules.rule import RecurrentRule


def _rule(premise, consequent, s=2, i=3, c=0.8):
    return RecurrentRule(
        premise=tuple(premise), consequent=tuple(consequent), s_support=s, i_support=i, confidence=c
    )


def test_rule_requires_nonempty_sides():
    with pytest.raises(PatternError):
        _rule((), ("a",))
    with pytest.raises(PatternError):
        _rule(("a",), ())


def test_events_concatenation_and_length():
    rule = _rule(("a", "b"), ("c",))
    assert rule.events == ("a", "b", "c")
    assert len(rule) == 3


def test_string_rendering_mentions_statistics():
    text = str(_rule(("lock",), ("unlock",), s=5, i=7, c=0.92))
    assert "lock" in text and "unlock" in text
    assert "s-sup=5" in text and "i-sup=7" in text and "0.920" in text


def test_same_statistics():
    assert _rule(("a",), ("b",)).same_statistics(_rule(("a",), ("c",)))
    assert not _rule(("a",), ("b",), i=4).same_statistics(_rule(("a",), ("b",)))
    assert not _rule(("a",), ("b",), c=0.5).same_statistics(_rule(("a",), ("b",)))


def test_same_statistics_agrees_with_the_filter_class_across_a_rounding_boundary():
    # Less than 1e-12 apart, but on either side of a 12th-place rounding
    # boundary: the two confidences fall in different statistics classes.
    boundary = 0.2500000000005
    low = _rule(("a",), ("c",), c=boundary - 3e-14)
    high = _rule(("a",), ("b", "c"), c=boundary + 3e-14)
    assert abs(low.confidence - high.confidence) < 1e-12
    assert low.statistics_key() != high.statistics_key()
    assert not low.same_statistics(high)
    assert not low.is_redundant_with_respect_to(high)
    assert filter_redundant([low, high]) == ([low, high], [])
    # So the consistency check may not count ``high`` as covering ``low``.
    full = RuleMiningResult(rules=[low, high])
    assert nonredundant_result_is_consistent(full, RuleMiningResult(rules=[low, high])) == []
    assert len(nonredundant_result_is_consistent(full, RuleMiningResult(rules=[high]))) == 1


def test_redundancy_by_proper_subsequence():
    shorter = _rule(("a",), ("c",))
    longer = _rule(("a",), ("b", "c"))
    assert shorter.is_redundant_with_respect_to(longer)
    assert not longer.is_redundant_with_respect_to(shorter)


def test_redundancy_requires_equal_statistics():
    shorter = _rule(("a",), ("c",), i=9)
    longer = _rule(("a",), ("b", "c"))
    assert not shorter.is_redundant_with_respect_to(longer)


def test_redundancy_tie_break_prefers_shorter_premise():
    long_premise = _rule(("a", "b"), ("c",))
    short_premise = _rule(("a",), ("b", "c"))
    assert long_premise.is_redundant_with_respect_to(short_premise)
    assert not short_premise.is_redundant_with_respect_to(long_premise)


def test_rule_is_never_redundant_with_itself():
    rule = _rule(("a",), ("b",))
    assert not rule.is_redundant_with_respect_to(rule)


def test_to_ltl_matches_table2():
    assert _rule(("a",), ("b",)).to_ltl() == "G((a -> XF(b)))"
    assert _rule(("a", "b"), ("c", "d")).to_ltl() == "G((a -> XG((b -> XF((c /\\ XF(d)))))))"


def test_as_dict_round_trips_fields():
    payload = _rule(("a",), ("b", "c"), s=4, i=6, c=0.75).as_dict()
    assert payload == {
        "premise": ["a"],
        "consequent": ["b", "c"],
        "s_support": 4,
        "i_support": 6,
        "confidence": 0.75,
    }
