"""Tests for the Definition 5.2 redundancy filter."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.core.sequence import SequenceDatabase
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.rules.redundancy import filter_redundant, find_redundant
from repro.rules.rule import RecurrentRule

from .reference_redundancy import reference_filter_redundant, reference_find_redundant


def _rule(premise, consequent, s=2, i=3, c=0.8):
    return RecurrentRule(
        premise=tuple(premise), consequent=tuple(consequent), s_support=s, i_support=i, confidence=c
    )


def test_shorter_rule_with_same_statistics_is_redundant():
    shorter = _rule(("a",), ("c",))
    longer = _rule(("a",), ("b", "c"))
    kept, dropped = filter_redundant([shorter, longer])
    assert kept == [longer]
    assert dropped == [shorter]


def test_rules_with_different_statistics_are_both_kept():
    first = _rule(("a",), ("c",), i=9)
    second = _rule(("a",), ("b", "c"), i=3)
    kept, dropped = filter_redundant([first, second])
    assert set(rule.signature() for rule in kept) == {first.signature(), second.signature()}
    assert dropped == []


def test_tie_break_keeps_shorter_premise():
    long_premise = _rule(("a", "b"), ("c",))
    short_premise = _rule(("a",), ("b", "c"))
    kept, dropped = filter_redundant([long_premise, short_premise])
    assert kept == [short_premise]
    assert dropped == [long_premise]


def test_chain_of_redundancy_keeps_only_the_maximal_rule():
    small = _rule(("a",), ("d",))
    middle = _rule(("a",), ("c", "d"))
    large = _rule(("a",), ("b", "c", "d"))
    kept, dropped = filter_redundant([small, middle, large])
    assert kept == [large]
    assert {rule.signature() for rule in dropped} == {small.signature(), middle.signature()}


def test_unrelated_rules_are_kept():
    first = _rule(("x",), ("y",))
    second = _rule(("p",), ("q",))
    kept, dropped = filter_redundant([first, second])
    assert len(kept) == 2 and not dropped


def test_find_redundant_matches_filter():
    rules = [_rule(("a",), ("c",)), _rule(("a",), ("b", "c")), _rule(("z",), ("w",), i=1)]
    redundant = find_redundant(rules)
    _, dropped = filter_redundant(rules)
    assert {rule.signature() for rule in redundant} == {rule.signature() for rule in dropped}


def test_empty_input():
    kept, dropped = filter_redundant([])
    assert kept == [] and dropped == []


# ---------------------------------------------------------------------- #
# The indexed filter against the pairwise reference
# ---------------------------------------------------------------------- #
concatenations = st.lists(st.sampled_from("abc"), min_size=2, max_size=5).map(tuple)
statistics = st.sampled_from([(2, 3, 0.8), (2, 3, 0.5), (1, 3, 0.8)])


@st.composite
def rule_sets(draw):
    """Rules cut from a small pool of concatenations: the same concatenation
    split at several premise lengths, repeated signatures, subsequence chains
    over the 3-letter alphabet, and up to three statistics classes."""
    pool = draw(st.lists(concatenations, min_size=1, max_size=6))
    rules = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        events = draw(st.sampled_from(pool))
        split = draw(st.integers(min_value=1, max_value=len(events) - 1))
        s, i, c = draw(statistics)
        rules.append(_rule(events[:split], events[split:], s=s, i=i, c=c))
    return rules


@given(rules=rule_sets())
@example(rules=[])
@example(rules=[_rule("a", "b"), _rule("a", "b"), _rule("a", "cb")])
@example(rules=[_rule("ab", "c"), _rule("a", "bc"), _rule("ab", "c", i=9)])
@example(rules=[_rule("a", "d"), _rule("a", "cd"), _rule("a", "bcd"), _rule("ab", "cd", c=0.5)])
@settings(max_examples=400, deadline=None)
def test_indexed_filter_matches_pairwise_reference(rules):
    assert find_redundant(rules) == reference_find_redundant(rules)
    assert filter_redundant(rules) == reference_filter_redundant(rules)


# ---------------------------------------------------------------------- #
# Loop traces: large statistics classes
# ---------------------------------------------------------------------- #
#: 8 protocol families, each a 5-event body looped 12 times then a commit,
#: 6 traces per family (the shape of the ``mine-loops`` benchmark corpus).
LOOP_FAMILIES, LOOP_BODY, LOOP_TRACES, LOOP_REPEATS = 8, 5, 6, 12
LOOP_CONFIG = RuleMiningConfig(
    min_s_support=2, min_confidence=0.5, max_premise_length=2, max_consequent_length=1
)


class _UnfilteredMiner(NonRedundantRecurrentRuleMiner):
    """The non-redundant miner without its final Definition 5.2 sweep."""

    apply_final_redundancy_filter = False


def _loop_candidates():
    traces = []
    for family in range(LOOP_FAMILIES):
        body = [f"f{family:02d}.e{step}" for step in range(LOOP_BODY)]
        traces += [body * LOOP_REPEATS + [f"f{family:02d}.commit"]] * LOOP_TRACES
    return _UnfilteredMiner(LOOP_CONFIG).mine(SequenceDatabase.from_sequences(traces)).rules


def test_loop_corpus_filter_matches_reference_without_quadratic_tests(monkeypatch):
    candidates = _loop_candidates()
    classes = Counter(rule.statistics_key() for rule in candidates)
    assert max(classes.values()) >= 400  # the all-pairs test is ~200k calls on this class alone

    predicate = RecurrentRule.is_redundant_with_respect_to
    calls = 0

    def counted(self, other):
        nonlocal calls
        calls += 1
        return predicate(self, other)

    monkeypatch.setattr(RecurrentRule, "is_redundant_with_respect_to", counted)
    kept, dropped = filter_redundant(candidates)
    assert calls < 20_000

    reference_kept, reference_dropped = reference_filter_redundant(candidates)
    assert kept == reference_kept
    assert dropped == reference_dropped
    assert dropped  # the corpus does exercise the filter
