"""Property tests: the facts behind the frequent-pair pruning and the
restricted infix oracle, checked against the brute-force QRE matcher.

The pattern search skips an extension ``P ++ <e>`` unless ``<P[-1], e>`` is
frequent, and the infix closure oracle only visits sequences that hold
``P``.  Both are exact only if the facts below hold; each is checked here
with :func:`repro.core.instances.find_instances_in_sequence`, which shares
no code with the projection machinery.
"""

from hypothesis import given, settings, strategies as st

from repro.core.blocks import InstanceBlock
from repro.core.instances import find_instances, find_instances_in_sequence
from repro.core.positions import PositionIndex
from repro.core.projection import (
    AlphabetIndex,
    forward_extensions,
    forward_extensions_block,
    frequent_pair_table,
)

ALPHABET = range(4)
# Small alphabets make repetitions (the interesting case) likely.
sequences_strategy = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=14),
    min_size=1,
    max_size=5,
)
pattern_strategy = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=4)
support_strategy = st.integers(min_value=1, max_value=5)


def _encode(sequences):
    return [tuple(sequence) for sequence in sequences]


def _support(encoded, pattern):
    return sum(len(find_instances_in_sequence(sequence, pattern)) for sequence in encoded)


@given(sequences=sequences_strategy, pattern=pattern_strategy, event=st.sampled_from(ALPHABET))
@settings(max_examples=150, deadline=None)
def test_extension_support_is_bounded_by_its_last_pair(sequences, pattern, event):
    encoded = _encode(sequences)
    extended = tuple(pattern) + (event,)
    assert _support(encoded, extended) <= _support(encoded, (pattern[-1], event))


@given(sequences=sequences_strategy, min_support=support_strategy)
@settings(max_examples=100, deadline=None)
def test_frequent_pair_table_matches_the_oracle(sequences, min_support):
    encoded = _encode(sequences)
    table = frequent_pair_table(encoded, min_support)
    for first in ALPHABET:
        if _support(encoded, (first,)) < min_support:
            assert first not in table
            continue
        expected = {
            second
            for second in ALPHABET
            if _support(encoded, (first, second)) >= min_support
        }
        assert table[first] == expected


@given(
    sequences=st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=14),
        min_size=1,
        max_size=5,
    ),
    pattern=st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_infix_insertions_only_occur_where_the_pattern_does(sequences, pattern, data):
    # Gap candidates lie outside the pattern's alphabet; events 4 and 5
    # never belong to a pattern, so there is always one to insert.
    pattern = tuple(pattern)
    event = data.draw(st.sampled_from([e for e in range(6) if e not in pattern]))
    insert_position = data.draw(st.integers(min_value=1, max_value=len(pattern) - 1))
    extended = pattern[:insert_position] + (event,) + pattern[insert_position:]
    for sequence in sequences:
        spans = find_instances_in_sequence(sequence, pattern)
        extended_spans = find_instances_in_sequence(sequence, extended)
        if not spans:
            assert not extended_spans
        # Deleting the inserted event leaves an instance of the pattern.
        assert set(extended_spans) <= set(spans)


@given(sequences=sequences_strategy, pattern=pattern_strategy, min_support=support_strategy)
@settings(max_examples=150, deadline=None)
def test_pruned_forward_extensions_keep_every_frequent_child(sequences, pattern, min_support):
    encoded = _encode(sequences)
    pattern = tuple(pattern)
    instances = find_instances(encoded, pattern)
    index = PositionIndex(encoded)
    successors = frequent_pair_table(encoded, min_support).get(pattern[-1], frozenset())
    pruned = forward_extensions_block(
        encoded,
        index,
        AlphabetIndex(index, pattern),
        InstanceBlock.from_instances(instances),
        successors,
    )
    reference = forward_extensions(encoded, index, pattern, instances)
    for event in ALPHABET:
        oracle = find_instances(encoded, pattern + (event,))
        if event in pruned:
            assert pruned[event].to_instances() == oracle == reference[event]
        else:
            assert len(oracle) < min_support
    assert set(pruned) <= successors
