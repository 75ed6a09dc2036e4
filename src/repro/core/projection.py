"""Incremental (projected-database) computation of iterative-pattern instances.

The miners in :mod:`repro.patterns` never rescan whole sequences when growing
a pattern.  Instead they maintain, for the current pattern ``P``, its full
instance list and derive the instance lists of every single-event extension
from it — the iterative-pattern analogue of PrefixSpan's projected database
(Section 4 of the paper).

Correctness of the incremental step (checked against the oracle in
:mod:`repro.core.instances` by the property tests):

``(sid, s, t')`` is an instance of ``P ++ <e>`` **iff** there is an instance
``(sid, s, t)`` of ``P`` such that

1. ``e`` does not occur in the gaps of ``(sid, s, t)`` (this is only possible
   when ``e`` is outside ``P``'s alphabet — gap events are by definition
   outside the alphabet), and
2. the first event of ``alphabet(P) ∪ {e}`` occurring after ``t`` is ``e``,
   at position ``t'``.

The symmetric statement holds for backward extensions ``<e> ++ P`` scanning
to the left of the instance start.  Both directions rely on the fact that an
instance is uniquely determined by its start (respectively end) position.

Two implementations live side by side:

* the **reference path** over ``List[PatternInstance]``
  (:func:`singleton_instances`, :func:`forward_extensions`,
  :func:`backward_extension_events`) — a direct, readable translation kept
  as the comparison baseline for the correctness tests and the hot-path
  benchmark;
* the **block path** over :class:`~repro.core.blocks.InstanceBlock`
  (:func:`singleton_blocks`, :func:`forward_extensions_block`,
  :func:`backward_extension_events_block`) — the columnar implementation
  the miners actually run.  It iterates flat int columns, hoists the
  per-sequence lookups out of the per-instance loop, and answers every
  "first/last alphabet event around t" query with one binary search in a
  per-node merged occurrence list (:class:`AlphabetIndex`) instead of one
  ``bisect`` per alphabet event per instance.

Both paths produce instances in the identical canonical order, so the block
path is bit-compatible with the reference (and with the pre-columnar
releases); the property tests assert exactly that.

**Frequent-pair pruning.**  The miners also pass
:func:`forward_extensions_block` the row of a frequent-pair table
(:func:`frequent_pair_table`, the co-occurrence map of CM-SPADE/CM-ClaSP):
the events ``e`` with ``support(<P[-1], e>) >= min_support``.  Every other
extension is infrequent, because

``support(P ++ <e>) <= support(<P[-1], e>)``:

an instance ``(sid, s, t')`` of ``P ++ <e>`` whose ``P`` part ends at ``t``
maps to ``(sid, t, t')``, an instance of ``<P[-1], e>`` — no event of
``{P[-1], e}`` can sit between ``t`` and ``t'``, since both lie in the
extended pattern's alphabet.  Instances are determined by their end, so the
map is injective.  The pruned call returns exactly the reference rows of
every extension that reaches ``min_support``; it only skips the others'
``seen``-set inserts, gap bisects and row appends.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence as TypingSequence,
    Set,
    Tuple,
)

from .blocks import BLOCK_TYPECODE, BlockBuilder, InstanceBlock
from .events import EncodedDatabase, EventId
from .instances import PatternInstance
from .positions import PositionIndex, SequencePositions


def singleton_instances(encoded_db: EncodedDatabase) -> Dict[EventId, List[PatternInstance]]:
    """Instances of every single-event pattern ``<e>`` in one database pass."""
    instances: Dict[EventId, List[PatternInstance]] = {}
    for sequence_index, sequence in enumerate(encoded_db):
        for position, event in enumerate(sequence):
            instances.setdefault(event, []).append(
                PatternInstance(sequence_index, position, position)
            )
    return instances


def _first_alphabet_event_after(
    positions: SequencePositions, alphabet: FrozenSet[EventId], position: int
) -> Optional[int]:
    """Position of the first occurrence of any alphabet event strictly after ``position``."""
    best: Optional[int] = None
    for event in alphabet:
        candidate = positions.first_after(event, position)
        if candidate is not None and (best is None or candidate < best):
            best = candidate
    return best


def _last_alphabet_event_before(
    positions: SequencePositions, alphabet: FrozenSet[EventId], position: int
) -> Optional[int]:
    """Position of the last occurrence of any alphabet event strictly before ``position``."""
    best: Optional[int] = None
    for event in alphabet:
        candidate = positions.last_before(event, position)
        if candidate is not None and (best is None or candidate > best):
            best = candidate
    return best


def forward_extensions(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Dict[EventId, List[PatternInstance]]:
    """Instances of every frequent-or-not single-event forward extension of ``pattern``.

    Returns a mapping ``e -> instances of pattern ++ <e>``.  Only events that
    yield at least one instance appear as keys.

    Reference implementation over instance tuples; the miners run
    :func:`forward_extensions_block`, which must (and is property-tested to)
    agree with this one row for row.
    """
    alphabet = frozenset(pattern)
    extensions: Dict[EventId, List[PatternInstance]] = {}
    for instance in instances:
        sequence = encoded_db[instance.sequence_index]
        positions = index[instance.sequence_index]
        boundary = _first_alphabet_event_after(positions, alphabet, instance.end)
        window_end = boundary if boundary is not None else len(sequence)
        seen_outside: Set[EventId] = set()
        # Events outside the pattern alphabet occurring before the next
        # alphabet event: their first occurrence ends the extended instance.
        for position in range(instance.end + 1, window_end):
            event = sequence[position]
            if event in seen_outside:
                continue
            seen_outside.add(event)
            if positions.occurs_between(event, instance.start, instance.end):
                # ``event`` appears in a gap of the current instance, so the
                # extended pattern's QRE (which excludes ``event`` from every
                # gap) is violated for this instance.
                continue
            extensions.setdefault(event, []).append(
                PatternInstance(instance.sequence_index, instance.start, position)
            )
        if boundary is not None:
            # The next alphabet event itself is a valid extension target: the
            # extended pattern then repeats an event it already contains.
            event = sequence[boundary]
            extensions.setdefault(event, []).append(
                PatternInstance(instance.sequence_index, instance.start, boundary)
            )
    return extensions


def backward_extension_instance(
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instance: PatternInstance,
    event: EventId,
) -> Optional[PatternInstance]:
    """The instance of ``<event> ++ pattern`` extending ``instance`` backwards, if any.

    When ``event`` belongs to the pattern's alphabet, its last occurrence
    before the instance start may coincide with the last alphabet occurrence;
    that position is a valid backward extension (the extended pattern repeats
    an event it already contains), so only a *strictly later* alphabet
    occurrence blocks the extension.
    """
    alphabet = frozenset(pattern)
    positions = index[instance.sequence_index]
    if event not in alphabet and positions.occurs_between(event, instance.start, instance.end):
        return None
    previous_alphabet = _last_alphabet_event_before(positions, alphabet, instance.start)
    previous_event = positions.last_before(event, instance.start)
    if previous_event is None:
        return None
    if previous_alphabet is not None and previous_alphabet > previous_event:
        return None
    return PatternInstance(instance.sequence_index, previous_event, instance.end)


def backward_extension_events(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Set[EventId]:
    """Events ``e`` such that *every* instance of ``pattern`` extends to ``<e> ++ pattern``.

    Used by the closure check: any such event proves the pattern non-closed
    (Definition 4.2), because the instance counts match and each instance of
    the pattern nests inside the corresponding backward-extended instance.

    Reference implementation; the miners run
    :func:`backward_extension_events_block`.
    """
    if not instances:
        return set()
    candidates: Optional[Set[EventId]] = None
    alphabet = frozenset(pattern)
    for instance in instances:
        sequence = encoded_db[instance.sequence_index]
        positions = index[instance.sequence_index]
        previous_alphabet = _last_alphabet_event_before(positions, alphabet, instance.start)
        window_start = previous_alphabet + 1 if previous_alphabet is not None else 0
        local: Set[EventId] = set()
        for position in range(window_start, instance.start):
            event = sequence[position]
            if event in alphabet:
                continue
            if positions.occurs_between(event, instance.start, instance.end):
                continue
            local.add(event)
        if previous_alphabet is not None:
            event = sequence[previous_alphabet]
            # A pattern-alphabet event immediately "reachable" to the left is
            # also a valid backward extension (the pattern repeats it).
            local.add(event)
        candidates = local if candidates is None else (candidates & local)
        if not candidates:
            return set()
    return candidates or set()


# --------------------------------------------------------------------- #
# Columnar (block) path — what the miners actually run.
# --------------------------------------------------------------------- #
class AlphabetIndex:
    """Per-search-node shared boundary cache.

    Every instance at a search node shares one pattern alphabet, so the
    "first alphabet event after t" / "last alphabet event before t" queries
    differ only in ``t``.  This cache merges the per-event sorted occurrence
    lists of the alphabet into one sorted list per sequence — built lazily,
    once per (node, sequence) — and answers each query with a single binary
    search instead of one ``bisect`` per alphabet event per instance.

    It also owns the node's ``frozenset(pattern)`` so the projection,
    backward-extension and closure helpers stop rebuilding it per call.

    Child nodes are derived with :meth:`extend`, which exploits that a
    forward extension changes the alphabet by at most one event: extending
    with an event already in the alphabet *shares* the parent's merged
    lists outright (the overwhelmingly common case when patterns repeat
    their events), and a genuinely new event merges its occurrence list
    into the parent's — an O(n) two-run merge instead of a from-scratch
    rebuild over every alphabet event.
    """

    __slots__ = ("pattern", "alphabet", "_index", "_merged", "_parent", "_new_event")

    def __init__(self, index: PositionIndex, pattern: Tuple[EventId, ...]) -> None:
        self.pattern = pattern
        self.alphabet = frozenset(pattern)
        self._index = index
        self._merged: Dict[int, List[int]] = {}
        self._parent: Optional["AlphabetIndex"] = None
        self._new_event: Optional[EventId] = None

    def extend(self, event: EventId) -> "AlphabetIndex":
        """The cache for the child node ``pattern ++ <event>``."""
        child = AlphabetIndex.__new__(AlphabetIndex)
        child.pattern = self.pattern + (event,)
        child._index = self._index
        if event in self.alphabet:
            # Same alphabet: the merged lists are identical, share the cache
            # (both nodes may keep filling it — the values agree) along with
            # this node's own derivation for misses.
            child.alphabet = self.alphabet
            child._merged = self._merged
            child._parent = self._parent
            child._new_event = self._new_event
        else:
            child.alphabet = self.alphabet | {event}
            child._merged = {}
            child._parent = self
            child._new_event = event
        return child

    def merged(self, sequence_index: int) -> List[int]:
        """Sorted positions of every alphabet event in one sequence."""
        merged = self._merged.get(sequence_index)
        if merged is None:
            positions = self._index[sequence_index]
            parent = self._parent
            if parent is not None:
                base = parent.merged(sequence_index)
                extra = positions.positions_of(self._new_event)
                if not extra:
                    merged = base
                else:
                    # Two sorted runs: timsort merges them in linear time.
                    merged = base + extra
                    merged.sort()
            else:
                events = iter(self.alphabet)
                merged = list(positions.positions_of(next(events)))
                for event in events:
                    merged.extend(positions.positions_of(event))
                merged.sort()
            self._merged[sequence_index] = merged
        return merged

    def first_after(self, sequence_index: int, position: int) -> Optional[int]:
        """First alphabet occurrence strictly after ``position``."""
        merged = self.merged(sequence_index)
        cursor = bisect_right(merged, position)
        if cursor == len(merged):
            return None
        return merged[cursor]

    def last_before(self, sequence_index: int, position: int) -> Optional[int]:
        """Last alphabet occurrence strictly before ``position``."""
        merged = self.merged(sequence_index)
        cursor = bisect_left(merged, position)
        if cursor == 0:
            return None
        return merged[cursor - 1]


def singleton_blocks(encoded_db: EncodedDatabase) -> Dict[EventId, InstanceBlock]:
    """Instance blocks of every single-event pattern ``<e>`` in one pass."""
    builders: Dict[EventId, BlockBuilder] = {}
    for sequence_index, sequence in enumerate(encoded_db):
        for position, event in enumerate(sequence):
            builder = builders.get(event)
            if builder is None:
                builder = builders[event] = BlockBuilder()
            builder.append(sequence_index, position, position)
    return {event: builder.build() for event, builder in builders.items()}


def frequent_pair_table(
    encoded_db: EncodedDatabase, min_support: int
) -> Dict[EventId, FrozenSet[EventId]]:
    """``a -> {e : support(<a, e>) >= min_support}`` for every frequent ``a``.

    An instance of ``<a, e>`` is an ``a`` followed by the first ``e`` after
    it with no ``a`` in between (for ``a == e``: an ``a`` and the next one).
    One right-to-left pass per sequence keeps its events ordered by next
    occurrence, nearest first; at an ``a``, the events ahead of ``a``'s own
    entry are exactly those occurring before the next ``a``, and ``a``
    itself pairs with its next occurrence.  Infrequent events are dropped
    from the sequences first: ``support(<a, e>)`` is at most the occurrence
    count of either event, and removing other events never changes whether
    an ``a`` or ``e`` sits between two positions.
    """
    occurrences: Counter = Counter()
    for sequence in encoded_db:
        occurrences.update(sequence)
    counts: Dict[EventId, Counter] = {
        event: Counter() for event, count in occurrences.items() if count >= min_support
    }
    for sequence in encoded_db:
        order: List[EventId] = []
        for event in reversed(sequence):
            pairs = counts.get(event)
            if pairs is None:
                continue
            if event in order:
                cut = order.index(event)
                pairs.update(order[: cut + 1])
                del order[cut]
            else:
                pairs.update(order)
            order.insert(0, event)
    return {
        event: frozenset(other for other, count in pairs.items() if count >= min_support)
        for event, pairs in counts.items()
    }


def forward_extensions_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
    successors: Optional[AbstractSet[EventId]] = None,
) -> Dict[EventId, InstanceBlock]:
    """Columnar :func:`forward_extensions`: ``e -> block of pattern ++ <e>``.

    Iterates the block sequence group by sequence group, hoisting the
    ``encoded_db[sid]`` / ``index[sid]`` / merged-alphabet lookups out of
    the per-instance loop, and emits extension rows into
    :class:`~repro.core.blocks.BlockBuilder` columns — no per-instance
    object allocation anywhere on the path.

    ``successors``, when given, is the frequent-pair table row of the
    pattern's last event (see the module docstring): only those events are
    extended, every other one costs a single set test.  Without it every
    extension is returned, as :func:`forward_extensions` does.
    """
    if successors is not None and not successors:
        return {}
    # Per-event open builder state, laid out flat for the inner loop:
    # [starts.append, ends.append, seq_ids.append, offsets.append,
    #  last_sid, starts, ends, seq_ids, offsets]
    # Appending a row is two bound-method calls (plus a group registration
    # when the sequence changes) with no per-row Python function frames.
    entries: Dict[EventId, list] = {}
    alphabet = node.alphabet
    starts = block.starts
    ends = block.ends
    seq_ids = block.seq_ids
    offsets = block.offsets
    for group in range(len(seq_ids)):
        sid = seq_ids[group]
        sequence = encoded_db[sid]
        table = index[sid].table()
        merged = node.merged(sid)
        merged_len = len(merged)
        sequence_len = len(sequence)
        lo = offsets[group]
        hi = offsets[group + 1]
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            after = end + 1
            if after < sequence_len and sequence[after] in alphabet:
                # Fast path: the adjacent event already bounds the window —
                # no boundary search, no gap window to scan.
                boundary = after
                window_end = after
            else:
                cursor = bisect_right(merged, end)
                if cursor < merged_len:
                    boundary = merged[cursor]
                    window_end = boundary
                else:
                    boundary = -1
                    window_end = sequence_len
            if window_end > after:
                has_gap = end - start > 1
                seen_outside = set()
                for position in range(after, window_end):
                    event = sequence[position]
                    if successors is not None and event not in successors:
                        continue
                    if event in seen_outside:
                        continue
                    seen_outside.add(event)
                    if has_gap:
                        # Gap check: ``event`` must not occur strictly
                        # inside (start, end) — inlined occurs_between on
                        # the sorted per-event position list.
                        occurrences = table[event]
                        gap_cursor = bisect_right(occurrences, start)
                        if gap_cursor < len(occurrences) and occurrences[gap_cursor] < end:
                            continue
                    entry = entries.get(event)
                    if entry is None:
                        entry = entries[event] = _new_entry()
                    if entry[4] != sid:
                        entry[2](sid)
                        entry[3](len(entry[5]))
                        entry[4] = sid
                    entry[0](start)
                    entry[1](position)
            if boundary >= 0:
                # The next alphabet event itself is a valid extension target:
                # the extended pattern then repeats an event it already has.
                event = sequence[boundary]
                if successors is not None and event not in successors:
                    continue
                entry = entries.get(event)
                if entry is None:
                    entry = entries[event] = _new_entry()
                if entry[4] != sid:
                    entry[2](sid)
                    entry[3](len(entry[5]))
                    entry[4] = sid
                entry[0](start)
                entry[1](boundary)
    extensions: Dict[EventId, InstanceBlock] = {}
    for event, entry in entries.items():
        entry[8].append(len(entry[5]))
        extensions[event] = InstanceBlock(entry[7], entry[8], entry[5], entry[6])
    return extensions


def _new_entry() -> list:
    """Fresh flat builder state for one extension event (see above layout)."""
    starts = array(BLOCK_TYPECODE)
    ends = array(BLOCK_TYPECODE)
    seq_ids = array(BLOCK_TYPECODE)
    offsets = array(BLOCK_TYPECODE)
    return [starts.append, ends.append, seq_ids.append, offsets.append, -1,
            starts, ends, seq_ids, offsets]


def singleton_block_of(index: PositionIndex, event: EventId) -> InstanceBlock:
    """The instance block of the single-event pattern ``<event>``.

    Unlike :func:`singleton_blocks` this builds one event's block straight
    from the position index instead of scanning the database, so callers
    that need a single root (work-unit replay, the infix oracle) pay only
    for the rows they use.
    """
    seq_ids = array(BLOCK_TYPECODE)
    offsets = array(BLOCK_TYPECODE)
    starts = array(BLOCK_TYPECODE)
    for sequence_index in range(len(index)):
        occurrences = index[sequence_index].positions_of(event)
        if not occurrences:
            continue
        seq_ids.append(sequence_index)
        offsets.append(len(starts))
        starts.extend(occurrences)
    offsets.append(len(starts))
    return InstanceBlock(seq_ids, offsets, starts, array(BLOCK_TYPECODE, starts))


def project_extension_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
    event: EventId,
) -> InstanceBlock:
    """Instances of ``node.pattern ++ <event>`` derived from ``block`` alone.

    The single-event restriction of :func:`forward_extensions_block` —
    row-identical to ``forward_extensions_block(...)[event]`` (and to the
    empty block when the event yields no extension) but without touching
    any other extension event: each instance costs a couple of binary
    searches instead of a window scan.  Used by the work-stealing replay
    path, where only one extension event is ever of interest;
    :func:`project_rows_in_sequence` applies the identical per-row rule
    sequence-locally for the infix-closure oracle — keep the two in
    lockstep.
    """
    out_seq_ids = array(BLOCK_TYPECODE)
    out_offsets = array(BLOCK_TYPECODE)
    out_starts = array(BLOCK_TYPECODE)
    out_ends = array(BLOCK_TYPECODE)
    in_alphabet = event in node.alphabet
    starts = block.starts
    ends = block.ends
    seq_ids = block.seq_ids
    offsets = block.offsets
    for group in range(len(seq_ids)):
        sid = seq_ids[group]
        sequence = encoded_db[sid]
        sequence_len = len(sequence)
        merged = node.merged(sid)
        merged_len = len(merged)
        occurrences = index[sid].positions_of(event)
        if not in_alphabet and not occurrences:
            continue
        group_open = False
        lo = offsets[group]
        hi = offsets[group + 1]
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            if in_alphabet:
                # The extension repeats an alphabet event: the only valid
                # target is the first alphabet occurrence after the end.
                after = end + 1
                if after < sequence_len and sequence[after] in node.alphabet:
                    boundary = after
                else:
                    cursor = bisect_right(merged, end)
                    if cursor == merged_len:
                        continue
                    boundary = merged[cursor]
                if sequence[boundary] != event:
                    continue
                target = boundary
            else:
                cut = bisect_right(occurrences, end)
                if cut == len(occurrences):
                    continue
                target = occurrences[cut]
                # No alphabet event may sit between the end and the target.
                cursor = bisect_right(merged, end)
                if cursor < merged_len and merged[cursor] < target:
                    continue
                # Gap check: the event must not occur inside (start, end).
                if end - start > 1:
                    gap_cursor = bisect_right(occurrences, start)
                    if gap_cursor < len(occurrences) and occurrences[gap_cursor] < end:
                        continue
            if not group_open:
                out_seq_ids.append(sid)
                out_offsets.append(len(out_starts))
                group_open = True
            out_starts.append(start)
            out_ends.append(target)
    out_offsets.append(len(out_starts))
    return InstanceBlock(out_seq_ids, out_offsets, out_starts, out_ends)


def project_rows_in_sequence(
    sequence: TypingSequence[EventId],
    table: Dict[EventId, List[int]],
    nodes: List[AlphabetIndex],
    pattern: Tuple[EventId, ...],
    sequence_index: int,
    first_rows: List[Tuple[int, int]],
) -> List[Tuple[int, int]]:
    """Exact instance spans of ``pattern`` in one sequence, chained.

    The per-sequence, multi-step sibling of :func:`project_extension_block`
    — each step applies the identical per-row extension rule (in-alphabet
    boundary fast path, merged-list boundary bisect, no-alphabet-between
    check, gap pre-filter); keep the two in lockstep.  ``nodes[k]`` is the
    :class:`AlphabetIndex` of ``pattern[:k + 1]``; ``first_rows`` seeds
    the chain (the spans of some prefix of ``pattern``, usually its first
    event's occurrences).  The closed miner's infix-closure oracle drives
    this sequence by sequence so a failing candidate aborts at its first
    mismatching sequence; a property test pins it against
    :func:`project_extension_block` step for step.
    """
    rows = first_rows
    sequence_len = len(sequence)
    for k in range(len(nodes) - 1):
        if not rows:
            break
        node = nodes[k]
        event = pattern[k + 1]
        merged = node.merged(sequence_index)
        merged_len = len(merged)
        alphabet = node.alphabet
        in_alphabet = event in alphabet
        occurrences = table.get(event, [])
        if not in_alphabet and not occurrences:
            return []
        new_rows: List[Tuple[int, int]] = []
        for start, end in rows:
            if in_alphabet:
                after = end + 1
                if after < sequence_len and sequence[after] in alphabet:
                    boundary = after
                else:
                    cursor = bisect_right(merged, end)
                    if cursor == merged_len:
                        continue
                    boundary = merged[cursor]
                if sequence[boundary] != event:
                    continue
                target = boundary
            else:
                cut = bisect_right(occurrences, end)
                if cut == len(occurrences):
                    continue
                target = occurrences[cut]
                cursor = bisect_right(merged, end)
                if cursor < merged_len and merged[cursor] < target:
                    continue
                if end - start > 1:
                    gap_cursor = bisect_right(occurrences, start)
                    if gap_cursor < len(occurrences) and occurrences[gap_cursor] < end:
                        continue
            new_rows.append((start, target))
        rows = new_rows
    return rows


def backward_extension_events_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
) -> Set[EventId]:
    """Columnar :func:`backward_extension_events` over an instance block.

    The window ``(previous alphabet occurrence, start)`` contains no
    alphabet events by construction, so unlike the reference loop no
    per-position alphabet membership test is needed.
    """
    if not block:
        return set()
    candidates: Optional[Set[EventId]] = None
    starts = block.starts
    ends = block.ends
    seq_ids = block.seq_ids
    offsets = block.offsets
    for group in range(len(seq_ids)):
        sid = seq_ids[group]
        sequence = encoded_db[sid]
        table = index[sid].table()
        merged = node.merged(sid)
        lo = offsets[group]
        hi = offsets[group + 1]
        for start, end in zip(starts[lo:hi], ends[lo:hi]):
            cursor = bisect_left(merged, start) - 1
            previous_alphabet = merged[cursor] if cursor >= 0 else -1
            has_gap = end - start > 1
            local: Set[EventId] = set()
            for position in range(previous_alphabet + 1, start):
                event = sequence[position]
                if event in local:
                    continue
                if has_gap:
                    occurrences = table[event]
                    gap_cursor = bisect_right(occurrences, start)
                    if gap_cursor < len(occurrences) and occurrences[gap_cursor] < end:
                        continue
                local.add(event)
            if previous_alphabet >= 0:
                # A pattern-alphabet event immediately "reachable" to the
                # left is also a valid backward extension (the pattern
                # repeats it).
                local.add(sequence[previous_alphabet])
            candidates = local if candidates is None else (candidates & local)
            if not candidates:
                return set()
    return candidates or set()
