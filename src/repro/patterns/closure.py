"""Closed-pattern checks (Definition 4.2).

A frequent iterative pattern ``P`` is *closed* when no super-sequence ``Q``
exists with the same support such that every instance of ``P`` corresponds to
a unique instance of ``Q``.  Operationally — and this is the check used by
the original work's closed miner and by BIDE-style closed sequential-pattern
miners — it suffices to examine the super-sequences obtained from ``P`` by a
*single event insertion*:

* a **forward extension** ``P ++ <e>``,
* a **backward extension** ``<e> ++ P``,
* an **infix extension** inserting ``e`` into one of the gaps of ``P``.

The forward check is free: the miner already computes the instance lists of
every forward extension while growing the search tree, and ``P ++ <e>`` has
full instance correspondence with ``P`` exactly when every instance of ``P``
extends.  The backward check scans the region to the left of every instance
(``repro.core.projection.backward_extension_events``).  The infix check first
collects candidate events occurring in the gaps of *every* instance (usually
none) and verifies each candidate insertion against the exact instance
semantics.

The checks exist in two forms: the original list-based helpers (kept as the
reference path for tests and benchmarks) and columnar ``*_block`` variants
over :class:`~repro.core.blocks.InstanceBlock`, which share the search
node's :class:`~repro.core.projection.AlphabetIndex` so the per-instance
boundary queries collapse into binary searches on one merged occurrence
list.  The miners run the block variants.

The block infix oracle verifies a candidate only in the sequences that
hold ``P``.  A gap candidate ``e`` lies outside ``alphabet(P)``, so
deleting it from an instance of the extended pattern leaves an instance
of ``P`` with the same span: every gap of the extended instance excludes
``alphabet(P)``, and the merged gap around ``e`` holds nothing of
``alphabet(P)`` either.  A sequence without ``P`` therefore holds no
instance of the extended pattern.  The list-based reference still scans
the whole database.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence as TypingSequence, Sized, Tuple

from ..core.blocks import InstanceBlock
from ..core.events import EventId
from ..core.instances import (
    PatternInstance,
    find_instances_in_sequence,
    gap_events,
    instances_correspond,
)
from ..core.positions import PositionIndex
from ..core.projection import (
    AlphabetIndex,
    EncodedDatabase,
    backward_extension_events,
    backward_extension_events_block,
    project_rows_in_sequence,
)


def forward_closure_violation(
    extension_instances: Dict[EventId, Sized], instance_count: int
) -> Optional[EventId]:
    """An event whose forward extension absorbs every instance, or ``None``.

    ``extension_instances`` maps each extension event to the instances of
    ``P ++ <e>`` (as a list or an :class:`InstanceBlock` — only sizes are
    read); because each instance of ``P`` yields at most one extended
    instance per event, count equality means every instance extends.
    """
    for event, instances in extension_instances.items():
        if len(instances) == instance_count:
            return event
    return None


def backward_closure_violation(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Optional[EventId]:
    """An event whose backward extension absorbs every instance, or ``None``."""
    events = backward_extension_events(encoded_db, index, pattern, instances)
    if events:
        return min(events)
    return None


def _gap_candidates(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Dict[EventId, List[int]]:
    """Candidate infix insertions: events in the gaps of every instance.

    Returns a mapping from each candidate event (outside the pattern
    alphabet, occurring strictly inside every instance span) to the gap
    positions it occupies *in the first instance* — a sound restriction of
    the insertion positions worth verifying, because an insertion that
    preserves every instance must in particular appear in that gap of the
    first instance.
    """
    if not instances:
        return {}
    alphabet = frozenset(pattern)
    first_instance = instances[0]
    first_sequence = encoded_db[first_instance.sequence_index]
    gaps_by_event: Dict[EventId, List[int]] = {}
    for gap_index, position in gap_events(
        first_sequence, pattern, (first_instance.start, first_instance.end)
    ):
        gaps = gaps_by_event.setdefault(first_sequence[position], [])
        if gap_index not in gaps:
            gaps.append(gap_index)
    candidates = set(gaps_by_event)
    for instance in instances[1:]:
        if not candidates:
            return {}
        positions = index[instance.sequence_index]
        candidates = {
            event
            for event in candidates
            if positions.occurs_between(event, instance.start, instance.end)
        }
    return {event: gaps_by_event[event] for event in candidates}


def infix_closure_violation(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
) -> Optional[Tuple[EventId, int]]:
    """A ``(event, insert_position)`` infix insertion violating closedness, or ``None``.

    The returned ``insert_position`` is the index in the pattern *before*
    which the event is inserted (``1 .. len(pattern) - 1``).
    """
    candidates = _gap_candidates(encoded_db, index, pattern, instances)
    if not candidates:
        return None
    support = len(instances)
    for event in sorted(candidates):
        for insert_position in candidates[event]:
            extended = pattern[:insert_position] + (event,) + pattern[insert_position:]
            extended_instances = _oracle_instances(encoded_db, index, extended)
            if len(extended_instances) != support:
                continue
            if instances_correspond(instances, extended_instances):
                return (event, insert_position)
    return None


def _oracle_instances(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
) -> List[PatternInstance]:
    """Exact instances of ``pattern`` across the database.

    Only sequences containing every event of the pattern can host an
    instance, so sequences failing that cheap index check are skipped before
    running the exact QRE matcher.  The reference deliberately scans the
    *whole* database: it shares no reasoning with the block oracle, which
    relies on gap insertions having no instances outside the sequences
    that hold the base pattern.
    """
    needed = tuple(frozenset(pattern))
    results: List[PatternInstance] = []
    for sequence_index, sequence in enumerate(encoded_db):
        positions = index[sequence_index]
        if any(positions.count(event) == 0 for event in needed):
            continue
        for start, end in find_instances_in_sequence(sequence, pattern):
            results.append(PatternInstance(sequence_index, start, end))
    return results


def is_closed(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    pattern: Tuple[EventId, ...],
    instances: TypingSequence[PatternInstance],
    extension_instances: Dict[EventId, List[PatternInstance]],
    check_infix: bool = True,
) -> bool:
    """Full closedness check combining the forward, backward and infix tests."""
    if forward_closure_violation(extension_instances, len(instances)) is not None:
        return False
    if backward_closure_violation(encoded_db, index, pattern, instances) is not None:
        return False
    if check_infix and infix_closure_violation(encoded_db, index, pattern, instances) is not None:
        return False
    return True


# --------------------------------------------------------------------- #
# Columnar (block) path — what the closed miner actually runs.
# --------------------------------------------------------------------- #
def _gap_candidates_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
) -> Dict[EventId, List[int]]:
    """Columnar :func:`_gap_candidates` over an instance block.

    The candidate set almost always empties after a handful of rows, so the
    scan walks the block's flat columns directly and never materialises
    instance tuples.
    """
    if not block:
        return {}
    first_instance = block.first()
    first_sequence = encoded_db[first_instance.sequence_index]
    gaps_by_event: Dict[EventId, List[int]] = {}
    for gap_index, position in gap_events(
        first_sequence, node.pattern, (first_instance.start, first_instance.end)
    ):
        gaps = gaps_by_event.setdefault(first_sequence[position], [])
        if gap_index not in gaps:
            gaps.append(gap_index)
    candidates = set(gaps_by_event)
    starts = block.starts
    ends = block.ends
    for sid, lo, hi in block.groups():
        if not candidates:
            return {}
        positions = index[sid]
        for row in range(lo if sid != first_instance.sequence_index else lo + 1, hi):
            start = starts[row]
            end = ends[row]
            candidates = {
                event for event in candidates if positions.occurs_between(event, start, end)
            }
            if not candidates:
                return {}
    return {event: gaps_by_event[event] for event in candidates}


def _rows_correspond(
    block: InstanceBlock, lo: int, hi: int, rows: List[Tuple[int, int]]
) -> bool:
    """Per-sequence Definition 4.2 correspondence, two-pointer form.

    ``block`` rows ``lo..hi`` are the sub-instances of one sequence;
    ``rows`` the equally-many super-instances.  Both have strictly
    increasing starts *and* ends (an instance is determined by either
    endpoint), so the reference algorithm's "first unused enclosing
    super-instance" reduces to a forward sweep: super-rows ending before
    the current sub-row can never enclose a later sub-row either, and once
    a super-row starts after the sub-row every later one does too.
    """
    starts = block.starts
    ends = block.ends
    cursor = 0
    cursor_hi = len(rows)
    for row in range(lo, hi):
        start = starts[row]
        end = ends[row]
        while cursor < cursor_hi and rows[cursor][1] < end:
            cursor += 1
        if cursor == cursor_hi or rows[cursor][0] > start:
            return False
        cursor += 1
    return True


def infix_closure_violation_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
) -> Optional[Tuple[EventId, int]]:
    """Columnar :func:`infix_closure_violation` over an instance block.

    Candidates surviving the gap pre-filter are verified entirely on the
    merged-alphabet projection machinery — no instance tuples, no QRE
    rescans.  The key structural fact: correspondence plus equal support
    force the extended pattern's instance count to match the pattern's
    *in every single sequence*, so the oracle verifies sequence by
    sequence and abandons a candidate at its first mismatching sequence
    instead of materialising the extension across the whole database
    first.  Only the sequences holding the pattern are visited: the
    extension has no instances anywhere else (see the module docstring).
    """
    candidates = _gap_candidates_block(encoded_db, index, node, block)
    if not candidates:
        return None
    pattern = node.pattern
    groups = list(block.groups())
    # prefix_nodes[i] is the AlphabetIndex of pattern[:i + 1]; its merged
    # caches are shared by every candidate through the parent links.
    prefix_nodes = [AlphabetIndex(index, (pattern[0],))]
    for event in pattern[1:-1]:
        prefix_nodes.append(prefix_nodes[-1].extend(event))
    for event in sorted(candidates):
        for insert_position in candidates[event]:
            extended = pattern[:insert_position] + (event,) + pattern[insert_position:]
            nodes = prefix_nodes[: insert_position]
            nodes = nodes + [nodes[-1].extend(event)]
            for tail_event in pattern[insert_position:]:
                nodes.append(nodes[-1].extend(tail_event))
            for sequence_index, lo, hi in groups:
                positions = index[sequence_index]
                rows = project_rows_in_sequence(
                    encoded_db[sequence_index],
                    positions.table(),
                    nodes,
                    extended,
                    sequence_index,
                    [(position, position) for position in positions.positions_of(pattern[0])],
                )
                if len(rows) != hi - lo or not _rows_correspond(block, lo, hi, rows):
                    break
            else:
                return (event, insert_position)
    return None


def is_closed_block(
    encoded_db: EncodedDatabase,
    index: PositionIndex,
    node: AlphabetIndex,
    block: InstanceBlock,
    extension_blocks: Dict[EventId, InstanceBlock],
    check_infix: bool = True,
) -> bool:
    """Columnar :func:`is_closed`: forward, backward and infix tests on blocks.

    ``node`` is the search node's shared :class:`AlphabetIndex`; the miner
    builds it once per node and the backward and infix checks reuse its
    merged occurrence lists instead of rebuilding per-call alphabet state.
    """
    if forward_closure_violation(extension_blocks, len(block)) is not None:
        return False
    if backward_extension_events_block(encoded_db, index, node, block):
        return False
    if check_infix and infix_closure_violation_block(encoded_db, index, node, block) is not None:
        return False
    return True
