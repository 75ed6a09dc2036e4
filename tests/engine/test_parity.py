"""Serial vs. parallel parity: the engine must not change mining results.

The contract of the engine is that the execution backend is invisible in
the output: patterns and rules come back bit-identical — same elements,
same order, same supports and instances — whatever the backend.  The
hypothesis tests drive randomized databases through the serial reference,
a serial backend that runs its work units in a shuffled order (the
plan/merge path under an arbitrary completion order, in process on every
example) and, more sparingly, the multi-process work-stealing pool with
default and with eager splitting.
"""

from hypothesis import given, settings, strategies as st

from repro.core.sequence import SequenceDatabase
from repro.patterns.closed_miner import mine_closed_patterns
from repro.patterns.full_miner import mine_frequent_patterns
from repro.rules.full_miner import mine_all_rules
from repro.rules.nonredundant_miner import mine_non_redundant_rules

from .backends import ShuffledBackend, pool_backends

sequences_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=4).map(str), min_size=1, max_size=14),
    min_size=1,
    max_size=5,
)


def _database(sequences):
    return SequenceDatabase.from_sequences(sequences)


# --------------------------------------------------------------------- #
# Shuffled unit order in process: cheap enough to run on every example.
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_sharded_pattern_mining_matches_serial(sequences, seed):
    db = _database(sequences)
    sharded = ShuffledBackend(seed)
    for miner in (mine_closed_patterns, mine_frequent_patterns):
        serial = miner(db, min_support=2)
        parallel_path = miner(db, min_support=2, backend=sharded)
        assert serial.patterns == parallel_path.patterns
        assert serial.min_support == parallel_path.min_support


@given(sequences=sequences_strategy, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_sharded_rule_mining_matches_serial(sequences, seed):
    db = _database(sequences)
    sharded = ShuffledBackend(seed)
    for miner in (mine_all_rules, mine_non_redundant_rules):
        serial = miner(db, min_s_support=2, min_confidence=0.5)
        parallel_path = miner(db, min_s_support=2, min_confidence=0.5, backend=sharded)
        assert serial.rules == parallel_path.rules


@given(sequences=sequences_strategy, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_sharded_search_counters_match_serial(sequences, seed):
    """Unit order only reorders the search; it must visit and prune the same nodes."""
    db = _database(sequences)
    serial = mine_closed_patterns(db, min_support=2)
    sharded = mine_closed_patterns(db, min_support=2, backend=ShuffledBackend(seed))
    for counter in ("visited", "emitted", "pruned_support", "pruned_closure"):
        assert getattr(serial.stats, counter) == getattr(sharded.stats, counter)


# --------------------------------------------------------------------- #
# Real worker processes: fewer examples (each one forks worker processes).
# --------------------------------------------------------------------- #
@given(sequences=sequences_strategy)
@settings(max_examples=5, deadline=None)
def test_process_pool_pattern_mining_matches_serial(sequences):
    db = _database(sequences)
    serial = mine_closed_patterns(db, min_support=2)
    for pool in pool_backends():
        parallel = mine_closed_patterns(db, min_support=2, backend=pool)
        assert serial.patterns == parallel.patterns


@given(sequences=sequences_strategy)
@settings(max_examples=5, deadline=None)
def test_process_pool_rule_mining_matches_serial(sequences):
    db = _database(sequences)
    serial = mine_non_redundant_rules(db, min_s_support=1, min_confidence=0.5)
    for pool in pool_backends():
        parallel = mine_non_redundant_rules(
            db, min_s_support=1, min_confidence=0.5, backend=pool
        )
        assert serial.rules == parallel.rules


# --------------------------------------------------------------------- #
# Deterministic fixture-based checks (always run, no randomness).
# --------------------------------------------------------------------- #
def test_process_pool_parity_on_lock_database(lock_database):
    serial_patterns = mine_closed_patterns(lock_database, min_support=2)
    serial_rules = mine_non_redundant_rules(lock_database, min_s_support=2, min_confidence=0.5)
    assert serial_patterns.patterns  # non-vacuous
    assert serial_rules.rules  # non-vacuous
    for pool in pool_backends():
        pooled_patterns = mine_closed_patterns(lock_database, min_support=2, backend=pool)
        assert serial_patterns.patterns == pooled_patterns.patterns
        pooled_rules = mine_non_redundant_rules(
            lock_database, min_s_support=2, min_confidence=0.5, backend=pool
        )
        assert serial_rules.rules == pooled_rules.rules


def test_instances_survive_the_parallel_path(abc_database):
    serial = mine_closed_patterns(abc_database, min_support=2, collect_instances=True)
    for pool in pool_backends():
        parallel = mine_closed_patterns(
            abc_database, min_support=2, collect_instances=True, backend=pool
        )
        assert len(serial.patterns) == len(parallel.patterns)
        for left, right in zip(serial.patterns, parallel.patterns):
            assert left.instances == right.instances
            assert left.instances


def test_allowed_premise_events_cross_the_process_boundary(lock_database):
    kwargs = dict(
        min_s_support=2,
        min_confidence=0.5,
        allowed_premise_events=frozenset({"lock"}),
    )
    serial = mine_non_redundant_rules(lock_database, **kwargs)
    assert all(set(rule.premise) == {"lock"} for rule in serial.rules)
    for pool in pool_backends():
        parallel = mine_non_redundant_rules(lock_database, backend=pool, **kwargs)
        assert serial.rules == parallel.rules


def test_repeated_parallel_runs_are_deterministic(abc_database):
    for pool in pool_backends():
        runs = [
            mine_closed_patterns(abc_database, min_support=2, backend=pool).patterns
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]
