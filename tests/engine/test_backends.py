"""Unit tests for the execution backends and the deterministic unit plan/merge."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.sequence import SequenceDatabase
from repro.core.stats import MiningStats
from repro.engine import (
    SerialBackend,
    ShardRunner,
    UnitOutcome,
    WorkStealingBackend,
    WorkUnit,
    merge_outcomes,
    resolve_backend,
)
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.patterns.miner_base import PatternRecord


def _plan(sequences, min_support=2):
    database = SequenceDatabase.from_sequences(sequences)
    miner = ClosedIterativePatternMiner(IterativeMiningConfig(min_support=min_support))
    return ShardRunner(miner, database.encoded).plan_units()


class TestPlanShards:
    """The plan of what ``ShardRunner.run_shard`` executes: one unit per frequent root."""

    def test_empty_roots_yield_no_shards(self):
        units, pruned = _plan([["a"], ["b"]])
        assert units == []
        assert pruned == 2

    def test_every_root_assigned_exactly_once(self):
        sequences = [[str(event % 7) for event in range(seed, seed + 12)] for seed in range(6)]
        units, _ = _plan(sequences)
        roots = [unit.root for unit in units]
        assert sorted(roots) == sorted(set(roots))
        assert [unit.path for unit in units] == [(root,) for root in roots]

    def test_never_more_shards_than_roots(self):
        units, pruned = _plan([["a", "b", "c"], ["a", "b"], ["c"]])
        assert len(units) == 3 and pruned == 0

    def test_deterministic_for_same_input(self):
        sequences = [["a", "b", "a", "c"], ["b", "c", "b"], ["a", "c"]]
        assert _plan(sequences) == _plan([list(sequence) for sequence in sequences])

    def test_heavy_roots_spread_across_shards(self):
        # Every root is its own unit, in root order, weighted by its instance
        # count: two heavy roots never share one.
        units, _ = _plan([["a", "a", "a", "b", "b", "b", "c"], ["a", "b", "c"]])
        assert [(unit.root, unit.cost_hint) for unit in units] == [(0, 4), (1, 4), (2, 2)]


class TestMergeOutcomes:
    class _Runner:
        def resolve_units(self, outcomes):
            records = [record for outcome in outcomes for record in outcome.records]
            return sorted(records, key=lambda record: record.pattern)

    def _outcome(self, root, visited=0):
        stats = MiningStats()
        stats.visited = visited
        records = tuple(PatternRecord((root, tail), 2, None) for tail in range(2))
        return UnitOutcome(WorkUnit("grow", root, (root,)), records, stats)

    def test_records_ordered_by_root_regardless_of_shard_order(self):
        outcomes = [self._outcome(root) for root in (3, 5, 0, 4, 1)]
        records, _ = merge_outcomes(self._Runner(), outcomes)
        assert [record.pattern for record in records] == [
            (root, tail) for root in (0, 1, 3, 4, 5) for tail in range(2)
        ]
        # Order must not depend on completion order either.
        shuffled, _ = merge_outcomes(self._Runner(), list(reversed(outcomes)))
        assert shuffled == records

    def test_stats_counters_are_summed(self):
        _, stats = merge_outcomes(
            self._Runner(), [self._outcome(0, visited=3), self._outcome(1, visited=4)]
        )
        assert stats.visited == 7


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(), SerialBackend)
        assert isinstance(resolve_backend("auto"), SerialBackend)
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)

    def test_auto_with_workers_is_stealing(self):
        backend = resolve_backend(None, workers=4)
        assert isinstance(backend, WorkStealingBackend)
        assert backend.workers == 4

    def test_explicit_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("stealing", workers=2), WorkStealingBackend)

    def test_unknown_name_rejected(self):
        for name in ("threads", "process"):
            with pytest.raises(ConfigurationError):
                resolve_backend(name)

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkStealingBackend(workers=0)
        with pytest.raises(ConfigurationError):
            resolve_backend("serial", workers=2)
