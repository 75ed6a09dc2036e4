"""Checkpoint resume through the engine: interrupted mines finish identical."""

import pickle
from typing import NamedTuple

import pytest

from repro.core.sequence import SequenceDatabase
from repro.core.stats import MiningStats
from repro.durability.checkpoint import JOURNAL_NAME, MiningCheckpoint
from repro.durability.journal import JournalWriter
from repro.engine import resolve_backend, sharding
from repro.obs.metrics import DURABILITY_RESUMED_TOTAL, ENGINE_UNITS_TOTAL, REGISTRY
from repro.jboss.workloads import generate_security_traces
from repro.patterns.closed_miner import ClosedIterativePatternMiner
from repro.patterns.config import IterativeMiningConfig
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner
from repro.testing import faults

IDENTITY = {"database": "test-db", "miner": "M", "config": "M()"}


def pattern_miner():
    return ClosedIterativePatternMiner(IterativeMiningConfig(min_support=2.0))


def pattern_database():
    """Eight distinct roots, all frequent: enough planned units that a
    fault at journal entry 3 interrupts a genuinely unfinished mine."""
    sequences = [
        [f"e{i}", f"e{(i + 1) % 8}", f"e{(i + 2) % 8}"] for i in range(8)
    ] * 2
    return SequenceDatabase.from_sequences(sequences)


def interrupted_then_resumed(tmp_path, database, make_miner, backend_name):
    """Kill a mine at the Nth journal append, resume, return both results."""
    cold = make_miner().mine(database, backend=resolve_backend(backend_name, 1, None))

    ckpt_dir = tmp_path / "ckpt"
    backend = resolve_backend(backend_name, 1, None)
    backend.checkpoint = MiningCheckpoint(ckpt_dir, IDENTITY)
    faults.install("checkpoint.append", "raise", key="3")
    try:
        with pytest.raises(faults.FaultInjected):
            make_miner().mine(database, backend=backend)
    finally:
        faults.reset()
        backend.checkpoint.close()

    resumed_backend = resolve_backend(backend_name, 1, None)
    resumed_backend.checkpoint = MiningCheckpoint(ckpt_dir, IDENTITY)
    result = make_miner().mine(database, backend=resumed_backend)
    resumed_backend.checkpoint.close()
    return cold, result


def test_stealing_resume_is_identical_and_cheaper(tmp_path):
    database = pattern_database()
    cold, resumed = interrupted_then_resumed(
        tmp_path, database, pattern_miner, "stealing"
    )
    assert resumed.as_rows() == cold.as_rows()
    # At least the units journaled before the injected crash were reused,
    # so strictly fewer units were re-mined than a cold start runs.
    assert resumed.stats.extra.get("units_resumed", 0) >= 3
    # Cached outcomes carry their original counters, so merged stats stay
    # identical to an uninterrupted run — part of the byte-identity story.
    assert resumed.stats.visited == cold.stats.visited


def test_rule_mining_resume_is_identical(tmp_path):
    database = generate_security_traces()
    config = RuleMiningConfig(
        min_s_support=0.5,
        min_confidence=0.6,
        max_premise_length=1,
        max_consequent_length=2,
    )
    cold, resumed = interrupted_then_resumed(
        tmp_path,
        database,
        lambda: NonRedundantRecurrentRuleMiner(config),
        "stealing",
    )
    assert resumed.as_rows() == cold.as_rows()
    assert resumed.stats.extra.get("units_resumed", 0) >= 3


def test_completed_checkpoint_resumes_everything(tmp_path):
    database = pattern_database()
    backend = resolve_backend("stealing", 1, None)
    backend.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
    first = pattern_miner().mine(database, backend=backend)
    backend.checkpoint.close()

    again = resolve_backend("stealing", 1, None)
    again.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
    second = pattern_miner().mine(database, backend=again)
    again.checkpoint.close()
    assert second.as_rows() == first.as_rows()
    # Every planned unit came from the journal; nothing was re-mined.
    assert second.stats.extra.get("units_resumed", 0) >= 1
    assert second.stats.visited == first.stats.visited


def test_resumed_units_are_not_counted_as_executed(tmp_path):
    """Journaled outcomes bring their records and counters, not the metric
    deltas of the run that executed them."""
    database = pattern_database()
    for _ in range(2):
        REGISTRY.reset()
        backend = resolve_backend("serial", None, None)
        backend.checkpoint = MiningCheckpoint(tmp_path / "ckpt", IDENTITY)
        result = pattern_miner().mine(database, backend=backend)
        backend.checkpoint.close()
    assert result.stats.extra["units_resumed"] == 8
    assert DURABILITY_RESUMED_TOTAL.value(kind="unit") == 8
    assert not REGISTRY.snapshot()[ENGINE_UNITS_TOTAL.name]["samples"]


def test_serial_backend_resumes_units(tmp_path):
    database = pattern_database()
    cold, resumed = interrupted_then_resumed(tmp_path, database, pattern_miner, "serial")
    assert resumed.as_rows() == cold.as_rows()
    assert resumed.stats.extra.get("units_resumed", 0) >= 1
    assert resumed.stats.visited == cold.stats.visited


class ShardOutcome(NamedTuple):
    """Stand-in with the field layout of the retired static-shard outcome."""

    shard_index: int
    root_results: tuple
    stats: MiningStats
    metrics: object = None
    spans: object = None


def legacy_shard_frame(monkeypatch, roots):
    """A ``shard`` journal frame as the retired static-shard backend wrote it.

    The payload names ``repro.engine.sharding.ShardOutcome``, which no longer
    exists, exactly like a frame left on disk by that backend.
    """
    ShardOutcome.__module__ = sharding.__name__
    with monkeypatch.context() as patch:
        patch.setattr(sharding, "ShardOutcome", ShardOutcome, raising=False)
        payload = pickle.dumps(
            ("shard", tuple(roots), ShardOutcome(0, (), MiningStats())),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    with pytest.raises(AttributeError):
        pickle.loads(payload)
    return payload


def test_legacy_shard_frames_are_skipped_and_remined(tmp_path, monkeypatch):
    database = pattern_database()
    cold = pattern_miner().mine(database)
    ckpt_dir = tmp_path / "ckpt"
    MiningCheckpoint(ckpt_dir, IDENTITY).close()
    journal = JournalWriter(ckpt_dir / JOURNAL_NAME)
    journal.append(legacy_shard_frame(monkeypatch, range(8)))
    # A shard frame whose payload still loads is skipped by its kind.
    journal.append(pickle.dumps(("shard", (0, 1), "outcome")))
    journal.close()

    backend = resolve_backend("serial", None, None)
    backend.checkpoint = MiningCheckpoint(ckpt_dir, IDENTITY)
    result = pattern_miner().mine(database, backend=backend)
    backend.checkpoint.close()
    assert result.as_rows() == cold.as_rows()
    assert result.stats.visited == cold.stats.visited
    assert "units_resumed" not in result.stats.extra

    # The re-mined units were journaled next to the skipped frames.
    again = resolve_backend("serial", None, None)
    again.checkpoint = MiningCheckpoint(ckpt_dir, IDENTITY)
    resumed = pattern_miner().mine(database, backend=again)
    again.checkpoint.close()
    assert resumed.as_rows() == cold.as_rows()
    assert resumed.stats.extra["units_resumed"] == 8
