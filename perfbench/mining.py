"""The two mining workloads: ``mine-loops`` and ``mine-quest``.

Both run in the benchmark's own process on the shipped defaults (serial
backend, metrics registry armed).  A run repeats whole cycles until its
time is up and reports medians over them; the output checks run after the
timed cycles.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.positions import PositionIndex
from repro.core.sequence import SequenceDatabase
from repro.datagen.profiles import generate_profile
from repro.ingest import IncrementalMiner, TraceStore
from repro.patterns import ClosedIterativePatternMiner, IterativeMiningConfig
from repro.rules import rule_statistics
from repro.rules.config import RuleMiningConfig
from repro.rules.nonredundant_miner import NonRedundantRecurrentRuleMiner

import inputs
from measure import Clock, RunResult, median, own_peak_rss_mb
from tracer import Tracer

#: ``mine-loops`` shape: a larger cousin of the serving bench corpus.
LOOP_TRACES_PER_FAMILY = 6
LOOP_REPEATS = 12
#: Full mines per cycle (each by a new IncrementalMiner over the store).
LOOP_FULL_MINES = 2
#: One-family batches appended (each followed by a refresh) per cycle, and
#: the traces in each.
LOOP_APPENDS = 3
APPEND_TRACES = 2
#: Absolute s-support, so appends never force a full re-mine.
LOOP_RULES = RuleMiningConfig(
    min_s_support=2, min_confidence=0.5, max_premise_length=2, max_consequent_length=1
)

#: ``mine-quest`` shape: the paper's profile, scaled down.
QUEST_PROFILE = "D5C20N10S20"
QUEST_SCALE = 0.04
QUEST_PATTERNS = IterativeMiningConfig(min_support=0.185)
QUEST_RULES = RuleMiningConfig(
    min_s_support=0.22, min_confidence=0.5, max_premise_length=2, max_consequent_length=2
)

#: Fewest cycles a run measures, however long each one takes.
MIN_CYCLES = 3
#: Set-ups timed per run (the reported ``setup_s`` is their median).
SETUP_SAMPLES = 51
#: ``mine-loops`` times its set-up in fewer, larger samples: one ingest is
#: about 4 ms (event encoding, then five fsyncs), short enough for one slow
#: fsync or one preemption to set a sample.  Each sample ingests the corpus
#: into this many fresh stores and counts their mean.
LOOP_SETUP_SAMPLES = 31
LOOP_SETUP_INGESTS = 8


def loop_shape() -> Dict[str, object]:
    return {
        "families": inputs.FAMILIES,
        "loop_body": inputs.LOOP_BODY,
        "traces_per_family": LOOP_TRACES_PER_FAMILY,
        "repeats": LOOP_REPEATS,
        "full_mines_per_cycle": LOOP_FULL_MINES,
        "appends_per_cycle": LOOP_APPENDS,
        "traces_per_append": APPEND_TRACES,
        "min_s_support": LOOP_RULES.min_s_support,
    }


def quest_shape() -> Dict[str, object]:
    return {
        "profile": QUEST_PROFILE,
        "scale": QUEST_SCALE,
        "pattern_min_support": QUEST_PATTERNS.min_support,
        "rule_min_s_support": QUEST_RULES.min_s_support,
        "max_premise_length": QUEST_RULES.max_premise_length,
        "max_consequent_length": QUEST_RULES.max_consequent_length,
    }


def _rule_rows(rules) -> List[tuple]:
    return [
        (r.premise, r.consequent, r.s_support, r.i_support, r.confidence) for r in rules
    ]


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def ingest_loops(seed: int, directory: Path):
    """Generate the loop corpus and ingest it into a new store."""
    rng = random.Random(seed)
    families = inputs.family_labels(rng)
    corpus = inputs.loop_corpus(families, LOOP_TRACES_PER_FAMILY, LOOP_REPEATS)
    store = TraceStore(directory / "corpus.tracestore")
    store.append_batch(corpus)
    return store, families, rng


def check_refresh(result: RunResult, refreshed, store: TraceStore) -> None:
    """The refreshed rules must equal a from-scratch mine of the store."""
    reference = NonRedundantRecurrentRuleMiner(LOOP_RULES).mine(store.snapshot())
    result.check(
        _rule_rows(refreshed) == _rule_rows(reference.rules),
        "mine-loops: last refresh differs from a from-scratch mine of store.snapshot()",
    )


def run_mine_loops(seed: int, seconds: float, workdir: Path, tracer: Optional[Tracer]) -> RunResult:
    """Ingest, two full mines, then appends each followed by an incremental refresh."""
    result = RunResult()
    setups = Clock()
    for _ in range(LOOP_SETUP_SAMPLES):
        store_dir = Path(tempfile.mkdtemp(prefix="loops-", dir=workdir))
        with setups.measure(per=LOOP_SETUP_INGESTS), _span(tracer, "setup"):
            for ingest in range(LOOP_SETUP_INGESTS):
                ingest_loops(seed, store_dir / str(ingest))
        shutil.rmtree(store_dir)
    fulls = Clock()
    refreshes = Clock()
    remined = roots = 0
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        store_dir = Path(tempfile.mkdtemp(prefix="loops-", dir=workdir))
        store, families, rng = ingest_loops(seed, store_dir)
        events = store.total_events()

        for _ in range(LOOP_FULL_MINES):
            miner = IncrementalMiner(NonRedundantRecurrentRuleMiner(LOOP_RULES), store)
            with fulls.measure(), _span(tracer, "run.full_mine"):
                mined, report = miner.refresh()
            result.attempted += 1
        for family in rng.sample(range(len(families)), LOOP_APPENDS):
            batch = [inputs.loop_trace(families[family], LOOP_REPEATS)] * APPEND_TRACES
            with _span(tracer, "run.append"):
                store.append_batch(batch)
            with refreshes.measure(), _span(tracer, "run.refresh"):
                mined, report = miner.refresh()
            result.attempted += 1  # the append; the refresh counts as a check
            result.check(not report.full_remine, f"refresh re-mined fully: {report.reason}")
            remined += report.roots_remined
            roots += report.roots_total
        cycle += 1
        if cycle >= MIN_CYCLES and time.perf_counter() >= deadline:
            break
        shutil.rmtree(store_dir)
    peak = own_peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()  # spans cover the timed cycles, not the checks

    check_refresh(result, mined.rules, store)
    shutil.rmtree(store_dir)

    full_s = median(fulls.scaled)
    refresh_s = median(refreshes.scaled)
    result.metrics = {
        "setup_s": (median(setups.scaled), "s"),
        "events_per_s": (events / full_s, "1/s"),
        "op_p50_ms": (refresh_s * 1000.0, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    result.detail = {
        "rules_s": (full_s, "s"),
        "refresh_s": (refresh_s, "s"),
        "raw_setup_s": (median(setups.raw), "s"),
        "raw_rules_s": (median(fulls.raw), "s"),
        "raw_refresh_s": (median(refreshes.raw), "s"),
        "cycles": (cycle, "count"),
        "refreshes": (len(refreshes.raw), "count"),
        "rules": (len(mined.rules), "count"),
        "corpus_events": (events, "count"),
    }
    result.layers = {"ingest.roots_remined_ratio": remined / roots}
    return result


def quest_database(seed: int):
    """The scaled profile with seed-chosen event names.

    The profile itself is drawn with its own fixed generator seed; the
    benchmark seed picks a bijective renaming of its events, so every seed
    mines an isomorphic input (same output shape, same work) under names
    the program has not seen.  Returns the encoded database and the
    ``new -> original`` label map.
    """
    base = generate_profile(QUEST_PROFILE, scale=QUEST_SCALE)
    sequences = [list(base[index]) for index in range(len(base))]
    traces, original = inputs.relabel(random.Random(seed), sequences)
    return SequenceDatabase.from_sequences(traces), original


def quest_digest(patterns, rules, original: Dict[str, str]) -> Dict[str, str]:
    """Seed-independent digests of the mined sets, in the original names."""

    def name(events):
        return [original[event] for event in events]

    pattern_rows = sorted((name(p.events), p.support) for p in patterns)
    rule_rows = sorted(
        (name(r.premise), name(r.consequent), r.s_support, r.i_support, repr(r.confidence))
        for r in rules
    )

    def digest(rows) -> str:
        return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()

    return {"patterns": digest(pattern_rows), "rules": digest(rule_rows)}


def check_rule_statistics(database: SequenceDatabase, rules) -> List[str]:
    """Every rule's statistics recomputed by ``rule_statistics``; mismatches."""
    index = PositionIndex(database.encoded)
    vocabulary = database.vocabulary
    wrong = []
    for rule in rules:
        expected = rule_statistics(
            database.encoded,
            index,
            [vocabulary.id_of(event) for event in rule.premise],
            [vocabulary.id_of(event) for event in rule.consequent],
        )
        if expected != (rule.s_support, rule.i_support, rule.confidence):
            wrong.append(f"{rule.premise} -> {rule.consequent}: {expected}")
    return wrong


def check_quest(result: RunResult, database, original, patterns, rules, digests) -> None:
    """Mined sets against the recorded digests; rule statistics against
    ``rule_statistics``."""
    found = quest_digest(patterns, rules, original)
    result.check(
        digests is not None and found == digests,
        f"mine-quest: mined sets digest {found} != recorded {digests}",
    )
    for line in check_rule_statistics(database, rules):
        result.check(False, f"mine-quest: rule statistics differ from rule_statistics: {line}")


def run_mine_quest(
    seed: int, seconds: float, tracer: Optional[Tracer], digests: Optional[Dict[str, str]]
) -> RunResult:
    """Closed-pattern mine then non-redundant rule mine, repeated."""
    result = RunResult()
    setups = Clock()
    for _ in range(SETUP_SAMPLES):
        with setups.measure(), _span(tracer, "setup"):
            database, original = quest_database(seed)
    pattern_times = Clock()
    rule_times = Clock()
    deadline = time.perf_counter() + seconds
    while len(rule_times.raw) < MIN_CYCLES or time.perf_counter() < deadline:
        with pattern_times.measure(), _span(tracer, "run.patterns"):
            patterns = ClosedIterativePatternMiner(QUEST_PATTERNS).mine(database)
        with rule_times.measure(), _span(tracer, "run.rules"):
            rules = NonRedundantRecurrentRuleMiner(QUEST_RULES).mine(database)
        result.attempted += 2
    peak = own_peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    check_quest(result, database, original, patterns.patterns, rules.rules, digests)

    patterns_s = median(pattern_times.scaled)
    rules_s = median(rule_times.scaled)
    result.metrics = {
        "setup_s": (median(setups.scaled), "s"),
        "events_per_s": (database.total_events() / patterns_s, "1/s"),
        "op_p50_ms": (rules_s * 1000.0, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    result.detail = {
        "patterns_s": (patterns_s, "s"),
        "rules_s": (rules_s, "s"),
        "raw_setup_s": (median(setups.raw), "s"),
        "raw_patterns_s": (median(pattern_times.raw), "s"),
        "raw_rules_s": (median(rule_times.raw), "s"),
        "cycles": (len(rule_times.raw), "count"),
        "patterns": (len(patterns.patterns), "count"),
        "rules": (len(rules.rules), "count"),
        "corpus_events": (database.total_events(), "count"),
    }
    stats = patterns.stats
    result.layers = {
        "patterns.nodes": stats.visited,
        "patterns.closed_ratio": stats.emitted / stats.visited,
        "engine.instances_materialized": stats.instances_materialized,
        "engine.shipped_bytes": stats.shipped_bytes,
    }
    return result
