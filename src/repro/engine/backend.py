"""Execution backends: where and how the mining search actually runs.

Every backend executes the same thing — the
:class:`~repro.engine.sharding.WorkUnit` values a
:class:`~repro.engine.runner.ShardRunner` plans — through one pipeline,
:meth:`ExecutionBackend.execute`: plan the units, drop those a checkpoint
journal already holds, run the rest, and fold every outcome with
:func:`merge_outcomes`.  Backends differ only in
:meth:`~ExecutionBackend.run_units`:

* :class:`SerialBackend` — run every unit in the current process, in root
  order, without splitting.  This is the default and the reference
  semantics: exactly the single-pass depth-first search.
* :class:`~repro.engine.stealing.WorkStealingBackend` (its own module) —
  the one multi-process backend: workers pull units from a shared queue
  and split hot subtrees into new units when the pool runs hungry.

Because the merge is deterministic — each record carries its own
search-tree key and the miners' ``resolve_units`` sorts by it — every
backend produces bit-identical mining results; parallelism only changes
wall-clock time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.stats import MiningStats
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .runner import ShardRunner
from .sharding import NULL_SPLITTER, UnitOutcome, WorkUnit


def merge_outcomes(
    runner: ShardRunner, outcomes: List[UnitOutcome]
) -> Tuple[List[Any], MiningStats]:
    """Fold unit outcomes into canonical records and summed counters.

    Search counters are summed across units; wall-clock time is
    deliberately *not* summed (the caller times the whole run — summing
    per-worker clocks would double-count overlapping work).  The metric
    deltas and trace spans the units shipped are folded into this
    process's registry and collector, and ``resolve_units`` reassembles
    the serial record order from any set of outcomes that tiles the search
    space, in any order.
    """
    stats = MiningStats()
    for outcome in outcomes:
        stats.merge_counters(outcome.stats)
    obs_metrics.merge_outcome_metrics(outcomes)
    tracing.absorb_outcome_spans(outcomes)
    return runner.resolve_units(outcomes), stats


def run_units_in_process(
    runner: ShardRunner,
    units: List[WorkUnit],
    checkpoint: Any,
    splitter_for: Callable[[Callable[[List[WorkUnit]], None]], Any],
) -> List[UnitOutcome]:
    """Run units on a local deque in the current process.

    ``splitter_for(submit)`` builds the splitting policy for one unit;
    ``submit`` queues the units it splits off behind the rest.  With the
    null policy nothing ever splits, which is the serial search.
    """
    runner.setup()
    pending = deque(units)
    outcomes: List[UnitOutcome] = []
    while pending:
        unit = pending.popleft()

        def submit(spawned: List[WorkUnit], parent: WorkUnit = unit) -> None:
            pending.extend(spawned)
            if checkpoint is not None:
                checkpoint.record_spawn(parent, spawned)

        outcome = runner.run_shard(unit, splitter_for(submit))
        if checkpoint is not None:
            checkpoint.record_unit(unit, outcome)
        outcomes.append(outcome)
    return outcomes


class ExecutionBackend:
    """Strategy interface for executing a miner's root-parallel search.

    ``execute`` owns the whole plan → resume → run → merge pipeline;
    subclasses only decide how the pending units run
    (:meth:`run_units`).
    """

    name = "abstract"

    #: Optional :class:`~repro.durability.checkpoint.MiningCheckpoint`.
    #: When set, every completed work unit is journaled as it lands, and
    #: ``execute`` reuses the outcomes already journaled by a previous
    #: (crashed) run instead of re-mining them.  Soundness: outcomes are
    #: pure functions of the database and configuration the checkpoint
    #: identity pins, and the merge is deterministic, so a resumed run is
    #: byte-identical to an uninterrupted one.
    checkpoint = None

    def execute(self, runner: ShardRunner) -> Tuple[List[Any], MiningStats]:
        """Run the whole pipeline and publish the run's observability data.

        Returns the mined records in canonical serial order together with
        the summed search counters (including root-level support pruning
        from the planning step).  This wrapper owns the single per-run
        touch point with :mod:`repro.obs` — the span around the run and
        the one-shot mirror of the final merged ``MiningStats`` onto
        registry counters.  Mirroring here, after all per-unit stats
        merged, is what keeps the registry free of double counting on any
        backend.
        """
        with tracing.span("engine.execute", backend=self.name):
            records, stats = self._execute(runner)
        obs_metrics.record_mining_stats(stats, self.name)
        return records, stats

    def _execute(self, runner: ShardRunner) -> Tuple[List[Any], MiningStats]:
        """Plan, resume, run and merge the units; return (records, counters)."""
        units, pruned_support = runner.plan_units()
        cached: List[UnitOutcome] = []
        if units and self.checkpoint is not None:
            # Unit outcomes are plan-independent, so whatever a previous
            # (crashed) run journaled under the same identity is reusable
            # even when this run plans differently; only the rest runs.
            cached, units = self.checkpoint.plan_resume(units)
            # The run that executed them recorded their metric deltas and
            # spans; this run reuses only their records and counters.
            cached = [outcome._replace(metrics=None, spans=None) for outcome in cached]
        counters = MiningStats()
        outcomes = self.run_units(runner, units, counters) if units else []
        # Called through the module global: perfbench's traced split wraps
        # ``merge_outcomes`` by name.
        records, stats = merge_outcomes(runner, cached + outcomes)
        stats.merge_counters(counters)
        stats.pruned_support += pruned_support
        if cached:
            stats.bump("units_resumed", len(cached))
        return records, stats

    def run_units(
        self, runner: ShardRunner, units: List[WorkUnit], counters: MiningStats
    ) -> List[UnitOutcome]:
        """Execute ``units`` (and whatever they split into); return outcomes.

        Outcomes may come back in any order.  ``counters`` collects the
        backend's own bookkeeping (retries, lost workers) for the run's
        stats.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable form used by the CLI and benchmarks."""
        return self.name


class SerialBackend(ExecutionBackend):
    """Run every unit in process, in root order, without splitting."""

    name = "serial"

    def run_units(
        self, runner: ShardRunner, units: List[WorkUnit], counters: MiningStats
    ) -> List[UnitOutcome]:
        return run_units_in_process(
            runner, units, self.checkpoint, lambda submit: NULL_SPLITTER
        )


def resolve_backend(
    name: Optional[str] = None,
    workers: Optional[int] = None,
    split_depth: Optional[int] = None,
) -> ExecutionBackend:
    """Build a backend from CLI-style ``--backend`` / ``--workers`` values.

    ``name=None`` (or ``"auto"``) picks the work-stealing backend whenever
    more than one worker is requested and the serial backend otherwise, so
    plain ``--workers 4`` is enough to go parallel.  Asking for the serial
    backend *and* multiple workers is contradictory and rejected rather
    than silently ignoring the worker count; likewise ``split_depth`` only
    means something to the work-stealing backend.
    """
    # Imported here: stealing builds on this module's ExecutionBackend.
    from .stealing import DEFAULT_SPLIT_DEPTH, WorkStealingBackend

    if name is None or name == "auto":
        name = "stealing" if workers is not None and workers > 1 else "serial"
    if name == "stealing":
        return WorkStealingBackend(
            workers=workers,
            split_depth=split_depth if split_depth is not None else DEFAULT_SPLIT_DEPTH,
        )
    if name == "serial":
        if workers is not None and workers > 1:
            raise ConfigurationError(
                f"the serial backend runs one process; drop --workers {workers} "
                "or use the 'stealing' backend"
            )
        if split_depth is not None:
            raise ConfigurationError(
                "--split-depth only applies to the 'stealing' backend "
                "(or 'auto' with --workers > 1), not 'serial'"
            )
        return SerialBackend()
    raise ConfigurationError(
        f"unknown execution backend {name!r} (expected 'serial', 'stealing' or 'auto')"
    )


#: Backend names accepted by :func:`resolve_backend` (CLI choices).
BACKEND_CHOICES = ("auto", "serial", "stealing")
