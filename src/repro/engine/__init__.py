"""Parallel mining engine: one work-unit pipeline on pluggable backends.

The engine splits a miner's depth-first search into work units — one per
independent first-level root (singleton pattern, single-event premise),
plus whatever the work-stealing backend carves out of a hot subtree — runs
them on an :class:`ExecutionBackend`, and merges the unit outputs
deterministically so that parallel results are bit-identical to the serial
ones.  See :mod:`repro.engine.sharding` for the unit types and the ordering
argument, :mod:`repro.engine.runner` for the miner protocol and
:mod:`repro.engine.backend` for the pipeline.

Typical use::

    from repro import SequenceDatabase, mine_closed_patterns
    from repro.engine import WorkStealingBackend

    result = mine_closed_patterns(db, min_support=3,
                                  backend=WorkStealingBackend(workers=4))
"""

from .backend import (
    BACKEND_CHOICES,
    ExecutionBackend,
    SerialBackend,
    merge_outcomes,
    resolve_backend,
)
from .runner import LazyIndexContext, ShardRunner, plan_weighted_roots
from .sharding import (
    NULL_SPLITTER,
    NullSplitter,
    PlanResult,
    UnitOutcome,
    WorkUnit,
)
from .stealing import (
    DEFAULT_SPLIT_DEPTH,
    StealSplitter,
    WorkStealingBackend,
)

__all__ = [
    "BACKEND_CHOICES",
    "ExecutionBackend",
    "SerialBackend",
    "WorkStealingBackend",
    "resolve_backend",
    "LazyIndexContext",
    "ShardRunner",
    "plan_weighted_roots",
    "PlanResult",
    "UnitOutcome",
    "WorkUnit",
    "merge_outcomes",
    "DEFAULT_SPLIT_DEPTH",
    "NULL_SPLITTER",
    "NullSplitter",
    "StealSplitter",
]
