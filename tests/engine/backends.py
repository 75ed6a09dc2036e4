"""Backends the engine test suites share.

``ShuffledBackend`` runs the serial backend's work units in a seeded
random order: the multi-process backend completes units in whatever order
its workers finish them, and this reproduces an arbitrary order in
process, cheaply enough for every hypothesis example.  ``pool_backends``
is the multi-process backend every parity suite runs against.
"""

import random

from repro.engine import SerialBackend, WorkStealingBackend


class ShuffledBackend(SerialBackend):
    """The serial backend, running its work units in a seeded random order."""

    def __init__(self, seed):
        self.seed = seed

    def run_units(self, runner, units, counters):
        units = list(units)
        random.Random(self.seed).shuffle(units)
        return super().run_units(runner, units, counters)


def pool_backends():
    """The multi-process backend at two workers, default and eager splitting."""
    return (
        WorkStealingBackend(workers=2),
        WorkStealingBackend(workers=2, eager_split=True, split_depth=4),
    )
