"""Seeded input generators for the workloads.

The seed chooses the event names, which family each session or appended
batch uses, and which sessions end without their commit — but never how
much work the input holds.  Corpus structure and trace order are fixed:
the miners' closure and growth tests exit early on the first witness they
meet, so the order of the traces alone moves a mine's time by up to half
(measured on ``mine-quest``).  Fixed order keeps the run-to-run spread of
the timings down to the machine's own noise.
"""

from __future__ import annotations

import random
import string
from typing import Dict, Iterator, List, Tuple

#: Loop-structured protocol traces (``mine-loops`` and the served rules):
#: families of repeated bodies closed by a commit event.
FAMILIES = 8
LOOP_BODY = 5


def family_labels(rng: random.Random, families: int = FAMILIES) -> List[List[str]]:
    """Per family: ``LOOP_BODY`` body labels then the commit label.

    Labels have a fixed width so serialised sizes do not depend on the seed.
    """
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    numbers = list(range(families))
    rng.shuffle(numbers)
    labels = []
    for family in numbers:
        body = [f"{prefix}{family:02d}.e{step}" for step in range(LOOP_BODY)]
        labels.append(body + [f"{prefix}{family:02d}.commit"])
    return labels


def loop_trace(labels: List[str], repeats: int, commit: bool = True) -> List[str]:
    """``repeats`` loop bodies, then the commit unless ``commit`` is false."""
    return labels[:LOOP_BODY] * repeats + ([labels[LOOP_BODY]] if commit else [])


def loop_corpus(
    families: List[List[str]], traces_per_family: int, repeats: int
) -> List[List[str]]:
    """``traces_per_family`` committed loop traces per family, family by family."""
    return [loop_trace(labels, repeats) for labels in families for _ in range(traces_per_family)]


def relabel(
    rng: random.Random, sequences: List[List[str]]
) -> Tuple[List[List[str]], Dict[str, str]]:
    """Rename events by a seeded bijection of the label set, keeping the
    trace order; returns the new traces and the ``new -> original`` map."""
    labels = sorted({event for sequence in sequences for event in sequence})
    renamed = labels[:]
    rng.shuffle(renamed)
    forward = dict(zip(labels, renamed))
    traces = [[forward[event] for event in sequence] for sequence in sequences]
    return traces, {new: old for old, new in forward.items()}


def session_stream(
    rng: random.Random,
    families: List[List[str]],
    repeats: int,
    batch_bodies: int,
    violate_every: int,
) -> Iterator[List[List[str]]]:
    """Endless sessions, each a list of event batches.

    A session loops one family's body ``repeats`` times, sent
    ``batch_bodies`` bodies per batch; its last batch carries the commit.
    In every block of ``violate_every`` sessions exactly one, chosen by the
    seed, violates rules: it ends without its commit.
    """
    step = batch_bodies * LOOP_BODY
    body_events = repeats * LOOP_BODY
    index = 0
    while True:
        if index % violate_every == 0:
            violator = index + rng.randrange(violate_every)
        labels = families[rng.randrange(len(families))]
        events = loop_trace(labels, repeats, commit=index != violator)
        batches = [events[start : start + step] for start in range(0, body_events, step)]
        batches[-1] = batches[-1] + events[body_events:]
        yield batches
        index += 1
