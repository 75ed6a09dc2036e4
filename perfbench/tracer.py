"""In-memory span recording around calls into the system's layers.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call: ``(id, parent, name, start, end, request, thread, wall)``.
The parent is the innermost span still open on the same thread, so nesting
follows the call stack.  Nothing under ``src/`` is edited: wrappers are
installed on the imported objects at run time and removed by
:meth:`Tracer.uninstall`.  Measured runs never install them.

A layer's *self time* is its span's duration minus the time covered by its
child spans (:func:`layer_totals`).  Mining runs in one thread and is timed
with ``time.perf_counter``; the server's layers run in several threads that
share the interpreter lock, so its tracer uses ``time.thread_time``.
``wall`` is the ``time.perf_counter`` reading at the span's end whatever the
clock, so spans from several processes can be placed in one time window.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(span_id, parent_id, name, start, end, request, thread, wall)``; parent 0 = root.
Span = Tuple[int, int, str, float, float, Optional[str], int, float]
_FIELDS = ("id", "parent", "name", "start", "end", "request", "thread", "wall")


class _Stack(threading.local):
    def __init__(self) -> None:
        self.ids: List[int] = []


class Tracer:
    """Records spans and counters; install wrappers with :meth:`wrap`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Named totals that are not durations (bytes, rules compiled, ...).
        self.totals: Counter = Counter()
        self._ids = itertools.count(1)
        self._stack = _Stack()
        self._undo: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """Record a span around a block of the benchmark's own code."""
        stack = self._stack.ids
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, request, threading.get_ident(),
                 time.perf_counter())
            )

    def add_span(self, name: str, start: float, end: float, request: Optional[str]) -> None:
        """Record a root span measured by the caller (e.g. a queue wait)."""
        self.spans.append(
            (next(self._ids), 0, name, start, end, request, threading.get_ident(),
             time.perf_counter())
        )

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        request: Optional[Callable[..., Optional[str]]] = None,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
        materialize: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request(*args)`` names the request a call serves; ``before(*args)``
        runs just before the span opens and ``after(result, *args)`` just
        after it closes, both outside the timed interval.  ``materialize``
        drains a returned iterator inside the span, so a generator's work
        is timed where it is consumed.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        binder: Optional[type] = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            binder = type(raw)
            func = raw.__func__
        clock = self.clock
        spans = self.spans
        ids = self._ids
        stack_holder = self._stack
        get_ident = threading.get_ident
        wall_clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            stack = stack_holder.ids
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        request(*args) if request is not None else None,
                        get_ident(),
                        wall_clock(),
                    )
                )
            if after is not None:
                after(result, *args)
            return iter(result) if materialize else result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        setattr(owner, attr, binder(wrapper) if binder is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def count(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls.

        For calls too frequent and too short to span one by one; the time
        they take stays inside the enclosing span's self time.
        """
        raw = getattr(owner, attr)
        totals = self.totals

        def counter(*args, **kwargs):
            totals[name] += 1
            return raw(*args, **kwargs)

        setattr(owner, attr, counter)
        self._undo.append((owner, attr, raw))

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value``, restored by :meth:`uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(_FIELDS, span)), separators=(",", ":")) + "\n")


def read_jsonl(path: str) -> List[Span]:
    """Load spans written by :meth:`Tracer.write_jsonl`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)[key] for key in _FIELDS) for line in handle]


def within(spans: Iterable[Span], first: float, last: float) -> List[Span]:
    """The spans that ended (``wall``) inside ``[first, last]``."""
    return [span for span in spans if first <= span[7] <= last]


def layer_totals(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """``name -> (self seconds, calls)``: duration minus child-span time."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[1]:
            child_time[span[1]] = child_time.get(span[1], 0.0) + (span[4] - span[3])
    totals: Dict[str, List[float]] = {}
    for span in spans:
        slot = totals.setdefault(span[2], [0.0, 0])
        slot[0] += (span[4] - span[3]) - child_time.get(span[0], 0.0)
        slot[1] += 1
    return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}


def root_coverage(spans: Iterable[Span], root_prefix: str) -> Tuple[float, float]:
    """``(root seconds, seconds covered by child spans)`` over roots named
    ``root_prefix*`` — how much of the end-to-end time the layers explain."""
    spans = list(spans)
    roots = {span[0]: span[4] - span[3] for span in spans if span[2].startswith(root_prefix)}
    covered = sum(span[4] - span[3] for span in spans if span[1] in roots)
    return sum(roots.values()), covered
