"""Deterministic fault injection for crash-recovery tests.

The fault-tolerance layer (worker replay in the engine, shard supervision
in the serving plane, backoff in the watch daemon) is only trustworthy if
its failure paths run under test, and real crashes are not reproducible.
This module gives production code named *fault points*::

    from ..testing import faults
    ...
    if faults.ACTIVE is not None:
        faults.trigger("engine.unit", key=f"{unit.kind}:{unit.root}")

A fault point is free when nothing is installed (one module-attribute
check) and does nothing unless an installed rule matches its site (and
key, if the rule pins one).  Rules specify an *action*:

``kill``
    ``SIGKILL`` the calling process (after ``value`` seconds if given) —
    simulates an OOM-killed or segfaulted worker.
``exit``
    ``os._exit(value or 1)`` — a worker that dies without unwinding.
``raise``
    raise :class:`FaultInjected` — an unexpected exception inside a work
    unit, a pool shard or a handler.
``drop``
    raise :class:`FaultInjected` flagged as a connection drop — the
    server's frame loop turns it into an abrupt close.
``enospc``
    raise ``OSError(ENOSPC)`` — a full disk during a store append.
``sleep``
    stall for ``value`` seconds — a straggler for deadline tests.

Rules fire a bounded number of times (``count``).  Because engine workers
are separate *processes*, in-memory counters would be copied at fork time
and each worker would fire independently; bounded rules therefore claim
fires through ``O_CREAT | O_EXCL`` token files in a shared directory,
which is atomic across processes.  :func:`install` creates a temporary
token directory automatically, so tests on a fork-based platform need
nothing beyond ``install(...)`` / ``reset()``.

For spawned processes (no inherited module state) the plan can instead be
carried in the environment: ``REPRO_FAULTS_SPEC`` holds a spec string
like ``"engine.unit:kill:key=grow-3:count=2;store.append:enospc"`` and
``REPRO_FAULTS_DIR`` the token directory.  ``REPRO_FAULTS=1`` on its own
carries no plan — it is the opt-in flag the chaos CI job sets to enable
the heavier scenarios in ``tests/faults/``.
"""

from __future__ import annotations

import errno
import os
import shutil
import signal
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

ENV_SPEC = "REPRO_FAULTS_SPEC"
ENV_TOKEN_DIR = "REPRO_FAULTS_DIR"
ENV_ENABLE = "REPRO_FAULTS"

_ACTIONS = ("kill", "exit", "raise", "drop", "enospc", "sleep")


class FaultInjected(RuntimeError):
    """Raised by ``raise``/``drop`` fault rules.

    Deliberately *not* a :class:`~repro.core.errors.ReproError`: injected
    faults model unexpected failures, so they must not be absorbed by
    handlers that treat library errors as expected conditions.
    """

    def __init__(self, message: str, *, drop_connection: bool = False) -> None:
        super().__init__(message)
        self.drop_connection = drop_connection


class FaultRule:
    """One ``site → action`` rule with an optional key filter and budget."""

    __slots__ = ("site", "action", "key", "count", "value", "index", "_fired", "_lock")

    def __init__(
        self,
        site: str,
        action: str,
        *,
        key: Optional[str] = None,
        count: Optional[int] = None,
        value: Optional[float] = None,
        index: int = 0,
    ) -> None:
        if action not in _ACTIONS:
            raise ValueError(f"unknown fault action {action!r} (expected one of {_ACTIONS})")
        self.site = site
        self.action = action
        self.key = key
        self.count = count
        self.value = value
        self.index = index
        self._fired = 0
        self._lock = threading.Lock()

    def spec(self) -> str:
        parts = [self.site, self.action]
        if self.key is not None:
            parts.append(f"key={self.key}")
        if self.count is not None:
            parts.append(f"count={self.count}")
        if self.value is not None:
            parts.append(f"value={self.value}")
        return ":".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultRule({self.spec()!r})"


class FaultPlan:
    """A set of rules plus the token directory that bounds their fires."""

    def __init__(self, rules: Sequence[FaultRule], token_dir: Optional[str] = None) -> None:
        self.rules = tuple(rules)
        self.token_dir = token_dir
        self._by_site: Dict[str, Tuple[FaultRule, ...]] = {}
        for rule in self.rules:
            self._by_site[rule.site] = self._by_site.get(rule.site, ()) + (rule,)

    def fire(self, site: str, key: Optional[str] = None) -> None:
        for rule in self._by_site.get(site, ()):
            if rule.key is not None and key is not None and rule.key != str(key):
                continue
            if rule.key is not None and key is None:
                continue
            if not self._claim(rule):
                continue
            _act(rule)

    def _claim(self, rule: FaultRule) -> bool:
        """Atomically consume one fire from the rule's budget."""
        if rule.count is None:
            return True
        if self.token_dir is not None:
            stem = f"{rule.index:02d}-{rule.site}.fired"
            for attempt in range(rule.count):
                token = os.path.join(self.token_dir, f"{stem}.{attempt}")
                try:
                    os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                    return True
                except FileExistsError:
                    continue
                except OSError:
                    return False
            return False
        with rule._lock:
            if rule._fired >= rule.count:
                return False
            rule._fired += 1
            return True


def _act(rule: FaultRule) -> None:
    if rule.action == "kill":
        if rule.value:
            time.sleep(float(rule.value))
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover - SIGKILL is not instantaneous
    elif rule.action == "exit":
        os._exit(int(rule.value or 1))
    elif rule.action == "raise":
        raise FaultInjected(f"injected fault at {rule.site}")
    elif rule.action == "drop":
        raise FaultInjected(f"injected connection drop at {rule.site}", drop_connection=True)
    elif rule.action == "enospc":
        raise OSError(errno.ENOSPC, f"No space left on device (injected at {rule.site})")
    elif rule.action == "sleep":
        time.sleep(float(rule.value if rule.value is not None else 1.0))


def parse_spec(spec: str) -> List[FaultRule]:
    """Parse ``site:action[:key=K][:count=N][:value=V];...`` into rules."""
    rules: List[FaultRule] = []
    for index, chunk in enumerate(part for part in spec.split(";") if part.strip()):
        fields = [field.strip() for field in chunk.split(":")]
        if len(fields) < 2:
            raise ValueError(f"fault spec {chunk!r} needs at least site:action")
        site, action = fields[0], fields[1]
        key: Optional[str] = None
        count: Optional[int] = None
        value: Optional[float] = None
        for extra in fields[2:]:
            name, _, raw = extra.partition("=")
            if name == "key":
                key = raw
            elif name == "count":
                count = int(raw)
            elif name == "value":
                value = float(raw)
            else:
                raise ValueError(f"unknown fault option {extra!r} in {chunk!r}")
        rules.append(FaultRule(site, action, key=key, count=count, value=value, index=index))
    return rules


# --------------------------------------------------------------------- #
# Module state
# --------------------------------------------------------------------- #
# ``ACTIVE`` is the whole happy-path story: fault sites guard their
# trigger with ``if faults.ACTIVE is not None`` so production runs pay
# one attribute load.  Forked workers inherit the plan (and its token
# directory path) automatically.
ACTIVE: Optional[FaultPlan] = None
_OWNED_TOKEN_DIR: Optional[str] = None


def install(
    site: str,
    action: str,
    *,
    key: Optional[str] = None,
    count: Optional[int] = None,
    value: Optional[float] = None,
    token_dir: Optional[str] = None,
) -> FaultPlan:
    """Install a single rule (adding to any active plan) and return the plan.

    When ``count`` is bounded and no token directory exists yet, a
    temporary one is created (and removed again by :func:`reset`) so the
    budget holds across forked worker processes.
    """
    global ACTIVE, _OWNED_TOKEN_DIR
    existing = ACTIVE.rules if ACTIVE is not None else ()
    rule = FaultRule(site, action, key=key, count=count, value=value, index=len(existing))
    directory = token_dir or (ACTIVE.token_dir if ACTIVE is not None else None)
    if directory is None and count is not None:
        directory = tempfile.mkdtemp(prefix="repro-faults-")
        _OWNED_TOKEN_DIR = directory
    ACTIVE = FaultPlan(existing + (rule,), token_dir=directory)
    return ACTIVE


def install_plan(rules: Sequence[FaultRule], token_dir: Optional[str] = None) -> FaultPlan:
    """Replace the active plan wholesale (used by :func:`load_from_env`)."""
    global ACTIVE, _OWNED_TOKEN_DIR
    bounded = any(rule.count is not None for rule in rules)
    if token_dir is None and bounded:
        token_dir = tempfile.mkdtemp(prefix="repro-faults-")
        _OWNED_TOKEN_DIR = token_dir
    ACTIVE = FaultPlan(rules, token_dir=token_dir)
    return ACTIVE


def reset() -> None:
    """Remove the active plan (and any token directory it owned)."""
    global ACTIVE, _OWNED_TOKEN_DIR
    ACTIVE = None
    if _OWNED_TOKEN_DIR is not None:
        shutil.rmtree(_OWNED_TOKEN_DIR, ignore_errors=True)
        _OWNED_TOKEN_DIR = None


def trigger(site: str, key: Optional[str] = None) -> None:
    """Fire the fault point ``site``; a no-op unless a matching rule is armed."""
    plan = ACTIVE
    if plan is not None:
        plan.fire(site, key)


def load_from_env() -> Optional[FaultPlan]:
    """Arm a plan from ``REPRO_FAULTS_SPEC`` / ``REPRO_FAULTS_DIR``, if set."""
    spec = os.environ.get(ENV_SPEC)
    if not spec:
        return None
    return install_plan(parse_spec(spec), token_dir=os.environ.get(ENV_TOKEN_DIR))


load_from_env()
