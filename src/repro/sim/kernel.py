"""Simulation kernel: time, the event queue, and the run loop.

The kernel is deliberately small.  All model behaviour lives in
processes (see :mod:`repro.sim.process`); the kernel only orders event
callbacks in (time, priority, insertion) order and advances the clock.

The hot paths are flattened for host speed: :meth:`Simulator.run` pops
and fires events in one frame, with Python's cyclic garbage collector
parked while it loops, and the event factories bind their classes at
module level.  Three invariants keep that — and every other host-speed
shortcut in the model — invisible in the results, because the model's
counters (``wait_cycles``, ``idle_wait_cycles``, fill statistics)
encode the event schedule itself:

1. **Flattening keeps the schedule.**  A shortcut may remove Python
   frames, but every ``schedule()`` call must still happen at the same
   (time, priority, seq): same order, same time, same priority, so the
   sequence numbers that break heap ties are unchanged.
2. **Compression only leaps provably dead windows.**  The clock may
   jump over an idle window only when the queue holds nothing but the
   deadlock monitor's own poll (see
   ``EclipseSystem._deadlock_monitor``): progress is then frozen for
   good and the verdict cycle is computable in closed form.  Any other
   pending event — a watchdog retry, a fault stall, a sampler tick —
   pins the boundary, because its callbacks can schedule new work.
3. **A hold is a timeout, event for event.**  A process that yields a
   bare ``int`` n holds for n cycles: ``Process._step`` pushes its
   reusable wake token at (now + n, ``PRIORITY_NORMAL``, next seq) —
   exactly the entry ``yield sim.timeout(n)`` would push, so the two
   spellings give the same schedule; the hold just allocates nothing.
   The model's hot paths hold this way; ``Timeout`` remains for
   composite waits (``AllOf``/``AnyOf``) and user code.

``tests/regression/test_engine_corpus.py`` holds the kernel to all
three: a frozen corpus of result, state, op-log and deadlock digests;
``tests/sim/test_holds.py`` checks invariant 3 differentially.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "SimulationError",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "require_int",
]

#: Priority for events that must fire before same-time normal events
#: (e.g. process resumption after an interrupt).
PRIORITY_URGENT = 0
#: Default event priority.
PRIORITY_NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (time travel, re-triggering events...)."""


def require_int(what: str, value: Any) -> None:
    """Raise ``ValueError`` naming *what* unless *value* is an ``int``
    (``bool`` excluded).  Configuration that becomes a process hold
    checks its cycle counts with this at construction: a hold takes
    only ints, so a float would otherwise fail mid-run."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")


class Simulator:
    """Discrete-event simulator with integer (cycle) time.

    The simulator is the rendezvous object of a model: every event and
    process is created against one ``Simulator`` and scheduled on its
    queue.  Time is an ``int`` so that cycle-level hardware models never
    accumulate floating-point error and schedules replay exactly.

    Example
    -------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim):
    ...     yield sim.timeout(5)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> log
    [5]
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._queue: list[tuple[int, int, int, Any]] = []
        self._seq: int = 0
        self._running = False

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Any, delay: int = 0, priority: int = PRIORITY_NORMAL) -> None:
        """Enqueue *event* to fire ``delay`` cycles from now.

        ``event`` must expose a ``_fire()`` method (all events in
        :mod:`repro.sim.events` do, and so does a process's wake
        token).  Ties at identical (time, priority)
        are broken by insertion order for determinism.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + int(delay), priority, self._seq, event))

    # ------------------------------------------------------------------
    # factories (convenience mirrors of the events / process modules)
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> "Timeout":
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        return Process(self, generator)

    def all_of(self, events: Iterable[Any]) -> "AllOf":
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Any]) -> "AnyOf":
        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Fire the single next event, advancing time to it."""
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        event._fire()

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or ``None`` if queue empty."""
        return self._queue[0][0] if self._queue else None

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        advance_time: bool = True,
    ) -> None:
        """Run until the queue drains, ``until`` cycles, or ``max_events``.

        ``until`` is an absolute simulation time; events scheduled at
        exactly ``until`` are *not* executed (time stops at ``until``).
        ``max_events`` bounds total fired events — a safety net for
        models suspected of livelock.
        ``stop`` is polled between events; returning True ends the run
        at the current time.  Monitor processes (watchdogs, deadlock
        detectors) keep the queue populated forever, so their users
        need a model-level completion predicate instead of queue drain.
        ``advance_time=False`` leaves the clock at the last fired event
        when the queue drains before ``until`` — so an incremental
        ``advance(n); advance(2*n); ...`` sequence ends at exactly the
        same final time as one uninterrupted run.

        The cyclic garbage collector is parked for the duration: the
        model allocates many short-lived events that reference counting
        reclaims, and whole-heap scans mid-run only cost time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        fired = 0
        queue = self._queue
        pop = heapq.heappop
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue:
                if stop is not None and stop():
                    return
                when = queue[0][0]
                if until is not None and when >= until:
                    self._now = until
                    return
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                item = pop(queue)
                self._now = item[0]
                item[3]._fire()
                fired += 1
            if advance_time and until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of events currently queued (mainly for tests)."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now} pending={len(self._queue)}>"


# Bound after the class: events and processes import this module's
# priorities and SimulationError, so the package imports the kernel
# first (see repro/sim/__init__.py) and the factories above resolve
# these names as plain module globals.
from repro.sim.events import AllOf, AnyOf, Event, Timeout  # noqa: E402
from repro.sim.process import Process  # noqa: E402
