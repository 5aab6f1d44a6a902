"""Generator-driven processes.

A process wraps a Python generator.  The generator yields either an
:class:`~repro.sim.events.Event` or a bare ``int``:

* ``yield event`` subscribes to the event and resumes the generator
  with its value when it fires (or throws its exception into the
  generator);
* ``yield n`` (a non-negative ``int``, not a ``bool``) holds the
  process for ``n`` cycles.  It pushes exactly the queue entry
  ``yield sim.timeout(n)`` would push — time ``now + n``,
  ``PRIORITY_NORMAL``, the next sequence number — but the entry is the
  process's own reusable wake token, so a hold allocates no event.

A ``Process`` is itself an :class:`Event` that fires when the generator
returns — so processes can wait on each other, join-style.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.sim.events import Event, Interrupt
from repro.sim.kernel import PRIORITY_NORMAL, PRIORITY_URGENT, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["Process"]


class _Wake:
    """A process's queue entry for its start and its ``yield n`` holds.

    Firing it resumes the process with ``None``.  One token serves
    every hold of a process; an interrupt retires the queued token
    (``process = None``) so that it fires inert.  The process drops its
    token when the generator ends, so a finished process is reclaimed
    by reference counting alone while ``run()`` has the cyclic
    collector parked.
    """

    __slots__ = ("process",)
    # read by Process._step like an event's outcome: always "succeeded
    # with None"
    _value = None
    _exc = None

    def __init__(self, process: "Process"):
        self.process = process

    def _fire(self) -> None:
        process = self.process
        if process is not None:
            process._step(self)


class Process(Event):
    """Drive *generator* as a concurrent process of *sim*.

    The process starts at the current simulation time (its first resume
    is scheduled immediately, not run synchronously, so creation order
    and execution order are decoupled deterministically).

    Example
    -------
    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> def child(sim):
    ...     yield sim.timeout(3)
    ...     return "done"
    >>> def parent(sim):
    ...     result = yield sim.process(child(sim))
    ...     assert result == "done"
    >>> _ = sim.process(parent(sim))
    >>> sim.run()
    """

    __slots__ = ("_generator", "_waiting_on", "_wake", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off via the wake token so the body runs inside the event
        # loop, not inside the constructor.
        self._wake: Optional[_Wake] = _Wake(self)
        sim.schedule(self._wake, 0, PRIORITY_URGENT)

    # -- introspection ----------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return not self._triggered

    # -- control -----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is delivered urgently (before same-time normal
        events).  Interrupting a dead process is an error; interrupting
        a process blocked on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        ev = Event(self.sim)
        ev.callbacks.append(self._deliver_interrupt)
        ev.fail(Interrupt(cause), priority=PRIORITY_URGENT)
        ev.defused = True

    def _deliver_interrupt(self, ev: Event) -> None:
        if not self.is_alive:
            return  # finished before delivery
        target = self._waiting_on
        if target is None:
            # a hold (or the start): the queued token must fire inert
            self._wake.process = None
            self._wake = _Wake(self)
        elif target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None
        self._step(ev)

    # -- resume trampoline ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._step(event)

    def _step(self, event: Any) -> None:
        try:
            exc = event._exc
            if exc is not None:
                event.defused = True
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self._wake = None
            self.succeed(stop.value, priority=PRIORITY_URGENT)
            return
        except Exception as gexc:
            # an escaped Interrupt fails the process like any error
            self._wake = None
            self.fail(gexc, priority=PRIORITY_URGENT)
            return
        if type(target) is int:
            # a hold: the entry sim.timeout(target) would schedule
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative timeout {target}"
                )
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (sim._now + target, PRIORITY_NORMAL, seq, self._wake))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected Event or int cycles"
            )
        if target is self:
            raise SimulationError(f"process {self.name!r} waited on itself")
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            # target already fired: resume synchronously, exactly like
            # Event.add_callback would
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'dead'}>"
