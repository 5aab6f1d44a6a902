"""The one instrumentation point of a configured simulation.

The paper gives every shell a single measurement path (§5.4 hardware
counters, exposed by the §7 simulator).  :class:`Probe` is this
reproduction's equivalent for the observers that need more than
counters: it wraps, once per instance, the coprocessor step, the
shell's GetSpace/PutSpace and line fetch, both data buses' transfer,
the message fabric's send, the system's state export and its two
fault hooks, and turns every call into a typed ``on_*`` event for each
consumer that defines a handler for it.  :class:`repro.trace.oplog.OpLog`
and :class:`repro.obs.tracer.SpanTracer` are such consumers.

The first observer creates the probe and stores it as
``system.probe``; a system nobody observes keeps ``probe = None`` and
the classes' own methods.  Observation is pure: every wrapper yields
from the original generator and never touches simulated time.

Events and their handler signatures:

* ``on_step_begin(cname, row)`` / ``on_step_end(cname, row, outcome)``
* ``on_space_begin(cname, prim, task, port, n)`` /
  ``on_space_end(cname, prim, task, port, n, result)`` — ``prim`` is
  ``"get_space"`` or ``"put_space"``
* ``on_fetch(cname, line_addr, prefetch)`` — before a cache-line fill
* ``on_transfer(bus, n_bytes, master, priority)`` — after the bus
  released the transfer
* ``on_send(dest, msg)`` — before the fabric schedules a message
* ``on_checkpoint(state)`` — after ``export_state()``
* ``on_stall(cname, cycles)`` / ``on_corrupt(data)`` — an injected
  coprocessor stall / cache-line corruption
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["Probe"]

EVENTS = (
    "step_begin", "step_end", "space_begin", "space_end", "fetch",
    "transfer", "send", "checkpoint", "stall", "corrupt",
)


def _patch(obj, name: str, wrapper: Callable) -> None:
    """Shadow ``obj.name`` by ``wrapper`` on this instance only (the
    one method-assign in the package; the class stays untouched)."""
    wrapper.__wrapped__ = getattr(obj, name)  # type: ignore[attr-defined]
    setattr(obj, name, wrapper)


class Probe:
    """Per-system event source feeding every attached observer."""

    def __init__(self, system: "EclipseSystem"):
        self.system = system
        self.handlers: Dict[str, List[Callable]] = {ev: [] for ev in EVENTS}
        for cname, coproc in system.coprocessors.items():
            self._wrap_coprocessor(cname, coproc)
        for bus_name in ("read_bus", "write_bus"):
            self._wrap_bus(getattr(system, bus_name))
        self._wrap_system(system)

    @classmethod
    def attach(cls, system: "EclipseSystem", consumer) -> None:
        """Subscribe ``consumer``'s ``on_*`` handlers to the system's
        probe, creating the probe on first use."""
        if system.probe is None:
            system.probe = cls(system)
        for ev, handlers in system.probe.handlers.items():
            handler = getattr(consumer, "on_" + ev, None)
            if handler is not None:
                handlers.append(handler)

    # ------------------------------------------------------------------
    def _wrap_coprocessor(self, cname: str, coproc) -> None:
        h = self.handlers
        step_begin, step_end = h["step_begin"], h["step_end"]
        space_begin, space_end, fetch = h["space_begin"], h["space_end"], h["fetch"]

        def run_step(row, _orig=coproc._run_step):
            for f in step_begin:
                f(cname, row)
            outcome = yield from _orig(row)
            for f in step_end:
                f(cname, row, outcome)
            return outcome

        _patch(coproc, "_run_step", run_step)
        shell = coproc.shell
        for prim in ("get_space", "put_space"):

            def space(task, port, n, _orig=getattr(shell, prim), _prim=prim):
                for f in space_begin:
                    f(cname, _prim, task, port, n)
                result = yield from _orig(task, port, n)
                for f in space_end:
                    f(cname, _prim, task, port, n, result)
                return result

            _patch(shell, prim, space)

        def fetch_line(line_addr, prefetch, _orig=shell._fetch_line):
            for f in fetch:
                f(cname, line_addr, prefetch)
            return (yield from _orig(line_addr, prefetch))

        _patch(shell, "_fetch_line", fetch_line)

    def _wrap_bus(self, bus) -> None:
        transferred = self.handlers["transfer"]

        def transfer(n_bytes, master="", priority=0, _orig=bus.transfer):
            result = yield from _orig(n_bytes, master=master, priority=priority)
            for f in transferred:
                f(bus, n_bytes, master, priority)
            return result

        _patch(bus, "transfer", transfer)

    def _wrap_system(self, system) -> None:
        h = self.handlers

        def send(dest, msg, _orig=system.fabric.send):
            for f in h["send"]:
                f(dest, msg)
            return _orig(dest, msg)

        def export_state(_orig=system.export_state):
            state = _orig()
            for f in h["checkpoint"]:
                f(state)
            return state

        def fault_coproc_stall(name, _orig=system.fault_coproc_stall):
            stall = _orig(name)
            if stall:
                for f in h["stall"]:
                    f(name, stall)
            return stall

        def fault_corrupt_line(data, _orig=system.fault_corrupt_line):
            corrupted = _orig(data)
            if corrupted is not None:
                for f in h["corrupt"]:
                    f(data)
            return corrupted

        _patch(system.fabric, "send", send)
        for wrapper in (export_state, fault_coproc_stall, fault_corrupt_line):
            _patch(system, wrapper.__name__, wrapper)
