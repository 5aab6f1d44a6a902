"""Span-based structured tracing of a simulation, exported to Perfetto.

The §7 simulator was the design tool the Eclipse team used to *look
at* runs; :mod:`repro.trace` reproduces its counter views (Figures
9-10) and op listing.  :class:`SpanTracer` adds the third modern view:
a structured timeline of *spans* — task processing steps, shell
synchronization primitives, bus occupancy windows — plus *instant
events* for cache misses, checkpoints and injected faults, exported in
the Chrome trace-event JSON format that ``ui.perfetto.dev`` (or
``chrome://tracing``) loads directly.

The tracer is a :class:`~repro.obs.spans.SpanRecorder` on the
simulator clock and a consumer of the system's
:class:`~repro.obs.probe.Probe`, like the
:class:`~repro.trace.oplog.OpLog`: pure observation, zero simulated
cost, bounded memory (the recorder's ring buffer).  The recorded event
stream is a pure function of the run — the same contract the histories
obey — which CI checks by diffing the exports of two identical runs.

Span/thread model (deterministic, so exports byte-compare):

* one trace *thread* per coprocessor (sorted names → tids 1..N), where
  its step spans and shell-primitive spans nest;
* one thread per data bus (``read_bus``/``write_bus``) carrying
  occupancy spans from grant to release — never overlapping, because
  the bus is exclusive;
* thread 0 ("system") for instant events that belong to no
  coprocessor: checkpoints (``export_state``) and fault injections.

Timestamps are simulation cycles written into the microsecond field
(``ts``), so 1 cycle renders as 1 µs — Perfetto's timeline is then a
cycle-accurate ruler.
"""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from repro.obs.probe import Probe
from repro.obs.spans import SpanEvent, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["SpanTracer"]

_SPACE_LABELS = {"get_space": "GetSpace", "put_space": "PutSpace"}


class SpanTracer(SpanRecorder):
    """Bounded-memory structured tracer for one configured system."""

    def __init__(self, system: "EclipseSystem", capacity: int = 100_000):
        super().__init__(capacity, clock=lambda: system.sim.now, process_name="eclipse")
        if not system.coprocessors:
            raise RuntimeError(
                "attach the SpanTracer after EclipseSystem.configure() — "
                "it observes the running coprocessors, which do not exist yet"
            )
        if not system.obs.spans:
            raise RuntimeError(
                f"span tracing is disabled at obs_level={system.obs!s} — "
                "build the system with obs_level='series' or 'full' "
                "(SystemParams.obs_level, or --obs-level on the CLI)"
            )
        self.system = system
        # deterministic thread ids: coprocessors first (sorted), then
        # the two data buses, with tid 0 reserved for system instants
        for name in (*sorted(system.coprocessors), "read_bus", "write_bus"):
            self.thread(name)
        #: the step / shell-primitive span each coprocessor has open
        self._open: Dict[Tuple[str, str], SpanEvent] = {}
        Probe.attach(system, self)

    def _other_data(self) -> dict:
        return {"obs_level": str(self.system.obs), "cycles": self.system.sim.now}

    # ------------------------------------------------------------------
    # probe events
    # ------------------------------------------------------------------
    def on_step_begin(self, cname, row) -> None:
        self._open[cname, "step"] = self.begin(f"step:{row.name}", "step", cname, task=row.name)

    def on_step_end(self, cname, row, outcome) -> None:
        self.end(self._open.pop((cname, "step")), outcome=outcome.value)

    def on_space_begin(self, cname, prim, task, port, n) -> None:
        self._open[cname, prim] = self.begin(_SPACE_LABELS[prim], "shell", cname,
                                             port=port, bytes=n)

    def on_space_end(self, cname, prim, task, port, n, result) -> None:
        extra = {}
        if prim == "get_space":
            extra["granted"] = bool(result)
            if getattr(result, "eos", False):
                extra["eos"] = True
        self.end(self._open.pop((cname, prim)), task=task.name, **extra)

    def on_fetch(self, cname, line_addr, prefetch) -> None:
        self.instant("prefetch" if prefetch else "cache_miss", "cache", cname,
                     line=line_addr, shell=cname)

    def on_transfer(self, bus, n_bytes, master, priority) -> None:
        # reconstruct the grant->release occupancy window: the bus is
        # exclusive, so these spans never overlap on their thread
        dur = bus.occupancy_cycles(n_bytes)
        self.complete(f"xfer:{master or 'anon'}", "bus", bus.name, self.now() - dur, dur,
                      bytes=n_bytes, master=master, priority=priority)

    def on_checkpoint(self, state) -> None:
        self.instant("checkpoint", "resilience", cycle=state["now"])

    def on_stall(self, cname, cycles) -> None:
        self.instant("fault:coproc_stall", "fault", coprocessor=cname, cycles=cycles)

    def on_corrupt(self, data) -> None:
        self.instant("fault:corrupt_line", "fault", bytes=len(data))
