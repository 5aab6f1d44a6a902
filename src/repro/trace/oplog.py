"""Operation logging: a structured trace of task-level-interface ops.

The §7 simulator was a *design tool*: when a run misbehaves, designers
need to see exactly which primitive each coprocessor issued when.
:class:`OpLog` attaches to a configured system and records every
processing step (begin and outcome), every GetSpace/PutSpace with its
verdict and every fabric message as ``(time, unit, task, kind,
detail)`` records, with an optional filter and a bounded buffer
(oldest records dropped).

It is a consumer of the system's :class:`repro.obs.probe.Probe`, the
one instrumentation point it shares with the span tracer.  Zero cost
when not attached; deterministic (pure observation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from repro.obs.probe import Probe

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["OpRecord", "OpLog", "render_oplog"]


@dataclass(frozen=True)
class OpRecord:
    """One logged operation."""

    time: int
    unit: str
    task: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:>10}] {self.unit:>6} {self.task:>12} {self.kind:<9} {self.detail}"


class OpLog:
    """Bounded in-memory operation trace for one system."""

    def __init__(
        self,
        system: EclipseSystem,
        capacity: int = 10_000,
        predicate: Optional[Callable[[OpRecord], bool]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not system.coprocessors:
            raise RuntimeError(
                "attach the OpLog after EclipseSystem.configure() — it observes "
                "the running coprocessors, which do not exist yet"
            )
        if not system.obs.oplog:
            raise RuntimeError(
                f"operation logging is disabled at obs_level={system.obs!s} — "
                "build the system with obs_level='full' "
                "(SystemParams.obs_level, or --obs-level on the CLI)"
            )
        self.system = system
        self.capacity = capacity
        self.predicate = predicate
        self.records: Deque[OpRecord] = deque(maxlen=capacity)
        self.dropped = 0
        self.total = 0
        Probe.attach(system, self)

    # ------------------------------------------------------------------
    def _emit(self, unit: str, task: str, kind: str, detail: str) -> None:
        rec = OpRecord(self.system.sim.now, unit, task, kind, detail)
        if self.predicate is not None and not self.predicate(rec):
            return
        self.total += 1
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(rec)

    # probe events
    def on_step_begin(self, cname, row) -> None:
        self._emit(cname, row.name, "step", "begin")

    def on_step_end(self, cname, row, outcome) -> None:
        self._emit(cname, row.name, "step", f"end:{outcome.value}")

    def on_space_end(self, cname, prim, task, port, n, result) -> None:
        detail = f"{port}:{n}"
        if prim == "get_space":
            detail += f" -> {'grant' if result else 'DENY'}"
            if getattr(result, "eos", False):
                detail += "(eos)"
        self._emit(cname, task.name, prim, detail)

    def on_send(self, dest, msg) -> None:
        self._emit("fabric", "-", type(msg).__name__, f"-> {dest.name} {msg}")

    # ------------------------------------------------------------------
    def filter(self, kind: Optional[str] = None, task: Optional[str] = None) -> List[OpRecord]:
        return [
            r
            for r in self.records
            if (kind is None or r.kind == kind) and (task is None or r.task == task)
        ]

    def __len__(self) -> int:
        return len(self.records)


def render_oplog(log: OpLog, last: int = 40) -> str:
    """The tail of the trace, one op per line."""
    records = list(log.records)[-last:] if last > 0 else []
    header = (
        f"op log: showing {len(records)} of {log.total} records "
        f"({log.dropped} dropped by the ring buffer)"
    )
    return "\n".join([header] + [str(r) for r in records])
