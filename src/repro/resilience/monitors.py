"""Online invariant monitors over a live :class:`EclipseSystem`.

The shell protocol's correctness rests on a handful of mechanically
checkable invariants over the explicit synchronization state (paper
§5.1–§5.3): cumulative putspace credit conservation, containment of
every granted window in its cyclic buffer, monotonicity of the
cumulative counters, and cache-coherency marks consistent with the
GetSpace/PutSpace history.  A happy-path run maintains them by
construction; a soft error in a stream-table cell, a miscounted
credit, or a model bug breaks them *silently* — the run either
deadlocks much later or completes with corrupt data.

These monitors check the invariants at checkpoint boundaries (and
on demand) and raise a structured :class:`InvariantViolation` naming
the offending ``task.port`` the moment the state goes bad.  Each
monitor has a stable ID (``I101``…), used by tests, docs and reports:

========  ======================  =========================================
ID        name                    invariant
========  ======================  =========================================
``I101``  credit-conservation     a consumer is never credited beyond the
                                  producer's committed position, and a
                                  producer never regains more room than the
                                  consumer consumed
``I102``  buffer-containment      granted windows and space fields lie
                                  inside the cyclic buffer
``I103``  counter-monotonicity    cumulative counters never decrease;
                                  ``finished`` and ``eos_position`` never
                                  un-happen
``I104``  cache-coherency         dirty write-cache bytes only inside
                                  granted producer windows; poison marks
                                  only on cached lines; lines aligned and
                                  in SRAM
``I105``  task-accounting         the system's unfinished-task count
                                  matches the task tables
========  ======================  =========================================

The adversary exercising them lives in :data:`repro.sim.faults.
CORRUPTION_MODES`.  Checks run *between* events — the shells restore
every invariant before yielding control — so a clean run reports zero
violations at any checkpoint boundary (asserted by the test suite).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = [
    "InvariantViolation",
    "Monitor",
    "MonitorSuite",
    "MONITORS",
    "check_system",
]


class InvariantViolation(RuntimeError):
    """One broken runtime invariant, located as ``task.port``."""

    def __init__(
        self,
        monitor: str,
        message: str,
        task: Optional[str] = None,
        port: Optional[str] = None,
        shell: Optional[str] = None,
        cycle: Optional[int] = None,
    ):
        self.monitor = monitor
        self.task = task
        self.port = port
        self.shell = shell
        self.cycle = cycle
        where = f"{task}.{port}" if task and port else (task or shell or "system")
        at = f" at t={cycle}" if cycle is not None else ""
        super().__init__(f"[{monitor}] {where}{at}: {message}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "monitor": self.monitor,
            "task": self.task,
            "port": self.port,
            "shell": self.shell,
            "cycle": self.cycle,
            "message": str(self),
        }


class Monitor:
    """Base class: one named invariant over the live system state."""

    id: str = "I000"
    title: str = "abstract"

    def check(self, system: "EclipseSystem") -> List[InvariantViolation]:
        raise NotImplementedError

    def _violation(self, system, message, **kw) -> InvariantViolation:
        return InvariantViolation(self.id, message, cycle=system.sim.now, **kw)


# ----------------------------------------------------------------------
# I101 — putspace credit conservation
# ----------------------------------------------------------------------
class CreditConservationMonitor(Monitor):
    """Producer/consumer cumulative credits must conserve bytes.

    For every producer row P and the consumer row C on arm *a*:
    ``C.position + C.space <= P.position`` (a consumer can only be
    credited data the producer actually committed) and
    ``P.applied_credit(a) <= C.position`` (a producer can only regain
    room the consumer actually consumed).
    """

    id = "I101"
    title = "credit-conservation"

    def check(self, system):
        out: List[InvariantViolation] = []
        for shell in system.shells.values():
            for row in shell.stream_table:
                if not row.is_producer:
                    continue
                for arm, remote in enumerate(row.remotes):
                    cons = remote.shell.stream_table[remote.row_id]
                    credited = cons.position + cons.space
                    if credited > row.position:
                        out.append(self._violation(
                            system,
                            f"consumer credited {credited} B but the producer "
                            f"committed only {row.position} B on stream "
                            f"{row.stream!r}",
                            task=cons.task, port=cons.port,
                            shell=remote.shell.name,
                        ))
                    regained = row.applied_credit(arm)
                    if regained > cons.position:
                        out.append(self._violation(
                            system,
                            f"producer regained room up to {regained} B but "
                            f"the arm-{arm} consumer consumed only "
                            f"{cons.position} B on stream {row.stream!r}",
                            task=row.task, port=row.port, shell=shell.name,
                        ))
        return out


# ----------------------------------------------------------------------
# I102 — buffer containment of granted windows
# ----------------------------------------------------------------------
class BufferContainmentMonitor(Monitor):
    """Windows and space fields must fit the cyclic buffer."""

    id = "I102"
    title = "buffer-containment"

    def check(self, system):
        out: List[InvariantViolation] = []
        for shell in system.shells.values():
            for row in shell.stream_table:
                size = row.buffer.size
                loc = dict(task=row.task, port=row.port, shell=shell.name)
                if row.position < 0:
                    out.append(self._violation(
                        system, f"negative position {row.position}", **loc))
                if not 0 <= row.granted <= size:
                    out.append(self._violation(
                        system,
                        f"granted window of {row.granted} B outside the "
                        f"{size} B buffer of stream {row.stream!r}", **loc))
                    continue
                if row.is_producer:
                    for arm, space in enumerate(row.arm_space):
                        if not 0 <= space <= size:
                            out.append(self._violation(
                                system,
                                f"arm-{arm} space {space} outside "
                                f"[0, {size}]", **loc))
                    if row.arm_space and row.granted > min(row.arm_space):
                        out.append(self._violation(
                            system,
                            f"granted {row.granted} B exceeds available room "
                            f"{min(row.arm_space)} B", **loc))
                else:
                    if not 0 <= row.space <= size:
                        out.append(self._violation(
                            system,
                            f"space {row.space} outside [0, {size}]", **loc))
                    elif row.granted > row.space:
                        out.append(self._violation(
                            system,
                            f"granted {row.granted} B exceeds valid data "
                            f"{row.space} B", **loc))
        return out


# ----------------------------------------------------------------------
# I103 — monotonicity of cumulative counters
# ----------------------------------------------------------------------
class MonotonicityMonitor(Monitor):
    """Cumulative counters only grow between checks.

    Stateful: the first check records a baseline; every later check
    compares against the previous one.  Positions, committed bytes,
    applied credits, fabric message counts and step counts must be
    non-decreasing; ``finished`` never reverts; ``eos_position`` never
    changes once set.
    """

    id = "I103"
    title = "counter-monotonicity"

    def __init__(self) -> None:
        self._last: Optional[Dict[str, object]] = None

    def _observe(self, system) -> Dict[str, object]:
        obs: Dict[str, object] = {
            "fabric.messages_sent": system.fabric.messages_sent,
            "fabric.messages_delivered": system.fabric.messages_delivered,
        }
        for name, shell in system.shells.items():
            obs[f"{name}.credits_applied"] = shell.credits_applied
            for i, row in enumerate(shell.stream_table):
                key = f"{row.task}.{row.port}"
                obs[f"{name}.row{i}.{key}.position"] = row.position
                obs[f"{name}.row{i}.{key}.committed_bytes"] = row.committed_bytes
                obs[f"{name}.row{i}.{key}.putspace_messages_sent"] = (
                    row.putspace_messages_sent)
                obs[f"{name}.row{i}.{key}.eos_position"] = row.eos_position
            for t in shell.task_table:
                obs[f"{name}.task.{t.name}.steps_completed"] = t.steps_completed
                obs[f"{name}.task.{t.name}.finished"] = int(t.finished)
        return obs

    def check(self, system):
        cur = self._observe(system)
        last, self._last = self._last, cur
        if last is None:
            return []
        out: List[InvariantViolation] = []
        for key, value in cur.items():
            prev = last.get(key)
            if prev is None:
                continue
            task = port = None
            parts = key.split(".")
            if len(parts) >= 4 and parts[1].startswith("row"):
                task, port = parts[2], parts[3]
            elif len(parts) >= 3 and parts[1] == "task":
                task = parts[2]
            if key.endswith(".eos_position"):
                if prev is not None and value != prev:
                    out.append(self._violation(
                        system,
                        f"eos_position changed {prev} -> {value} after being "
                        f"set ({key})", task=task, port=port))
            elif value < prev:
                out.append(self._violation(
                    system,
                    f"cumulative counter {key} went backwards: "
                    f"{prev} -> {value}", task=task, port=port))
        return out


# ----------------------------------------------------------------------
# I104 — explicit cache coherency
# ----------------------------------------------------------------------
class CacheCoherencyMonitor(Monitor):
    """Cache marks must be consistent with the GetSpace/PutSpace state.

    Dirty write-cache bytes may only cover addresses inside the owning
    shell's granted producer windows (rule 3 flushes on commit, so a
    dirty byte outside every window is stale state that would clobber a
    neighbour).  Poison marks only make sense on cached read lines, and
    every cached line must be line-aligned and inside the SRAM.
    """

    id = "I104"
    title = "cache-coherency"

    def check(self, system):
        out: List[InvariantViolation] = []
        sram_size = system.sram.size
        for name, shell in system.shells.items():
            line = shell.params.cache_line
            # union of [position, position+granted) address intervals of
            # this shell's producer rows, plus who owns each interval
            windows = []
            for row in shell.stream_table:
                # windows outside [0, size] are I102's finding; skip them
                # here so this monitor stays total on corrupted state
                if row.is_producer and 0 < row.granted <= row.buffer.size:
                    for seg_addr, seg_len in row.buffer.segments(
                            row.position, row.granted):
                        windows.append((seg_addr, seg_addr + seg_len))

            def covered(addr: int) -> bool:
                return any(lo <= addr < hi for lo, hi in windows)

            for line_addr, _data, mask in shell.write_cache.dirty_items():
                if line_addr % line or line_addr + line > sram_size:
                    out.append(self._violation(
                        system,
                        f"write-cache line at {line_addr} misaligned or "
                        f"outside the {sram_size} B SRAM", shell=name))
                    continue
                stale = [line_addr + i for i, m in enumerate(mask)
                         if m and not covered(line_addr + i)]
                if stale:
                    out.append(self._violation(
                        system,
                        f"dirty write-cache byte(s) at {stale[:4]} outside "
                        f"every granted producer window", shell=name))
            cached = set(shell.read_cache.line_addrs())
            for line_addr in cached:
                if line_addr % line or line_addr + line > sram_size:
                    out.append(self._violation(
                        system,
                        f"read-cache line at {line_addr} misaligned or "
                        f"outside the {sram_size} B SRAM", shell=name))
            orphaned = sorted(shell._poisoned - cached)
            if orphaned:
                out.append(self._violation(
                    system,
                    f"poison mark(s) on uncached line(s) {orphaned[:4]}",
                    shell=name))
        return out


# ----------------------------------------------------------------------
# I105 — task accounting
# ----------------------------------------------------------------------
class TaskAccountingMonitor(Monitor):
    """The system's unfinished-task count must match the task tables,
    and blocked-on marks must reference real stream rows."""

    id = "I105"
    title = "task-accounting"

    def check(self, system):
        out: List[InvariantViolation] = []
        unfinished = 0
        for name, shell in system.shells.items():
            n_rows = len(shell.stream_table)
            for t in shell.task_table:
                if not t.finished:
                    unfinished += 1
                bad = [r for r in t.blocked_on if not 0 <= r < n_rows]
                if bad:
                    out.append(self._violation(
                        system,
                        f"blocked_on references nonexistent stream row(s) "
                        f"{sorted(bad)}", task=t.name, shell=name))
        if system._configured and unfinished != system._unfinished_tasks:
            out.append(self._violation(
                system,
                f"system counts {system._unfinished_tasks} unfinished "
                f"task(s) but the task tables hold {unfinished}"))
        return out


#: stable ID -> monitor class (the public catalogue)
MONITORS = {
    cls.id: cls
    for cls in (
        CreditConservationMonitor,
        BufferContainmentMonitor,
        MonotonicityMonitor,
        CacheCoherencyMonitor,
        TaskAccountingMonitor,
    )
}


class MonitorSuite:
    """A set of monitors run together at checkpoint boundaries.

    Stateful monitors (I103) keep their baseline inside the suite, so
    one suite instance follows one run.  ``check`` returns violations
    and feeds the system's resilience counters; ``check_or_raise``
    raises the first violation (supervisor policy: a corrupt run is
    failed, not resumed), its ``violations`` attribute listing every
    finding of that check as dicts.
    """

    def __init__(self, ids: Optional[Sequence[str]] = None):
        ids = list(ids) if ids is not None else sorted(MONITORS)
        unknown = [i for i in ids if i not in MONITORS]
        if unknown:
            raise KeyError(
                f"unknown monitor id(s) {unknown}; known: {sorted(MONITORS)}"
            )
        self.monitors: List[Monitor] = [MONITORS[i]() for i in ids]
        self.checks_run = 0
        self.violations: List[InvariantViolation] = []

    def check(self, system: "EclipseSystem") -> List[InvariantViolation]:
        self.checks_run += 1
        found: List[InvariantViolation] = []
        for monitor in self.monitors:
            found.extend(monitor.check(system))
        self.violations.extend(found)
        counters = getattr(system, "resilience", None)
        if counters is not None:
            counters["invariant_checks"] += 1
            counters["invariant_violations"] += len(found)
        return found

    def check_or_raise(self, system: "EclipseSystem") -> None:
        found = self.check(system)
        if found:
            found[0].violations = [v.to_dict() for v in found]
            raise found[0]


def check_system(
    system: "EclipseSystem", ids: Optional[Sequence[str]] = None
) -> List[InvariantViolation]:
    """One-shot check with a fresh suite (stateless invariants only
    get a baseline, so I103 cannot fire here — use a long-lived
    :class:`MonitorSuite` across boundaries for that)."""
    return MonitorSuite(ids).check(system)
