"""Deterministic fault injection for the shell/transport layer.

The Eclipse shells are sold on "absorbing system-level issues" —
distributed putspace synchronization, explicit coherency, best-guess
scheduling — but a happy-path simulator cannot demonstrate that the
protocol actually tolerates the message loss, duplication, reordering
and stalls a real interconnect exhibits.  This module provides the
adversary: a seed-driven :class:`FaultPlan` describing *what* to break,
and a :class:`FaultInjector` that makes the per-event decisions
reproducibly (same plan + same event order → byte-identical schedule).

The injector is deliberately model-agnostic: it only ever sees opaque
messages, coprocessor names and cache-line payloads.  The hooks live in
:mod:`repro.core.messages` (message faults), :mod:`repro.core.shell`
(read-cache corruption) and :mod:`repro.core.coprocessor` (stalls);
the recovery machinery that makes these faults survivable — idempotent
cumulative putspace credits, the shell watchdog, the deadlock detector
— lives in :mod:`repro.core` as well.

Kahn determinism is the oracle: under any *eventually recovered* fault
schedule the cycle-level stream histories must stay byte-identical to
the functional executor's (see ``tests/integration/
test_conformance_differential.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.sim.kernel import require_int

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "StallSpec",
    "LossPlan",
    "CORRUPTION_MODES",
    "corrupt_state",
]


@dataclass(frozen=True)
class LossPlan:
    """Seed-driven description of a lossy network ingest link.

    This is the *network* fault axis: it shapes the packet transport in
    front of the demux (:mod:`repro.net`), while the sibling knobs on
    :class:`FaultPlan` shape the on-chip fabric inside the simulated
    system.  The split matters for determinism — the link has its own
    ``random.Random(seed)``, so adding network loss never perturbs the
    in-simulation fault schedule of the same seed.

    Probabilities are per transmitted packet.  ``fec_group`` data
    packets share one XOR parity packet (0 disables FEC); NACK-driven
    retransmission starts ``rtx_timeout`` ticks after a gap is
    detected and backs off by ``rtx_backoff`` per attempt (the
    watchdog's :class:`repro.core.backoff.ExponentialBackoff`
    discipline), giving up after ``max_rtx`` attempts.  ``deadline``
    ticks after the last send, still-missing packets are declared lost
    and the decode degrades gracefully instead of waiting forever.
    """

    seed: int = 0
    #: probability a packet is dropped on the link
    drop_prob: float = 0.0
    #: probability a packet is delivered twice
    dup_prob: float = 0.0
    #: probability a packet gets extra jitter (letting later packets
    #: overtake it in arrival order)
    reorder_prob: float = 0.0
    #: maximum extra delay (ticks) per jitter/reorder decision
    max_jitter: int = 8
    #: +/- fractional variation of the send pacing (rate variation)
    rate_var: float = 0.0
    #: data packets per XOR parity group (0 = FEC off)
    fec_group: int = 4
    #: ticks without a missing seq before the first NACK
    rtx_timeout: int = 16
    #: multiplicative backoff per NACK attempt
    rtx_backoff: int = 2
    #: NACK attempts per missing packet before giving up
    max_rtx: int = 3
    #: ticks past the last send before missing packets are declared lost
    deadline: int = 400

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "reorder_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not 0.0 <= self.rate_var <= 1.0:
            raise ValueError(f"rate_var must be in [0, 1], got {self.rate_var}")
        if self.max_jitter < 1:
            raise ValueError(f"max_jitter must be >= 1, got {self.max_jitter}")
        if self.fec_group < 0:
            raise ValueError(f"fec_group must be >= 0, got {self.fec_group}")
        if self.rtx_timeout < 1:
            raise ValueError(f"rtx_timeout must be >= 1, got {self.rtx_timeout}")
        if self.rtx_backoff < 1:
            raise ValueError(f"rtx_backoff must be >= 1, got {self.rtx_backoff}")
        if self.max_rtx < 0:
            raise ValueError(f"max_rtx must be >= 0, got {self.max_rtx}")
        if self.deadline < 1:
            raise ValueError(f"deadline must be >= 1, got {self.deadline}")

    # ------------------------------------------------------------------
    def any_loss(self) -> bool:
        """True if this link can disturb the packet flow at all."""
        return bool(self.drop_prob or self.dup_prob or self.reorder_prob
                    or self.rate_var)

    def with_(self, **kw) -> "LossPlan":
        """Copy with overrides (seed-sweep helper)."""
        return replace(self, **kw)

    def to_dict(self) -> Dict[str, object]:
        return {
            name: getattr(self, name)
            for name in (
                "seed", "drop_prob", "dup_prob", "reorder_prob", "max_jitter",
                "rate_var", "fec_group", "rtx_timeout", "rtx_backoff",
                "max_rtx", "deadline",
            )
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LossPlan":
        return cls(**data)

    _PRESETS = {
        "none": {},
        "mild": {"drop_prob": 0.02, "reorder_prob": 0.05},
        "moderate": {"drop_prob": 0.05, "dup_prob": 0.02,
                     "reorder_prob": 0.10, "rate_var": 0.2},
        "heavy": {"drop_prob": 0.20, "dup_prob": 0.05,
                  "reorder_prob": 0.20, "rate_var": 0.4},
        "jitter": {"reorder_prob": 0.5, "max_jitter": 24, "rate_var": 0.3},
    }

    @classmethod
    def parse(cls, spec: str, seed: Optional[int] = None) -> "LossPlan":
        """Build a plan from a CLI spec string: a preset name
        (``none``, ``mild``, ``moderate``, ``heavy``, ``jitter``) or a
        comma list of ``key=value`` pairs, e.g. ``drop=0.1,seed=3``.
        Keys: drop, dup, reorder, rate_var (floats); max_jitter,
        fec_group, rtx_timeout, rtx_backoff, max_rtx, deadline, seed
        (integers)."""
        spec = spec.strip()
        if spec in cls._PRESETS:
            plan = cls(**cls._PRESETS[spec])
            return plan.with_(seed=seed) if seed is not None else plan
        alias = {"drop": "drop_prob", "dup": "dup_prob",
                 "reorder": "reorder_prob", "loss": "drop_prob"}
        kw: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad loss-plan item {item!r} (want key=value)")
            key, value = (s.strip() for s in item.split("=", 1))
            key = alias.get(key, key)
            if key in ("seed", "max_jitter", "fec_group", "rtx_timeout",
                       "rtx_backoff", "max_rtx", "deadline"):
                kw[key] = int(value)
            elif key.endswith("_prob") or key == "rate_var":
                kw[key] = float(value)
            else:
                raise ValueError(f"unknown loss-plan key {key!r}")
        if seed is not None:
            kw["seed"] = seed
        return cls(**kw)

    def describe(self) -> str:
        """Compact human-readable summary of the non-default knobs."""
        parts = [f"seed={self.seed}"]
        for name, label in (("drop_prob", "drop"), ("dup_prob", "dup"),
                            ("reorder_prob", "reorder"), ("rate_var", "rate_var")):
            v = getattr(self, name)
            if v:
                parts.append(f"{label}={v:g}")
        parts.append(f"fec={self.fec_group}" if self.fec_group else "fec=off")
        parts.append(f"rtx={self.max_rtx}")
        return ",".join(parts)


@dataclass(frozen=True)
class StallSpec:
    """One scheduled coprocessor stall: freeze ``coprocessor`` for
    ``cycles`` at its first step boundary at or after ``at_cycle``."""

    coprocessor: str
    at_cycle: int
    cycles: int

    def __post_init__(self) -> None:
        require_int("StallSpec.at_cycle", self.at_cycle)
        require_int("StallSpec.cycles", self.cycles)
        if self.at_cycle < 0:
            raise ValueError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")

    def to_dict(self) -> Dict[str, object]:
        return {"coprocessor": self.coprocessor, "at_cycle": self.at_cycle,
                "cycles": self.cycles}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StallSpec":
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """Seed-driven description of the faults to inject.

    Probabilities are per-event (per message sent, per coprocessor step
    boundary, per cache-line fill).  ``drop_limit`` caps the total
    number of dropped messages: a finite cap makes the schedule
    *eventually recovered* by construction, which is what the
    differential conformance harness needs to terminate.
    """

    seed: int = 0
    #: probability a putspace/eos message is silently dropped
    drop_prob: float = 0.0
    #: probability a message is delivered twice
    dup_prob: float = 0.0
    #: probability a message is delayed by 1..max_delay extra cycles
    delay_prob: float = 0.0
    #: probability a message is reordered (an independent extra delay
    #: that lets later messages overtake it)
    reorder_prob: float = 0.0
    #: maximum extra delay per delay/reorder/duplicate decision
    max_delay: int = 48
    #: probability a coprocessor stalls at a step boundary
    stall_prob: float = 0.0
    #: maximum stall length in cycles
    max_stall: int = 256
    #: probability a read-cache line fill is corrupted (transient;
    #: detected by the shell's parity check and refetched)
    corrupt_prob: float = 0.0
    #: hard cap on total dropped messages (None = unlimited)
    drop_limit: Optional[int] = None
    #: explicit scheduled stalls, on top of the probabilistic ones
    stalls: Tuple[StallSpec, ...] = ()
    #: network-ingest loss axis (consumed at workload-build time by
    #: :mod:`repro.net`, not by the in-simulation injector)
    loss: Optional[LossPlan] = None

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "delay_prob", "reorder_prob",
                     "stall_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")
        if self.max_stall < 1:
            raise ValueError(f"max_stall must be >= 1, got {self.max_stall}")
        if self.drop_limit is not None and self.drop_limit < 0:
            raise ValueError(f"drop_limit must be >= 0, got {self.drop_limit}")

    # ------------------------------------------------------------------
    def any_faults(self) -> bool:
        """True if this plan can inject anything at all."""
        return bool(
            self.drop_prob or self.dup_prob or self.delay_prob
            or self.reorder_prob or self.stall_prob or self.corrupt_prob
            or self.stalls
        )

    def with_(self, **kw) -> "FaultPlan":
        """Copy with overrides (seed-sweep helper)."""
        return replace(self, **kw)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form; round-trips through :meth:`from_dict` (the
        run reports serialize the plan alongside the measurements)."""
        out: Dict[str, object] = {
            name: getattr(self, name)
            for name in (
                "seed", "drop_prob", "dup_prob", "delay_prob", "reorder_prob",
                "max_delay", "stall_prob", "max_stall", "corrupt_prob",
                "drop_limit",
            )
        }
        out["stalls"] = [s.to_dict() for s in self.stalls]
        # the loss axis is omitted when unset so pre-network plans (and
        # their snapshot digests) serialize exactly as before
        if self.loss is not None:
            out["loss"] = self.loss.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        data = dict(data)
        stalls = tuple(StallSpec.from_dict(s) for s in data.pop("stalls", ()))
        loss = data.pop("loss", None)
        if loss is not None and not isinstance(loss, LossPlan):
            loss = LossPlan.from_dict(loss)
        return cls(stalls=stalls, loss=loss, **data)

    # ------------------------------------------------------------------
    @classmethod
    def chaos(cls, seed: int = 0, drop_limit: Optional[int] = 64) -> "FaultPlan":
        """A moderate everything-at-once plan: drops (capped so the
        schedule is eventually recovered), duplicates, delays,
        reordering, stalls and transient cache corruption."""
        return cls(
            seed=seed,
            drop_prob=0.15,
            dup_prob=0.10,
            delay_prob=0.25,
            reorder_prob=0.20,
            max_delay=64,
            stall_prob=0.02,
            max_stall=300,
            corrupt_prob=0.02,
            drop_limit=drop_limit,
        )

    _PRESETS = {
        "none": {},
        "chaos": None,  # handled specially (classmethod defaults)
        "drop": {"drop_prob": 0.3, "drop_limit": 64},
        "dup": {"dup_prob": 0.3},
        "delay": {"delay_prob": 0.4, "reorder_prob": 0.3, "max_delay": 80},
        "stall": {"stall_prob": 0.05, "max_stall": 400},
        "corrupt": {"corrupt_prob": 0.05},
        "blackout": {"drop_prob": 1.0},  # recovery-off deadlock demo
    }

    @classmethod
    def parse(cls, spec: str, seed: Optional[int] = None) -> "FaultPlan":
        """Build a plan from a CLI spec string.

        Either a preset name (``chaos``, ``drop``, ``dup``, ``delay``,
        ``stall``, ``corrupt``, ``blackout``, ``none``) or a comma list
        of ``key=value`` pairs, e.g. ``drop=0.2,delay=0.3,seed=7``.
        Keys: drop, dup, delay, reorder, stall, corrupt (probabilities);
        max_delay, max_stall, drop_limit, seed (integers).
        """
        spec = spec.strip()
        if spec in cls._PRESETS:
            if spec == "chaos":
                plan = cls.chaos()
            else:
                plan = cls(**cls._PRESETS[spec])
            return plan.with_(seed=seed) if seed is not None else plan
        alias = {
            "drop": "drop_prob", "dup": "dup_prob", "delay": "delay_prob",
            "reorder": "reorder_prob", "stall": "stall_prob",
            "corrupt": "corrupt_prob",
        }
        kw: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault-plan item {item!r} (want key=value)")
            key, value = (s.strip() for s in item.split("=", 1))
            key = alias.get(key, key)
            if key == "loss":
                kw["loss"] = LossPlan.parse(value)
            elif key in ("seed", "max_delay", "max_stall", "drop_limit"):
                kw[key] = int(value)
            elif key.endswith("_prob"):
                kw[key] = float(value)
            else:
                raise ValueError(f"unknown fault-plan key {key!r}")
        if seed is not None:
            kw["seed"] = seed
        return cls(**kw)

    def describe(self) -> str:
        """Compact human-readable summary of the non-default knobs."""
        parts = [f"seed={self.seed}"]
        for name, label in (
            ("drop_prob", "drop"), ("dup_prob", "dup"), ("delay_prob", "delay"),
            ("reorder_prob", "reorder"), ("stall_prob", "stall"),
            ("corrupt_prob", "corrupt"),
        ):
            v = getattr(self, name)
            if v:
                parts.append(f"{label}={v:g}")
        if self.drop_limit is not None and self.drop_prob:
            parts.append(f"drop_limit={self.drop_limit}")
        if self.stalls:
            parts.append(f"stalls={len(self.stalls)}")
        if self.loss is not None:
            parts.append(f"loss=[{self.loss.describe()}]")
        return ",".join(parts)


@dataclass
class FaultStats:
    """What the injector actually did (all monotone counters)."""

    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    messages_reordered: int = 0
    stalls_injected: int = 0
    stall_cycles: int = 0
    corruptions_injected: int = 0

    def total_injected(self) -> int:
        return (
            self.messages_dropped + self.messages_duplicated
            + self.messages_delayed + self.messages_reordered
            + self.stalls_injected + self.corruptions_injected
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "messages_reordered": self.messages_reordered,
            "stalls_injected": self.stalls_injected,
            "stall_cycles": self.stall_cycles,
            "corruptions_injected": self.corruptions_injected,
        }


class FaultInjector:
    """Makes the per-event fault decisions for one simulation run.

    One private ``random.Random(plan.seed)`` drives every decision, so
    a (plan, model) pair replays the identical fault schedule — the
    property the differential seed sweep relies on.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.stats = FaultStats()
        self._pending_stalls: List[StallSpec] = sorted(
            plan.stalls, key=lambda s: s.at_cycle
        )

    def export_state(self) -> Dict[str, object]:
        """JSON-safe view of the injector's progress (plan, stats, and
        which scheduled stalls have not fired yet).  The RNG cursor is
        not serialized — snapshot restore replays the run from cycle 0,
        which reconstructs it exactly."""
        return {
            "plan": self.plan.to_dict(),
            "stats": self.stats.to_dict(),
            "pending_stalls": [s.to_dict() for s in self._pending_stalls],
        }

    # ------------------------------------------------------------------
    # message faults (hook: MessageFabric.send)
    # ------------------------------------------------------------------
    def plan_message(self, msg: object) -> List[int]:
        """Decide the fate of one message: a list of extra delivery
        delays — ``[0]`` is a clean delivery, ``[]`` a drop, two
        entries a duplication."""
        p, r = self.plan, self.rng
        if p.drop_prob and r.random() < p.drop_prob:
            if p.drop_limit is None or self.stats.messages_dropped < p.drop_limit:
                self.stats.messages_dropped += 1
                return []
        delays = [0]
        if p.delay_prob and r.random() < p.delay_prob:
            delays[0] += r.randrange(1, p.max_delay + 1)
            self.stats.messages_delayed += 1
        if p.reorder_prob and r.random() < p.reorder_prob:
            delays[0] += r.randrange(1, p.max_delay + 1)
            self.stats.messages_reordered += 1
        if p.dup_prob and r.random() < p.dup_prob:
            delays.append(delays[0] + r.randrange(0, p.max_delay + 1))
            self.stats.messages_duplicated += 1
        return delays

    # ------------------------------------------------------------------
    # coprocessor stalls (hook: Coprocessor step loop)
    # ------------------------------------------------------------------
    def coproc_stall(self, name: str, now: int) -> int:
        """Cycles ``name`` must freeze at this step boundary (0 = none).
        Explicit :class:`StallSpec` entries fire once each; the
        probabilistic stalls come on top."""
        cycles = 0
        keep: List[StallSpec] = []
        for spec in self._pending_stalls:
            if spec.coprocessor == name and spec.at_cycle <= now:
                cycles += spec.cycles
            else:
                keep.append(spec)
        self._pending_stalls = keep
        p = self.plan
        if p.stall_prob and self.rng.random() < p.stall_prob:
            cycles += self.rng.randrange(1, p.max_stall + 1)
        if cycles:
            self.stats.stalls_injected += 1
            self.stats.stall_cycles += cycles
        return cycles

    # ------------------------------------------------------------------
    # read-cache corruption (hook: Shell._fetch_line)
    # ------------------------------------------------------------------
    def corrupt_line(self, data: bytes) -> Optional[bytes]:
        """Maybe flip one bit of a cache-line fill; None = leave it."""
        p = self.plan
        if not p.corrupt_prob or not data:
            return None
        if self.rng.random() >= p.corrupt_prob:
            return None
        i = self.rng.randrange(len(data))
        bit = 1 << self.rng.randrange(8)
        out = bytearray(data)
        out[i] ^= bit
        self.stats.corruptions_injected += 1
        return bytes(out)


# ----------------------------------------------------------------------
# state-corruption modes (adversary for the online invariant monitors)
# ----------------------------------------------------------------------
# Unlike the transient faults above — which the shell protocol is built
# to survive — these silently break the synchronization state itself:
# the failures a soft error in a stream-table SRAM cell or a logic bug
# would cause.  Nothing recovers from them; the point is that the
# `repro.resilience` monitors *detect* them.  Everything is duck-typed
# on the system object (shells with stream/task tables, an SRAM, a
# write cache) so this module still never imports `repro.core`.


def _rows(system):
    for shell in system.shells.values():
        for row in shell.stream_table:
            yield shell, row


def _corrupt_credit_loss(system) -> str:
    """Grant a consumer row space the producer never committed —
    violates putspace credit conservation (monitor I101)."""
    for _shell, row in _rows(system):
        if not row.is_producer:
            row.space += 8
            return f"{row.task}.{row.port}: space += 8 beyond producer position"
    raise ValueError("no consumer row to corrupt")


def _corrupt_buffer_overrun(system) -> str:
    """Extend a granted window beyond the cyclic buffer —
    violates buffer containment (monitor I102)."""
    for _shell, row in _rows(system):
        row.granted = row.buffer.size + 8
        return f"{row.task}.{row.port}: granted = buffer.size + 8"
    raise ValueError("no stream row to corrupt")


def _corrupt_counter_rewind(system) -> str:
    """Rewind a cumulative stream position — violates counter
    monotonicity (monitor I103)."""
    best = None
    for _shell, row in _rows(system):
        if row.position > 0:
            best = row
            break
    if best is None:
        raise ValueError("no row with position > 0 to rewind")
    best.position -= 1
    return f"{best.task}.{best.port}: position -= 1"


def _corrupt_stale_dirty_line(system) -> str:
    """Plant a dirty write-cache line outside every granted producer
    window — violates explicit cache coherency (monitor I104)."""
    for name, shell in sorted(system.shells.items()):
        line = shell.write_cache.line_size
        addr = (system.sram._next_free + line - 1) // line * line
        if addr + line > system.sram.size:
            continue
        shell.write_cache.write(addr, b"\xff" * 4)
        return f"{name}: dirty line at {addr} outside all windows"
    raise ValueError("no room past the allocator for a stale line")


def _corrupt_task_miscount(system) -> str:
    """Desynchronize the system's unfinished-task count from the task
    tables — violates task accounting (monitor I105)."""
    system._unfinished_tasks += 1
    return "_unfinished_tasks += 1 vs task tables"


#: mode name -> (callable(system) -> description, monitor id it must trip)
CORRUPTION_MODES = {
    "credit-loss": (_corrupt_credit_loss, "I101"),
    "buffer-overrun": (_corrupt_buffer_overrun, "I102"),
    "counter-rewind": (_corrupt_counter_rewind, "I103"),
    "stale-dirty-line": (_corrupt_stale_dirty_line, "I104"),
    "task-miscount": (_corrupt_task_miscount, "I105"),
}


def corrupt_state(system, mode: str) -> str:
    """Apply one named corruption mode to a configured system; returns
    a description of what was broken.  Raises KeyError on unknown mode."""
    fn, _monitor = CORRUPTION_MODES[mode]
    return fn(system)
