"""The task-kernel protocol: Eclipse's task-level interface as ops.

Paper Section 3.2 defines five primitives between a coprocessor and its
shell: ``GetTask``, ``Read``, ``Write``, ``GetSpace``, ``PutSpace``.
``GetTask`` belongs to the *coprocessor control loop* (it selects which
task to run); the other four are issued from inside a task's processing
step.  A :class:`Kernel` describes one task's behaviour as a generator
of primitive ops, so the identical kernel code executes on

* the reference functional executor (:mod:`repro.kahn.executor`),
  where ops complete immediately over unbounded FIFOs, and
* the cycle-level Eclipse system (:mod:`repro.core`), where the shell
  services them with caches, buses and distributed synchronization.

Kahn determinism then guarantees both produce identical streams — the
repository's strongest end-to-end correctness check.

A processing step (paper Section 4) is one execution of
:meth:`Kernel.step`: the interval between two GetTask inquiries.  The
step yields ops and finally returns a :class:`StepOutcome`:

``COMPLETED``
    the step did its work; uncommitted reads/writes were committed via
    PutSpace ops inside the step.
``ABORTED``
    a GetSpace was denied and the kernel chose the paper's
    discard-and-redo pattern (Section 4.2): nothing was committed, the
    scheduler will re-run the step when space arrives.
``FINISHED``
    the task is done (end of stream); it will never be scheduled again
    and end-of-stream propagates to its output streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from repro.kahn.graph import Direction, PortSpec


def state_value(value: Any) -> Any:
    """Convert one kernel attribute to a JSON-safe, deterministic form.

    Scalars pass through; ``bytes`` become a tagged hex dict; containers
    recurse; numpy-like arrays collapse to a digest (large, and their
    bytes are what matters for identity); anything else — generators,
    callables, file handles — becomes an opaque type marker rather than
    an error, so exporting state never crashes a run.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, (list, tuple)):
        return [state_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(state_value(v) for v in value)
    if isinstance(value, dict):
        return {str(k): state_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    tobytes = getattr(value, "tobytes", None)
    if callable(tobytes):
        import hashlib

        raw = tobytes()
        return {
            "__array__": {
                "type": type(value).__name__,
                "sha256": hashlib.sha256(raw).hexdigest(),
                "nbytes": len(raw),
            }
        }
    export = getattr(value, "export_state", None)
    if callable(export):
        return {"__object__": type(value).__name__, "state": export()}
    return {"__opaque__": type(value).__name__}

__all__ = [
    "GetSpaceOp",
    "ReadOp",
    "WriteOp",
    "PutSpaceOp",
    "ComputeOp",
    "ExternalAccessOp",
    "Space",
    "SpaceDenied",
    "StepOutcome",
    "Kernel",
    "KernelContext",
]


class StepOutcome(enum.Enum):
    """Result of one processing step."""

    COMPLETED = "completed"
    ABORTED = "aborted"
    FINISHED = "finished"


@dataclass(frozen=True)
class GetSpaceOp:
    """Inquire for ``n_bytes`` of data (input port) or room (output port).

    Yields a :class:`Space` result.  Never blocks in the Eclipse sense:
    the answer comes from the shell's local space field (paper §5.1).
    """

    port: str
    n_bytes: int


@dataclass(frozen=True)
class ReadOp:
    """Read ``n_bytes`` at ``offset`` inside the granted window.

    Yields ``bytes``.  Random access within the window is allowed
    (paper §4.1); reads are not destructive until PutSpace commits.
    """

    port: str
    offset: int
    n_bytes: int


@dataclass(frozen=True)
class WriteOp:
    """Write ``data`` at ``offset`` inside the granted output window.

    Invisible to consumers until PutSpace commits (paper §5.2 —
    the granted window is private).
    """

    port: str
    offset: int
    data: bytes


@dataclass(frozen=True)
class PutSpaceOp:
    """Commit ``n_bytes``: consumed data (input) or produced data (output).

    Advances the port's access point; triggers the 'putspace' message to
    the remote access point (paper Figure 7) and, in the cycle model,
    cache flush/invalidate (paper §5.2).
    """

    port: str
    n_bytes: int


@dataclass(frozen=True)
class ExternalAccessOp:
    """Timed access to off-chip memory (paper Figure 8: the MC/ME and
    VLD coprocessors have dedicated system-bus connections).

    Functionally a no-op (content is task state); the cycle-level
    executor routes it over the off-chip port of
    :class:`repro.hw.dram.OffChipMemory`.
    """

    n_bytes: int
    is_write: bool = False
    #: posted accesses (write buffers) occupy the off-chip port but do
    #: not stall the coprocessor
    posted: bool = False


@dataclass(frozen=True)
class ComputeOp:
    """Occupy the coprocessor for ``cycles`` of computation.

    Functionally a no-op; the cycle-level executor charges the time.
    This is how kernels express their data-dependent load (paper §2.2's
    worst/average factor-of-10 comes from these varying per packet).
    """

    cycles: int


@dataclass(frozen=True)
class Space:
    """Answer to a GetSpaceOp.

    ``granted``
        the shell granted the requested window.
    ``eos``
        the producer finished and the stream will never hold the
        requested amount — the kernel should wind down (FINISHED).
    ``available``
        bytes currently available (data or room); lets kernels consume
        a final partial packet at end of stream.
    """

    granted: bool
    eos: bool = False
    available: int = 0

    def __bool__(self) -> bool:
        return self.granted


class SpaceDenied(RuntimeError):
    """Raised by helpers when a required GetSpace is denied without EOS."""

    def __init__(self, port: str, n_bytes: int, space: Space):
        super().__init__(f"GetSpace({port!r}, {n_bytes}) denied (available={space.available})")
        self.port = port
        self.n_bytes = n_bytes
        self.space = space


class Kernel:
    """Base class for task kernels.

    Subclasses declare ``PORTS`` (a tuple of :class:`PortSpec`) and
    implement :meth:`step`.  A kernel instance is private to one task in
    one execution — mutable attributes are the task's saved state
    (paper §4.2: the coprocessor saves/restores task state; here the
    state simply lives in the instance).
    """

    PORTS: Tuple[PortSpec, ...] = ()

    #: Names of the instance attributes that constitute the task's
    #: resumable state.  Kernels that accumulate unbounded containers
    #: should declare this (the ``repro verify`` rule A203 flags those
    #: that don't); ``None`` means "export every attribute".
    STATE_FIELDS: Optional[Tuple[str, ...]] = None

    def __init__(self, task_info: int = 0):
        self.task_info = task_info

    @classmethod
    def ports(cls) -> Tuple[PortSpec, ...]:
        return cls.PORTS

    def export_state(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the kernel's saved task state.

        Precedence: a ``__getstate__`` defined by the subclass wins;
        otherwise declared :attr:`STATE_FIELDS`; otherwise every
        instance attribute.  Values go through :func:`state_value`, so
        unpicklable attributes degrade to opaque markers, never errors.
        """
        getstate = getattr(type(self), "__getstate__", None)
        if getstate is not None and getstate is not getattr(object, "__getstate__", None):
            raw = self.__getstate__()
            if not isinstance(raw, dict):
                return {"__getstate__": state_value(raw)}
        elif self.STATE_FIELDS is not None:
            raw = {name: getattr(self, name, None) for name in self.STATE_FIELDS}
        else:
            raw = vars(self)
        return {k: state_value(v) for k, v in sorted(raw.items())}

    def step(self, ctx: "KernelContext") -> Generator[Any, Any, StepOutcome]:
        """One processing step.  Must be a generator yielding ops."""
        raise NotImplementedError
        yield  # pragma: no cover


class KernelContext:
    """Typed op factory handed to :meth:`Kernel.step`.

    Purely convenience: validates port names against the kernel's
    declaration and builds op records.  It also carries ``task_info``
    (the GetTask parameter word, paper §3.2) and the owning ``task``
    name so every protocol error locates itself as ``task.port``.
    """

    def __init__(
        self,
        ports: Tuple[PortSpec, ...],
        task_info: int = 0,
        task: Optional[str] = None,
    ):
        self._ports = {p.name: p for p in ports}
        self.task_info = task_info
        self.task = task

    def _locate(self, port: str) -> str:
        """Canonical ``task.port`` locator used by every error message."""
        return f"{self.task}.{port}" if self.task else f"port {port!r}"

    def _check(self, port: str, direction: Optional[Direction] = None) -> PortSpec:
        spec = self._ports.get(port)
        if spec is None:
            raise KeyError(
                f"{self._locate(port)}: unknown port {port!r}; "
                f"declared: {sorted(self._ports)}"
            )
        if direction is not None and spec.direction is not direction:
            raise ValueError(
                f"{self._locate(port)} is {spec.direction.value}, not {direction.value}"
            )
        return spec

    def get_space(self, port: str, n_bytes: int) -> GetSpaceOp:
        self._check(port)
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        return GetSpaceOp(port, n_bytes)

    def read(self, port: str, offset: int, n_bytes: int) -> ReadOp:
        self._check(port, Direction.IN)
        if offset < 0 or n_bytes < 0:
            raise ValueError("offset and n_bytes must be >= 0")
        return ReadOp(port, offset, n_bytes)

    def write(self, port: str, offset: int, data: bytes) -> WriteOp:
        self._check(port, Direction.OUT)
        if offset < 0:
            raise ValueError("offset must be >= 0")
        return WriteOp(port, offset, bytes(data))

    def put_space(self, port: str, n_bytes: int) -> PutSpaceOp:
        self._check(port)
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        return PutSpaceOp(port, n_bytes)

    def compute(self, cycles: int) -> ComputeOp:
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        return ComputeOp(cycles)

    def external_access(
        self, n_bytes: int, is_write: bool = False, posted: bool = False
    ) -> ExternalAccessOp:
        if not isinstance(n_bytes, int) or isinstance(n_bytes, bool):
            # the cycle executor turns the size into a bus hold, which
            # takes only ints
            raise ValueError(f"external_access n_bytes must be an int, got {n_bytes!r}")
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        if posted and not is_write:
            raise ValueError("posted accesses must be writes")
        return ExternalAccessOp(n_bytes, is_write, posted)
