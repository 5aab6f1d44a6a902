"""Parallel run engine for bulk simulation (paper §7 methodology).

The §7 experiments are "run the cycle-level simulator over many
architectural parameter points and collect measurements".  Every run is
independent — a fresh :class:`~repro.core.system.EclipseSystem`, a fresh
graph, no shared state — so the sweep is embarrassingly parallel.  This
module is the engine that exploits that: declare each run as a
:class:`RunSpec` (a picklable *description* — a module-level factory
plus keyword arguments), hand the list to a :class:`ParallelRunner`,
and get back a :class:`RunReport` whose per-run :class:`RunResult`
entries are **keyed by spec index, never by completion order**.

Determinism contract
--------------------
The deterministic portion of a report (``RunReport.to_dict()`` without
timing) is byte-identical for the same spec list at any ``jobs`` count:

* each run builds its own system/graph inside the worker from the
  spec's factory — nothing leaks between runs;
* results are aggregated in spec order, not completion order;
* wall-clock measurements live in a separate ``timing`` block that is
  excluded from the canonical JSON unless explicitly requested.

Workloads whose specs cannot be pickled (closures, lambdas, bound
state) transparently fall back to in-process serial execution; the
report records the fallback in ``notes``.

:func:`execute` is the one executor: the serial path and the pool
here, the sweep service and the supervisor's worker all call it.
Crash and hang recovery belong to the supervisor alone.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.system import EclipseSystem, SystemResult
from repro.kahn.graph import ApplicationGraph

__all__ = [
    "RunSpec",
    "RunResult",
    "RunReport",
    "ParallelRunner",
    "run_specs",
    "resolve_factory",
    "build",
    "execute",
    "crash_result",
]


Factory = Union[Callable[..., tuple], str]


def resolve_factory(factory: Factory) -> Callable[..., tuple]:
    """Resolve a factory reference to a callable.

    Accepts a callable (must be picklable by reference for the parallel
    path, i.e. a module-level function) or a dotted string
    ``"package.module:function"``.
    """
    if callable(factory):
        return factory
    if isinstance(factory, str):
        if ":" not in factory:
            raise ValueError(
                f"string factory must be 'module:function', got {factory!r}"
            )
        mod_name, func_name = factory.split(":", 1)
        mod = importlib.import_module(mod_name)
        try:
            return getattr(mod, func_name)
        except AttributeError:
            raise ValueError(f"module {mod_name!r} has no attribute {func_name!r}")
    raise TypeError(f"factory must be callable or 'module:function', got {factory!r}")


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one independent simulation run.

    ``factory(**kwargs)`` must return a ``(system, graph)`` pair — the
    system not yet configured — *or* a bare already-configured system.
    It is called inside the worker process, so it must be a module-level
    function (or a ``"module:function"`` string); the graph and its
    kernels never cross the process boundary, only the description
    does.
    """

    factory: Factory
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    def describe(self) -> str:
        if self.label:
            return self.label
        name = self.factory if isinstance(self.factory, str) else getattr(
            self.factory, "__name__", repr(self.factory)
        )
        return f"{name}({', '.join(f'{k}={v!r}' for k, v in self.kwargs.items())})"


@dataclass
class RunResult:
    """What one run produced.  Everything except ``wall_time`` is a
    pure function of the spec — the deterministic payload the
    regression/determinism tests compare."""

    index: int
    label: str
    ok: bool
    completed: bool = False
    cycles: int = 0
    #: "ExceptionType: message" when the run raised; None when ok
    error: Optional[str] = None
    #: deterministic counters (SystemResult.to_dict() minus histories)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: sha256 over the sorted per-stream histories — lets callers check
    #: byte-identity against an oracle without shipping the bytes
    histories_sha256: Optional[str] = None
    #: the supervisor gave up on a worker that stopped heartbeating
    #: (distinguishable from ``crashed`` so hangs and deaths can be
    #: told apart)
    timed_out: bool = False
    #: the worker process died (pool breakage, signal, hard exit) —
    #: ``error`` carries the exception repr
    crashed: bool = False
    #: observability tier the run recorded at ("off".."full"); below
    #: "full" there are no byte histories, so ``histories_sha256`` is
    #: None — the tier in the result makes that unmistakable
    obs_level: str = "full"
    #: wall-clock seconds the run took
    wall_time: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "index": self.index,
            "label": self.label,
            "ok": self.ok,
            "completed": self.completed,
            "cycles": self.cycles,
            "error": self.error,
            "metrics": self.metrics,
            "histories_sha256": self.histories_sha256,
            "timed_out": self.timed_out,
            "crashed": self.crashed,
            "obs_level": self.obs_level,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from its dict form (the inverse of
        :meth:`to_dict`; timing fields default to zero when the dict
        was serialized without them)."""
        return cls(
            index=data["index"],
            label=data["label"],
            ok=data["ok"],
            completed=data.get("completed", False),
            cycles=data.get("cycles", 0),
            error=data.get("error"),
            metrics=dict(data.get("metrics", {})),
            histories_sha256=data.get("histories_sha256"),
            timed_out=data.get("timed_out", False),
            crashed=data.get("crashed", False),
            obs_level=data.get("obs_level", "full"),
            wall_time=data.get("wall_time", 0.0),
        )


@dataclass
class RunReport:
    """Aggregated results of one engine invocation, in spec order."""

    results: List[RunResult]
    jobs: int
    #: wall-clock seconds for the whole batch
    wall_time: float = 0.0
    #: sum of per-run wall times — the serial-time estimate the speedup
    #: is computed against
    serial_time_estimate: float = 0.0
    #: execution notes (e.g. the non-picklable serial fallback)
    notes: List[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Estimated speedup over a serial run of the same specs."""
        if self.wall_time <= 0:
            return 1.0
        return self.serial_time_estimate / self.wall_time

    @property
    def failures(self) -> List[RunResult]:
        return [r for r in self.results if not r.ok]

    def metrics(self, include_timing: bool = False) -> "MetricsRegistry":
        """The sweep's health/progress feed as a typed metrics registry.

        The deterministic instruments (run outcome counters, the cycle
        histogram) are pure functions of the results, so the canonical
        metrics block stays byte-identical at any ``jobs`` count and
        under the resilience supervisor.  Wall-clock instruments only
        exist when ``include_timing`` — same switch as the timing
        block.  Names are stable; the catalogue lives in
        ``docs/observability.md``.
        """
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("runs.total").inc(len(self.results))
        reg.counter("runs.ok").inc(sum(1 for r in self.results if r.ok))
        reg.counter("runs.failed").inc(len(self.failures))
        reg.counter("runs.completed").inc(
            sum(1 for r in self.results if r.completed)
        )
        reg.counter("runs.timed_out").inc(
            sum(1 for r in self.results if r.timed_out)
        )
        reg.counter("runs.crashed").inc(
            sum(1 for r in self.results if r.crashed)
        )
        reg.counter("cycles.total").inc(sum(r.cycles for r in self.results))
        cycles = reg.histogram("run.cycles")
        for r in self.results:
            cycles.observe(r.cycles)
        if include_timing:
            wall = reg.histogram("run.wall_time", round_to=4)
            for r in self.results:
                wall.observe(r.wall_time)
            reg.gauge("runner.jobs").set(self.jobs)
            reg.gauge("runner.wall_time").set(round(self.wall_time, 4))
            reg.gauge("runner.speedup").set(round(self.speedup, 3))
        return reg

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-ready report.  Without ``include_timing`` the output is
        byte-identical for the same specs at any ``jobs`` count."""
        out: Dict[str, Any] = {
            "schema": "repro.runner/1",
            "runs": [r.to_dict(include_timing=include_timing) for r in self.results],
            "summary": {
                "total": len(self.results),
                "ok": sum(1 for r in self.results if r.ok),
                "failed": len(self.failures),
                "total_cycles": sum(r.cycles for r in self.results),
            },
            "metrics": self.metrics(include_timing=include_timing).to_dict(),
        }
        if include_timing:
            out["timing"] = {
                "jobs": self.jobs,
                "wall_time": self.wall_time,
                "serial_time_estimate": self.serial_time_estimate,
                "speedup": self.speedup,
                "notes": list(self.notes),
            }
        return out

    def to_json(self, include_timing: bool = False) -> str:
        """Canonical serialization: sorted keys, two-space indent,
        trailing newline — stable bytes for regression diffing."""
        return json.dumps(self.to_dict(include_timing=include_timing),
                          indent=2, sort_keys=True) + "\n"

    def write(self, path: str, include_timing: bool = False) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(include_timing=include_timing))


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------
def _histories_digest(histories: Mapping[str, bytes]) -> str:
    h = sha256()
    for name in sorted(histories):
        h.update(name.encode())
        h.update(b"\x00")
        h.update(histories[name])
        h.update(b"\x01")
    return h.hexdigest()


def _spec_obs_level(spec: RunSpec) -> str:
    """The observability tier a spec *requested* (used when the run
    never built a system — failures, hangs, worker crashes)."""
    return str(dict(spec.kwargs).get("obs_level", "full"))


def build(factory: Factory, kwargs: Mapping[str, Any]) -> EclipseSystem:
    """Resolve ``factory``, call it with ``kwargs`` and return the
    configured system.  The factory returns a bare system or a
    ``(system, graph)`` pair, whose graph is configured unless the
    factory did that already; a value of the wrong type is a
    :class:`TypeError` naming the factory."""
    fn = resolve_factory(factory)
    built = fn(**dict(kwargs))
    system, graph = built if isinstance(built, tuple) else (built, None)
    name = getattr(fn, "__qualname__", repr(fn))
    if not isinstance(system, EclipseSystem):
        raise TypeError(
            f"factory {name} returned {type(system).__name__}, "
            f"not an EclipseSystem"
        )
    if graph is not None and not system._configured:
        if not isinstance(graph, ApplicationGraph):
            raise TypeError(
                f"factory {name} returned a second value of type "
                f"{type(graph).__name__}, not an ApplicationGraph"
            )
        system.configure(graph)
    return system


def execute(index: int, spec: RunSpec, *, checkpoint=None) -> RunResult:
    """Build, configure and run one spec; never raises.

    A failure comes back as an ``ok=False`` result carrying the
    traceback, or the ``violations`` list an invariant monitor raised.
    ``checkpoint`` is the supervisor's per-run hook: ``resume()``
    returns the system restored from the run's snapshot (None: build
    afresh), and ``drive(system)`` advances it boundary by boundary
    before the final ``run()``.
    """
    start = time.perf_counter()
    try:
        system = checkpoint.resume() if checkpoint is not None else None
        if system is None:
            system = build(spec.factory, spec.kwargs)
        if checkpoint is not None:
            checkpoint.drive(system)
        return _ok_result(index, spec, system, system.run(), start)
    except Exception as e:  # noqa: BLE001 — the report carries the error
        violations = getattr(e, "violations", None)
        return RunResult(
            index=index,
            label=spec.describe(),
            ok=False,
            error=f"{type(e).__name__}: {e}",
            metrics=(
                {"violations": violations} if violations is not None
                else {"traceback": traceback.format_exc(limit=8)}
            ),
            wall_time=time.perf_counter() - start,
            obs_level=_spec_obs_level(spec),
        )


def _ok_result(index: int, spec: RunSpec, system: EclipseSystem,
               result: SystemResult, start: float) -> RunResult:
    metrics = result.to_dict()
    metrics.pop("histories", None)
    if system.sampler is not None:
        # deterministic sampling summary (sample counts are a pure
        # function of the schedule, which is level-invariant)
        metrics["sampling"] = {
            "interval": system.sampler.interval,
            "samples": max(
                (len(s) for s in system.sampler.utilization.values()),
                default=0,
            ),
        }
    return RunResult(
        index=index,
        label=spec.describe(),
        ok=True,
        completed=result.completed,
        cycles=result.cycles,
        metrics=metrics,
        # below "full" there are no byte histories to digest — None
        # keeps the absence explicit instead of digesting empty streams
        histories_sha256=(
            _histories_digest(result.histories) if system.obs.histories else None
        ),
        wall_time=time.perf_counter() - start,
        obs_level=str(system.obs),
    )


def crash_result(index: int, spec: RunSpec, error: str, *,
                 hung: bool = False) -> RunResult:
    """The result of a run whose worker died (``crashed``) or, with
    ``hung``, stopped responding (``timed_out``) before reporting."""
    return RunResult(
        index=index,
        label=spec.describe(),
        ok=False,
        error=error,
        crashed=not hung,
        timed_out=hung,
        obs_level=_spec_obs_level(spec),
    )


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
class ParallelRunner:
    """Fans independent :class:`RunSpec` runs out over a process pool.

    ``jobs`` defaults to ``os.cpu_count()``; ``jobs=1`` runs everything
    in-process (no pool, no pickling requirement).  A run that fails is
    reported as a failure, not raised; a worker that dies reports every
    run the broken pool still owed as ``crashed``.  Recovery from
    crashes and hangs is :class:`repro.resilience.Supervisor`'s job.
    """

    def __init__(self, jobs: Optional[int] = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> RunReport:
        """Execute every spec; results come back in spec order."""
        specs = list(specs)
        notes: List[str] = []
        start = time.perf_counter()
        if self.jobs == 1 or len(specs) <= 1:
            results = [execute(i, spec) for i, spec in enumerate(specs)]
        else:
            unpicklable = self._first_unpicklable(specs)
            if unpicklable is not None:
                notes.append(
                    f"serial fallback: spec {unpicklable[0]} "
                    f"({unpicklable[1]}) is not picklable"
                )
                results = [execute(i, spec) for i, spec in enumerate(specs)]
            else:
                results = self._run_pool(specs)
        return RunReport(
            results=results,
            jobs=self.jobs,
            wall_time=time.perf_counter() - start,
            serial_time_estimate=sum(r.wall_time for r in results),
            notes=notes,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _first_unpicklable(specs: Sequence[RunSpec]) -> Optional[Tuple[int, str]]:
        for i, spec in enumerate(specs):
            try:
                pickle.dumps(spec)
            except Exception:
                return i, spec.describe()
        return None

    def _run_pool(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        results: List[RunResult] = []
        workers = min(self.jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute, i, spec) for i, spec in enumerate(specs)]
            # collect in submission order — aggregation never depends on
            # completion order
            for i, (spec, future) in enumerate(zip(specs, futures)):
                try:
                    results.append(future.result())
                except Exception as e:
                    # execute never raises, so anything here is
                    # infrastructure breakage: a worker process died
                    # (BrokenProcessPool), pickling failed, a pipe broke.
                    # The repr keeps exception detail a str() would lose.
                    results.append(crash_result(i, spec, f"{type(e).__name__}: {e!r}"))
        return results


def run_specs(specs: Sequence[RunSpec], jobs: Optional[int] = None) -> RunReport:
    """One-call convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(jobs=jobs).run(specs)
