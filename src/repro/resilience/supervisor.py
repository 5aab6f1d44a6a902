"""Supervised sweep execution: checkpointed workers, crash recovery.

The :class:`~repro.runner.ParallelRunner` has no recovery: a dead
worker breaks its process pool and every run the pool still owed is
reported as crashed.  The :class:`Supervisor` is the one failure
policy for long sweeps.  It runs each :class:`~repro.runner.RunSpec`
in its own ``multiprocessing`` worker, which calls the runner's own
executor (:func:`repro.runner.execute`) with a checkpoint hook that

1. advances the system ``checkpoint_interval`` cycles at a time,
2. runs the online invariant monitors at every boundary
   (:mod:`repro.resilience.monitors` — a corrupt run is *failed with a
   diagnosis*, never resumed),
3. writes an atomic, checksummed :class:`~repro.resilience.snapshot.
   SystemSnapshot` plus a heartbeat file, and
4. writes the final :class:`~repro.runner.RunResult` when done.

The supervisor polls worker liveness (process exit) and heartbeats
(hang detection); a crashed or hung worker is replaced by a fresh one
that resumes from the last checkpoint, up to ``max_restarts`` per run.
Because all progress lives in files, the *whole sweep* is equally
resumable: re-running with ``resume=True`` (CLI ``--resume <dir>``)
skips completed runs and continues interrupted ones from their
checkpoints.

Checkpoint directory layout::

    <dir>/sweep.json          sweep identity (schema, specs, digest)
    <dir>/run-000.ckpt.json   latest snapshot of run 0
    <dir>/run-000.hb          heartbeat (mtime = last worker progress)
    <dir>/run-000.result.json final RunResult of run 0

Reports match the plain runner bit for bit: a supervised sweep's
deterministic ``RunReport.to_dict()`` equals a ``ParallelRunner`` run
of the same specs — checkpointing is invisible in the results.  One
executor builds every result, so failing runs match too, traceback
included — except an exception raised mid-simulation, whose traceback
shows the checkpoint loop's ``advance()`` frames, not ``run()``'s.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.resilience.monitors import MonitorSuite
from repro.core.system import EclipseSystem
from repro.resilience.snapshot import (
    SystemSnapshot,
    capture,
    encode_value,
    factory_ref,
    restore,
)
from repro.runner import RunReport, RunResult, RunSpec, crash_result, execute

__all__ = ["Supervisor", "SupervisorError", "SWEEP_SCHEMA"]

SWEEP_SCHEMA = "repro.supervisor/1"

#: default checkpoint cadence in simulated cycles; chosen so checkpoint
#: overhead stays well under 15% on the stock workloads (measured in
#: ``benchmarks/bench_resilience.py``)
DEFAULT_INTERVAL = 4096


class SupervisorError(RuntimeError):
    """Sweep-level misuse: bad directory, mismatched resume, ..."""


# ----------------------------------------------------------------------
# file layout
# ----------------------------------------------------------------------
def _sweep_path(d: str) -> str:
    return os.path.join(d, "sweep.json")


def _ckpt_path(d: str, i: int) -> str:
    return os.path.join(d, f"run-{i:03d}.ckpt.json")


def _result_path(d: str, i: int) -> str:
    return os.path.join(d, f"run-{i:03d}.result.json")


def _hb_path(d: str, i: int) -> str:
    return os.path.join(d, f"run-{i:03d}.hb")


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _spec_payloads(specs: Sequence[RunSpec]) -> List[dict]:
    return [
        {
            "factory": factory_ref(spec.factory),
            "kwargs": {k: encode_value(v) for k, v in sorted(spec.kwargs.items())},
            "label": spec.describe(),
        }
        for spec in specs
    ]


def _spec_drift(stored: List[dict], current: List[dict]) -> str:
    """Where a checkpointed sweep's spec list first departs from the
    one being resumed (kwargs by name only: values may be bitstreams)."""
    if len(stored) != len(current):
        return f"{len(stored)} run(s) there, {len(current)} here"
    for i, (old, new) in enumerate(zip(stored, current)):
        for field_name in ("factory", "label"):
            if old.get(field_name) != new[field_name]:
                return f"run {i} has a different {field_name}"
        old_kw, new_kw = old.get("kwargs", {}), new["kwargs"]
        for key in sorted(set(old_kw) | set(new_kw)):
            if key not in new_kw:
                return f"run {i} passes {key!r} there, not here"
            if key not in old_kw:
                return f"run {i} passes {key!r} here, not there"
            if old_kw[key] != new_kw[key]:
                return f"run {i} passes a different {key!r}"
    return "same specs"


def _sweep_digest(payloads: List[dict]) -> str:
    import hashlib

    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# worker (runs in a child process; all progress goes through files)
# ----------------------------------------------------------------------
def _touch(path: str) -> None:
    with open(path, "a", encoding="utf-8"):
        pass
    os.utime(path, None)


@dataclass
class _Worker:
    """One supervised run; ``main`` is its worker process's target.

    ``main`` calls :func:`repro.runner.execute` with this object as the
    checkpoint hook and writes the result file.  ``resume`` restores
    the run from its snapshot when one exists.  ``drive`` advances the
    system ``interval`` cycles at a time; at each quiescent boundary it
    runs the invariant monitors (a corrupt run is failed with a
    diagnosis, never checkpointed), writes the snapshot and touches the
    heartbeat.

    ``sabotage`` is the test harness's crash injector:
    ``{"crash_after_checkpoints": k}`` hard-exits after the k-th
    checkpoint; ``{"hang": true}`` stops heartbeating without exiting.
    The supervisor only passes it to a run's *first* worker, so the
    replacement worker completes the run.
    """

    index: int
    spec: RunSpec
    directory: str
    interval: int
    monitor_ids: Optional[Tuple[str, ...]]
    verify_restore: bool
    sabotage: dict

    def main(self) -> None:
        if self.sabotage.get("hang"):
            _touch(_hb_path(self.directory, self.index))
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(0.5)
        if self.sabotage.get("crash_after_checkpoints") == 0:
            os._exit(17)  # crash before any checkpoint exists
        result = execute(self.index, self.spec, checkpoint=self)
        _atomic_write_json(_result_path(self.directory, self.index),
                           result.to_dict(include_timing=True))

    def resume(self) -> Optional[EclipseSystem]:
        ckpt = _ckpt_path(self.directory, self.index)
        if not os.path.exists(ckpt):
            return None
        return restore(SystemSnapshot.load(ckpt), verify=self.verify_restore)

    def drive(self, system: EclipseSystem) -> None:
        ckpt = _ckpt_path(self.directory, self.index)
        hb = _hb_path(self.directory, self.index)
        crash_after = self.sabotage.get("crash_after_checkpoints")
        suite = MonitorSuite(self.monitor_ids)
        _touch(hb)
        checkpoints = 0
        finished = system.all_finished()
        while not finished:
            finished = system.advance(system.sim.now + self.interval)
            suite.check_or_raise(system)
            if finished:
                break  # a finished run needs finalizing, not a checkpoint
            if system.sim.peek() is None:
                break  # drained with unfinished tasks: run() will diagnose
            # Only quiescent boundaries are checkpointed: advance()
            # stopped *before* the events at this cycle, so a replayed
            # advance() to the same cycle reproduces the state exactly.
            capture(system, self.spec.factory, self.spec.kwargs).save(ckpt)
            system.resilience["checkpoints_written"] += 1
            _touch(hb)
            checkpoints += 1
            if crash_after is not None and checkpoints >= crash_after:
                os._exit(17)


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
@dataclass
class _Job:
    proc: multiprocessing.Process
    started: float


class Supervisor:
    """Crash-tolerant sweep executor over a checkpoint directory."""

    def __init__(
        self,
        checkpoint_dir: str,
        interval: int = DEFAULT_INTERVAL,
        jobs: int = 1,
        heartbeat_timeout: float = 30.0,
        poll_interval: float = 0.05,
        max_restarts: int = 2,
        monitors: Optional[Sequence[str]] = None,
        verify_restore: bool = True,
    ):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.checkpoint_dir = checkpoint_dir
        self.interval = interval
        self.jobs = jobs
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.max_restarts = max_restarts
        self.monitors = tuple(monitors) if monitors is not None else None
        if self.monitors is not None:
            MonitorSuite(self.monitors)  # validate ids here, not in a worker
        self.verify_restore = verify_restore
        #: test hook: run index -> sabotage dict for the FIRST worker of
        #: that run (crash_after_checkpoints / hang); replacements run
        #: clean, which is exactly what the recovery tests need
        self.sabotage: Dict[int, dict] = {}
        #: the supervisor's own health feed (worker lifecycle, restart
        #: causes, queue depth).  Deliberately NOT part of the
        #: RunReport: the report's deterministic payload must equal a
        #: plain ParallelRunner's bit for bit, and restart counts are
        #: anything but deterministic.  Read it after run() — e.g. the
        #: CLI prints it with --verbose; a sweep service would poll it.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec], resume: bool = False) -> RunReport:
        """Execute (or resume) the sweep; results come back in spec
        order, deterministic payload identical to a plain runner's."""
        specs = list(specs)
        d = self.checkpoint_dir
        os.makedirs(d, exist_ok=True)
        payloads = _spec_payloads(specs)
        digest = _sweep_digest(payloads)
        sweep_file = _sweep_path(d)
        if os.path.exists(sweep_file):
            with open(sweep_file, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if existing.get("digest") != digest:
                raise SupervisorError(
                    f"checkpoint dir {d!r} holds a different sweep "
                    f"(digest {existing.get('digest', '?')[:12]} != "
                    f"{digest[:12]}: "
                    f"{_spec_drift(existing.get('specs', []), payloads)}); "
                    f"use a fresh directory or the original spec list"
                )
            if not resume:
                raise SupervisorError(
                    f"checkpoint dir {d!r} already holds this sweep; "
                    f"pass resume=True (CLI: --resume) to continue it"
                )
        else:
            if resume:
                raise SupervisorError(
                    f"nothing to resume: {sweep_file!r} does not exist"
                )
            _atomic_write_json(sweep_file, {
                "schema": SWEEP_SCHEMA,
                "digest": digest,
                "interval": self.interval,
                "specs": payloads,
            })

        start = time.perf_counter()
        notes: List[str] = []
        results: Dict[int, RunResult] = {}
        pending: List[int] = []
        for i in range(len(specs)):
            done = self._load_result(i)
            if done is not None:
                results[i] = done
                if resume:
                    notes.append(f"run {i}: already complete, skipped")
                    self.metrics.counter("supervisor.runs_resumed").inc()
            else:
                pending.append(i)
        self.metrics.counter("supervisor.runs_total").inc(len(specs))
        queue_depth = self.metrics.histogram("supervisor.queue_depth")

        active: Dict[int, _Job] = {}
        restarts: Dict[int, int] = {i: 0 for i in pending}
        ctx = multiprocessing.get_context()
        while pending or active:
            queue_depth.observe(len(pending))
            while pending and len(active) < self.jobs:
                i = pending.pop(0)
                active[i] = self._spawn(ctx, i, specs[i],
                                        first=restarts[i] == 0)
            finished_jobs: List[int] = []
            for i, job in active.items():
                if job.proc.is_alive():
                    if self._heartbeat_age(i, job) <= self.heartbeat_timeout:
                        continue
                    hung = True
                    self.metrics.counter("supervisor.worker_hangs").inc()
                    job.proc.terminate()
                    job.proc.join(timeout=5.0)
                    if job.proc.is_alive():  # pragma: no cover - stubborn
                        job.proc.kill()
                        job.proc.join()
                    cause = f"no heartbeat for {self.heartbeat_timeout:g}s"
                    what = f"hung (heartbeat >{self.heartbeat_timeout:g}s)"
                else:
                    job.proc.join()
                    got = self._load_result(i)
                    if got is not None:
                        results[i] = got
                        finished_jobs.append(i)
                        continue
                    # died without a result file: a genuine crash
                    hung = False
                    self.metrics.counter("supervisor.worker_crashes").inc()
                    cause = f"exit code {job.proc.exitcode!r}"
                    what = f"died (exit {job.proc.exitcode!r})"
                if restarts[i] >= self.max_restarts:
                    kind = "WorkerHung" if hung else "WorkerCrashed"
                    results[i] = crash_result(
                        i, specs[i],
                        f"{kind}: {cause} after {restarts[i]} restart(s)",
                        hung=hung,
                    )
                    finished_jobs.append(i)
                    continue
                restarts[i] += 1
                notes.append(
                    f"run {i}: worker {what}, restart {restarts[i]} "
                    f"from checkpoint"
                )
                active[i] = self._spawn(ctx, i, specs[i], first=False)
            for i in finished_jobs:
                del active[i]
            if active:
                time.sleep(self.poll_interval)
        total_restarts = sum(restarts.values())
        if total_restarts:
            notes.append(f"total worker restarts: {total_restarts}")
        self.metrics.counter("supervisor.worker_restarts").inc(total_restarts)
        self.metrics.counter("supervisor.runs_failed").inc(
            sum(1 for r in results.values() if not r.ok)
        )
        self.metrics.gauge("supervisor.wall_time").set(
            round(time.perf_counter() - start, 4)
        )
        ordered = [results[i] for i in range(len(specs))]
        return RunReport(
            results=ordered,
            jobs=self.jobs,
            wall_time=time.perf_counter() - start,
            serial_time_estimate=sum(r.wall_time for r in ordered),
            notes=notes,
        )

    # ------------------------------------------------------------------
    def _spawn(self, ctx, index: int, spec: RunSpec, first: bool) -> _Job:
        self.metrics.counter("supervisor.workers_spawned").inc()
        hb = _hb_path(self.checkpoint_dir, index)
        _touch(hb)  # a fresh worker gets a full heartbeat budget
        worker = _Worker(index, spec, self.checkpoint_dir, self.interval,
                         self.monitors, self.verify_restore,
                         self.sabotage.get(index, {}) if first else {})
        proc = ctx.Process(target=worker.main, daemon=True)
        proc.start()
        return _Job(proc=proc, started=time.monotonic())

    def _heartbeat_age(self, index: int, job: _Job) -> float:
        try:
            mtime = os.path.getmtime(_hb_path(self.checkpoint_dir, index))
        except OSError:
            return time.monotonic() - job.started
        return time.time() - mtime

    def _load_result(self, index: int) -> Optional[RunResult]:
        path = _result_path(self.checkpoint_dir, index)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None  # half-written by a dying worker: redo the run
        return RunResult.from_dict(data)
