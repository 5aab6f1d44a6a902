#!/usr/bin/env python
"""Regenerate the golden regression traces.

Usage (from the repo root)::

    PYTHONPATH=src python tests/regression/regen_golden.py

The traces pin the observable behaviour of two canonical workloads —
the quickstart pipeline and a small Figure-8 decode — at fixed
parameters: total cycles, per-task busy cycles and step counts,
counter totals, and the sha256 of the per-stream byte histories.
``tests/regression/test_golden_traces.py`` fails with a readable diff
when any of these drift.

It also writes the execution-core digest corpus
(``golden/engine_corpus.json``, checked by
``tests/regression/test_engine_corpus.py``): a fixed grid of seeded
conformance points pinned by the sha256 of their full result and
state digest (or, for points that deadlock, the verdict cycle and the
sha256 of the diagnosis text), the record-for-record operation logs of
the quickstart and of two faulted conformance runs, the state digests
of a mid-run capture and its restore, and the sha256 of the
Chrome-trace/Perfetto export of six span-traced runs.

Regenerate (and commit the diff) only when a change is *supposed* to
shift timing or histories — e.g. a scheduler or cache-model change —
and say why in the commit message.  A drift you cannot explain is a
regression, not a new golden.
"""

from __future__ import annotations

import json
import os
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: workload name -> (factory dotted path, kwargs).  Kwargs are part of
#: the trace so a parameter change shows up as an explicit diff.
WORKLOADS = {
    "quickstart": ("repro.workloads:quickstart_run", {"payload_len": 4096}),
    "figure8_decode": (
        "repro.workloads:decode_run",
        {"width": 48, "height": 32, "frames": 4, "gop_n": 4, "gop_m": 2},
    ),
    # faulted variant: a lossy/jittery fabric with the watchdog healing
    # it — pins the recovery machinery's schedule, not just the happy
    # path (drops, retries and recoveries are part of the trace)
    "conformance_faulted": (
        "repro.workloads:conformance_run",
        {
            "graph": "diamond",
            "payload_len": 2048,
            "fault_spec": "chaos",
            "fault_seed": 7,
            "watchdog_timeout": 2000,
        },
    ),
    # lossy network ingest: drops survive FEC/RTX, frames are concealed
    # — pins the transport recovery schedule and the degradation
    # accounting alongside the decode timing (docs/networking.md)
    "conferencing_lossy": (
        "repro.workloads:conferencing_run",
        {
            "frames": 4,
            "gop_n": 4,
            "gop_m": 2,
            "audio_blocks": 4,
            "loss_spec": "drop=0.25,fec_group=4,max_rtx=1,seed=7",
        },
    ),
}

#: checkpoint variant name -> (base workload, boundary cycle).  The
#: trace pins the state digest at a mid-run quiescent boundary AND the
#: final result after resuming — so advance()+run() staying equivalent
#: to one uninterrupted run() is regression-checked.
CHECKPOINTS = {
    "quickstart_midrun": ("quickstart", 1500),
    "conformance_faulted_midrun": ("conformance_faulted", 3000),
}


def _run_workload(name: str):
    from repro.runner import resolve_factory

    factory_path, kwargs = WORKLOADS[name]
    system, graph = resolve_factory(factory_path)(**kwargs)
    system.configure(graph)
    return system


def build_trace(name: str) -> dict:
    """Run one canonical workload and distill its golden trace."""
    from repro.runner import _histories_digest

    factory_path, kwargs = WORKLOADS[name]
    system = _run_workload(name)
    result = system.run()
    trace = {
        "workload": {"factory": factory_path, "kwargs": kwargs},
        "cycles": result.cycles,
        "completed": result.completed,
        "tasks": {
            tname: {
                "coprocessor": t.coprocessor,
                "steps_completed": t.steps_completed,
                "busy_cycles": t.busy_cycles,
                "compute_cycles": t.compute_cycles,
            }
            for tname, t in sorted(result.tasks.items())
        },
        "counters": {
            "messages_sent": result.messages_sent,
            "cpu_sync_ops": result.cpu_sync_ops,
            "total_stream_bytes": sum(
                s.bytes_transferred for s in result.streams.values()
            ),
            "denied_getspace": sum(s.denied_getspace for s in result.streams.values()),
            "granted_getspace": sum(s.granted_getspace for s in result.streams.values()),
            "putspace_messages": sum(s.putspace_messages for s in result.streams.values()),
        },
        "histories_sha256": _histories_digest(result.histories),
    }
    if result.robustness is not None:
        rob = result.robustness
        trace["robustness"] = {
            "messages_dropped": rob["messages_dropped"],
            "watchdog_fires": rob["watchdog_fires"],
            "retries_sent": rob["retries_sent"],
            "recoveries": rob["recoveries"],
        }
    if result.degradation is not None:
        trace["degradation"] = result.degradation
    return trace


def build_checkpoint_trace(name: str) -> dict:
    """Advance a workload to a mid-run boundary, pin the state digest,
    resume to completion, and pin the final result."""
    from repro.runner import _histories_digest

    base, boundary = CHECKPOINTS[name]
    system = _run_workload(base)
    system.advance(boundary)
    digest = system.state_digest()
    result = system.run()
    return {
        "base_workload": base,
        "boundary_cycle": boundary,
        "boundary_state_digest": digest,
        "final_cycles": result.cycles,
        "completed": result.completed,
        "histories_sha256": _histories_digest(result.histories),
    }


#: the corpus grid: every point runs ``conformance_run`` with the
#: watchdog at 2000 cycles.  Fault seeds per plan: a fault-free run is
#: seed-independent; ``drop`` covers the seeds that exercise the
#: drop-recovery deadlock (pipeline on 2 coprocessors at 384/528/768 B,
#: diamond at 288 B on 3-4 coprocessors) — those points are pinned as
#: expected deadlocks, not stepped around.
CORPUS_GRAPHS = ("pipeline", "diamond")
CORPUS_FAULT_SEEDS = {
    "none": (0,),
    "chaos": (0, 7),
    "drop": (2, 3, 4, 7),
    "delay": (0, 7),
}
CORPUS_COPROCS = (2, 3, 4)
CORPUS_PAYLOADS = (128, 288, 384, 528, 768)
#: quickstart op-log and checkpoint points of the corpus
CORPUS_OPLOG_PAYLOAD = 2048
CORPUS_CHECKPOINT = ("repro.workloads:quickstart_run", {"payload_len": 4096}, 1000)
#: faulted op-log points: their fabric records include PutSpaceMsgs the
#: injector drops (both) and duplicates (chaos), and watchdog retries
CORPUS_FAULTED_OPLOGS = {
    "diamond_chaos": {"graph": "diamond", "fault_spec": "chaos", "fault_seed": 7},
    "pipeline_drop": {"graph": "pipeline", "fault_spec": "drop", "fault_seed": 0},
}
#: span-traced runs pinned by their Perfetto export: name -> (factory,
#: kwargs, tracer capacity, cycle of a mid-run checkpoint or None)
CORPUS_PERFETTO = {
    "quickstart_full": ("repro.workloads:quickstart_run", {"payload_len": 4096}, 100_000, None),
    "quickstart_series": (
        "repro.workloads:quickstart_run",
        {"payload_len": 4096, "obs_level": "series"},
        100_000,
        None,
    ),
    "decode_run": ("repro.workloads:decode_run", {}, 100_000, None),
    "stalled_pipeline_checkpoint": (
        "repro.workloads:conformance_run",
        {"graph": "pipeline", "payload_len": 512, "fault_spec": "stall=0.5,seed=3"},
        100_000,
        1500,
    ),
    "chaos_diamond": (
        "repro.workloads:conformance_run",
        {"graph": "diamond", "fault_spec": "chaos", "fault_seed": 7},
        100_000,
        None,
    ),
    "quickstart_ring16": ("repro.workloads:quickstart_run", {"payload_len": 4096}, 16, None),
}


def corpus_points():
    """The corpus grid as ``conformance_run`` kwargs, in a fixed order."""
    for graph in CORPUS_GRAPHS:
        for fault_spec, seeds in CORPUS_FAULT_SEEDS.items():
            for fault_seed in seeds:
                for n_coprocs in CORPUS_COPROCS:
                    for payload_len in CORPUS_PAYLOADS:
                        yield {
                            "graph": graph,
                            "payload_len": payload_len,
                            "fault_spec": fault_spec,
                            "fault_seed": fault_seed,
                            "watchdog_timeout": 2000,
                            "n_coprocs": n_coprocs,
                        }


def _sha256_json(value) -> str:
    import hashlib

    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def corpus_entry(kwargs: dict) -> dict:
    """Run one grid point and distill its corpus entry."""
    import hashlib

    from repro.core.system import DeadlockError
    from repro.workloads import conformance_run

    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    try:
        result = system.run()
    except DeadlockError as exc:
        return {
            "kwargs": kwargs,
            "deadlock": {
                "cycle": system.sim.now,
                "message_sha256": hashlib.sha256(str(exc).encode("utf-8")).hexdigest(),
            },
        }
    return {
        "kwargs": kwargs,
        "result_sha256": _sha256_json(result.to_dict(include_histories=True)),
        "state_digest": system.state_digest(),
    }


def _oplog_digest(system) -> dict:
    """Run a configured system under an op log; digest its records."""
    from dataclasses import astuple

    from repro.trace.oplog import OpLog

    log = OpLog(system, capacity=100_000)
    system.run()
    records = [astuple(r) for r in log.records]
    return {
        "records": len(records),
        "dropped": log.dropped,
        "records_sha256": _sha256_json(records),
    }


def corpus_oplog() -> dict:
    """Record-for-record digest of the quickstart's operation log."""
    from repro.workloads import quickstart_run

    system, graph = quickstart_run(payload_len=CORPUS_OPLOG_PAYLOAD)
    system.configure(graph)
    return {"payload_len": CORPUS_OPLOG_PAYLOAD, **_oplog_digest(system)}


def corpus_faulted_oplog(name: str) -> dict:
    """Record-for-record digest of a faulted conformance run's op log."""
    from repro.workloads import conformance_run

    kwargs = CORPUS_FAULTED_OPLOGS[name]
    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    entry = {"kwargs": kwargs, **_oplog_digest(system)}
    stats = system.fault_injector.stats
    entry["messages_dropped"] = stats.messages_dropped
    entry["messages_duplicated"] = stats.messages_duplicated
    return entry


def corpus_perfetto(name: str) -> dict:
    """sha256 of the canonical Chrome-trace export of a traced run."""
    from repro.runner import resolve_factory

    factory, kwargs, capacity, checkpoint = CORPUS_PERFETTO[name]
    system, graph = resolve_factory(factory)(**kwargs)
    system.configure(graph)
    tracer = system.attach_tracer(capacity=capacity)
    if checkpoint is not None:
        system.advance(checkpoint)
        system.export_state()
    system.run()
    trace = tracer.to_chrome_trace()
    return {
        "factory": factory,
        "kwargs": kwargs,
        "capacity": capacity,
        "checkpoint": checkpoint,
        "events": len(trace["traceEvents"]),
        "dropped": tracer.dropped,
        "trace_sha256": _sha256_json(trace),
    }


def corpus_checkpoint() -> dict:
    """State digests of a mid-run capture and of its restore."""
    from repro.resilience.snapshot import capture, restore
    from repro.runner import resolve_factory

    factory, kwargs, cycle = CORPUS_CHECKPOINT
    system, graph = resolve_factory(factory)(**kwargs)
    system.configure(graph)
    system.advance(cycle)
    snap = capture(system, factory, kwargs)
    restored = restore(snap)
    return {
        "factory": factory,
        "kwargs": kwargs,
        "cycle": cycle,
        "capture_digest": snap.digest,
        "restore_digest": restored.state_digest(),
    }


def build_corpus() -> dict:
    return {
        "points": [corpus_entry(kw) for kw in corpus_points()],
        "oplog": corpus_oplog(),
        "oplog_faulted": {n: corpus_faulted_oplog(n) for n in CORPUS_FAULTED_OPLOGS},
        "checkpoint": corpus_checkpoint(),
        "perfetto": {n: corpus_perfetto(n) for n in CORPUS_PERFETTO},
    }


def write_corpus(corpus: dict, path: str) -> None:
    """One grid point per line, so a drift diffs to the points it moved."""
    with open(path, "w") as fh:
        fh.write('{\n  "checkpoint": ')
        fh.write(json.dumps(corpus["checkpoint"], sort_keys=True))
        fh.write(',\n  "oplog": ')
        fh.write(json.dumps(corpus["oplog"], sort_keys=True))
        for section in ("oplog_faulted", "perfetto"):
            fh.write(f',\n  "{section}": {{\n')
            fh.write(",\n".join(
                f"    {json.dumps(n)}: {json.dumps(e, sort_keys=True)}"
                for n, e in sorted(corpus[section].items())
            ))
            fh.write("\n  }")
        fh.write(',\n  "points": [\n')
        fh.write(",\n".join(
            "    " + json.dumps(p, sort_keys=True) for p in corpus["points"]
        ))
        fh.write("\n  ]\n}\n")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in WORKLOADS:
        trace = build_trace(name)
        path = golden_path(name)
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}  (cycles={trace['cycles']})")
    for name in CHECKPOINTS:
        trace = build_checkpoint_trace(name)
        path = golden_path(name)
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}  (final_cycles={trace['final_cycles']})")
    corpus = build_corpus()
    path = golden_path("engine_corpus")
    write_corpus(corpus, path)
    deadlocks = sum(1 for p in corpus["points"] if "deadlock" in p)
    print(f"wrote {os.path.relpath(path)}  ({len(corpus['points'])} points, "
          f"{deadlocks} expected deadlocks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
