#!/usr/bin/env python
"""Core benchmark: run() time per workload and observability level.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/bench_core.py [--quick] [--no-append]

Times ``EclipseSystem.run()`` on three canonical workloads — the
quickstart pipeline, a Figure-8 decode, and a faulted (chaos +
watchdog) conformance run — at every observability level, and checks
two things before it reports any number: repeats of a workload end in
the same state digest (the run is deterministic), and the cycle count
is identical at every level (observation is pure — it must never move
the schedule).

Each invocation appends one entry to the ``BENCH_core.json`` trajectory
at the repo root.  The gate: ``off`` drops histories, fill statistics
and sampling from the hot path, so if it runs slower than ``full``
(``--max-off-overhead``, default 2%) the level plumbing itself has
grown a hot-path cost.

Entries before schema ``repro.bench_core/2`` compared two execution
cores (``reference`` vs ``fast``); there is one core now, so the
trajectory's speedup column stops there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_core.json")
BENCH_SCHEMA = "repro.bench_core/2"
OBS_LEVELS = ("off", "counters", "series", "full")


def _workloads(quick: bool):
    """name -> (factory dotted path, kwargs). Quick mode shrinks the
    decode so the CI smoke run stays in seconds."""
    decode = (
        {"width": 48, "height": 32, "frames": 4, "gop_n": 4, "gop_m": 2}
        if quick
        else {"width": 96, "height": 64, "frames": 6, "gop_n": 6, "gop_m": 3}
    )
    return {
        "quickstart": (
            "repro.workloads:quickstart_run",
            {"payload_len": 4096},
        ),
        "figure8_decode": ("repro.workloads:decode_run", decode),
        "conformance_faulted": (
            "repro.workloads:conformance_run",
            {
                "graph": "diamond",
                "payload_len": 2048 if quick else 4096,
                "fault_spec": "chaos",
                "fault_seed": 7,
                "watchdog_timeout": 2000,
            },
        ),
    }


def _run_once(factory_path: str, kwargs: dict, obs_level: str = "full"):
    """Build, run, and time one workload; returns (seconds, system, result)."""
    from repro.runner import resolve_factory

    system, graph = resolve_factory(factory_path)(obs_level=obs_level, **kwargs)
    system.configure(graph)
    t0 = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - t0
    return elapsed, system, result


def bench_workload(name: str, factory_path: str, kwargs: dict, repeats: int) -> dict:
    levels = {}
    digests = set()
    cycles = {}
    for level in OBS_LEVELS:
        best = None
        # at least two runs at full, so there is a digest to compare
        for _ in range(max(repeats, 2) if level == "full" else repeats):
            elapsed, system, result = _run_once(factory_path, kwargs, level)
            best = elapsed if best is None else min(best, elapsed)
            if level == "full":
                digests.add(system.state_digest())
        cycles[level] = result.cycles
        levels[level] = {"run_s": round(best, 4)}
    full_s = levels["full"]["run_s"]
    for level, lv in levels.items():
        lv["speedup_vs_full"] = round(full_s / lv["run_s"], 3) if lv["run_s"] else 0.0
        lv["cycles_match"] = cycles[level] == cycles["full"]
    return {
        "workload": name,
        "kwargs": kwargs,
        "cycles": cycles["full"],
        "run_s": full_s,
        "deterministic": len(digests) == 1,
        "obs_levels": levels,
    }


def append_trajectory(entry: dict, path: str = BENCH_PATH) -> None:
    trajectory = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small workloads, 1 repeat (the CI smoke mode)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats per level (best-of); default 3, 1 with --quick")
    ap.add_argument("--max-off-overhead", type=float, default=0.02,
                    help="fail if obs_level=off runs more than this fraction "
                    "slower than full (default: 0.02)")
    ap.add_argument("--no-append", action="store_true",
                    help="do not append to BENCH_core.json")
    args = ap.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)

    try:
        import numpy  # noqa: F401
        numpy_ok = True
    except ImportError:
        numpy_ok = False

    rows = []
    print(f"{'workload':<22} {'cycles':>8} {'level':>9} {'run s':>8} "
          f"{'vs full':>8}")
    for name, (factory_path, kwargs) in _workloads(args.quick).items():
        row = bench_workload(name, factory_path, kwargs, repeats)
        rows.append(row)
        for level, lv in row["obs_levels"].items():
            print(f"{name:<22} {row['cycles']:>8} {level:>9} {lv['run_s']:>8.3f} "
                  f"{lv['speedup_vs_full']:>7.2f}x"
                  f"{'' if lv['cycles_match'] else '  CYCLES DRIFT'}")

    entry = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": args.quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": numpy_ok,
        "results": rows,
    }
    if not args.no_append:
        append_trajectory(entry)
        print(f"appended to {os.path.relpath(BENCH_PATH)}")

    failures = []
    for row in rows:
        if not row["deterministic"]:
            failures.append(f"{row['workload']}: repeats end in different states")
        for level, lv in row["obs_levels"].items():
            if not lv["cycles_match"]:
                failures.append(
                    f"{row['workload']}: cycle count drifts at obs_level={level} "
                    "— observation moved the event schedule"
                )
    decode = next(r for r in rows if r["workload"] == "figure8_decode")
    off_s = decode["obs_levels"]["off"]["run_s"]
    full_s = decode["obs_levels"]["full"]["run_s"]
    if full_s and off_s > full_s * (1.0 + args.max_off_overhead):
        failures.append(
            f"figure8_decode obs_level=off ({off_s}s) is more than "
            f"{args.max_off_overhead:.0%} slower than full ({full_s}s) — "
            "the level plumbing added hot-path cost"
        )
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
