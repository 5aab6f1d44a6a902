"""End-to-end and per-layer benchmark of the Eclipse reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 33 --trace 1

``--trace 0`` measures rounds of the workload's fixed request set for
about ``--seconds`` and reports the end-to-end metrics, host times
scaled to a reference host speed (hostspeed.py); ``--trace 1`` runs
round 0 untraced and again under the profiler and reports the
per-layer metrics.  Every output is checked before any number is
recorded; a wrong output, a non-deterministic simulation or a traced
run that differs from the untraced one makes the exit code 1.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: set-ups per run whose median is setup_s: this process plus probes
SETUPS = 5
#: seconds of reference loop after each set-up, to scale its time
SETUP_CALIBRATION_S = 0.2
#: share of each round's wall time spent in the reference loop after it
ROUND_CALIBRATION = 0.05


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("decode", "kpn_faulted", "sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up seconds and exit")
    return ap.parse_args(argv)


def probe_setup(args) -> float:
    """One set-up in a fresh interpreter, imports included."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def p50(values):
    return statistics.median(values) if values else 0.0


def measure(wl, seconds, speed):
    """Rounds of the fixed request set, each followed by the reference
    loop, ending at the round end nearest to ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.run_round(len(rounds)))
        speed.sample(ROUND_CALIBRATION * rounds[-1].wall)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def end_to_end(wl, rounds, setups, speed):
    """Host times are means over the run, at the reference host speed:
    on a shared host they drift over minutes, and the mean of a run
    spreads less between runs than its median does (README.md,
    "Steadiness")."""
    executed = [s for r in rounds for s in r.served if s.cache == "miss"]
    return {
        "setup_s": p50(setups),
        "wall_s": speed.scale(statistics.fmean(r.wall for r in rounds)),
        "request_s.mean": speed.scale(statistics.fmean(s.latency for s in executed)),
        "sim_cycles_per_s": (sum(s.cycles for s in executed)
                             / speed.scale(sum(r.wall for r in rounds))),
        "sim_cycles": sum(s.cycles for s in rounds[0].served if s.cache == "miss"),
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def simulated(served):
    """Model statistics summed over one round's executed requests."""
    stats = [s.stats for s in served if s.cache == "miss"]
    streams = [st for d in stats for st in d["streams"].values()]
    tasks = [t for d in stats for t in d["tasks"].values()]
    rob = [d.get("robustness") or {} for d in stats]
    denied = sum(st["denied_getspace"] for st in streams)
    granted = sum(st["granted_getspace"] for st in streams)
    done = sum(t["steps_completed"] for t in tasks)
    aborted = sum(t["steps_aborted"] for t in tasks)
    rates = [v for d in stats for v in d["cache_hit_rate"].values()]
    out = {
        "shell.getspace_denied_ratio": denied / max(1, denied + granted),
        "scheduler.step_success_ratio": done / max(1, done + aborted),
        "cache.hit_rate": sum(rates) / max(1, len(rates)),
        "hw.read_bus_util": sum(d["read_bus_utilization"] for d in stats) / len(stats),
        "hw.write_bus_util": sum(d["write_bus_utilization"] for d in stats) / len(stats),
        "messages.sent": sum(d["messages_sent"] for d in stats),
        "task.stall_cycles": sum(t["stall_cycles"] for t in tasks),
    }
    for name in ("messages_dropped", "corruptions_detected", "watchdog_fires",
                 "retries_sent", "recoveries"):
        out[f"resilience.{name}"] = sum(r.get(name, 0) for r in rob)
    return out


def per_layer(wl, spans, base, tracing):
    from repro.media import motion
    from repro.sim.events import Event, Timeout
    from repro.sim.process import Process

    prof = tracing.profile
    sections = ("encode", "build", "run")
    # the sweep's phases come from its untraced in-process design point
    rids = {s.request for s in base.served} | {"sweep-inline"}

    def span_p50(name):
        return p50(list(spans.per_request(name, rids).values()))

    out = {f"phase.{p}_s": span_p50(f"phase.{p}")
           for p in ("synth", "encode", "build", "configure", "run", "serialize")}
    for layer, seconds in prof.self_times(sections).items():
        out[f"{layer}.self_s"] = seconds
    out["media.motion.estimate_s"] = prof.inclusive_time(motion.estimate, sections)
    run_wall = prof.wall.get("run", 0.0)
    out["trace.run_self_coverage"] = (sum(prof.self_times(["run"]).values()) / run_wall
                                      if run_wall else 0.0)
    out["trace.overhead"] = tracing.traced_wall / tracing.base_wall
    events = prof.calls(Event._fire, sections)
    out["sim.events"] = events
    out["sim.timeouts"] = prof.calls(Timeout.__init__, sections)
    out["sim.process_resumes"] = prof.calls(Process._resume, sections)
    run_s = sum(spans.per_request("phase.run", rids).values())
    out["sim.host_us_per_event"] = 1e6 * run_s / events if events else 0.0
    for name, calls in tracing.shells.counts.items():
        out[f"shell.{name}.calls"] = calls
    out["hw.bus.transfers"] = tracing.bus_transfers
    out["media.motion.estimate.calls"] = prof.calls(motion.estimate, sections)
    out.update(simulated(base.served))

    hits = [s.latency for s in base.served if s.cache == "hit"]
    out["hit_s.p50"] = p50(hits)
    out["service.execute_s.p50"] = span_p50("service.execute")
    out["service.queue_wait_s.p50"] = span_p50("service.queue_wait")
    for name in ("service.cache_key_s", "service.store_get_s", "service.store_put_s"):
        out[f"{name}.p50"] = p50(tracing.timings.get(name, []))
    out["runner.serialize_s"] = p50(tracing.timings.get("runner.serialize_s", []))
    out["service.hit_ratio"] = len(hits) / len(base.served)
    out["service.executions"] = tracing.executions
    return out


def report(metrics, units, counts, correct, attempted, failed):
    """The human-readable table, then the one JSON line."""
    for name, value in metrics.items():
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"{name:32s} {value:>16.6g} {units[name]}{n}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import catalog
        from hostspeed import HostSpeed
        from tracing import Spans
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"error: cannot import the benchmark or the package: {e}", file=sys.stderr)
        return 2
    spans = Spans()
    wl = WORKLOADS[args.workload](args.seed, spans)
    try:
        wl.setup()
        setup_main = time.perf_counter() - T0
        setup_speed = HostSpeed(wl.in_process)
        setup_speed.sample(SETUP_CALIBRATION_S)
        setup_main = setup_speed.scale(setup_main)
        if args.setup_probe:
            print(repr(setup_main))
            return 0
        if args.trace:
            base = wl.run_round(0)
            traced, tracing = wl.trace(base)
            for a, b in zip(base.served, traced.served):
                if b.error is None and a.digest != b.digest:
                    b.error = f"{b.request}: traced simulation differs from untraced"
            served = base.served + traced.served
            metrics = per_layer(wl, spans, base, tracing)
            cov = metrics["trace.run_self_coverage"]
            checks = [None if 0.95 <= cov <= 1.05 else
                      f"profiled self times cover {cov:.3f} of the traced run() wall"]
            catalog_metrics, counts = catalog.PER_LAYER, {}
            spans.write(os.path.join(".perfbench_out", f"spans-{args.workload}-{args.seed}.json"))
        else:
            setups = [setup_main] + [probe_setup(args) for _ in range(SETUPS - 1)]
            speed = HostSpeed(wl.in_process)
            rounds = measure(wl, args.seconds, speed)
            metrics = end_to_end(wl, rounds, setups, speed)
            served = [s for r in rounds for s in r.served]
            checks = [wl.recheck(rounds[0])]
            catalog_metrics = catalog.END_TO_END
            n_exec = sum(s.cache == "miss" for s in served)
            counts = {"setup_s": len(setups), "wall_s": len(rounds),
                      "request_s.mean": n_exec, "sim_cycles_per_s": n_exec,
                      "sim_cycles": sum(s.cache == "miss" for s in rounds[0].served)}
    except RuntimeError as e:  # a failed warm-up or an exhausted sweep design
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        wl.close()
    errors = [s.error for s in served if s.error] + [c for c in checks if c]
    attempted = len(served) + len(checks)
    failed = len(errors)
    if args.trace:
        metrics["error_rate"] = failed / attempted
    else:
        print(f"{'error_rate':32s} {failed / attempted:>16.6g} ratio  n={attempted}")
        executed = [s.latency for s in served if s.cache == "miss"]
        print(f"{'request_s.p50':32s} {speed.scale(p50(executed)):>16.6g} s  n={len(executed)}")
        print(f"{'host.slowdown':32s} {speed.slowdown:>16.6g} x  n={len(speed.samples)}")
        hits = [s.latency for s in served if s.cache == "hit"]
        if hits:
            print(f"{'hit_s.p50':32s} {speed.scale(p50(hits)):>16.6g} s  n={len(hits)}")
    metrics = {name: metrics[name] for name in catalog_metrics}
    units = {name: spec[0] for name, spec in catalog_metrics.items()}
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    report(metrics, units, counts, not errors, attempted, failed)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
