"""Every metric the benchmark reports: unit, better direction, and for
the per-layer metrics the layer they measure and the end-to-end metric
and workload they are predicted to move.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions; ``test_catalog.py`` keeps the two in step.
"""

from __future__ import annotations

WORKLOADS = {
    "decode": "distinct synthetic sequences, encode plus Figure 8 decode at full obs: "
              "ME, event kernel, shell, bus, cache and obs hooks all show, no cache can",
    "kpn_faulted": "diamond KPN under the chaos fault plan, no media: all host time is "
                   "event kernel, shell, messages, cache, hw and fault recovery",
    "sweep": "bursts of decode_run design points at a sweep service over a fresh store: "
             "the only workload where cross-request reuse (store, warm workers) can pay",
}

#: name -> (unit, better, meaning); host times are at the reference host
#: speed of hostspeed.py
END_TO_END = {
    "setup_s": ("s", "lower", "imports and one-time construction before the first "
                "request; median of five set-ups"),
    "wall_s": ("s", "lower", "mean host time of one round, the workload's fixed request set"),
    "request_s.mean": ("s", "lower", "mean request latency, factory call or submit to "
                       "serialized result bytes (sweep: executed requests)"),
    "sim_cycles_per_s": ("cycles/s", "higher", "simulated cycles per host second"),
    "sim_cycles": ("cycles", "lower", "simulated cycles of round 0; exact"),
    "peak_rss_mb": ("MB", "lower", "peak resident set of the benchmark process plus its workers"),
}

_E2E = "wall_s, request_s.mean"
_SIM = "sim_cycles_per_s"
_ALL = "decode, kpn_faulted, sweep"

#: name -> (unit, better, layer, moves, on which workloads)
PER_LAYER = {
    # phase spans, untraced, per request (sweep: the in-process design point)
    "phase.synth_s": ("s", "lower", "media.video", "nothing (outside request_s)", "decode"),
    "phase.encode_s": ("s", "lower", "media.codec", _E2E, "decode"),
    "phase.build_s": ("s", "lower", "workloads", "setup_s if work moves there", _ALL),
    "phase.configure_s": ("s", "lower", "core.system", "setup_s if work moves there", _ALL),
    "phase.run_s": ("s", "lower", "sim+core+hw", f"{_E2E}, {_SIM}", _ALL),
    "phase.serialize_s": ("s", "lower", "core.system", "request_s.mean", _ALL),
    # traced self time inside encode and run(), by source module
    "sim.self_s": ("s", "lower", "sim", _SIM, "kpn_faulted, decode"),
    "core.shell.self_s": ("s", "lower", "core.shell", _SIM, "kpn_faulted, decode"),
    "core.scheduler.self_s": ("s", "lower", "core.scheduler", _SIM, "kpn_faulted, decode"),
    "core.coprocessor.self_s": ("s", "lower", "core.coprocessor", _SIM, "kpn_faulted, decode"),
    "core.messages.self_s": ("s", "lower", "core.messages", _SIM, "kpn_faulted, decode"),
    "core.cache.self_s": ("s", "lower", "core.cache", _SIM, "kpn_faulted, decode"),
    "core.system.self_s": ("s", "lower", "core (rest)", _SIM, "kpn_faulted, decode"),
    "hw.self_s": ("s", "lower", "hw", _SIM, "kpn_faulted, decode"),
    "media.self_s": ("s", "lower", "media", _E2E, "decode"),
    "media.motion.estimate_s": ("s", "lower", "media.motion", _E2E, "decode"),
    "kahn.self_s": ("s", "lower", "kahn", _SIM, "kpn_faulted, decode"),
    "obs.self_s": ("s", "lower", "obs+trace", _SIM, "decode; ~0 on sweep (obs off)"),
    "resilience.self_s": ("s", "lower", "resilience+sim.faults", _SIM, "kpn_faulted"),
    "other.self_s": ("s", "lower", "numpy+stdlib", _E2E, _ALL),
    "bench.self_s": ("s", "lower", "benchmark call counters", "nothing (traced run only)", _ALL),
    "trace.run_self_coverage": ("ratio", "higher", "profiler", "nothing: sum of run() self "
                                "times over traced run() wall, must be within 5% of 1", _ALL),
    "trace.overhead": ("x", "lower", "profiler", "nothing: traced over untraced wall", _ALL),
    # traced counts, exact
    "sim.events": ("count", "lower", "sim", _SIM, "kpn_faulted, decode"),
    "sim.timeouts": ("count", "lower", "sim", _SIM, "kpn_faulted, decode"),
    "sim.process_resumes": ("count", "lower", "sim", _SIM, "kpn_faulted, decode"),
    "sim.host_us_per_event": ("us", "lower", "sim", _SIM, "kpn_faulted, decode"),
    "shell.get_space.calls": ("count", "lower", "core.shell", _SIM, "kpn_faulted, decode"),
    "shell.put_space.calls": ("count", "lower", "core.shell", _SIM, "kpn_faulted, decode"),
    "shell.read.calls": ("count", "lower", "core.shell", _SIM, "kpn_faulted, decode"),
    "shell.write.calls": ("count", "lower", "core.shell", _SIM, "kpn_faulted, decode"),
    "hw.bus.transfers": ("count", "lower", "hw", _SIM, "kpn_faulted, decode"),
    "media.motion.estimate.calls": ("count", "lower", "media.motion", _E2E, "decode"),
    # simulated statistics from SystemResult, exact; move sim_cycles only
    "shell.getspace_denied_ratio": ("ratio", "lower", "core.shell", "sim_cycles", _ALL),
    "scheduler.step_success_ratio": ("ratio", "higher", "core.scheduler", "sim_cycles", _ALL),
    "cache.hit_rate": ("ratio", "higher", "core.cache", "sim_cycles", _ALL),
    "hw.read_bus_util": ("ratio", "lower", "hw", "sim_cycles", _ALL),
    "hw.write_bus_util": ("ratio", "lower", "hw", "sim_cycles", _ALL),
    "messages.sent": ("count", "lower", "core.messages", "sim_cycles", _ALL),
    "task.stall_cycles": ("cycles", "lower", "core.coprocessor", "sim_cycles", _ALL),
    "resilience.messages_dropped": ("count", "lower", "resilience", "sim_cycles", "kpn_faulted"),
    "resilience.corruptions_detected": ("count", "lower", "resilience", "sim_cycles",
                                        "kpn_faulted"),
    "resilience.watchdog_fires": ("count", "lower", "resilience", "sim_cycles", "kpn_faulted"),
    "resilience.retries_sent": ("count", "lower", "resilience", "sim_cycles", "kpn_faulted"),
    "resilience.recoveries": ("count", "lower", "resilience", "sim_cycles", "kpn_faulted"),
    # service, benchmark-side spans plus the service's started/finished events
    "hit_s.p50": ("s", "lower", "service", "the sweep's store-hit latency", "sweep"),
    "service.execute_s.p50": ("s", "lower", "service+runner", "wall_s", "sweep"),
    "service.queue_wait_s.p50": ("s", "lower", "service", "wall_s", "sweep"),
    "service.cache_key_s.p50": ("s", "lower", "service.cachekey", "hit_s.p50", "sweep"),
    "service.store_get_s.p50": ("s", "lower", "service.store", "hit_s.p50", "sweep"),
    "service.store_put_s.p50": ("s", "lower", "service.store", "request_s.mean", "sweep"),
    "runner.serialize_s": ("s", "lower", "runner", "request_s.mean", "sweep"),
    "service.hit_ratio": ("ratio", "higher", "service", "fixed by the request list", "sweep"),
    "service.executions": ("count", "lower", "service", "equals the distinct misses", "sweep"),
    # correctness
    "error_rate": ("ratio", "lower", "all", "failed or wrong requests over attempted", _ALL),
}
