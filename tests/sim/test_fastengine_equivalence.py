"""Idle-window compression: the fast path against poll-by-poll stepping.

When the event queue holds nothing but the deadlock monitor's own poll,
no event can ever change progress again, so the monitor leaps straight
to its verdict cycle instead of polling through the idle window.  That
leap is only admissible because it is invisible: every run must reach
the same verdict, at the same cycle, with the same diagnosis text, as
the reference monitor that steps every poll (``monitor_mode``, see
``tests/conftest.py``).  This module holds the monitor to that:

* a total-loss blackout deadlocks identically under both modes, with
  or without a sampler keeping the queue warm;
* compression provably *happens* — the progress polls collapse;
* any other pending event pins the boundary: a sampler's ticks force
  stepping, so its series is poll-exact in both modes;
* a snapshot captured under one mode restores — and digest-verifies —
  under the other, and reaches the uninterrupted run's verdict.
"""

import pytest

from repro.core.config import CoprocessorSpec, SystemParams
from repro.core.system import DeadlockError, EclipseSystem
from repro.resilience.snapshot import SystemSnapshot, capture, restore
from repro.sim.faults import FaultPlan
from repro.trace.sampler import Sampler
from repro.workloads import conformance_run, payload_of, pipeline_graph
from tests.conftest import MONITOR_MODES, monitor_mode

PATIENCE = 40
INTERVAL = 1000
SAMPLE_EVERY = 500


def _blackout_run(mode: str, sampler: bool = False):
    """A total-loss fabric with recovery off: the event queue drains to
    the deadlock monitor alone, the canonical compressible idle window.
    The patience is raised well above the default so the poll collapse
    is unmistakable.  Returns (verdict cycle, diagnosis, polls, sampler)."""
    params = SystemParams(
        watchdog_timeout=None,
        deadlock_check_interval=INTERVAL,
        deadlock_patience=PATIENCE,
    )
    system = EclipseSystem(
        [CoprocessorSpec(f"cp{i}") for i in range(3)],
        params,
        faults=FaultPlan.parse("blackout", seed=0),
    )
    system.configure(pipeline_graph(payload_of(512), chunk=16))
    attached = Sampler(system, interval=SAMPLE_EVERY) if sampler else None
    polls = {"n": 0}
    orig = system._global_progress

    def counting():
        polls["n"] += 1
        return orig()

    system._global_progress = counting
    with monitor_mode(mode), pytest.raises(DeadlockError) as exc:
        system.run()
    return system.sim.now, str(exc.value), polls["n"], attached


@pytest.mark.parametrize("sampler", [False, True])
def test_blackout_deadlock_identical(sampler):
    """Both modes raise the same DeadlockError, same cycle, same
    blocked report — with or without a sampler keeping the queue warm."""
    fast = _blackout_run("fast", sampler=sampler)
    ref = _blackout_run("reference", sampler=sampler)
    assert fast[:2] == ref[:2]


def test_compression_collapses_monitor_polls():
    """Proof that compression happens: with the queue drained the
    monitor leaps the idle window in O(1) progress polls where stepping
    spends O(patience)."""
    ref_at, _, ref_polls, _ = _blackout_run("reference")
    fast_at, _, fast_polls, _ = _blackout_run("fast")
    assert fast_at == ref_at
    assert ref_polls > PATIENCE
    assert fast_polls < ref_polls / 4, (
        f"expected compressed polls, got fast={fast_polls} "
        f"vs reference={ref_polls}"
    )


def test_sampler_pins_compression_boundary():
    """A sampler's pending tick is a scheduled observation the monitor
    must not leap over: with a sampler attached it steps poll by poll
    again, so the series carries one sample per interval from cycle 0
    up to the verdict cycle and matches the stepped run exactly."""
    series = {}
    polls = {}
    for mode in MONITOR_MODES:
        verdict_at, _, polls[mode], sampler = _blackout_run(mode, sampler=True)
        series[mode] = {
            name: (list(s.times), list(s.values))
            for name, s in sorted(sampler.utilization.items())
        }
        for name, (times, _) in series[mode].items():
            assert times == list(range(0, verdict_at, SAMPLE_EVERY)), name
    assert series["fast"] == series["reference"]
    assert polls["fast"] == polls["reference"]


@pytest.mark.parametrize(
    "capture_mode,resume_mode",
    [("fast", "reference"), ("reference", "fast")],
)
def test_cross_engine_checkpoint_restore(capture_mode, resume_mode, tmp_path):
    """A snapshot taken under one monitor mode restores — and
    digest-verifies — under the other, and the resumed run deadlocks at
    the uninterrupted stepped run's cycle with its diagnosis.  The
    capture lands after the first poll, where the fast monitor has
    already leapt."""
    factory = "repro.workloads:conformance_run"
    kwargs = {"fault_spec": "blackout", "watchdog_timeout": None,
              "payload_len": 512}

    def verdict(system):
        with pytest.raises(DeadlockError) as exc:
            system.run()
        return system.sim.now, str(exc.value)

    with monitor_mode(capture_mode):
        system, graph = conformance_run(**kwargs)
        system.configure(graph)
        system.advance(2 * SystemParams().deadlock_check_interval)
        snap = capture(system, factory, kwargs)
    path = tmp_path / "cross.snap.json"
    snap.save(str(path))

    with monitor_mode(resume_mode):
        # restore(verify=True) recomputes the state digest under the
        # other mode and compares it against the captured one
        resumed = verdict(restore(SystemSnapshot.load(str(path))))

    with monitor_mode("reference"):
        oracle_sys, oracle_graph = conformance_run(**kwargs)
        oracle_sys.configure(oracle_graph)
        assert resumed == verdict(oracle_sys)
