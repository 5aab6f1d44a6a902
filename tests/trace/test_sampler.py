"""Direct unit tests for the §5.4 measurement sampler.

The :class:`~repro.trace.sampler.Sampler` is a *scheduled observer*: it
keeps a timeout in the event queue while any coprocessor is alive,
which (a) gives it an exact cadence, (b) makes it stop by itself when
the run ends, and (c) pins every idle-window compression boundary,
because the deadlock monitor only leaps when the queue holds nothing
but its own poll (tests/sim/test_fastengine_equivalence.py).  The
cross-mode case here proves the sampler observes the identical series
whether the monitor steps or may compress.
"""

from __future__ import annotations

import pytest

from repro.core.system import DeadlockError
from repro.trace.sampler import Sampler
from repro.workloads import conformance_run, quickstart_run
from tests.conftest import MONITOR_MODES, monitor_mode


def _sampled_quickstart(interval=200, payload_len=2048):
    system, graph = quickstart_run(payload_len=payload_len)
    system.configure(graph)
    sampler = Sampler(system, interval=interval)
    result = system.run()
    return sampler, result


def _series_dump(sampler):
    def dump(d):
        return {k: (list(s.times), list(s.values)) for k, s in sorted(d.items())}

    return {
        "stream_fill": dump(sampler.stream_fill),
        "utilization": dump(sampler.utilization),
        "task_steps": dump(sampler.task_steps),
        "running_task": dump(sampler.running_task),
    }


# ---------------------------------------------------------------------------
# construction contract
# ---------------------------------------------------------------------------
def test_sampler_rejects_bad_interval():
    system, graph = quickstart_run(payload_len=512)
    system.configure(graph)
    with pytest.raises(ValueError, match="interval"):
        Sampler(system, interval=0)
    with pytest.raises(ValueError, match="Sampler interval must be an int, got 2.5"):
        Sampler(system, interval=2.5)


def test_sampler_requires_configured_system():
    system, _ = quickstart_run(payload_len=512)
    with pytest.raises(RuntimeError, match="configure"):
        Sampler(system)


# ---------------------------------------------------------------------------
# cadence, contents, self-termination
# ---------------------------------------------------------------------------
def test_sampler_cadence_is_exact():
    sampler, result = _sampled_quickstart(interval=200)
    times = sampler.utilization["cp0"].times
    assert times == list(range(0, times[-1] + 1, 200))
    assert len(times) >= 2


def test_sampler_series_cover_streams_tasks_and_coprocessors():
    sampler, result = _sampled_quickstart()
    # the quickstart graph is src -> dst over one stream; only the
    # consumer side has a fill series
    assert set(sampler.stream_fill) == {("src.out->dst.in", "dst")} or all(
        task == "dst" for (_, task) in sampler.stream_fill
    )
    assert set(sampler.task_steps) == set(result.tasks)
    assert set(sampler.utilization) == set(result.utilization)
    # cumulative step series end at the final completed-step counts
    for name, series in sampler.task_steps.items():
        assert series.values[-1] == result.tasks[name].steps_completed
    # windowed utilization is a fraction of the interval
    for series in sampler.utilization.values():
        assert all(0.0 <= v <= 1.0 for v in series.values)
    # running-task ids are either -1 (idle) or a real task id
    for series in sampler.running_task.values():
        assert all(v == -1 or v >= 0 for v in series.values)


def test_sampler_stops_itself_after_completion():
    """The sampler's generator returns once every coprocessor has shut
    down — it never keeps the simulation alive past one interval."""
    sampler, result = _sampled_quickstart(interval=200)
    last = sampler.utilization["cp0"].times[-1]
    assert last <= result.cycles
    assert result.completed


def test_frame_boundaries_segment_progress():
    sampler, result = _sampled_quickstart(interval=100)
    steps_total = result.tasks["dst"].steps_completed
    per_frame = max(1, steps_total // 4)
    bounds = sampler.frame_boundaries("dst", per_frame)
    assert bounds, "expected at least one frame boundary"
    times = [bounds[k] for k in sorted(bounds)]
    assert times == sorted(times)
    assert sorted(bounds) == list(range(1, len(bounds) + 1))
    # a frame is only declared once that many steps actually completed
    for frame, t in bounds.items():
        series = dict(zip(sampler.task_steps["dst"].times,
                          sampler.task_steps["dst"].values))
        assert series[t] >= frame * per_frame


# ---------------------------------------------------------------------------
# cross-mode: the scheduled observer sees identical series
# ---------------------------------------------------------------------------
def test_sampler_series_identical_across_engines():
    """Sampler ticks are compression boundaries: on a blackout run that
    drains to a deadlock, the monitor may never leap past one, so every
    sampled value matches the stepped monitor's poll for poll."""
    dumps = {}
    for mode in MONITOR_MODES:
        system, graph = conformance_run(
            payload_len=512, fault_spec="blackout", watchdog_timeout=None,
            sample_interval=150,
        )
        system.configure(graph)
        with monitor_mode(mode), pytest.raises(DeadlockError):
            system.run()
        dumps[mode] = (_series_dump(system.sampler), system.sim.now)
    assert dumps["fast"] == dumps["reference"]
