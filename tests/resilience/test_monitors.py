"""Online invariant monitors: every monitor triggers on its adversary
and stays silent on clean runs.

Each monitor in the I101–I105 catalogue is exercised both ways, per the
acceptance criteria: a *trigger* test drives the paired corruption mode
from :data:`repro.sim.faults.CORRUPTION_MODES` through a live system
and asserts the expected monitor fires with a located diagnosis, and a
*clean* test checks a full (faulted!) run at every checkpoint boundary
and asserts zero false positives.
"""

import pytest

from repro.resilience.monitors import (
    MONITORS,
    InvariantViolation,
    MonitorSuite,
    check_system,
)
from repro.sim.faults import CORRUPTION_MODES, corrupt_state
from repro.workloads import conformance_run

#: every corruption mode, paired with the monitor that must catch it
MODE_TO_MONITOR = {mode: mon for mode, (_fn, mon) in CORRUPTION_MODES.items()}


def _mid_flight(graph="pipeline", fault_spec="none", fault_seed=0):
    """A configured system paused mid-run at a quiescent boundary."""
    system, g = conformance_run(graph=graph, payload_len=512,
                                fault_spec=fault_spec, fault_seed=fault_seed)
    system.configure(g)
    finished = system.advance(600)
    assert not finished and not system.all_finished()
    return system


# ---------------------------------------------------------------------------
# trigger tests: each corruption mode fires its paired monitor
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", sorted(CORRUPTION_MODES))
def test_corruption_triggers_paired_monitor(mode):
    system = _mid_flight()
    suite = MonitorSuite()  # full catalogue, stateful (I103 baseline)
    assert suite.check(system) == []  # sane before the corruption
    what = corrupt_state(system, mode)
    assert what  # the adversary reports what it broke
    violations = suite.check(system)
    fired = {v.monitor for v in violations}
    assert MODE_TO_MONITOR[mode] in fired, (
        f"{mode!r} broke the state ({what}) but "
        f"{MODE_TO_MONITOR[mode]} stayed silent; fired: {sorted(fired)}"
    )


@pytest.mark.parametrize("mode", sorted(set(CORRUPTION_MODES) - {"counter-rewind"}))
def test_stateless_monitors_fire_on_one_shot_check(mode):
    """All monitors except I103 need no baseline: a one-shot
    check_system on a freshly corrupted system already catches them."""
    system = _mid_flight()
    corrupt_state(system, mode)
    fired = {v.monitor for v in check_system(system)}
    assert MODE_TO_MONITOR[mode] in fired


def test_counter_rewind_needs_history():
    """I103 is stateful by design: a one-shot check only sets the
    baseline, so the rewind is invisible to it — and caught by a suite
    that watched the earlier boundary."""
    system = _mid_flight()
    suite = MonitorSuite(["I103"])
    suite.check(system)  # baseline
    corrupt_state(system, "counter-rewind")
    assert check_system(system, ["I103"]) == []  # fresh suite: blind
    violations = suite.check(system)
    assert violations and all(v.monitor == "I103" for v in violations)


def test_violation_is_structured_and_located():
    system = _mid_flight()
    corrupt_state(system, "credit-loss")
    violations = [v for v in check_system(system) if v.monitor == "I101"]
    assert violations
    v = violations[0]
    assert isinstance(v, InvariantViolation)
    assert v.task and v.port, "I101 must name the offending task.port"
    assert str(v).startswith(f"[I101] {v.task}.{v.port} at t={v.cycle}: ")
    d = v.to_dict()
    assert d["monitor"] == "I101" and d["task"] == v.task
    assert d["cycle"] == system.sim.now


# ---------------------------------------------------------------------------
# clean runs: zero false positives for every monitor, at every boundary
# ---------------------------------------------------------------------------
def _checked_full_run(monitor_ids, **kwargs):
    """Run to completion, checking ``monitor_ids`` every 256 cycles."""
    system, graph = conformance_run(payload_len=512, **kwargs)
    system.configure(graph)
    suite = MonitorSuite(monitor_ids)
    finished = False
    while not finished:
        finished = system.advance(system.sim.now + 256)
        assert suite.check(system) == [], (
            f"false positive at t={system.sim.now}: {suite.violations}"
        )
        if not finished and system.sim.peek() is None:
            break
    result = system.run()
    assert result.completed
    assert suite.checks_run > 2, "the run must actually cross boundaries"
    return suite


@pytest.mark.parametrize("monitor_id", sorted(MONITORS))
def test_clean_run_has_zero_false_positives(monitor_id):
    suite = _checked_full_run([monitor_id], graph="pipeline",
                              fault_spec="none")
    assert suite.violations == []


@pytest.mark.parametrize("fault_spec", ["none", "chaos"])
@pytest.mark.parametrize("graph", ["pipeline", "diamond"])
def test_full_catalogue_is_silent_on_recovered_faulted_runs(graph, fault_spec):
    """Even under injected fabric faults the *invariants* hold at every
    boundary — recovery restores them before the shells yield."""
    suite = _checked_full_run(None, graph=graph, fault_spec=fault_spec,
                              fault_seed=3)
    assert suite.violations == []


# ---------------------------------------------------------------------------
# suite mechanics
# ---------------------------------------------------------------------------
def test_suite_rejects_unknown_ids():
    with pytest.raises(KeyError, match="I999"):
        MonitorSuite(["I101", "I999"])


def test_suite_feeds_resilience_counters():
    system = _mid_flight()
    before = dict(system.resilience)
    suite = MonitorSuite()
    suite.check(system)
    corrupt_state(system, "task-miscount")
    found = suite.check(system)
    assert found
    assert system.resilience["invariant_checks"] == before["invariant_checks"] + 2
    assert (system.resilience["invariant_violations"]
            == before["invariant_violations"] + len(found))


def test_check_or_raise_raises_the_first_violation():
    system = _mid_flight()
    suite = MonitorSuite()
    suite.check_or_raise(system)  # clean: no raise
    corrupt_state(system, "buffer-overrun")
    with pytest.raises(InvariantViolation, match=r"\[I102\]") as info:
        suite.check_or_raise(system)
    # the raised violation lists every finding of its check
    assert info.value.violations[0] == info.value.to_dict()


def test_catalogue_is_complete_and_stable():
    assert sorted(MONITORS) == ["I101", "I102", "I103", "I104", "I105"]
    assert sorted(MODE_TO_MONITOR.values()) == sorted(MONITORS)
