"""Tests for the run-time control interface and QoS controller (§5.4)."""

import numpy as np
import pytest

from repro.core import ControlInterface, CoprocessorSpec, EclipseSystem, QosController, SystemParams
from repro.kahn import ApplicationGraph, TaskNode
from repro.kahn.library import ConsumerKernel, MapKernel, ProducerKernel


def pipeline(payload, mapping=("cp0", "cp0", "cp0")):
    g = ApplicationGraph("ctl")
    g.add_task(TaskNode("src", lambda: ProducerKernel(payload, chunk=16), ProducerKernel.PORTS, mapping=mapping[0]))
    g.add_task(
        TaskNode("mid", lambda: MapKernel(lambda b: b, chunk=16), MapKernel.PORTS, mapping=mapping[1])
    )
    g.add_task(TaskNode("dst", lambda: ConsumerKernel(chunk=16), ConsumerKernel.PORTS, mapping=mapping[2]))
    g.connect("src.out", "mid.in", buffer_size=64)
    g.connect("mid.out", "dst.in", buffer_size=64)
    return g


def make_system(payload=b"x" * 2048):
    system = EclipseSystem([CoprocessorSpec("cp0")], SystemParams())
    system.configure(pipeline(payload))
    return system


def test_control_requires_configured_system():
    system = EclipseSystem([CoprocessorSpec("cp0")])
    with pytest.raises(RuntimeError, match="configure"):
        ControlInterface(system)


def test_read_task_registers():
    system = make_system()
    ctl = ControlInterface(system)
    assert ctl.task_names() == ["dst", "mid", "src"]
    info = ctl.read_task("mid")
    assert info["coprocessor"] == "cp0"
    assert info["budget"] == 2000
    assert not info["finished"]
    system.run()
    assert ctl.read_task("mid")["finished"]
    assert ctl.read_task("mid")["steps_completed"] > 0


def test_read_stream_fill():
    system = make_system()
    ctl = ControlInterface(system)
    system.run(until=500)
    fills = ctl.read_stream_fill("mid")
    assert set(fills) == {"in"}
    assert 0 <= fills["in"] <= 64


def test_set_budget_midrun_takes_effect():
    system = make_system()
    ctl = ControlInterface(system)
    system.run(until=200)
    ctl.set_budget("src", 123)
    system.run()
    assert ctl.read_task("src")["budget"] == 123


def test_set_budget_validates():
    ctl = ControlInterface(make_system())
    with pytest.raises(ValueError):
        ctl.set_budget("src", 0)
    with pytest.raises(KeyError, match="unknown task"):
        ctl.set_budget("ghost", 100)


def test_pause_resume_task():
    """Disabling a critical task stalls the app; re-enabling resumes it
    and the result is still correct."""
    payload = bytes((i * 3) % 256 for i in range(2048))
    system = make_system(payload)
    ctl = ControlInterface(system)
    ctl.set_enabled("mid", False)
    system.run(until=5_000)
    steps_paused = ctl.read_task("mid")["steps_completed"]
    assert steps_paused == 0  # never scheduled while disabled
    ctl.set_enabled("mid", True)
    result = system.run()
    assert result.completed
    assert result.histories["s_mid_out"] == payload


def test_permanently_disabled_task_detected_as_stall():
    from repro.core import StalledError

    system = make_system()
    ControlInterface(system).set_enabled("mid", False)
    with pytest.raises(StalledError):
        system.run()


def test_qos_controller_rebalances_budgets():
    """On a multi-tasking coprocessor, the QoS controller moves budget
    toward tasks with backlogged inputs; the run still completes
    correctly."""
    payload = bytes((i * 7) % 256 for i in range(8192))
    system = EclipseSystem([CoprocessorSpec("cp0")], SystemParams())
    system.configure(pipeline(payload))
    qos = QosController(system, interval=500, min_budget=400, max_budget=4000)
    result = system.run()
    assert result.completed
    assert result.histories["s_mid_out"] == payload
    assert qos.adjustments > 0
    # budgets ended inside the configured band
    for name in ("src", "mid", "dst"):
        b = qos.control.read_task(name)["budget"]
        assert 400 <= b <= 4000


def test_qos_validates_params():
    system = make_system()
    with pytest.raises(ValueError):
        QosController(system, interval=0)
    with pytest.raises(ValueError, match="QosController interval must be an int"):
        QosController(system, interval=500.0)
    with pytest.raises(ValueError):
        QosController(system, min_budget=100, max_budget=50)
