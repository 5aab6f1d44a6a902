"""Validation tests for the template-parameter dataclasses and system
construction edge cases."""

import pytest

from repro.core import CoprocessorSpec, EclipseSystem, ShellParams, SystemParams
from repro.core.messages import MessageFabric
from repro.kahn import ApplicationGraph, GraphError, TaskNode
from repro.kahn.library import ConsumerKernel, ProducerKernel
from repro.sim import Simulator


def test_shell_params_validation():
    with pytest.raises(ValueError, match="power of two"):
        ShellParams(cache_line=24)
    with pytest.raises(ValueError):
        ShellParams(read_cache_lines=0)
    with pytest.raises(ValueError):
        ShellParams(prefetch_lines=-1)
    with pytest.raises(ValueError, match="ShellParams.getspace_cycles must be an int, got 1.5"):
        ShellParams(getspace_cycles=1.5)
    with pytest.raises(ValueError, match="ShellParams.port_width must be an int, got True"):
        ShellParams(port_width=True)
    p = ShellParams()
    q = p.with_(prefetch_lines=5)
    assert q.prefetch_lines == 5 and p.prefetch_lines != 5  # copy


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(sram_size=0)
    with pytest.raises(ValueError):
        SystemParams(bus_width=0)
    with pytest.raises(ValueError):
        SystemParams(msg_latency=-1)
    with pytest.raises(ValueError):
        SystemParams(msg_jitter=-2)
    with pytest.raises(ValueError, match="sync_mode"):
        SystemParams(sync_mode="votes")
    with pytest.raises(ValueError, match="coherency"):
        SystemParams(coherency="magic")
    with pytest.raises(ValueError, match="SystemParams.bus_setup_latency must be an int"):
        SystemParams(bus_setup_latency=2.0)
    with pytest.raises(ValueError, match="SystemParams.watchdog_timeout must be an int"):
        SystemParams(watchdog_timeout="2000")
    assert SystemParams(watchdog_timeout=None).watchdog_timeout is None
    assert SystemParams().with_(bus_width=32).bus_width == 32


def test_coprocessor_spec_validation():
    with pytest.raises(ValueError):
        CoprocessorSpec("x", compute_factor=0)
    with pytest.raises(ValueError):
        EclipseSystem([])
    with pytest.raises(ValueError, match="duplicate"):
        EclipseSystem([CoprocessorSpec("a"), CoprocessorSpec("a")])


def test_fabric_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        MessageFabric(sim, latency=-1)
    with pytest.raises(ValueError):
        MessageFabric(sim, jitter=-1)


def test_auto_map_disabled_requires_mappings():
    g = ApplicationGraph()
    g.add_task(TaskNode("src", lambda: ProducerKernel(b"x" * 16, chunk=8), ProducerKernel.PORTS))
    g.add_task(TaskNode("dst", lambda: ConsumerKernel(chunk=8), ConsumerKernel.PORTS))
    g.connect("src.out", "dst.in", buffer_size=32)
    system = EclipseSystem([CoprocessorSpec("cp0")])
    with pytest.raises(GraphError, match="no coprocessor mapping"):
        system.configure(g, auto_map=False)


def test_bad_kernel_factory_in_configure():
    g = ApplicationGraph()
    g.add_task(TaskNode("bad", lambda: 42, ()))
    system = EclipseSystem([CoprocessorSpec("cp0")])
    with pytest.raises(GraphError, match="factory returned"):
        system.configure(g)


def test_run_until_partial_then_resume():
    g = ApplicationGraph()
    g.add_task(TaskNode("src", lambda: ProducerKernel(b"q" * 512, chunk=16), ProducerKernel.PORTS))
    g.add_task(TaskNode("dst", lambda: ConsumerKernel(chunk=16), ConsumerKernel.PORTS))
    g.connect("src.out", "dst.in", buffer_size=64)
    system = EclipseSystem([CoprocessorSpec("cp0"), CoprocessorSpec("cp1")])
    system.configure(g)
    partial = system.run(until=200, strict=False)
    assert not partial.completed
    final = system.run()
    assert final.completed
    assert final.histories["s_src_out"] == b"q" * 512


# ---------------------------------------------------------------------------
# serialization (run-report / RunSpec round-trips)
# ---------------------------------------------------------------------------
def test_shell_params_round_trip():
    import json

    shell = ShellParams(prefetch_lines=8, best_guess_scheduling=False)
    assert ShellParams.from_dict(json.loads(json.dumps(shell.to_dict()))) == shell


def test_system_params_round_trip():
    params = SystemParams(bus_width=8, watchdog_timeout=500, sync_mode="centralized")
    assert SystemParams.from_dict(params.to_dict()) == params


def test_coprocessor_spec_round_trip():
    spec = CoprocessorSpec("dsp", is_software=True, compute_factor=4.0,
                           shell=ShellParams(port_width=8))
    back = CoprocessorSpec.from_dict(spec.to_dict())
    assert back == spec and back.shell.port_width == 8


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown SystemParams keys"):
        SystemParams.from_dict({"warp_factor": 9})
    with pytest.raises(ValueError, match="unknown ShellParams keys"):
        ShellParams.from_dict({"cache_lin": 32})
