"""Protocol-error messages always locate themselves as ``task.port``."""

import pytest

from repro.kahn import Direction, PortSpec
from repro.kahn.kernel import KernelContext

PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))


def test_unknown_port_names_task_dot_port():
    ctx = KernelContext(PORTS, task="vld")
    with pytest.raises(KeyError) as exc:
        ctx.get_space("coef", 8)
    msg = str(exc.value)
    assert "vld.coef" in msg
    assert "declared: ['in', 'out']" in msg


def test_direction_mismatch_names_task_dot_port():
    ctx = KernelContext(PORTS, task="mc")
    with pytest.raises(ValueError, match=r"mc\.out is out, not in"):
        ctx.read("out", 0, 8)
    with pytest.raises(ValueError, match=r"mc\.in is in, not out"):
        ctx.write("in", 0, b"x")


def test_taskless_context_still_names_the_port():
    # scheduler unit tests build bare contexts; the old format survives
    ctx = KernelContext(PORTS)
    with pytest.raises(KeyError, match="unknown port 'zap'"):
        ctx.put_space("zap", 1)
    with pytest.raises(ValueError, match="port 'out' is out, not in"):
        ctx.read("out", 0, 1)


def test_executors_hand_kernels_a_located_context():
    """Both executors construct the context with the task name, so a
    misbehaving kernel's error points at the graph node."""
    from repro.kahn import ApplicationGraph, TaskNode
    from repro.kahn.executor import FunctionalExecutor
    from repro.kahn.kernel import Kernel, StepOutcome

    class BadPort(Kernel):
        PORTS = (PortSpec("out", Direction.OUT),)

        def step(self, ctx):
            yield ctx.get_space("wrong_name", 4)
            return StepOutcome.FINISHED

    g = ApplicationGraph("bad")
    g.add_task(TaskNode("writer", BadPort, BadPort.PORTS))
    g.add_task(
        TaskNode(
            "reader",
            Kernel,
            (PortSpec("in", Direction.IN),),
        )
    )
    g.connect("writer.out", "reader.in")
    with pytest.raises(KeyError, match=r"writer\.wrong_name"):
        FunctionalExecutor(g).run()


def test_external_access_size_must_be_an_int():
    # the size becomes a bus hold in cycles; a float used to be
    # truncated there silently, and leaked into the bus statistics
    ctx = KernelContext(PORTS, task="mc")
    with pytest.raises(ValueError, match="n_bytes must be an int, got 20.5"):
        ctx.external_access(20.5)
    with pytest.raises(ValueError, match="n_bytes must be an int, got True"):
        ctx.external_access(True)
    assert ctx.external_access(20).n_bytes == 20
