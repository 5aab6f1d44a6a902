"""One probe, many consumers: the tracer and the op log share a
single per-instance instrumentation point."""

import json

import pytest

from repro.obs import SpanRecorder, SpanTracer
from repro.trace.oplog import OpLog
from repro.workloads import conformance_run

WRAPPED_SHELL = ("get_space", "put_space", "_fetch_line")


def _system(obs_level="full"):
    system, graph = conformance_run(graph="diamond", fault_spec="chaos",
                                    fault_seed=7, obs_level=obs_level)
    system.configure(graph)
    return system


def _export(tracer):
    return json.dumps(tracer.to_chrome_trace(), sort_keys=True)


@pytest.mark.parametrize("obs_level", ["off", "full"])
def test_unobserved_system_has_no_probe(obs_level):
    system = _system(obs_level)
    if obs_level == "off":
        with pytest.raises(RuntimeError, match="obs_level"):
            OpLog(system)
        with pytest.raises(RuntimeError, match="obs_level"):
            system.attach_tracer()
    assert system.probe is None
    for shell in system.shells.values():
        assert shell.get_space == type(shell).get_space.__get__(shell)
        assert not set(WRAPPED_SHELL) & set(vars(shell))


def test_two_consumers_share_one_wrapper_per_primitive():
    system = _system()
    OpLog(system)
    first = {(c, n): getattr(s, n) for c, s in system.shells.items() for n in WRAPPED_SHELL}
    probe = system.probe
    system.attach_tracer()
    assert system.probe is probe
    for (cname, name), wrapper in first.items():
        shell = system.shells[cname]
        assert getattr(shell, name) is wrapper  # the tracer added no layer
        assert wrapper.__wrapped__ == getattr(type(shell), name).__get__(shell)


def test_each_consumer_records_what_it_records_alone():
    alone = _system()
    log_alone = OpLog(alone)
    alone.run()
    alone = _system()
    tracer_alone = alone.attach_tracer()
    alone.run()

    both = _system()
    log = OpLog(both)
    tracer = both.attach_tracer()
    both.run()
    assert list(log.records) == list(log_alone.records)
    assert _export(tracer) == _export(tracer_alone)
    assert tracer.summary()["by_category"]["fault"] > 0


def test_tracer_is_a_span_recorder_on_the_simulator_clock():
    system = _system()
    tracer = SpanTracer(system)
    assert isinstance(tracer, SpanRecorder)
    system.advance(500)
    assert tracer.now() == system.sim.now == 500
