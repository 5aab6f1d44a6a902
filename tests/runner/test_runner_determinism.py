"""The engine's headline guarantee: the deterministic report is
byte-identical regardless of the job count.

Same specs at jobs=1, jobs=2 and jobs=8 must aggregate to the same
bytes — results are keyed by spec index, never by completion order, and
every run is a pure function of its spec.  The same holds across front
ends: the supervisor and the sweep service run the runner's executor,
so failing runs report the same bytes on each of them too.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience import Supervisor
from repro.runner import ParallelRunner, RunSpec
from repro.service import ResultStore, SweepService
from repro.service.store import result_payload
from repro.workloads import conformance_run, quickstart_run

JOB_COUNTS = (1, 2, 8)


def _specs(seeds, graph="pipeline", fault_spec="drop", payload_len=256):
    return [
        RunSpec(
            conformance_run,
            {"graph": graph, "payload_len": payload_len,
             "fault_spec": fault_spec, "fault_seed": seed},
            label=f"{graph}:seed={seed}",
        )
        for seed in seeds
    ]


def _canonical(specs, jobs):
    return ParallelRunner(jobs=jobs).run(specs).to_json()


def test_reports_identical_across_job_counts():
    specs = _specs(range(6), fault_spec="chaos", payload_len=512)
    reports = {jobs: _canonical(specs, jobs) for jobs in JOB_COUNTS}
    assert reports[1] == reports[2] == reports[8]
    # and the runs actually measured something
    data = json.loads(reports[1])
    assert data["summary"]["ok"] == 6
    assert all(r["cycles"] > 0 for r in data["runs"])


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**16), min_size=1,
                   max_size=4, unique=True),
    graph=st.sampled_from(["pipeline", "diamond"]),
    fault_spec=st.sampled_from(["none", "drop", "dup", "delay"]),
)
def test_determinism_property(seeds, graph, fault_spec):
    """Hypothesis-parameterized over seeds, spec counts, graphs and
    fault presets: every job count aggregates to the same bytes."""
    specs = _specs(seeds, graph=graph, fault_spec=fault_spec)
    baseline = _canonical(specs, 1)
    for jobs in JOB_COUNTS[1:]:
        assert _canonical(specs, jobs) == baseline


def test_order_is_spec_order_not_completion_order():
    # big first run + tiny rest: under any pool scheduling the tiny
    # runs complete first, but the report must keep spec order
    specs = _specs([0], payload_len=4096) + _specs([1, 2, 3], payload_len=64)
    report = ParallelRunner(jobs=4).run(specs)
    assert [r.index for r in report.results] == [0, 1, 2, 3]
    assert report.results[0].cycles > report.results[1].cycles


# ---------------------------------------------------------------------------
# failure differential across front ends
# ---------------------------------------------------------------------------
def raising_run(message="factory failed"):
    raise RuntimeError(message)


def non_graph_run(payload_len=128):
    system, _graph = quickstart_run(payload_len=payload_len)
    return system, "not a graph"


def _mixed_specs():
    return [
        RunSpec(quickstart_run, {"payload_len": 128, "bogus": 1}, label="bad-kwarg"),
        RunSpec(raising_run, {"message": "expected"}, label="raises"),
        RunSpec(non_graph_run, {"payload_len": 128}, label="non-graph"),
        RunSpec(conformance_run,
                {"payload_len": 256, "fault_spec": "chaos", "fault_seed": 1,
                 "obs_level": "counters"},
                label="ok-counters"),
    ]


def test_failures_are_byte_identical_on_every_front_end(tmp_path):
    """A bad kwarg, a raising factory, a non-graph second value and an
    ok run below ``full``: the serial runner, the pool, the supervisor
    and the service report every one of them with the same bytes,
    traceback included."""
    specs = _mixed_specs()
    serial = ParallelRunner(jobs=1).run(specs)
    supervised = Supervisor(checkpoint_dir=str(tmp_path / "ckpt"),
                            interval=512, jobs=2).run(specs)
    assert ParallelRunner(jobs=2).run(specs).to_json() == serial.to_json()
    assert supervised.to_json() == serial.to_json()

    async def serve():
        store = ResultStore(str(tmp_path / "store"))
        async with SweepService(store, jobs=2, use_process_pool=False) as svc:
            return await svc.run_batch(specs)

    served = asyncio.run(serve())
    assert ([result_payload(r) for r in served.results]
            == [result_payload(r) for r in serial.results])

    bad_kwarg, raises, non_graph, ok = serial.results
    assert bad_kwarg.error.startswith("TypeError:") and "bogus" in bad_kwarg.error
    assert raises.error == "RuntimeError: expected"
    assert non_graph.error == (
        "TypeError: factory non_graph_run returned a second value of type "
        "str, not an ApplicationGraph"
    )
    assert all("traceback" in r.metrics for r in (bad_kwarg, raises, non_graph))
    assert ok.ok and ok.obs_level == "counters" and ok.histories_sha256 is None
