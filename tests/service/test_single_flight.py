"""Single-flight deduplication and the byte-identity serving contract.

The headline property the service exists for: **N concurrent identical
submissions cost exactly one execution, and all N receive byte-identical
payloads** — which are, in turn, byte-identical to a cold run of the
same spec through the plain batch machinery.  Executions are counted
for real, across process boundaries, by a marker file the worker
appends to (``tests.service.factories``).
"""

import asyncio
import os

from repro.runner import ParallelRunner, RunSpec, execute
from repro.service import ResultStore, SweepService
from repro.service.store import result_payload
from tests.service.factories import MARKER_ENV, execution_count

COUNTED = "tests.service.factories:counted_quickstart_run"


def _spec(tag="run", payload_len=512, label=None):
    return RunSpec(
        factory=COUNTED,
        kwargs={"tag": tag, "payload_len": payload_len},
        label=label or f"{tag}-{payload_len}",
    )


def _service(tmp_path, **kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("use_process_pool", True)
    return SweepService(ResultStore(str(tmp_path / "store")), **kw)


def test_n_simultaneous_identical_submissions_execute_once(tmp_path, monkeypatch):
    """12 clients, one spec, one execution, twelve identical payloads."""
    marker = str(tmp_path / "marker")
    monkeypatch.setenv(MARKER_ENV, marker)
    spec = _spec("dedup")

    async def main():
        async with _service(tmp_path) as svc:
            responses = await asyncio.gather(*(svc.submit(spec) for _ in range(12)))
            return responses, svc.metrics.to_dict()

    responses, metrics = asyncio.run(main())
    assert execution_count(marker, "dedup") == 1
    assert metrics["service.executions"]["value"] == 1
    kinds = sorted(r.cache for r in responses)
    assert kinds == ["dedup"] * 11 + ["miss"]
    assert metrics["service.cache.dedup_inflight"]["value"] == 11
    payloads = {r.payload for r in responses}
    assert len(payloads) == 1
    assert all(r.ok for r in responses)


def test_hit_bytes_equal_cold_run_bytes(tmp_path, monkeypatch):
    """A cache hit serves exactly the bytes the plain executor
    produces for that spec — the cache is invisible in the results."""
    marker = str(tmp_path / "marker")
    monkeypatch.setenv(MARKER_ENV, marker)
    spec = _spec("coldhit")
    cold = result_payload(execute(0, spec))  # plain, no service

    async def main():
        async with _service(tmp_path) as svc:
            first = await svc.submit(spec)
            second = await svc.submit(spec)
            return first, second

    first, second = asyncio.run(main())
    assert first.cache == "miss" and second.cache == "hit"
    assert first.payload == cold
    assert second.payload == cold
    # one service execution + the manual cold run above
    assert execution_count(marker, "coldhit") == 2


def test_mixed_identical_and_novel_batch_preserves_report_contract(tmp_path, monkeypatch):
    """A batch with duplicates goes through the service (duplicates
    deduplicated behind the scenes) and still reassembles into a report
    byte-identical to the plain runner's at jobs=1 AND jobs=2 — the
    repo-wide determinism contract survives the service path."""
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    a, b, c = _spec("a"), _spec("b", payload_len=256), _spec("c", payload_len=1024)
    specs = [a, b, a, c, b, a]  # a x3, b x2, c x1

    async def main():
        async with _service(tmp_path) as svc:
            report = await svc.run_batch(specs)
            return report, svc.metrics.to_dict()

    report, metrics = asyncio.run(main())
    # only the three distinct specs executed
    assert metrics["service.executions"]["value"] == 3
    assert execution_count(str(tmp_path / "marker")) == 3
    oracle_1 = ParallelRunner(jobs=1).run(specs)
    oracle_2 = ParallelRunner(jobs=2).run(specs)
    assert report.to_json() == oracle_1.to_json()
    assert report.to_json() == oracle_2.to_json()


def test_priority_orders_execution(tmp_path, monkeypatch):
    """Lower priority value runs earlier; ties run in submission
    order.  Deterministic setup: everything is enqueued before the
    (single) worker starts."""
    marker = str(tmp_path / "marker")
    monkeypatch.setenv(MARKER_ENV, marker)

    async def main():
        svc = _service(tmp_path, jobs=1, use_process_pool=False)
        waiters = [
            asyncio.ensure_future(svc.submit(_spec("low"), priority=5)),
            asyncio.ensure_future(svc.submit(_spec("mid-1"), priority=1)),
            asyncio.ensure_future(svc.submit(_spec("urgent"), priority=0)),
            asyncio.ensure_future(svc.submit(_spec("mid-2"), priority=1)),
        ]
        await asyncio.sleep(0)  # let every submit enqueue
        async with svc:
            await asyncio.gather(*waiters)

    asyncio.run(main())
    with open(marker, encoding="utf-8") as fh:
        order = [line.split(":", 1)[0] for line in fh.read().splitlines()]
    assert order == ["urgent", "mid-1", "mid-2", "low"]


def test_failures_resolve_every_waiter_but_are_never_cached(tmp_path, monkeypatch):
    """A failed run is reported to all deduplicated waiters — and the
    next submission of the same spec re-executes instead of serving
    the failure from the cache."""
    marker = str(tmp_path / "marker")
    monkeypatch.setenv(MARKER_ENV, marker)
    bad = RunSpec(factory="tests.service.factories:failing_run",
                  kwargs={"tag": "boom"}, label="boom")

    async def main():
        async with _service(tmp_path, use_process_pool=False) as svc:
            first = await asyncio.gather(*(svc.submit(bad) for _ in range(4)))
            retry = await svc.submit(bad)
            return first, retry, len(svc.store)

    first, retry, stored = asyncio.run(main())
    assert all(not r.ok for r in first)
    assert len({r.payload for r in first}) == 1
    result = first[0].result
    assert "synthetic failure" in (result.error or "")
    # never cached: the store stayed empty and the retry re-executed
    assert stored == 0
    assert retry.cache == "miss"
    assert execution_count(marker, "boom") == 2


def test_sequential_resubmission_is_a_hit_not_a_reexecution(tmp_path, monkeypatch):
    """The cache outlives the service object: a brand-new service over
    the same store serves the old result without executing."""
    marker = str(tmp_path / "marker")
    monkeypatch.setenv(MARKER_ENV, marker)
    spec = _spec("persist")

    async def run_once():
        async with _service(tmp_path, use_process_pool=False) as svc:
            return await svc.submit(spec)

    first = asyncio.run(run_once())
    second = asyncio.run(run_once())  # fresh service, same store
    assert (first.cache, second.cache) == ("miss", "hit")
    assert first.payload == second.payload
    assert execution_count(marker, "persist") == 1
