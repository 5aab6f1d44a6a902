"""Unit tests for the parallel run engine (repro.runner)."""

import json
import pickle

import pytest

from repro.runner import (
    ParallelRunner,
    RunReport,
    RunResult,
    RunSpec,
    resolve_factory,
    run_specs,
)
from repro.workloads import conformance_run, quickstart_run


# ---------------------------------------------------------------------------
# helper factories (module-level so the pool can pickle them by reference)
# ---------------------------------------------------------------------------
def failing_factory(message="boom"):
    raise RuntimeError(message)


# ---------------------------------------------------------------------------
# RunSpec / factory resolution
# ---------------------------------------------------------------------------
def test_resolve_factory_callable():
    assert resolve_factory(conformance_run) is conformance_run


def test_resolve_factory_dotted_string():
    fn = resolve_factory("repro.workloads:conformance_run")
    assert fn is conformance_run


def test_resolve_factory_bad_values():
    with pytest.raises(ValueError, match="module:function"):
        resolve_factory("repro.workloads.conformance_run")
    with pytest.raises(ValueError, match="no attribute"):
        resolve_factory("repro.workloads:nope")
    with pytest.raises(TypeError):
        resolve_factory(42)


def test_spec_describe_uses_label_or_signature():
    assert RunSpec(conformance_run, label="x").describe() == "x"
    desc = RunSpec(conformance_run, {"fault_seed": 7}).describe()
    assert "conformance_run" in desc and "fault_seed=7" in desc


def test_specs_are_picklable():
    spec = RunSpec(conformance_run, {"payload_len": 128, "fault_seed": 1})
    assert pickle.loads(pickle.dumps(spec)).kwargs["fault_seed"] == 1


# ---------------------------------------------------------------------------
# execution: serial and parallel paths
# ---------------------------------------------------------------------------
def _small_specs(n=3):
    return [
        RunSpec(conformance_run,
                {"payload_len": 256, "fault_spec": "drop", "fault_seed": i},
                label=f"s{i}")
        for i in range(n)
    ]


def test_serial_run_results_in_spec_order():
    report = ParallelRunner(jobs=1).run(_small_specs())
    assert [r.index for r in report.results] == [0, 1, 2]
    assert [r.label for r in report.results] == ["s0", "s1", "s2"]
    assert all(r.ok and r.completed and r.cycles > 0 for r in report.results)


def test_parallel_matches_serial_byte_for_byte():
    serial = ParallelRunner(jobs=1).run(_small_specs())
    par = ParallelRunner(jobs=2).run(_small_specs())
    assert serial.to_json() == par.to_json()


def test_failure_is_reported_not_raised():
    specs = [RunSpec(quickstart_run, {"payload_len": 128}),
             RunSpec(failing_factory, {"message": "expected"})]
    report = ParallelRunner(jobs=1).run(specs)
    assert report.results[0].ok
    bad = report.results[1]
    assert not bad.ok and "RuntimeError: expected" in bad.error
    assert report.failures == [bad]
    assert "traceback" in bad.metrics


def test_non_picklable_specs_fall_back_to_serial():
    payload = b"\x01" * 256

    def local_factory():  # a closure: not picklable by reference
        return quickstart_run(payload_len=len(payload))

    report = ParallelRunner(jobs=4).run([RunSpec(local_factory), RunSpec(local_factory)])
    assert all(r.ok for r in report.results)
    assert any("serial fallback" in note for note in report.notes)


def test_result_failure_flags_default_false():
    report = ParallelRunner(jobs=1).run(_small_specs(1))
    res = report.results[0]
    assert res.ok and not res.timed_out and not res.crashed
    bad = ParallelRunner(jobs=1).run(
        [RunSpec(failing_factory, {"message": "x"})]
    ).results[0]
    # an ordinary exception is neither a timeout nor a worker crash
    assert not bad.ok and not bad.timed_out and not bad.crashed


def test_runner_validates_arguments():
    with pytest.raises(ValueError, match="jobs"):
        ParallelRunner(jobs=0)


def test_run_specs_convenience():
    report = run_specs(_small_specs(2), jobs=1)
    assert isinstance(report, RunReport)
    assert len(report.results) == 2


# ---------------------------------------------------------------------------
# report shape
# ---------------------------------------------------------------------------
def test_report_json_is_canonical_and_round_trips():
    report = ParallelRunner(jobs=1).run(_small_specs(2))
    text = report.to_json()
    data = json.loads(text)
    assert data["schema"] == "repro.runner/1"
    assert data["summary"]["total"] == 2 and data["summary"]["ok"] == 2
    # deterministic form excludes wall-clock fields
    assert "timing" not in data
    assert "wall_time" not in data["runs"][0]
    # failure-mode flags are always present (supervisor reads them back)
    assert data["runs"][0]["timed_out"] is False
    assert data["runs"][0]["crashed"] is False
    # canonical: sorted keys, trailing newline
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_report_timing_block_opt_in():
    report = ParallelRunner(jobs=1).run(_small_specs(2))
    data = json.loads(report.to_json(include_timing=True))
    assert data["timing"]["jobs"] == 1
    assert data["timing"]["wall_time"] > 0
    assert report.speedup > 0


def test_report_write(tmp_path):
    report = ParallelRunner(jobs=1).run(_small_specs(1))
    path = tmp_path / "report.json"
    report.write(str(path))
    assert json.loads(path.read_text())["summary"]["total"] == 1


def test_histories_digest_distinguishes_runs():
    a = ParallelRunner(jobs=1).run([RunSpec(quickstart_run, {"payload_len": 128})])
    b = ParallelRunner(jobs=1).run([RunSpec(quickstart_run, {"payload_len": 256})])
    da = a.results[0].histories_sha256
    db = b.results[0].histories_sha256
    assert da and db and da != db
    # same spec -> same digest
    c = ParallelRunner(jobs=1).run([RunSpec(quickstart_run, {"payload_len": 128})])
    assert c.results[0].histories_sha256 == da
