"""Kill-and-resume byte-identity: the snapshot acceptance suite.

The contract under test (docs/resilience.md): interrupt a run at any
quiescent checkpoint boundary, write the snapshot to disk, read it
back in a "fresh process" (nothing shared but the file), restore, and
finish — the final :class:`SystemResult` must be byte-identical to the
uninterrupted run's, fault plans included.  The negative half of the
contract matters just as much: a tampered file, a stale schema or a
divergent replay must fail loudly as :class:`SnapshotError`, never
resume garbage.
"""

import json

import pytest

from repro.resilience.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    SystemSnapshot,
    capture,
    decode_value,
    diff_states,
    encode_value,
    factory_ref,
    restore,
    state_digest,
)
from repro.workloads import conformance_run, quickstart_run

FACTORY = "repro.workloads:conformance_run"


def _result_blob(result):
    """Canonical JSON of everything a run produced, histories included:
    the byte-identity yardstick."""
    return json.dumps(result.to_dict(include_histories=True), sort_keys=True)


def _uninterrupted(kwargs):
    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    return system.run()


def _kill_and_resume(kwargs, cut, tmp_path, hops=1):
    """Advance to ``cut`` (in ``hops`` steps, checkpointing each one),
    persist, reload from disk, restore and finish."""
    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    path = str(tmp_path / "interrupted.ckpt.json")
    for h in range(1, hops + 1):
        finished = system.advance(cut * h // hops)
        assert not finished, "cut point must land mid-run"
        capture(system, FACTORY, kwargs).save(path)
    del system  # the "killed" process
    snap = SystemSnapshot.load(path)
    return restore(snap).run()


# ---------------------------------------------------------------------------
# the acceptance sweep: >= 20 seeded workloads, fault plans included
# ---------------------------------------------------------------------------
SWEEP = [
    {"graph": g, "payload_len": 512, "fault_spec": f, "fault_seed": s}
    for g in ("pipeline", "diamond")
    for f in ("none", "drop", "delay", "chaos")
    for s in (0, 1, 2)
]
assert len(SWEEP) >= 20


@pytest.mark.parametrize(
    "kwargs", SWEEP,
    ids=[f"{k['graph']}-{k['fault_spec']}-s{k['fault_seed']}" for k in SWEEP],
)
def test_kill_and_resume_is_byte_identical(kwargs, tmp_path):
    baseline = _uninterrupted(kwargs)
    resumed = _kill_and_resume(kwargs, cut=baseline.cycles // 2,
                               tmp_path=tmp_path)
    assert _result_blob(resumed) == _result_blob(baseline)


def test_multi_hop_checkpoint_chain(tmp_path):
    """Checkpoint repeatedly along the way (as the supervisor does) and
    resume from the *last* snapshot: still byte-identical."""
    kwargs = {"graph": "diamond", "payload_len": 768, "fault_spec": "chaos",
              "fault_seed": 5}
    baseline = _uninterrupted(kwargs)
    resumed = _kill_and_resume(kwargs, cut=3 * baseline.cycles // 4,
                               tmp_path=tmp_path, hops=4)
    assert _result_blob(resumed) == _result_blob(baseline)


def test_resume_of_a_resume(tmp_path):
    """A restored system is a full citizen: it can itself be
    checkpointed and restored again."""
    kwargs = {"graph": "pipeline", "payload_len": 512, "fault_spec": "chaos",
              "fault_seed": 1}
    baseline = _uninterrupted(kwargs)
    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    assert not system.advance(baseline.cycles // 3)
    first = str(tmp_path / "first.ckpt.json")
    capture(system, FACTORY, kwargs).save(first)

    second_sys = restore(SystemSnapshot.load(first))
    assert not second_sys.advance(2 * baseline.cycles // 3)
    second = str(tmp_path / "second.ckpt.json")
    capture(second_sys, FACTORY, kwargs).save(second)

    final = restore(SystemSnapshot.load(second)).run()
    assert _result_blob(final) == _result_blob(baseline)


def test_snapshot_roundtrips_bytes_kwargs(tmp_path):
    """Factories taking bytes (bitstreams) survive the JSON codec."""
    payload = bytes(range(256))
    assert decode_value(encode_value(payload)) == payload
    assert decode_value(encode_value({"k": [payload, 7]})) == {"k": [payload, 7]}


# ---------------------------------------------------------------------------
# failure modes: every bad file/anchor fails loudly
# ---------------------------------------------------------------------------
def _saved_snapshot(tmp_path):
    kwargs = {"graph": "pipeline", "payload_len": 512, "fault_spec": "none",
              "fault_seed": 0}
    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    assert not system.advance(400)
    path = str(tmp_path / "snap.ckpt.json")
    capture(system, FACTORY, kwargs).save(path)
    return path


def test_tampered_file_fails_checksum(tmp_path):
    path = _saved_snapshot(tmp_path)
    text = open(path).read()
    open(path, "w").write(text.replace('"cycle": 400', '"cycle": 300', 1))
    with pytest.raises(SnapshotError, match="checksum"):
        SystemSnapshot.load(path)


def test_truncated_file_fails_loudly(tmp_path):
    path = _saved_snapshot(tmp_path)
    blob = open(path).read()
    open(path, "w").write(blob[: len(blob) // 2])
    with pytest.raises(SnapshotError, match="cannot read|checksum"):
        SystemSnapshot.load(path)


def test_not_a_snapshot_file(tmp_path):
    path = str(tmp_path / "junk.json")
    open(path, "w").write('{"foo": 1}\n')
    with pytest.raises(SnapshotError, match="not a snapshot file"):
        SystemSnapshot.load(path)


def test_stale_schema_is_rejected():
    with pytest.raises(SnapshotError, match="unsupported snapshot schema"):
        SystemSnapshot.from_dict({"schema": "repro.snapshot/0"})
    assert SNAPSHOT_SCHEMA == "repro.snapshot/1"


def test_state_digest_mismatch_is_rejected(tmp_path):
    """A file whose body was edited *and* re-checksummed still fails:
    the state digest is an independent second line of defence."""
    path = _saved_snapshot(tmp_path)
    doc = json.load(open(path))
    doc["body"]["digest"] = "0" * 64
    import hashlib

    body = json.dumps(doc["body"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(body.encode()).hexdigest()
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(SnapshotError, match="recorded digest"):
        SystemSnapshot.load(path)


def test_divergent_restore_is_detected():
    """If the captured state cannot be reproduced by replay, restore
    names the differing paths instead of continuing silently."""
    kwargs = {"payload_len": 512}
    system, graph = quickstart_run(**kwargs)
    system.configure(graph)
    assert not system.advance(200)
    snap = capture(system, "repro.workloads:quickstart_run", kwargs)
    snap.kwargs = {"payload_len": 640}  # replay anchor lies about the run
    with pytest.raises(SnapshotError, match="diverged"):
        restore(snap)


def test_anchor_with_a_retired_kwarg_is_a_snapshot_error(tmp_path):
    """A snapshot whose anchor names a kwarg the factory no longer takes
    (older builds wrote ``engine=``) fails as a SnapshotError naming
    the factory and the kwarg, not as a bare TypeError."""
    kwargs = {"payload_len": 512}
    system, graph = quickstart_run(**kwargs)
    system.configure(graph)
    assert not system.advance(200)
    snap = capture(system, "repro.workloads:quickstart_run",
                   {**kwargs, "engine": "fast"})
    path = tmp_path / "old.snap.json"
    snap.save(str(path))
    with pytest.raises(SnapshotError) as exc:
        restore(SystemSnapshot.load(str(path)))
    assert "repro.workloads:quickstart_run" in str(exc.value)
    assert "'engine'" in str(exc.value)


def test_unverified_restore_skips_the_cross_check():
    kwargs = {"payload_len": 512}
    system, graph = quickstart_run(**kwargs)
    system.configure(graph)
    assert not system.advance(200)
    snap = capture(system, "repro.workloads:quickstart_run", kwargs)
    snap.digest = "0" * 64  # would fail verification...
    restored = restore(snap, verify=False)  # ...but we opted out
    assert restored.sim.now == 200


def test_lambda_factory_is_rejected_at_capture_time():
    with pytest.raises(SnapshotError, match="snapshot-anchorable|round-trip"):
        factory_ref(lambda: None)


def test_unencodable_kwarg_is_rejected():
    with pytest.raises(SnapshotError, match="cannot encode"):
        encode_value(object())


def test_diff_states_pinpoints_changes():
    a = {"x": 1, "rows": [{"p": 3}, {"p": 4}]}
    b = {"x": 1, "rows": [{"p": 3}, {"p": 9}]}
    assert diff_states(a, b) == ["rows[1].p"]
    assert state_digest(a) != state_digest(b)
    assert state_digest(a) == state_digest(json.loads(json.dumps(a)))
