"""Tests for the deterministic ingest session (sender→link→receiver)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.transport import AUDIO_PID, TS_HEADER, TS_PACKET, VIDEO_PID, ts_mux
from repro.net import NetIngest, ingest, tick_recorder
from repro.net.packets import slot_table
from repro.sim.faults import LossPlan


def make_ts(video_bytes: int = 900, audio_bytes: int = 400, seed: int = 2) -> bytes:
    video = bytes((i * 13 + seed) % 256 for i in range(video_bytes))
    audio = bytes((i * 29 + seed) % 256 for i in range(audio_bytes))
    return ts_mux({VIDEO_PID: video, AUDIO_PID: audio})


# ---------------------------------------------------------------------------
# clean path
# ---------------------------------------------------------------------------
def test_clean_plan_is_a_byte_identical_no_op():
    ts = make_ts()
    res = ingest(ts, LossPlan())
    assert res.recovered_ts == ts
    assert res.lost_slots == ()
    assert not res.loss_active
    assert res.stats.data_packets == len(ts) // TS_PACKET
    assert res.stats.slots_lost == 0


def test_ingest_validates_ts_length():
    with pytest.raises(ValueError, match="whole number"):
        NetIngest(b"x" * 10, LossPlan())


# ---------------------------------------------------------------------------
# determinism: the same seed recovers the same stream
# ---------------------------------------------------------------------------
loss_plans = st.builds(
    LossPlan,
    seed=st.integers(min_value=0, max_value=50),
    drop_prob=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    dup_prob=st.sampled_from([0.0, 0.1]),
    reorder_prob=st.sampled_from([0.0, 0.3]),
    max_jitter=st.integers(min_value=1, max_value=10),
    rate_var=st.sampled_from([0.0, 0.3]),
    fec_group=st.integers(min_value=0, max_value=5),
    rtx_timeout=st.integers(min_value=4, max_value=30),
    rtx_backoff=st.integers(min_value=1, max_value=3),
    max_rtx=st.integers(min_value=0, max_value=3),
    deadline=st.integers(min_value=50, max_value=600),
)


@settings(max_examples=40, deadline=None)
@given(plan=loss_plans)
def test_same_plan_replays_byte_identically(plan):
    ts = make_ts()
    a = ingest(ts, plan)
    b = ingest(ts, plan)
    assert a.recovered_ts == b.recovered_ts
    assert a.lost_slots == b.lost_slots
    assert a.stats.to_dict() == b.stats.to_dict()


@settings(max_examples=40, deadline=None)
@given(plan=loss_plans)
def test_session_always_terminates_with_exact_accounting(plan):
    """No plan may stall the pipeline: every slot is either recovered
    byte-exactly or declared lost (header kept, payload zeroed)."""
    ts = make_ts()
    res = ingest(ts, plan)
    n_slots = len(ts) // TS_PACKET
    assert len(res.recovered_ts) == len(ts)
    assert res.stats.slots_lost == len(res.lost_slots)
    lost = set(res.lost_slots)
    for slot in range(n_slots):
        got = res.recovered_ts[slot * TS_PACKET : (slot + 1) * TS_PACKET]
        ref = ts[slot * TS_PACKET : (slot + 1) * TS_PACKET]
        if slot in lost:
            assert got[:TS_HEADER] == ref[:TS_HEADER]
            assert got[TS_HEADER:] == b"\x00" * (TS_PACKET - TS_HEADER)
        else:
            assert got == ref
    assert res.stats.fec_recovered + res.stats.rtx_recovered <= res.stats.data_packets


def test_total_blackout_declares_every_slot_lost():
    ts = make_ts()
    res = ingest(ts, LossPlan(drop_prob=1.0, max_rtx=2, fec_group=4))
    assert res.lost_slots == tuple(range(len(ts) // TS_PACKET))
    assert res.stats.rtx_gave_up == len(ts) // TS_PACKET
    assert res.stats.packets_received == 0
    # ...yet the session terminated with a finite schedule
    assert res.stats.ticks > 0


# ---------------------------------------------------------------------------
# recovery machinery
# ---------------------------------------------------------------------------
def test_rtx_converges_under_moderate_drop():
    """With retransmission but no FEC, a moderately lossy link still
    converges: NACK/RTX recovers packets the first pass dropped."""
    ts = make_ts()
    total_rtx = total_drops = total_lost = 0
    for seed in range(6):
        res = ingest(ts, LossPlan(seed=seed, drop_prob=0.3,
                                  fec_group=0, max_rtx=3))
        total_rtx += res.stats.rtx_recovered
        total_drops += res.stats.packets_dropped
        total_lost += res.stats.slots_lost
    assert total_drops > 0
    assert total_rtx > 0
    # three backed-off attempts reduce ~30% loss to nearly nothing
    assert total_lost < total_drops / 4


def test_fec_recovers_without_any_retransmission():
    ts = make_ts()
    recovered = 0
    for seed in range(8):
        res = ingest(ts, LossPlan(seed=seed, drop_prob=0.1,
                                  fec_group=4, max_rtx=0))
        assert res.stats.nacks_sent == 0
        recovered += res.stats.fec_recovered
    assert recovered > 0


def test_duplicates_are_counted_and_ignored():
    ts = make_ts()
    res = ingest(ts, LossPlan(dup_prob=1.0, fec_group=0))
    assert res.recovered_ts == ts
    assert res.stats.duplicates_ignored > 0
    assert res.stats.packets_duplicated > 0


def test_reorder_is_absorbed_and_measured():
    ts = make_ts()
    res = ingest(ts, LossPlan(reorder_prob=0.5, max_jitter=8, seed=3))
    assert res.recovered_ts == ts
    assert res.stats.jitter_max_depth > 0


# ---------------------------------------------------------------------------
# erasure mapping
# ---------------------------------------------------------------------------
def test_erased_ranges_match_the_slot_table():
    ts = make_ts()
    res = ingest(ts, LossPlan(seed=1, drop_prob=0.4, fec_group=0, max_rtx=0))
    assert res.lost_slots  # the point of this seed/plan
    table = slot_table(ts)
    expected = {}
    for slot in res.lost_slots:
        pid, off, length = table[slot]
        if length:
            expected.setdefault(pid, []).append((off, off + length))
    assert res.erased_ranges() == {
        pid: tuple(r) for pid, r in sorted(expected.items())
    }


def test_erased_ranges_empty_when_nothing_lost():
    ts = make_ts()
    assert ingest(ts, LossPlan()).erased_ranges() == {}


# ---------------------------------------------------------------------------
# observability hooks
# ---------------------------------------------------------------------------
def test_metrics_registry_receives_net_counters():
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    ts = make_ts()
    res = ingest(ts, LossPlan(seed=2, drop_prob=0.2), metrics=reg)
    snap = reg.to_dict()
    for key, value in res.stats.to_dict().items():
        assert snap[f"net.{key}"]["value"] == value


def test_tick_recorder_stamps_events_with_the_ingest_clock():
    rec = tick_recorder()
    ts = make_ts()
    res = ingest(ts, LossPlan(seed=1, drop_prob=0.4, fec_group=4, max_rtx=1),
                 recorder=rec)
    events = rec.to_chrome_trace()["traceEvents"]
    net_events = [e for e in events if e.get("cat") == "net"]
    assert net_events
    names = {e["name"] for e in net_events}
    assert "slot_lost" in names or "fec_recover" in names
    # timestamps are ingest ticks: bounded by the session length
    assert all(0 <= e["ts"] <= res.stats.ticks for e in net_events)
