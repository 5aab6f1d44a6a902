"""The execution core against its frozen digest corpus.

``golden/engine_corpus.json`` pins a fixed grid of seeded conformance
points (graph x fault plan x fault seed x coprocessor count x payload),
each by the sha256 of its full ``SystemResult`` (histories included)
and its state digest — or, for points that deadlock, by the verdict
cycle and the sha256 of the diagnosis text.  It also pins the
operation logs of the quickstart and of two faulted conformance runs
record for record, the state digests of a mid-run capture and its
restore, and the Chrome-trace/Perfetto export of six span-traced runs
byte for byte.  Any change to the event schedule,
a counter, a history byte or a deadlock diagnosis shows up here as the
list of grid points it moved.

To re-baseline after an intentional behaviour change::

    PYTHONPATH=src python tests/regression/regen_golden.py
"""

import json

import pytest

from tests.regression.regen_golden import (
    CORPUS_FAULTED_OPLOGS,
    CORPUS_PERFETTO,
    corpus_checkpoint,
    corpus_entry,
    corpus_faulted_oplog,
    corpus_oplog,
    corpus_perfetto,
    corpus_points,
    golden_path,
)

#: drop-recovery deadlocks (watchdog backoff vs deadlock-monitor
#: patience): the corpus keeps them as expected deadlocks until the
#: recovery fix lands with its own re-baseline
KNOWN_DEADLOCKS = [
    ("pipeline", 2, 2, 384),
    ("pipeline", 2, 4, 528),
    ("pipeline", 2, 4, 768),
    ("pipeline", 2, 7, 528),
    ("diamond", 3, 3, 288),
    ("diamond", 4, 3, 288),
]


@pytest.fixture(scope="module")
def corpus():
    with open(golden_path("engine_corpus")) as fh:
        return json.load(fh)


def _point_id(kwargs):
    return (
        f"{kwargs['graph']}/{kwargs['fault_spec']}:{kwargs['fault_seed']}/"
        f"{kwargs['n_coprocs']}cp/{kwargs['payload_len']}B"
    )


def test_corpus_grid_is_the_generator_grid(corpus):
    assert [p["kwargs"] for p in corpus["points"]] == list(corpus_points())


def test_corpus_keeps_known_deadlocks(corpus):
    deadlocks = {
        (k["graph"], k["n_coprocs"], k["fault_seed"], k["payload_len"])
        for p in corpus["points"]
        if "deadlock" in p
        for k in [p["kwargs"]]
        if k["fault_spec"] == "drop"
    }
    assert set(KNOWN_DEADLOCKS) <= deadlocks


def test_every_corpus_point_reproduces(corpus):
    drifted = [
        _point_id(p["kwargs"])
        for p in corpus["points"]
        if corpus_entry(p["kwargs"]) != p
    ]
    assert not drifted, (
        f"{len(drifted)} of {len(corpus['points'])} corpus points drifted: "
        + ", ".join(drifted)
    )


def test_quickstart_oplog_reproduces(corpus):
    assert corpus_oplog() == corpus["oplog"]


@pytest.mark.parametrize("name", sorted(CORPUS_FAULTED_OPLOGS))
def test_faulted_oplog_reproduces(corpus, name):
    entry = corpus["oplog_faulted"][name]
    assert entry["messages_dropped"] > 0
    assert corpus_faulted_oplog(name) == entry


@pytest.mark.parametrize("name", sorted(CORPUS_PERFETTO))
def test_perfetto_export_reproduces(corpus, name):
    assert corpus_perfetto(name) == corpus["perfetto"][name]


def test_checkpoint_capture_and_restore_reproduce(corpus):
    assert corpus_checkpoint() == corpus["checkpoint"]
