"""Shared fixtures and graph builders for the whole test suite.

The differential tests all follow the same shape: build a small
application graph, run it through the functional executor for golden
histories, run it on a cycle-level system (possibly with faults), and
compare byte-for-byte.  The builders live here so every test file
stresses the *same* graphs and the corpus stays comparable.

``tests`` is a package, so helpers are importable directly:
``from tests.conftest import diamond_graph, payload_of``.
"""

import contextlib
import random

import pytest

from repro.core import CoprocessorSpec, EclipseSystem, ShellParams, SystemParams
from repro.kahn import FunctionalExecutor
from repro.sim.kernel import Simulator

# The canonical graphs/payloads live in repro.workloads (module-level so
# the parallel runner can pickle run descriptions); re-exported here so
# the whole test corpus keeps stressing the same builders.
from repro.workloads import (  # noqa: F401  (re-exports for the test suite)
    GRAPH_BUILDERS,
    diamond_graph,
    payload_of,
    pipeline_graph,
)


def golden_histories(graph):
    """Run ``graph`` on the functional Kahn executor: the oracle."""
    return FunctionalExecutor(graph).run().histories


def make_system(n_coprocs=3, params=None, shell=None, faults=None):
    """A plain n-coprocessor cycle-level system."""
    spec_shell = shell or ShellParams()
    return EclipseSystem(
        [CoprocessorSpec(f"cp{i}", shell=spec_shell) for i in range(n_coprocs)],
        params or SystemParams(),
        faults=faults,
    )


def run_on_system(graph, n_coprocs=3, params=None, shell=None, faults=None):
    """configure + run in one call; returns the SystemResult."""
    system = make_system(n_coprocs=n_coprocs, params=params, shell=shell, faults=faults)
    system.configure(graph)
    return system.run()


#: Deadlock-monitor modes for tests that must hold either way:
#: ``"reference"`` steps the monitor poll by poll through every idle
#: window; ``"fast"`` is the shipped monitor, which leaps a window in
#: which the queue holds nothing but its own poll.
MONITOR_MODES = ("reference", "fast")


@contextlib.contextmanager
def monitor_mode(mode):
    """Run the enclosed block under one of :data:`MONITOR_MODES`.

    ``"reference"`` makes the queue report one phantom pending event,
    the condition under which the monitor must not compress, so it
    steps every poll exactly as an uncompressed run would.
    """
    if mode not in MONITOR_MODES:
        raise ValueError(f"unknown monitor mode {mode!r}")
    with pytest.MonkeyPatch.context() as mp:
        if mode == "reference":
            pending = Simulator.pending_events
            mp.setattr(Simulator, "pending_events", lambda sim: pending(sim) + 1)
        yield


def assert_histories_match(result, golden):
    """Every stream's history byte-identical to the oracle's."""
    assert result.completed, "cycle-level run did not complete"
    for name, hist in golden.items():
        assert result.histories[name] == hist, f"history mismatch on {name}"


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def default_shell_params():
    """The paper-default ShellParams (one object per test)."""
    return ShellParams()


@pytest.fixture
def seeded_rng():
    """A deterministically-seeded RNG for property-style tests."""
    return random.Random(0xEC1195E)


@pytest.fixture
def small_payload():
    """400 deterministic bytes — enough for a few dozen chunks."""
    return payload_of(400)


@pytest.fixture
def small_pipeline(small_payload):
    return pipeline_graph(small_payload)


@pytest.fixture
def small_diamond(small_payload):
    return diamond_graph(small_payload)
