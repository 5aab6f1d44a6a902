"""Unit tests for the arbitrated bus model."""

import pytest

from repro.hw import Bus
from repro.sim import Simulator


def test_occupancy_cycles():
    bus = Bus(Simulator(), width_bytes=16, setup_latency=2)
    assert bus.occupancy_cycles(0) == 2
    assert bus.occupancy_cycles(1) == 3
    assert bus.occupancy_cycles(16) == 3
    assert bus.occupancy_cycles(17) == 4
    assert bus.occupancy_cycles(160) == 12


def test_single_transfer_timing():
    sim = Simulator()
    bus = Bus(sim, width_bytes=16, setup_latency=2)
    done = []

    def master(sim, bus):
        yield from bus.transfer(32, master="m0")
        done.append(sim.now)

    sim.process(master(sim, bus))
    sim.run()
    assert done == [4]  # 2 setup + 2 beats
    assert bus.stats.transactions == 1
    assert bus.stats.bytes_transferred == 32
    assert bus.per_master_bytes == {"m0": 32}


def test_contention_serializes():
    sim = Simulator()
    bus = Bus(sim, width_bytes=16, setup_latency=2)
    done = []

    def master(sim, bus, name):
        yield from bus.transfer(16, master=name)
        done.append((name, sim.now))

    sim.process(master(sim, bus, "a"))
    sim.process(master(sim, bus, "b"))
    sim.run()
    assert done == [("a", 3), ("b", 6)]
    assert bus.stats.wait_cycles == 3  # b waited for a


def test_priority_preempts_queue_order():
    sim = Simulator()
    bus = Bus(sim, width_bytes=16, setup_latency=1)
    done = []

    def holder(sim, bus):
        yield from bus.transfer(16 * 9, master="hold")  # occupies 10 cycles

    def master(sim, bus, name, prio, when):
        yield sim.timeout(when)
        yield from bus.transfer(16, master=name, priority=prio)
        done.append(name)

    sim.process(holder(sim, bus))
    sim.process(master(sim, bus, "low", 5, 1))
    sim.process(master(sim, bus, "high", 0, 2))
    sim.run()
    assert done == ["high", "low"]


def test_same_cycle_mixed_priorities_fifo_within_priority():
    sim = Simulator()
    bus = Bus(sim, width_bytes=16, setup_latency=1)
    done = []

    def holder(sim, bus):
        yield from bus.transfer(16 * 9, master="hold")  # occupies 10 cycles

    def master(sim, bus, name, prio):
        yield 1
        yield from bus.transfer(16, master=name, priority=prio)
        done.append((name, sim.now))

    sim.process(holder(sim, bus))
    for name, prio in (("p1a", 1), ("p0a", 0), ("p1b", 1), ("p2", 2), ("p0b", 0), ("p1c", 1)):
        sim.process(master(sim, bus, name, prio))
    sim.run()
    assert [name for name, _ in done] == ["p0a", "p0b", "p1a", "p1b", "p1c", "p2"]
    # back to back, 2 cycles each, after the holder's 10
    assert [t for _, t in done] == [12, 14, 16, 18, 20, 22]
    assert bus.queue_length == 0


def test_uncontended_transfer_builds_no_grant_event(monkeypatch):
    import repro.hw.bus as bus_module

    built = []

    class CountingEvent(bus_module.Event):
        __slots__ = ()

        def __init__(self, sim):
            built.append(sim.now)
            super().__init__(sim)

    monkeypatch.setattr(bus_module, "Event", CountingEvent)
    sim = Simulator()
    bus = Bus(sim, width_bytes=16, setup_latency=2)

    def master(sim, bus, start):
        yield start
        yield from bus.transfer(16)

    sim.process(master(sim, bus, 0))
    sim.process(master(sim, bus, 10))  # the bus is free again at 3
    sim.process(master(sim, bus, 11))  # queues behind the one at 10
    sim.run()
    assert built == [11]
    assert bus.stats.wait_cycles == 2


def test_utilization():
    sim = Simulator()
    bus = Bus(sim, width_bytes=16, setup_latency=2)

    def master(sim, bus):
        yield from bus.transfer(16)
        yield sim.timeout(7)

    sim.process(master(sim, bus))
    sim.run()
    assert sim.now == 10
    assert bus.stats.utilization(sim.now) == pytest.approx(0.3)


def test_bad_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        Bus(sim, width_bytes=0)
    with pytest.raises(ValueError):
        Bus(sim, setup_latency=-1)
    bus = Bus(sim)
    with pytest.raises(ValueError):
        list(bus.transfer(-1))
