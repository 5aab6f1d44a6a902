"""Bare-integer holds: ``yield n`` is ``yield sim.timeout(n)``, event
for event (kernel invariant 3)."""

import gc
import random

import pytest

from repro.sim import Interrupt, Process, Simulator


def _program(rng: random.Random, depth: int = 0) -> list:
    """A random process body: holds (many of 0 or 1 cycles, so that
    same-cycle ties abound) and joins on spawned children."""
    body = []
    for _ in range(rng.randint(1, 6)):
        if depth < 2 and rng.random() < 0.2:
            body.append(("join", _program(rng, depth + 1)))
        else:
            body.append(("hold", rng.choice((0, 0, 1, 1, 2, 3, 5))))
    return body


def _run(programs, use_int) -> list:
    """Run ``programs`` and return the (now, process, step) firing log;
    ``use_int(pid, step)`` picks ``yield n`` over ``yield sim.timeout(n)``."""
    sim = Simulator()
    log = []

    def body(pid, program):
        for step, (kind, arg) in enumerate(program):
            log.append((sim.now, pid, step))
            if kind == "hold":
                yield arg if use_int(pid, step) else sim.timeout(arg)
            else:
                value = yield sim.process(body(f"{pid}.{step}", arg))
                assert value == f"{pid}.{step}"
        log.append((sim.now, pid, "end"))
        return pid

    for pid, program in enumerate(programs):
        sim.process(body(str(pid), program))
    sim.run()
    return log + [("final", sim.now, sim._seq)]


@pytest.mark.parametrize("seed", range(20))
def test_int_holds_replay_timeout_schedule(seed):
    rng = random.Random(seed)
    programs = [_program(rng) for _ in range(rng.randint(2, 8))]
    reference = _run(programs, lambda pid, step: False)
    mix = random.Random(seed + 1000)
    choice = {}

    def mixed(pid, step):
        return choice.setdefault((pid, step), mix.random() < 0.5)

    assert _run(programs, lambda pid, step: True) == reference
    assert _run(programs, mixed) == reference


def test_interrupt_during_int_hold_delivered_once():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield 100
        except Interrupt as i:
            log.append(("interrupted", sim.now, i.cause))
        yield 5
        log.append(("held", sim.now))
        # the retired token of the first hold is still queued for 100
        # and must not cut this hold short
        yield 200
        log.append(("end", sim.now))

    def interrupter(sim, victim):
        yield 10
        victim.interrupt("wake")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", 10, "wake"), ("held", 15), ("end", 215)]
    assert not victim.is_alive and victim.ok


def test_interrupt_during_int_hold_matches_timeout_hold():
    def run(hold):
        sim = Simulator()
        log = []

        def sleeper(sim):
            for _ in range(3):
                try:
                    yield hold(sim, 7)
                    log.append(("woke", sim.now))
                except Interrupt:
                    log.append(("interrupted", sim.now))

        def interrupter(sim, victim):
            yield sim.timeout(3)
            victim.interrupt()
            yield sim.timeout(7)
            victim.interrupt()

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        return log, sim.now

    assert run(lambda sim, n: n) == run(lambda sim, n: sim.timeout(n))


def test_finished_processes_reclaimed_without_cyclic_gc():
    def count_processes():
        return sum(1 for o in gc.get_objects() if isinstance(o, Process))

    def child(sim, n):
        yield n % 3
        yield 1

    def spawner(sim):
        for n in range(1000):
            sim.process(child(sim, n))
            if n % 10 == 0:
                yield 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = count_processes()
        sim = Simulator()
        sim.process(spawner(sim))
        sim.run()
        assert count_processes() == before
    finally:
        if was_enabled:
            gc.enable()
