"""Unit tests for statistics probes."""

from repro.sim import Series, Simulator, TimeWeightedStat, UtilizationProbe


def run_to(sim, t):
    sim.run(until=t)


def test_time_weighted_mean_constant():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=4.0)
    run_to(sim, 10)
    assert s.mean() == 4.0


def test_time_weighted_mean_step():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=0.0)
    run_to(sim, 5)
    s.update(10.0)
    run_to(sim, 10)
    # 5 cycles at 0 plus 5 cycles at 10 -> mean 5
    assert s.mean() == 5.0


def test_time_weighted_min_max():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=2.0)
    s.update(7.0)
    s.update(-1.0)
    assert s.minimum == -1.0
    assert s.maximum == 7.0


def test_time_weighted_add_delta():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=1.0)
    s.add(4.0)
    assert s.value == 5.0
    s.add(-2.0)
    assert s.value == 3.0


def test_mean_at_zero_elapsed_is_current_value():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=3.0)
    assert s.mean() == 3.0


def test_utilization_idle():
    sim = Simulator()
    u = UtilizationProbe(sim)
    run_to(sim, 100)
    assert u.utilization() == 0.0


def test_utilization_half_busy():
    sim = Simulator()
    u = UtilizationProbe(sim)
    u.set_busy()
    run_to(sim, 50)
    u.set_idle()
    run_to(sim, 100)
    assert u.utilization() == 0.5


def test_utilization_counts_open_interval():
    sim = Simulator()
    u = UtilizationProbe(sim)
    u.set_busy()
    run_to(sim, 40)
    assert u.busy_cycles() == 40
    assert u.utilization() == 1.0


def test_utilization_idempotent_transitions():
    sim = Simulator()
    u = UtilizationProbe(sim)
    u.set_busy()
    u.set_busy()
    run_to(sim, 10)
    u.set_idle()
    u.set_idle()
    assert u.busy_cycles() == 10


def test_series_basic():
    s = Series("buf")
    s.record(0, 1.0)
    s.record(10, 3.0)
    s.record(20, 2.0)
    assert len(s) == 3
    assert s.max() == 3.0
    assert s.min() == 1.0
    assert s.mean() == 2.0
    assert list(s) == [(0, 1.0), (10, 3.0), (20, 2.0)]


def test_series_window():
    s = Series("buf")
    for t in range(0, 50, 10):
        s.record(t, float(t))
    w = s.window(10, 40)
    assert list(w) == [(10, 10.0), (20, 20.0), (30, 30.0)]


def test_series_empty_stats():
    s = Series()
    assert s.max() == 0.0 and s.min() == 0.0 and s.mean() == 0.0


# ---------------------------------------------------------------------------
# probes under the flattened run loop
# ---------------------------------------------------------------------------
def _drive_probes():
    """One busy/idle/value scenario driven through Simulator.run()."""
    sim = Simulator()
    stat = TimeWeightedStat(sim, initial=0.0)
    util = UtilizationProbe(sim)

    def proc():
        util.set_busy()
        stat.update(4.0)
        yield sim.timeout(7)
        stat.add(2.0)
        util.set_idle()
        yield sim.timeout(13)
        stat.update(1.0)
        util.set_busy()
        yield sim.timeout(5)

    sim.process(proc())
    sim.run()
    return (stat.mean(), stat.minimum, stat.maximum,
            util.busy_cycles(), util.utilization(), sim.now)


def test_probes_integrate_a_busy_idle_scenario():
    # value 4 for 7 cycles, 6 for 13, 1 for 5; busy for 7 + 5 of 25
    assert _drive_probes() == (111 / 25, 0.0, 6.0, 12, 12 / 25, 25)


def test_probes_integrate_across_compressed_idle_window():
    """Time-weighted stats depend only on (value, elapsed) pairs, so a
    single leap timeout over an idle window — how the deadlock monitor
    compresses its polls — must integrate to exactly the same area as
    poll-by-poll stepping."""
    ref = Simulator()
    s_ref = TimeWeightedStat(ref, initial=3.0)
    u_ref = UtilizationProbe(ref)

    def stepper():
        u_ref.set_busy()
        for _ in range(10):  # ten 1000-cycle polls
            yield ref.timeout(1000)
        s_ref.update(5.0)

    ref.process(stepper())
    ref.run()

    fast = Simulator()
    s_fast = TimeWeightedStat(fast, initial=3.0)
    u_fast = UtilizationProbe(fast)

    def leaper():
        u_fast.set_busy()
        yield fast.timeout(10_000)  # one compressed leap
        s_fast.update(5.0)

    fast.process(leaper())
    fast.run()

    assert fast.now == ref.now == 10_000
    assert s_fast.mean() == s_ref.mean() == 3.0
    assert (s_fast.minimum, s_fast.maximum) == (s_ref.minimum, s_ref.maximum)
    assert u_fast.busy_cycles() == u_ref.busy_cycles() == 10_000
    assert u_fast.utilization() == u_ref.utilization() == 1.0
