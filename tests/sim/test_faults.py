"""Unit tests for the fault-injection layer: plan parsing and
validation, injector determinism, drop caps, stall schedules and the
single-bit corruption model."""

import pytest

from repro.sim import FaultInjector, FaultPlan, StallSpec


# ---------------------------------------------------------------------------
# FaultPlan validation & parsing
# ---------------------------------------------------------------------------
def test_plan_defaults_inject_nothing():
    plan = FaultPlan()
    assert not plan.any_faults()
    inj = FaultInjector(plan)
    assert inj.plan_message(object()) == [0]
    assert inj.coproc_stall("cp0", 100) == 0
    assert inj.corrupt_line(b"\x00" * 64) is None
    assert inj.stats.total_injected() == 0


@pytest.mark.parametrize("field,value", [
    ("drop_prob", -0.1), ("drop_prob", 1.5), ("dup_prob", 2.0),
    ("delay_prob", -1.0), ("corrupt_prob", 1.01),
])
def test_probability_bounds_validated(field, value):
    with pytest.raises(ValueError, match=field):
        FaultPlan(**{field: value})


@pytest.mark.parametrize("kw,match", [
    ({"max_delay": 0}, "max_delay"),
    ({"max_stall": 0}, "max_stall"),
    ({"drop_limit": -1}, "drop_limit"),
])
def test_integer_bounds_validated(kw, match):
    with pytest.raises(ValueError, match=match):
        FaultPlan(**kw)


def test_stall_spec_validated():
    with pytest.raises(ValueError, match="at_cycle"):
        StallSpec("cp0", at_cycle=-1, cycles=10)
    with pytest.raises(ValueError, match="cycles"):
        StallSpec("cp0", at_cycle=0, cycles=0)
    with pytest.raises(ValueError, match="StallSpec.cycles must be an int, got 2.5"):
        StallSpec("cp0", at_cycle=0, cycles=2.5)


def test_parse_presets():
    assert FaultPlan.parse("none") == FaultPlan()
    assert FaultPlan.parse("chaos") == FaultPlan.chaos()
    assert FaultPlan.parse("blackout").drop_prob == 1.0
    assert FaultPlan.parse("drop").drop_limit == 64
    # seed override applies to presets too
    assert FaultPlan.parse("chaos", seed=9).seed == 9


def test_parse_key_value_list():
    plan = FaultPlan.parse("drop=0.2, delay=0.3, seed=7, drop_limit=10")
    assert plan.drop_prob == 0.2
    assert plan.delay_prob == 0.3
    assert plan.seed == 7
    assert plan.drop_limit == 10
    # explicit seed argument beats the in-spec one
    assert FaultPlan.parse("drop=0.2,seed=7", seed=3).seed == 3


@pytest.mark.parametrize("spec", ["drop", "dup", "delay", "stall", "corrupt", "blackout", "chaos"])
def test_presets_inject_something(spec):
    assert FaultPlan.parse(spec).any_faults()


def test_parse_rejects_unknown_keys_and_malformed_items():
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.parse("explode=1.0")
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.parse("drop:0.3")


def test_describe_mentions_active_knobs_only():
    text = FaultPlan(seed=4, drop_prob=0.25, drop_limit=8).describe()
    assert "seed=4" in text and "drop=0.25" in text and "drop_limit=8" in text
    assert "dup" not in text and "corrupt" not in text


# ---------------------------------------------------------------------------
# injector determinism
# ---------------------------------------------------------------------------
def test_same_seed_same_schedule():
    plan = FaultPlan.chaos(seed=42)
    a, b = FaultInjector(plan), FaultInjector(plan)
    msgs = [object() for _ in range(200)]
    assert [a.plan_message(m) for m in msgs] == [b.plan_message(m) for m in msgs]
    assert [a.coproc_stall("x", t) for t in range(50)] == [
        b.coproc_stall("x", t) for t in range(50)
    ]
    data = bytes(range(64))
    assert [a.corrupt_line(data) for _ in range(50)] == [b.corrupt_line(data) for _ in range(50)]
    assert a.stats == b.stats


def test_different_seeds_differ():
    msgs = [object() for _ in range(300)]
    a = [FaultInjector(FaultPlan.chaos(seed=0)).plan_message(m) for m in msgs]
    b = [FaultInjector(FaultPlan.chaos(seed=1)).plan_message(m) for m in msgs]
    assert a != b


# ---------------------------------------------------------------------------
# message fates & the drop cap
# ---------------------------------------------------------------------------
def test_drop_limit_caps_drops():
    inj = FaultInjector(FaultPlan(drop_prob=1.0, drop_limit=5))
    fates = [inj.plan_message(object()) for _ in range(50)]
    assert fates[:5] == [[]] * 5  # the budget is spent immediately...
    assert all(f == [0] for f in fates[5:])  # ...then clean deliveries
    assert inj.stats.messages_dropped == 5


def test_duplicate_produces_two_deliveries():
    inj = FaultInjector(FaultPlan(dup_prob=1.0))
    fates = [inj.plan_message(object()) for _ in range(20)]
    assert all(len(f) == 2 for f in fates)
    assert all(f[0] == 0 and f[1] >= 0 for f in fates)
    assert inj.stats.messages_duplicated == 20


def test_delay_bounded_by_max_delay():
    inj = FaultInjector(FaultPlan(delay_prob=1.0, max_delay=5))
    fates = [inj.plan_message(object()) for _ in range(100)]
    assert all(f != [0] and 1 <= f[0] <= 5 for f in fates)
    assert inj.stats.messages_delayed == 100


# ---------------------------------------------------------------------------
# stalls
# ---------------------------------------------------------------------------
def test_explicit_stalls_fire_once_per_spec():
    plan = FaultPlan(stalls=(
        StallSpec("cp0", at_cycle=100, cycles=40),
        StallSpec("cp0", at_cycle=100, cycles=10),
        StallSpec("cp1", at_cycle=500, cycles=7),
    ))
    inj = FaultInjector(plan)
    assert inj.coproc_stall("cp0", 50) == 0  # too early
    assert inj.coproc_stall("cp1", 100) == 0  # wrong coprocessor
    assert inj.coproc_stall("cp0", 120) == 50  # both cp0 specs, summed
    assert inj.coproc_stall("cp0", 130) == 0  # consumed: never re-fires
    assert inj.coproc_stall("cp1", 600) == 7
    assert inj.coproc_stall("cp1", 700) == 0
    assert inj.stats.stalls_injected == 2
    assert inj.stats.stall_cycles == 57


def test_probabilistic_stall_bounded():
    inj = FaultInjector(FaultPlan(stall_prob=1.0, max_stall=9))
    stalls = [inj.coproc_stall("cp0", t) for t in range(100)]
    assert all(1 <= s <= 9 for s in stalls)
    assert inj.stats.stall_cycles == sum(stalls)


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------
def test_corrupt_line_flips_exactly_one_bit():
    inj = FaultInjector(FaultPlan(corrupt_prob=1.0))
    data = bytes(range(64))
    for _ in range(50):
        out = inj.corrupt_line(data)
        assert out is not None and len(out) == len(data)
        diff = [(a ^ b) for a, b in zip(data, out) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1
    assert inj.stats.corruptions_injected == 50


def test_corrupt_line_leaves_empty_data_alone():
    inj = FaultInjector(FaultPlan(corrupt_prob=1.0))
    assert inj.corrupt_line(b"") is None


# ---------------------------------------------------------------------------
# serialization (run-report / RunSpec round-trips)
# ---------------------------------------------------------------------------
def test_plan_round_trips_through_dict():
    plan = FaultPlan.chaos(seed=9).with_(
        stalls=(StallSpec("vld", at_cycle=100, cycles=40),
                StallSpec("dct", at_cycle=0, cycles=1)),
    )
    data = plan.to_dict()
    assert data["seed"] == 9 and len(data["stalls"]) == 2
    import json

    assert FaultPlan.from_dict(json.loads(json.dumps(data))) == plan


def test_plan_from_dict_validates():
    with pytest.raises(ValueError, match="drop_prob"):
        FaultPlan.from_dict({"drop_prob": 2.0})


# ---------------------------------------------------------------------------
# LossPlan (the network fault axis, repro.net)
# ---------------------------------------------------------------------------
def test_loss_plan_defaults_disturb_nothing():
    from repro.sim import LossPlan

    plan = LossPlan()
    assert not plan.any_loss()
    # FEC/RTX knobs alone are not "loss": they only matter under loss
    assert not LossPlan(fec_group=8, max_rtx=5).any_loss()
    for active in (LossPlan(drop_prob=0.1), LossPlan(dup_prob=0.1),
                   LossPlan(reorder_prob=0.1), LossPlan(rate_var=0.1)):
        assert active.any_loss()


@pytest.mark.parametrize("field,value", [
    ("drop_prob", 1.5), ("dup_prob", -0.1), ("reorder_prob", 2.0),
    ("rate_var", -1.0), ("max_jitter", 0), ("fec_group", -1),
    ("rtx_timeout", 0), ("rtx_backoff", 0), ("max_rtx", -1),
    ("deadline", 0),
])
def test_loss_plan_validates_fields(field, value):
    from repro.sim import LossPlan

    with pytest.raises(ValueError, match=field):
        LossPlan(**{field: value})


def test_loss_plan_presets_parse():
    from repro.sim import LossPlan

    assert not LossPlan.parse("none").any_loss()
    for name in ("mild", "moderate", "heavy", "jitter"):
        assert LossPlan.parse(name).any_loss()
    heavy = LossPlan.parse("heavy")
    mild = LossPlan.parse("mild")
    assert heavy.drop_prob > mild.drop_prob


def test_loss_plan_parses_key_value_spec():
    from repro.sim import LossPlan

    plan = LossPlan.parse("drop=0.1,dup=0.05,reorder=0.2,rate_var=0.3,"
                          "fec_group=8,rtx_timeout=20,max_rtx=2,seed=5")
    assert plan.drop_prob == 0.1 and plan.dup_prob == 0.05
    assert plan.reorder_prob == 0.2 and plan.rate_var == 0.3
    assert plan.fec_group == 8 and plan.rtx_timeout == 20
    assert plan.max_rtx == 2 and plan.seed == 5
    # "loss" is an alias for drop
    assert LossPlan.parse("loss=0.4").drop_prob == 0.4


def test_loss_plan_seed_override_semantics():
    """The explicit seed parameter (a sweep override) beats the spec's
    inline seed; None leaves the inline seed alone."""
    from repro.sim import LossPlan

    assert LossPlan.parse("drop=0.1,seed=7").seed == 7
    assert LossPlan.parse("drop=0.1,seed=7", seed=None).seed == 7
    assert LossPlan.parse("drop=0.1,seed=7", seed=9).seed == 9
    assert LossPlan.parse("moderate", seed=9).seed == 9


def test_loss_plan_parse_rejects_garbage():
    from repro.sim import LossPlan

    with pytest.raises(ValueError, match="key=value"):
        LossPlan.parse("drop")
    with pytest.raises(ValueError, match="unknown"):
        LossPlan.parse("warp=0.5")


def test_loss_plan_describe_mentions_active_knobs():
    from repro.sim import LossPlan

    text = LossPlan.parse("heavy", seed=3).describe()
    assert "seed=3" in text and "drop=" in text
    assert "fec=" in text and "rtx=" in text
