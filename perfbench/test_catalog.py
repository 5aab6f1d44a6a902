"""Checks on BENCHMARK.json, the metric catalog and the host-speed scaling.

Run from the repository root::

    python3 -m pytest -q perfbench/test_catalog.py
"""

import json
import os
import re

import pytest

import catalog
from hostspeed import REFERENCE_S, HostSpeed
from tracing import _layer_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_shape_and_caps():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert all(p == "perfbench" or p.startswith("perfbench/") for p in bench["command"][1:])


def test_names_units_and_bounds():
    bench = load()
    names = [w["name"] for w in bench["workloads"]]
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_catalog_matches_benchmark_json():
    bench = load()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == catalog.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == {
        k: v[:2] for k, v in catalog.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        k: v[:2] for k, v in catalog.PER_LAYER.items()}


def test_layer_attribution():
    assert _layer_of("/x/src/repro/core/shell.py") == "core.shell"
    assert _layer_of("/x/src/repro/core/system.py") == "core.system"
    assert _layer_of("/x/src/repro/sim/faults.py") == "resilience"
    assert _layer_of("/x/src/repro/sim/kernel.py") == "sim"
    assert _layer_of("/x/src/repro/trace/oplog.py") == "obs"
    assert _layer_of("/usr/lib/python3.11/heapq.py") == "other"
    assert _layer_of("~") == "other"


def test_host_speed_scaling():
    speed = HostSpeed()
    speed.samples = [1.5 * REFERENCE_S, 2.5 * REFERENCE_S]
    assert speed.slowdown == pytest.approx(2.0)
    assert speed.scale(3.0) == pytest.approx(1.5)
    speed.scaled = False
    assert speed.scale(3.0) == 3.0
