"""Self-time arithmetic on synthetic span trees."""

import pytest

from spans import (
    SUBSYSTEMS,
    accounting_error_ns,
    layer_metrics,
    residual_ns,
    self_times,
    union_ns,
)


def span(name, start, end, parent=-1, key=None):
    return [name, start, end, parent, key]


# report [10, 100] -> table6 [20, 80] -> commscope [30, 70] -> two runs
TREE = [
    span("render", 10, 100),                      # 0
    span("render", 20, 80, 0),                    # 1
    span("study.commscope", 30, 70, 1, "cs/a"),   # 2
    span("sim.run", 35, 45, 2),                   # 3
    span("sim.run", 50, 65, 2),                   # 4
    span("ledger.record", 120, 150),              # 5
    span("obs.attribution", 125, 145, 5),         # 6
]


def test_union_merges_overlaps_and_clips():
    assert union_ns([(0, 10), (5, 20), (30, 40)], 0, 100) == 30
    assert union_ns([(0, 10), (5, 20)], 8, 12) == 4
    assert union_ns([], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    assert self_times(TREE) == [30, 20, 15, 10, 15, 10, 20]


def test_nested_layers_are_not_double_counted():
    total = sum(self_times(TREE))
    covered = union_ns([(10, 100), (120, 150)], 0, 200)
    assert total == covered == 120
    assert residual_ns(TREE, 0, 200) == 80
    assert accounting_error_ns(TREE, 0, 200) == 0


def test_child_escaping_its_parent_is_caught():
    broken = [span("render", 10, 50), span("sim.run", 40, 60, 0)]
    assert accounting_error_ns(broken, 0, 100) == 10


def test_layer_metrics_sum_self_times_per_layer():
    trace = {
        "spans": TREE + [span("study.commscope", 160, 170, -1, "cs/a"),
                         span("study.osu", 170, 190, -1, "osu/b")],
        "end_ns": 200,
        "counts": {"hardware.classify": 7},
        "facts": {"obs.windows": 3},
        "events": 12,
        "events_by_subsystem": {"gpurt": 5, "sim": 4, "analysis": 3},
    }
    m = layer_metrics(trace, 0)
    assert m["render_s"] == pytest.approx(50e-9)
    assert m["sim.run_s"] == pytest.approx(25e-9)
    assert m["study.commscope_s"] == pytest.approx(25e-9)
    assert m["ledger.record_s"] == pytest.approx(10e-9)
    assert m["obs.attribution_s"] == pytest.approx(20e-9)
    assert m["unwrapped_s"] == pytest.approx(50e-9)
    assert m["sim.run_calls"] == 2
    assert m["obs.attribution_calls"] == 1
    assert m["hardware.classify_calls"] == 7
    assert m["mpisim.worlds_built"] == 0
    assert m["obs.windows"] == 3
    assert m["study.cell_calls"] == 3
    assert m["study.cells_distinct"] == 2
    assert m["study.useful_ratio"] == pytest.approx(2 / 3)
    assert m["study.cell_ms_p50"] == pytest.approx(20e-6)
    assert m["sim.events"] == 12
    assert m["sim.events.other"] == 3
    assert sum(m[f"sim.events.{s}"] for s in SUBSYSTEMS) == 12
