"""BENCHMARK.json names; test_smoke checks them against emitted metrics."""

import json
import re
from pathlib import Path

from run import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_name_fits_the_pattern():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

