"""BENCHMARK.json names exactly the metrics run.py reports."""

import json
import os

from run import ROOT, Pass, end_to_end_metrics, layer_metrics
from workloads import WORKLOADS


def _definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_workloads_match():
    assert [w["name"] for w in _definition()["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    reported = end_to_end_metrics([1.0], [Pass(wall_s=1.0, rows=1)])
    assert _names_units(_definition()["end_to_end"]) == \
        {name: unit for name, (_, unit) in reported.items()}


def test_per_layer_metrics_match():
    reported = layer_metrics(Pass(), {"import_s": 1.0, "wall_s": 1.0},
                             {"layers": {}, "warnings": 0, "wall_s": 1.0},
                             0.0)
    assert _names_units(_definition()["per_layer"]) == \
        {name: unit for name, (_, unit) in reported.items()}
