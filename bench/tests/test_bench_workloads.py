"""Seeded inputs: deterministic per seed, same sizes for every seed."""

import json
import math

from workloads import (DEFAULT_GRIDS, WORKLOADS, configs, reference_configs,
                       write_configs)


def grid_count(spec):
    """Points in a {start, stop, step} grid, as homsensor.cli counts them."""
    return int(math.floor((spec["stop"] - spec["start"]) / spec["step"]
                          + 1e-9)) + 1


def _grids(cfg):
    return {k: v for k, v in cfg.items() if k in DEFAULT_GRIDS}


def test_same_seed_same_config_files(tmp_path):
    for workload in WORKLOADS:
        a = write_configs(workload, 11, "stack.json", str(tmp_path / "a"))
        b = write_configs(workload, 11, "stack.json", str(tmp_path / "b"))
        assert [cmd for cmd, _ in a] == [cmd for cmd, _ in b]
        for (_, path_a), (_, path_b) in zip(a, b):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read()
            with open(path_a, encoding="utf-8") as f:
                assert isinstance(json.load(f), dict)


def test_every_seed_gives_default_sizes_and_seeds_move_starts():
    starts = set()
    for seed in range(300):
        for workload in WORKLOADS:
            for _, cfg in configs(workload, seed, "stack.json"):
                for name, spec in _grids(cfg).items():
                    assert grid_count(spec) == DEFAULT_GRIDS[name][2]
                    starts.add((name, spec["start"]))
    assert len({name for name, _ in starts}) == len(DEFAULT_GRIDS)
    assert len(starts) > 3 * len(DEFAULT_GRIDS)


def test_seed_grid_points_lie_on_the_reference_grids():
    reference = {}
    for _, cfg in reference_configs("stack.json"):
        reference.update(_grids(cfg))
    for seed in range(50):
        for workload in WORKLOADS:
            for _, cfg in configs(workload, seed, "stack.json"):
                for name, spec in _grids(cfg).items():
                    ref = reference[name]
                    steps = (spec["start"] - ref["start"]) / ref["step"]
                    assert abs(steps - round(steps)) < 1e-6
                    assert ref["start"] <= spec["start"]
                    assert spec["stop"] <= ref["stop"] + 1e-9


def test_only_fixture_workloads_skip_calibration():
    assert all("stack_path" not in cfg
               for _, cfg in configs("sweeps", 0, "stack.json"))
    for workload in ("grid", "spectral"):
        assert all(cfg["stack_path"] == "stack.json"
                   for _, cfg in configs(workload, 0, "stack.json"))
