"""BENCHMARK.json: the one list of workloads and metrics a run reports."""
from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

__all__ = ["BENCHMARK_FILE", "load", "workload_names", "metric_units"]

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@lru_cache(maxsize=1)
def load() -> dict:
    return json.loads(BENCHMARK_FILE.read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in load()["workloads"]]


def metric_units(section: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load()[section]}
