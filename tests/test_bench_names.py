"""The benchmark's traced per-layer names must resolve in the library.

bench/run.py --trace 1 wraps hyperkernel.<module>.<name> for every
per-layer metric counted per call; a rename in the library would crash
the traced run, so it fails here instead.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED_SUFFIXES = (".calls", ".self_s", ".per_table")


def traced_names() -> list[str]:
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [m["name"] for m in doc["per_layer"] if m["name"].endswith(TRACED_SUFFIXES)]


def test_some_names_are_traced():
    assert len(traced_names()) >= 30


@pytest.mark.parametrize("metric", traced_names())
def test_traced_name_resolves(metric):
    module, attr, _ = metric.split(".")
    assert hasattr(importlib.import_module(f"hyperkernel.{module}"), attr), metric
