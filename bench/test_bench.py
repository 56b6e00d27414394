"""Tests of the benchmark itself, on shrunken workloads.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import workloads
from tracing import LAYERS, Tracer

# records per workload: enough that every generator family appears
SMALL = {"table-invariants": 10, "genus-one-decompose": 40, "obstruct-csv": 2000}


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run.run(name, seed=5, seconds=0, trace=True, records=n) for name, n in SMALL.items()}


def test_traced_output_is_byte_identical(traced_runs):
    for name, (info, result) in traced_runs.items():
        assert info["traced_identical"], name
        assert result["correct"], (name, info["wrong"])


def test_every_per_layer_metric_is_measured(traced_runs):
    names = [m["name"] for m in run._read_spec()["per_layer"]]
    for name, (info, result) in traced_runs.items():
        assert list(result["metrics"]) == names, name
    for metric in names:
        layer = metric.split(".", 1)[0]
        if layer == "bench":
            continue
        assert layer in LAYERS, metric
        assert any(info["trace"]["layers"][layer] > 0 for info, _ in traced_runs.values()), metric


def test_raised_records_are_counted_as_failed(traced_runs):
    for name, (info, result) in traced_runs.items():
        assert result["failed"] == len(info["errors"]), name
        # the only exception the workloads may raise is the known closure refusal
        assert all(msg.startswith("CrossingLimitError") for msg in info["errors"].values()), name
    assert traced_runs["table-invariants"][1]["failed"] == 0
    assert traced_runs["obstruct-csv"][1]["failed"] == 0


def _snapshot():
    spaces = [m for n, m in sys.modules.items() if n == "knotinv" or n.startswith("knotinv.")]
    poly = sys.modules["knotinv.laurent"].LaurentPoly
    return {(id(ns), k): v for ns in spaces + [poly] for k, v in vars(ns).items()}


def test_wrappers_restore_every_attribute():
    import knotinv.cli as cli
    from knotinv import statesum

    before = _snapshot()
    original = cli.determinant
    tracer = Tracer()
    with tracer:
        assert cli.determinant is statesum.determinant is not original
        w = workloads.table_invariants(3, records=4)
        for line in w.text.splitlines():
            name, pd = line.split(":", 1)
            cli.analyze_record(cli.KnotRecord(name=name, pd_text=pd.strip()))
    assert tracer.stats["statesum.kauffman_bracket"].calls > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert not changed
    assert cli.determinant is original


def test_result_line_matches_contract(traced_runs):
    info, result = traced_runs["obstruct-csv"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= SMALL["obstruct-csv"]
    for host_key in ("python", "cpu_count", "cpu_model", "commit", "seed"):
        assert host_key in info["host"]
    json.dumps(result)
