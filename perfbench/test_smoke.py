"""Smoke-size self-test of the benchmark: every workload at a tiny size,
traced, so that one run yields both metric sets.  No timing assertions."""

import json
import os

import pytest

from cnfbench import bench

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
with open(SPEC_PATH) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, tmp_path):
    result = bench.run(workload, seed=1, seconds=0, trace=True,
                       root=str(tmp_path / "work"), count=6)
    assert result["correct"] and result["digests_agree"]
    assert result["traced_output_sha256"] == result["output_sha256"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = bench.summary(result, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in SPEC[key]}
        for metric in SPEC[key]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    if workload in ("prep_circuit", "verify_small"):
        assert result["failed"] == 0
        assert result["end_to_end"]["pass_ratio"] == 1.0
