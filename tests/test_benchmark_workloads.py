"""Each benchmark workload runs its first op and passes its own check, untraced
and traced.

`benchmark/workloads.py` drives the program through its public calls and the
CLI, so a signature or option change that breaks `benchmark/run.py` fails here
without a benchmark run. The traced op goes through `benchmark/spans.py` as
`run.py --trace 1` does, so a span counter that no longer fits the arguments a
traced function is called with fails here too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["quickstart", "dense_fuse", "search"])
def test_first_input_passes_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](11, tmp_path)
    result = workload.run(0, lambda span, fn, *args: fn(*args))
    assert workload.check(0, workload.output(0, result)) == []


# The spans each workload's op 0 records. A call moved out of a traced
# function's reach shows up here, not as a per-layer metric reading 0.
TRACED = {
    "quickstart": {
        *(f"cli.{c}" for c in ("simulate", "partition", "stage_hist", "fuse", "eval")),
        "config.to_dict",
        *(f"dataio.read.{r}" for r in ("annotations", "records", "detections")),
        *(f"dataio.write.{w}" for w in ("json", "csv", "dataset", "records")),
        "simulate.generate", "simulate.detect", "sampling.partition", "pyramid.stage_hist",
        "evaluation.evaluate", "evaluation.report",
    },
    "dense_fuse": {"fusion.fuse_multiscale"},
    "search": {"cli.search", "config.to_dict", "dataio.write.json", "simulate.generate",
               "simulate.detect", "search.search", "search.query"},
}


@pytest.mark.parametrize("name, counted", [
    ("quickstart", "dataio.records_read"), ("dense_fuse", "fusion.dets_out"),
    ("search", "search.probes"),
])
def test_first_input_passes_check_traced(tmp_path, name, counted):
    tracer = spans.Tracer()
    tracer.op = "setup"
    with spans.instrumented(tracer):
        workload = workloads.WORKLOADS[name](11, tmp_path)
        tracer.op = 0
        result = workload.run(0, tracer.span)
    assert workload.check(0, workload.output(0, result)) == []
    assert {span[0] for span in tracer.spans if span[4] == 0} == TRACED[name]
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    metrics = spans.derive(spans.load_spans(str(path)), 1)
    assert metrics.keys() <= spans.PER_LAYER_UNITS.keys()
    assert all(value >= 0 for value in metrics.values()) and metrics[counted] > 0
