"""Each benchmark workload runs its first op and passes its own check.

`benchmark/workloads.py` drives the program through its public calls and the
CLI, so a signature or option change that breaks `benchmark/run.py` fails here
without a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["quickstart", "dense_fuse", "search"])
def test_first_input_passes_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](11, tmp_path)
    result = workload.run(0, lambda span, fn, *args: fn(*args))
    assert workload.check(0, workload.output(0, result)) == []
