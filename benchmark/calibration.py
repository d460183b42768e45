"""Host-speed calibration for the benchmark's timings.

The host this benchmark was built on runs the same Python code 1.5 to 2
times slower in some stretches than in others, with stretches lasting tens
of seconds (CPU time tracks wall time, so it is not descheduling). A run of
S seconds therefore lands on a different host speed each time. To cancel
that, the benchmark times this fixed loop, which does not touch the program
and mixes the same kinds of work (interpreted Python, sorting, JSON and small
NumPy arrays), before and after every short stretch of ops, and rescales the
ops' times by REFERENCE_S over the loop's mean time there: every reported
time is "at reference host speed", the speed at which the loop takes
REFERENCE_S.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 0.005

_VALUES = np.linspace(0.0, 1.0, 200)
_RECORDS = [{"id": i, "box": [i * 0.5, i * 1.5, 3.0, 4.0], "score": (i * 37 % 101) / 101} for i in range(150)]


def _loop() -> float:
    total = 0.0
    for _ in range(4):
        ranked = sorted(_RECORDS, key=lambda r: (-r["score"], r["box"][0]))
        total += len(json.loads(json.dumps(ranked)))
        for _ in range(12):
            decay = np.exp(-(_VALUES * _VALUES) / 0.5)
            total += int(np.argmax(np.where(decay > 0.5, decay, -1.0)))
        for k in range(600):
            total += k * 0.5
    return total


def loop_seconds() -> float:
    """Wall time of one calibration loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start
