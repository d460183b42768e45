"""Every function the benchmark traces is still bound where its tracer looks.

`benchmark/spans.py` wraps each traced function under every module (or class)
that binds it, so a refactor that moves, renames or re-imports one of them
breaks `benchmark/run.py --trace 1` without failing any other test.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import spans  # noqa: E402


@pytest.mark.parametrize(
    "owners, attr", [target[:2] for target in spans.TARGETS], ids=[t[1] for t in spans.TARGETS]
)
def test_every_owner_binds_the_traced_function(owners, attr):
    bound = []
    for owner in owners:
        try:
            bound.append(inspect.getattr_static(owner, attr))
        except AttributeError:
            pytest.fail(f"{owner.__name__} no longer binds {attr!r}")
    # Each owner is one call site of the same function, not a copy of it.
    assert all(b is bound[0] for b in bound), attr
