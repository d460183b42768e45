"""Greedy coordinate-descent search for the best scale range.

The search starts from the widest configured range and alternates between the
two bounds: it sweeps candidate lower bounds at or above the current one
(keeping the AP argmax, ties to the smaller bound), then candidate upper
bounds at or below the current one (ties to the larger bound), until a full
alternation changes nothing. Bounds only move inward, so a candidate rejected
while narrowing is never re-probed against a tighter opposite bound, and
every (lower, upper) pair is evaluated at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geometry import ScaleRange

DEFAULT_LOWER_CANDIDATES = (0.0, 16.0, 32.0)
DEFAULT_UPPER_CANDIDATES = (320.0, 496.0, 560.0, 640.0)


class SearchAborted(RuntimeError):
    """The oracle failed on a probed range."""


@dataclass(frozen=True)
class SearchSpace:
    lower_candidates: tuple[float, ...] = DEFAULT_LOWER_CANDIDATES
    upper_candidates: tuple[float, ...] = DEFAULT_UPPER_CANDIDATES
    initial: ScaleRange = ScaleRange(0.0, 640.0)

    def __post_init__(self) -> None:
        lows, highs = self.lower_candidates, self.upper_candidates
        if list(lows) != sorted(lows) or list(highs) != sorted(highs):
            raise ValueError("candidate lists must be sorted ascending")
        if self.initial.lower not in lows or self.initial.upper not in highs:
            raise ValueError("initial bounds must appear in the candidate lists")


class ApOracle:
    """Range -> AP oracle around a callback or lookup table, counting its
    calls; the search itself probes each range at most once. The callback
    maps a range to its AP, a float, which is all the search reads."""

    def __init__(self, fn: Callable[[ScaleRange], float]):
        self._fn = fn
        self.calls = 0

    @classmethod
    def from_table(cls, table: dict[tuple[float, float], float]) -> "ApOracle":
        """Answer each range with its AP in `table`, a lookup by (lower,
        upper); a range it lacks raises LookupError."""

        def lookup(rng: ScaleRange) -> float:
            if (ap := table.get((rng.lower, rng.upper))) is None:
                raise LookupError("the lookup table has no entry for this range")
            return ap

        return cls(lookup)

    def query(self, rng: ScaleRange) -> float:
        self.calls += 1
        return self._fn(rng)


def greedy_range_search(
    space: SearchSpace, oracle: ApOracle
) -> tuple[ScaleRange, list[tuple[ScaleRange, float]]]:
    """Run the alternating descent; returns (best range, probe trace).

    The trace lists every distinct range probed, in first-probe order, with
    its AP. An oracle failure raises SearchAborted naming the range.
    """
    probed: dict[ScaleRange, float] = {}  # range -> AP, in first-probe order

    def probe(lower: float, upper: float) -> float:
        rng = ScaleRange(lower, upper)
        if rng not in probed:
            try:
                probed[rng] = oracle.query(rng)
            except Exception as exc:
                raise SearchAborted(f"oracle failed on range [{lower}, {upper}]: {exc}") from exc
        return probed[rng]

    lower, upper = space.initial.lower, space.initial.upper
    while True:
        start = (lower, upper)
        # `max` keeps the first best: ties keep the smaller lower and the larger upper bound.
        lower = max((c for c in space.lower_candidates if lower <= c < upper),
                    key=lambda c: probe(c, upper))
        upper = max((c for c in reversed(space.upper_candidates) if lower < c <= upper),
                    key=lambda c: probe(lower, c))
        if (lower, upper) == start:
            return ScaleRange(lower, upper), list(probed.items())
