"""Feature-pyramid stage assignment and per-stage training-sample counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Instance, PyramidSpec, ScaleRange, instance_scale
from .sampling import isn_partition


@dataclass(frozen=True)
class FpnAssignConfig:
    """Heuristic stage assignment: floor(k0 + log2(scale / canonical)),
    clamped to [min_level, max_level]."""

    canonical_scale: float = 224.0
    canonical_level: int = 4
    min_level: int = 2
    max_level: int = 5

    def __post_init__(self) -> None:
        if self.canonical_scale <= 0:
            raise ValueError("canonical_scale must be positive")
        if not self.min_level <= self.canonical_level <= self.max_level:
            raise ValueError("need min_level <= canonical_level <= max_level")


def fpn_level(scale: float, cfg: FpnAssignConfig | None = None) -> int:
    """Pyramid stage responsible for a box of the given scale."""
    cfg = cfg or FpnAssignConfig()
    if scale <= 0:
        raise ValueError(f"scale must be positive: {scale!r}")
    level = math.floor(cfg.canonical_level + math.log2(scale / cfg.canonical_scale))
    return min(max(level, cfg.min_level), cfg.max_level)


def stage_histogram(
    instances: list[Instance],
    pyramid: PyramidSpec,
    scale_range: ScaleRange,
    cfg: FpnAssignConfig | None = None,
) -> dict[int, int]:
    """Count valid (instance, resolution) training pairs per pyramid stage.

    Every level in [min_level, max_level] appears in the result, zero-filled
    when unused; totals equal the number of valid pairs across resolutions.
    """
    cfg = cfg or FpnAssignConfig()
    counts = {level: 0 for level in range(cfg.min_level, cfg.max_level + 1)}
    for factor in pyramid:
        part = isn_partition(instances, factor, scale_range)
        for inst in part.valid:
            counts[fpn_level(instance_scale(inst.bbox, factor), cfg)] += 1
    return counts
