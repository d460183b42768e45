"""Training-sample selection policies and their scale-distribution analysis.

Two policies are implemented. The single-range policy keeps an instance on a
given resolution iff its resized scale falls inside one shared interval, so
validity is a pure function of resized scale. The per-resolution table policy
keeps an instance iff its original-image scale falls inside that resolution's
own interval, which lets objects of equal resized scale receive different
labels; `consistency_overlap` quantifies exactly that effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Instance, PyramidSpec, ScaleRange, instance_scale

HIST_BINS = 64
HIST_LOW = 1.0
HIST_HIGH = 2560.0


@dataclass
class Partition:
    """Exhaustive, exclusive split of instances into valid/ignored sets."""

    valid: list[Instance]
    ignored: list[Instance]
    resolution_index: int = -1


@dataclass(frozen=True)
class SnipEntry:
    """Per-resolution valid interval, open at both ends, in original-image pixels.

    `factor` is the resize factor applied to reach this resolution; when None it
    is derived per image as min(height / image_h, width / image_w) (resize to
    fit the labelled resolution).
    """

    height: int
    width: int
    lower: float
    upper: float
    factor: float | None = None

    def __post_init__(self) -> None:
        if not (self.height >= 1 and self.width >= 1):
            raise ValueError(f"resolution must be at least 1x1, got {self.height}x{self.width}")
        if self.factor is not None and not 0 < self.factor < math.inf:
            raise ValueError(f"scale_factor must be finite and positive, got {self.factor!r}")
        if not self.lower < self.upper:
            raise ValueError(f"invalid valid-range ({self.lower!r}, {self.upper!r})")

    def admits(self, original_scale: float) -> bool:
        return self.lower < original_scale < self.upper

    def factor_for(self, image_h: int, image_w: int) -> float:
        if self.factor is not None:
            return self.factor
        return min(self.height / image_h, self.width / image_w)


@dataclass(frozen=True)
class SnipRangeTable:
    entries: tuple[SnipEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("range table needs at least one entry")


# The two published reference entries: a (800, 1200) resolution valid on
# (40, 160) and a (480, 800) resolution valid on (120, inf).
DEFAULT_SNIP_TABLE = SnipRangeTable(
    (
        SnipEntry(800, 1200, 40.0, 160.0),
        SnipEntry(480, 800, 120.0, math.inf),
    )
)


def isn_partition(
    instances: list[Instance],
    factor: float,
    scale_range: ScaleRange,
    resolution_index: int = -1,
) -> Partition:
    """Split instances by whether their resized scale lies in `scale_range`.

    Crowd instances always land in the ignored set.
    """
    if factor <= 0:
        raise ValueError(f"scaling factor must be positive: {factor!r}")
    return _split(instances, lambda inst: scale_range.contains(instance_scale(inst.bbox, factor)),
                  resolution_index)


def snip_partition(
    instances: list[Instance], resolution_index: int, table: SnipRangeTable
) -> Partition:
    """Split instances by the per-resolution interval over original-image scale."""
    if not 0 <= resolution_index < len(table.entries):
        raise ValueError(
            f"resolution_index {resolution_index} not in table "
            f"({len(table.entries)} entries)"
        )
    entry = table.entries[resolution_index]
    return _split(instances, lambda inst: entry.admits(instance_scale(inst.bbox)), resolution_index)


def _split(
    instances: list[Instance], admits: Callable[[Instance], bool], resolution_index: int
) -> Partition:
    """Valid: the non-crowd instances that `admits` accepts; ignored: the rest."""
    valid, ignored = [], []
    for inst in instances:
        (valid if not inst.iscrowd and admits(inst) else ignored).append(inst)
    return Partition(valid, ignored, resolution_index)


@dataclass(frozen=True)
class IsnPolicy:
    pyramid: PyramidSpec
    scale_range: ScaleRange


@dataclass(frozen=True)
class SnipPolicy:
    table: SnipRangeTable


@dataclass(frozen=True)
class ScaleHistogram:
    """Normalized histogram of resized scales over shared bin edges."""

    edges: np.ndarray
    mass: np.ndarray
    total: int

    @property
    def is_empty(self) -> bool:
        return self.total == 0


def default_bin_edges(
    bins: int = HIST_BINS, low: float = HIST_LOW, high: float = HIST_HIGH
) -> np.ndarray:
    return np.logspace(math.log10(low), math.log10(high), bins + 1)


def _histogram(values: list[float], edges: np.ndarray) -> ScaleHistogram:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size:
        arr = np.clip(arr, edges[0], edges[-1])
    counts, _ = np.histogram(arr, bins=edges)
    mass = counts / arr.size if arr.size else counts.astype(np.float64)
    return ScaleHistogram(edges, mass, int(arr.size))


def _edges_split_at(edges: np.ndarray, scale_range: ScaleRange) -> np.ndarray:
    # Insert the interval endpoints so no bin straddles the valid/ignored
    # boundary; the upper cut sits just past the (inclusive) upper end.
    cuts = []
    if edges[0] < scale_range.lower < edges[-1]:
        cuts.append(scale_range.lower)
    if math.isfinite(scale_range.upper) and edges[0] < scale_range.upper < edges[-1]:
        cuts.append(np.nextafter(scale_range.upper, math.inf))
    if not cuts:
        return edges
    return np.unique(np.concatenate([edges, cuts]))


def resized_scale_distributions(
    instances: list[Instance],
    policy: IsnPolicy | SnipPolicy,
    image_sizes: dict[int, tuple[int, int]] | None = None,
    edges: np.ndarray | None = None,
) -> tuple[ScaleHistogram, ScaleHistogram]:
    """Histograms of resized scales for trained vs ignored (instance, resolution) pairs.

    Crowd instances are excluded: they are never trainable objects, so they
    belong to neither population. `image_sizes` (image_id -> (h, w)) is only
    needed for table policies whose entries derive their resize factor from
    the image. Both histograms share bin edges and each sums to 1 when
    non-empty.
    """
    trained: list[float] = []
    ignored: list[float] = []
    objects = [inst for inst in instances if not inst.iscrowd]

    if isinstance(policy, IsnPolicy):
        if edges is None:
            edges = _edges_split_at(default_bin_edges(), policy.scale_range)
        for inst in objects:
            base = instance_scale(inst.bbox)
            for factor in policy.pyramid:
                resized = factor * base
                (trained if policy.scale_range.contains(resized) else ignored).append(
                    resized
                )
    elif isinstance(policy, SnipPolicy):
        if edges is None:
            edges = default_bin_edges()
        for inst in objects:
            base = instance_scale(inst.bbox)
            for entry in policy.table.entries:
                if entry.factor is None:
                    if image_sizes is None or inst.image_id not in image_sizes:
                        raise ValueError(
                            f"image size needed to derive resize factor for "
                            f"instance {inst.id} (image {inst.image_id})"
                        )
                    h, w = image_sizes[inst.image_id]
                    factor = entry.factor_for(h, w)
                else:
                    factor = entry.factor
                resized = factor * base
                (trained if entry.admits(base) else ignored).append(resized)
    else:
        raise TypeError(f"unsupported policy: {policy!r}")

    return _histogram(trained, edges), _histogram(ignored, edges)


def consistency_overlap(trained: ScaleHistogram, ignored: ScaleHistogram) -> float:
    """Histogram intersection of the two populations; 0 means consistent sampling."""
    if trained.edges.shape != ignored.edges.shape or not np.array_equal(
        trained.edges, ignored.edges
    ):
        raise ValueError("histograms must share bin edges")
    return float(np.minimum(trained.mass, ignored.mass).sum())
