"""Training-sample selection policies and their scale-distribution analysis.

Two policies are implemented. The single-range policy keeps an instance on a
given resolution iff its resized scale falls inside one shared interval, so
validity is a pure function of resized scale. The per-resolution table policy
keeps an instance iff its original-image scale falls inside that resolution's
own interval, which lets objects of equal resized scale receive different
labels; `consistency_overlap` quantifies exactly that effect.

Each policy owns its rule: `admits` is the (instance, resolution) mask over
original-image scales, `factors` the resize factors and `bin_edges` the
histogram edges. The partitions read one column of `admits`, and
`resized_scale_distributions` reads all three without knowing the policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Instance, PyramidSpec, ScaleRange, instance_scale


@dataclass
class Partition:
    """Exhaustive, exclusive split of instances into valid/ignored sets."""

    valid: list[Instance]
    ignored: list[Instance]


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


@dataclass(frozen=True)
class IsnPolicy:
    """Train a pair iff its resized scale lies in the one shared `scale_range`."""

    pyramid: PyramidSpec
    scale_range: ScaleRange

    def admits(self, scales: np.ndarray) -> np.ndarray:
        """(N, R) mask over N original-image scales and the R pyramid factors."""
        return self.scale_range.contains(np.multiply.outer(scales, self.pyramid.factors))

    def factors(self, instances: list[Instance], image_sizes=None) -> np.ndarray:
        """(N, R) resize factors: the pyramid's, for every instance."""
        return np.tile(self.pyramid.factors, (len(instances), 1))

    def bin_edges(self) -> np.ndarray:
        # Insert the interval endpoints so no bin straddles the valid/ignored
        # boundary; the upper cut sits just past the (inclusive) upper end.
        edges, cuts = default_bin_edges(), []
        if edges[0] < self.scale_range.lower < edges[-1]:
            cuts.append(self.scale_range.lower)
        if edges[0] < self.scale_range.upper < edges[-1]:
            cuts.append(np.nextafter(self.scale_range.upper, math.inf))
        return np.unique(np.concatenate([edges, cuts]))


@dataclass(frozen=True)
class SnipPolicy:
    """Train a pair iff the original-image scale lies in that resolution's interval."""

    table: SnipRangeTable

    def admits(self, scales: np.ndarray) -> np.ndarray:
        """(N, R) mask over N original-image scales and the R table entries."""
        lower, upper = np.array([(e.lower, e.upper) for e in self.table.entries]).T
        scales = scales[:, None]
        return (lower < scales) & (scales < upper)

    def factors(
        self, instances: list[Instance], image_sizes: dict[int, tuple[int, int]] | None = None
    ) -> np.ndarray:
        """(N, R) resize factors: each entry's own, or derived from the image."""
        entries = self.table.entries
        rows = []
        for inst in instances:
            size = (image_sizes or {}).get(inst.image_id)
            if size is None and any(e.factor is None for e in entries):
                raise ValueError(
                    f"image size needed to derive resize factor for "
                    f"instance {inst.id} (image {inst.image_id})"
                )
            rows.append([
                e.factor if e.factor is not None else min(e.height / size[0], e.width / size[1])
                for e in entries
            ])
        return np.array(rows, dtype=np.float64).reshape(len(instances), len(entries))

    def bin_edges(self) -> np.ndarray:
        return default_bin_edges()


def _scales(instances: list[Instance]) -> np.ndarray:
    return np.array([instance_scale(inst.bbox) for inst in instances], dtype=np.float64)


def isn_partition(instances: list[Instance], factor: float, scale_range: ScaleRange) -> Partition:
    """Split instances by whether their resized scale lies in `scale_range`.

    Crowd instances always land in the ignored set.
    """
    policy = IsnPolicy(PyramidSpec((factor,)), scale_range)  # checks the factor
    return _split(instances, policy.admits(_scales(instances))[:, 0])


def snip_partition(
    instances: list[Instance], resolution_index: int, table: SnipRangeTable
) -> Partition:
    """Split instances by the per-resolution interval over original-image scale."""
    if not 0 <= resolution_index < len(table.entries):
        raise ValueError(
            f"resolution_index {resolution_index} not in table "
            f"({len(table.entries)} entries)"
        )
    return _split(instances, SnipPolicy(table).admits(_scales(instances))[:, resolution_index])


def _split(instances: list[Instance], admitted: np.ndarray) -> Partition:
    """Valid: the non-crowd instances `admitted` accepts; ignored: the rest."""
    valid, ignored = [], []
    for inst, ok in zip(instances, admitted.tolist()):
        (valid if ok and not inst.iscrowd else ignored).append(inst)
    return Partition(valid, ignored)


@dataclass(frozen=True)
class ScaleHistogram:
    """Normalized histogram of resized scales over shared bin edges."""

    edges: np.ndarray
    mass: np.ndarray
    total: int


def default_bin_edges() -> np.ndarray:
    """64 log-spaced scale bins from 1 to 2560 pixels."""
    return np.logspace(math.log10(1.0), math.log10(2560.0), 65)


def _histogram(values: np.ndarray, edges: np.ndarray) -> ScaleHistogram:
    counts, _ = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)
    mass = counts / values.size if values.size else counts.astype(np.float64)
    return ScaleHistogram(edges, mass, int(values.size))


def resized_scale_distributions(
    instances: list[Instance],
    policy: IsnPolicy | SnipPolicy,
    image_sizes: dict[int, tuple[int, int]] | None = None,
) -> tuple[ScaleHistogram, ScaleHistogram]:
    """Histograms of resized scales for trained vs ignored (instance, resolution) pairs.

    Crowd instances are excluded: they are never trainable objects, so they
    belong to neither population. `image_sizes` (image_id -> (h, w)) is only
    needed for table policies whose entries derive their resize factor from
    the image. Both histograms share bin edges and each sums to 1 when
    non-empty.
    """
    objects = [inst for inst in instances if not inst.iscrowd]
    scales = _scales(objects)
    resized = policy.factors(objects, image_sizes) * scales[:, None]
    admitted = policy.admits(scales)
    edges = policy.bin_edges()
    return _histogram(resized[admitted], edges), _histogram(resized[~admitted], edges)


def consistency_overlap(trained: ScaleHistogram, ignored: ScaleHistogram) -> float:
    """Histogram intersection of the two populations; 0 means consistent sampling."""
    if trained.edges.shape != ignored.edges.shape or not np.array_equal(
        trained.edges, ignored.edges
    ):
        raise ValueError("histograms must share bin edges")
    return float(np.minimum(trained.mass, ignored.mass).sum())
