"""Box geometry and scale primitives shared by every pipeline stage.

All operations here are pure functions over immutable values, so they are
safe to call concurrently. Boxes live in continuous (x, y, w, h) pixel
coordinates; only image dimensions are ever rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner (x, y) plus positive width/height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError(f"non-finite box: {self!r}")
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"degenerate box: w={self.w!r}, h={self.h!r}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"box origin outside image: x={self.x!r}, y={self.y!r}")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Instance:
    """Ground-truth object: box, category, and COCO-style crowd flag."""

    bbox: BBox
    category_id: int
    iscrowd: bool = False
    id: int = 0
    image_id: int = 0

    def __post_init__(self) -> None:
        if self.category_id < 1:
            raise ValueError(f"category_id must be >= 1, got {self.category_id!r}")


@dataclass(frozen=True)
class Detection:
    """Scored predicted box. resolution_index is -1 unless pyramid-sourced."""

    bbox: BBox
    category_id: int
    score: float
    image_id: int = 0
    resolution_index: int = -1

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {self.score!r}")


@dataclass(frozen=True)
class ScaleRange:
    """Closed scale interval [lower, upper]; upper may be math.inf."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower < 0 or not self.lower < self.upper:
            raise ValueError(f"invalid scale range [{self.lower!r}, {self.upper!r}]")

    def contains(self, scale: float | np.ndarray) -> bool | np.ndarray:
        return (self.lower <= scale) & (scale <= self.upper)

    def to_pair(self) -> list[float | None]:
        """JSON-friendly form; an unbounded upper end becomes None."""
        return [self.lower, None if math.isinf(self.upper) else self.upper]

    @classmethod
    def from_pair(cls, pair) -> "ScaleRange":
        lower, upper = pair
        return cls(float(lower), math.inf if upper is None else float(upper))


@dataclass(frozen=True)
class PyramidSpec:
    """Set of image scaling factors, one per pyramid resolution, held largest
    first: resolution k is the k-th largest factor."""

    factors: tuple[float, ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted((float(f) for f in self.factors), reverse=True))
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("pyramid needs at least one scaling factor")
        if not all(0 < f < math.inf for f in factors):
            raise ValueError(f"scaling factors must be positive and finite: {factors}")
        if len(set(factors)) != len(factors):
            raise ValueError(f"duplicate scaling factors: {factors}")

    def __iter__(self):
        return iter(self.factors)


def instance_scale(box: BBox, factor: float = 1.0) -> float:
    """Scale of a box after resizing by `factor`: factor * sqrt(w * h)."""
    return factor * math.sqrt(box.w * box.h)


def resize_plan(height: int, width: int, factor: float) -> tuple[int, int]:
    """Target (height, width) of an image resized by `factor`, each at least 1px."""
    return max(1, round(height * factor)), max(1, round(width * factor))


def project_box(box: BBox, factor: float) -> BBox:
    """Transport a box between resolutions by scaling all four coordinates."""
    return BBox(box.x * factor, box.y * factor, box.w * factor, box.h * factor)


UNBOUNDED_RANGE = ScaleRange(0.0, math.inf)

# Columns of a detection table, the one box representation of fusion and evaluation.
_X, _Y, _W, _H, _SCORE, _CATEGORY, _RESOLUTION, _IMAGE = range(8)
_ID_BOUND = 2**53  # float64, as the tables store ids and indexes, holds every integer up to it


def _exact_id(field: str, value: int, error: type[ValueError] = ValueError) -> int:
    """`value`, an id or index within ±2**53; else `error` naming `field`."""
    if abs(value) > _ID_BOUND:
        raise error(f"{field} must be at most 2**53 in magnitude, got {value}")
    return value


def _exact_ids(columns: np.ndarray, records: list, names: tuple[str, ...], what: str) -> None:
    """`_exact_id` on the fields `names`, which fill float `columns`, of each record
    (`what.format(record, i)`): a float reads 2**53 + 1 as 2**53, so test its max first."""
    if columns.size and np.abs(columns).max() >= _ID_BOUND:
        for i, rec in enumerate(records):
            for name in names:
                _exact_id(f"{what.format(rec, i)}: {name}", getattr(rec, name))


def _detection_table(dets: list[Detection]) -> np.ndarray:
    """(N, 8) float rows, one per detection, in the column order above, ids within ±2**53."""
    table = np.array([
        (d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score, d.category_id,
         d.resolution_index, d.image_id) for d in dets
    ], dtype=float).reshape(-1, 8)
    _exact_ids(table[:, _CATEGORY:], dets, ("category_id", "resolution_index", "image_id"),
               "detection #{1}")
    return table


def _checked(cls: type, fields: dict):
    """A `cls` record of `fields`, values that passed `cls`'s checks: not run again."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _detections(table: np.ndarray) -> list[Detection]:
    """The detections of a table's checked rows (see `fusion`): `_detection_table`'s inverse."""
    return [_checked(Detection, {"bbox": _checked(BBox, {"x": x, "y": y, "w": w, "h": h}),
                                 "category_id": category, "score": score, "image_id": image,
                                 "resolution_index": resolution})
            for (x, y, w, h, score), (category, resolution, image)
            in zip(table[:, :_CATEGORY].tolist(), table[:, _CATEGORY:].astype(np.int64).tolist())]


def to_corners(xywh: np.ndarray) -> np.ndarray:
    """(N, 4) rows (x, y, w, h) as corner rows (x1, y1, x2, y2), x2 = x + w."""
    return np.hstack((xywh[:, :2], xywh[:, :2] + xywh[:, 2:4]))


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) intersection over union of corner rows a (N, 4) and b (M, 4),
    inter / (area_a + area_b - inter); 0 for disjoint pairs."""
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)))
    iw = np.maximum(np.minimum(a[:, None, 2], b[:, 2]) - np.maximum(a[:, None, 0], b[:, 0]), 0.0)
    ih = np.maximum(np.minimum(a[:, None, 3], b[:, 3]) - np.maximum(a[:, None, 1], b[:, 1]), 0.0)
    inter = iw * ih
    area_a, area_b = ((c[:, 2] - c[:, 0]) * (c[:, 3] - c[:, 1]) for c in (a, b))
    return inter / (area_a[:, None] + area_b - inter)

