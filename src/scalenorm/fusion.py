"""Test-phase multi-resolution fusion: range gating, projection, soft suppression.

Predictions from each pyramid resolution are filtered by the shared scale
range (measured in the resized image where the detector produced them),
projected back to original-image coordinates by multiplying by 1 / factor
(as `project_box` does; dividing rounds differently), pooled, and
de-duplicated with Soft-NMS per category. Boxes travel as one table with a
row per detection; `Detection` records are built only for the output.
Everything is deterministic: candidates are processed in the total order
(score desc, resolution_index asc, box x, y, w, h, category), exact ties in
input order. Each category's matrix of decay factors is computed once, so a
greedy pick costs one masked argmax, one row multiply and one floor test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, Detection, ScaleRange, iou_matrix, to_corners

UNBOUNDED_RANGE = ScaleRange(0.0, math.inf)

# Columns of a detection table.
_X, _Y, _W, _H, _SCORE, _CATEGORY, _RESOLUTION, _IMAGE = range(8)


@dataclass(frozen=True)
class SoftNmsConfig:
    """Suppression settings: gaussian decay exp(-iou^2 / sigma), linear decay
    1 - iou past `iou_threshold`, or hard (classic NMS) zeroing past it.
    Rescored detections falling below `score_floor` are dropped."""

    method: str = "gaussian"
    sigma: float = 0.5
    iou_threshold: float = 0.3
    score_floor: float = 0.001

    def __post_init__(self) -> None:
        if self.method not in ("gaussian", "linear", "hard"):
            raise ValueError(f"unknown suppression method: {self.method!r}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive: {self.sigma!r}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold outside (0, 1): {self.iou_threshold!r}")
        if not 0.0 <= self.score_floor < 1.0:
            raise ValueError(f"score_floor outside [0, 1): {self.score_floor!r}")


def _gated_table(
    per_resolution: list[tuple[float, list[Detection]]], scale_range: ScaleRange
) -> np.ndarray:
    """In-range detections of every resolution, projected to original-image
    coordinates, stacked in input order as one (N, 8) table."""
    tables = [np.empty((0, 8))]
    for factor, dets in per_resolution:
        if factor <= 0:
            raise ValueError(f"scaling factor must be positive: {factor!r}")
        table = np.array([
            (d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score, d.category_id,
             d.resolution_index, d.image_id) for d in dets
        ]).reshape(-1, 8)
        scale = np.sqrt(table[:, _W] * table[:, _H])  # instance_scale, bit for bit
        table = table[(scale_range.lower <= scale) & (scale <= scale_range.upper)]
        table[:, :4] *= 1.0 / factor
        tables.append(table)
    return np.concatenate(tables)


def _order_keys(t: np.ndarray) -> tuple[np.ndarray, ...]:
    # The candidate order as np.lexsort keys, which sorts by its last key first.
    return t[:, _CATEGORY], t[:, _H], t[:, _W], t[:, _Y], t[:, _X], t[:, _RESOLUTION], -t[:, _SCORE]


def _decay_factors(overlaps: np.ndarray, cfg: SoftNmsConfig) -> np.ndarray:
    if cfg.method == "gaussian":
        return np.exp(-(overlaps * overlaps) / cfg.sigma)
    if cfg.method == "linear":
        return np.where(overlaps > cfg.iou_threshold, 1.0 - overlaps, 1.0)
    return np.where(overlaps > cfg.iou_threshold, 0.0, 1.0)


def _suppress_category(block: np.ndarray, cfg: SoftNmsConfig) -> np.ndarray:
    # Greedy pass over one category in candidate order: pick the highest
    # current score (ties go to the earliest candidate), decay the still
    # active rest by overlap with the pick, drop below the floor. Returns the
    # picked rows in pick order, carrying their final scores.
    corners = to_corners(block[:, :4])
    decay = _decay_factors(iou_matrix(corners, corners), cfg)
    scores = block[:, _SCORE].copy()
    active = np.ones(len(block), dtype=bool)
    picks = []
    while active[i := int(np.where(active, scores, -1.0).argmax())]:
        picks.append(i)
        active[i] = False
        np.multiply(scores, decay[i], out=scores, where=active)
        active &= scores >= cfg.score_floor
    picked = block[picks]
    picked[:, _SCORE] = scores[picks]
    return picked


def _suppress(table: np.ndarray, cfg: SoftNmsConfig) -> np.ndarray:
    """Soft-NMS per category; survivors sorted in candidate order."""
    if not len(table):
        return table
    table = table[np.lexsort(_order_keys(table) + (table[:, _CATEGORY],))]
    blocks = np.split(table, np.flatnonzero(np.diff(table[:, _CATEGORY])) + 1)
    kept = np.concatenate([_suppress_category(block, cfg) for block in blocks])
    return kept[np.lexsort(_order_keys(kept))]


def _detections(table: np.ndarray) -> list[Detection]:
    return [
        Detection(BBox(x, y, w, h), int(category), score, int(image), int(resolution))
        for x, y, w, h, score, category, resolution, image in table.tolist()
    ]


def gate_predictions(
    dets: list[Detection], factor: float, scale_range: ScaleRange
) -> list[Detection]:
    """Keep detections whose resized-image scale is in range; project the
    survivors to original-image coordinates. Input order is preserved."""
    return _detections(_gated_table([(factor, dets)], scale_range))


def soft_nms(dets: list[Detection], cfg: SoftNmsConfig | None = None) -> list[Detection]:
    """Greedy score-decay suppression, run independently per category.

    Never raises a score; the top-scoring input always survives unchanged.
    Output is sorted by final score descending (deterministic tie-break).
    """
    table = _gated_table([(1.0, dets)], UNBOUNDED_RANGE)
    return _detections(_suppress(table, cfg or SoftNmsConfig()))


def fuse_multiscale(
    per_resolution: list[tuple[float, list[Detection]]],
    scale_range: ScaleRange,
    cfg: SoftNmsConfig | None = None,
    top_k: int | None = 100,
) -> list[Detection]:
    """Gate each resolution's detections, pool them, and suppress duplicates.

    The pooled list is sorted deterministically before suppression, so the
    result does not depend on the order resolutions are supplied in. When
    `top_k` is set, only the top-scoring detections survive.
    """
    if top_k is not None and (not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1):
        raise ValueError(f"top_k must be None or an integer >= 1, got {top_k!r}")
    table = _gated_table(per_resolution, scale_range)
    return _detections(_suppress(table, cfg or SoftNmsConfig())[:top_k])
