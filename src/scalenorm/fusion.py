"""Test-phase multi-resolution fusion: range gating, projection, soft suppression.

Predictions from each pyramid resolution are filtered by the shared scale
range (measured in the resized image where the detector produced them),
projected back to original-image coordinates by multiplying by 1 / factor
(as `project_box` does; dividing rounds differently), pooled, and
de-duplicated with Soft-NMS per image and category; `top_k` cuts each image.
Candidates are processed in the total order (image id asc, score desc,
resolution_index asc, box x, y, w, h, category), exact ties in input order.

The detections of any number of images form a fusion index: one table with a
row per detection inside the widest range that will be probed, projected,
with each row's pre-projection scale, the candidate order (one lexsort) and
each (image, category) block's matrix of decay factors. A probe masks the
rows by its range and runs the greedy loop with only those rows active, so a
pick costs one masked argmax, one row multiply and one floor test; a block of
up to `_SMALL_BLOCK` rows runs the same loop over Python lists, with the same
tie rule and multiplies, so the same bits. Soft-NMS changes only scores, a
subset of a stable sort is still sorted and a submatrix of an elementwise
kernel has the same bits, so a probe equals fusing its rows alone. The public
functions build an index over their own range and probe it once; range search
probes one index over the whole dataset. A block's survivors and final scores
depend only on which of its rows are in range, so the index remembers them by
that mask, and a probe runs the greedy loop only for the blocks its range
changed. `Detection` records are built only for the output, from checked rows
without re-running the constructors' checks: the input rows passed them (as
records or in `dataio`'s column checks), the index checks each projected row as
`BBox` would, and Soft-NMS only lowers scores that were in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    _CATEGORY, _H, _IMAGE, _RESOLUTION, _SCORE, _W, _X, _Y, UNBOUNDED_RANGE, BBox, Detection,
    ScaleRange, _detection_table, _detections, iou_matrix, to_corners,
)

_SMALL_BLOCK = 64  # blocks up to this many rows run `_greedy_lists`, the rest `_greedy_arrays`


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


def _order_keys(t: np.ndarray) -> tuple[np.ndarray, ...]:
    # The candidate order as np.lexsort keys, which sorts by its last key first.
    return (t[:, _CATEGORY], t[:, _H], t[:, _W], t[:, _Y], t[:, _X], t[:, _RESOLUTION],
            -t[:, _SCORE], t[:, _IMAGE])


def _decay_factors(overlaps: np.ndarray, cfg: SoftNmsConfig) -> np.ndarray:
    if cfg.method == "gaussian":
        return np.exp(-(overlaps * overlaps) / cfg.sigma)
    if cfg.method == "linear":
        return np.where(overlaps > cfg.iou_threshold, 1.0 - overlaps, 1.0)
    return np.where(overlaps > cfg.iou_threshold, 0.0, 1.0)


def _greedy_arrays(scores: np.ndarray, decay: np.ndarray, active: np.ndarray, floor: float):
    # One block's greedy loop, consuming `scores` and `active`: its picks in order, final scores.
    picks = []
    while active[i := int(np.where(active, scores, -1.0).argmax())]:
        picks.append(i)
        active[i] = False
        np.multiply(scores, decay[i], out=scores, where=active)
        active &= scores >= floor
    return picks, scores[picks]


def _greedy_lists(scores: np.ndarray, decay: np.ndarray, active: np.ndarray, floor: float):
    # The same, bit for bit. A score under the floor only falls; the loop ends when it is the top.
    ids, s, picks, kept = np.flatnonzero(active).tolist(), scores[active].tolist(), [], []
    while ids and ((top := max(s)) >= floor or not picks):
        picks.append(i := ids.pop(k := s.index(top)))  # the first maximum, as argmax takes it
        kept.append(s.pop(k))
        row = decay[i].tolist()
        s = [x * row[j] for j, x in zip(ids, s)]
    return picks, np.array(kept)


class _FusionIndex:
    """The rows of a detection table inside `hull`, projected by their own
    factors, in table order, with each row's pre-projection scale; probed by range."""

    def __init__(self, table: np.ndarray, factors: np.ndarray, hull: ScaleRange,
                 cfg: SoftNmsConfig | None = None):
        with np.errstate(over="ignore", invalid="ignore"):  # a box this breaks is named below
            scale = np.sqrt(table[:, _W] * table[:, _H])  # instance_scale, bit for bit
            inside = hull.contains(scale)
            self.table, self.scale = table[inside], scale[inside]
            self.table[:, :4] *= (1.0 / factors[inside])[:, None]
        box = self.table[:, :4]
        if not (np.isfinite(box).all() and (box[:, :2] >= 0).all() and (box[:, 2:] > 0).all()):
            for i, row in zip(np.flatnonzero(inside).tolist(), box.tolist()):
                try:
                    BBox(*row)  # names the rule that the row breaks
                except ValueError as exc:
                    raise ValueError(
                        f"detection #{i} at scale factor {factors[i]}: {exc}") from None
        self.cfg = cfg or SoftNmsConfig()
        self._picks: dict[tuple[int, bytes], tuple[np.ndarray, np.ndarray]] = {}

    @cached_property  # not needed by gate_predictions
    def _blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # (row ids in candidate order, their decay matrix) per (image, category).
        t = self.table
        order = np.lexsort(_order_keys(t) + (t[:, _CATEGORY],))
        edges = np.diff(t[:, [_IMAGE, _CATEGORY]][order], axis=0).any(axis=1)
        bounds = [0, *(np.flatnonzero(edges) + 1).tolist(), len(t)]
        corners, blocks = to_corners(t[:, :4]), []
        for start, stop in zip(bounds, bounds[1:]):
            c = corners[rows := order[start:stop]]
            blocks.append((rows, _decay_factors(iou_matrix(c, c), self.cfg)))
        return blocks if len(t) else []

    def probe(self, scale_range: ScaleRange, top_k: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Soft-NMS over the rows whose scale is in `scale_range`: row ids and
        rows, final scores, of each image's top `top_k` survivors in candidate order."""
        if top_k is not None and (type(top_k) is not int or top_k < 1):  # a bool is not one
            raise ValueError(f"top_k must be None or an integer >= 1, got {top_k!r}")
        inside = scale_range.contains(self.scale)
        kept = [(np.empty(0, dtype=np.intp), np.empty(0))]
        for b, (rows, decay) in enumerate(self._blocks):
            active = inside[rows]
            key = (b, active.tobytes())
            if key not in self._picks:
                loop = _greedy_lists if len(rows) <= _SMALL_BLOCK else _greedy_arrays
                picks, scores = loop(self.table[rows, _SCORE], decay, active, self.cfg.score_floor)
                self._picks[key] = rows[picks], scores
            kept.append(self._picks[key])
        rows, scores = (np.concatenate(a) for a in zip(*kept))
        picked = self.table[rows]
        picked[:, _SCORE] = scores
        order = np.lexsort(_order_keys(picked))
        if top_k is not None and len(order) > top_k:  # else no image has more than top_k
            # Each image's rows are contiguous; keep its first top_k.
            images = picked[order, _IMAGE]
            order = order[np.arange(len(order)) - np.searchsorted(images, images) < top_k]
        return rows[order], picked[order]


def _resolution_rows(per_resolution: list) -> tuple[np.ndarray, np.ndarray]:
    """Every resolution's detections as one table, in the order given, and each row's factor."""
    if bad := [factor for factor, _ in per_resolution if factor <= 0]:
        raise ValueError(f"scaling factor must be positive: {bad[0]!r}")
    return (_detection_table([d for _, dets in per_resolution for d in dets]),
            np.repeat([f for f, _ in per_resolution], [len(dets) for _, dets in per_resolution]))


def gate_predictions(
    dets: list[Detection], factor: float, scale_range: ScaleRange
) -> list[Detection]:
    """Keep detections whose resized-image scale is in range; project the
    survivors to original-image coordinates. Input order is preserved."""
    return _detections(_FusionIndex(*_resolution_rows([(factor, dets)]), scale_range).table)


def soft_nms(dets: list[Detection], cfg: SoftNmsConfig | None = None) -> list[Detection]:
    """Greedy score-decay suppression, run independently per image and category.

    Never raises a score; the top-scoring input always survives unchanged.
    Output is sorted by image, then final score descending (deterministic tie-break).
    """
    return fuse_multiscale([(1.0, dets)], UNBOUNDED_RANGE, cfg, None)


def fuse_multiscale(
    per_resolution: list[tuple[float, list[Detection]]],
    scale_range: ScaleRange,
    cfg: SoftNmsConfig | None = None,
    top_k: int | None = 100,
) -> list[Detection]:
    """Gate each resolution's detections, pool them, and suppress duplicates.

    The pooled list is sorted deterministically before suppression, so the
    result does not depend on the order resolutions are supplied in. Each
    image is fused on its own and keeps its top `top_k` (None: all) survivors.
    A box that projection under- or overflows raises ValueError naming the
    detection by its place in the flattened lists (`detection #i`).
    """
    index = _FusionIndex(*_resolution_rows(per_resolution), scale_range, cfg)
    _, fused = index.probe(scale_range, top_k)
    return _detections(fused)
