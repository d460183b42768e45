"""COCO-style detection metrics with an optional scale-window restriction.

Matching follows the standard greedy rule, per (image, category, IoU
threshold): detections are ranked by score (stable on the input order) and
matched to the unmatched ground truth with the highest IoU at or above the
threshold. Ignored ground truth (crowd regions, out-of-bucket, or outside the
scale restriction) can absorb detections without producing true or false
positives; detections absorbed that way are removed from the precision/recall
ranking. Average precision interpolates precision at evenly spaced recall
points (101 by default) and averages over IoU thresholds and categories.

When a scale restriction is set, ground truth outside the window becomes
ignored while detections outside it are discarded before matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Detection, Instance, ScaleRange, instance_scale, iou_matrix, to_corners

BUCKET_NAMES = ("all", "small", "medium", "large")


class EvaluationError(ValueError):
    """Raised when ground truth and detections disagree on vocabularies."""


@dataclass(frozen=True)
class EvalConfig:
    """Metric settings. Area buckets split at `small_area` (exclusive upper
    bound of small) and `large_area` (inclusive upper bound of medium), in
    squared original-image pixels."""

    iou_thresholds: tuple[float, ...] = tuple(
        round(0.5 + 0.05 * i, 2) for i in range(10)
    )
    recall_points: int = 101
    max_dets: int = 100
    scale_restriction: ScaleRange | None = None
    small_area: float = 32.0**2
    large_area: float = 96.0**2

    def __post_init__(self) -> None:
        ts = self.iou_thresholds
        if not ts or any(not 0.0 < t <= 1.0 for t in ts):
            raise ValueError(f"iou thresholds must lie in (0, 1]: {ts}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"iou thresholds must be strictly increasing: {ts}")
        if self.recall_points < 2:
            raise ValueError("need at least 2 recall points")
        if self.max_dets < 1:
            raise ValueError("max_dets must be positive")
        if not 0.0 < self.small_area < self.large_area:
            raise ValueError("area bucket edges must satisfy 0 < small < large")

    def bucket_of(self, area: float) -> str:
        if area < self.small_area:
            return "small"
        if area <= self.large_area:
            return "medium"
        return "large"

    def threshold_index(self, value: float) -> int | None:
        for i, t in enumerate(self.iou_thresholds):
            if math.isclose(t, value, abs_tol=1e-9):
                return i
        return None


@dataclass(frozen=True)
class EvalResult:
    """Headline metrics; -1 marks values undefined for lack of ground truth."""

    ap: float
    ap50: float
    ap75: float
    ap_s: float
    ap_m: float
    ap_l: float
    ar: float
    per_category: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "ap_s": self.ap_s,
            "ap_m": self.ap_m,
            "ap_l": self.ap_l,
            "ar": self.ar,
            "per_category": {str(k): v for k, v in sorted(self.per_category.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalResult":
        return cls(
            ap=float(d.get("ap", -1.0)),
            ap50=float(d.get("ap50", -1.0)),
            ap75=float(d.get("ap75", -1.0)),
            ap_s=float(d.get("ap_s", -1.0)),
            ap_m=float(d.get("ap_m", -1.0)),
            ap_l=float(d.get("ap_l", -1.0)),
            ar=float(d.get("ar", -1.0)),
            per_category={
                int(k): float(v) for k, v in d.get("per_category", {}).items()
            },
        )

    def csv_rows(self) -> list[tuple[str, str, float]]:
        rows = [
            ("all", "ap", self.ap),
            ("all", "ap50", self.ap50),
            ("all", "ap75", self.ap75),
            ("all", "ap_s", self.ap_s),
            ("all", "ap_m", self.ap_m),
            ("all", "ap_l", self.ap_l),
            ("all", "ar", self.ar),
        ]
        rows.extend((str(cat), "ap", v) for cat, v in sorted(self.per_category.items()))
        return rows


class _ImageUnit:
    """Cached per-(image, category) matching inputs shared across thresholds."""

    __slots__ = ("gts", "dets", "scores", "ious", "base_ignore", "crowd", "gt_buckets", "det_buckets")

    def __init__(self, gts: list[Instance], dets: list[Detection], cfg: EvalConfig):
        self.gts = gts
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        order = order[: cfg.max_dets]
        self.dets = [dets[i] for i in order]
        self.scores = [d.score for d in self.dets]
        self.crowd = [bool(g.iscrowd) for g in gts]
        restrict = cfg.scale_restriction
        self.base_ignore = [
            g.iscrowd
            or (restrict is not None and not restrict.contains(instance_scale(g.bbox)))
            for g in gts
        ]
        self.gt_buckets = [cfg.bucket_of(g.bbox.area) for g in gts]
        self.det_buckets = [cfg.bucket_of(d.bbox.area) for d in self.dets]
        self.ious = iou_matrix(_corners(self.dets), _corners(gts)).tolist()


def _corners(records: list[Detection] | list[Instance]) -> np.ndarray:
    xywh = np.array([(r.bbox.x, r.bbox.y, r.bbox.w, r.bbox.h) for r in records])
    return to_corners(xywh.reshape(-1, 4))


def _match_unit(
    unit: _ImageUnit, gt_ignore: list[bool], threshold: float, bucket: str
) -> tuple[list[bool], list[bool]]:
    """Greedy matching for one unit; returns (is_tp, is_ignored) per detection."""
    gts, dets, ious = unit.gts, unit.dets, unit.ious
    is_tp = [False] * len(dets)
    if not gts:
        if bucket == "all":
            return is_tp, [False] * len(dets)
        return is_tp, [unit.det_buckets[i] != bucket for i in range(len(dets))]
    order = sorted(range(len(gts)), key=lambda j: (gt_ignore[j], j))
    matched = [False] * len(gts)
    is_ig = [False] * len(dets)
    for i in range(len(dets)):
        best = -1
        best_iou = threshold
        row = ious[i]
        for j in order:
            if matched[j] and not unit.crowd[j]:
                continue
            if best != -1 and not gt_ignore[best] and gt_ignore[j]:
                break
            v = row[j]
            if best == -1:
                if v >= best_iou:
                    best, best_iou = j, v
            elif v > best_iou:
                best, best_iou = j, v
        if best != -1:
            matched[best] = True
            is_tp[i] = not gt_ignore[best]
            is_ig[i] = gt_ignore[best]
        elif bucket != "all" and unit.det_buckets[i] != bucket:
            is_ig[i] = True
    return is_tp, is_ig


def _pr_summary(
    scores: list[float],
    is_tp: list[bool],
    is_ig: list[bool],
    n_positive: int,
    recall_points: int,
) -> tuple[float, float]:
    """101-point interpolated AP and final recall; (-1, -1) with no ground truth."""
    if n_positive == 0:
        return -1.0, -1.0
    keep = [k for k in range(len(scores)) if not is_ig[k]]
    if not keep:
        return 0.0, 0.0
    order = sorted(keep, key=lambda k: (-scores[k], k))
    tp_flags = np.array([is_tp[k] for k in order], dtype=np.float64)
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(1.0 - tp_flags)
    recall = tp_cum / n_positive
    precision = tp_cum / (tp_cum + fp_cum)
    # Precision envelope from the right, then sample at the recall grid.
    for k in range(len(precision) - 2, -1, -1):
        precision[k] = max(precision[k], precision[k + 1])
    grid = np.linspace(0.0, 1.0, recall_points)
    idx = np.searchsorted(recall, grid, side="left")
    sampled = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(sampled.mean()), float(recall[-1])


def _mean_defined(values: list[float]) -> float:
    defined = [v for v in values if v != -1.0]
    return float(sum(defined) / len(defined)) if defined else -1.0


def evaluate(
    gts: list[Instance],
    dets: list[Detection],
    cfg: EvalConfig | None = None,
    categories: list[int] | None = None,
) -> EvalResult:
    """Score detections against ground truth under COCO-style matching.

    When `categories` is given it fixes the category vocabulary; records
    outside it raise EvaluationError. Otherwise the vocabulary is the union
    of categories seen in either input. Categories (or buckets) with no
    non-ignored ground truth report the sentinel -1 and are excluded from
    every mean.
    """
    cfg = cfg or EvalConfig()
    if categories is not None:
        vocab = sorted(set(categories))
        known = set(vocab)
        for g in gts:
            if g.category_id not in known:
                raise EvaluationError(
                    f"ground-truth instance {g.id} has unknown category {g.category_id}"
                )
        for d in dets:
            if d.category_id not in known:
                raise EvaluationError(f"detection has unknown category {d.category_id}")
    else:
        vocab = sorted({g.category_id for g in gts} | {d.category_id for d in dets})

    restrict = cfg.scale_restriction
    if restrict is not None:
        dets = [d for d in dets if restrict.contains(instance_scale(d.bbox))]

    gt_by: dict[tuple[int, int], list[Instance]] = {}
    det_by: dict[tuple[int, int], list[Detection]] = {}
    for g in gts:
        gt_by.setdefault((g.image_id, g.category_id), []).append(g)
    for d in dets:
        det_by.setdefault((d.image_id, d.category_id), []).append(d)
    image_ids = sorted({g.image_id for g in gts} | {d.image_id for d in dets})

    thresholds = cfg.iou_thresholds
    ap_table: dict[tuple[int, str], list[float]] = {}
    rec_table: dict[tuple[int, str], list[float]] = {}

    for cat in vocab:
        units = []
        for img in image_ids:
            g = gt_by.get((img, cat), [])
            d = det_by.get((img, cat), [])
            if g or d:
                units.append(_ImageUnit(g, d, cfg))
        for bucket in BUCKET_NAMES:
            bucket_ignores = [
                [
                    unit.base_ignore[j]
                    or (bucket != "all" and unit.gt_buckets[j] != bucket)
                    for j in range(len(unit.gts))
                ]
                for unit in units
            ]
            n_positive = sum(
                sum(1 for flag in flags if not flag) for flags in bucket_ignores
            )
            aps, recs = [], []
            for t in thresholds:
                scores: list[float] = []
                tps: list[bool] = []
                igs: list[bool] = []
                for unit, gt_ignore in zip(units, bucket_ignores):
                    is_tp, is_ig = _match_unit(unit, gt_ignore, t, bucket)
                    scores.extend(unit.scores)
                    tps.extend(is_tp)
                    igs.extend(is_ig)
                ap, rec = _pr_summary(scores, tps, igs, n_positive, cfg.recall_points)
                aps.append(ap)
                recs.append(rec)
            ap_table[(cat, bucket)] = aps
            rec_table[(cat, bucket)] = recs

    def bucket_mean(bucket: str) -> float:
        return _mean_defined([v for cat in vocab for v in ap_table[(cat, bucket)]])

    def at_threshold(value: float) -> float:
        ti = cfg.threshold_index(value)
        if ti is None:
            return -1.0
        return _mean_defined([ap_table[(cat, "all")][ti] for cat in vocab])

    per_category = {
        cat: _mean_defined(ap_table[(cat, "all")]) for cat in vocab
    }
    return EvalResult(
        ap=bucket_mean("all"),
        ap50=at_threshold(0.5),
        ap75=at_threshold(0.75),
        ap_s=bucket_mean("small"),
        ap_m=bucket_mean("medium"),
        ap_l=bucket_mean("large"),
        ar=_mean_defined([v for cat in vocab for v in rec_table[(cat, "all")]]),
        per_category=per_category,
    )


def ap_by_scale_report(
    gts: list[Instance],
    dets: list[Detection],
    cfg: EvalConfig | None = None,
    scale_range: ScaleRange | None = None,
    categories: list[int] | None = None,
) -> tuple[EvalResult, EvalResult]:
    """Evaluate twice: unrestricted, then restricted to `scale_range`."""
    cfg = cfg or EvalConfig()
    if scale_range is None:
        raise ValueError("scale_range is required")
    return (
        evaluate(gts, dets, replace(cfg, scale_restriction=None), categories),
        evaluate(gts, dets, replace(cfg, scale_restriction=scale_range), categories),
    )
