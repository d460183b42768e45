"""COCO-style detection metrics with an optional scale-window restriction.

Matching follows the standard greedy rule, per (image, category, IoU
threshold): detections are ranked by score (stable on the input order) and
matched to the unmatched ground truth with the highest IoU at or above the
threshold. Ignored ground truth (crowd regions, out-of-bucket, or outside the
scale restriction) can absorb detections without producing true or false
positives. Average precision interpolates precision at evenly spaced recall
points (101 by default) and averages over IoU thresholds and categories.

Evaluation joins two prepared sides. The ground-truth side holds each
(image, category) unit's crowd flags and, per area bucket, its ignore flags.
The detection side holds each detection row's image, category, bucket (an
index into BUCKET_NAMES) and scale, and its candidates: the ground truth of
its unit at or above the lowest threshold, the only ones it can ever match,
read from one IoU matrix per image. It depends on neither scores nor ignore
flags, so both passes of `ap_by_scale_report` share it and range search
reuses it for every probe. Range search also remembers each category's AP
and recall by the category's fused row ids and scores, on which alone they
depend, so a probe rescores only the categories its range changed. Matching
walks just the candidates and fills one lane per (area bucket, IoU
threshold); a unit without candidates is never walked. All lanes of a
category share one stable score ranking, in which absorbed detections (and
unmatched ones outside the bucket) stay masked: they add to neither the TP
nor the FP count and their precision is 0, so the AP and recall are those of
the ranking without them.

AP and final recall land in two (category, bucket, threshold) arrays that
start at -1, the mark of a lane without positives; each headline metric is
the mean of the other values in one slice of them, or -1 if there are none.

When a scale restriction is set, ground truth outside the window becomes
ignored while detections outside it are discarded before matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    _CATEGORY, _H, _IMAGE, _SCORE, _W, UNBOUNDED_RANGE, Detection, Instance, ScaleRange,
    _detection_table, instance_scale, iou_matrix, to_corners,
)

BUCKET_NAMES = ("all", "small", "medium", "large")
_HEADLINE = ("ap", "ap50", "ap75", "ap_s", "ap_m", "ap_l", "ar")  # EvalResult's scalars


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
        return BUCKET_NAMES[self._bucket(area)]

    def _bucket(self, area):
        """Index into BUCKET_NAMES of the bucket of `area`, a number or an array."""
        return 3 - (area <= self.large_area) - (area < self.small_area)


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
        d = {name: getattr(self, name) for name in _HEADLINE}
        d["per_category"] = {str(k): v for k, v in sorted(self.per_category.items())}
        return d

    def csv_rows(self) -> list[tuple[str, str, float]]:
        rows = [("all", name, getattr(self, name)) for name in _HEADLINE]
        rows.extend((str(cat), "ap", v) for cat, v in sorted(self.per_category.items()))
        return rows


def _ground_truth(gts: list[Instance], cfg: EvalConfig) -> tuple[dict, dict]:
    """The ground-truth side: per image, (corner rows, categories, position
    of each in its unit); per unit, (crowd flags, ignore flags per bucket)."""
    restrict = cfg.scale_restriction or UNBOUNDED_RANGE
    by_image: dict[int, list[tuple]] = {}
    units: dict[tuple[int, int], tuple[list[bool], list[list[bool]]]] = {}
    for g in gts:
        crowd, ignore = units.setdefault(
            (g.image_id, g.category_id), ([], [[] for _ in BUCKET_NAMES])
        )
        b = g.bbox
        by_image.setdefault(g.image_id, []).append((b.x, b.y, b.w, b.h, g.category_id, len(crowd)))
        crowd.append(bool(g.iscrowd))
        base = crowd[-1] or not restrict.contains(instance_scale(b))
        bucket = cfg._bucket(b.area)
        for i, flags in enumerate(ignore):  # ignored, or outside a bucket but "all"
            flags.append(base or i not in (0, bucket))
    images = {}
    for img, rows in by_image.items():
        a = np.array(rows)
        images[img] = (to_corners(a[:, :4]), a[:, 4], a[:, 5].astype(int).tolist())
    return images, units


class _DetectionRows:
    """The detection side over the rows of a detection table: each row's
    image, category, bucket and scale, and its candidates (best IoU,
    [(position in the unit, IoU), ...] in position order) when it has any."""

    __slots__ = ("images", "cats", "buckets", "scale", "candidates")

    def __init__(self, table: np.ndarray, gt_images: dict, cfg: EvalConfig):
        images, cats = table[:, _IMAGE].astype(int), table[:, _CATEGORY].astype(int)
        area = table[:, _W] * table[:, _H]
        self.images, self.cats = images.tolist(), cats.tolist()
        self.buckets = cfg._bucket(area).tolist()
        self.scale = np.sqrt(area)  # instance_scale, bit for bit
        corners = to_corners(table[:, :4])
        candidates: dict[int, list[tuple[int, float]]] = {}
        for img in gt_images.keys() & set(self.images):
            gt_corners, gt_cats, positions = gt_images[img]
            rows = np.flatnonzero(images == img)
            ious = iou_matrix(corners[rows], gt_corners)
            hits = (ious >= cfg.iou_thresholds[0]) & (cats[rows, None] == gt_cats)
            rows = rows.tolist()
            for r, k, v in zip(*(a.tolist() for a in np.nonzero(hits)), ious[hits].tolist()):
                candidates.setdefault(rows[r], []).append((positions[k], v))
        self.candidates = {r: (max(v for _, v in c), c) for r, c in candidates.items()}

    def units(self, rows: np.ndarray, scores: np.ndarray, cfg: EvalConfig) -> dict:
        """Per (image, category): (scores, buckets, [(detection, best IoU,
        candidates), ...]) of `rows`, ranked within each unit, scored `scores`."""
        restrict = cfg.scale_restriction or UNBOUNDED_RANGE
        keep = restrict.contains(self.scale).tolist()
        units: dict[tuple[int, int], tuple[list, list, list]] = {}
        for r, score in zip(rows.tolist(), scores.tolist()):
            if not keep[r]:
                continue
            kept, buckets, cands = units.setdefault((self.images[r], self.cats[r]), ([], [], []))
            if len(kept) < cfg.max_dets:
                if r in self.candidates:
                    cands.append((len(kept), *self.candidates[r]))
                kept.append(score)
                buckets.append(self.buckets[r])
        return units


def _match_unit(
    candidates: list[tuple[int, float, list[tuple[int, float]]]],
    crowd: list[bool],
    gt_ignore: list[bool],
    thresholds: tuple[float, ...],
    is_tp: np.ndarray,
    is_ig: np.ndarray,
) -> None:
    """Greedy matching of one unit at every threshold. Row t of the unit's
    (T, D) slices `is_tp`/`is_ig` is set for each detection matched at
    threshold t; unmatched detections keep the values they came with."""
    floor = -math.inf  # lowest IoU matched in the last lane walked
    for lane, threshold in enumerate(thresholds):
        if threshold <= floor:  # every match of that lane clears this one: same matches
            is_tp[lane], is_ig[lane] = is_tp[lane - 1], is_ig[lane - 1]
            continue
        matched = [False] * len(crowd)
        floor = math.inf
        for i, top, cands in candidates:
            if top < threshold:
                continue
            best = -1
            best_iou = threshold
            for ignored in (False, True):  # ignored ground truth only if no other qualifies
                for j, v in cands:
                    if gt_ignore[j] != ignored or (matched[j] and not crowd[j]):
                        continue
                    if v > best_iou or (best == -1 and v == best_iou):
                        best, best_iou = j, v
                if best != -1:
                    break
            if best != -1:
                matched[best] = True
                floor = min(floor, best_iou)
                is_tp[lane, i] = not gt_ignore[best]
                is_ig[lane, i] = gt_ignore[best]
        if floor == math.inf:
            break  # no match at this threshold, so none at a higher one


def _pr_summary(
    order: np.ndarray, is_tp: np.ndarray, is_ig: np.ndarray, n_positive: list[int], grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated AP and final recall, (B, T) each, of the (B, T, D) flags,
    detections ranked by `order`; bucket b has n_positive[b] > 0 positives.
    Ignored detections stay in the ranking: they add to neither count and
    their precision is 0, so they never set a sample."""
    lanes = is_tp.shape[0] * is_tp.shape[1]
    tp, kept = is_tp[..., order].reshape(lanes, -1), ~is_ig[..., order].reshape(lanes, -1)
    positives = np.repeat(n_positive, is_tp.shape[1])
    tp_cum = np.cumsum(tp, axis=1, dtype=np.float64)
    recall = tp_cum / positives[:, None]
    precision = np.zeros((lanes, order.size + 1))
    np.divide(tp_cum, np.cumsum(kept, axis=1, dtype=np.float64), out=precision[:, :-1], where=kept)
    # Precision envelope from the right; a sample past the last recall reads the 0 pad.
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1].ravel()
    # Sample r reads the envelope at the count of recalls below grid[r], i.e.
    # of the recalls that reach (are >=) at most r grid points.
    rows = np.arange(lanes)[:, None]
    reached = np.searchsorted(grid, recall, side="right") + rows * (grid.size + 1)
    below = np.bincount(reached.ravel(), minlength=lanes * (grid.size + 1)).reshape(lanes, -1)
    sampled = envelope[below.cumsum(axis=1)[:, :-1] + rows * (order.size + 1)]
    final = np.count_nonzero(tp, axis=1) / positives
    return sampled.mean(axis=1).reshape(is_tp.shape[:2]), final.reshape(is_tp.shape[:2])


def _mean_defined(values: np.ndarray) -> float:
    """Mean of the values other than -1, summed left to right in C order; -1 if none."""
    defined = values[values != -1.0].tolist()
    return sum(defined) / len(defined) if defined else -1.0


def _score(
    gt_units: dict, det_units: dict, vocab: list[int], cfg: EvalConfig,
    memo: tuple[dict, list] | None = None,
) -> EvalResult:
    """The evaluation core: match each unit of the two prepared sides, fill
    the (category, bucket, threshold) AP and recall arrays, and average.
    `memo` pairs a dict with a key per category of `vocab`; a category whose
    key the dict holds takes its AP and recall rows from it."""
    thresholds = cfg.iou_thresholds
    grid = np.linspace(0.0, 1.0, cfg.recall_points)
    keys = sorted(gt_units.keys() | det_units.keys())  # image order within a category
    aps, recs = np.full((2, len(vocab), len(BUCKET_NAMES), len(thresholds)), -1.0)
    seen, memo_keys = memo or ({}, range(len(vocab)))

    for c, cat in enumerate(vocab):
        if memo_keys[c] in seen:
            aps[c], recs[c] = seen[memo_keys[c]]
            continue
        units = [
            (gt_units.get(k, ([], [[]] * len(BUCKET_NAMES))), det_units.get(k, ([], [], [])))
            for k in keys if k[1] == cat
        ]
        positives = [(b, n) for b in range(len(BUCKET_NAMES))  # (bucket, ground truth not ignored)
                     if (n := sum(ignore[b].count(False) for (_, ignore), _ in units))]
        if not positives:
            continue  # every lane stays -1
        has, n_positive = map(list, zip(*positives))
        scores = np.array([s for _, (kept, _, _) in units for s in kept])
        det_buckets = np.array([b for _, (_, buckets, _) in units for b in buckets], dtype=int)
        # One lane per (bucket, threshold); detections are in unit order.
        is_tp = np.zeros((len(BUCKET_NAMES), len(thresholds), scores.size), dtype=bool)
        is_ig = np.zeros_like(is_tp)
        for b in has:
            if b:  # unmatched detections outside the bucket are ignored
                is_ig[b] = det_buckets != b
            start = 0
            for (crowd, ignore), (kept, _, candidates) in units:
                stop = start + len(kept)
                if candidates:
                    span = (b, slice(None), slice(start, stop))
                    _match_unit(candidates, crowd, ignore[b], thresholds, is_tp[span], is_ig[span])
                start = stop
        order = np.argsort(-scores, kind="stable")
        aps[c, has], recs[c, has] = _pr_summary(order, is_tp[has], is_ig[has], n_positive, grid)
        seen[memo_keys[c]] = aps[c], recs[c]

    # The lane of the threshold equal to 0.5 (0.75), or no lane: its mean is -1.
    lane = {v: [t for t, x in enumerate(thresholds) if math.isclose(x, v, abs_tol=1e-9)][:1]
            for v in (0.5, 0.75)}
    return EvalResult(
        ap=_mean_defined(aps[:, 0]),
        ap50=_mean_defined(aps[:, 0, lane[0.5]]),
        ap75=_mean_defined(aps[:, 0, lane[0.75]]),
        ap_s=_mean_defined(aps[:, 1]),
        ap_m=_mean_defined(aps[:, 2]),
        ap_l=_mean_defined(aps[:, 3]),
        ar=_mean_defined(recs[:, 0]),
        per_category={cat: _mean_defined(aps[c, 0]) for c, cat in enumerate(vocab)},
    )


def _evaluate(
    gts: list[Instance],
    dets: list[Detection],
    passes: list[EvalConfig],
    categories: list[int] | None,
) -> list[EvalResult]:
    """One result per config of `passes`, which differ at most in the scale
    restriction: they share the detection side and rank it once."""
    if categories is not None:
        vocab = sorted(set(categories))
        known = set(vocab)
        for g in gts:
            if g.category_id not in known:
                raise EvaluationError(
                    f"ground-truth instance {g.id} has unknown category {g.category_id}"
                )
        for i, d in enumerate(dets):
            if d.category_id not in known:
                raise EvaluationError(f"detection #{i}: unknown category {d.category_id}")
    else:
        vocab = sorted({g.category_id for g in gts} | {d.category_id for d in dets})

    sides = [_ground_truth(gts, cfg) for cfg in passes]
    table = _detection_table(dets)
    ranked = np.argsort(-table[:, _SCORE], kind="stable")
    rows = _DetectionRows(table, sides[0][0], passes[0])
    return [
        _score(gt_units, rows.units(ranked, table[ranked, _SCORE], cfg), vocab, cfg)
        for cfg, (_, gt_units) in zip(passes, sides)
    ]


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
    return _evaluate(gts, dets, [cfg or EvalConfig()], categories)[0]


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
    passes = [replace(cfg, scale_restriction=r) for r in (None, scale_range)]
    return tuple(_evaluate(gts, dets, passes, categories))
