"""COCO-style detection metrics with an optional scale-window restriction.

Matching follows the standard greedy rule, per (image, category, IoU
threshold): detections are ranked by score (stable on the input order) and
matched to the unmatched ground truth with the highest IoU at or above the
threshold. Ignored ground truth (crowd regions, out-of-bucket, or outside the
scale restriction) can absorb detections without producing true or false
positives. Average precision interpolates precision at evenly spaced recall
points (101 by default) and averages over IoU thresholds and categories.

Evaluation joins two prepared sides, arrays that no score moves, so both
passes of `ap_by_scale_report` and every probe of a range search share them:
a per-instance ground-truth index (crowd flags, a (bucket, instance) ignore
matrix, each category's positives per bucket), and each detection row's
image, category, bucket, scale and candidates, the ground truth of its unit
at or above the lowest threshold. Scoring sorts the rows in the restriction
into (category, image, rank) order and cuts each unit to max_dets. If no
detection of a unit has two or more candidates, it is matched in closed form,
every lane at once: a detection whose candidate clears the lanes [0, k)
matches on [lo, k), lo being 0 for a crowd candidate and else the largest k
of the earlier detections on it. Other units are walked greedily, lane by
lane. Given a memo, as each range-search probe is, scoring keys each category's
AP and recall by its row ids and scores and drops a remembered category's
rows first. One stable sort per scoring call ranks every category's rows by
score, ties in (image, rank) order, and all lanes of a category share that
ranking, in which absorbed detections (and unmatched ones outside the
bucket) stay masked: they add to neither the TP nor the FP count and their
precision is 0, so the AP and recall are those of the ranking without them.

AP and final recall land in two (category, bucket, threshold) arrays that
start at -1, the mark of a lane without positives; each headline metric is
the mean of the other values in one slice of them, or -1 if there are none.
The buckets scored are those of the ground-truth side: all four for
`evaluate`, the `all` bucket alone for a range-search probe, which reads
only AP, so it matches and accumulates one lane per threshold. Each lane is
computed on its own, so a probe's AP is `evaluate`'s, bit for bit.

Both sides map categories through the ground truth's `category_index`, which
raises EvaluationError for the first instance or row outside the vocabulary.

When a scale restriction is set, ground truth outside the window becomes
ignored while detections outside it are discarded before matching.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    _CATEGORY, _H, _IMAGE, _SCORE, _W, UNBOUNDED_RANGE, Detection, Instance, ScaleRange,
    _detection_table, _exact_ids, iou_matrix, to_corners,
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


class _GroundTruth:
    """Per instance in input order: image, category (index into `vocab`),
    corners, crowd flag, (bucket, instance) ignore matrix; per category and
    bucket, the positives. The buckets are the first `buckets` of
    BUCKET_NAMES, and scoring fills those alone. An instance outside `vocab`
    raises EvaluationError."""

    __slots__ = ("vocab", "images", "cats", "corners", "crowd", "ignore", "positives", "flags")

    def __init__(
        self, gts: list[Instance], vocab: list[int], cfg: EvalConfig,
        buckets: int = len(BUCKET_NAMES),
    ):
        a = np.array([(g.bbox.x, g.bbox.y, g.bbox.w, g.bbox.h, g.image_id, g.category_id,
                       g.iscrowd) for g in gts], dtype=float).reshape(-1, 7)
        _exact_ids(a[:, 4:6], gts, ("image_id", "category_id"), "ground-truth instance {0.id}")
        self.vocab, self.images, self.corners = vocab, a[:, 4], to_corners(a[:, :4])
        self.cats = self.category_index(a[:, 5], lambda i: (
            f"ground-truth instance {gts[i].id} has unknown category {gts[i].category_id}"))
        self.crowd = a[:, 6] != 0
        area, restrict = a[:, 2] * a[:, 3], cfg.scale_restriction or UNBOUNDED_RANGE
        b = np.arange(buckets)[:, None]  # ignored, or outside a bucket but "all"
        self.ignore = (self.crowd | ~restrict.contains(np.sqrt(area))
                       | ((b != cfg._bucket(area)) & (b != 0)))
        self.positives = np.zeros((len(vocab), buckets), dtype=int)
        np.add.at(self.positives, self.cats, ~self.ignore.T)
        self.flags = self.crowd.tolist(), self.ignore.tolist()  # for `_match_unit`

    def category_index(self, cats: np.ndarray, unknown: Callable[[int], str]) -> np.ndarray:
        """Indices into `vocab`; EvaluationError(unknown(i)) for cats[i], the first outside it."""
        at = np.searchsorted(self.vocab, cats)
        if (outside := np.flatnonzero(np.append(self.vocab, np.nan)[at] != cats).tolist()):
            raise EvaluationError(unknown(outside[0]))
        return at


class _DetectionRows:
    """Per row of a detection table: image, category index, bucket (index
    into BUCKET_NAMES), scale, count of candidates (see above), the best one's
    IoU and lane count (thresholds at or below that IoU), and the instance of
    the one candidate or, in `multi`, [(instance, IoU), ...] of many. A row
    whose category is outside the vocabulary raises EvaluationError."""

    __slots__ = ("images", "cats", "buckets", "scale", "count", "single", "iou", "lanes", "multi")

    def __init__(self, table: np.ndarray, truth: _GroundTruth, cfg: EvalConfig):
        self.images = table[:, _IMAGE]
        self.cats = truth.category_index(table[:, _CATEGORY], lambda i: (
            f"detection #{i}: unknown category {int(table[i, _CATEGORY])}"))
        area = table[:, _W] * table[:, _H]
        self.buckets, self.scale = cfg._bucket(area), np.sqrt(area)  # instance_scale, bit for bit
        self.count, self.single = np.zeros((2, len(table)), dtype=int)
        self.iou, self.multi = np.zeros(len(table)), {}
        corners = to_corners(table[:, :4])
        for img in set(truth.images.tolist()) & set(self.images.tolist()):
            rows, gts = np.flatnonzero(self.images == img), np.flatnonzero(truth.images == img)
            ious = iou_matrix(corners[rows], truth.corners[gts])
            hits = (ious >= cfg.iou_thresholds[0]) & (self.cats[rows, None] == truth.cats[gts])
            self.count[rows], self.single[rows] = hits.sum(axis=1), gts[hits.argmax(axis=1)]
            self.iou[rows] = np.where(hits, ious, 0.0).max(axis=1)
            many = self.count[rows] > 1
            for r, hit, iou in zip(rows[many].tolist(), hits[many], ious[many]):
                self.multi[r] = list(zip(gts[hit].tolist(), iou[hit].tolist()))
        self.lanes = np.searchsorted(cfg.iou_thresholds, self.iou, side="right")

    def candidates(self, r: int) -> tuple[float, list[tuple[int, float]]]:
        """(best IoU, [(instance, IoU), ...]) of row r, which has candidates."""
        top = self.iou[r].item()
        return top, self.multi.get(r) or [(self.single[r].item(), top)]


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
        matched = set()
        floor = math.inf
        for i, top, cands in candidates:
            if top < threshold:
                continue
            best = -1
            best_iou = threshold
            for ignored in (False, True):  # ignored ground truth only if no other qualifies
                for j, v in cands:
                    if gt_ignore[j] != ignored or (j in matched and not crowd[j]):
                        continue
                    if v > best_iou or (best == -1 and v == best_iou):
                        best, best_iou = j, v
                if best != -1:
                    break
            if best != -1:
                matched.add(best)
                floor = min(floor, best_iou)
                is_tp[lane, i] = not gt_ignore[best]
                is_ig[lane, i] = gt_ignore[best]
        if floor == math.inf:
            break  # no match at this threshold, so none at a higher one


def _match_single(
    inst: np.ndarray, lanes: np.ndarray, crowd: np.ndarray, ignore: np.ndarray, is_ig: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching in closed form of detections, ranked within their
    units, whose one candidate inst[d] clears lanes[d] lanes: d matches on the
    lanes from lo (the most lanes an earlier detection on a non-crowd inst[d]
    cleared, else 0) up to lanes[d]. Returns (B, T, D) is_tp and is_ig: the
    `ignore` (bucket, instance) flags on matched lanes, `is_ig` elsewhere."""
    order = np.argsort(inst, kind="stable")
    g, k = inst[order], lanes[order]
    new = np.ones(g.size, dtype=bool)
    new[1:] = g[1:] != g[:-1]
    offset = np.cumsum(new) * (is_ig.shape[1] + 1)  # so each instance's run climbs past the last
    taken = np.maximum.accumulate(k + offset) - offset
    before = np.zeros_like(k)  # the lanes taken on g[i] by the detections ahead of i
    before[1:] = taken[:-1]
    lo = np.empty_like(k)
    lo[order] = np.where(new | crowd[g], 0, before)
    t = np.arange(is_ig.shape[1])[:, None]
    matched = (lo <= t) & (t < lanes)
    ig = ignore[:, None, inst]
    return matched & ~ig, np.where(matched, ig, is_ig)


def _pr_summary(
    is_tp: np.ndarray, is_ig: np.ndarray, n_positive: list[int], grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated AP and final recall, (B, T) each, of the (B, T, D) flags
    of D detections ranked by score; bucket b has n_positive[b] > 0 positives.
    Ignored detections stay in the ranking: they add to neither count and
    their precision is 0, so they never set a sample."""
    lanes, size = is_tp.shape[0] * is_tp.shape[1], is_tp.shape[2]
    tp, kept = is_tp.reshape(lanes, size), ~is_ig.reshape(lanes, size)
    positives = np.repeat(n_positive, is_tp.shape[1])
    tp_cum = np.cumsum(tp, axis=1, dtype=np.float64)
    recall = tp_cum / positives[:, None]
    precision = np.zeros((lanes, size + 1))
    np.divide(tp_cum, np.cumsum(kept, axis=1, dtype=np.float64), out=precision[:, :-1], where=kept)
    # Precision envelope from the right; a sample past the last recall reads the 0 pad.
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1].ravel()
    # Sample r reads the envelope at the count of recalls below grid[r], i.e.
    # of the recalls that reach (are >=) at most r grid points.
    rows = np.arange(lanes)[:, None]
    reached = np.searchsorted(grid, recall, side="right") + rows * (grid.size + 1)
    below = np.bincount(reached.ravel(), minlength=lanes * (grid.size + 1)).reshape(lanes, -1)
    sampled = envelope[below.cumsum(axis=1)[:, :-1] + rows * (size + 1)]
    final = tp_cum[:, -1] / positives if size else np.zeros(lanes)
    return sampled.mean(axis=1).reshape(is_tp.shape[:2]), final.reshape(is_tp.shape[:2])


def _mean_defined(values: np.ndarray) -> float:
    """Mean of the values other than -1, summed left to right in C order; -1 if none."""
    defined = values[values != -1.0].tolist()
    return sum(defined) / len(defined) if defined else -1.0


def _score(
    truth: _GroundTruth, dets: _DetectionRows, rows: np.ndarray, scores: np.ndarray,
    cfg: EvalConfig, memo: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation core: match the ranked rows `rows`, scored `scores`, and
    return the (category, bucket, threshold) AP and recall arrays, one bucket
    per bucket of `truth`. A `memo` dict holds each category's AP and recall
    rows by (category index, the bytes of its row ids, the bytes of its
    scores); a category found in it takes its rows from it, its detections
    dropped first. A pass that cannot bind is skipped: the restriction when
    none is set, the max_dets cut when fewer rows remain, and the
    out-of-bucket mask when `truth` holds the `all` bucket alone."""
    thresholds, positives = cfg.iou_thresholds, truth.positives
    buckets = positives.shape[1]
    aps, recs = np.full((2, len(truth.vocab), buckets, len(thresholds)), -1.0)
    live = positives[:, 0] > 0  # a category without positives keeps -1 in every lane
    cats, keys = dets.cats[rows], {}
    for c in np.flatnonzero(live).tolist() if memo is not None else ():
        mine = cats == c
        keys[c] = key = (c, rows[mine].tobytes(), scores[mine].tobytes())
        if key in memo:
            aps[c], recs[c] = memo[key]
            live[c] = False
    keep = live[cats]
    if cfg.scale_restriction is not None:
        keep &= cfg.scale_restriction.contains(dets.scale[rows])
    rows, scores = rows[keep], scores[keep]
    # (category, image, rank) order; a unit, a run of one (category, image),
    # keeps its first max_dets rows, so units stay numbered 0, 1, ... in order.
    order = np.lexsort((dets.images[rows], dets.cats[rows]))
    rows, scores = rows[order], scores[order]
    cats, images = dets.cats[rows], dets.images[rows]
    start = np.ones(rows.size, dtype=bool)
    start[1:] = (cats[1:] != cats[:-1]) | (images[1:] != images[:-1])
    unit = np.cumsum(start) - 1
    if rows.size > cfg.max_dets:
        keep = np.arange(rows.size) - np.flatnonzero(start)[unit] < cfg.max_dets
        rows, scores, cats, unit, start = (
            rows[keep], scores[keep], cats[keep], unit[keep], start[keep])

    # One lane per (bucket, threshold); unmatched detections outside the bucket are ignored.
    is_tp, is_ig = np.zeros((2, buckets, len(thresholds), rows.size), dtype=bool)
    if buckets > 1:
        is_ig[1:] = (dets.buckets[rows] != np.arange(1, buckets)[:, None])[:, None]
    count = dets.count[rows]
    walk = np.zeros(rows.size, dtype=bool)
    walk[unit[count > 1]] = True  # units that hold a row with two or more candidates
    one = (count == 1) & ~walk[unit]
    if one.any():
        r = rows[one]
        is_tp[..., one], is_ig[..., one] = _match_single(
            dets.single[r], dets.lanes[r], truth.crowd, truth.ignore, is_ig[..., one])
    crowd, ignore = truth.flags
    bounds = np.append(np.flatnonzero(start), rows.size).tolist()
    for u in np.flatnonzero(walk).tolist():
        a, z = bounds[u], bounds[u + 1]
        candidates = [(i, *dets.candidates(r)) for i, (r, n) in
                      enumerate(zip(rows[a:z].tolist(), count[a:z].tolist())) if n]
        for b in np.flatnonzero(positives[cats[a]]).tolist():
            span = (b, slice(None), slice(a, z))
            _match_unit(candidates, crowd, ignore[b], thresholds, is_tp[span], is_ig[span])

    # One stable ranking of every category's rows by score, ties in (image, rank) order.
    rank = np.lexsort((-scores, cats))
    is_tp, is_ig = is_tp[..., rank], is_ig[..., rank]
    grid = _recall_grid(cfg.recall_points)
    edges = np.searchsorted(cats, np.arange(len(truth.vocab) + 1)).tolist()  # category slices
    for c in np.flatnonzero(live).tolist():
        has, span = np.flatnonzero(positives[c]), slice(edges[c], edges[c + 1])
        aps[c, has], recs[c, has] = _pr_summary(
            is_tp[has, :, span], is_ig[has, :, span], positives[c, has], grid)
        if c in keys:
            memo[keys[c]] = aps[c], recs[c]
    return aps, recs


@functools.cache
def _recall_grid(points: int) -> np.ndarray:
    """The `points` evenly spaced recall samples in [0, 1], read-only, built once."""
    grid = np.linspace(0.0, 1.0, points)
    grid.flags.writeable = False
    return grid


def _result(aps: np.ndarray, recs: np.ndarray, vocab: list[int], cfg: EvalConfig) -> EvalResult:
    """The headline metrics of `_score`'s arrays over every bucket."""
    thresholds = cfg.iou_thresholds
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
    vocab = sorted(set(categories) if categories is not None
                   else {g.category_id for g in gts} | {d.category_id for d in dets})
    truths = [_GroundTruth(gts, vocab, cfg) for cfg in passes]
    table = _detection_table(dets)
    rows = _DetectionRows(table, truths[0], passes[0])
    ranked = np.argsort(-table[:, _SCORE], kind="stable")
    return [_result(*_score(truth, rows, ranked, table[ranked, _SCORE], cfg), vocab, cfg)
            for cfg, truth in zip(passes, truths)]


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
