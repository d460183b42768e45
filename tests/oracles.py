"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch against the documented
behavior, in a different style from the production code (corner-form boxes,
plain dicts and loops, no shared helpers), so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Geometry references


def iou_grid_count(box_a, box_b) -> float:
    """Unit-grid cell-counting IoU for integer-coordinate (x, y, w, h) boxes."""
    ax, ay, aw, ah = (int(v) for v in box_a)
    bx, by, bw, bh = (int(v) for v in box_b)
    cells_a = {(x, y) for x in range(ax, ax + aw) for y in range(ay, ay + ah)}
    cells_b = {(x, y) for x in range(bx, bx + bw) for y in range(by, by + bh)}
    union = len(cells_a | cells_b)
    return len(cells_a & cells_b) / union if union else 0.0


def _iou_corners(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = min(ax2, bx2) - max(ax1, bx1)
    iy = min(ay2, by2) - max(ay1, by1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def xywh_to_corners(box):
    x, y, w, h = box
    return (x, y, x + w, y + h)


# ---------------------------------------------------------------------------
# Suppression references


def _iou_row(corners, i, js):
    """Corner-form IoU of row i against index array js, vectorized."""
    x1, y1, x2, y2 = corners[:, 0], corners[:, 1], corners[:, 2], corners[:, 3]
    ix = np.minimum(x2[js], x2[i]) - np.maximum(x1[js], x1[i])
    iy = np.minimum(y2[js], y2[i]) - np.maximum(y1[js], y1[i])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    area = (x2 - x1) * (y2 - y1)
    return inter / (area[js] + area[i] - inter)


def classic_nms(boxes, scores, iou_threshold):
    """Plain greedy NMS; returns surviving indices in pick order."""
    corners = np.array([xywh_to_corners(b) for b in boxes], dtype=np.float64)
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    keep = []
    while order:
        i = order.pop(0)
        keep.append(i)
        if order:
            js = np.array(order)
            overlaps = _iou_row(corners, i, js)
            order = [j for j, ov in zip(order, overlaps) if ov <= iou_threshold]
    return keep


def soft_nms_reference(boxes, scores, method, sigma, iou_threshold, score_floor):
    """In-place array formulation of score-decay suppression.

    Follows the swap-to-front pseudocode: position i receives the current
    maximum of the remaining tail, then the tail is rescored against it and
    entries under the floor are compacted away. Returns (boxes, scores) of
    the survivors in pick order.
    """
    corners = np.array([xywh_to_corners(b) for b in boxes], dtype=np.float64).reshape(
        -1, 4
    )
    scores = np.array(scores, dtype=np.float64)
    n = len(scores)
    i = 0
    while i < n:
        tail = int(np.argmax(scores[i:])) + i
        corners[[i, tail]] = corners[[tail, i]]
        scores[[i, tail]] = scores[[tail, i]]
        if i + 1 < n:
            js = np.arange(i + 1, n)
            ov = _iou_row(corners, i, js)
            if method == "gaussian":
                weight = np.exp(-(ov * ov) / sigma)
            elif method == "linear":
                weight = np.where(ov > iou_threshold, 1.0 - ov, 1.0)
            else:
                weight = np.where(ov > iou_threshold, 0.0, 1.0)
            scores[js] *= weight
            alive = js[scores[js] >= score_floor]
            remaining = np.concatenate([np.arange(i + 1), alive])
            corners = corners[remaining]
            scores = scores[remaining]
            n = len(scores)
        i += 1
    boxes_out = np.column_stack(
        [
            corners[:, 0],
            corners[:, 1],
            corners[:, 2] - corners[:, 0],
            corners[:, 3] - corners[:, 1],
        ]
    )
    return boxes_out, scores


# ---------------------------------------------------------------------------
# Evaluation reference


def _bucket_name(area, small_area, large_area):
    if area < small_area:
        return "small"
    if area <= large_area:
        return "medium"
    return "large"


def _interp_ap(recalls, precisions, recall_points):
    # max precision over all curve points with recall >= r, else 0; the grid
    # itself is pinned to np.linspace so boundary comparisons are exact
    grid = np.linspace(0.0, 1.0, recall_points)
    total = 0.0
    for r in grid:
        best = 0.0
        for rec, prec in zip(recalls, precisions):
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / recall_points


def evaluate_reference(gts, dets, cfg, categories=None):
    """From-scratch mirror of the documented matching and averaging rules.

    Returns a dict with the same fields as the production result. `gts` and
    `dets` are the library's Instance/Detection objects; only their public
    attributes are read.
    """
    thresholds = list(cfg.iou_thresholds)
    if categories is not None:
        vocab = sorted(set(categories))
    else:
        vocab = sorted({g.category_id for g in gts} | {d.category_id for d in dets})

    if cfg.scale_restriction is not None:
        lo, hi = cfg.scale_restriction.lower, cfg.scale_restriction.upper
        dets = [
            d for d in dets if lo <= math.sqrt(d.bbox.w * d.bbox.h) <= hi
        ]

    images = sorted({g.image_id for g in gts} | {d.image_id for d in dets})
    buckets = ("all", "small", "medium", "large")

    ap = {}
    rec = {}
    for cat in vocab:
        for bucket in buckets:
            per_t_ap = []
            per_t_rec = []
            for t in thresholds:
                ranking = []  # (score, order_key, is_tp)
                n_positive = 0
                order_key = 0
                for img in images:
                    img_gts = [g for g in gts if g.image_id == img and g.category_id == cat]
                    img_dets = [d for d in dets if d.image_id == img and d.category_id == cat]
                    gt_ignore = []
                    for g in img_gts:
                        ig = bool(g.iscrowd)
                        if cfg.scale_restriction is not None:
                            scale = math.sqrt(g.bbox.w * g.bbox.h)
                            if not (
                                cfg.scale_restriction.lower
                                <= scale
                                <= cfg.scale_restriction.upper
                            ):
                                ig = True
                        if bucket != "all":
                            name = _bucket_name(
                                g.bbox.w * g.bbox.h, cfg.small_area, cfg.large_area
                            )
                            if name != bucket:
                                ig = True
                        gt_ignore.append(ig)
                    n_positive += sum(1 for ig in gt_ignore if not ig)

                    det_order = sorted(
                        range(len(img_dets)), key=lambda i: (-img_dets[i].score, i)
                    )[: cfg.max_dets]
                    gt_order = sorted(
                        range(len(img_gts)), key=lambda j: (gt_ignore[j], j)
                    )
                    taken = set()
                    for i in det_order:
                        d = img_dets[i]
                        d_corners = xywh_to_corners(
                            (d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h)
                        )
                        chosen = -1
                        chosen_iou = t
                        for j in gt_order:
                            g = img_gts[j]
                            if j in taken and not g.iscrowd:
                                continue
                            if (
                                chosen != -1
                                and not gt_ignore[chosen]
                                and gt_ignore[j]
                            ):
                                break
                            v = _iou_corners(
                                d_corners,
                                xywh_to_corners(
                                    (g.bbox.x, g.bbox.y, g.bbox.w, g.bbox.h)
                                ),
                            )
                            if chosen == -1:
                                if v >= chosen_iou:
                                    chosen, chosen_iou = j, v
                            elif v > chosen_iou:
                                chosen, chosen_iou = j, v
                        if chosen != -1:
                            taken.add(chosen)
                            if not gt_ignore[chosen]:
                                ranking.append((d.score, order_key, True))
                            # absorbed by ignored gt: left out of the ranking
                        else:
                            ignored_det = bucket != "all" and (
                                _bucket_name(
                                    d.bbox.w * d.bbox.h, cfg.small_area, cfg.large_area
                                )
                                != bucket
                            )
                            if not ignored_det:
                                ranking.append((d.score, order_key, False))
                        order_key += 1

                if n_positive == 0:
                    per_t_ap.append(-1.0)
                    per_t_rec.append(-1.0)
                    continue
                ranking.sort(key=lambda row: (-row[0], row[1]))
                tp = 0
                fp = 0
                recalls = []
                precisions = []
                for _, _, is_tp in ranking:
                    if is_tp:
                        tp += 1
                    else:
                        fp += 1
                    recalls.append(tp / n_positive)
                    precisions.append(tp / (tp + fp))
                per_t_ap.append(
                    _interp_ap(recalls, precisions, cfg.recall_points)
                    if ranking
                    else 0.0
                )
                per_t_rec.append(recalls[-1] if ranking else 0.0)
            ap[(cat, bucket)] = per_t_ap
            rec[(cat, bucket)] = per_t_rec

    def mean_defined(values):
        defined = [v for v in values if v != -1.0]
        return sum(defined) / len(defined) if defined else -1.0

    def bucket_mean(bucket):
        return mean_defined([v for cat in vocab for v in ap[(cat, bucket)]])

    def at_threshold(target):
        idx = None
        for i, t in enumerate(thresholds):
            if abs(t - target) < 1e-9:
                idx = i
        if idx is None:
            return -1.0
        return mean_defined([ap[(cat, "all")][idx] for cat in vocab])

    return {
        "ap": bucket_mean("all"),
        "ap50": at_threshold(0.5),
        "ap75": at_threshold(0.75),
        "ap_s": bucket_mean("small"),
        "ap_m": bucket_mean("medium"),
        "ap_l": bucket_mean("large"),
        "ar": mean_defined([v for cat in vocab for v in rec[(cat, "all")]]),
        "per_category": {
            cat: mean_defined(ap[(cat, "all")]) for cat in vocab
        },
    }


# ---------------------------------------------------------------------------
# Synthetic detector reference


def simulate_reference(dataset, factors, profile):
    """The seeded synthetic detector with one `np.random.default_rng` per stream.

    Returns one list per factor of (x, y, w, h, category, score, image,
    resolution index) tuples in the detector's output order: images by id,
    each image's instances by id, then the image's spurious detections.
    Stream keys: [seed, image, instance, factor key] for an instance and
    [seed, image, factor key, 0x5F] for an image's spurious detections, where
    the factor key is round(factor * 2**20).
    """
    p = profile
    if dataset.categories:
        categories = sorted(c["id"] for c in dataset.categories)
    else:
        categories = sorted({inst.category_id for inst in dataset.instances})

    def octaves(scale):
        if scale < p.sweet_low:
            return math.log2(p.sweet_low / scale)
        if scale > p.sweet_high:
            return math.log2(scale / p.sweet_high)
        return 0.0

    def clip(value):
        return min(1.0, max(0.0, value))

    out = []
    for index, factor in enumerate(factors):
        factor_key = int(round(factor * (1 << 20)))
        rows = []
        for img in sorted(dataset.images, key=lambda i: i.id):
            own = [inst for inst in dataset.instances if inst.image_id == img.id]
            for inst in sorted(own, key=lambda i: i.id):
                rng = np.random.default_rng([p.seed, img.id, inst.id, factor_key])
                b = inst.bbox
                scale = factor * math.sqrt(b.w * b.h)
                if rng.random() >= p.p_detect_in_band * p.p_detect_decay ** octaves(scale):
                    continue
                sigma = p.loc_noise_frac * p.loc_noise_growth ** octaves(scale)
                dx, dy, dw, dh = rng.normal(0.0, 1.0, 4)
                x, y, w, h = b.x * factor, b.y * factor, b.w * factor, b.h * factor
                x, y = max(0.0, x + dx * sigma * w), max(0.0, y + dy * sigma * h)
                w, h = w * math.exp(dw * sigma), h * math.exp(dh * sigma)
                score = clip(float(rng.normal(p.tp_score_mean, p.tp_score_std)))
                rows.append((x, y, w, h, inst.category_id, score, img.id, index))
            if p.fp_rate == 0 or not categories:
                continue
            rng = np.random.default_rng([p.seed, img.id, factor_key, 0x5F])
            height = max(1, round(img.height * factor))
            width = max(1, round(img.width * factor))
            high = max(16.0, 0.5 * min(height, width))
            for _ in range(int(rng.poisson(p.fp_rate))):
                scale = math.exp(rng.uniform(math.log(8.0), math.log(high)))
                ratio = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
                w, h = scale * math.sqrt(ratio), scale / math.sqrt(ratio)
                x = rng.uniform(0.0, max(1e-6, width - w))
                y = rng.uniform(0.0, max(1e-6, height - h))
                score = clip(float(rng.normal(p.fp_score_mean, p.fp_score_std)))
                category = categories[int(rng.integers(len(categories)))]
                rows.append((x, y, w, h, category, score, img.id, index))
        out.append(rows)
    return out


def generate_reference(num_images, seed, num_categories=3, min_instances=1, max_instances=20,
                       crowd_fraction=0.0):
    """The seeded synthetic dataset with one scalar draw per value.

    Returns (images, instances, categories): an (id, height, width) tuple per
    480 x 640 image, an (x, y, w, h, category, iscrowd, id, image id) tuple
    per instance in id order, and the {id, name} category dicts. One
    `np.random.default_rng([seed, 0xDA7A])` draws, for each image in turn,
    its instance count in [min_instances, max_instances], then for each of
    its instances: log-uniform scale in [4, 640], log-uniform aspect in
    [1/2, 2], x and y uniform over the positions that keep the box inside
    the image (at least 1e-6 wide), category in [1, num_categories], and a
    crowd flag with probability crowd_fraction.
    """
    rng = np.random.default_rng([seed, 0xDA7A])
    height, width = 480, 640
    images, instances = [], []
    for image_id in range(1, num_images + 1):
        images.append((image_id, height, width))
        for _ in range(int(rng.integers(min_instances, max_instances + 1))):
            scale = math.exp(rng.uniform(math.log(4.0), math.log(640.0)))
            aspect = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            w, h = scale * math.sqrt(aspect), scale / math.sqrt(aspect)
            x = rng.uniform(0.0, max(1e-6, width - w))
            y = rng.uniform(0.0, max(1e-6, height - h))
            category = int(rng.integers(1, num_categories + 1))
            crowd = bool(rng.random() < crowd_fraction)
            instances.append((x, y, w, h, category, crowd, len(instances) + 1, image_id))
    categories = [{"id": c, "name": f"class_{c}"} for c in range(1, num_categories + 1)]
    return images, instances, categories
