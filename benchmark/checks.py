"""Correctness checks for the benchmark's outputs, computed apart from the program.

Every checker takes plain data (parsed JSON, CSV rows, detection lists) and
returns a list of problems; an empty list means the output passed. Metrics
are recomputed with the from-scratch references in `tests/oracles.py`, and
structural outputs are re-derived from their definitions, so no check
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import evaluate_reference, soft_nms_reference  # noqa: E402

TOLERANCE = 1e-9
METRIC_NAMES = ("ap", "ap50", "ap75", "ap_s", "ap_m", "ap_l", "ar")


def eval_settings(restriction: tuple[float, float] | None = None) -> SimpleNamespace:
    """The documented default metric settings, in the shape the reference reads."""
    return SimpleNamespace(
        iou_thresholds=tuple(round(0.5 + 0.05 * i, 2) for i in range(10)),
        recall_points=101,
        max_dets=100,
        scale_restriction=(
            None
            if restriction is None
            else SimpleNamespace(lower=restriction[0], upper=restriction[1])
        ),
        small_area=32.0**2,
        large_area=96.0**2,
    )


def _box(values) -> SimpleNamespace:
    x, y, w, h = (float(v) for v in values)
    return SimpleNamespace(x=x, y=y, w=w, h=h)


def instances_from_annotations(ann: dict) -> list[SimpleNamespace]:
    return [
        SimpleNamespace(
            bbox=_box(rec["bbox"]),
            category_id=rec["category_id"],
            iscrowd=bool(rec.get("iscrowd", 0)),
            id=rec["id"],
            image_id=rec["image_id"],
        )
        for rec in ann["annotations"]
    ]


def detections_from_records(records: list[dict]) -> list[SimpleNamespace]:
    return [
        SimpleNamespace(
            bbox=_box(rec["bbox"]),
            category_id=rec["category_id"],
            score=float(rec["score"]),
            image_id=rec["image_id"],
        )
        for rec in records
    ]


def compare_metrics(got: dict, want: dict, label: str) -> list[str]:
    """Headline and per-category metrics must agree to TOLERANCE."""
    problems = [
        f"{label}: {name} {got.get(name)!r} != reference {want[name]!r}"
        for name in METRIC_NAMES
        if not _close(got.get(name), want[name])
    ]
    got_cats = {int(k): v for k, v in got.get("per_category", {}).items()}
    if set(got_cats) != set(want["per_category"]):
        problems.append(f"{label}: categories {sorted(got_cats)} != {sorted(want['per_category'])}")
    else:
        problems.extend(
            f"{label}: category {cat} ap {got_cats[cat]!r} != reference {value!r}"
            for cat, value in want["per_category"].items()
            if not _close(got_cats[cat], value)
        )
    return problems


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= TOLERANCE


def check_eval(ann: dict, fused: list[dict], payload: dict, restriction=None) -> list[str]:
    """`scalenorm eval` output against the reference evaluation of the same files."""
    gts = instances_from_annotations(ann)
    dets = detections_from_records(fused)
    cats = [c["id"] for c in ann["categories"]]
    if restriction is None:
        want = evaluate_reference(gts, dets, eval_settings(), cats)
        return compare_metrics(payload["metrics"], want, "eval")
    problems = compare_metrics(
        payload["unrestricted"],
        evaluate_reference(gts, dets, eval_settings(), cats),
        "eval unrestricted",
    )
    problems += compare_metrics(
        payload["restricted"],
        evaluate_reference(gts, dets, eval_settings(restriction), cats),
        "eval restricted",
    )
    return problems


def check_eval_csv(payload: dict, rows: list[list[str]]) -> list[str]:
    """The CSV written next to a scale-range report carries the JSON's values."""
    want = {}
    for section in ("unrestricted", "restricted"):
        metrics = payload[section]
        for name in METRIC_NAMES:
            want[(f"{section}/all", name)] = metrics[name]
        for cat, value in metrics["per_category"].items():
            want[(f"{section}/{cat}", "ap")] = value
    if not rows or rows[0] != ["category", "metric", "value"]:
        return ["metrics csv: missing header"]
    got = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    return [] if got == want else ["metrics csv disagrees with the JSON report"]


def expected_partition(ann: dict, factor: float, window: tuple[float, float]):
    """Valid iff not crowd and factor * sqrt(w * h) lies in the closed window."""
    lo, hi = window
    valid, ignored = [], []
    for rec in ann["annotations"]:
        w, h = float(rec["bbox"][2]), float(rec["bbox"][3])
        keep = not rec.get("iscrowd", 0) and lo <= factor * math.sqrt(w * h) <= hi
        (valid if keep else ignored).append(rec["id"])
    return sorted(valid), sorted(ignored)


def check_partition(ann: dict, payload: dict, factors, window) -> list[str]:
    parts = payload["partitions"]
    if [p["scale_factor"] for p in parts] != list(factors):
        return [f"partition: factors {[p['scale_factor'] for p in parts]} != {list(factors)}"]
    problems = []
    for part in parts:
        valid, ignored = expected_partition(ann, part["scale_factor"], window)
        if part["valid_ids"] != valid or part["ignored_ids"] != ignored:
            problems.append(f"partition: factor {part['scale_factor']} ids differ")
        if (part["valid_count"], part["ignored_count"]) != (len(valid), len(ignored)):
            problems.append(f"partition: factor {part['scale_factor']} counts differ")
    return problems


def check_stage_hist(ann: dict, rows: list[list[str]], factors, window) -> list[str]:
    """Every valid (instance, resolution) pair lands in exactly one stage."""
    if not rows or rows[0] != ["level", "count"]:
        return ["stage-hist: missing header"]
    total = sum(int(r[1]) for r in rows[1:])
    pairs = sum(len(expected_partition(ann, f, window)[0]) for f in factors)
    return [] if total == pairs else [f"stage-hist: total {total} != valid pairs {pairs}"]


def fused_reference(stack, window, sigma: float, floor: float, top_k: int):
    """Gate, project, suppress per category with the reference Soft-NMS, cut to top_k.

    `stack` is [(factor, [(x, y, w, h, score, category, resolution_index)])] in
    resized coordinates. Returns [(score, category, x, y, w, h)] ordered by
    score, then box.
    """
    lo, hi = window
    pooled = []
    for factor, dets in stack:
        for x, y, w, h, score, cat, res in dets:
            if lo <= math.sqrt(w * h) <= hi:
                pooled.append((score, res, x / factor, y / factor, w / factor, h / factor, cat))
    # The documented candidate order: score desc, resolution asc, box, category.
    pooled.sort(key=lambda d: (-d[0], d[1], d[2], d[3], d[4], d[5], d[6]))
    out = []
    for cat in sorted({d[6] for d in pooled}):
        group = [d for d in pooled if d[6] == cat]
        boxes, scores = soft_nms_reference(
            [d[2:6] for d in group], [d[0] for d in group], "gaussian", sigma, 0.3, floor
        )
        out.extend((float(s), cat, *map(float, b)) for b, s in zip(boxes, scores))
    out.sort(key=lambda d: (-d[0], d[2], d[3], d[4], d[5], d[1]))
    return out[:top_k]


def check_fused(got, want) -> list[str]:
    """`got`, `want`: [(score, category, x, y, w, h)]; compared in the same order."""
    if len(got) != len(want):
        return [f"fusion: {len(got)} detections != reference {len(want)}"]
    key = lambda d: (-d[0], d[2], d[3], d[4], d[5], d[1])  # noqa: E731
    for k, (g, w) in enumerate(zip(sorted(got, key=key), want)):
        if g[1] != w[1] or any(abs(a - b) > TOLERANCE for a, b in zip(g[:1] + g[2:], w[:1] + w[2:])):
            return [f"fusion: detection {k} {g} != reference {w}"]
    if any(a[0] < b[0] for a, b in zip(got, got[1:])):
        return ["fusion: output not sorted by score"]
    return []


def _range_key(pair) -> tuple[float, float]:
    return float(pair[0]), math.inf if pair[1] is None else float(pair[1])


def replay_search(space: dict, ap_of: dict):
    """The documented alternating descent over a range -> AP lookup.

    Bounds only ever move inward. Returns (best range, ranges in first-probe
    order); raises KeyError when it needs a range the lookup lacks.
    """
    lows = [float(v) for v in space["lower_candidates"]]
    highs = [float(v) for v in space["upper_candidates"]]
    lower, upper = _range_key(space["initial"])
    probes: list[tuple[float, float]] = []

    def probe(lo, hi):
        if (lo, hi) not in probes:
            probes.append((lo, hi))
        return ap_of[(lo, hi)]

    while True:
        start = (lower, upper)
        best = None
        for cand in lows:
            if lower <= cand < upper:
                ap = probe(cand, upper)
                if best is None or ap > best:
                    best, lower = ap, cand
        best = None
        for cand in reversed(highs):
            if lower < cand <= upper:
                ap = probe(lower, cand)
                if best is None or ap > best:
                    best, upper = ap, cand
        if (lower, upper) == start:
            return (lower, upper), probes


def check_search(payload: dict, reference_ap) -> list[str]:
    """`scalenorm search --simulate` output.

    `reference_ap(lower, upper)` is the reference AP of that range's fused
    output. Checks: every probed AP matches it, no range is probed twice,
    the bounds only move inward, the probes follow the documented descent,
    and best_ap is the trace entry of the best range.
    """
    trace = [(_range_key(e["range"]), e["ap"]) for e in payload["trace"]]
    ranges = [r for r, _ in trace]
    problems = []
    if len(set(ranges)) != len(ranges):
        problems.append("search: a range was probed twice")
    for (lo, hi), ap in trace:
        want = reference_ap(lo, hi)
        if not _close(ap, want):
            problems.append(f"search: ap of [{lo}, {hi}] {ap!r} != reference {want!r}")
    best = _range_key(payload["best_range"])
    aps = dict(trace)
    if best not in aps or payload["best_ap"] != aps[best]:
        problems.append("search: best_ap is not the trace entry of best_range")
    lo0, hi0 = _range_key(payload["config"]["search"]["initial"])
    if any(lo < lo0 or hi > hi0 for lo, hi in ranges):
        problems.append("search: a probe lies outside the initial range")
    # The trace must be the probe sequence of the inward-only descent; a
    # program that moved a bound outward would probe a different sequence.
    try:
        want_best, want_probes = replay_search(payload["config"]["search"], aps)
    except KeyError as exc:
        return problems + [f"search: descent needs unprobed range {exc}"]
    if want_probes != ranges:
        problems.append("search: probe order differs from the inward-only descent")
    if want_best != best:
        problems.append(f"search: best range {best} != descent result {want_best}")
    return problems
