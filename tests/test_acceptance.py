"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its wall-clock budget (run with -s to stream)."""

from __future__ import annotations

import json
import math
import time

import numpy as np

from scalenorm import (
    ApOracle,
    BBox,
    DEFAULT_SNIP_TABLE,
    Detection,
    DetectorProfile,
    IsnPolicy,
    PyramidSpec,
    ScaleRange,
    SearchSpace,
    SnipPolicy,
    SoftNmsConfig,
    consistency_overlap,
    evaluate,
    ap_by_scale_report,
    generate_dataset,
    greedy_range_search,
    isn_partition,
    resized_scale_distributions,
    simulate_detections,
    snip_partition,
    soft_nms,
    stage_histogram,
    strategy_detections,
)
from scalenorm.cli import main as cli_main

from conftest import RANGE_AP_TABLE, make_instance
from oracles import classic_nms, evaluate_reference, soft_nms_reference
from test_evaluation import random_micro_case

PYRAMID = PyramidSpec((4.0, 2.0, 1.0, 0.5, 0.25))
WINDOW = ScaleRange(16.0, 560.0)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {status} {self.name} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None and elapsed > self.seconds:
            raise AssertionError(
                f"{self.name}: exceeded time budget ({elapsed:.2f}s > {self.seconds}s)"
            )


def test_criterion_1_greedy_search_reproduction():
    with _Budget("1 greedy-search reproduction", 1.0):
        best, trace = greedy_range_search(SearchSpace(), ApOracle.from_table(RANGE_AP_TABLE))
        assert (best.lower, best.upper) == (16.0, 560.0)
        aps = {(r.lower, r.upper): ap for r, ap in trace}
        assert aps[(16.0, 560.0)] == 38.7
        probed = [(r.lower, r.upper) for r, _ in trace]
        assert len(probed) == 7 and len(set(probed)) == 7
        assert set(probed) == set(RANGE_AP_TABLE)


def test_criterion_2_published_partition_decisions():
    with _Budget("2 per-resolution partition decisions", 1.0):
        man = make_instance(73.0)
        woman = make_instance(107.0)
        assert snip_partition([man], 0, DEFAULT_SNIP_TABLE).valid == [man]
        assert snip_partition([woman], 1, DEFAULT_SNIP_TABLE).ignored == [woman]


def test_criterion_3_label_consistency_and_overlap():
    with _Budget("3 consistency property and overlap", 5.0):
        rng = np.random.default_rng(31)
        # 1e5 (instance, factor) pairs engineered so resized scales collide
        # bit-exactly across the five power-of-two factors
        targets = rng.integers(2, 1200, size=20_000)
        labels = {}
        for factor in PYRAMID:
            insts = [
                make_instance(float(m) / factor, inst_id=i)
                for i, m in enumerate(targets, start=1)
            ]
            part = isn_partition(insts, factor, WINDOW)
            valid = {i.id for i in part.valid}
            for i, m in enumerate(targets, start=1):
                labels.setdefault((i, int(m)), set()).add(i in valid)
        assert all(len(seen) == 1 for seen in labels.values())

        population = [
            make_instance(float(s), inst_id=i)
            for i, s in enumerate(
                np.exp(rng.uniform(np.log(1.0), np.log(700.0), 20_000)), start=1
            )
        ]
        trained, ignored = resized_scale_distributions(
            population, IsnPolicy(PYRAMID, WINDOW)
        )
        assert consistency_overlap(trained, ignored) == 0.0

        lognormal = [
            make_instance(float(np.clip(s, 2.0, 1500.0)), inst_id=i)
            for i, s in enumerate(
                rng.lognormal(mean=np.log(60.0), sigma=1.0, size=10_000), start=1
            )
        ]
        trained, ignored = resized_scale_distributions(
            lognormal, SnipPolicy(DEFAULT_SNIP_TABLE), {1: (480, 640)}
        )
        assert consistency_overlap(trained, ignored) > 0.05


def test_criterion_4_suppression_oracle_equivalence():
    with _Budget("4 suppression oracle equivalence", 10.0):
        rng = np.random.default_rng(41)
        for case in range(1000):
            n = int(rng.integers(1, 201))
            xy = rng.uniform(0.0, 400.0, (n, 2))
            wh = rng.uniform(1.0, 200.0, (n, 2))
            boxes = [
                BBox(float(x), float(y), float(w), float(h))
                for (x, y), (w, h) in zip(xy, wh)
            ]
            scores = [float(s) for s in rng.uniform(0.05, 1.0, n)]
            dets = [Detection(b, 1, s, 1) for b, s in zip(boxes, scores)]
            method = ("gaussian", "linear", "hard")[case % 3]
            cfg = SoftNmsConfig(method=method, sigma=0.5, iou_threshold=0.4)
            got = soft_nms(dets, cfg)
            if method == "hard":
                keep = classic_nms(
                    [(b.x, b.y, b.w, b.h) for b in boxes], scores, cfg.iou_threshold
                )
                want = sorted(
                    ((scores[i], boxes[i].x, boxes[i].y) for i in keep),
                    key=lambda row: -row[0],
                )
            else:
                ref_boxes, ref_scores = soft_nms_reference(
                    [(b.x, b.y, b.w, b.h) for b in boxes],
                    scores,
                    method,
                    cfg.sigma,
                    cfg.iou_threshold,
                    cfg.score_floor,
                )
                want = sorted(
                    zip(ref_scores, ref_boxes[:, 0], ref_boxes[:, 1]),
                    key=lambda row: -row[0],
                )
            assert len(got) == len(want)
            for d, (score, x, y) in zip(got, want):
                assert abs(d.score - score) <= 1e-9
                assert d.bbox.x == x and d.bbox.y == y


def test_criterion_5_ap_oracle_equivalence():
    with _Budget("5 AP oracle equivalence", 30.0):
        rng = np.random.default_rng(51)
        for _ in range(500):
            gts, dets, cfg = random_micro_case(rng)
            result = evaluate(gts, dets, cfg)
            ref = evaluate_reference(gts, dets, cfg)
            for name in ("ap", "ap50", "ap75", "ap_s", "ap_m", "ap_l", "ar"):
                assert abs(getattr(result, name) - ref[name]) <= 1e-9, name
            for cat, value in ref["per_category"].items():
                assert abs(result.per_category[cat] - value) <= 1e-9


def test_criterion_6_end_to_end_strategy_ordering():
    with _Budget("6 end-to-end strategy ordering", 60.0):
        isn_wins = 0
        for seed in range(10):
            dataset = generate_dataset(200, seed)
            profile = DetectorProfile(seed=seed)
            per_res = simulate_detections(dataset, PYRAMID, profile)
            image_ids = sorted(img.id for img in dataset.images)
            cats = dataset.category_ids()
            isn = strategy_detections(per_res, image_ids, WINDOW, "isn")
            naive = strategy_detections(per_res, image_ids, WINDOW, "naive_ms")
            unrestricted, restricted = ap_by_scale_report(
                dataset.instances, isn, None, WINDOW, cats
            )
            naive_result = evaluate(dataset.instances, naive, categories=cats)
            if unrestricted.ap >= naive_result.ap:
                isn_wins += 1
            assert restricted.ap >= unrestricted.ap, f"seed {seed}"
        assert isn_wins >= 9, f"gated fusion won only {isn_wins}/10 seeds"


def test_criterion_7_monotone_stage_shrinkage():
    with _Budget("7 monotone stage shrinkage", 5.0):
        rng = np.random.default_rng(71)
        insts = [
            make_instance(float(s), inst_id=i)
            for i, s in enumerate(
                np.exp(rng.uniform(np.log(4.0), np.log(640.0), 1000)), start=1
            )
        ]
        wide = stage_histogram(insts, PYRAMID, ScaleRange(0.0, 640.0))
        mid = stage_histogram(insts, PYRAMID, WINDOW)
        narrow = stage_histogram(insts, PYRAMID, ScaleRange(16.0, 496.0))
        for level in wide:
            assert wide[level] >= mid[level] >= narrow[level]
        from scalenorm.geometry import instance_scale

        has_band_pair = any(
            496.0 < instance_scale(inst.bbox, f) <= 560.0
            for inst in insts
            for f in PYRAMID
        )
        assert has_band_pair
        assert narrow[5] < mid[5]


def test_criterion_8_pipeline_determinism(tmp_path):
    with _Budget("8 pipeline determinism", 60.0):
        digests = []
        for label in ("first", "second"):
            base = tmp_path / label
            ann = base / "annotations.json"
            dets = base / "detections.json"
            fused = base / "fused.json"
            metrics = base / "metrics.json"
            hist = base / "hist.csv"
            table = base / "table.json"
            search_out = base / "search.json"
            assert cli_main(
                ["simulate", "--images", "40", "--seed", "17",
                 "--out", str(ann), "--out-dets", str(dets)]
            ) == 0
            assert cli_main(
                ["fuse", "--dets", str(dets), "--out", str(fused)]
            ) == 0
            assert cli_main(
                ["eval", "--annotations", str(ann), "--dets", str(fused),
                 "--scale-range", "16,560", "--out", str(metrics)]
            ) == 0
            assert cli_main(
                ["stage-hist", "--annotations", str(ann), "--out", str(hist)]
            ) == 0
            table.parent.mkdir(parents=True, exist_ok=True)
            table.write_text(
                json.dumps(
                    [
                        {"range": [lo, None if math.isinf(hi) else hi], "ap": ap}
                        for (lo, hi), ap in RANGE_AP_TABLE.items()
                    ]
                )
            )
            assert cli_main(["search", "--table", str(table), "--out", str(search_out)]) == 0
            digests.append(
                [p.read_bytes() for p in (ann, dets, fused, metrics, hist, search_out)]
            )
        assert digests[0] == digests[1]
