import math

import pytest

from scalenorm import (
    BBox,
    Detection,
    EvalConfig,
    EvaluationError,
    Instance,
    ScaleRange,
    ap_by_scale_report,
    evaluate,
)

from conftest import make_instance
from oracles import evaluate_reference


def detection_for(inst, score, jitter=0.0, category_id=None):
    b = inst.bbox
    return Detection(
        BBox(b.x + jitter, b.y + jitter, b.w, b.h),
        category_id if category_id is not None else inst.category_id,
        score,
        inst.image_id,
    )


class TestEvaluateBasics:
    def test_perfect_detector(self):
        gt = make_instance(100.0)
        result = evaluate([gt], [detection_for(gt, 0.7)])
        assert result.ap == 1.0
        assert result.ap50 == 1.0 and result.ap75 == 1.0
        assert result.ar == 1.0

    def test_missed_gt(self):
        result = evaluate([make_instance(100.0)], [])
        assert result.ap == 0.0
        assert result.ar == 0.0

    def test_spurious_after_full_recall_keeps_ap_one(self):
        gt = make_instance(100.0)
        tp = detection_for(gt, 0.9)
        fp = Detection(BBox(400, 400, 50, 50), 1, 0.5, 1)
        result = evaluate([gt], [tp, fp])
        ref = evaluate_reference([gt], [tp, fp], EvalConfig())
        assert result.ap == pytest.approx(ref["ap"], abs=1e-9)
        assert result.ap == 1.0

    def test_restriction_empties_gt(self):
        gt = make_instance(8.0)
        unrestricted, restricted = ap_by_scale_report(
            [gt], [], scale_range=ScaleRange(16.0, 560.0)
        )
        assert unrestricted.ap == 0.0
        assert restricted.ap == -1.0

    def test_unknown_category_raises(self):
        gt = make_instance(100.0)
        det = detection_for(gt, 0.9, category_id=7)
        with pytest.raises(EvaluationError):
            evaluate([gt], [det], categories=[1, 2])

    def test_missing_threshold_sentinels(self):
        gt = make_instance(100.0)
        cfg = EvalConfig(iou_thresholds=(0.6, 0.7))
        result = evaluate([gt], [detection_for(gt, 0.9)], cfg)
        assert result.ap50 == -1.0 and result.ap75 == -1.0


class TestIgnoreHandling:
    def test_crowd_absorbs_without_tp_or_fp(self):
        crowd = make_instance(100.0, iscrowd=True)
        real = make_instance(50.0, inst_id=2, x=300.0, y=300.0)
        dets = [
            detection_for(crowd, 0.95),  # absorbed, neither TP nor FP
            detection_for(real, 0.60),
        ]
        result = evaluate([crowd, real], dets)
        assert result.ap == 1.0

    def test_crowd_absorbs_multiple_detections(self):
        crowd = make_instance(100.0, iscrowd=True)
        real = make_instance(50.0, inst_id=2, x=300.0, y=300.0)
        dets = [
            detection_for(crowd, 0.95),
            detection_for(crowd, 0.90, jitter=0.5),  # IoU 0.98 vs crowd
            detection_for(real, 0.60),
        ]
        assert evaluate([crowd, real], dets).ap == 1.0

    def test_out_of_restriction_detection_discarded(self):
        gt = make_instance(100.0)
        stray = Detection(BBox(300, 300, 8, 8), 1, 0.99, 1)  # scale 8, discarded
        cfg = EvalConfig(scale_restriction=ScaleRange(16.0, 560.0))
        result = evaluate([gt], [detection_for(gt, 0.5), stray], cfg)
        assert result.ap == 1.0

    def test_single_bucket_sentinels(self):
        small_gt = make_instance(10.0)  # area 100 < 32^2
        result = evaluate([small_gt], [detection_for(small_gt, 0.9)])
        assert result.ap_s == 1.0
        assert result.ap_m == -1.0 and result.ap_l == -1.0


class TestApProperties:
    def test_duplicate_lower_score_never_raises_ap(self, rng):
        for _ in range(20):
            gts = [
                make_instance(float(rng.uniform(20, 200)), inst_id=i, x=float(i * 250))
                for i in range(1, 4)
            ]
            dets = [detection_for(g, float(rng.uniform(0.3, 1.0))) for g in gts]
            base = evaluate(gts, dets).ap
            dup = detection_for(gts[0], min(d.score for d in dets) * 0.5)
            with_dup = evaluate(gts, dets + [dup]).ap
            assert with_dup <= base + 1e-12

    def test_monotone_score_transform_invariance(self, rng):
        gts = [
            make_instance(float(rng.uniform(20, 200)), inst_id=i, x=float(i * 250))
            for i in range(1, 5)
        ]
        dets = [detection_for(g, float(rng.uniform(0.2, 0.8))) for g in gts]
        dets.append(Detection(BBox(900, 900, 40, 40), 1, 0.5, 1))
        base = evaluate(gts, dets)
        squashed = [
            Detection(d.bbox, d.category_id, d.score**2, d.image_id, d.resolution_index)
            for d in dets
        ]
        transformed = evaluate(gts, squashed)
        assert transformed.ap == pytest.approx(base.ap, abs=1e-12)
        assert transformed.ar == pytest.approx(base.ar, abs=1e-12)

    def test_restricted_at_least_unrestricted_when_errors_out_of_range(self, rng):
        # detector perfect inside [16, 560], blind outside
        window = ScaleRange(16.0, 560.0)
        gts, dets = [], []
        next_id = 1
        for img in range(1, 11):
            for scale in (8.0, 60.0, 240.0, 620.0):
                inst = make_instance(
                    scale, inst_id=next_id, image_id=img, x=float(next_id * 700 % 5000)
                )
                gts.append(inst)
                if window.contains(scale):
                    dets.append(detection_for(inst, float(rng.uniform(0.5, 1.0))))
                next_id += 1
        unrestricted, restricted = ap_by_scale_report(gts, dets, scale_range=window)
        assert restricted.ap == 1.0
        assert unrestricted.ap < 1.0

    def test_unbounded_restriction_is_identity(self, rng):
        gts = [
            make_instance(float(rng.uniform(10, 600)), inst_id=i, x=float(i * 31))
            for i in range(1, 8)
        ]
        dets = [detection_for(g, float(rng.uniform(0.2, 1.0)), jitter=1.0) for g in gts]
        unrestricted, restricted = ap_by_scale_report(
            gts, dets, scale_range=ScaleRange(0.0, math.inf)
        )
        assert unrestricted == restricted


def random_micro_case(rng, force_ties=False):
    n_images = int(rng.integers(1, 6))
    n_cats = int(rng.integers(1, 4))
    gts, dets = [], []
    next_id = 1
    for img in range(1, n_images + 1):
        n_boxes = int(rng.integers(0, 11))
        for _ in range(n_boxes):
            x = float(rng.uniform(0, 300))
            y = float(rng.uniform(0, 300))
            w = float(rng.uniform(2, 120))
            h = float(rng.uniform(2, 120))
            inst = Instance(
                BBox(x, y, w, h),
                int(rng.integers(1, n_cats + 1)),
                bool(rng.random() < 0.15),
                next_id,
                img,
            )
            gts.append(inst)
            next_id += 1
            for _ in range(int(rng.integers(0, 3))):
                jitter = float(rng.uniform(0, 0.4))
                score = 0.5 if force_ties else float(rng.uniform(0.01, 1.0))
                dets.append(
                    Detection(
                        BBox(
                            x + jitter * w,
                            y + jitter * h,
                            w * float(rng.uniform(0.7, 1.3)),
                            h * float(rng.uniform(0.7, 1.3)),
                        ),
                        int(rng.integers(1, n_cats + 1)),
                        score,
                        img,
                    )
                )
        for _ in range(int(rng.integers(0, 3))):  # pure noise
            dets.append(
                Detection(
                    BBox(
                        float(rng.uniform(0, 300)),
                        float(rng.uniform(0, 300)),
                        float(rng.uniform(2, 60)),
                        float(rng.uniform(2, 60)),
                    ),
                    int(rng.integers(1, n_cats + 1)),
                    0.5 if force_ties else float(rng.uniform(0.01, 1.0)),
                    img,
                )
            )
    restriction = None
    if rng.random() < 0.4:
        restriction = ScaleRange(float(rng.uniform(0, 30)), float(rng.uniform(60, 400)))
    cfg = EvalConfig(
        max_dets=int(rng.choice([1, 3, 100])),
        scale_restriction=restriction,
    )
    return gts, dets, cfg


def assert_matches_reference(gts, dets, cfg):
    result = evaluate(gts, dets, cfg)
    ref = evaluate_reference(gts, dets, cfg)
    for name in ("ap", "ap50", "ap75", "ap_s", "ap_m", "ap_l", "ar"):
        assert getattr(result, name) == pytest.approx(ref[name], abs=1e-9), name
    assert set(result.per_category) == set(ref["per_category"])
    for cat, value in ref["per_category"].items():
        assert result.per_category[cat] == pytest.approx(value, abs=1e-9)


class TestOracleAgreement:
    def test_random_micro_instances(self, rng):
        for _ in range(60):
            gts, dets, cfg = random_micro_case(rng)
            assert_matches_reference(gts, dets, cfg)

    def test_tied_scores_agree(self, rng):
        for _ in range(10):
            gts, dets, cfg = random_micro_case(rng, force_ties=True)
            assert_matches_reference(gts, dets, cfg)


class TestSerialization:
    def test_dict_round_trip(self):
        gt = make_instance(100.0)
        result = evaluate([gt], [detection_for(gt, 0.9)])
        from scalenorm.evaluation import EvalResult

        clone = EvalResult.from_dict(result.to_dict())
        assert clone == result

    def test_csv_layout(self, tmp_path):
        from scalenorm import dataio

        gt = make_instance(100.0)
        result = evaluate([gt], [detection_for(gt, 0.9)])
        path = tmp_path / "metrics.csv"
        dataio.write_csv(path, ("category", "metric", "value"), result.csv_rows())
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "category,metric,value"
        assert lines[1].startswith("all,ap,")
        assert lines[-1].startswith("1,ap,")


class TestEvalConfigValidation:
    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            EvalConfig(iou_thresholds=(0.9, 0.5))

    def test_bucket_edges(self):
        with pytest.raises(ValueError):
            EvalConfig(small_area=9216.0, large_area=1024.0)

    def test_bucket_assignment(self):
        cfg = EvalConfig()
        assert cfg.bucket_of(1023.9) == "small"
        assert cfg.bucket_of(1024.0) == "medium"
        assert cfg.bucket_of(9216.0) == "medium"
        assert cfg.bucket_of(9216.1) == "large"
