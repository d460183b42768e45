import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from scalenorm.evaluation import BUCKET_NAMES, _DetectionRows, _GroundTruth, _score
from scalenorm.geometry import _detection_table, iou_matrix

from conftest import corner_rows, make_instance
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

    def test_ground_truth_outside_the_vocabulary_raises(self):
        # The ground-truth index owns the rule, so a range-search probe follows it too.
        gts = [make_instance(100.0), make_instance(50.0, inst_id=2, category_id=2, x=200.0)]
        message = r"^ground-truth instance 2 has unknown category 2$"
        with pytest.raises(EvaluationError, match=message):
            evaluate(gts, [detection_for(gts[0], 0.9)], categories=[1])
        with pytest.raises(EvaluationError, match=message):
            _GroundTruth(gts, [1], EvalConfig())

    def test_ids_past_float64_are_rejected(self):
        # The float64 tables would read image 2**53 + 1 as 2**53 and match across the two.
        gt = Instance(BBox(10.0, 10.0, 50.0, 50.0), 1, id=5, image_id=2**53 + 1)
        det = Detection(gt.bbox, 1, 0.9, 2**53)
        with pytest.raises(ValueError) as caught:
            evaluate([gt], [det])
        assert str(caught.value) == (
            "ground-truth instance 5: image_id must be at most 2**53 in magnitude, "
            "got 9007199254740993")
        with pytest.raises(ValueError) as caught:
            evaluate([replace(gt, image_id=2**53)], [replace(det, image_id=2**53 + 1)])
        assert str(caught.value) == (
            "detection #0: image_id must be at most 2**53 in magnitude, got 9007199254740993")
        assert evaluate([replace(gt, image_id=2**53)], [det]).ap == 1.0

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

    def test_out_of_restriction_detection_does_not_use_up_max_dets(self):
        # The stray outranks the match but is discarded before the cut.
        gt = make_instance(100.0)
        stray = Detection(BBox(300, 300, 8, 8), 1, 0.99, 1)
        window = ScaleRange(16.0, 560.0)
        dets = [stray, detection_for(gt, 0.5)]
        cfg = EvalConfig(max_dets=1)
        assert evaluate([gt], dets, replace(cfg, scale_restriction=window)).ap == 1.0
        unrestricted, restricted = ap_by_scale_report([gt], dets, cfg, window)
        assert (unrestricted.ap, restricted.ap) == (0.0, 1.0)
        assert_matches_reference([gt], dets, replace(cfg, scale_restriction=window))

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


def assert_matches_reference(gts, dets, cfg, categories=None):
    result = evaluate(gts, dets, cfg, categories)
    ref = evaluate_reference(gts, dets, cfg, categories)
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

    def test_vocabulary_category_without_records(self, rng):
        """A vocabulary category with neither ground truth nor detections
        reads -1 and moves no headline metric."""
        for _ in range(20):
            gts, dets, cfg = random_micro_case(rng)
            seen = {g.category_id for g in gts} | {d.category_id for d in dets}
            vocab = sorted(seen) + [max(seen, default=0) + 1]
            result = evaluate(gts, dets, cfg, vocab)
            assert result.per_category[vocab[-1]] == -1.0
            alone = evaluate(gts, dets, cfg)
            assert replace(result, per_category={}) == replace(alone, per_category={})
            assert_matches_reference(gts, dets, cfg, vocab)


class TestSerialization:
    def test_dict_round_trip(self, tmp_path):
        from scalenorm import dataio

        gt = make_instance(100.0)
        result = evaluate([gt], [detection_for(gt, 0.9)])
        path = tmp_path / "table.json"
        dataio.write_json(path, [{"range": [16, None], **result.to_dict()}])
        assert dataio.load_oracle_table(path) == {(16.0, math.inf): result}

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
        assert BUCKET_NAMES[cfg._bucket(1023.9)] == "small"
        assert BUCKET_NAMES[cfg._bucket(1024.0)] == "medium"
        assert BUCKET_NAMES[cfg._bucket(9216.0)] == "medium"
        assert BUCKET_NAMES[cfg._bucket(9216.1)] == "large"


def box_det(x, y, w, h, score, image_id=1, category_id=1):
    return Detection(BBox(x, y, w, h), category_id, score, image_id)


def box_gt(x, y, w, h, inst_id, image_id=1, iscrowd=False, category_id=1):
    return Instance(BBox(x, y, w, h), category_id, iscrowd, inst_id, image_id)


class TestScoreMemo:
    def test_memo_tells_rows_and_scores_apart(self):
        """A range-search probe hands `_score` a category's rows image by image,
        so its AP depends on which rows it has and on the scores that
        interleave the images; the memo keys by both."""
        gts = [box_gt(0, 0, 50, 50, 1, image_id=1), box_gt(0, 0, 50, 50, 2, image_id=2)]
        # A hit on image 1, a miss and a hit on image 2.
        dets = [box_det(0, 0, 50, 50, 0.5, image_id=1), box_det(200, 200, 50, 50, 0.5, image_id=2),
                box_det(0, 0, 50, 50, 0.5, image_id=2)]
        cfg = EvalConfig()
        truth = _GroundTruth(gts, [1], cfg)
        rows = _DetectionRows(_detection_table(dets), truth, cfg)
        memo = {}
        # The hit first, then the miss first on the same rows, then two hits on those scores.
        for ids, scores in (([0, 1], [0.9, 0.8]), ([0, 1], [0.8, 0.9]), ([0, 2], [0.8, 0.9])):
            want = evaluate(gts, [replace(dets[i], score=v) for i, v in zip(ids, scores)], cfg, [1])
            assert _score(truth, rows, np.array(ids), np.array(scores), cfg, memo) == want
        assert len(memo) == 3


class TestLaneEdgeCases:
    """Cases where the per-threshold lanes of one (category, bucket) differ,
    or where ignored detections sit in the ranking; each checked against the
    reference."""

    def test_every_detection_absorbed(self):
        crowd = box_gt(0, 0, 100, 100, 1, iscrowd=True)
        large = box_gt(300, 300, 120, 120, 2)  # large bucket: ignored in "small"
        small = box_gt(600, 600, 20, 20, 3)  # the only small positive, missed
        dets = [
            box_det(0, 0, 100, 100, 0.9),
            box_det(2, 2, 100, 100, 0.8),
            box_det(300, 300, 120, 120, 0.7),
        ]
        cfg = EvalConfig()
        result = evaluate([crowd, large, small], dets, cfg)
        assert result.ap_s == 0.0
        assert_matches_reference([crowd, large, small], dets, cfg)
        only_crowd = evaluate([crowd, small], dets[:2], cfg)
        assert only_crowd.ap == 0.0 and only_crowd.ar == 0.0
        assert_matches_reference([crowd, small], dets[:2], cfg)

    def test_ignored_detections_ranked_first(self):
        crowd = box_gt(0, 0, 100, 100, 1, iscrowd=True)
        real = box_gt(400, 400, 50, 50, 2)
        dets = [
            box_det(0, 0, 100, 100, 0.99),
            box_det(1, 1, 100, 100, 0.95),
            box_det(400, 400, 50, 50, 0.5),
        ]
        result = evaluate([crowd, real], dets)
        assert result.ap == 1.0 and result.ar == 1.0  # the recall-0 sample reads 1
        assert_matches_reference([crowd, real], dets, EvalConfig())

    def test_unit_without_candidates_beside_matched_units(self):
        gts = [box_gt(0, 0, 80, 80, i, image_id=i) for i in (1, 2, 3)]
        dets = [
            box_det(0, 0, 80, 80, 0.9, image_id=1),
            box_det(300, 300, 80, 80, 0.8, image_id=2),  # no IoU >= 0.5 in its unit
            box_det(50, 50, 80, 80, 0.7, image_id=2),
            box_det(4, 4, 80, 80, 0.6, image_id=3),
        ]
        result = evaluate(gts, dets)
        assert 0.0 < result.ap < 1.0
        assert_matches_reference(gts, dets, EvalConfig())

    def test_lanes_disagree_between_thresholds(self):
        gt = box_gt(0, 0, 100, 100, 1)
        loose = box_det(0, 0, 100, 72, 0.9)  # IoU 0.72
        tight = box_det(0, 0, 100, 90, 0.8)  # IoU 0.90
        result = evaluate([gt], [loose, tight])
        # 0.50-0.70: loose is the TP (AP 1); 0.75-0.90: tight is (AP 0.5); 0.95: none.
        assert result.ap50 == 1.0 and result.ap75 == 0.5
        assert result.ap == pytest.approx((5 * 1.0 + 4 * 0.5) / 10, abs=1e-12)
        assert_matches_reference([gt], [loose, tight], EvalConfig())

    @pytest.mark.parametrize("height, lanes_matched", [(50.0, 1), (75.0, 6)])
    def test_iou_equal_to_a_threshold_matches(self, height, lanes_matched):
        gt = box_gt(0, 0, 100, 100, 1)
        det = box_det(0, 0, 100, height, 0.9)  # IoU exactly height / 100
        result = evaluate([gt], [det])
        assert result.ap == pytest.approx(lanes_matched / 10, abs=1e-12)
        assert result.ar == pytest.approx(lanes_matched / 10, abs=1e-12)
        assert_matches_reference([gt], [det], EvalConfig())

    def test_max_dets_one(self):
        gts = [box_gt(0, 0, 60, 60, 1), box_gt(200, 200, 60, 60, 2, image_id=2)]
        dets = [
            box_det(400, 400, 60, 60, 0.9),  # the only one kept in image 1: a FP
            box_det(0, 0, 60, 60, 0.5),
            box_det(200, 200, 60, 60, 0.8, image_id=2),
            box_det(201, 201, 60, 60, 0.7, image_id=2),
        ]
        cfg = EvalConfig(max_dets=1)
        result = evaluate(gts, dets, cfg)
        assert result.ar == 0.5
        assert_matches_reference(gts, dets, cfg)

    def test_bucket_without_positives_is_sentinel(self):
        gt = box_gt(0, 0, 50, 50, 1)  # medium
        dets = [box_det(0, 0, 50, 50, 0.9), box_det(300, 300, 10, 10, 0.8),
                box_det(500, 500, 200, 200, 0.7)]
        result = evaluate([gt], dets)
        assert result.ap_s == -1.0 and result.ap_l == -1.0
        assert result.ap_m == 1.0
        assert_matches_reference([gt], dets, EvalConfig())


class TestPycocotoolsDifferences:
    """Deliberate differences from pycocotools `COCOeval.evaluateImg`."""

    def test_buckets_use_bbox_area(self):
        # pycocotools buckets by the annotation's (segment) area; here only the
        # box exists, so a 33 x 33 box is medium whatever its mask would be.
        gt = box_gt(0, 0, 33, 33, 1)
        result = evaluate([gt], [box_det(0, 0, 33, 33, 0.9)])
        assert result.ap_m == 1.0 and result.ap_s == -1.0
        # Bucket edges: small is area < 32^2 and medium is area <= 96^2, so
        # a box of exactly 32^2 is medium only (pycocotools counts it in both).
        edge = box_gt(0, 0, 32, 32, 1)
        result = evaluate([edge], [box_det(0, 0, 32, 32, 0.9)])
        assert result.ap_m == 1.0 and result.ap_s == -1.0

    @pytest.mark.parametrize("first_is_left, ap50", [(True, 51 / 101), (False, 1.0)])
    def test_exact_iou_tie_goes_to_the_earliest_gt(self, first_is_left, ap50):
        left = box_gt(30, 0, 100, 100, 1)
        right = box_gt(50, 0, 100, 100, 2)
        gts = [left, right] if first_is_left else [right, left]
        dets = [
            box_det(40, 0, 100, 100, 0.9),  # IoU 9/11 with both: an exact tie
            box_det(0, 0, 100, 100, 0.8),  # IoU 7/13 with left, 1/3 with right
        ]
        # Left first: the tie takes left and the second detection is a FP.
        # pycocotools gives the tie to the later GT and scores 1.0 both ways.
        cfg = EvalConfig(iou_thresholds=(0.5,))
        result = evaluate(gts, dets, cfg)
        assert result.ap50 == pytest.approx(ap50, abs=1e-12)
        assert_matches_reference(gts, dets, cfg)

    def test_threshold_one_is_not_clamped(self):
        # pycocotools matches at min(t, 1 - 1e-10); here t = 1.0 needs IoU 1.0.
        gt = box_gt(0, 0, 100, 100, 1)
        cfg = EvalConfig(iou_thresholds=(1.0,))
        near = box_det(0, 0, 100, 100 - 1e-9, 0.9)
        assert 1 - 1e-10 < iou_matrix(corner_rows(near.bbox), corner_rows(gt.bbox))[0, 0] < 1.0
        assert evaluate([gt], [near], cfg).ap == 0.0
        assert evaluate([gt], [box_det(0, 0, 100, 100, 0.9)], cfg).ap == 1.0
        assert_matches_reference([gt], [near], cfg)


def _boxes(draw, count, span=60.0):
    # Coarse coordinates on a small canvas: overlaps, exact IoU ties and
    # duplicate boxes are common.
    coord = st.integers(0, int(span)).map(float)
    size = st.integers(2, int(span)).map(float)
    return [BBox(draw(coord), draw(coord), draw(size), draw(size)) for _ in range(count)]


# The default set; one threshold; a set ending at 1.0; and sets of IoUs that
# the boxes of `_exact_iou_box` produce exactly.
THRESHOLD_SETS = st.sampled_from((
    EvalConfig().iou_thresholds, (0.5,), (0.7,), (0.5, 0.75, 1.0), (1 / 3, 0.5),
    (0.25, 0.5, 0.75),
))


def _exact_iou_box(draw, box):
    """A box whose IoU with `box` (integer coordinates) is exactly 1, 3/4,
    1/2, 1/4 (narrowed from the right) or 1/3 (shifted right by half its width)."""
    f = draw(st.sampled_from((1.0, 0.75, 0.5, 0.25, "shift")))
    if f == "shift":
        return BBox(box.x + box.w / 2, box.y, box.w, box.h)
    return BBox(box.x, box.y, box.w * f, box.h)


@st.composite
def eval_cases(draw, distinct_scores=False):
    n_images = draw(st.integers(1, 3))
    gts, dets = [], []
    for img in range(1, n_images + 1):
        for box in _boxes(draw, draw(st.integers(0, 4))):
            crowd = draw(st.booleans()) and draw(st.booleans())  # about one in four
            gts.append(Instance(box, draw(st.integers(1, 2)), crowd, len(gts) + 1, img))
        boxes = _boxes(draw, draw(st.integers(0, 5)))
        image_gts = [g.bbox for g in gts if g.image_id == img]
        if image_gts:
            boxes += [_exact_iou_box(draw, draw(st.sampled_from(image_gts)))
                      for _ in range(draw(st.integers(0, 2)))]
        for box in boxes:
            dets.append(Detection(box, draw(st.integers(1, 2)), 0.0, img))
    if distinct_scores:
        ranks = draw(st.permutations(range(len(dets))))
        scores = [(r + 1) / (len(dets) + 1) for r in ranks]
    else:
        scores = [draw(st.sampled_from((0.2, 0.5, 0.9))) for _ in dets]
    dets = [replace(d, score=s) for d, s in zip(dets, scores)]
    restriction = draw(st.sampled_from((None, ScaleRange(8.0, 40.0), ScaleRange(0.0, 25.0))))
    cfg = EvalConfig(
        iou_thresholds=draw(THRESHOLD_SETS),
        recall_points=draw(st.sampled_from((2, 11, 101))),
        max_dets=draw(st.sampled_from((1, 2, 100))),
        scale_restriction=restriction,
        small_area=draw(st.sampled_from((32.0**2, 20.0**2))),
        large_area=draw(st.sampled_from((96.0**2, 40.0**2))),
    )
    return gts, dets, cfg


class TestEvaluateProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(eval_cases())
    def test_agrees_with_reference(self, case):
        assert_matches_reference(*case)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(eval_cases(distinct_scores=True), st.randoms(use_true_random=False))
    def test_detection_order_irrelevant_with_distinct_scores(self, case, random):
        gts, dets, cfg = case
        shuffled = list(dets)
        random.shuffle(shuffled)
        assert evaluate(gts, shuffled, cfg) == evaluate(gts, dets, cfg)
