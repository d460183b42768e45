import math
from dataclasses import replace

import numpy as np
import pytest

from scalenorm import (
    BBox,
    Detection,
    ScaleRange,
    SoftNmsConfig,
    UNBOUNDED_RANGE,
    fuse_multiscale,
    gate_predictions,
    project_box,
    soft_nms,
)
from scalenorm import fusion

from conftest import assert_as_constructed, make_detection, random_box
from oracles import classic_nms, soft_nms_reference

RANGE = ScaleRange(16.0, 560.0)
POWER_OF_TWO_FACTORS = (4.0, 2.0, 1.0, 0.5, 0.25)


def det_of_scale(scale, score, x=0.0, y=0.0, category_id=1, resolution_index=0):
    return Detection(BBox(x, y, scale, scale), category_id, score, 1, resolution_index)


class TestGatePredictions:
    def test_kept_and_projected(self):
        det = det_of_scale(70.0, 0.9, x=10.0, y=20.0)
        (kept,) = gate_predictions([det], 2.0, RANGE)
        assert kept.bbox == BBox(5.0, 10.0, 35.0, 35.0)
        assert kept.score == det.score

    def test_below_range_dropped(self):
        det = det_of_scale(8.0, 0.9)
        for factor in (0.25, 1.0, 4.0):
            assert gate_predictions([det], factor, RANGE) == []

    def test_above_range_dropped(self):
        assert gate_predictions([det_of_scale(600.0, 0.9)], 1.0, RANGE) == []

    def test_order_preserved(self):
        dets = [det_of_scale(30.0 + i, 0.5, x=float(i)) for i in range(10)]
        kept = gate_predictions(dets, 1.0, RANGE)
        assert [d.bbox.x for d in kept] == [d.bbox.x for d in dets]

    def test_filter_idempotent_at_unit_factor(self, rng):
        dets = [
            make_detection(random_box(rng, 300.0), float(rng.uniform(0.1, 1.0)))
            for _ in range(50)
        ]
        once = gate_predictions(dets, 1.0, RANGE)
        twice = gate_predictions(once, 1.0, RANGE)
        assert twice == once

    @pytest.mark.filterwarnings("error")
    def test_projection_faults_are_named(self):
        good = Detection(BBox(10, 10, 100, 100), 1, 0.8, 1, 0)
        tiny = Detection(BBox(0, 0, 5e-324, 10), 1, 0.9, 1, 1)
        with pytest.raises(ValueError) as err:
            gate_predictions([good, tiny], 4.0, UNBOUNDED_RANGE)
        assert str(err.value) == "detection #1 at scale factor 4.0: degenerate box: w=0.0, h=2.5"
        huge = Detection(BBox(1e308, 0, 1e308, 10), 1, 0.9, 1, 0)
        with pytest.raises(ValueError) as err:
            gate_predictions([huge], 0.25, UNBOUNDED_RANGE)
        assert str(err.value) == (
            "detection #0 at scale factor 0.25: non-finite box: BBox(x=inf, y=0.0, w=inf, h=40.0)")

    def test_records_are_as_constructed(self, rng):
        dets = [make_detection(random_box(rng, 300.0), float(rng.uniform(0.1, 1.0)),
                               int(rng.integers(1, 4)), int(rng.integers(1, 3)), 2)
                for _ in range(50)]
        kept = gate_predictions(dets, 4.0, RANGE)
        assert kept
        assert_as_constructed(kept)


class TestSoftNms:
    def test_gaussian_decay_of_duplicate(self):
        a = det_of_scale(50.0, 0.9)
        b = det_of_scale(50.0, 0.8)
        out = soft_nms([a, b], SoftNmsConfig(method="gaussian", sigma=0.5))
        assert [d.score for d in out] == [0.9, pytest.approx(0.8 * math.exp(-2.0))]
        assert out[1].score == pytest.approx(0.10827, abs=5e-6)

    def test_integer_boxes_and_scores_are_numbers(self):
        # Every value an integer: the detection table is still float64.
        dets = [Detection(BBox(0, 0, 10, 10), 1, 1, 1, 0), Detection(BBox(20, 0, 10, 10), 1, 0, 1, 0)]
        assert soft_nms(dets) == dets[:1]  # the score-0 detection is under the floor

    def test_disjoint_unchanged(self):
        a = det_of_scale(50.0, 0.9)
        b = det_of_scale(50.0, 0.8, x=500.0)
        out = soft_nms([a, b])
        assert sorted(d.score for d in out) == [0.8, 0.9]

    def test_single_detection_identity(self):
        det = det_of_scale(50.0, 0.7)
        assert soft_nms([det]) == [det]

    def test_empty_input(self):
        assert soft_nms([]) == []

    def test_never_increases_scores_and_top_survives(self, rng):
        for _ in range(20):
            dets = [
                make_detection(random_box(rng), float(rng.uniform(0.05, 1.0)))
                for _ in range(30)
            ]
            out = soft_nms(dets)
            best_in = max(dets, key=lambda d: d.score)
            assert out[0].score == best_in.score
            by_box = {(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h): d.score for d in dets}
            for d in out:
                assert d.score <= by_box[(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h)] + 1e-12

    def test_categories_suppressed_independently(self):
        a = det_of_scale(50.0, 0.9, category_id=1)
        b = det_of_scale(50.0, 0.8, category_id=2)
        out = soft_nms([a, b])
        assert sorted(d.score for d in out) == [0.8, 0.9]

    def test_hard_mode_equals_classic_nms(self, rng):
        cfg = SoftNmsConfig(method="hard", iou_threshold=0.5, score_floor=0.001)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            boxes = [random_box(rng) for _ in range(n)]
            scores = [float(rng.uniform(0.05, 1.0)) for _ in range(n)]
            dets = [make_detection(b, s) for b, s in zip(boxes, scores)]
            keep = classic_nms(
                [(b.x, b.y, b.w, b.h) for b in boxes], scores, cfg.iou_threshold
            )
            expected = sorted(
                ((boxes[i].x, boxes[i].y, scores[i]) for i in keep),
                key=lambda row: -row[2],
            )
            got = [(d.bbox.x, d.bbox.y, d.score) for d in soft_nms(dets, cfg)]
            assert got == expected

    @pytest.mark.parametrize("method", ["gaussian", "linear"])
    def test_soft_modes_match_reference(self, rng, method):
        cfg = SoftNmsConfig(method=method, sigma=0.5, iou_threshold=0.3)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            boxes = [random_box(rng) for _ in range(n)]
            scores = [float(rng.uniform(0.05, 1.0)) for _ in range(n)]
            dets = [make_detection(b, s) for b, s in zip(boxes, scores)]
            ref_boxes, ref_scores = soft_nms_reference(
                [(b.x, b.y, b.w, b.h) for b in boxes],
                scores,
                method,
                cfg.sigma,
                cfg.iou_threshold,
                cfg.score_floor,
            )
            got = soft_nms(dets, cfg)
            assert len(got) == len(ref_scores)
            want = sorted(
                zip(ref_scores, ref_boxes[:, 0], ref_boxes[:, 1]),
                key=lambda row: -row[0],
            )
            for d, (score, x, y) in zip(got, want):
                assert d.score == pytest.approx(score, abs=1e-9)
                assert (d.bbox.x, d.bbox.y) == (x, y)

    @pytest.mark.parametrize("method", ["gaussian", "linear", "hard"])
    def test_blocks_either_side_of_the_list_loop_cut_match_the_references(
        self, rng, method, monkeypatch
    ):
        # A block of _SMALL_BLOCK rows runs the list loop, one more row the
        # array loop; both agree with the references as criterion 4 checks.
        ran = []
        for name in ("_greedy_lists", "_greedy_arrays"):
            def counted(*args, _fn=getattr(fusion, name), _name=name):
                ran.append(_name)
                return _fn(*args)
            monkeypatch.setattr(fusion, name, counted)
        cfg = SoftNmsConfig(method=method, sigma=0.5, iou_threshold=0.4)
        for n, loop in ((fusion._SMALL_BLOCK, "_greedy_lists"),
                        (fusion._SMALL_BLOCK + 1, "_greedy_arrays")):
            for _ in range(3):
                boxes = [random_box(rng, span=400.0) for _ in range(n)]
                scores = [float(s) for s in rng.uniform(0.05, 1.0, n)]
                ran.clear()
                got = soft_nms([make_detection(b, s) for b, s in zip(boxes, scores)], cfg)
                assert ran == [loop]
                xywh = [(b.x, b.y, b.w, b.h) for b in boxes]
                if method == "hard":
                    keep = classic_nms(xywh, scores, cfg.iou_threshold)
                    want = [(scores[i], boxes[i].x, boxes[i].y) for i in keep]
                else:
                    ref_boxes, ref_scores = soft_nms_reference(
                        xywh, scores, method, cfg.sigma, cfg.iou_threshold, cfg.score_floor
                    )
                    want = list(zip(ref_scores, ref_boxes[:, 0], ref_boxes[:, 1]))
                want.sort(key=lambda row: -row[0])
                assert len(got) == len(want)
                for d, (score, x, y) in zip(got, want):
                    assert abs(d.score - score) <= 1e-9
                    assert (d.bbox.x, d.bbox.y) == (x, y)


class TestFuseMultiscale:
    def test_single_resolution_unbounded_equals_soft_nms(self, rng):
        dets = [
            make_detection(random_box(rng), float(rng.uniform(0.05, 1.0)), resolution_index=0)
            for _ in range(40)
        ]
        fused = fuse_multiscale([(1.0, dets)], UNBOUNDED_RANGE, top_k=None)
        assert fused == soft_nms(gate_predictions(dets, 1.0, UNBOUNDED_RANGE))

    def test_duplicate_across_resolutions_decayed(self):
        # same object seen at unit scale (scale 70) and at 2x (scale 140)
        low = Detection(BBox(10, 10, 70, 70), 1, 0.90, 1, 0)
        high = Detection(BBox(20, 20, 140, 140), 1, 0.85, 1, 1)
        fused = fuse_multiscale([(1.0, [low]), (2.0, [high])], RANGE)
        assert [d.score for d in fused] == [
            0.90,
            pytest.approx(0.85 * math.exp(-2.0), abs=1e-12),
        ]
        assert fused[0].bbox == fused[1].bbox

    def test_tiny_object_recovered_from_upscaled_resolution(self):
        det = Detection(BBox(40, 40, 32, 32), 1, 0.8, 1, 0)
        fused = fuse_multiscale([(4.0, [det])], RANGE)
        assert len(fused) == 1
        assert fused[0].bbox == BBox(10, 10, 8, 8)

    def test_resolution_order_invariance(self, rng):
        layers = []
        for index, factor in enumerate((2.0, 1.0, 0.5)):
            layers.append(
                (
                    factor,
                    [
                        make_detection(
                            random_box(rng, 200.0),
                            float(rng.uniform(0.05, 1.0)),
                            resolution_index=index,
                        )
                        for _ in range(20)
                    ],
                )
            )
        forward = fuse_multiscale(layers, RANGE)
        backward = fuse_multiscale(list(reversed(layers)), RANGE)
        assert forward == backward

    def test_top_k_cap(self, rng):
        dets = [
            make_detection(random_box(rng, 500.0), float(rng.uniform(0.05, 1.0)), resolution_index=0)
            for _ in range(30)
        ]
        fused = fuse_multiscale([(1.0, dets)], UNBOUNDED_RANGE, top_k=5)
        assert len(fused) == 5

    @pytest.mark.parametrize("top_k", [0, -1, 2.5])
    def test_top_k_must_be_positive_integer(self, top_k):
        dets = [make_detection(BBox(0, 0, 10, 10), 0.9, resolution_index=0)]
        with pytest.raises(ValueError, match="top_k"):
            fuse_multiscale([(1.0, dets)], UNBOUNDED_RANGE, top_k=top_k)

    def test_unbounded_gate_is_noop_gating(self, rng):
        dets = [
            make_detection(random_box(rng), float(rng.uniform(0.05, 1.0)), resolution_index=0)
            for _ in range(20)
        ]
        isn = fuse_multiscale([(1.0, dets)], ScaleRange(0.0, math.inf))
        naive = fuse_multiscale([(1.0, dets)], UNBOUNDED_RANGE)
        assert isn == naive

    def test_scaling_factor_must_be_positive(self):
        dets = [make_detection(BBox(0, 0, 10, 10), 0.9, resolution_index=0)]
        with pytest.raises(ValueError, match=r"^scaling factor must be positive: 0\.0$"):
            fuse_multiscale([(1.0, dets), (0.0, dets)], UNBOUNDED_RANGE)

    @pytest.mark.filterwarnings("error")
    def test_projected_underflow_names_the_detection(self):
        """Detections are numbered by their place in the flattened input lists."""
        good = Detection(BBox(10, 10, 100, 100), 1, 0.8, 1, 0)
        tiny = Detection(BBox(0, 0, 5e-324, 10), 1, 0.9, 1, 1)
        with pytest.raises(ValueError) as err:
            fuse_multiscale([(1.0, [good]), (4.0, [good, tiny])], UNBOUNDED_RANGE)
        assert str(err.value) == "detection #2 at scale factor 4.0: degenerate box: w=0.0, h=2.5"

    @pytest.mark.filterwarnings("error")
    def test_projected_overflow_names_the_detection(self):
        huge = Detection(BBox(1e308, 0, 1e308, 10), 1, 0.9, 1, 0)
        with pytest.raises(ValueError) as err:
            fuse_multiscale([(0.25, [huge])], UNBOUNDED_RANGE)
        assert str(err.value) == (
            "detection #0 at scale factor 0.25: non-finite box: BBox(x=inf, y=0.0, w=inf, h=40.0)")


class TestFusedRecords:
    """Output records are built from checked rows without re-running the
    constructors' checks, and are the records the constructors build."""

    def test_fused_records_are_as_constructed(self, rng):
        per_resolution = [
            (factor, [make_detection(random_box(rng, 300.0), float(rng.uniform(0.0, 1.0)),
                                     int(rng.integers(1, 4)), int(rng.integers(1, 4)), k)
                      for _ in range(60)])
            for k, factor in enumerate(POWER_OF_TWO_FACTORS)
        ]
        for top_k in (100, None):
            fused = fuse_multiscale(per_resolution, RANGE, top_k=top_k)
            assert len(fused) > 50
            assert_as_constructed(fused)

    def test_integer_and_boundary_fields_are_as_constructed(self):
        dets = [Detection(BBox(0, -0.0, 1, 2), 3, 1, 2**53, 0),
                Detection(BBox(5, 5, 1, 2), 1, 0, -(2**53), 7)]
        assert_as_constructed(fuse_multiscale([(1.0, dets)], UNBOUNDED_RANGE, top_k=None))
        assert_as_constructed(soft_nms(dets))


class TestPerImageFusion:
    """Several images in one call: each is fused on its own, in image id order."""

    # The same box and category on images 2 and 1, image 2 listed first and
    # scored higher; three detections each, above a top_k of 2.
    DETS = [
        Detection(BBox(10.0, 10.0, 40.0, 40.0), 1, score - shift, image, 0)
        for image, shift in ((2, 0.0), (1, 0.05)) for score in (0.9, 0.8, 0.7)
    ]

    def per_image(self, fn):
        return [d for image in (1, 2) for d in fn([d for d in self.DETS if d.image_id == image])]

    def test_fuse_multiscale_fuses_and_cuts_each_image_on_its_own(self):
        fused = fuse_multiscale([(1.0, self.DETS)], RANGE, top_k=2)
        assert fused == self.per_image(lambda dets: fuse_multiscale([(1.0, dets)], RANGE, top_k=2))
        assert [d.image_id for d in fused] == [1, 1, 2, 2]

    def test_soft_nms_suppresses_within_each_image_only(self):
        kept = soft_nms(self.DETS)
        assert kept == self.per_image(soft_nms)
        assert kept[0] == self.DETS[3]  # image 1's top, not decayed by image 2's

    def test_ids_past_float64_are_rejected(self):
        # The float64 table would read image 2**53 + 1 as 2**53 and fuse the two images as one.
        dets = [Detection(BBox(10.0, 10.0, 40.0, 40.0), 1, 0.9, 2**53),
                Detection(BBox(10.0, 10.0, 40.0, 40.0), 1, 0.8, 2**53 + 1)]
        message = "detection #1: image_id must be at most 2**53 in magnitude, got 9007199254740993"
        for fuse in (soft_nms, lambda dets: fuse_multiscale([(1.0, dets)], RANGE)):
            with pytest.raises(ValueError) as caught:
                fuse(dets)
            assert str(caught.value) == message

    @pytest.mark.parametrize("field", ["category_id", "resolution_index", "image_id"])
    def test_each_id_field_is_checked_and_2_53_kept(self, field):
        det = Detection(BBox(10.0, 10.0, 40.0, 40.0), 1, 0.9, 1, 0)
        kept = [replace(det, **{field: 2**53}),
                replace(det, **{field: -(2**53)}, bbox=BBox(200.0, 10.0, 40.0, 40.0))]
        assert set(soft_nms(kept)) == set(kept)  # disjoint boxes: both kept, unchanged
        with pytest.raises(ValueError, match=rf"^detection #0: {field} must be at most 2\*\*53 "):
            soft_nms([replace(det, **{field: -(2**53) - 1})])


class TestSoftNmsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SoftNmsConfig(method="other")
        with pytest.raises(ValueError):
            SoftNmsConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SoftNmsConfig(iou_threshold=1.0)
        with pytest.raises(ValueError):
            SoftNmsConfig(score_floor=1.0)


def _order_key(d):
    b = d.bbox
    return (-d.score, d.resolution_index, b.x, b.y, b.w, b.h, d.category_id)


# Within a category every distinct box gets its own score from this list and
# coordinates are continuous, so Soft-NMS meets an exact tie in current score
# between distinct boxes only at score 0, where the pick order changes no
# value. Algorithm 1 leaves other such ties open, and the reference's
# swap-to-front order breaks them differently from the candidate order.
# Categories share the list, so candidate keys still tie across categories
# and resolutions.
TIE_SCORES = tuple(round(1.0 - 0.03 * k, 2) for k in range(32))


def tie_heavy_stack(rng, n_resolutions):
    """Per-resolution detections with many exact ties in the candidate order:
    every category draws its scores from one short list, some boxes repeat
    in a second category with the same score, and each original-image box is
    seen, at the same score, at several power-of-two resolutions."""
    factors = [float(f) for f in rng.choice(POWER_OF_TWO_FACTORS, n_resolutions, replace=False)]
    free_scores = {cat: list(rng.permutation(TIE_SCORES)) for cat in (1, 2, 3)}
    originals = []
    for _ in range(int(rng.integers(1, 30))):
        box = tuple(float(v) for v in np.concatenate([rng.uniform(0, 80, 2), rng.uniform(4, 48, 2)]))
        cat = int(rng.integers(1, 4))
        score = float(free_scores[cat].pop())
        originals.append((box, cat, score))
        other = cat % 3 + 1
        if rng.random() < 0.3 and score in free_scores[other]:
            free_scores[other].remove(score)
            originals.append((box, other, score))
    stack = []
    for index, factor in enumerate(factors):
        dets = [
            Detection(BBox(*(v * factor for v in box)), cat, score, 1, index)
            for box, cat, score in originals
            if rng.random() < 0.7
        ]
        stack.append((factor, dets))
    return stack


def reference_fusion(stack, scale_range, cfg):
    """Independent gate, projection and per-category reference Soft-NMS.

    Returns sorted (category, x1, y1, x2, y2, score) rows. Factors are
    powers of two, so dividing by them projects exactly.
    """
    pooled = []
    for factor, dets in stack:
        for d in dets:
            b = d.bbox
            if scale_range.lower <= math.sqrt(b.w * b.h) <= scale_range.upper:
                box = (b.x / factor, b.y / factor, b.w / factor, b.h / factor)
                pooled.append((-d.score, d.resolution_index, *box, d.category_id))
    pooled.sort()
    rows = []
    for cat in sorted({p[-1] for p in pooled}):
        group = [p for p in pooled if p[-1] == cat]
        boxes, scores = soft_nms_reference(
            [p[2:6] for p in group], [-p[0] for p in group],
            cfg.method, cfg.sigma, cfg.iou_threshold, cfg.score_floor,
        )
        for (x, y, w, h), score in zip(boxes, scores):
            rows.append((cat, float(x), float(y), float(x + w), float(y + h), float(score)))
    return sorted(rows)


class TestColumnarFusion:
    @pytest.mark.parametrize("method", ["gaussian", "linear", "hard"])
    def test_tie_heavy_cases_match_reference(self, rng, method):
        for case in range(150):
            cfg = SoftNmsConfig(
                method=method,
                sigma=float(rng.choice([0.3, 0.5])),
                iou_threshold=float(rng.choice([0.3, 0.5])),
                score_floor=float(rng.choice([0.0, 0.001, 0.2])),
            )
            stack = tie_heavy_stack(rng, int(rng.integers(1, 6)))
            window = (RANGE, UNBOUNDED_RANGE, ScaleRange(8.0, 40.0))[case % 3]
            full = fuse_multiscale(stack, window, cfg, top_k=None)

            got = sorted(
                (d.category_id, d.bbox.x, d.bbox.y, d.bbox.x + d.bbox.w, d.bbox.y + d.bbox.h, d.score)
                for d in full
            )
            # Same arithmetic in the same order as the reference: equal bits.
            assert got == reference_fusion(stack, window, cfg)

            assert [_order_key(d) for d in full] == sorted(_order_key(d) for d in full)
            for k in (5, 30, 100):
                assert fuse_multiscale(stack, window, cfg, top_k=k) == full[:k]

    def test_top_k_cut_inside_equal_scores(self):
        # Ten disjoint boxes tie at 0.5 across two resolutions; the cut keeps
        # the lowest resolution index first, then the smallest x.
        stack = [
            (1.0, [Detection(BBox(50.0 * i, 0, 20, 20), 1, 0.5, 1, 1) for i in range(5)]),
            (2.0, [Detection(BBox(100.0 * i + 2000, 0, 40, 40), 1, 0.5, 1, 0) for i in range(5)]),
            (0.5, [Detection(BBox(150.0, 150.0, 20, 20), 1, 0.9, 1, 2)]),
        ]
        fused = fuse_multiscale(stack, RANGE, top_k=4)
        assert [(d.score, d.resolution_index, d.bbox.x) for d in fused] == [
            (0.9, 2, 300.0),
            (0.5, 0, 1000.0),
            (0.5, 0, 1050.0),
            (0.5, 0, 1100.0),
        ]

    def test_resolution_order_invariance_with_ties(self, rng):
        for _ in range(50):
            stack = tie_heavy_stack(rng, int(rng.integers(2, 6)))
            forward = fuse_multiscale(stack, RANGE)
            assert fuse_multiscale(stack[::-1], RANGE) == forward
            shuffled = [stack[i] for i in rng.permutation(len(stack))]
            assert fuse_multiscale(shuffled, RANGE) == forward

    def test_no_score_raised(self, rng):
        for method in ("gaussian", "linear", "hard"):
            cfg = SoftNmsConfig(method=method)
            for _ in range(30):
                stack = tie_heavy_stack(rng, int(rng.integers(1, 6)))
                best_input = {}
                for factor, dets in stack:
                    for d in dets:
                        b = d.bbox
                        key = (d.resolution_index, d.category_id, b.x / factor, b.y / factor)
                        best_input[key] = max(best_input.get(key, 0.0), d.score)
                for d in fuse_multiscale(stack, UNBOUNDED_RANGE, cfg, top_k=None):
                    key = (d.resolution_index, d.category_id, d.bbox.x, d.bbox.y)
                    assert d.score <= best_input[key]

    def test_equal_duplicates_keep_the_earliest_candidate(self):
        # The same box at the same score from two resolutions: the lower
        # resolution index is picked first and keeps its score.
        stack = [
            (2.0, [Detection(BBox(20, 20, 60, 60), 1, 0.7, 1, 1)]),
            (1.0, [Detection(BBox(10, 10, 30, 30), 1, 0.7, 1, 0)]),
        ]
        first, second = fuse_multiscale(stack, RANGE, SoftNmsConfig(sigma=0.5))
        assert (first.resolution_index, first.score) == (0, 0.7)
        assert second.resolution_index == 1
        assert second.score == pytest.approx(0.7 * math.exp(-2.0), abs=1e-12)

    def test_gate_keeps_both_range_ends(self):
        low, high = det_of_scale(16.0, 0.5), det_of_scale(560.0, 0.5, x=1000.0)
        assert gate_predictions([low, high], 1.0, RANGE) == [low, high]
        assert len(fuse_multiscale([(1.0, [low, high])], RANGE)) == 2

    def test_gate_projects_by_inverse_factor(self):
        # 10 / 3 and 10 * (1 / 3) differ in the last bit.
        det = Detection(BBox(10.0, 10.0, 60.0, 60.0), 1, 0.5, 1, 0)
        (kept,) = gate_predictions([det], 3.0, RANGE)
        assert kept.bbox.x == 10.0 * (1.0 / 3.0) != 10.0 / 3.0
        assert kept.bbox == project_box(det.bbox, 1.0 / 3.0)
