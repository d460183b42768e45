import math

import numpy as np
import pytest

from scalenorm import BBox, Detection, Instance, PyramidSpec, ScaleRange
from scalenorm.geometry import instance_scale, iou_matrix, project_box, resize_plan, to_corners

from conftest import corner_rows, random_box
from oracles import _iou_corners, iou_grid_count, xywh_to_corners


class TestBBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)

    def test_rejects_negative_origin(self):
        with pytest.raises(ValueError):
            BBox(-1, 0, 5, 5)

    @pytest.mark.parametrize(
        "coords",
        [
            (math.nan, 0, 5, 10),
            (0, math.nan, 5, 10),
            (0, 0, math.inf, 10),
            (0, 0, 5, math.inf),
            (math.inf, 0, 5, 10),
            (0, 0, 5, math.nan),
        ],
    )
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError, match="non-finite"):
            BBox(*coords)

    def test_derived_fields(self):
        b = BBox(2, 3, 4, 5)
        assert (b.x2, b.y2, b.area) == (6, 8, 20)


class TestValueTypes:
    def test_detection_score_bounds(self):
        box = BBox(0, 0, 1, 1)
        Detection(box, 1, 0.0)
        Detection(box, 1, 1.0)
        with pytest.raises(ValueError):
            Detection(box, 1, 1.2)

    def test_instance_category(self):
        with pytest.raises(ValueError):
            Instance(BBox(0, 0, 1, 1), 0)

    def test_scale_range_validation(self):
        ScaleRange(0.0, math.inf)
        with pytest.raises(ValueError):
            ScaleRange(10.0, 10.0)
        with pytest.raises(ValueError):
            ScaleRange(-1.0, 10.0)

    def test_scale_range_inclusive_ends(self):
        rng = ScaleRange(16.0, 560.0)
        assert rng.contains(16.0) and rng.contains(560.0)
        assert not rng.contains(15.999) and not rng.contains(560.001)

    def test_scale_range_contains_arrays_elementwise(self):
        scales = [0.0, 15.999, 16.0, 100.0, 560.0, 560.001, math.inf]
        for rng in (ScaleRange(16.0, 560.0), ScaleRange(0.0, math.inf)):
            assert rng.contains(np.array(scales)).tolist() == [rng.contains(s) for s in scales]
        assert ScaleRange(16.0, 560.0).contains(np.array(scales)).tolist() == [
            False, False, True, True, True, False, False,
        ]
        assert ScaleRange(0.0, math.inf).contains(np.array(scales)).all()

    def test_pyramid_validation(self):
        PyramidSpec((4.0, 2.0, 1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            PyramidSpec(())
        with pytest.raises(ValueError):
            PyramidSpec((1.0, 1.0))
        with pytest.raises(ValueError):
            PyramidSpec((1.0, -2.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_pyramid_rejects_non_finite_factor(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PyramidSpec((bad, 1.0))


class TestInstanceScale:
    def test_known_values(self):
        assert instance_scale(BBox(0, 0, 49, 100)) == 70.0
        assert instance_scale(BBox(0, 0, 49, 100), 0.5) == 35.0
        assert instance_scale(BBox(0, 0, 8, 8), 4.0) == 32.0

    def test_linear_in_factor(self, rng):
        for _ in range(200):
            b = random_box(rng)
            f = float(rng.uniform(0.05, 8.0))
            assert instance_scale(b, f) == pytest.approx(
                f * instance_scale(b), rel=1e-12
            )


class TestResizePlan:
    def test_known_values(self):
        assert resize_plan(480, 640, 2.0) == (960, 1280)
        assert resize_plan(480, 640, 1.0) == (480, 640)
        assert resize_plan(425, 640, 0.25) == (106, 160)

    def test_clamps_to_one_pixel(self):
        assert resize_plan(3, 5, 0.01) == (1, 1)


class TestProjectBox:
    def test_known_values(self):
        assert project_box(BBox(10, 20, 30, 40), 2.0) == BBox(20, 40, 60, 80)
        assert project_box(BBox(20, 40, 60, 80), 0.5) == BBox(10, 20, 30, 40)
        b = BBox(3, 7, 11, 13)
        assert project_box(b, 1.0) == b

    def test_round_trip(self, rng):
        for _ in range(300):
            b = random_box(rng)
            f = float(rng.uniform(0.05, 8.0))
            back = project_box(project_box(b, f), 1.0 / f)
            for got, want in zip(
                (back.x, back.y, back.w, back.h), (b.x, b.y, b.w, b.h)
            ):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestIou:
    def test_identity_disjoint_partial(self):
        a = BBox(0, 0, 2, 2)
        row = iou_matrix(corner_rows(a), corner_rows(a, BBox(10, 10, 2, 2), BBox(1, 0, 2, 2)))[0]
        assert row[0] == 1.0
        assert row[1] == 0.0
        assert row[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(300):
            a, b = corner_rows(random_box(rng)), corner_rows(random_box(rng))
            v = iou_matrix(a, b)[0, 0]
            assert v == iou_matrix(b, a)[0, 0]
            assert 0.0 <= v <= 1.0

    def test_matrix_matches_corner_reference(self, rng):
        a = [random_box(rng) for _ in range(7)]
        b = [random_box(rng) for _ in range(5)]
        ca, cb = (to_corners(np.array([(q.x, q.y, q.w, q.h) for q in boxes])) for boxes in (a, b))
        want = [
            [_iou_corners(xywh_to_corners((p.x, p.y, p.w, p.h)),
                          xywh_to_corners((q.x, q.y, q.w, q.h))) for q in b]
            for p in a
        ]
        np.testing.assert_allclose(iou_matrix(ca, cb), want, rtol=0, atol=1e-12)
        assert iou_matrix(ca, np.empty((0, 4))).shape == (7, 0)

    def test_matches_grid_count_oracle(self, rng):
        for _ in range(200):
            ax, ay, bx, by = rng.integers(0, 12, 4)
            aw, ah, bw, bh = rng.integers(1, 10, 4)
            a = BBox(float(ax), float(ay), float(aw), float(ah))
            b = BBox(float(bx), float(by), float(bw), float(bh))
            expected = iou_grid_count((ax, ay, aw, ah), (bx, by, bw, bh))
            got = iou_matrix(corner_rows(a), corner_rows(b))[0, 0]
            assert got == pytest.approx(expected, abs=1e-9)
