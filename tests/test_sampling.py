import math

import numpy as np
import pytest

from scalenorm import (
    DEFAULT_SNIP_TABLE,
    IsnPolicy,
    PyramidSpec,
    ScaleRange,
    SnipEntry,
    SnipPolicy,
    SnipRangeTable,
    consistency_overlap,
    isn_partition,
    resized_scale_distributions,
    snip_partition,
)
from scalenorm.sampling import ScaleHistogram, default_bin_edges

from conftest import make_instance

RANGE = ScaleRange(16.0, 560.0)
PYRAMID = PyramidSpec((4.0, 2.0, 1.0, 0.5, 0.25))


class TestIsnPartition:
    def test_in_range_scale(self):
        part = isn_partition([make_instance(73.0)], 1.0, RANGE)
        assert len(part.valid) == 1 and not part.ignored

    def test_tiny_scale_recovered_by_upscaling(self):
        inst = make_instance(8.0)
        assert not isn_partition([inst], 1.0, RANGE).valid
        assert isn_partition([inst], 4.0, RANGE).valid == [inst]

    def test_huge_scale_recovered_by_downscaling(self):
        inst = make_instance(600.0)
        assert not isn_partition([inst], 1.0, RANGE).valid
        assert isn_partition([inst], 0.5, RANGE).valid == [inst]

    def test_crowd_always_ignored(self):
        crowd = make_instance(100.0, iscrowd=True)
        part = isn_partition([crowd], 1.0, RANGE)
        assert part.ignored == [crowd]

    def test_exhaustive_and_exclusive(self, rng):
        insts = [
            make_instance(float(s), inst_id=i)
            for i, s in enumerate(rng.uniform(1, 700, 50), start=1)
        ]
        part = isn_partition(insts, 1.0, RANGE)
        assert len(part.valid) + len(part.ignored) == len(insts)
        assert not {i.id for i in part.valid} & {i.id for i in part.ignored}

    def test_unbounded_range_keeps_all_objects(self, rng):
        insts = [
            make_instance(float(s), inst_id=i)
            for i, s in enumerate(rng.uniform(1, 700, 50), start=1)
        ]
        part = isn_partition(insts, 1.0, ScaleRange(0.0, math.inf))
        assert len(part.valid) == len(insts)


class TestSnipPartition:
    def test_published_decisions(self):
        # scale 73 valid at (800, 1200) with (40, 160); 107 ignored at
        # (480, 800) with (120, inf)
        man = make_instance(73.0)
        woman = make_instance(107.0)
        assert snip_partition([man], 0, DEFAULT_SNIP_TABLE).valid == [man]
        assert snip_partition([woman], 1, DEFAULT_SNIP_TABLE).ignored == [woman]

    def test_above_range_ignored(self):
        inst = make_instance(200.0)
        assert snip_partition([inst], 0, DEFAULT_SNIP_TABLE).ignored == [inst]

    def test_open_interval_boundaries(self):
        assert snip_partition([make_instance(40.0)], 0, DEFAULT_SNIP_TABLE).ignored
        assert snip_partition([make_instance(160.0)], 0, DEFAULT_SNIP_TABLE).ignored

    def test_unknown_resolution_index(self):
        with pytest.raises(ValueError, match="resolution_index"):
            snip_partition([make_instance(50.0)], 5, DEFAULT_SNIP_TABLE)

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            SnipEntry(800, 1200, 160.0, 40.0)
        for height, width in ((0, 1200), (800, 0)):
            with pytest.raises(ValueError, match="resolution"):
                SnipEntry(height, width, 40.0, 160.0)
        for factor in (math.nan, math.inf, 0.0, -2.0):
            with pytest.raises(ValueError, match="scale_factor"):
                SnipEntry(800, 1200, 40.0, 160.0, factor)


class TestDistributions:
    def test_single_valid_instance(self):
        trained, ignored = resized_scale_distributions(
            [make_instance(100.0)], IsnPolicy(PyramidSpec((1.0,)), RANGE)
        )
        assert trained.total == 1 and trained.mass.sum() == pytest.approx(1.0)
        assert ignored.total == 0 and ignored.mass.sum() == 0.0

    def test_empty_dataset_flagged(self):
        trained, ignored = resized_scale_distributions(
            [], IsnPolicy(PYRAMID, RANGE)
        )
        assert trained.total == 0 and ignored.total == 0

    def test_isn_bins_never_shared(self, rng):
        insts = [
            make_instance(float(s), inst_id=i)
            for i, s in enumerate(rng.uniform(1.0, 700.0, 2000), start=1)
        ]
        trained, ignored = resized_scale_distributions(insts, IsnPolicy(PYRAMID, RANGE))
        both = (trained.mass > 0) & (ignored.mass > 0)
        assert not both.any()
        assert consistency_overlap(trained, ignored) == 0.0

    def test_snip_policy_overlaps_on_lognormal_population(self, rng):
        scales = rng.lognormal(mean=math.log(60.0), sigma=1.0, size=10_000)
        insts = [
            make_instance(float(np.clip(s, 2.0, 1500.0)), inst_id=i)
            for i, s in enumerate(scales, start=1)
        ]
        sizes = {1: (480, 640)}
        trained, ignored = resized_scale_distributions(
            insts, SnipPolicy(DEFAULT_SNIP_TABLE), sizes
        )
        both = (trained.mass > 0) & (ignored.mass > 0)
        assert both.sum() > 0
        assert consistency_overlap(trained, ignored) > 0.05

    def test_derived_factor_requires_image_size(self):
        with pytest.raises(ValueError, match="image size"):
            resized_scale_distributions(
                [make_instance(50.0)], SnipPolicy(DEFAULT_SNIP_TABLE)
            )

    def test_explicit_entry_factor_used(self):
        table = SnipRangeTable((SnipEntry(800, 1200, 40.0, 160.0, factor=2.0),))
        trained, _ = resized_scale_distributions(
            [make_instance(50.0)], SnipPolicy(table)
        )
        edges = trained.edges
        bin_idx = int(np.searchsorted(edges, 100.0, side="right") - 1)
        assert trained.mass[bin_idx] == 1.0


class TestConsistencyOverlap:
    def test_identical_histograms(self):
        edges = default_bin_edges()
        mass = np.zeros(len(edges) - 1)
        mass[3] = 0.5
        mass[10] = 0.5
        h = ScaleHistogram(edges, mass, 10)
        assert consistency_overlap(h, h) == pytest.approx(1.0)

    def test_disjoint_histograms(self):
        edges = default_bin_edges()
        a = np.zeros(len(edges) - 1)
        b = np.zeros(len(edges) - 1)
        a[2] = 1.0
        b[40] = 1.0
        assert consistency_overlap(
            ScaleHistogram(edges, a, 5), ScaleHistogram(edges, b, 5)
        ) == 0.0

    def test_half_overlap(self):
        edges = np.array([1.0, 2.0, 4.0, 8.0])
        trained = ScaleHistogram(edges, np.array([0.5, 0.5, 0.0]), 2)
        ignored = ScaleHistogram(edges, np.array([0.0, 0.5, 0.5]), 2)
        assert consistency_overlap(trained, ignored) == pytest.approx(0.5)

    def test_requires_shared_edges(self):
        a = ScaleHistogram(np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.0]), 1)
        b = ScaleHistogram(np.array([1.0, 3.0, 4.0]), np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError):
            consistency_overlap(a, b)


class TestLabelConsistency:
    def test_equal_resized_scale_equal_label(self, rng):
        # pairs engineered so resized scale is bit-exact across factors
        targets = rng.integers(2, 1200, size=4000)
        for factor in PYRAMID:
            insts = [
                make_instance(float(m) / factor, inst_id=i)
                for i, m in enumerate(targets, start=1)
            ]
            part = isn_partition(insts, factor, RANGE)
            valid_ids = {i.id for i in part.valid}
            expected = {
                i + 1 for i, m in enumerate(targets) if 16.0 <= m <= 560.0
            }
            assert valid_ids == expected
