import math

import pytest

from scalenorm import (
    BBox,
    DetectorProfile,
    Instance,
    PyramidSpec,
    ScaleRange,
    UNBOUNDED_RANGE,
    detection_probability,
    generate_dataset,
    run_experiment,
    simulate_detections,
)
from scalenorm.dataio import Dataset, ImageInfo
from scalenorm.geometry import instance_scale, project_box
from scalenorm.simulate import localization_noise, octaves_outside_band

PYRAMID = PyramidSpec((4.0, 2.0, 1.0, 0.5, 0.25))
WINDOW = ScaleRange(16.0, 560.0)

NOISELESS = DetectorProfile(
    p_detect_in_band=1.0,
    loc_noise_frac=0.0,
    fp_rate=0.0,
    tp_score_std=0.0,
    seed=7,
)


def tiny_dataset(scales, image_id=1, size=(480, 640)):
    instances = [
        Instance(BBox(5.0 * i, 3.0 * i, s, s), 1, False, i, image_id)
        for i, s in enumerate(scales, start=1)
    ]
    return Dataset(
        [ImageInfo(image_id, size[0], size[1])],
        instances,
        [{"id": 1, "name": "object"}],
    )


class TestDetectionProbability:
    def test_flat_inside_band(self):
        profile = DetectorProfile()
        assert detection_probability(32.0, profile) == profile.p_detect_in_band
        assert detection_probability(100.0, profile) == profile.p_detect_in_band
        assert detection_probability(480.0, profile) == profile.p_detect_in_band

    def test_two_octaves_below_band(self):
        # band edge 32, scale 8 is two octaves out: 0.95 * 0.5^2
        assert detection_probability(8.0, DetectorProfile()) == pytest.approx(
            0.2375, abs=1e-12
        )

    def test_decay_above_band(self):
        profile = DetectorProfile()
        assert detection_probability(960.0, profile) == pytest.approx(
            0.95 * 0.5, abs=1e-12
        )

    def test_octave_distance(self):
        profile = DetectorProfile()
        assert octaves_outside_band(64.0, profile) == 0.0
        assert octaves_outside_band(16.0, profile) == 1.0
        assert octaves_outside_band(960.0, profile) == 1.0

    def test_noise_grows_outside_band(self):
        profile = DetectorProfile()
        assert localization_noise(100.0, profile) == profile.loc_noise_frac
        assert localization_noise(8.0, profile) == pytest.approx(0.02 * 4.0)

    def test_monte_carlo_frequency(self):
        # 1e5 independent substreams; frequency within 3 sigma of 0.2375
        n = 100_000
        dataset = tiny_dataset([8.0] * 1)
        instances = [
            Instance(BBox(0.0, 0.0, 8.0, 8.0), 1, False, i, 1) for i in range(1, n + 1)
        ]
        dataset = Dataset(dataset.images, instances, dataset.categories)
        profile = DetectorProfile(fp_rate=0.0, seed=123)
        (_, dets), = simulate_detections(dataset, PyramidSpec((1.0,)), profile)
        p = 0.2375
        sigma = math.sqrt(p * (1 - p) / n)
        assert len(dets) / n == pytest.approx(p, abs=3 * sigma)


class TestSimulateDetections:
    def test_noiseless_reproduces_ground_truth(self):
        # scales chosen so every (instance, factor) pair sits inside the band
        dataset = tiny_dataset([40.0, 100.0, 200.0])
        pyramid = PyramidSpec((2.0, 1.0))
        per_res = simulate_detections(dataset, pyramid, NOISELESS)
        gts = dataset.instances_by_image()[1]
        for index, (factor, dets) in enumerate(per_res):
            assert len(dets) == len(gts)
            for det, inst in zip(dets, gts):
                assert det.bbox == project_box(inst.bbox, factor)
                assert det.score == NOISELESS.tp_score_mean
                assert det.resolution_index == index

    def test_same_seed_bitwise_identical(self):
        dataset = generate_dataset(20, 5)
        profile = DetectorProfile(seed=5)
        a = simulate_detections(dataset, PYRAMID, profile)
        b = simulate_detections(dataset, PYRAMID, profile)
        assert a == b

    def test_different_seed_differs(self):
        dataset = generate_dataset(20, 5)
        a = simulate_detections(dataset, PYRAMID, DetectorProfile(seed=5))
        b = simulate_detections(dataset, PYRAMID, DetectorProfile(seed=6))
        assert a != b

    def test_adding_resolutions_preserves_existing_draws(self):
        dataset = generate_dataset(10, 3)
        profile = DetectorProfile(seed=3)
        short = simulate_detections(dataset, PyramidSpec((1.0, 0.5)), profile)
        longer = simulate_detections(dataset, PyramidSpec((1.0, 0.5, 0.25)), profile)
        assert short[0][1] == longer[0][1]
        assert short[1][1] == longer[1][1]

    def test_detections_live_in_resized_coordinates(self):
        dataset = tiny_dataset([100.0])
        per_res = simulate_detections(dataset, PyramidSpec((2.0,)), NOISELESS)
        (_, dets), = per_res
        assert instance_scale(dets[0].bbox) == pytest.approx(200.0)


class TestGenerateDataset:
    def test_deterministic(self):
        assert generate_dataset(30, 11) == generate_dataset(30, 11)

    def test_scales_within_bounds(self):
        ds = generate_dataset(50, 2)
        for inst in ds.instances:
            s = instance_scale(inst.bbox)
            assert 4.0 <= s <= 640.0 + 1e-9

    def test_instance_counts_per_image(self):
        ds = generate_dataset(50, 4, min_instances=1, max_instances=20)
        per_image = ds.instances_by_image()
        assert all(1 <= len(v) <= 20 for v in per_image.values())

    def test_ids_unique(self):
        ds = generate_dataset(40, 9)
        ids = [inst.id for inst in ds.instances]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"crowd_fraction": math.nan}, "crowd_fraction"),
            ({"crowd_fraction": 1.5}, "crowd_fraction"),
            ({"crowd_fraction": -0.1}, "crowd_fraction"),
            ({"num_categories": 0}, "num_categories"),
            ({"min_instances": 5, "max_instances": 4}, "min_instances"),
        ],
    )
    def test_rejects_bad_parameter_naming_it(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            generate_dataset(3, 1, **kwargs)


class TestRunExperiment:
    def test_noiseless_profile_reaches_perfect_ap(self):
        dataset = generate_dataset(20, 1, scale_low=40.0, scale_high=400.0)
        for strategy in ("isn", "naive_ms", "single_scale"):
            result = run_experiment(
                dataset,
                PYRAMID,
                WINDOW,
                NOISELESS,
                strategy,
                single_scale_factor=1.0,
            )
            assert result.ap == 1.0, strategy

    def test_unbounded_range_matches_naive(self):
        dataset = generate_dataset(15, 2)
        profile = DetectorProfile(seed=2)
        isn = run_experiment(dataset, PYRAMID, UNBOUNDED_RANGE, profile, "isn")
        naive = run_experiment(dataset, PYRAMID, UNBOUNDED_RANGE, profile, "naive_ms")
        assert isn == naive

    def test_experiment_deterministic(self):
        dataset = generate_dataset(15, 2)
        profile = DetectorProfile(seed=2)
        a = run_experiment(dataset, PYRAMID, WINDOW, profile, "isn")
        b = run_experiment(dataset, PYRAMID, WINDOW, profile, "isn")
        assert a == b

    def test_degraded_profile_favors_gated_fusion(self):
        dataset = generate_dataset(120, 3)
        profile = DetectorProfile(seed=3)
        isn = run_experiment(dataset, PYRAMID, WINDOW, profile, "isn")
        naive = run_experiment(dataset, PYRAMID, WINDOW, profile, "naive_ms")
        single = run_experiment(
            dataset, PYRAMID, WINDOW, profile, "single_scale", single_scale_factor=1.0
        )
        assert isn.ap >= naive.ap
        assert single.ap <= isn.ap

    def test_unknown_strategy_rejected(self):
        dataset = generate_dataset(2, 1)
        with pytest.raises(ValueError, match="strategy"):
            run_experiment(dataset, PYRAMID, WINDOW, NOISELESS, "other")

    def test_single_scale_requires_matching_factor(self):
        dataset = generate_dataset(2, 1)
        with pytest.raises(ValueError, match="single_scale"):
            run_experiment(
                dataset, PYRAMID, WINDOW, NOISELESS, "single_scale", single_scale_factor=3.0
            )


class TestProfileValidation:
    def test_band_ordering(self):
        with pytest.raises(ValueError):
            DetectorProfile(sweet_low=480.0, sweet_high=32.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            DetectorProfile(p_detect_in_band=1.5)
        with pytest.raises(ValueError):
            DetectorProfile(p_detect_decay=0.0)
