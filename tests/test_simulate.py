import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generate_reference, simulate_reference
from scalenorm import (
    BBox,
    Detection,
    DetectorProfile,
    EvalConfig,
    EvaluationError,
    Instance,
    PyramidSpec,
    ScaleRange,
    SoftNmsConfig,
    UNBOUNDED_RANGE,
    evaluate,
    fuse_multiscale,
    generate_dataset,
    run_experiment,
    simulate_detections,
)
from scalenorm import evaluation
from scalenorm.dataio import Dataset, ImageInfo
from scalenorm.geometry import instance_scale, project_box
from scalenorm.simulate import (
    _factor_key, _pcg64_states, detection_probability, isn_range_evaluator, localization_noise,
    octaves_outside_band,
)

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

    @pytest.mark.parametrize("profile, factor", [
        pytest.param(DetectorProfile(loc_noise_frac=1000.0), 1.0, id="exp-overflows"),
        pytest.param(DetectorProfile(loc_noise_growth=1e300, p_detect_decay=1.0), 4096.0,
                     id="growth-overflows"),
        pytest.param(DetectorProfile(loc_noise_frac=0.3, p_detect_decay=1.0), 4096.0,
                     id="exp-underflows"),
    ])
    def test_jitter_out_of_float_range_names_the_noise_keys(self, profile, factor):
        """A value error naming the profile keys and the factor, not a bare
        OverflowError or a degenerate box."""
        match = rf"factor {factor}: .*detector\.loc_noise_frac or detector\.loc_noise_growth"
        with pytest.raises(ValueError, match=match):
            simulate_detections(generate_dataset(20, 0), PyramidSpec((factor,)), profile)


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
            # Not three images without instances: no count can be drawn.
            ({"min_instances": -5, "max_instances": -1}, "min_instances must be non-negative"),
        ],
    )
    def test_rejects_bad_parameter_naming_it(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            generate_dataset(3, 1, **kwargs)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            generate_dataset(3, -1)


class TestRunExperiment:
    def test_noiseless_profile_reaches_perfect_ap(self):
        generated = generate_dataset(20, 1)
        kept = [i for i in generated.instances if 40.0 <= instance_scale(i.bbox) <= 400.0]
        dataset = Dataset(generated.images, kept, generated.categories)
        for strategy in ("isn", "naive_ms", "single_scale"):
            result = run_experiment(dataset, PYRAMID, WINDOW, NOISELESS, strategy)
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
        single = run_experiment(dataset, PYRAMID, WINDOW, profile, "single_scale")
        assert isn.ap >= naive.ap
        assert single.ap <= isn.ap

    def test_unknown_strategy_rejected(self):
        dataset = generate_dataset(2, 1)
        with pytest.raises(ValueError, match="strategy"):
            run_experiment(dataset, PYRAMID, WINDOW, NOISELESS, "other")

    def test_single_scale_requires_matching_factor(self):
        dataset = generate_dataset(2, 1)
        without_original = PyramidSpec((4.0, 2.0, 0.5))
        with pytest.raises(ValueError, match="single_scale"):
            run_experiment(dataset, without_original, WINDOW, NOISELESS, "single_scale")


class TestIsnRangeEvaluator:
    def test_repeated_range_is_scored_from_the_memo(self, monkeypatch):
        dataset = generate_dataset(3, 5)
        per_resolution = simulate_detections(dataset, PYRAMID, DetectorProfile(seed=5))
        probe = isn_range_evaluator(
            dataset, per_resolution, ScaleRange(0.0, 640.0), SoftNmsConfig(), 100, EvalConfig()
        )
        calls = {"_pr_summary": 0, "_match_unit": 0, "_match_single": 0}
        for name in calls:
            def counted(*args, _fn=getattr(evaluation, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(evaluation, name, counted)
        first = probe(WINDOW)
        assert calls["_pr_summary"] and calls["_match_unit"] and calls["_match_single"]
        before = dict(calls)
        assert probe(WINDOW) == first
        assert calls == before

    def test_a_probe_scores_the_all_bucket_alone(self, monkeypatch):
        # Ground truth in every size bucket, so `evaluate` would fill all four.
        dataset = generate_dataset(6, 5)
        cfg = EvalConfig()
        areas = np.array([g.bbox.w * g.bbox.h for g in dataset.instances])
        assert set(cfg._bucket(areas).tolist()) == {1, 2, 3}
        per_resolution = simulate_detections(dataset, PYRAMID, DetectorProfile(seed=5))
        probe = isn_range_evaluator(
            dataset, per_resolution, ScaleRange(0.0, 640.0), SoftNmsConfig(), 100, cfg)
        buckets = {"_pr_summary": [], "_match_single": []}

        def pr_summary(is_tp, is_ig, n_positive, grid):
            buckets["_pr_summary"].append((is_tp.shape[0], is_ig.shape[0], len(n_positive)))
            return summarize(is_tp, is_ig, n_positive, grid)

        def match_single(inst, lanes, crowd, ignore, is_ig):
            buckets["_match_single"].append((ignore.shape[0], is_ig.shape[0]))
            return match(inst, lanes, crowd, ignore, is_ig)

        summarize, match = evaluation._pr_summary, evaluation._match_single
        monkeypatch.setattr(evaluation, "_pr_summary", pr_summary)
        monkeypatch.setattr(evaluation, "_match_single", match_single)
        for window in (WINDOW, ScaleRange(0.0, 640.0), ScaleRange(32.0, 320.0)):
            probe(window)
        assert buckets["_pr_summary"] and buckets["_match_single"]
        assert set(buckets["_pr_summary"]) == {(1, 1, 1)}
        assert set(buckets["_match_single"]) == {(1, 1)}

    def test_ranges_with_equal_scores_on_other_rows_are_scored_apart(self):
        # The narrow range holds only a hit on the one instance, the wide one
        # only a miss of the same score: the memo must not take one for the other.
        dataset = tiny_dataset([50.0])
        dets = [Detection(dataset.instances[0].bbox, 1, 0.9, 1),
                Detection(BBox(300.0, 200.0, 200.0, 200.0), 1, 0.9, 1)]
        probe = isn_range_evaluator(
            dataset, [(1.0, dets)], ScaleRange(16.0, 640.0), SoftNmsConfig(), 100, EvalConfig())
        for window, ap in ((ScaleRange(16.0, 100.0), 1.0), (ScaleRange(150.0, 640.0), 0.0)):
            fused = fuse_multiscale([(1.0, dets)], window)
            assert probe(window) == evaluate(dataset.instances, fused, categories=[1]).ap == ap

    def test_a_detection_outside_the_vocabulary_raises_as_evaluate_does(self):
        # One image, one category-1 box, detections of categories 2 and 1 on it.
        dataset = tiny_dataset([50.0])
        box = dataset.instances[0].bbox
        dets = [Detection(box, 2, 0.9, 1), Detection(box, 1, 0.5, 1)]
        message = r"^detection #0: unknown category 2$"
        fused = fuse_multiscale([(1.0, dets)], WINDOW)
        with pytest.raises(EvaluationError, match=message):
            evaluate(dataset.instances, fused, categories=dataset.category_ids())
        with pytest.raises(EvaluationError, match=message):
            isn_range_evaluator(
                dataset, [(1.0, dets)], WINDOW, SoftNmsConfig(), 100, EvalConfig()
            )

    def test_ground_truth_outside_the_vocabulary_raises_as_evaluate_does(self):
        # One image of vocabulary [1], instances of categories 1 and 2, a hit on the first.
        dataset = tiny_dataset([50.0, 80.0])
        first, second = dataset.instances
        dataset = Dataset(dataset.images, [first, replace(second, category_id=2)],
                          dataset.categories)
        dets = [Detection(first.bbox, 1, 0.9, 1)]
        message = r"^ground-truth instance 2 has unknown category 2$"
        with pytest.raises(EvaluationError, match=message):
            evaluate(dataset.instances, dets, categories=dataset.category_ids())
        with pytest.raises(EvaluationError, match=message):
            isn_range_evaluator(dataset, [(1.0, dets)], WINDOW, SoftNmsConfig(), 100, EvalConfig())

    @pytest.mark.parametrize("top_k", [0, -1, 2.5, True])
    def test_bad_top_k_raises_on_probe(self, top_k):
        dataset = generate_dataset(2, 5)
        per_resolution = simulate_detections(dataset, PYRAMID, DetectorProfile(seed=5))
        probe = isn_range_evaluator(dataset, per_resolution, ScaleRange(0.0, 640.0),
                                    SoftNmsConfig(), top_k, EvalConfig())
        with pytest.raises(ValueError, match=r"^top_k must be None or an integer >= 1, got "):
            probe(WINDOW)


class TestProfileValidation:
    def test_band_ordering(self):
        with pytest.raises(ValueError):
            DetectorProfile(sweet_low=480.0, sweet_high=32.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            DetectorProfile(p_detect_in_band=1.5)
        with pytest.raises(ValueError):
            DetectorProfile(p_detect_decay=0.0)


# Stream keys [seed, image, instance, factor key]: parts of 0, parts of two or
# three 32-bit words (seed 2**70, image 2**40, the key of factor 4096), and
# every word count from 4 to 9 in one call.
SEED_KEYS = [
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (11, 3, 17, _factor_key(0.25)),
    (2**70, 1, 5, _factor_key(1.0)),
    (7, 2**40, 3, _factor_key(2.0)),
    (7, 3, 0, _factor_key(4096.0)),
    (2**32 - 1, 2**32, 2**64 - 1, 2**64),
    (2**70, 2**40, 1, 2),
    (2**70, 2**40, 2**33, _factor_key(5000.0)),
    (123, 2**96 + 5, 2**64 + 1, 0x5F),
] + [(seed, image, instance, _factor_key(f))
     for seed in (0, 5) for image in (0, 1, 2**40) for instance in (0, 9) for f in (4.0, 0.5)]


class TestStreamSeeding:
    def test_states_equal_default_rng(self):
        expected = [np.random.default_rng(list(key)).bit_generator.state for key in SEED_KEYS]
        states = list(_pcg64_states(SEED_KEYS))
        assert len(states) == len(SEED_KEYS)
        for key, (state, inc), want in zip(SEED_KEYS, states, expected):
            assert {"state": state, "inc": inc} == want["state"], key

    def test_first_draws_equal_default_rng(self):
        bitgen = np.random.PCG64(0)
        rng = np.random.Generator(bitgen)
        for key, (state, inc) in zip(SEED_KEYS, _pcg64_states(SEED_KEYS)):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            reference = np.random.default_rng(list(key))
            assert rng.random() == reference.random(), key
            assert rng.normal(0.0, 1.0, 4).tolist() == reference.normal(0.0, 1.0, 4).tolist()
            assert rng.integers(3) == reference.integers(3)
            assert rng.poisson(2.5) == reference.poisson(2.5)

    def test_one_key_and_no_keys(self):
        assert list(_pcg64_states([])) == []
        state = np.random.default_rng([1, 2, 3, 4]).bit_generator.state["state"]
        assert list(_pcg64_states([(1, 2, 3, 4)])) == [(state["state"], state["inc"])]

    @pytest.mark.parametrize("image_id, instance_id", [(-1, 1), (1, -1)])
    def test_negative_id_raises_like_default_rng(self, image_id, instance_id):
        dataset = Dataset(
            [ImageInfo(image_id, 100, 100)],
            [Instance(BBox(1.0, 1.0, 40.0, 40.0), 1, False, instance_id, image_id)],
            [{"id": 1, "name": "object"}],
        )
        with pytest.raises(ValueError):
            np.random.default_rng([0, image_id, instance_id, _factor_key(1.0)])
        with pytest.raises(ValueError):
            simulate_detections(dataset, PyramidSpec((1.0,)), DetectorProfile())


@st.composite
def simulations(draw):
    """A small dataset (possibly with images that hold no instance, one
    category or none listed), a pyramid and a detector profile. Noise stays
    small: a box 12 octaves out of band at 30% noise overflows `math.exp`."""
    image_ids = draw(st.lists(st.sampled_from((0, 1, 2, 7, 2**40)), min_size=1, max_size=3))
    num_categories = draw(st.integers(1, 3))
    coord = st.integers(0, 60).map(lambda v: 8.0 * v)
    size = st.sampled_from((1.0, 3.5, 12.0, 40.0, 100.0, 300.0, 900.0))
    instance_ids = st.sampled_from((0, 1, 2, 5, 99, 2**33))
    images = [ImageInfo(i, draw(st.integers(1, 600)), draw(st.integers(1, 800))) for i in image_ids]
    instances = [
        Instance(BBox(draw(coord), draw(coord), draw(size), draw(size)),
                 draw(st.integers(1, num_categories)), False, draw(instance_ids), image_id)
        for image_id in image_ids for _ in range(draw(st.integers(0, 4)))
    ]
    categories = [{"id": c, "name": f"c{c}"} for c in range(1, num_categories + 1)]
    if draw(st.booleans()):
        categories = []
    factors = draw(st.lists(st.sampled_from((4.0, 2.0, 1.0, 0.5, 0.25, 0.7, 4096.0)),
                            min_size=1, max_size=4, unique=True))
    profile = DetectorProfile(
        p_detect_in_band=draw(st.sampled_from((1.0, 0.95, 0.5))),
        p_detect_decay=draw(st.sampled_from((1.0, 0.5))),
        loc_noise_frac=draw(st.sampled_from((0.0, 0.02))),
        fp_rate=draw(st.sampled_from((0.0, 0.5, 3.0))),
        tp_score_std=draw(st.sampled_from((0.0, 0.1, 0.5))),
        seed=draw(st.sampled_from((0, 11, 2**32, 2**70))),
    )
    return Dataset(images, instances, categories), PyramidSpec(tuple(factors)), profile


def as_rows(per_resolution):
    """simulate_detections output in the reference's tuple form."""
    return [
        [(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.category_id, d.score, d.image_id,
          d.resolution_index) for d in dets]
        for _, dets in per_resolution
    ]


class TestReferenceAgreement:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(simulations())
    def test_equals_per_stream_reference(self, case):
        dataset, pyramid, profile = case
        got = simulate_detections(dataset, pyramid, profile)
        assert [factor for factor, _ in got] == list(pyramid)
        assert as_rows(got) == simulate_reference(dataset, pyramid, profile)

    @pytest.mark.parametrize("fp_rate", [0.0, 0.5, 8.0])
    def test_generated_dataset_equals_reference(self, fp_rate):
        dataset = generate_dataset(12, 4, crowd_fraction=0.2)
        profile = DetectorProfile(fp_rate=fp_rate, seed=11)
        got = simulate_detections(dataset, PYRAMID, profile)
        assert as_rows(got) == simulate_reference(dataset, PYRAMID, profile)
        # Every instance detected, scores clipped at both ends, and boxes
        # widened by up to ~1e152, short of the float range `exp` overflows.
        edge = DetectorProfile(p_detect_decay=1.0, loc_noise_growth=8.0, fp_rate=fp_rate,
                               tp_score_mean=0.5, tp_score_std=2.0, seed=11)
        rows = as_rows(simulate_detections(dataset, PYRAMID, edge))
        assert rows == simulate_reference(dataset, PYRAMID, edge)
        scores = [row[5] for factor_rows in rows for row in factor_rows]
        assert 0.0 in scores and 1.0 in scores
        assert max(row[2] for factor_rows in rows for row in factor_rows) > 1e150

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        num_images=st.integers(1, 6),
        seed=st.sampled_from((0, 1, 4, 11, 2**32, 2**70)),
        num_categories=st.integers(1, 4),
        crowd_fraction=st.sampled_from((0.0, 0.2, 1.0)),
        min_instances=st.integers(0, 5),
        extra_instances=st.sampled_from((0, 1, 7, 30)),
    )
    def test_generate_dataset_equals_generate_reference(
        self, num_images, seed, num_categories, crowd_fraction, min_instances, extra_instances
    ):
        """Field by field, the boxes bit for bit; the bounds include
        `min_instances == max_instances` and `min_instances=0`."""
        args = (num_images, seed, num_categories, min_instances,
                min_instances + extra_instances, crowd_fraction)
        dataset = generate_dataset(*args)
        images, instances, categories = generate_reference(*args)
        assert [(img.id, img.height, img.width) for img in dataset.images] == images
        got = [(i.bbox.x, i.bbox.y, i.bbox.w, i.bbox.h, i.category_id, i.iscrowd, i.id, i.image_id)
               for i in dataset.instances]
        assert [row[4:] for row in got] == [row[4:] for row in instances]
        bits = [struct.pack("<4d", *row[:4]) for row in got]
        assert bits == [struct.pack("<4d", *row[:4]) for row in instances]
        assert dataset.categories == categories
