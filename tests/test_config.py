import json
import math
import re
from dataclasses import replace

import pytest

from scalenorm import ScaleRange
from scalenorm.config import AppConfig, apply_override, parse_range
from scalenorm.evaluation import EvalConfig
from scalenorm.fusion import SoftNmsConfig
from scalenorm.geometry import PyramidSpec
from scalenorm.pyramid import FpnAssignConfig
from scalenorm.search import SearchSpace
from scalenorm.simulate import DetectorProfile

# Every field differs from its default, including a None top-k, an unbounded
# scale range and a set evaluation scale restriction.
OFF_DEFAULT = AppConfig(
    pyramid=PyramidSpec((3.0, 1.5, 0.75)),
    scale_range=ScaleRange(8.0, math.inf),
    soft_nms=SoftNmsConfig("linear", 0.25, 0.45, 0.01),
    fusion_top_k=None,
    eval=EvalConfig((0.5, 0.75), 11, 20, ScaleRange(24.0, 480.0), 256.0, 4096.0),
    search=SearchSpace((0.0, 8.0, 24.0), (256.0, 512.0), ScaleRange(8.0, 512.0)),
    detector=DetectorProfile(24.0, 400.0, 0.9, 0.4, 0.03, 1.5, 0.25, 0.7, 0.05, 0.2, 0.1, 5),
    fpn=FpnAssignConfig(112.0, 3, 1, 6),
    seed=11,
)

OFF_DEFAULT_JSON = (
    '{"detector": {"fp_rate": 0.25, "fp_score_mean": 0.2, "fp_score_std": 0.1, '
    '"loc_noise_frac": 0.03, "loc_noise_growth": 1.5, "p_detect_decay": 0.4, '
    '"p_detect_in_band": 0.9, "seed": 5, "sweet_high": 400.0, "sweet_low": 24.0, '
    '"tp_score_mean": 0.7, "tp_score_std": 0.05}, '
    '"eval": {"iou_thresholds": [0.5, 0.75], "large_area": 4096.0, "max_dets": 20, '
    '"recall_points": 11, "scale_restriction": [24.0, 480.0], "small_area": 256.0}, '
    '"fpn": {"canonical_level": 3, "canonical_scale": 112.0, "max_level": 6, "min_level": 1}, '
    '"fusion_top_k": null, "pyramid_factors": [3.0, 1.5, 0.75], "scale_range": [8.0, null], '
    '"search": {"initial": [8.0, 512.0], "lower_candidates": [0.0, 8.0, 24.0], '
    '"upper_candidates": [256.0, 512.0]}, "seed": 11, '
    '"soft_nms": {"iou_threshold": 0.45, "method": "linear", "score_floor": 0.01, "sigma": 0.25}}'
)


class TestDefaults:
    def test_published_settings(self):
        cfg = AppConfig()
        assert cfg.pyramid.factors == (4.0, 2.0, 1.0, 0.5, 0.25)
        assert (cfg.scale_range.lower, cfg.scale_range.upper) == (16.0, 560.0)
        assert cfg.soft_nms.method == "gaussian"
        assert cfg.search.initial == ScaleRange(0.0, 640.0)

    def test_dict_round_trip(self):
        cfg = AppConfig()
        assert AppConfig.from_dict(cfg.to_dict()) == cfg

    def test_off_default_json_pinned(self):
        assert json.dumps(OFF_DEFAULT.to_dict(), sort_keys=True) == OFF_DEFAULT_JSON

    def test_off_default_round_trip(self):
        assert AppConfig.from_dict(OFF_DEFAULT.to_dict()) == OFF_DEFAULT
        assert AppConfig.from_dict(json.loads(OFF_DEFAULT_JSON)) == OFF_DEFAULT

    def test_partial_dict_keeps_defaults(self):
        cfg = AppConfig.from_dict({"scale_range": [8, 320]})
        assert cfg.scale_range == ScaleRange(8.0, 320.0)
        assert cfg.pyramid.factors == (4.0, 2.0, 1.0, 0.5, 0.25)

    @pytest.mark.parametrize("key", ["soft_nm", "fusion_topk"])
    def test_unknown_top_level_key_rejected(self, key):
        data = AppConfig().to_dict()
        data[key] = 5
        with pytest.raises(ValueError, match=repr(key)):
            AppConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"search": {"foo": 1}}, "unknown config key(s): 'search.foo'"),
            ({"eval": [1]}, "config key 'eval': expected an object, got [1]"),
            ({"eval": {"iou_thresholds": 0.5}}, "config key 'eval.iou_thresholds': expected a list"),
            ({"eval": {"scale_restriction": [16, math.inf]}},
             "config key 'eval.scale_restriction': expected a finite number, got inf"),
            ({"pyramid_factors": [1.0, True]}, "config key 'pyramid_factors': expected a finite"),
            ({"fpn": {"min_level": 1.0}}, "config key 'fpn.min_level': expected an integer"),
            ({"fusion_top_k": "5"}, "config key 'fusion_top_k': expected an integer, got '5'"),
            ({"soft_nms": {"method": None}}, "config key 'soft_nms.method': expected a string"),
            ({"scale_range": [560, 16]}, "config key 'scale_range': invalid scale range"),
            ({"search": {"initial": [8, 640]}}, "config key 'search': initial bounds"),
            ({"fusion_top_k": 0}, "config key 'fusion_top_k': expected null or an integer >= 1"),
            ({"fusion_top_k": -1}, "config key 'fusion_top_k': expected null or an integer >= 1"),
            ({"seed": -1}, "config key 'seed': expected an integer >= 0, got -1"),
            ([1, 2], "config: expected an object, got [1, 2]"),
        ],
    )
    def test_strict_decoding_names_key(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AppConfig.from_dict(data)

    @pytest.mark.parametrize("top_k", [0, -1, 2.5, True])
    def test_top_k_checked_on_construction(self, top_k):
        with pytest.raises(ValueError, match="^config key 'fusion_top_k': "):
            replace(AppConfig(), fusion_top_k=top_k)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_seed_checked_on_construction(self, seed):
        with pytest.raises(ValueError, match="^config key 'seed': "):
            replace(AppConfig(), seed=seed)

    @pytest.mark.parametrize("top_k", [None, 1, 100])
    def test_top_k_accepts_null_and_positive(self, top_k):
        cfg = AppConfig.from_dict({"fusion_top_k": top_k})
        assert cfg.fusion_top_k == top_k

    def test_integer_for_float_field_stored_as_float(self):
        cfg = AppConfig.from_dict({"soft_nms": {"sigma": 1}, "scale_range": [8, None]})
        assert json.dumps(cfg.to_dict()["soft_nms"]["sigma"]) == "1.0"
        assert cfg.scale_range.to_pair() == [8.0, None]

    def test_with_seed_propagates_to_detector(self):
        cfg = AppConfig().with_seed(42)
        assert cfg.seed == 42 and cfg.detector.seed == 42

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_with_seed_names_the_config_key(self, seed):
        with pytest.raises(ValueError) as err:
            AppConfig().with_seed(seed)
        assert str(err.value) == f"config key 'seed': expected an integer >= 0, got {seed!r}"


class TestOverrides:
    def test_nested_field(self):
        data = AppConfig().to_dict()
        apply_override(data, "soft_nms.sigma=0.7")
        assert AppConfig.from_dict(data).soft_nms.sigma == 0.7

    def test_list_value(self):
        data = AppConfig().to_dict()
        apply_override(data, "pyramid_factors=[2.0, 1.0]")
        assert AppConfig.from_dict(data).pyramid.factors == (2.0, 1.0)

    def test_string_value_falls_through(self):
        data = AppConfig().to_dict()
        apply_override(data, "soft_nms.method=linear")
        assert AppConfig.from_dict(data).soft_nms.method == "linear"

    def test_rejects_missing_equals(self):
        with pytest.raises(ValueError):
            apply_override({}, "soft_nms.sigma")


class TestParsers:
    def test_range(self):
        assert parse_range("16,560") == ScaleRange(16.0, 560.0)
        assert parse_range("0,inf").upper == math.inf
        assert parse_range(" 16 , inf ") == ScaleRange(16.0, math.inf)
        with pytest.raises(ValueError):
            parse_range("16")

    @pytest.mark.parametrize("text", ["a,560", "16,b", "16,560,640"])
    def test_range_text_that_is_not_two_numbers_is_named(self, text):
        with pytest.raises(ValueError) as caught:
            parse_range(text)
        assert str(caught.value) == f"expected 'lower,upper', got {text!r}"
