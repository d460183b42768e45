import math

import pytest

from scalenorm import ScaleRange
from scalenorm.config import AppConfig, apply_override, parse_factors, parse_range


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

    def test_with_seed_propagates_to_detector(self):
        cfg = AppConfig().with_seed(42)
        assert cfg.seed == 42 and cfg.detector.seed == 42


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
        with pytest.raises(ValueError):
            parse_range("16")

    def test_factors(self):
        assert parse_factors("4.0,2.0,1.0").factors == (4.0, 2.0, 1.0)
