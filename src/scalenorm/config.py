"""Application configuration: defaults, JSON config files, flag overrides.

The default pyramid is {4.0, 2.0, 1.0, 0.5, 0.25} and the default scale range
[16, 560]. Every field can be overridden by a config file (`--config`) and
then by command-line flags; the effective configuration is echoed into every
JSON output for provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .evaluation import EvalConfig
from .fusion import SoftNmsConfig
from .geometry import PyramidSpec, ScaleRange
from .pyramid import FpnAssignConfig
from .search import SearchSpace
from .simulate import DetectorProfile

DEFAULT_FACTORS = (4.0, 2.0, 1.0, 0.5, 0.25)
DEFAULT_RANGE = ScaleRange(16.0, 560.0)
_TOP_LEVEL_KEYS = frozenset(
    ("pyramid_factors", "scale_range", "soft_nms", "fusion_top_k", "eval", "search",
     "detector", "fpn", "seed")
)


@dataclass(frozen=True)
class AppConfig:
    pyramid: PyramidSpec = PyramidSpec(DEFAULT_FACTORS)
    scale_range: ScaleRange = DEFAULT_RANGE
    soft_nms: SoftNmsConfig = SoftNmsConfig()
    fusion_top_k: int | None = 100
    eval: EvalConfig = EvalConfig()
    search: SearchSpace = field(default_factory=SearchSpace)
    detector: DetectorProfile = DetectorProfile()
    fpn: FpnAssignConfig = FpnAssignConfig()
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "pyramid_factors": list(self.pyramid.factors),
            "scale_range": self.scale_range.to_pair(),
            "soft_nms": {
                "method": self.soft_nms.method,
                "sigma": self.soft_nms.sigma,
                "iou_threshold": self.soft_nms.iou_threshold,
                "score_floor": self.soft_nms.score_floor,
            },
            "fusion_top_k": self.fusion_top_k,
            "eval": {
                "iou_thresholds": list(self.eval.iou_thresholds),
                "recall_points": self.eval.recall_points,
                "max_dets": self.eval.max_dets,
                "scale_restriction": (
                    None
                    if self.eval.scale_restriction is None
                    else self.eval.scale_restriction.to_pair()
                ),
                "small_area": self.eval.small_area,
                "large_area": self.eval.large_area,
            },
            "search": {
                "lower_candidates": list(self.search.lower_candidates),
                "upper_candidates": list(self.search.upper_candidates),
                "initial": self.search.initial.to_pair(),
            },
            "detector": {
                "sweet_low": self.detector.sweet_low,
                "sweet_high": self.detector.sweet_high,
                "p_detect_in_band": self.detector.p_detect_in_band,
                "p_detect_decay": self.detector.p_detect_decay,
                "loc_noise_frac": self.detector.loc_noise_frac,
                "loc_noise_growth": self.detector.loc_noise_growth,
                "fp_rate": self.detector.fp_rate,
                "tp_score_mean": self.detector.tp_score_mean,
                "tp_score_std": self.detector.tp_score_std,
                "fp_score_mean": self.detector.fp_score_mean,
                "fp_score_std": self.detector.fp_score_std,
                "seed": self.detector.seed,
            },
            "fpn": {
                "canonical_scale": self.fpn.canonical_scale,
                "canonical_level": self.fpn.canonical_level,
                "min_level": self.fpn.min_level,
                "max_level": self.fpn.max_level,
            },
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AppConfig":
        unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        cfg = cls()
        if "pyramid_factors" in data:
            cfg = replace(cfg, pyramid=PyramidSpec(tuple(data["pyramid_factors"])))
        if "scale_range" in data:
            cfg = replace(cfg, scale_range=ScaleRange.from_pair(data["scale_range"]))
        if "soft_nms" in data:
            cfg = replace(cfg, soft_nms=SoftNmsConfig(**data["soft_nms"]))
        if "fusion_top_k" in data:
            top_k = data["fusion_top_k"]
            cfg = replace(cfg, fusion_top_k=None if top_k is None else int(top_k))
        if "eval" in data:
            section = dict(data["eval"])
            if "iou_thresholds" in section:
                section["iou_thresholds"] = tuple(section["iou_thresholds"])
            if section.get("scale_restriction") is not None:
                section["scale_restriction"] = ScaleRange.from_pair(
                    section["scale_restriction"]
                )
            cfg = replace(cfg, eval=EvalConfig(**section))
        if "search" in data:
            section = dict(data["search"])
            kwargs = {}
            if "lower_candidates" in section:
                kwargs["lower_candidates"] = tuple(
                    float(v) for v in section["lower_candidates"]
                )
            if "upper_candidates" in section:
                kwargs["upper_candidates"] = tuple(
                    float(v) for v in section["upper_candidates"]
                )
            if "initial" in section:
                kwargs["initial"] = ScaleRange.from_pair(section["initial"])
            cfg = replace(cfg, search=SearchSpace(**kwargs))
        if "detector" in data:
            cfg = replace(cfg, detector=DetectorProfile(**data["detector"]))
        if "fpn" in data:
            cfg = replace(cfg, fpn=FpnAssignConfig(**data["fpn"]))
        if "seed" in data:
            cfg = replace(cfg, seed=int(data["seed"]))
        return cfg

    def with_seed(self, seed: int) -> "AppConfig":
        return replace(self, seed=seed, detector=replace(self.detector, seed=seed))


def apply_override(data: dict, assignment: str) -> dict:
    """Apply one 'dotted.path=json_value' override to a config dict."""
    import json

    if "=" not in assignment:
        raise ValueError(f"expected 'path=value', got {assignment!r}")
    path, _, raw = assignment.partition("=")
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ValueError(f"empty config path in {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"config path {path!r} does not address a section")
    node[keys[-1]] = value
    return data


def parse_range(text: str) -> ScaleRange:
    """Parse "lower,upper" where upper may be "inf"."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lower,upper', got {text!r}")
    lower = float(parts[0])
    upper_text = parts[1].strip().lower()
    upper = math.inf if upper_text in ("inf", "none", "") else float(parts[1])
    return ScaleRange(lower, upper)


def parse_factors(text: str) -> PyramidSpec:
    return PyramidSpec(tuple(float(v) for v in text.split(",") if v.strip()))
