"""Detector-agnostic tooling for scale-consistent training-sample selection,
multi-resolution prediction fusion, COCO-style evaluation, and greedy
scale-range search, validated end-to-end against a synthetic detector."""

from .geometry import (
    UNBOUNDED_RANGE,
    BBox,
    Detection,
    Instance,
    PyramidSpec,
    ScaleRange,
    instance_scale,
    project_box,
    resize_plan,
)
from .sampling import (
    DEFAULT_SNIP_TABLE,
    IsnPolicy,
    Partition,
    ScaleHistogram,
    SnipEntry,
    SnipPolicy,
    SnipRangeTable,
    consistency_overlap,
    isn_partition,
    resized_scale_distributions,
    snip_partition,
)
from .fusion import SoftNmsConfig, fuse_multiscale, gate_predictions, soft_nms
from .evaluation import EvalConfig, EvalResult, EvaluationError, ap_by_scale_report, evaluate
from .search import ApOracle, SearchAborted, SearchSpace, greedy_range_search
from .pyramid import FpnAssignConfig, fpn_level, stage_histogram
from .simulate import (
    DetectorProfile,
    detection_probability,
    generate_dataset,
    run_experiment,
    simulate_detections,
    strategy_detections,
)
from .dataio import DataFormatError, Dataset, ImageInfo, load_annotations
from .config import AppConfig

__version__ = "0.1.0"

__all__ = [
    "AppConfig",
    "ApOracle",
    "BBox",
    "DataFormatError",
    "Dataset",
    "DEFAULT_SNIP_TABLE",
    "Detection",
    "DetectorProfile",
    "EvalConfig",
    "EvalResult",
    "EvaluationError",
    "FpnAssignConfig",
    "ImageInfo",
    "Instance",
    "IsnPolicy",
    "Partition",
    "PyramidSpec",
    "ScaleHistogram",
    "ScaleRange",
    "SearchAborted",
    "SearchSpace",
    "SnipEntry",
    "SnipPolicy",
    "SnipRangeTable",
    "SoftNmsConfig",
    "UNBOUNDED_RANGE",
    "ap_by_scale_report",
    "consistency_overlap",
    "detection_probability",
    "evaluate",
    "fpn_level",
    "fuse_multiscale",
    "gate_predictions",
    "generate_dataset",
    "greedy_range_search",
    "instance_scale",
    "isn_partition",
    "load_annotations",
    "project_box",
    "resize_plan",
    "resized_scale_distributions",
    "run_experiment",
    "simulate_detections",
    "snip_partition",
    "soft_nms",
    "stage_histogram",
    "strategy_detections",
]
