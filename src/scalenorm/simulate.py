"""Synthetic scale-conditioned detector for end-to-end pipeline validation.

The simulator stands in for a real detector: on each pyramid resolution it
detects every ground-truth object with a probability that is flat inside a
"sweet" resized-scale band and decays multiplicatively per octave outside it,
while localization noise grows per octave outside the band. Spurious
detections arrive at a Poisson rate per (image, resolution). All draws come
from per-(instance, resolution) substreams keyed on stable integers, so runs
are reproducible and adding resolutions never perturbs existing draws.

Stream (instance, resolution) is `default_rng([seed, image, instance,
factor_key])` and stream (image, resolution) of the spurious detections is
`default_rng([seed, image, factor_key, 0x5F])`. One call seeds all of its
streams in one batched pass that reproduces those generators' states bit for
bit, then draws from each in turn with one reused generator.

Each record's values come from one generator call, with the same bits as
the scalar draws they stand for: one `random(4)` is four `uniform` draws,
since `uniform(low, high)` is `low + (high - low) * random()`; and one
`standard_normal(5)` is `normal(0, 1, 4)` followed by `normal(mean, std)`,
since `normal(loc, scale)` is `loc + scale * standard_normal()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .dataio import Dataset, ImageInfo
from .evaluation import (
    EvalConfig, EvalResult, _DetectionRows, _GroundTruth, _mean_defined, _score, evaluate,
)
# benchmark/spans.py traces gate_predictions and soft_nms under this module's names.
from .fusion import SoftNmsConfig, fuse_multiscale, gate_predictions, soft_nms
from .fusion import _FusionIndex, _resolution_rows
from .geometry import (
    _SCORE,
    UNBOUNDED_RANGE,
    BBox,
    Detection,
    Instance,
    PyramidSpec,
    ScaleRange,
    resize_plan,
)

STRATEGIES = ("isn", "naive_ms", "single_scale")

_FP_STREAM = 0x5F
# generate_dataset's images (height, width) and the logs of its instance scale bounds.
_IMAGE_SIZE = (480, 640)
_LOG_SCALE_BOUNDS = (math.log(4.0), math.log(640.0))
_LOG_HALF, _LOG_TWO = math.log(0.5), math.log(2.0)  # _random_box's aspect bounds

# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_WORD = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _PCG_MASK = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


@dataclass(frozen=True)
class DetectorProfile:
    """Synthetic detector behavior, parameterized by resized-object scale."""

    sweet_low: float = 32.0
    sweet_high: float = 480.0
    p_detect_in_band: float = 0.95
    p_detect_decay: float = 0.5
    loc_noise_frac: float = 0.02
    loc_noise_growth: float = 2.0
    fp_rate: float = 0.5
    tp_score_mean: float = 0.8
    tp_score_std: float = 0.1
    fp_score_mean: float = 0.3
    fp_score_std: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.sweet_low < self.sweet_high:
            raise ValueError("need 0 < sweet_low < sweet_high")
        if not 0.0 <= self.p_detect_in_band <= 1.0:
            raise ValueError("p_detect_in_band outside [0, 1]")
        if not 0.0 < self.p_detect_decay <= 1.0:
            raise ValueError("p_detect_decay outside (0, 1]")
        if min(self.loc_noise_frac, self.loc_noise_growth, self.fp_rate) < 0:
            raise ValueError("noise and rate parameters must be non-negative")
        if min(self.tp_score_std, self.fp_score_std) < 0:
            raise ValueError("score model stds must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def octaves_outside_band(resized_scale: float, profile: DetectorProfile) -> float:
    """Distance (in octaves) from the nearest sweet-band edge; 0 inside."""
    if resized_scale < profile.sweet_low:
        return math.log2(profile.sweet_low / resized_scale)
    if resized_scale > profile.sweet_high:
        return math.log2(resized_scale / profile.sweet_high)
    return 0.0


def detection_probability(resized_scale: float, profile: DetectorProfile) -> float:
    return profile.p_detect_in_band * profile.p_detect_decay ** octaves_outside_band(
        resized_scale, profile
    )


def localization_noise(resized_scale: float, profile: DetectorProfile) -> float:
    return profile.loc_noise_frac * profile.loc_noise_growth ** octaves_outside_band(
        resized_scale, profile
    )


def _factor_key(factor: float) -> int:
    # Stable integer stream key; factors closer than 2**-20 would collide,
    # which PyramidSpec's uniqueness check makes irrelevant in practice.
    return int(round(factor * (1 << 20)))


def _clip01(value: float) -> float:
    return min(1.0, max(0.0, value))


def _hashmix(hash_const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix over uint32 arrays; each call advances one running constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = (value ^ hash_const) * (hash_const := hash_const * mult & _WORD)
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


def _pcg64_states(keys: list[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of `np.random.default_rng(list(key))` for each key in
    turn, bit for bit: NumPy's SeedSequence (a pool of 4 words) hashes every
    key at once in uint32 arrays and keeps only its output words; PCG64's
    set_seed then runs in Python ints on each pair as it is taken."""
    flat = [part for key in keys for part in key]
    if min(flat, default=0) < 0:
        raise ValueError(f"stream key parts must be non-negative, got {min(flat)}")
    if max(flat, default=0) > _WORD:  # SeedSequence splits each part into little-endian words
        keys = [[part >> shift & _WORD for part in key
                 for shift in range(0, max(1, part.bit_length()), 32)] for key in keys]
        flat = [word for key in keys for word in key]
    lengths = np.array([len(key) for key in keys], dtype=int)
    entropy = np.zeros((len(keys), max(4, lengths.max(initial=0))), np.uint32)
    entropy[np.arange(entropy.shape[1]) < lengths[:, None]] = flat
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = np.where(src < lengths, _mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    # generate_state(4, uint64): 8 words from the pool in turn, read as little-endian pairs.
    words = np.stack([*map(_hashmix(_INIT_B, _MULT_B), pool + pool)], axis=1).astype("<u4")

    def set_seed(rows):  # rows of 64-bit words: state hi, state lo, sequence hi, sequence lo
        for s_hi, s_lo, q_hi, q_lo in rows:
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _PCG_MASK
            yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _PCG_MASK, inc
    return set_seed(map(np.ndarray.tolist, words.view("<u8")))


def simulate_detections(
    dataset: Dataset, pyramid: PyramidSpec, profile: DetectorProfile
) -> list[tuple[float, list[Detection]]]:
    """Detector surrogate: per-resolution detections in resized coordinates."""
    cat_ids = dataset.category_ids()
    by_image = dataset.instances_by_image()
    groups = [(img, sorted(by_image.get(img.id, []), key=lambda x: x.id))
              for img in sorted(dataset.images, key=lambda img: img.id)]
    boxes = np.array([(i.bbox.x, i.bbox.y, i.bbox.w, i.bbox.h)
                      for _, insts in groups for i in insts]).reshape(-1, 4)
    scales = np.sqrt(boxes[:, 2] * boxes[:, 3])
    spurious = profile.fp_rate != 0 and bool(cat_ids)
    keys = []
    for fkey in map(_factor_key, pyramid):
        for img, insts in groups:
            keys += [(profile.seed, img.id, inst.id, fkey) for inst in insts]
            if spurious:
                keys.append((profile.seed, img.id, fkey, _FP_STREAM))
    streams = _pcg64_states(keys)
    del keys  # hashed; free them before the records are built
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)

    def next_stream() -> None:  # point `rng` at the next stream, fresh as from default_rng
        state, inc = next(streams)
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}

    out = []
    for index, factor in enumerate(pyramid):
        rows = zip(map(np.ndarray.tolist, boxes * factor), (factor * scales).tolist())
        dets: list[Detection] = []
        for img, insts in groups:
            for inst, ((x, y, w, h), resized) in zip(insts, rows):
                next_stream()
                if rng.random() >= detection_probability(resized, profile):
                    continue
                dx, dy, dw, dh, z = rng.standard_normal(5).tolist()
                try:  # the noise grows without bound away from the sweet band
                    sigma = localization_noise(resized, profile)
                    jittered = BBox(
                        max(0.0, x + dx * sigma * w),
                        max(0.0, y + dy * sigma * h),
                        w * math.exp(dw * sigma),
                        h * math.exp(dh * sigma),
                    )
                except (OverflowError, ValueError) as exc:
                    raise ValueError(
                        f"localization jitter out of float range at pyramid factor {factor}: "
                        "lower detector.loc_noise_frac or detector.loc_noise_growth"
                    ) from exc
                score = _clip01(profile.tp_score_mean + profile.tp_score_std * z)
                dets.append(Detection(jittered, inst.category_id, score, img.id, index))
            if spurious:  # Poisson count, then per detection: box, score, category
                next_stream()
                rh, rw = resize_plan(img.height, img.width, factor)
                for _ in range(int(rng.poisson(profile.fp_rate))):
                    box = _random_box(rng, math.log(8.0), math.log(max(16.0, 0.5 * min(rh, rw))),
                                      rh, rw)
                    score = _clip01(float(rng.normal(profile.fp_score_mean, profile.fp_score_std)))
                    cat = cat_ids[int(rng.integers(len(cat_ids)))]
                    dets.append(Detection(box, cat, score, img.id, index))
        out.append((factor, dets))
    return out


def _random_box(rng: np.random.Generator, log_low: float, log_high: float, height: int,
                width: int) -> BBox:
    """Log-uniform scale in [e**log_low, e**log_high] and aspect in [1/2, 2],
    uniform position inside a `height` x `width` image (drawn in that order). One
    `random(4)` call gives the four draws, each scaled as `uniform` scales
    it, `low + (high - low) * u` (at low 0, `high * u`): the bits of four
    `uniform` calls."""
    a, b, c, d = rng.random(4).tolist()
    scale = math.exp(log_low + (log_high - log_low) * a)
    root = math.sqrt(math.exp(_LOG_HALF + (_LOG_TWO - _LOG_HALF) * b))  # of the aspect
    w = scale * root
    h = scale / root
    x = max(1e-6, width - w) * c
    y = max(1e-6, height - h) * d
    return BBox(x, y, w, h)


def generate_dataset(
    num_images: int,
    seed: int,
    num_categories: int = 3,
    min_instances: int = 1,
    max_instances: int = 20,
    crowd_fraction: float = 0.0,
) -> Dataset:
    """Random benchmark dataset: log-uniform instance scales, seeded."""
    if num_images < 1:
        raise ValueError(f"num_images must be at least 1, got {num_images}")
    if num_categories < 1:
        raise ValueError(f"num_categories must be at least 1, got {num_categories}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if min_instances < 0:
        raise ValueError(f"min_instances must be non-negative, got {min_instances}")
    if min_instances > max_instances:
        raise ValueError(f"min_instances {min_instances} exceeds max_instances {max_instances}")
    if not 0.0 <= crowd_fraction <= 1.0:
        raise ValueError(f"crowd_fraction must lie in [0, 1], got {crowd_fraction!r}")
    rng = np.random.default_rng([seed, 0xDA7A])
    height, width = _IMAGE_SIZE
    log_low, log_high = _LOG_SCALE_BOUNDS
    images = []
    instances = []
    next_id = 1
    for img_id in range(1, num_images + 1):
        images.append(ImageInfo(img_id, height, width))
        count = int(rng.integers(min_instances, max_instances + 1))
        for _ in range(count):  # box, category, crowd flag: drawn in argument order
            instances.append(Instance(
                _random_box(rng, log_low, log_high, height, width),
                int(rng.integers(1, num_categories + 1)),
                bool(rng.random() < crowd_fraction),
                next_id,
                img_id,
            ))
            next_id += 1
    categories = [
        {"id": i, "name": f"class_{i}"} for i in range(1, num_categories + 1)
    ]
    return Dataset(images, instances, categories)


def strategy_detections(
    per_resolution: list[tuple[float, list[Detection]]],
    image_ids: list[int],
    scale_range: ScaleRange,
    strategy: str,
    nms_cfg: SoftNmsConfig | None = None,
    top_k: int | None = 100,
) -> list[Detection]:
    """Apply a test-time strategy to the detections of `image_ids`, fusing
    each image on its own; the output is in image id order. Single-scale
    testing fuses the original image's (factor 1.0) detections ungated."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "single_scale":
        per_resolution = [pair for pair in per_resolution if pair[0] == 1.0][:1]
        if not per_resolution:
            raise ValueError("single_scale factor 1.0 not among resolutions")

    gate = scale_range if strategy == "isn" else UNBOUNDED_RANGE
    given = set(image_ids)
    per_resolution = [(f, [d for d in dets if d.image_id in given]) for f, dets in per_resolution]
    return fuse_multiscale(per_resolution, gate, nms_cfg, top_k)


def isn_range_evaluator(
    dataset: Dataset,
    per_resolution: list[tuple[float, list[Detection]]],
    hull: ScaleRange,
    nms_cfg: SoftNmsConfig,
    top_k: int | None,
    eval_cfg: EvalConfig,
) -> Callable[[ScaleRange], float]:
    """The AP that `evaluate` gives ISN fusion at any range inside `hull`,
    bit for bit. The ground truth, the fusion index of the dataset's
    detections and its rows' IoU with the ground truth are prepared once; a
    probe hands its fused rows straight to evaluation. The ground-truth side
    holds the `all` bucket alone, the only one AP reads, so a probe matches
    and accumulates one lane per IoU threshold. As in `evaluate`, a
    ground-truth instance or a detection inside `hull` whose category is not
    the dataset's raises EvaluationError; the message numbers such a
    detection among those detections, in input order."""
    given = {img.id for img in dataset.images}
    per_resolution = [(f, [d for d in dets if d.image_id in given]) for f, dets in per_resolution]
    index = _FusionIndex(*_resolution_rows(per_resolution), hull, nms_cfg)
    truth = _GroundTruth(dataset.instances, dataset.category_ids(), eval_cfg, buckets=1)
    rows = _DetectionRows(index.table, truth, eval_cfg)
    memo: dict = {}  # AP and recall rows of a category, by its fused row ids and scores

    def probe(rng: ScaleRange) -> float:
        ids, fused = index.probe(rng, top_k)
        aps, _ = _score(truth, rows, ids, fused[:, _SCORE], eval_cfg, memo)
        return _mean_defined(aps[:, 0])

    return probe


def run_experiment(
    dataset: Dataset,
    pyramid: PyramidSpec,
    scale_range: ScaleRange,
    profile: DetectorProfile,
    strategy: str,
) -> EvalResult:
    """Simulate, apply the strategy, and evaluate with the default Soft-NMS,
    top-k and metrics: one synthetic experiment."""
    per_resolution = simulate_detections(dataset, pyramid, profile)
    image_ids = sorted(img.id for img in dataset.images)
    fused = strategy_detections(per_resolution, image_ids, scale_range, strategy)
    return evaluate(dataset.instances, fused, categories=dataset.category_ids())
