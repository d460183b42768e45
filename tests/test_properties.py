"""Hypothesis properties of fusion, the two Soft-NMS greedy loops, range
search, the search's probe path, closed-form matching, the detection-dump
reader and the JSON writer.

Every property runs derandomized, so a failure reproduces on every run.
Boxes sit on a coarse grid and scores come from a short list, so exact ties
in the candidate order, duplicate boxes and equal scores are common.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalenorm import (
    ApOracle,
    BBox,
    Detection,
    DetectorProfile,
    EvalConfig,
    PyramidSpec,
    ScaleRange,
    SearchSpace,
    SoftNmsConfig,
    UNBOUNDED_RANGE,
    evaluate,
    fuse_multiscale,
    generate_dataset,
    greedy_range_search,
    simulate_detections,
    soft_nms,
    strategy_detections,
)
from scalenorm import dataio
from scalenorm.dataio import DataFormatError, write_json
from scalenorm.evaluation import BUCKET_NAMES, EvalResult, _match_single, _match_unit
from scalenorm.fusion import (
    _SMALL_BLOCK, _FusionIndex, _decay_factors, _detections, _greedy_arrays, _greedy_lists,
    _resolution_rows,
)
from scalenorm.geometry import _detection_table, iou_matrix, to_corners
from scalenorm.simulate import isn_range_evaluator

from conftest import assert_as_constructed

FACTORS = (4.0, 2.0, 1.0, 0.5, 0.25, 3.0)
SCORES = (0.9, 0.7, 0.5, 0.3, 0.05)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

nms_configs = st.builds(
    SoftNmsConfig,
    method=st.sampled_from(("gaussian", "linear", "hard")),
    sigma=st.sampled_from((0.3, 0.5)),
    iou_threshold=st.sampled_from((0.3, 0.5)),
    score_floor=st.sampled_from((0.0, 0.001, 0.2)),
)
ranges = st.sampled_from(
    (UNBOUNDED_RANGE, ScaleRange(16.0, 560.0), ScaleRange(8.0, 40.0), ScaleRange(0.0, 24.0))
)
# Any range on a grid of bounds that boxes of the strategies below hit exactly.
grid_ranges = st.tuples(
    st.sampled_from((0.0, 4.0, 8.0, 16.0, 24.0, 32.0)),
    st.sampled_from((12.0, 24.0, 40.0, 96.0, 560.0, float("inf"))),
).filter(lambda pair: pair[0] < pair[1]).map(lambda pair: ScaleRange(*pair))


@st.composite
def detections(draw, resolution_index=-1, image_id=1, max_size=12):
    coord = st.integers(0, 12).map(lambda v: 4.0 * v)
    size = st.integers(1, 12).map(lambda v: 4.0 * v)
    return [
        Detection(
            BBox(draw(coord), draw(coord), draw(size), draw(size)),
            draw(st.integers(1, 2)),
            draw(st.sampled_from(SCORES)),
            image_id,
            resolution_index,
        )
        for _ in range(draw(st.integers(0, max_size)))
    ]


@st.composite
def stacks(draw, image_id=1):
    """One image's detections at up to four distinct pyramid factors."""
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4, unique=True))
    return [
        (factor, draw(detections(resolution_index=index, image_id=image_id)))
        for index, factor in enumerate(factors)
    ]


@st.composite
def image_stacks(draw):
    """Up to three images' detections at up to three shared pyramid factors,
    the images' detections interleaved within each resolution."""
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3, unique=True))
    images = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
    return images, [
        (factor, draw(st.permutations([
            d for image in images
            for d in draw(detections(resolution_index=index, image_id=image, max_size=8))
        ])))
        for index, factor in enumerate(factors)
    ]


class TestFusionProperties:
    @PROPERTY
    @given(stacks(), grid_ranges, nms_configs)
    def test_records_from_checked_rows_are_as_constructed(self, stack, window, cfg):
        """A checked table's rows come back as the records that built it, and
        fused rows as the records the checking constructors build."""
        dets = [d for _, ds in stack for d in ds]
        assert_as_constructed(rebuilt := _detections(_detection_table(dets)))
        assert [(d, repr(d)) for d in rebuilt] == [(d, repr(d)) for d in dets]
        assert_as_constructed(fuse_multiscale(stack, window, cfg, None))

    @PROPERTY
    @given(stacks(), ranges, nms_configs, st.randoms(use_true_random=False))
    def test_resolution_order_does_not_matter(self, stack, window, cfg, random):
        shuffled = list(stack)
        random.shuffle(shuffled)
        assert fuse_multiscale(shuffled, window, cfg) == fuse_multiscale(stack, window, cfg)

    @PROPERTY
    @given(detections(max_size=16), nms_configs)
    def test_no_score_raised_and_top_input_survives(self, dets, cfg):
        kept = soft_nms(dets, cfg)
        for d in kept:
            same = [e.score for e in dets if (e.bbox, e.category_id) == (d.bbox, d.category_id)]
            assert d.score <= max(same)
        if dets:
            top = max(d.score for d in dets)
            assert kept[0].score == top
            assert any(d == kept[0] for d in dets)

    @PROPERTY
    @given(
        stacks(),
        st.lists(grid_ranges, min_size=1, max_size=4),
        nms_configs,
        st.sampled_from((None, 1, 3, 100)),
    )
    def test_probing_one_index_equals_fusing(self, stack, windows, cfg, top_k):
        hull = ScaleRange(min(w.lower for w in windows), max(w.upper for w in windows))
        index = _FusionIndex(*_resolution_rows(stack), hull, cfg)
        for window in windows + windows[::-1]:  # repeats are served from the index's memo
            rows, fused = index.probe(window, top_k)
            assert (index.table[rows, :4] == fused[:, :4]).all()
            assert _detections(fused) == fuse_multiscale(stack, window, cfg, top_k)

    @PROPERTY
    @given(
        image_stacks(),
        st.lists(grid_ranges, min_size=1, max_size=3),
        nms_configs,
        st.sampled_from((None, 1, 3, 100)),
    )
    def test_probing_a_multi_image_index_fuses_each_image(self, case, windows, cfg, top_k):
        images, stack = case
        hull = ScaleRange(min(w.lower for w in windows), max(w.upper for w in windows))
        index = _FusionIndex(*_resolution_rows(stack), hull, cfg)
        for window in windows + windows[::-1]:
            _, fused = index.probe(window, top_k)
            assert _detections(fused) == [
                d for image in sorted(images) for d in fuse_multiscale(
                    [(f, [e for e in dets if e.image_id == image]) for f, dets in stack],
                    window, cfg, top_k,
                )
            ]


@st.composite
def greedy_blocks(draw):
    """One Soft-NMS block: its scores, its decay matrix under a drawn config
    and the rows a drawn range leaves active. Sizes lie on both sides of
    `_SMALL_BLOCK`; scores come from a short list that holds 0 and every
    floor of `nms_configs`, in any order, so equal scores meet equal boxes."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(_SMALL_BLOCK - 3, _SMALL_BLOCK + 4)))
    boxes = np.array(draw(st.lists(
        st.tuples(*[st.integers(0, 12)] * 2, *[st.integers(1, 12)] * 2), min_size=n, max_size=n,
    )), dtype=float) * 4.0
    scores = np.array(draw(st.lists(st.sampled_from(SCORES + (0.2, 0.001, 0.0)),
                                    min_size=n, max_size=n)))
    cfg = draw(nms_configs)
    active = draw(grid_ranges).contains(np.sqrt(boxes[:, 2] * boxes[:, 3]))
    corners = to_corners(boxes)
    return scores, _decay_factors(iou_matrix(corners, corners), cfg), active, cfg.score_floor


class TestGreedyLoops:
    @PROPERTY
    @given(greedy_blocks())
    def test_list_loop_equals_array_loop_bit_for_bit(self, block):
        scores, decay, active, floor = block
        picks, kept = _greedy_arrays(scores.copy(), decay, active.copy(), floor)
        got_picks, got_kept = _greedy_lists(scores.copy(), decay, active.copy(), floor)
        assert got_picks == picks
        assert got_kept.dtype == kept.dtype and got_kept.tobytes() == kept.tobytes()


@st.composite
def searches(draw):
    """A search space on small candidate grids and an AP for every pair,
    drawn from a short list so ties between probes are common."""
    lows = sorted(draw(st.sets(st.sampled_from((0.0, 8.0, 16.0, 32.0, 64.0)), min_size=1)))
    highs = sorted(draw(st.sets(st.sampled_from((48.0, 96.0, 320.0, 560.0, 640.0)), min_size=1))
                   | {640.0})
    lower = draw(st.sampled_from(lows))
    upper = draw(st.sampled_from(highs).filter(lambda hi: hi > lower))
    space = SearchSpace(tuple(lows), tuple(highs), ScaleRange(lower, upper))
    aps = {(lo, hi): draw(st.sampled_from((30.0, 31.0, 32.0))) for lo in lows for hi in highs}
    return space, aps


class TestSearchProperties:
    @PROPERTY
    @given(searches())
    def test_each_pair_probed_once_and_bounds_move_inward(self, case):
        space, aps = case
        probes = []

        def fn(rng):
            probes.append((rng.lower, rng.upper))
            return EvalResult(aps[probes[-1]], -1, -1, -1, -1, -1, -1)

        best, trace = greedy_range_search(space, ApOracle(fn))
        assert len(probes) == len(set(probes))
        assert probes == [(r.lower, r.upper) for r, _ in trace]
        assert probes[0] == (space.initial.lower, space.initial.upper)
        assert (best.lower, best.upper) in probes
        for lower, upper in probes + [(best.lower, best.upper)]:
            assert space.initial.lower <= lower < upper <= space.initial.upper
        # Each probe holds one bound at its current value, and that bound
        # never moves outward afterwards.
        for i, (lower, upper) in enumerate(probes):
            later = probes[i + 1:] + [(best.lower, best.upper)]
            assert all(u <= upper for _, u in later) or all(lo >= lower for lo, _ in later)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 3),
        st.sampled_from((0.0, 0.3)),
        nms_configs,
        st.sampled_from((2, 5, 100)),
        st.sampled_from((1, 3, 100)),
        st.sampled_from((None, ScaleRange(16.0, 560.0), ScaleRange(8.0, 64.0))),
        st.lists(grid_ranges, min_size=1, max_size=3),
    )
    def test_search_probe_equals_evaluating_fused_records(
        self, seed, images, crowd, nms, top_k, max_dets, restriction, windows
    ):
        dataset = generate_dataset(images, seed, crowd_fraction=crowd)
        cfg = EvalConfig(max_dets=max_dets, scale_restriction=restriction)
        profile = DetectorProfile(seed=seed)
        per_resolution = simulate_detections(dataset, PyramidSpec((3.0, 1.0, 0.5)), profile)
        image_ids = sorted(img.id for img in dataset.images)
        hull = ScaleRange(min(w.lower for w in windows), max(w.upper for w in windows))
        probe = isn_range_evaluator(dataset, per_resolution, hull, nms, top_k, cfg)
        for window in windows + windows[::-1]:  # repeats are served from the memos
            fused = strategy_detections(per_resolution, image_ids, window, "isn", nms, top_k)
            want = evaluate(dataset.instances, fused, cfg, dataset.category_ids())
            assert probe(window) == want


@st.composite
def single_candidate_units(draw):
    """Units of detections that have one candidate each: per unit up to three
    instances (crowd, ignored or in one bucket) and up to six ranked
    detections, several often on one instance, cut to `max_dets`. Each IoU is
    a threshold or lies between two, so ties with a threshold are common."""
    thresholds = draw(st.sampled_from((EvalConfig().iou_thresholds, (0.5,), (0.5, 0.75, 1.0))))
    ious = [v for v in sorted({*thresholds, 0.52, 0.61, 0.77, 0.9, 0.99, 1.0})
            if v >= thresholds[0]]
    max_dets = draw(st.sampled_from((1, 2, 3, 100)))
    crowd, ignore, units = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        first, size = len(crowd), draw(st.integers(1, 3))
        for _ in range(size):
            crowd.append(draw(st.booleans()) and draw(st.booleans()))
            base = crowd[-1] or (draw(st.booleans()) and draw(st.booleans()))  # outside a window
            bucket = draw(st.integers(1, len(BUCKET_NAMES) - 1))
            ignore.append([base or b not in (0, bucket) for b in range(len(BUCKET_NAMES))])
        dets = [(draw(st.integers(first, first + size - 1)), draw(st.sampled_from(ious)),
                 draw(st.integers(1, len(BUCKET_NAMES) - 1)))
                for _ in range(draw(st.integers(0, 6)))]
        units.append(dets[:max_dets])
    return thresholds, crowd, np.array(ignore, dtype=bool).reshape(-1, len(BUCKET_NAMES)).T, units


class TestClosedFormMatching:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(single_candidate_units())
    def test_closed_form_lanes_equal_the_walk(self, case):
        thresholds, crowd, ignore, units = case
        dets = [d for unit in units for d in unit]
        buckets = np.arange(1, len(BUCKET_NAMES))[:, None]  # unmatched outside one: ignored
        unmatched = np.zeros((len(BUCKET_NAMES), len(thresholds), len(dets)), dtype=bool)
        unmatched[1:] = (np.array([b for *_, b in dets], dtype=int) != buckets)[:, None]
        walk_tp, walk_ig = np.zeros_like(unmatched), unmatched.copy()
        first = 0
        for unit in units:
            candidates = [(i, v, [(g, v)]) for i, (g, v, _) in enumerate(unit)]
            for b, flags in enumerate(ignore.tolist()):
                span = (b, slice(None), slice(first, first + len(unit)))
                _match_unit(candidates, crowd, flags, thresholds, walk_tp[span], walk_ig[span])
            first += len(unit)
        inst = np.array([g for g, *_ in dets], dtype=int)
        counts = np.searchsorted(thresholds, [v for _, v, _ in dets], side="right")
        is_tp, is_ig = _match_single(inst, counts, np.array(crowd), ignore, unmatched)
        assert np.array_equal(is_tp, walk_tp)
        assert np.array_equal(is_ig, walk_ig)


# JSON leaves as the writers meet them, and the spellings that are easy to get
# wrong: signed zero, exponents, ints past float64's exact range, bool beside
# int, non-ASCII, quotes, newlines and `%` in strings.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**64), 2**64),
    st.sampled_from((0, 1, -1, 2**53, 2**53 + 1, -(2**53) - 1, 10**20)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 0.0, 1e-07, 1e16, 1e-300, 5e-324, 0.1, 2.0**53)),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(st.sampled_from("a%s\"\\\n\t\x00é☃\U0001f600"), max_size=4),
)
json_keys = st.sampled_from(("a", "b", "id", "bbox", "score", "", "%", "%s", "100%", "é", "x\ny"))


@st.composite
def record_lists(draw, leaves=json_scalars):
    """A list of records that share one key set and one shape per key (a
    scalar, or a list of a fixed length), then maybe broken in one place: a
    key dropped, added or renamed, a list resized, or a value replaced by an
    object."""
    shape = draw(st.dictionaries(json_keys, st.none() | st.integers(0, 3), max_size=4))
    records = [
        {key: draw(leaves if width is None else st.lists(leaves, min_size=width, max_size=width))
         for key, width in shape.items()}
        for _ in range(draw(st.integers(1, 4)))
    ]
    rec = draw(st.sampled_from(records))
    change = draw(st.sampled_from(("none", "none", "drop", "add", "rename", "resize", "nest")))
    key = draw(st.sampled_from(sorted(rec)) if rec and change != "add" else json_keys)
    if change == "drop":
        rec.pop(key, None)
    elif change == "add":
        rec[key] = draw(leaves)
    elif change == "rename" and key in rec:
        rec[draw(json_keys)] = rec.pop(key)
    elif change == "resize":
        rec[key] = draw(st.lists(leaves, max_size=4))
    elif change == "nest":
        rec[key] = draw(st.dictionaries(json_keys, leaves, max_size=3))
    return records


json_trees = st.recursive(
    json_scalars | record_lists(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=12,
)
# Shaped like the program's outputs as well: an object holding record lists.
writer_inputs = st.one_of(
    json_trees, record_lists(), st.dictionaries(json_keys, record_lists() | json_trees, max_size=4)
)


def _dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


class TestWriterProperties:
    @PROPERTY
    @given(writer_inputs)
    @example([{}])
    @example([{"a": []}])
    @example({"detections": [{"100%": 1, "%s": [0.5, -0.0], "a": "%d"}, {"100%": 2, "%s": [1e-07, 1e16], "a": "%"}]})
    @example([{"a": True, "b": 2**53 + 1, "c": None}, {"a": 1, "b": -0.0, "c": "é"}])
    @example({"images": [{"id": 1}], "config": {"x": [{"y": np.float64(0.1)}, {"y": 2}]}})
    def test_file_is_json_dumps(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.json")
            write_json(path, obj)
            with open(path, "rb") as fh:
                assert fh.read() == _dumps(obj)

    @PROPERTY
    @given(
        record_lists(leaves=st.floats(allow_nan=False, allow_infinity=False)).filter(all),
        st.sampled_from((math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"))),
        st.sampled_from(("bare", "under a key", "nested")),
        st.randoms(use_true_random=False),
    )
    def test_non_finite_number_raises_and_writes_nothing(self, records, bad, where, random):
        rec = random.choice(records)
        key = random.choice(sorted(rec))
        if isinstance(rec[key], list) and rec[key]:
            rec[key][random.randrange(len(rec[key]))] = bad
        else:
            rec[key] = bad
        obj = {"bare": records, "under a key": {"detections": records, "n": 1},
               "nested": {"config": {"a": 1}, "out": [{"detections": records}]}}[where]
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError):
                write_json(os.path.join(tmp, "out.json"), obj)
            assert os.listdir(tmp) == []


# Values a detection record's fields take in `detection_dumps`: valid ones,
# including integers where a number belongs, -0.0 and 2**53, then the faults
# injected into one field at a time.
IDS = (1, 2, 0, -7, 2**53, -(2**53))
COORDINATES = (0, 0.0, -0.0, 3, 12.5, 1e-300, 2**60 + 1)
SIZES = (1, 0.5, 40.25, 1e-300, 2**60 + 1)
DUMP_SCORES = (0, 1, 0.0, 1.0, 0.5, 1e-9, -0.0)
DUMP_FACTORS = (4.0, 2, 1.0, 1, 0.5, 3.0)
NUMBER_FIELDS = ("x", "y", "w", "h", "score", "scale_factor")
ID_FIELDS = ("image_id", "category_id", "resolution_index")
FAULTS = {
    "non-object": st.sampled_from(([1, 2], "record", None, 5)),
    "missing": st.sampled_from(("bbox", "category_id", "score", "image_id", "scale_factor")),
    "not a number": st.tuples(st.sampled_from(NUMBER_FIELDS),
                              st.sampled_from((True, False, None, "0.5", [1.0], 10**400))),
    "non-finite": st.tuples(st.sampled_from(NUMBER_FIELDS),
                            st.sampled_from((math.inf, math.nan, -math.inf))),
    "not an integer": st.tuples(st.sampled_from(ID_FIELDS),
                                st.sampled_from((True, 1.5, 1.0, "1", None, math.nan))),
    "past 2**53": st.tuples(st.sampled_from(ID_FIELDS),
                            st.sampled_from((2**53 + 1, -(2**53) - 1, 2**60 + 1))),
    "box": st.sampled_from((("w", 0), ("h", -0.0), ("w", -2.5), ("x", -1), ("y", -1e-300),
                            ("bbox", [1, 2, 3]), ("bbox", [1, 2, 3, 4, 5]), ("bbox", "1,2,3,4"))),
    "score": st.sampled_from((-0.1, -1e-300, 1.0000000000000002, 2)),
    "scale_factor": st.sampled_from((0, 0.0, -0.0, -1.5, "2", False)),
}


@st.composite
def detection_dumps(draw):
    """(records, tagged): a tagged or untagged dump of up to 8 valid records,
    then up to two faults, each in one record."""
    tagged = draw(st.booleans())
    records = []
    for _ in range(draw(st.integers(0, 8))):
        rec = {"image_id": draw(st.sampled_from(IDS)), "category_id": draw(st.sampled_from(IDS)),
               "bbox": [draw(st.sampled_from(COORDINATES)) for _ in "xy"]
               + [draw(st.sampled_from(SIZES)) for _ in "wh"],
               "score": draw(st.sampled_from(DUMP_SCORES))}
        if draw(st.booleans()):
            rec["resolution_index"] = draw(st.sampled_from(IDS))
        if tagged or draw(st.booleans()):
            rec["scale_factor"] = draw(st.sampled_from(DUMP_FACTORS))
        records.append(rec)
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        kind = draw(st.sampled_from(sorted(FAULTS)))
        fault = draw(FAULTS[kind])
        if kind == "non-object":
            records[i] = fault
        elif type(records[i]) is not dict:
            continue
        elif kind == "missing":
            records[i].pop(fault, None)
        elif kind in ("score", "scale_factor"):
            records[i][kind] = fault
        else:
            key, value = fault
            if key in ("x", "y", "w", "h"):
                records[i]["bbox"]["xywh".index(key)] = value
            else:
                records[i][key] = value
    return records, tagged


def rows_by_record(records, tagged):
    """The table and factors the per-record rules give, record by record as
    the loaders always checked them: a tagged dump's tags first, then each
    record in turn; tagged, the factor groups largest first, each in file order."""
    contexts = [f"detection #{i}" for i in range(len(records))]
    if tagged:
        for rec, context in zip(records, contexts):
            dataio._scale_factor(rec, context, dataio._REQUIRED)
    factors, dets = [], []
    for rec, context in zip(records, contexts):
        factors.append(dataio._scale_factor(rec, context, 1.0))
        dets.append(dataio._detection(rec, context))
    table = _detection_table(dets)
    if tagged:
        groups = sorted(set(factors), reverse=True)
        order = sorted(range(len(records)), key=lambda i: groups.index(factors[i]))
        table, factors = table[order], [factors[i] for i in order]
        table[:, 6] = [groups.index(f) for f in factors]
    return table, np.array(factors, dtype=float)


class TestReaderProperties:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(detection_dumps())
    def test_column_reader_equals_the_per_record_rules(self, dump):
        """Bit for bit the same rows, or the same first error."""
        records, tagged = dump
        try:
            want = rows_by_record(records, tagged)
        except (DataFormatError, OverflowError) as exc:
            assert dataio._column_rows(records, tagged) is None
            with pytest.raises(type(exc)) as err:
                dataio._detection_rows(records, tagged)
            assert str(err.value) == str(exc)
            return
        assert dataio._column_rows(records, tagged) is not None  # valid dumps take the column path
        table, factors = dataio._detection_rows(records, tagged)
        assert table.shape == want[0].shape and table.tobytes() == want[0].tobytes()
        assert factors.shape == want[1].shape and factors.tobytes() == want[1].tobytes()
