import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from scalenorm import (
    AppConfig, EvalConfig, PyramidSpec, SoftNmsConfig, cli, fuse_multiscale, simulate_detections,
)
from scalenorm.cli import main
from scalenorm.dataio import (
    detections_to_records,
    load_annotations,
    load_detection_records,
    tagged_detections_from_records,
    write_json,
)

from conftest import RANGE_AP_TABLE

PERFECT_ANNOTATIONS = {
    "images": [{"id": 1, "height": 480, "width": 640}],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 100, 100], "iscrowd": 0},
        {"id": 2, "image_id": 1, "category_id": 1, "bbox": [300, 200, 50, 60], "iscrowd": 0},
    ],
    "categories": [{"id": 1, "name": "object"}],
}

PERFECT_DETECTIONS = [
    {"image_id": 1, "category_id": 1, "bbox": [10, 10, 100, 100], "score": 0.9},
    {"image_id": 1, "category_id": 1, "bbox": [300, 200, 50, 60], "score": 0.8},
]


IMAGE = PERFECT_ANNOTATIONS["images"][0]
ANNOTATION = PERFECT_ANNOTATIONS["annotations"][0]
SNIP_ENTRY = {"resolution": [800, 1200], "valid_range": [40, 160]}

# Commands reading a malformed input: BAD is that file, ANN a valid
# annotation file, OUT and OUT2 outputs that must not be written.
STAGE_HIST = ["stage-hist", "--annotations", "BAD", "--out", "OUT"]
FUSE = ["fuse", "--dets", "BAD", "--out", "OUT"]
EVAL = ["eval", "--annotations", "ANN", "--dets", "BAD", "--out", "OUT"]
SNIP_PARTITION = ["partition", "--annotations", "ANN", "--policy", "snip", "--snip-table", "BAD",
                  "--out", "OUT"]
ISN_PARTITION = ["partition", "--annotations", "ANN", "--snip-table", "BAD", "--out", "OUT"]
ANALYZE_SNIP = ["analyze-snip", "--annotations", "ANN", "--snip-table", "BAD", "--out", "OUT"]
SEARCH = ["search", "--table", "BAD", "--out", "OUT"]
PARTITION = ["partition", "--annotations", "BAD", "--out", "OUT"]
SIMULATE = ["simulate", "--images", "2", "--out", "OUT", "--out-dets", "OUT2"]


def with_image(**changes):
    return dict(PERFECT_ANNOTATIONS, images=[dict(IMAGE, **changes)])


def with_annotation(annotation):
    return dict(PERFECT_ANNOTATIONS, annotations=[annotation])


BIG = 10**400  # a JSON integer past float range: not a finite number

# (command, its malformed input, the one error line it must print)
BAD_INPUTS = [
    pytest.param(STAGE_HIST, with_image(id=1.7), "image #0: id must be an integer, got 1.7",
                 id="fractional-id"),
    pytest.param(STAGE_HIST, with_image(id=True), "image #0: id must be an integer, got True",
                 id="bool-id"),
    pytest.param(STAGE_HIST, with_image(id="1"), "image #0: id must be an integer, got '1'",
                 id="string-id"),
    pytest.param(STAGE_HIST, with_image(height=math.nan),
                 "image 1: height must be an integer, got nan", id="nan-height"),
    pytest.param(STAGE_HIST, with_image(height=480.9),
                 "image 1: height must be an integer, got 480.9", id="fractional-height"),
    pytest.param(STAGE_HIST, with_annotation(5), "annotation #0 must be an object, got 5",
                 id="non-object-annotation"),
    pytest.param(STAGE_HIST, with_annotation(dict(ANNOTATION, iscrowd="no")),
                 "annotation 1: iscrowd must be 0, 1, true or false, got 'no'",
                 id="string-iscrowd"),
    pytest.param(STAGE_HIST, with_annotation(dict(ANNOTATION, category_id=True)),
                 "annotation 1: category_id must be an integer, got True", id="bool-category"),
    pytest.param(STAGE_HIST, dict(with_annotation(dict(ANNOTATION, category_id=0)), categories=[]),
                 "annotation 1: category_id must be >= 1, got 0", id="zero-category"),
    pytest.param(FUSE, [dict(PERFECT_DETECTIONS[0], score="0.5", scale_factor=1.0)],
                 "detection #0: score must be a finite number, got '0.5'", id="string-score"),
    pytest.param(FUSE, [dict(PERFECT_DETECTIONS[0], image_id=1.7, scale_factor=1.0)],
                 "detection #0: image_id must be an integer, got 1.7", id="fractional-image-id"),
    pytest.param(FUSE, [dict(d, image_id=2**53 + 1, scale_factor=1.0) for d in PERFECT_DETECTIONS],
                 "detection #0: image_id must be at most 2**53 in magnitude, got 9007199254740993",
                 id="image-id-past-float64"),
    pytest.param(EVAL, [PERFECT_DETECTIONS[0], dict(PERFECT_DETECTIONS[1], category_id=-2**53 - 1)],
                 "detection #1: category_id must be at most 2**53 in magnitude, "
                 "got -9007199254740993", id="category-id-past-float64"),
    pytest.param(EVAL, [dict(PERFECT_DETECTIONS[0], resolution_index=2**60 + 1)],
                 "detection #0: resolution_index must be at most 2**53 in magnitude, "
                 "got 1152921504606846977", id="resolution-index-past-float64"),
    pytest.param(EVAL, [dict(PERFECT_DETECTIONS[0], bbox=["10", 10, 100, 100])],
                 "detection #0: bbox must be four numbers [x, y, w, h], got ['10', 10, 100, 100]",
                 id="string-coordinate"),
    pytest.param(EVAL, [PERFECT_DETECTIONS[0], [1, 2]],
                 "detection #1 must be an object, got [1, 2]", id="non-object-detection"),
    pytest.param(SNIP_PARTITION, [dict(SNIP_ENTRY, scale_factor=math.nan)],
                 "table entry #0: scale_factor must be a finite number, got nan", id="nan-factor"),
    pytest.param(SNIP_PARTITION, [dict(SNIP_ENTRY, scale_factor=-2)],
                 "table entry #0: scale_factor must be positive, got -2.0",
                 id="negative-factor"),
    pytest.param(ANALYZE_SNIP, [dict(SNIP_ENTRY, resolution=[0, 0])],
                 "table entry #0: resolution must be at least 1x1, got 0x0", id="empty-resolution"),
    pytest.param(EVAL + ["--scale-range", "16,560", "--set", "eval.scale_restriction=[32,64]"],
                 PERFECT_DETECTIONS,
                 "--scale-range conflicts with config key 'eval.scale_restriction'",
                 id="scale-range-and-restriction"),
    pytest.param(SEARCH, [{"range": [0, 640], "ap": "38"}],
                 "lookup entry #0: ap must be a finite number, got '38'", id="numeric-string-ap"),
    pytest.param(SEARCH, [{"range": [0, 640], "ap": "x"}],
                 "lookup entry #0: ap must be a finite number, got 'x'", id="string-ap"),
    pytest.param(SEARCH, [{"range": [0, 640], "ap": 37.4, "ap50": "x"}],
                 "lookup entry #0: ap50 must be a finite number, got 'x'", id="string-ap50"),
    pytest.param(SEARCH, [{"range": [0, 640], "ap": 37.4, "ap50": "0.5"}],
                 "lookup entry #0: ap50 must be a finite number, got '0.5'",
                 id="numeric-string-ap50"),
    pytest.param(SEARCH, [{"range": [0, 640], "ap": 37.4, "per_category": {"a": 1}}],
                 "lookup entry #0: per_category must map category ids to finite numbers, "
                 "got {'a': 1}", id="non-id-per-category-key"),
    pytest.param(SEARCH, [{"range": list(k), "ap": v} for k, v in RANGE_AP_TABLE.items()]
                 + [{"range": [16, 560], "ap": 30.0}],
                 "lookup entry #7: range [16.0, 560.0] repeats entry #3", id="repeated-range"),
    pytest.param(ISN_PARTITION, [dict(SNIP_ENTRY, resolution=[0, 0])],
                 "table entry #0: resolution must be at least 1x1, got 0x0",
                 id="isn-partition-reads-table"),
    pytest.param(SIMULATE + ["--crowd-fraction", "nan"], None,
                 "crowd_fraction must lie in [0, 1], got nan", id="nan-crowd-fraction"),
    pytest.param(SIMULATE + ["--crowd-fraction", "2"], None,
                 "crowd_fraction must lie in [0, 1], got 2.0", id="crowd-fraction-2"),
    pytest.param(SIMULATE + ["--crowd-fraction", "-1"], None,
                 "crowd_fraction must lie in [0, 1], got -1.0", id="negative-crowd-fraction"),
    pytest.param(SIMULATE + ["--categories", "0"], None,
                 "num_categories must be at least 1, got 0", id="no-categories"),
    pytest.param(["simulate", "--images", "20", "--set", "pyramid_factors=[4096, 1]",
                  "--set", "detector.loc_noise_frac=0.3", "--set", "detector.p_detect_decay=1.0",
                  "--out", "OUT", "--out-dets", "OUT2"], None,
                 "localization jitter out of float range at pyramid factor 4096.0: "
                 "lower detector.loc_noise_frac or detector.loc_noise_growth",
                 id="jitter-underflow"),
    pytest.param(EVAL, [PERFECT_DETECTIONS[0], dict(PERFECT_DETECTIONS[1], category_id=7)],
                 "detection #1: unknown category 7", id="unknown-detection-category"),
    pytest.param(FUSE, [dict(PERFECT_DETECTIONS[0], bbox=[10, BIG, 100, 100], scale_factor=1.0)],
                 "detection #0: non-finite box: BBox(x=10.0, y=inf, w=100.0, h=100.0)",
                 id="detection-coordinate-past-float-range"),
    pytest.param(EVAL, [PERFECT_DETECTIONS[0], dict(PERFECT_DETECTIONS[1], score=BIG)],
                 f"detection #1: score must be a finite number, got {BIG}",
                 id="score-past-float-range"),
    pytest.param(PARTITION, with_annotation(dict(ANNOTATION, bbox=[10, 10, -BIG, 100])),
                 "annotation 1: non-finite box: BBox(x=10.0, y=10.0, w=-inf, h=100.0)",
                 id="annotation-coordinate-past-float-range"),
    pytest.param(SEARCH, [{"range": [0, BIG], "ap": 37.4}],
                 f"lookup entry #0: range must be two items, each a finite number, got [0, {BIG}]",
                 id="range-bound-past-float-range"),
    pytest.param(FUSE + ["--set", f"soft_nms.sigma={BIG}"],
                 [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS],
                 f"config key 'soft_nms.sigma': expected a finite number, got {BIG}",
                 id="override-past-float-range"),
    pytest.param(SIMULATE + ["--set", "seed=-1"], None,
                 "config key 'seed': expected an integer >= 0, got -1",
                 id="negative-seed-simulate"),
    pytest.param(["search", "--simulate", "--images", "2", "--set", "seed=-1", "--out", "OUT"],
                 None, "config key 'seed': expected an integer >= 0, got -1",
                 id="negative-seed-search-simulate"),
    pytest.param(FUSE + ["--set", "seed=-1"],
                 [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS],
                 "config key 'seed': expected an integer >= 0, got -1", id="negative-seed-fuse"),
    pytest.param(SIMULATE + ["--config", "BAD"], [1, 2], "config: expected an object, got [1, 2]",
                 id="non-object-config"),
    pytest.param(EVAL + ["--scale-range", "a,560"], PERFECT_DETECTIONS,
                 "expected 'lower,upper', got 'a,560'", id="non-numeric-scale-range-lower"),
    pytest.param(EVAL + ["--scale-range", "16,b"], PERFECT_DETECTIONS,
                 "expected 'lower,upper', got '16,b'", id="non-numeric-scale-range-upper"),
    # A box valid as read can break once projected; the message numbers it in file order.
    pytest.param(FUSE + ["--naive"], [dict(PERFECT_DETECTIONS[0], scale_factor=1.0),
                                      dict(PERFECT_DETECTIONS[1], bbox=[0, 0, 5e-324, 10],
                                           scale_factor=4.0)],
                 "detection #1 at scale factor 4.0: degenerate box: w=0.0, h=2.5",
                 id="projection-underflow"),
    pytest.param(FUSE + ["--naive"], [dict(PERFECT_DETECTIONS[1], bbox=[1e308, 0, 1e308, 10],
                                           scale_factor=0.25),
                                      dict(PERFECT_DETECTIONS[0], scale_factor=1.0)],
                 "detection #0 at scale factor 0.25: non-finite box: "
                 "BBox(x=inf, y=0.0, w=inf, h=40.0)", id="projection-overflow"),
    # DIR is an existing directory in the working directory.
    pytest.param(FUSE[:-1] + ["DIR"], [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS],
                 "cannot write 'DIR': Is a directory", id="out-names-a-directory"),
    pytest.param(SIMULATE + ["--seed", "-1"], None, "--seed: expected an integer >= 0, got -1",
                 id="negative-seed-flag-simulate"),
    pytest.param(["search", "--simulate", "--images", "2", "--seed", "-1", "--out", "OUT"], None,
                 "--seed: expected an integer >= 0, got -1", id="negative-seed-flag-search"),
    pytest.param(STAGE_HIST, dict(PERFECT_ANNOTATIONS, images=[IMAGE, IMAGE]),
                 "image 1: duplicate id", id="duplicate-image-id"),
    pytest.param(STAGE_HIST, with_image(height=0, width=4), "image 1: non-positive size 0x4",
                 id="zero-height"),
    pytest.param(FUSE, {"dets": PERFECT_DETECTIONS},
                 "detection file must be a JSON list or an object with a 'detections' list",
                 id="detections-under-wrong-key"),
    pytest.param(SIMULATE + ["--set", "=1"], None, "empty config path in '=1'",
                 id="empty-override-path"),
    pytest.param(SIMULATE + ["--set", "seed.x=1"], None,
                 "config path 'seed.x' does not address a section", id="override-below-scalar"),
]


# Every subcommand (eval and search in both forms) with its JSON outputs OUT
# and OUT2; ANN, DETS, TAGGED and TABLE are valid inputs, CSV a CSV output.
ECHOING_COMMANDS = [
    pytest.param(["partition", "--annotations", "ANN", "--out", "OUT"], id="partition"),
    pytest.param(["analyze-snip", "--annotations", "ANN", "--out", "OUT", "--csv", "CSV"],
                 id="analyze-snip"),
    pytest.param(["fuse", "--dets", "TAGGED", "--out", "OUT"], id="fuse"),
    pytest.param(["eval", "--annotations", "ANN", "--dets", "DETS", "--out", "OUT"], id="eval"),
    pytest.param(["eval", "--annotations", "ANN", "--dets", "DETS", "--scale-range", "16,560",
                  "--out", "OUT"], id="eval-scale-range"),
    pytest.param(["search", "--table", "TABLE", "--out", "OUT"], id="search-table"),
    pytest.param(["search", "--simulate", "--images", "4", "--out", "OUT"], id="search-simulate"),
    pytest.param(["simulate", "--images", "4", "--out", "OUT", "--out-dets", "OUT2"],
                 id="simulate"),
    pytest.param(["stage-hist", "--annotations", "ANN", "--out", "CSV", "--json", "OUT"],
                 id="stage-hist"),
]


@pytest.fixture
def annotations(tmp_path):
    path = tmp_path / "annotations.json"
    write_json(path, PERFECT_ANNOTATIONS)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestEvalCommand:
    def test_perfect_detector_reports_ap_one(self, tmp_path, annotations):
        dets = tmp_path / "dets.json"
        write_json(dets, PERFECT_DETECTIONS)
        out = tmp_path / "metrics.json"
        csv_out = tmp_path / "metrics.csv"
        assert run_cli(
            "eval", "--annotations", annotations, "--dets", dets,
            "--out", out, "--csv", csv_out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["ap"] == 1.0
        assert "config" in payload
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "category,metric,value"
        assert lines[1].startswith("all,ap,")
        assert lines[-1].startswith("1,ap,")

    def test_scale_range_reports_both(self, tmp_path, annotations):
        dets = tmp_path / "dets.json"
        write_json(dets, PERFECT_DETECTIONS)
        out = tmp_path / "metrics.json"
        assert run_cli(
            "eval", "--annotations", annotations, "--dets", dets,
            "--scale-range", "16,560", "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["unrestricted"]["ap"] == 1.0
        assert payload["restricted"]["ap"] == 1.0

    def test_scale_range_is_not_echoed_as_fusion_range(self, tmp_path, annotations):
        dets = tmp_path / "dets.json"
        write_json(dets, PERFECT_DETECTIONS)
        out = tmp_path / "metrics.json"
        assert run_cli(
            "eval", "--annotations", annotations, "--dets", dets,
            "--scale-range", "32,300", "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["scale_range"] == [32.0, 300.0]
        assert payload["config"] == AppConfig().to_dict()
        assert payload["config"]["scale_range"] == [16.0, 560.0]

    def test_detection_on_unknown_image_fails(self, tmp_path, annotations, capsys):
        dets = tmp_path / "dets.json"
        write_json(dets, [dict(PERFECT_DETECTIONS[0], image_id=9)])
        code = run_cli(
            "eval", "--annotations", annotations, "--dets", dets,
            "--out", tmp_path / "metrics.json",
        )
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestConfigEcho:
    @pytest.mark.parametrize("argv", ECHOING_COMMANDS)
    def test_json_outputs_echo_effective_config(self, tmp_path, annotations, argv):
        paths = {name: tmp_path / f"{name.lower()}.json" for name in ("DETS", "TAGGED", "TABLE")}
        write_json(paths["DETS"], PERFECT_DETECTIONS)
        write_json(paths["TAGGED"], [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS])
        write_json(paths["TABLE"], [{"range": list(k), "ap": v} for k, v in RANGE_AP_TABLE.items()])
        paths.update(ANN=annotations, CSV=tmp_path / "out.csv",
                     OUT=tmp_path / "out.json", OUT2=tmp_path / "out2.json")
        flags = ["--seed", "3", "--set", "soft_nms.sigma=0.7", "--set", "eval.max_dets=50"]
        assert run_cli(*(paths.get(a, a) for a in argv), *flags) == 0
        expected = AppConfig(
            soft_nms=replace(SoftNmsConfig(), sigma=0.7), eval=replace(EvalConfig(), max_dets=50)
        ).with_seed(3).to_dict()
        written = [paths[a] for a in argv if a in ("OUT", "OUT2")]
        assert written
        for path in written:
            assert json.loads(path.read_text())["config"] == expected, path.name


class TestSearchCommand:
    def test_published_lookup(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        write_json(table, [
            {"range": [lo, hi], "ap": ap} for (lo, hi), ap in RANGE_AP_TABLE.items()
        ])
        out = tmp_path / "search.json"
        assert run_cli("search", "--table", table, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "[16, 560]" in printed
        payload = json.loads(out.read_text())
        assert payload["best_range"] == [16.0, 560.0]
        assert payload["best_ap"] == 38.7
        assert len(payload["trace"]) == 7

    def test_simulate_backend(self, tmp_path):
        out = tmp_path / "search.json"
        assert run_cli(
            "search", "--simulate", "--images", 8, "--seed", 3, "--out", out
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["trace"]

    def test_requires_exactly_one_backend(self, tmp_path, capsys):
        assert run_cli("search", "--out", tmp_path / "x.json") == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateFuseEvalPipeline:
    def test_isn_beats_naive_on_degraded_profile(self, tmp_path):
        ann = tmp_path / "ann.json"
        dets = tmp_path / "dets.json"
        assert run_cli(
            "simulate", "--images", 60, "--seed", 11, "--out", ann, "--out-dets", dets
        ) == 0

        fused_isn = tmp_path / "fused_isn.json"
        fused_naive = tmp_path / "fused_naive.json"
        assert run_cli("fuse", "--dets", dets, "--out", fused_isn) == 0
        assert run_cli("fuse", "--dets", dets, "--naive", "--out", fused_naive) == 0

        metrics_isn = tmp_path / "m_isn.json"
        metrics_naive = tmp_path / "m_naive.json"
        assert run_cli("eval", "--annotations", ann, "--dets", fused_isn, "--out", metrics_isn) == 0
        assert run_cli("eval", "--annotations", ann, "--dets", fused_naive, "--out", metrics_naive) == 0
        ap_isn = json.loads(metrics_isn.read_text())["metrics"]["ap"]
        ap_naive = json.loads(metrics_naive.read_text())["metrics"]["ap"]
        assert ap_isn >= ap_naive

    def test_simulate_output_reingests(self, tmp_path):
        ann = tmp_path / "ann.json"
        dets = tmp_path / "dets.json"
        run_cli("simulate", "--images", 5, "--seed", 2, "--out", ann, "--out-dets", dets)
        ds = load_annotations(ann)
        tagged = tagged_detections_from_records(load_detection_records(dets))
        assert ds.instances and len(tagged) == 5

    def test_ascending_pyramid_keeps_resolution_index(self, tmp_path):
        """Resolution k is the k-th largest factor however the pyramid is
        given, so `fuse` reads back the index `simulate` wrote, and the CLI
        round trip fuses exactly as the library does."""
        ann, dets, fused = (tmp_path / name for name in ("ann.json", "dets.json", "fused.json"))
        pyramid = ("--set", "pyramid_factors=[1.0, 2.0]")
        assert run_cli("simulate", "--images", 6, "--seed", 4, *pyramid,
                       "--out", ann, "--out-dets", dets) == 0
        assert run_cli("fuse", "--dets", dets, *pyramid, "--out", fused) == 0

        records = load_detection_records(dets)
        tagged = tagged_detections_from_records(records)
        assert sorted((f, d.resolution_index) for f, group in tagged for d in group) == sorted(
            (r["scale_factor"], r["resolution_index"]) for r in records
        )
        cfg = AppConfig(pyramid=PyramidSpec((1.0, 2.0))).with_seed(4)
        per_resolution = simulate_detections(load_annotations(ann), cfg.pyramid, cfg.detector)
        library = fuse_multiscale(per_resolution, cfg.scale_range, cfg.soft_nms, cfg.fusion_top_k)
        payload = json.loads(fused.read_text())
        assert payload["config"]["pyramid_factors"] == [2.0, 1.0]
        assert {d["resolution_index"] for d in payload["detections"]} == {0, 1}
        assert payload["detections"] == detections_to_records(library)


class TestPartitionCommand:
    def test_isn_counts(self, tmp_path, annotations):
        out = tmp_path / "partition.json"
        assert run_cli(
            "partition", "--annotations", annotations, "--policy", "isn",
            "--set", "pyramid_factors=[1.0]", "--set", "scale_range=[16, 560]", "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        (entry,) = payload["partitions"]
        assert entry["valid_count"] == 2 and entry["ignored_count"] == 0

    def test_snip_default_table(self, tmp_path, annotations):
        out = tmp_path / "partition.json"
        assert run_cli(
            "partition", "--annotations", annotations, "--policy", "snip", "--out", out
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["partitions"]) == 2
        assert payload["partitions"][0]["resolution"] == [800, 1200]


class TestAnalyzeSnipCommand:
    def test_overlap_structure(self, tmp_path, annotations):
        out = tmp_path / "analysis.json"
        csv_out = tmp_path / "analysis.csv"
        assert run_cli(
            "analyze-snip", "--annotations", annotations, "--out", out, "--csv", csv_out
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["policies"]["isn"]["overlap"] == 0.0
        assert "snip" in payload["policies"]
        header = csv_out.read_text().splitlines()[0]
        assert header == "policy,bin_lower,bin_upper,trained,ignored"


class TestStageHistCommand:
    def test_csv_output(self, tmp_path, annotations):
        out = tmp_path / "hist.csv"
        json_out = tmp_path / "hist.json"
        assert run_cli(
            "stage-hist", "--annotations", annotations,
            "--out", out, "--json", json_out,
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,count"
        assert len(lines) == 5
        payload = json.loads(json_out.read_text())
        assert set(payload["histogram"]) == {"2", "3", "4", "5"}


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        outputs = []
        for label in ("a", "b"):
            ann = tmp_path / f"ann_{label}.json"
            dets = tmp_path / f"dets_{label}.json"
            fused = tmp_path / f"fused_{label}.json"
            metrics = tmp_path / f"metrics_{label}.json"
            run_cli("simulate", "--images", 20, "--seed", 9, "--out", ann, "--out-dets", dets)
            run_cli("fuse", "--dets", dets, "--out", fused)
            run_cli("eval", "--annotations", ann, "--dets", fused, "--out", metrics)
            outputs.append([p.read_bytes() for p in (ann, dets, fused, metrics)])
        assert outputs[0] == outputs[1]


class TestErrorSurface:
    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--bogus"])
        assert err.value.code != 0

    def test_missing_file_single_error_line(self, tmp_path, capsys):
        code = run_cli(
            "eval", "--annotations", tmp_path / "missing.json",
            "--dets", tmp_path / "missing2.json", "--out", tmp_path / "out.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.strip().count("\n") == 0

    @pytest.mark.parametrize(
        "override, key",
        [
            ("soft_nm.sigma=0.7", "soft_nm"),
            ("fusion_topk=5", "fusion_topk"),
            ("search.foo=1", "search.foo"),
            ("eval.foo=1", "eval.foo"),
            ("seed=1.7", "seed"),
            ("fusion_top_k=2.9", "fusion_top_k"),
            ("eval.max_dets=true", "eval.max_dets"),
            ("soft_nms.sigma=NaN", "soft_nms.sigma"),
            ("soft_nms.method=3", "soft_nms.method"),
            ("soft_nms.sigma=-1", "soft_nms"),
            ("fusion_top_k=-1", "fusion_top_k"),
            ("fusion_top_k=0", "fusion_top_k"),
        ],
    )
    def test_unknown_config_key_names_key(self, tmp_path, capsys, override, key):
        dets = tmp_path / "dets.json"
        write_json(dets, [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS])
        code = run_cli(
            "fuse", "--dets", dets, "--set", override, "--out", tmp_path / "fused.json"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err
        assert not (tmp_path / "fused.json").exists()

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_non_positive_top_k_flag_rejected(self, tmp_path, capsys, top_k):
        dets = tmp_path / "dets.json"
        write_json(dets, [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS])
        out = tmp_path / "fused.json"
        code = run_cli("fuse", "--dets", dets, "--set", f"fusion_top_k={top_k}", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'fusion_top_k': ") and err.count("\n") == 1
        assert not out.exists()

    def test_top_k_one_keeps_one_detection(self, tmp_path):
        dets = tmp_path / "dets.json"
        write_json(dets, [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS])
        out = tmp_path / "fused.json"
        assert run_cli("fuse", "--dets", dets, "--set", "fusion_top_k=1", "--out", out) == 0
        assert len(json.loads(out.read_text())["detections"]) == 1

    @pytest.mark.parametrize("bbox", [[math.nan, 0, 5, 10], [0, 0, math.inf, 10]])
    def test_non_finite_bbox_names_record(self, tmp_path, annotations, capsys, bbox):
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([PERFECT_DETECTIONS[0], dict(PERFECT_DETECTIONS[1], bbox=bbox)]))
        code = run_cli(
            "eval", "--annotations", annotations, "--dets", dets,
            "--out", tmp_path / "metrics.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: detection #1: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("factors", ["[Infinity, 1]", "[NaN, 1]"], ids=["inf,1", "nan,1"])
    def test_non_finite_factors_rejected(self, tmp_path, annotations, capsys, factors):
        out = tmp_path / "hist.csv"
        code = run_cli(
            "stage-hist", "--annotations", annotations,
            "--set", f"pyramid_factors={factors}", "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("factor", ["NaN", "Infinity"])
    def test_non_finite_scale_factor_names_record(self, tmp_path, capsys, factor):
        dets = tmp_path / "dets.json"
        records = [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS]
        text = json.dumps(records).replace('"scale_factor": 1.0}]', f'"scale_factor": {factor}}}]')
        assert factor in text
        dets.write_text(text)
        out = tmp_path / "fused.json"
        assert run_cli("fuse", "--dets", dets, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: detection #1: scale_factor") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("pair", [[640, 16], [5]])
    def test_bad_lookup_range_names_entry(self, tmp_path, capsys, pair):
        table = tmp_path / "table.json"
        write_json(table, [{"range": [0, 640], "ap": 37.4}, {"range": pair, "ap": 38.0}])
        out = tmp_path / "search.json"
        assert run_cli("search", "--table", table, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lookup entry #1: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # a NumPy warning on the way fails the probe too
    @pytest.mark.parametrize("argv, data, message", BAD_INPUTS)
    def test_bad_input_names_record_and_field(
        self, tmp_path, annotations, capsys, monkeypatch, argv, data, message
    ):
        """Exit 1 with one `error:` line naming the record and field, and no output file."""
        bad = tmp_path / "bad.json"
        if data is not None:
            bad.write_text(json.dumps(data))
        (tmp_path / "DIR").mkdir()
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        paths = {"BAD": bad, "ANN": annotations, "OUT": tmp_path / "out", "OUT2": tmp_path / "out2"}
        assert run_cli(*(paths.get(a, a) for a in argv)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_undecodable_file_names_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        dets = tmp_path / "dets.json"
        write_json(dets, PERFECT_DETECTIONS)
        out = tmp_path / "metrics.json"
        assert run_cli("eval", "--annotations", bad, "--dets", dets, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text: ") and err.count("\n") == 1
        assert not out.exists()

    def test_cached_parser_keeps_no_override(self, tmp_path):
        """The parser is built once per process; a `--set` given to one call
        must not reach the next."""
        dets = tmp_path / "dets.json"
        write_json(dets, [dict(d, scale_factor=1.0) for d in PERFECT_DETECTIONS])
        outs = [tmp_path / f"fused_{i}.json" for i in range(3)]
        cli._build_parser.cache_clear()
        assert run_cli("fuse", "--dets", dets, "--out", outs[0]) == 0
        assert run_cli("fuse", "--dets", dets, "--set", "soft_nms.sigma=0.7", "--out", outs[1]) == 0
        assert run_cli("fuse", "--dets", dets, "--out", outs[2]) == 0
        assert outs[1].read_bytes() != outs[0].read_bytes()
        assert outs[2].read_bytes() == outs[0].read_bytes()

    def test_console_entry_point(self, tmp_path):
        # The child process does not get pytest's `pythonpath`, so it is told
        # where the package lives: the checkout's `src` comes first.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "scalenorm", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "partition" in result.stdout and "stage-hist" in result.stdout
