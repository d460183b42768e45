"""The benchmark's checkers accept the program's output and reject corrupted copies."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scalenorm  # noqa: E402
from scalenorm import dataio  # noqa: E402
from scalenorm.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
from workloads import FACTORS, SCORE_FLOOR, SIGMA, TOP_K, WINDOW  # noqa: E402


def _annotations(tmp_path: Path, seed: int = 5) -> tuple[dict, Path]:
    dataset = scalenorm.generate_dataset(3, seed, crowd_fraction=0.2)
    path = tmp_path / "ann.json"
    dataio.write_json(path, dataio.dataset_to_dict(dataset))
    return json.loads(path.read_text()), path


def test_fusion_check_rejects_a_raised_soft_nms_score():
    cfg = scalenorm.AppConfig()
    dataset = scalenorm.generate_dataset(1, 9, min_instances=20, max_instances=30)
    profile = scalenorm.DetectorProfile(seed=9, fp_rate=8.0)
    stack = scalenorm.simulate_detections(dataset, cfg.pyramid, profile)
    fused = scalenorm.fuse_multiscale(stack, cfg.scale_range, cfg.soft_nms, cfg.fusion_top_k)
    got = [(d.score, d.category_id, d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in fused]
    raw = [
        (factor, [(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score, d.category_id,
                   d.resolution_index) for d in dets])
        for factor, dets in stack
    ]
    want = checks.fused_reference(raw, WINDOW, SIGMA, SCORE_FLOOR, TOP_K)
    assert checks.check_fused(got, want) == []

    raised = list(got)
    score, *rest = raised[-1]
    raised[-1] = (score + 0.01, *rest)
    assert checks.check_fused(raised, want)


def test_eval_check_rejects_an_ap_shifted_by_1e_6(tmp_path):
    ann, _ = _annotations(tmp_path)
    gts = dataio.dataset_from_dict(ann).instances
    dets = [
        scalenorm.Detection(g.bbox, g.category_id, 0.9 - 0.01 * k, g.image_id)
        for k, g in enumerate(gts[::2])
    ]
    records = dataio.detections_to_records(dets)
    unrestricted, restricted = scalenorm.ap_by_scale_report(
        gts, dets, scale_range=scalenorm.ScaleRange(*WINDOW), categories=[1, 2, 3]
    )
    payload = {"unrestricted": unrestricted.to_dict(), "restricted": restricted.to_dict()}
    assert checks.check_eval(ann, records, payload, restriction=WINDOW) == []

    for section in ("unrestricted", "restricted"):
        shifted = copy.deepcopy(payload)
        shifted[section]["ap"] += 1e-6
        assert checks.check_eval(ann, records, shifted, restriction=WINDOW)


def test_search_check_rejects_a_repeated_probe(tmp_path):
    table = [
        {"range": [0, 640], "ap": 37.4}, {"range": [16, 640], "ap": 38.2},
        {"range": [32, 640], "ap": 38.1}, {"range": [16, 560], "ap": 38.7},
        {"range": [16, 496], "ap": 37.9}, {"range": [16, 320], "ap": 37.2},
        {"range": [32, 560], "ap": 38.4},
    ]
    (tmp_path / "table.json").write_text(json.dumps(table))
    out = tmp_path / "search.json"
    assert cli_main(["search", "--table", str(tmp_path / "table.json"), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    aps = {(float(e["range"][0]), float(e["range"][1])): e["ap"] for e in table}

    def reference_ap(lower, upper):
        return aps[(lower, upper)]

    assert checks.check_search(payload, reference_ap) == []

    repeated = copy.deepcopy(payload)
    repeated["trace"].append(repeated["trace"][1])
    assert checks.check_search(repeated, reference_ap)

    shifted = copy.deepcopy(payload)
    shifted["trace"][0]["ap"] += 1e-6
    assert checks.check_search(shifted, reference_ap)


def test_partition_check_rejects_a_moved_id(tmp_path):
    ann, path = _annotations(tmp_path)
    out = tmp_path / "parts.json"
    assert cli_main(["partition", "--annotations", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert checks.check_partition(ann, payload, FACTORS, WINDOW) == []

    moved = copy.deepcopy(payload)
    part = next(p for p in moved["partitions"] if p["valid_ids"])
    part["ignored_ids"] = sorted(part["ignored_ids"] + [part["valid_ids"].pop()])
    assert checks.check_partition(ann, moved, FACTORS, WINDOW)
