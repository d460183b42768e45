"""Golden digests of the CLI pipeline's artifacts.

The sha256 of every file written by the pipeline below (seed 17, 40 images)
is pinned in `golden_digests.json`, together with a `fuse --set fusion_top_k=3` run
whose cut binds on 39 of the 40 images, the unrestricted `eval` (JSON and
CSV), a restricted `eval` on a dataset with 20% crowd regions, and the
`search --simulate` result on 8 images (once with the defaults, once with a
scale restriction, `max_dets` below `fusion_top_k` and hard suppression, and
once with a scale restriction and `max_dets=2`, a cut that binds), both
`partition` policies (the SNIP one on its default table), `analyze-snip`
(JSON and CSV), the `stage-hist` JSON and `search --table` on the README's
lookup table. The same `partition`, `analyze-snip` and `stage-hist` runs are
pinned on the 20%-crowd dataset too, which covers the crowd branch of both
partitions and the crowd exclusion of the scale distributions. A refactor
that claims to preserve behaviour must leave every digest unchanged; a change
that alters an output on purpose regenerates the file and says which artifact
changed and why.

Regenerate with: PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from scalenorm.cli import main as cli_main

from conftest import RANGE_AP_TABLE

GOLDEN = Path(__file__).with_name("golden_digests.json")


def pipeline_digests(workdir: Path) -> dict[str, str]:
    """Run the pipeline in `workdir`; map each artifact name to its sha256."""
    ann = workdir / "annotations.json"
    dets = workdir / "detections.json"
    paths = {
        "annotations.json": ann,
        "detections.json": dets,
        "fused.json": workdir / "fused.json",
        "fused_naive.json": workdir / "fused_naive.json",
        "fused_top3.json": workdir / "fused_top3.json",
        "metrics.json": workdir / "metrics.json",
        "hist.csv": workdir / "hist.csv",
        "metrics_unrestricted.json": workdir / "metrics_unrestricted.json",
        "metrics_unrestricted.csv": workdir / "metrics_unrestricted.csv",
        "crowd_metrics.json": workdir / "crowd_metrics.json",
        "search.json": workdir / "search.json",
        "search_restricted.json": workdir / "search_restricted.json",
        "search_max_dets.json": workdir / "search_max_dets.json",
        "partition_isn.json": workdir / "partition_isn.json",
        "partition_snip.json": workdir / "partition_snip.json",
        "analyze_snip.json": workdir / "analyze_snip.json",
        "analyze_snip.csv": workdir / "analyze_snip.csv",
        "hist.json": workdir / "hist.json",
        "search_table.json": workdir / "search_table.json",
        "crowd_partition_isn.json": workdir / "crowd_partition_isn.json",
        "crowd_partition_snip.json": workdir / "crowd_partition_snip.json",
        "crowd_analyze_snip.json": workdir / "crowd_analyze_snip.json",
        "crowd_analyze_snip.csv": workdir / "crowd_analyze_snip.csv",
        "crowd_hist.json": workdir / "crowd_hist.json",
    }
    crowd_ann = workdir / "crowd_annotations.json"
    crowd_dets = workdir / "crowd_detections.json"
    crowd_fused = workdir / "crowd_fused.json"
    table = workdir / "table.json"
    table.write_text(json.dumps([{"range": list(k), "ap": v} for k, v in RANGE_AP_TABLE.items()]))
    commands = [
        ["simulate", "--images", "40", "--seed", "17", "--out", ann, "--out-dets", dets],
        ["fuse", "--dets", dets, "--out", paths["fused.json"]],
        ["fuse", "--dets", dets, "--naive", "--out", paths["fused_naive.json"]],
        ["fuse", "--dets", dets, "--set", "fusion_top_k=3", "--out", paths["fused_top3.json"]],
        ["eval", "--annotations", ann, "--dets", paths["fused.json"],
         "--scale-range", "16,560", "--out", paths["metrics.json"]],
        ["stage-hist", "--annotations", ann, "--out", paths["hist.csv"],
         "--json", paths["hist.json"]],
        ["eval", "--annotations", ann, "--dets", paths["fused.json"],
         "--out", paths["metrics_unrestricted.json"], "--csv", paths["metrics_unrestricted.csv"]],
        ["simulate", "--images", "40", "--seed", "17", "--crowd-fraction", "0.2",
         "--out", crowd_ann, "--out-dets", crowd_dets],
        ["fuse", "--dets", crowd_dets, "--out", crowd_fused],
        ["eval", "--annotations", crowd_ann, "--dets", crowd_fused,
         "--scale-range", "16,560", "--out", paths["crowd_metrics.json"]],
        ["search", "--simulate", "--images", "8", "--seed", "17", "--out", paths["search.json"]],
        ["search", "--simulate", "--images", "8", "--seed", "17",
         "--set", "eval.scale_restriction=[16,560]", "--set", "eval.max_dets=10",
         "--set", "fusion_top_k=5", "--set", "soft_nms.method=hard",
         "--out", paths["search_restricted.json"]],
        ["search", "--simulate", "--images", "8", "--seed", "17",
         "--set", "eval.scale_restriction=[16,560]", "--set", "eval.max_dets=2",
         "--out", paths["search_max_dets.json"]],
        ["partition", "--annotations", ann, "--policy", "isn",
         "--out", paths["partition_isn.json"]],
        ["partition", "--annotations", ann, "--policy", "snip",
         "--out", paths["partition_snip.json"]],
        ["analyze-snip", "--annotations", ann, "--out", paths["analyze_snip.json"],
         "--csv", paths["analyze_snip.csv"]],
        ["search", "--table", table, "--out", paths["search_table.json"]],
        ["partition", "--annotations", crowd_ann, "--policy", "isn",
         "--out", paths["crowd_partition_isn.json"]],
        ["partition", "--annotations", crowd_ann, "--policy", "snip",
         "--out", paths["crowd_partition_snip.json"]],
        ["analyze-snip", "--annotations", crowd_ann, "--out", paths["crowd_analyze_snip.json"],
         "--csv", paths["crowd_analyze_snip.csv"]],
        ["stage-hist", "--annotations", crowd_ann, "--out", workdir / "crowd_hist.csv",
         "--json", paths["crowd_hist.json"]],
    ]
    for argv in commands:
        assert cli_main([str(a) for a in argv]) == 0, argv
    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in paths.items()
    }


def test_pipeline_artifacts_match_golden_digests(tmp_path):
    assert pipeline_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = pipeline_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
