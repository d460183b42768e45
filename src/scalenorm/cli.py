"""Command-line surface wiring ingestion, analysis, fusion, evaluation,
range search, and the synthetic detector into file-based pipelines."""

from __future__ import annotations

import argparse
import functools
import sys

from . import dataio
from .config import AppConfig, apply_override, parse_range
from .evaluation import ap_by_scale_report, evaluate
from .fusion import _FusionIndex
from .geometry import UNBOUNDED_RANGE, ScaleRange
from .pyramid import stage_histogram
from .sampling import (
    DEFAULT_SNIP_TABLE,
    IsnPolicy,
    SnipPolicy,
    consistency_overlap,
    isn_partition,
    resized_scale_distributions,
    snip_partition,
)
from .search import ApOracle, greedy_range_search
from .simulate import (  # benchmark/spans.py traces strategy_detections under this name too
    generate_dataset, isn_range_evaluator, simulate_detections, strategy_detections,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args, _effective_config(args))
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - single-line reporting contract
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


# Options several subcommands take, declared once: flag -> add_argument keywords.
_SHARED = {
    "--annotations": {"required": True, "help": "COCO annotation JSON"},
    "--snip-table": {"help": "per-resolution range table JSON"},
}


@functools.cache  # parse_args copies the `--set` list default, so calls share no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalenorm",
        description=(
            "Scale-consistent sample selection, multi-resolution fusion, "
            "COCO-style evaluation, and scale-range search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, *shared: str, out_help="output JSON path"):
        """A subcommand with the config options, `--out` and the named `_SHARED` options."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override any config field, e.g. --set soft_nms.sigma=0.7",
        )
        p.add_argument("--out", required=True, help=out_help)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(handler=handler)
        return p

    p = command("partition", _cmd_partition, "split instances into valid/ignored per resolution",
                "--annotations", "--snip-table")
    p.add_argument("--policy", choices=("isn", "snip"), default="isn")

    p = command("analyze-snip", _cmd_analyze_snip,
                "trained/ignored scale distributions and overlap",
                "--annotations", "--snip-table")
    p.add_argument("--csv", help="also write histogram rows as CSV")

    p = command("fuse", _cmd_fuse, "gate, project, and merge per-resolution detections")
    p.add_argument("--dets", required=True, nargs="+", help="tagged detection dumps")
    p.add_argument("--naive", action="store_true", help="disable range gating")

    p = command("eval", _cmd_eval, "COCO-style metrics for detections vs annotations",
                "--annotations")
    p.add_argument("--dets", required=True)
    p.add_argument("--scale-range", dest="restriction",  # not the config's scale_range
                   help="also evaluate restricted to 'lower,upper'")
    p.add_argument("--csv", help="also write metrics as CSV")

    p = command("search", _cmd_search, "greedy coordinate descent over range candidates")
    p.add_argument("--table", help="range -> metrics lookup JSON")
    p.add_argument("--simulate", action="store_true", help="evaluate ranges end-to-end")
    p.add_argument("--images", type=int, default=50, help="synthetic images for --simulate")

    p = command("simulate", _cmd_simulate, "generate a synthetic dataset and detection dumps",
                out_help="output annotations JSON path")
    p.add_argument("--out-dets", required=True, help="output tagged detections path")
    p.add_argument("--images", type=int, default=100)
    p.add_argument("--categories", type=int, default=3)
    p.add_argument("--crowd-fraction", type=float, default=0.0)

    p = command("stage-hist", _cmd_stage_hist, "per-stage valid training-sample counts",
                "--annotations", out_help="output CSV path")
    p.add_argument("--json", dest="json_out", help="also write histogram as JSON")
    return parser


def _effective_config(args: argparse.Namespace) -> AppConfig:
    cfg = AppConfig.from_dict(dataio.load_json(args.config)) if args.config else AppConfig()
    if args.overrides:
        data = cfg.to_dict()
        for assignment in args.overrides:
            apply_override(data, assignment)
        cfg = AppConfig.from_dict(data)
    if args.seed is not None:
        if args.seed < 0:  # with_seed would name the config key, not the flag
            raise ValueError(f"--seed: expected an integer >= 0, got {args.seed}")
        cfg = cfg.with_seed(args.seed)
    return cfg


def _emit(path: str, cfg: AppConfig, payload: dict) -> None:
    """Write `payload` as JSON with the effective config echoed under "config"."""
    dataio.write_json(path, {"config": cfg.to_dict(), **payload})


def _snip_table(args: argparse.Namespace):
    if args.snip_table:
        return dataio.load_snip_table(args.snip_table)
    return DEFAULT_SNIP_TABLE


def _cmd_partition(args: argparse.Namespace, cfg: AppConfig) -> None:
    dataset = dataio.load_annotations(args.annotations)
    table = _snip_table(args)  # read and checked under either policy
    # (what names the resolution, its partition) per resolution index
    if args.policy == "isn":
        parts = [
            ({"scale_factor": f}, isn_partition(dataset.instances, f, cfg.scale_range))
            for f in cfg.pyramid
        ]
    else:
        parts = [
            ({"resolution": [e.height, e.width]}, snip_partition(dataset.instances, i, table))
            for i, e in enumerate(table.entries)
        ]
    partitions = [
        {
            "resolution_index": index,
            **name,
            "valid_count": len(part.valid),
            "ignored_count": len(part.ignored),
            "valid_ids": sorted(i.id for i in part.valid),
            "ignored_ids": sorted(i.id for i in part.ignored),
        }
        for index, (name, part) in enumerate(parts)
    ]
    _emit(args.out, cfg, {"policy": args.policy, "partitions": partitions})


def _histogram_payload(hist) -> dict:
    return {
        "bin_edges": [float(e) for e in hist.edges],
        "mass": [float(m) for m in hist.mass],
        "total_pairs": hist.total,
        "empty": hist.total == 0,
    }


def _cmd_analyze_snip(args: argparse.Namespace, cfg: AppConfig) -> None:
    dataset = dataio.load_annotations(args.annotations)
    sizes = dataset.image_sizes()
    report = {}
    rows = []
    policies = {
        "isn": IsnPolicy(cfg.pyramid, cfg.scale_range),
        "snip": SnipPolicy(_snip_table(args)),
    }
    for name, policy in policies.items():
        trained, ignored = resized_scale_distributions(
            dataset.instances, policy, sizes
        )
        report[name] = {
            "trained": _histogram_payload(trained),
            "ignored": _histogram_payload(ignored),
            "overlap": consistency_overlap(trained, ignored),
        }
        for b in range(len(trained.mass)):
            rows.append(
                (
                    name,
                    float(trained.edges[b]),
                    float(trained.edges[b + 1]),
                    float(trained.mass[b]),
                    float(ignored.mass[b]),
                )
            )
    _emit(args.out, cfg, {"policies": report})
    if args.csv:
        dataio.write_csv(
            args.csv, ("policy", "bin_lower", "bin_upper", "trained", "ignored"), rows
        )


def _cmd_fuse(args: argparse.Namespace, cfg: AppConfig) -> None:
    records = [rec for path in args.dets for rec in dataio.load_detection_records(path)]
    gate = UNBOUNDED_RANGE if args.naive else cfg.scale_range  # as strategy_detections gates
    rows = dataio._detection_rows(records, True, file_order=True)  # numbered as read
    index = _FusionIndex(*rows, gate, cfg.soft_nms)
    _, fused = index.probe(gate, cfg.fusion_top_k)
    _emit(args.out, cfg, {"detections": dataio._table_records(fused)})


def _cmd_eval(args: argparse.Namespace, cfg: AppConfig) -> None:
    if args.restriction and cfg.eval.scale_restriction is not None:
        raise ValueError("--scale-range conflicts with config key 'eval.scale_restriction'")
    dataset = dataio.load_annotations(args.annotations)
    dets = dataio.load_detections(args.dets)
    known_images = {img.id for img in dataset.images}
    for i, det in enumerate(dets):
        if det.image_id not in known_images:
            raise dataio.DataFormatError(
                f"detection #{i}: references missing image {det.image_id}"
            )
    categories = dataset.category_ids()
    if args.restriction:
        restriction = parse_range(args.restriction)
        unrestricted, restricted = ap_by_scale_report(
            dataset.instances, dets, cfg.eval, restriction, categories
        )
        payload = {
            "scale_range": restriction.to_pair(),
            "unrestricted": unrestricted.to_dict(),
            "restricted": restricted.to_dict(),
        }
        csv_rows = [
            ("unrestricted/" + c, m, v) for c, m, v in unrestricted.csv_rows()
        ] + [("restricted/" + c, m, v) for c, m, v in restricted.csv_rows()]
    else:
        result = evaluate(dataset.instances, dets, cfg.eval, categories)
        payload = {"metrics": result.to_dict()}
        csv_rows = result.csv_rows()
    _emit(args.out, cfg, payload)
    if args.csv:
        dataio.write_csv(args.csv, ("category", "metric", "value"), csv_rows)


def _cmd_search(args: argparse.Namespace, cfg: AppConfig) -> None:
    if bool(args.table) == bool(args.simulate):
        raise ValueError("search needs exactly one of --table or --simulate")
    if args.table:
        oracle = ApOracle.from_table(dataio.load_oracle_table(args.table))
    else:
        dataset = generate_dataset(args.images, cfg.seed)
        per_resolution = simulate_detections(dataset, cfg.pyramid, cfg.detector)
        hull = ScaleRange(cfg.search.lower_candidates[0], cfg.search.upper_candidates[-1])
        oracle = ApOracle(isn_range_evaluator(
            dataset, per_resolution, hull, cfg.soft_nms, cfg.fusion_top_k, cfg.eval
        ))
    best, trace = greedy_range_search(cfg.search, oracle)
    best_ap = dict(trace)[best]
    _emit(args.out, cfg, {
        "best_range": best.to_pair(),
        "best_ap": best_ap,
        "trace": [{"range": rng.to_pair(), "ap": ap} for rng, ap in trace],
    })
    print(f"best range [{best.lower:g}, {best.upper:g}] ap {best_ap:.6g}")


def _cmd_simulate(args: argparse.Namespace, cfg: AppConfig) -> None:
    dataset = generate_dataset(
        args.images,
        cfg.seed,
        num_categories=args.categories,
        crowd_fraction=args.crowd_fraction,
    )
    per_resolution = simulate_detections(dataset, cfg.pyramid, cfg.detector)
    _emit(args.out, cfg, dataio.dataset_to_dict(dataset))
    records = []
    for factor, dets in per_resolution:
        records.extend(dataio.detections_to_records(dets, factor))
    _emit(args.out_dets, cfg, {"detections": records})


def _cmd_stage_hist(args: argparse.Namespace, cfg: AppConfig) -> None:
    dataset = dataio.load_annotations(args.annotations)
    counts = stage_histogram(dataset.instances, cfg.pyramid, cfg.scale_range, cfg.fpn)
    rows = [(level, counts[level]) for level in sorted(counts)]
    dataio.write_csv(args.out, ("level", "count"), rows)
    if args.json_out:
        _emit(args.json_out, cfg, {"histogram": {str(level): n for level, n in rows}})

