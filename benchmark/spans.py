"""In-memory span tracing around the program's public functions.

The traced run replaces each public function, under every name its callers
look it up by, with a wrapper that records a span: name, start, end, parent
span and op id, plus the counts measured at that boundary. Spans stay in
memory until the run ends, are written to a JSON-lines file, and every
per-layer metric is derived from that file. A span's layer is the first part
of its name, after the module that does the work.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import time
from collections import Counter

import scalenorm
from scalenorm import cli, config, dataio, evaluation, fusion, pyramid, sampling, search, simulate

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, op id, hidden seconds, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def span(self, name, fn, *args, count=None, **kwargs):
        """Call fn inside a span; `count(args, kwargs, result)` gives its counts.

        Time spent here on bookkeeping, outside the child's own interval, is
        booked as the parent's hidden time so it is not charged to the
        parent's layer.
        """
        entered = clock()
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.op, 0.0, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            record[1], record[2] = start, end
        if count is not None:
            record[6] = count(args, kwargs, result)
        if parent is not None:
            self.spans[parent][5] += (start - entered) + (clock() - end)
        return result

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "hidden", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# --- counts measured at the span boundaries --------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_annotations(args, kwargs, dataset):
    return {
        "bytes_read": os.path.getsize(args[0]),
        "records_read": len(dataset.images) + len(dataset.instances) + len(dataset.categories),
    }


def _count_records(args, kwargs, records):
    return {"bytes_read": os.path.getsize(args[0]), "records_read": len(records)}


def _count_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


def _count_simulated(args, kwargs, per_resolution):
    dataset = _arg(args, kwargs, 0, "dataset")
    streams = (len(dataset.instances) + len(dataset.images)) * len(per_resolution)
    return {"raw_dets": sum(len(d) for _, d in per_resolution), "rng_streams": streams}


def _count_gated(args, kwargs, kept):
    return {"dets_in": len(_arg(args, kwargs, 0, "dets")), "dets_gated": len(kept)}


def _count_groups(args, kwargs, result):
    sizes = Counter(d.category_id for d in _arg(args, kwargs, 0, "dets"))
    return {"group_pairs": sum(n * n for n in sizes.values())}


def _count_evaluated(args, kwargs, result):
    gts, dets = _arg(args, kwargs, 0, "gts"), _arg(args, kwargs, 1, "dets")
    cfg = _arg(args, kwargs, 2, "cfg") or scalenorm.EvalConfig()
    restrict = cfg.scale_restriction
    if restrict is not None:
        dets = [d for d in dets if restrict.contains(math.sqrt(d.bbox.w * d.bbox.h))]
    g = Counter((x.image_id, x.category_id) for x in gts)
    d = Counter((x.image_id, x.category_id) for x in dets)
    return {
        "calls": 1,
        "units": len(g.keys() | d.keys()),
        "det_gt_pairs": sum(min(n, cfg.max_dets) * g[key] for key, n in d.items()),
    }


def _count_search(args, kwargs, result):
    oracle = _arg(args, kwargs, 1, "oracle")
    return {"probes": len(result[1]), "oracle_calls": oracle.calls}


def _constant(**counts):
    return lambda args, kwargs, result: counts


# (owners that bind the name, attribute, span name, counter). Every module
# that imported a function by name is listed, so each call site is traced.
TARGETS = [
    ((config.AppConfig,), "to_dict", "config.to_dict", _constant(to_dict_calls=1)),
    ((config.AppConfig,), "from_dict", "config.from_dict", None),
    ((cli, config), "apply_override", "config.apply_override", None),
    ((dataio,), "load_annotations", "dataio.read.annotations", _count_annotations),
    ((dataio,), "load_detection_records", "dataio.read.records", _count_records),
    ((dataio,), "load_detections", "dataio.read.detections", None),
    ((dataio,), "tagged_detections_from_records", "dataio.read.tagged", None),
    ((dataio,), "write_json", "dataio.write.json", _count_written),
    ((dataio,), "write_csv", "dataio.write.csv", _count_written),
    ((dataio,), "dataset_to_dict", "dataio.write.dataset", None),
    ((dataio,), "detections_to_records", "dataio.write.records", None),
    ((scalenorm, simulate, cli), "generate_dataset", "simulate.generate", None),
    ((scalenorm, simulate, cli), "simulate_detections", "simulate.detect", _count_simulated),
    ((sampling, pyramid, cli), "isn_partition", "sampling.partition", None),
    ((pyramid, cli), "stage_histogram", "pyramid.stage_hist", None),
    # strategy_detections lives in simulate but is the dataset-level fusion driver.
    ((scalenorm, simulate, cli), "strategy_detections", "fusion.strategy", None),
    ((scalenorm, fusion, simulate), "fuse_multiscale", "fusion.fuse_multiscale",
     lambda a, k, out: {"dets_out": len(out)}),
    ((fusion, simulate), "gate_predictions", "fusion.gate", _count_gated),
    ((fusion, simulate), "soft_nms", "fusion.soft_nms", _count_groups),
    ((scalenorm, evaluation, simulate, cli), "evaluate", "evaluation.evaluate", _count_evaluated),
    ((evaluation, cli), "ap_by_scale_report", "evaluation.report", None),
    ((search, cli), "greedy_range_search", "search.search", _count_search),
    ((search.ApOracle,), "query", "search.query", _constant(oracle_queries=1)),
]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every target through `tracer` for the duration of the block."""
    saved = []
    for owners, attr, name, count in TARGETS:
        for owner in owners:
            static = inspect.getattr_static(owner, attr)
            original = getattr(owner, attr)

            def traced(*args, _fn=original, _name=name, _count=count, **kwargs):
                return tracer.span(_name, _fn, *args, count=_count, **kwargs)

            if isinstance(static, classmethod):
                traced = staticmethod(traced)  # `original` is already bound
            saved.append((owner, attr, static))
            setattr(owner, attr, traced)
    try:
        yield tracer
    finally:
        for owner, attr, static in reversed(saved):
            setattr(owner, attr, static)


# --- per-layer metrics ------------------------------------------------------

CLI_COMMANDS = ("simulate", "partition", "stage_hist", "fuse", "eval", "search")

# name -> unit; every traced run reports all of them, 0 where a layer is idle.
PER_LAYER_UNITS = {
    **{f"cli.{c}_ms": "ms" for c in CLI_COMMANDS},
    "cli.self_ms": "ms",
    "config.ms": "ms",
    "config.to_dict_calls": "count",
    "dataio.read_ms": "ms",
    "dataio.write_ms": "ms",
    "dataio.bytes_read": "bytes",
    "dataio.bytes_written": "bytes",
    "dataio.records_read": "count",
    "simulate.generate_ms": "ms",
    "simulate.detect_ms": "ms",
    "simulate.raw_dets": "count",
    "simulate.rng_streams": "count",
    "setup.simulate_ms": "ms",
    "sampling.partition_ms": "ms",
    "pyramid.stage_hist_ms": "ms",
    "fusion.fuse_ms": "ms",
    "fusion.gate_ms": "ms",
    "fusion.soft_nms_ms": "ms",
    "fusion.dets_in": "count",
    "fusion.dets_gated": "count",
    "fusion.dets_out": "count",
    "fusion.group_pairs": "count",
    "evaluation.evaluate_ms": "ms",
    "evaluation.report_ms": "ms",
    "evaluation.calls": "count",
    "evaluation.units": "count",
    "evaluation.det_gt_pairs": "count",
    "search.search_ms": "ms",
    "search.probe_ms": "ms",
    "search.probes": "count",
    "search.oracle_queries": "count",
    "search.oracle_calls": "count",
    "runtime.gc_collections": "count",
    "trace.overhead_pct": "%",
}


def derive(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-op layer metrics from a span file.

    `_ms` metrics are self time (span minus its children and the tracer's
    own bookkeeping) summed over the layer and divided by the op count,
    except `cli.<command>_ms` (mean duration of one such call),
    `evaluation.report_ms` (whole report call per op), `search.probe_ms`
    (oracle query time per probe) and `setup.simulate_ms` (simulate-layer
    self time during set-up). Counts are totals per op.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_ms: Counter = Counter()
    total_ms: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    setup_simulate = 0.0
    for s, inner in zip(spans, child):
        duration = s["end"] - s["start"]
        own = (duration - inner - s["hidden"]) * 1e3
        if s["op"] == "setup":
            if s["name"].startswith("simulate."):
                setup_simulate += own
            continue
        name = s["name"]
        parts = name.split(".")
        for key in {name, parts[0], ".".join(parts[:2])}:
            self_ms[key] += own
        total_ms[name] += duration * 1e3
        calls[name] += 1
        for key, value in (s["counts"] or {}).items():
            counts[key] += value

    def per_op(value):
        return value / ops

    out = {
        f"cli.{c}_ms": total_ms[f"cli.{c}"] / calls[f"cli.{c}"] if calls[f"cli.{c}"] else 0.0
        for c in CLI_COMMANDS
    }
    out.update(
        {
            "cli.self_ms": per_op(self_ms["cli"]),
            "config.ms": per_op(self_ms["config"]),
            "config.to_dict_calls": per_op(counts["to_dict_calls"]),
            "dataio.read_ms": per_op(self_ms["dataio.read"]),
            "dataio.write_ms": per_op(self_ms["dataio.write"]),
            "dataio.bytes_read": per_op(counts["bytes_read"]),
            "dataio.bytes_written": per_op(counts["bytes_written"]),
            "dataio.records_read": per_op(counts["records_read"]),
            "simulate.generate_ms": per_op(self_ms["simulate.generate"]),
            "simulate.detect_ms": per_op(self_ms["simulate.detect"]),
            "simulate.raw_dets": per_op(counts["raw_dets"]),
            "simulate.rng_streams": per_op(counts["rng_streams"]),
            "setup.simulate_ms": setup_simulate,
            "sampling.partition_ms": per_op(self_ms["sampling"]),
            "pyramid.stage_hist_ms": per_op(self_ms["pyramid"]),
            "fusion.fuse_ms": per_op(self_ms["fusion"]),
            "fusion.gate_ms": per_op(self_ms["fusion.gate"]),
            "fusion.soft_nms_ms": per_op(self_ms["fusion.soft_nms"]),
            "fusion.dets_in": per_op(counts["dets_in"]),
            "fusion.dets_gated": per_op(counts["dets_gated"]),
            "fusion.dets_out": per_op(counts["dets_out"]),
            "fusion.group_pairs": per_op(counts["group_pairs"]),
            "evaluation.evaluate_ms": per_op(self_ms["evaluation"]),
            "evaluation.report_ms": per_op(total_ms["evaluation.report"]),
            "evaluation.calls": per_op(counts["calls"]),
            "evaluation.units": per_op(counts["units"]),
            "evaluation.det_gt_pairs": per_op(counts["det_gt_pairs"]),
            "search.search_ms": per_op(self_ms["search"]),
            "search.probe_ms": (
                total_ms["search.query"] / counts["probes"] if counts["probes"] else 0.0
            ),
            "search.probes": per_op(counts["probes"]),
            "search.oracle_queries": per_op(counts["oracle_queries"]),
            "search.oracle_calls": per_op(counts["oracle_calls"]),
        }
    )
    return out
