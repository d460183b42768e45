"""The benchmark's three workloads.

Each workload draws its inputs from the benchmark seed and exposes one op per
input: `run(index, span)` is the timed call into the program, `output` reads
what the op produced (untimed), and `check` verifies one output against the
references in `checks.py` (untimed). `span(name, fn, *args)` calls fn, inside
a span when the run is traced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path

import scalenorm
from scalenorm import cli

import checks

# Documented defaults, spelled out so the checks do not read them from the program.
FACTORS = (4.0, 2.0, 1.0, 0.5, 0.25)
WINDOW = (16.0, 560.0)
SIGMA = 0.5
SCORE_FLOOR = 0.001
TOP_K = 100


def _dataset_seeds(seed: int, count: int, images: int, instances: int) -> list[int]:
    """`count` dataset seeds drawn from `seed`, keeping those whose synthetic
    dataset of `images` images holds `instances` ± 1 instances.

    The generator draws 1 to 20 instances per image, and an op's cost grows
    with its instance count; equal-sized ops keep a run's figures from
    depending on how large the few dozen datasets a seed yields happen to be.
    """
    rng = random.Random(seed)
    kept: list[int] = []
    while len(kept) < count:
        candidate = rng.randrange(2**31)
        size = len(scalenorm.generate_dataset(images, candidate).instances)
        if abs(size - instances) <= 1:
            kept.append(candidate)
    return kept


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


class Quickstart:
    """The README's file flow through `scalenorm.cli.main`, one dataset per op."""

    name = "quickstart"
    DATASETS = 48
    IMAGES = 4
    INSTANCES = 42
    CROWD_FRACTION = 0.1
    FILES = (
        "ann.json", "dets.json", "parts.json", "hist.csv", "fused.json",
        "fused_naive.json", "metrics.json", "metrics.csv", "naive.json",
    )

    def __init__(self, seed: int, workdir: Path):
        self.inputs = _dataset_seeds(seed, self.DATASETS, self.IMAGES, self.INSTANCES)
        self.dir = workdir

    def _steps(self, seed: int):
        p = {name: str(self.dir / name) for name in self.FILES}
        yield "simulate", [
            "simulate", "--images", str(self.IMAGES), "--seed", str(seed),
            "--crowd-fraction", str(self.CROWD_FRACTION),
            "--out", p["ann.json"], "--out-dets", p["dets.json"],
        ]
        yield "partition", ["partition", "--annotations", p["ann.json"], "--out", p["parts.json"]]
        yield "stage_hist", ["stage-hist", "--annotations", p["ann.json"], "--out", p["hist.csv"]]
        yield "fuse", ["fuse", "--dets", p["dets.json"], "--out", p["fused.json"]]
        yield "fuse", ["fuse", "--dets", p["dets.json"], "--naive", "--out", p["fused_naive.json"]]
        yield "eval", [
            "eval", "--annotations", p["ann.json"], "--dets", p["fused.json"],
            "--scale-range", "16,560", "--out", p["metrics.json"], "--csv", p["metrics.csv"],
        ]
        yield "eval", [
            "eval", "--annotations", p["ann.json"], "--dets", p["fused_naive.json"],
            "--out", p["naive.json"],
        ]

    def run(self, index: int, span) -> None:
        for command, argv in self._steps(self.inputs[index]):
            code = span(f"cli.{command}", cli.main, argv)
            if code != 0:
                raise RuntimeError(f"scalenorm {argv[0]} exited with {code}")

    def output(self, index: int, result) -> dict[str, bytes]:
        return {name: (self.dir / name).read_bytes() for name in self.FILES}

    def check(self, index: int, files: dict[str, bytes]) -> list[str]:
        ann = json.loads(files["ann.json"])
        metrics = json.loads(files["metrics.json"])
        fused = json.loads(files["fused.json"])["detections"]
        naive = json.loads(files["fused_naive.json"])["detections"]
        return (
            checks.check_partition(ann, json.loads(files["parts.json"]), FACTORS, WINDOW)
            + checks.check_stage_hist(ann, _csv_rows(files["hist.csv"]), FACTORS, WINDOW)
            + checks.check_eval(ann, fused, metrics, restriction=WINDOW)
            + checks.check_eval_csv(metrics, _csv_rows(files["metrics.csv"]))
            + checks.check_eval(ann, naive, json.loads(files["naive.json"]))
        )


class DenseFuse:
    """`fuse_multiscale` on one pre-simulated dense image per op."""

    name = "dense_fuse"
    IMAGES = 80
    INSTANCES = 40
    FP_RATE = 8.0

    def __init__(self, seed: int, workdir: Path):
        cfg = scalenorm.AppConfig()
        data_seed = random.Random(seed).randrange(2**31)
        dataset = scalenorm.generate_dataset(
            self.IMAGES, data_seed,
            min_instances=self.INSTANCES, max_instances=self.INSTANCES,
        )
        profile = scalenorm.DetectorProfile(seed=data_seed, fp_rate=self.FP_RATE)
        per_resolution = scalenorm.simulate_detections(dataset, cfg.pyramid, profile)
        image_ids = sorted(img.id for img in dataset.images)
        by_image = [{i: [] for i in image_ids} for _ in per_resolution]
        for grouped, (_, dets) in zip(by_image, per_resolution):
            for det in dets:
                grouped[det.image_id].append(det)
        self.inputs = [
            [(factor, grouped[i]) for grouped, (factor, _) in zip(by_image, per_resolution)]
            for i in image_ids
        ]
        self.window, self.nms, self.top_k = cfg.scale_range, cfg.soft_nms, cfg.fusion_top_k

    def run(self, index: int, span):
        return scalenorm.fuse_multiscale(self.inputs[index], self.window, self.nms, self.top_k)

    def output(self, index: int, fused) -> list[tuple]:
        return [
            (d.score, d.category_id, d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.resolution_index)
            for d in fused
        ]

    def check(self, index: int, fused: list[tuple]) -> list[str]:
        stack = [
            (factor, [
                (d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score, d.category_id, d.resolution_index)
                for d in dets
            ])
            for factor, dets in self.inputs[index]
        ]
        want = checks.fused_reference(stack, WINDOW, SIGMA, SCORE_FLOOR, TOP_K)
        return checks.check_fused([d[:6] for d in fused], want)


class Search:
    """`scalenorm search --simulate` through `scalenorm.cli.main`, one seed per op."""

    name = "search"
    SEEDS = 48
    IMAGES = 2
    INSTANCES = 21

    def __init__(self, seed: int, workdir: Path):
        self.inputs = _dataset_seeds(seed, self.SEEDS, self.IMAGES, self.INSTANCES)
        self.out = workdir / "search.json"

    def run(self, index: int, span) -> str:
        argv = [
            "search", "--simulate", "--images", str(self.IMAGES),
            "--seed", str(self.inputs[index]), "--out", str(self.out),
        ]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = span("cli.search", cli.main, argv)
        if code != 0:
            raise RuntimeError(f"scalenorm search exited with {code}")
        return buffer.getvalue()

    def output(self, index: int, stdout: str) -> tuple[str, bytes]:
        return stdout, self.out.read_bytes()

    def check(self, index: int, output: tuple[str, bytes]) -> list[str]:
        seed = self.inputs[index]
        cfg = scalenorm.AppConfig().with_seed(seed)
        dataset = scalenorm.generate_dataset(self.IMAGES, seed)
        per_resolution = scalenorm.simulate_detections(dataset, cfg.pyramid, cfg.detector)
        image_ids = sorted(img.id for img in dataset.images)
        cats = dataset.category_ids()

        def reference_ap(lower: float, upper: float) -> float:
            fused = scalenorm.strategy_detections(
                per_resolution, image_ids, scalenorm.ScaleRange(lower, upper), "isn",
                cfg.soft_nms, cfg.fusion_top_k,
            )
            return checks.evaluate_reference(
                dataset.instances, fused, checks.eval_settings(), cats
            )["ap"]

        return checks.check_search(json.loads(output[1]), reference_ap)


WORKLOADS = {w.name: w for w in (Quickstart, DenseFuse, Search)}
