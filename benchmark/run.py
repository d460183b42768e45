"""Benchmark for scalenorm: one closed-loop caller in one single-threaded process.

    python3 benchmark/run.py --workload quickstart|dense_fuse|search|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/` and the
references from `tests/oracles.py`. After set-up and an untimed warm-up pass,
the run replays the workload's seeded inputs in whole passes until the op
time reaches S seconds; outputs are compared with the warm-up's and the
warm-up outputs are checked against the references, all outside the timed
intervals. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import os

# One thread everywhere, set before NumPy (and its BLAS) is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOAD_NAMES = ("quickstart", "dense_fuse", "search")
SETUP_REPEATS = 3
CHUNK_S = 0.1
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
clock = time.perf_counter
_RAISED = object()


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _untraced(name, fn, *args):
    return fn(*args)


# `workloads`, `spans` and `calibration` import NumPy and scalenorm, so they
# are imported inside the functions below, after the set-up timer starts.
def _load_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _set_up(args, workdir):
    """Import scalenorm and build the workload's inputs.

    Returns (workload, set-up seconds at reference host speed).
    """
    start = clock()
    workload = _load_workloads().WORKLOADS[args.workload](args.seed, workdir)
    elapsed = clock() - start
    import calibration

    speed = statistics.median([calibration.loop_seconds() for _ in range(3)])
    return workload, elapsed * calibration.REFERENCE_S / speed


def _setup_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _warm_up(workload):
    """Run every input once; returns (outputs, errors by input index)."""
    outputs, errors = [], {}
    for i in range(len(workload.inputs)):
        try:
            outputs.append(workload.output(i, workload.run(i, _untraced)))
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            outputs.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
    return outputs, errors


def _one_pass(workload, expected, span=_untraced, tracer=None, first_op=0):
    """One op per input.

    Returns (wall seconds per op, seconds per op at reference host speed,
    status per op): "" for a good op, "raised", or "differs" when its output
    is not the warm-up's. The calibration loop runs before and after every
    CHUNK_S of op time, and each op is rescaled by the mean of the two
    calibrations around it.
    """
    import calibration

    wall, scaled, status = [], [], []
    chunk, before = 0, calibration.loop_seconds()
    for i, want in enumerate(expected):
        if tracer is not None:
            tracer.op = first_op + i
        start = clock()
        try:
            result = workload.run(i, span)
        except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
            result = _RAISED
        wall.append(clock() - start)
        if result is _RAISED:
            status.append("raised")
        else:
            status.append("differs" if workload.output(i, result) != want else "")
        if sum(wall[chunk:]) >= CHUNK_S or i == len(expected) - 1:
            after = calibration.loop_seconds()
            factor = 2.0 * calibration.REFERENCE_S / (before + after)
            scaled += [t * factor for t in wall[chunk:]]
            chunk, before = len(wall), after
    return wall, scaled, status


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def measure(args, workdir: Path) -> dict:
    tracer = None
    if args.trace:
        _load_workloads()
        import spans

        tracer = spans.Tracer()
        tracer.op = "setup"
        with spans.instrumented(tracer):
            workload, _ = _set_up(args, workdir)
    else:
        workload, first = _set_up(args, workdir)
        setups = [first] + [_setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]

    expected, errors = _warm_up(workload)

    # Whole passes until the ops' wall time reaches args.seconds. A traced
    # run alternates untraced and traced passes: the untraced ones give the
    # tracing overhead and the garbage-collector counts, each started from a
    # full collection so the counts repeat exactly.
    latencies, status, untraced, collections = [], [], [], 0
    busy = traced_wall = 0.0
    while busy < args.seconds:
        if not args.trace:
            wall, scaled, sts = _one_pass(workload, expected)
        else:
            gc.collect()
            before = _gc_collections()
            plain_wall, plain, _ = _one_pass(workload, expected)
            collections += _gc_collections() - before
            untraced += plain
            busy += sum(plain_wall)
            with spans.instrumented(tracer):
                wall, scaled, sts = _one_pass(workload, expected, tracer.span, tracer, len(latencies))
            traced_wall += sum(wall)
        busy += sum(wall)
        latencies += scaled
        status += sts
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {
        i: found
        for i, out in enumerate(expected)
        if out is not None and (found := workload.check(i, out))
    }
    inputs = len(expected)
    mismatched = [k for k, s in enumerate(status) if s == "differs" and k % inputs not in errors]
    failed_inputs = set(errors) | set(problems)
    failed_ops = sum(bool(s) or k % inputs in failed_inputs for k, s in enumerate(status))
    for i, message in list(errors.items())[:3]:
        print(f"{workload.name}: input {i} raised {message}", file=sys.stderr)
    for i, found in list(problems.items())[:3]:
        print(f"{workload.name}: input {i}: {'; '.join(found[:3])}", file=sys.stderr)
    if mismatched:
        print(f"{workload.name}: {len(mismatched)} ops differ from the warm-up", file=sys.stderr)

    if args.trace:
        path = RUN_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(str(path))
        values = spans.derive(spans.load_spans(str(path)), len(latencies))
        # Span times are wall times; bring them to reference host speed with
        # the traced ops' overall rescaling.
        factor = sum(latencies) / traced_wall
        values = {k: v * factor if k.endswith("_ms") else v for k, v in values.items()}
        values["runtime.gc_collections"] = collections / len(untraced)
        values["trace.overhead_pct"] = (
            statistics.fmean(latencies) / statistics.fmean(untraced) - 1.0
        ) * 100.0
        units = spans.PER_LAYER_UNITS
    else:
        # An input's latency is its median over the passes, which keeps the
        # percentiles clear of host-speed blips shorter than a calibration.
        per_input = [statistics.median(latencies[i::inputs]) for i in range(inputs)]
        values = {
            "throughput_ops_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(per_input) * 1e3,
            "op_p90_ms": statistics.quantiles(per_input, n=10)[8] * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not problems and not mismatched,
        "attempted": len(latencies),
        "failed": failed_ops,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    for required in (ROOT / "src" / "scalenorm" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not required.is_file():
            print(f"error: {required.relative_to(ROOT)} not found; run from a "
                  "scalenorm checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _, seconds = _set_up(args, workdir)
            print(seconds)
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
