"""speechdep pipeline benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload {ingest,train,ensemble} --seed N --seconds S --trace {0,1}

Run from the repository root. The workload's inputs are built from --seed
(set-up, done SETUP_REPS times and reported as the median), then its stages
are run in a closed loop, at least twice and until --seconds have passed.
Every stage runs in a child process of its own with --jobs 1. With --trace 0
the last stdout line carries the end-to-end metrics of BENCHMARK.json, as
medians over the iterations. With --trace 1 a traced iteration between two
untraced ones gives the per-layer metrics, and the tracing overhead is the
traced wall time minus the untraced mean. Outputs are checked by the correctness gate in
harness.py and must be byte-identical across the iterations of a run. After
the measured stages, untimed, the criterion-9 pipeline runs and its artifacts
must match golden.json; a pass is recorded per source tree, so this happens
in the first run of a checkout and again whenever the code changes. The full
report, with provenance and artifact digests, is written to
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

from harness import (
    BENCH_DIR,
    ROOT,
    GateError,
    alloc_bytes_per_value,
    check_golden,
    check_span_tree,
    combined_digest,
    golden_marker,
    provenance,
    require_package,
    same_digests,
    span_totals,
)
from tracer import COUNTERS, TRACED
from workloads import GOLDEN_SEED, REFERENCE, WORKLOADS, Runner, Sizes, golden_pipeline, remove

SETUP_REPS = 3
MIN_ITERATIONS = 2
# interpreter start-up before the tracer's root span and exit after it
UNCOVERED_TOLERANCE_S = 0.5
OUT_DIR = ROOT / ".bench_build" / "perfbench"

STAGES = ("synth", "featurize", "train", "evaluate", "curve")
STAGE_THROUGHPUT = {
    "synth": "synth_audio_s_per_s",
    "featurize": "featurize_crops_per_s",
    "train": "train_crop_epochs_per_s",
    "evaluate": "evaluate_predictions_per_s",
    "curve": "curve_fusions_per_s",
}


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _digests(stages) -> dict[str, str]:
    return {name: value for s in stages for name, value in s.digests.items()}


def measure(run: Runner, name: str, seconds: float, work: Path) -> tuple[dict, dict]:
    """End-to-end run: returns (metric values, report details)."""
    setup, iterate = WORKLOADS[name]
    setup_times, setup_digests = [], []
    for rep in range(SETUP_REPS):
        if rep:
            remove(work / f"setup{rep - 1}")
        start = time.perf_counter()
        inputs = setup(run, work / f"setup{rep}")
        setup_times.append(time.perf_counter() - start)
        setup_digests.append(inputs["digests"])
    same_digests(setup_digests, f"{name} set-up")
    os.sync()  # write back the set-up's files now rather than during the timed stages

    iterations = []
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        d = work / f"iter{len(iterations)}"
        iterations.append(iterate(run, d, inputs))
        remove(d)
    same_digests([_digests(it) for it in iterations], f"{name} iterations")

    walls = [sum(s.wall_s for s in it) for it in iterations]
    # the workload's input size: audio seconds, crop-epochs or machine-crop predictions
    work_units = next(s.work for s in iterations[0] if s.stage in ("synth", "train", "evaluate"))
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(max(s.peak_rss_mb for s in it) for it in iterations),
        "work_per_s": statistics.median(work_units / w for w in walls),
    }
    details = {
        "setup_s": setup_times,
        "iterations": [[_stage_row(s) for s in it] for it in iterations],
        "digests": _digests(iterations[0]),
        "setup_digests": setup_digests[0],
    }
    return values, details


def _stage_row(s) -> dict:
    return {"stage": s.stage, "wall_s": s.wall_s, "peak_rss_mb": s.peak_rss_mb, "minor_faults": s.minor_faults, "work": s.work}


def profile(run: Runner, name: str, work: Path) -> tuple[dict, dict]:
    """Traced run: a traced iteration between two untraced ones; returns (per-layer values, details).

    Stage throughputs, RSS and page faults come from the untraced iterations;
    the tracing overhead is the traced wall time minus their mean.
    """
    setup, iterate = WORKLOADS[name]
    inputs = setup(run, work / "setup")
    os.sync()
    before = iterate(run, work / "before", inputs)
    remove(work / "before")
    run.spans_dir = work / "spans"
    run.spans_dir.mkdir(parents=True)
    traced = iterate(run, work / "traced", inputs)
    run.spans_dir = None
    after = iterate(run, work / "after", inputs)
    remove(work / "after")
    same_digests([_digests(before), _digests(traced), _digests(after)], f"{name} traced vs untraced")

    values = dict.fromkeys(layer_names(), 0.0)
    for stage in STAGES:
        values[STAGE_THROUGHPUT[stage]] = 0.0
        values[f"stage.{stage}.peak_rss_mb"] = 0.0
        values[f"stage.{stage}.minor_faults"] = 0.0
        values[f"cli.{stage}.self_s"] = 0.0
    for a, b in zip(before, after):
        values[STAGE_THROUGHPUT[a.stage]] = 2 * a.work / (a.wall_s + b.wall_s)
        values[f"stage.{a.stage}.peak_rss_mb"] = max(a.peak_rss_mb, b.peak_rss_mb)
        values[f"stage.{a.stage}.minor_faults"] = (a.minor_faults + b.minor_faults) / 2

    uncovered = [check_span_tree(s, UNCOVERED_TOLERANCE_S) for s in traced]
    totals: dict[str, float] = {}
    for s in traced:
        for key, value in span_totals(s.spans).items():
            totals[key] = totals.get(key, 0.0) + value
    values.update(totals)
    untraced_wall = (sum(s.wall_s for s in before) + sum(s.wall_s for s in after)) / 2
    values["trace.overhead_s"] = sum(s.wall_s for s in traced) - untraced_wall
    values["trace.uncovered_s"] = max(uncovered)

    clips = sum(s.info.get("clips", 0) for s in traced if s.stage == "featurize")
    values["audio_io.load_wav.calls_per_clip"] = totals.get("audio_io.load_wav.calls", 0.0) / clips if clips else 0.0
    cache = inputs.get("cache") or work / "traced" / "feats" / "train.lspg"
    values["features.read_feature_cache.alloc_bytes_per_value"] = alloc_bytes_per_value(cache)

    details = {
        "untraced": [[_stage_row(s) for s in before], [_stage_row(s) for s in after]],
        "traced": [_stage_row(s) for s in traced],
        "digests": _digests(traced),
    }
    return values, details


def layer_names() -> list[str]:
    """Every span metric a traced iteration can produce; a layer that did no work reads 0."""
    names = [f"{m}.{f}.{kind}" for m, fs in TRACED.items() for f in fs for kind in ("s", "self_s", "calls")]
    return names + [f"{name}.{kind}" for name, (kind, _) in COUNTERS.items()]


def select(values: dict, entries: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with its units."""
    out = {}
    for entry in entries:
        if entry["name"] not in values:
            raise GateError(f"metric {entry['name']} is not produced by the benchmark")
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise GateError(f"metric {entry['name']} is not finite")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path, spec: dict) -> dict:
    """Measure one workload; returns the result object plus a `details` entry for the report.

    A correctness-gate failure, the golden check's included, stops the run
    and yields correct=false with no metrics. Only a passed golden check is
    recorded, so code that fails it fails every run.
    """
    run, golden = Runner(seed, sizes), Runner(GOLDEN_SEED, sizes)
    remove(work)
    work.mkdir(parents=True)
    error = None
    try:
        if trace:
            values, details = profile(run, name, work)
        else:
            values, details = measure(run, name, seconds, work)
        marker = golden_marker(OUT_DIR)
        if not marker.exists():  # about 7 s, once per source tree rather than in every run
            check_golden(_digests(golden_pipeline(golden, work / "golden")))
            marker.touch()
        metrics = select(values, spec["per_layer" if trace else "end_to_end"])
    except GateError as exc:
        error = str(exc)
    finally:
        remove(work)
    attempted, failed = run.attempted + golden.attempted, run.failed + golden.failed
    if error is not None:
        return {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                "metrics": {}, "details": {"error": error, "digests": {}}}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_package()
    spec = load_spec()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    prov = provenance(args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), REFERENCE, work, spec)
    details = result.pop("details")
    report = {"workload": args.workload, "trace": args.trace, "provenance": prov, **details, "result": result}
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"artifact digest {combined_digest(details['digests'])} over {len(details['digests'])} files")
    for key, metric in result["metrics"].items():
        print(f"{key:52s} {metric['value']:.6g} {metric['unit']}")
    print(f"report {report_path.relative_to(ROOT)}")
    if not result["correct"]:
        print(f"correctness gate failed: {details['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
