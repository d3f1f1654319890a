"""Self-test of the benchmark at the criterion-9 size: 3 + 2 speakers per class, 9 s clips, 3 machines.

    python3 perfbench/selftest.py

Run from the repository root. It checks that
- every workload, untraced and traced, emits exactly the metrics that
  BENCHMARK.json names, with their units, and passes its correctness gate;
- spans reach calls made through names that trainer, evaluation, ensemble and
  cli import from other modules;
- the correctness gate trips on corrupted artifacts, a failing stage,
  differing digests and a traced function left unwrapped;
- the criterion-9 pipeline (plus curve) reproduces the artifact digests in
  golden.json, recorded at the seed commit. When they differ, the new digests
  are printed; a change that alters output bytes on purpose edits golden.json
  by hand and says so.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys

from harness import (
    ROOT,
    GateError,
    check_curve,
    check_evaluate,
    check_featurize,
    check_golden,
    check_span_tree,
    check_train,
    combined_digest,
    require_package,
    run_cli,
    same_digests,
)
from run import UNCOVERED_TOLERANCE_S, load_spec, run_workload
from workloads import GOLDEN_SEED, SMALL, WORKLOADS, Runner, golden_pipeline


class Checks:
    def __init__(self):
        self.failures = 0

    def report(self, ok: bool, what: str, detail: str = "") -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}{': ' + detail if detail else ''}")
        self.failures += not ok

    def trips(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except GateError as exc:
            self.report(True, f"gate trips on {what}", str(exc)[:100])
        else:
            self.report(False, f"gate trips on {what}", "no error raised")


def check_metrics(checks: Checks, spec: dict, work) -> None:
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, 3, 0.0, trace, SMALL, work / f"{name}-{kind}", spec)
            expected = [(e["name"], e["unit"]) for e in spec[kind]]
            emitted = [(k, v["unit"]) for k, v in result["metrics"].items()]
            ok = result["correct"] and result["failed"] == 0 and emitted == expected
            if not trace:  # end-to-end metrics are never 0
                ok = ok and all(v["value"] > 0 for v in result["metrics"].values())
            detail = result["details"].get("error", f"{len(emitted)} metrics, {result['attempted']} stage runs")
            checks.report(ok, f"{name} emits every {kind} metric with its unit", detail)


def _parents(spans, child: str) -> set[str]:
    return {spans[s[3]][0] for s in spans if s[0] == child}


def traced_golden_pipeline(checks: Checks, work):
    """Criterion-9 pipeline under the tracer; checks where spans nest, returns its stages."""
    run = Runner(GOLDEN_SEED, SMALL, spans_dir=work / "spans")
    run.spans_dir.mkdir(parents=True)
    _, feats, train, evaluate, curve = stages = golden_pipeline(run, work)
    expect = [
        (train, "network.forward_batch", "trainer.train"),
        (train, "network.backward_batch", "trainer.train"),
        (train, "trainer.adadelta_step", "trainer.train"),
        (train, "features.read_feature_cache", "cli.train"),
        (train, "trainer.train", "cli.train"),
        (train, "network.save_model", "cli.train"),
        (evaluate, "network.load_model", "cli.evaluate"),
        (evaluate, "network.forward_batch", "evaluation.predict_speaker_probs"),
        (evaluate, "ensemble.fuse", "cli.evaluate"),
        (curve, "ensemble.fuse", "ensemble.f1_vs_m_experiment"),
        (curve, "evaluation.metrics", "ensemble.f1_vs_m_experiment"),
        (feats, "features.stft", "features.featurize_raw"),
        (feats, "audio_io.load_wav", "cli.featurize"),
    ]
    for stage, child, parent in expect:
        found = _parents(stage.spans, child)
        checks.report(parent in found, f"{stage.stage}: {child} traced under {parent}", f"parents {sorted(found)}")
    return stages


def check_gate(checks: Checks, work, stages, digests: dict[str, str]) -> None:
    bad = work / "bad"
    shutil.copytree(work / "feats", bad / "feats")
    with open(bad / "feats" / "train.lspg", "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - 100)
    checks.trips("a train.lspg cut inside its values", check_featurize, bad / "feats")
    with open(bad / "feats" / "train.lspg", "r+b") as fh:
        fh.truncate(4 + 14 + 1)  # magic, file header, one byte of the first record's header
    checks.trips("a train.lspg cut inside a record header", check_featurize, bad / "feats")

    shutil.copytree(work / "models", bad / "models")
    model = bad / "models" / "model_001.sdm"
    blob = bytearray(model.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    model.write_bytes(bytes(blob))
    checks.trips("a model with one flipped byte", check_train, bad / "models", 3)
    checks.trips("a missing model", check_train, work / "models", 4)

    shutil.copytree(work / "eval", bad / "eval")
    text = (bad / "eval" / "metrics.csv").read_text()
    (bad / "eval" / "metrics.csv").write_text(text.replace("f1", "F1", 1))
    checks.trips("a metrics.csv header change", check_evaluate, bad / "eval", 30)

    shutil.copytree(work / "curve", bad / "curve")
    lines = (bad / "curve" / "curve.csv").read_text().splitlines(keepends=True)
    (bad / "curve" / "curve.csv").write_text("".join(lines[:-1]))
    checks.trips("a curve.csv missing a row", check_curve, bad / "curve", 18)

    checks.trips(
        "a stage exiting 2",
        run_cli, "featurize", ["--manifest", str(bad / "absent.csv"), "--out", str(bad / "x")], bad / "logs",
    )
    checks.trips("differing digests", same_digests, [{"a": "0"}, {"a": "1"}], "two runs")
    changed = dict(digests)
    changed["curve/curve.csv"] = "0" * 64
    checks.trips("a digest that differs from golden.json", check_golden, changed)
    train = stages[2]
    unwrapped = dataclasses.replace(train, bindings=[b for b in train.bindings if not b.endswith(".forward_batch")])
    checks.trips("forward_batch left unwrapped", check_span_tree, unwrapped, UNCOVERED_TOLERANCE_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    require_package()
    spec = load_spec()
    work = ROOT / ".bench_build" / "perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    try:
        check_metrics(checks, spec, work)
        stages = traced_golden_pipeline(checks, work)
        digests = {name: value for s in stages for name, value in s.digests.items()}
        try:
            check_golden(digests)
            checks.report(True, f"criterion-9 artifacts match golden.json ({len(digests)} files)",
                          combined_digest(digests)[:16])
        except GateError as exc:
            checks.report(False, "criterion-9 artifacts match golden.json", str(exc))
        check_gate(checks, work, stages, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{checks.failures} check(s) failed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
