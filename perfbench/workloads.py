"""The three workloads, each a closed loop of CLI stages run one at a time from one process.

ingest    synth then featurize of the acceptance reference corpus; the only
          workload that writes the .lspg caches. network, trainer and
          ensemble do nothing here.
train     `speechdep train` on a 372-crop cache at 513x125 with a few
          machines and epochs: network forward/backward and Adadelta. It
          reads the cache but never fuses.
ensemble  evaluate then curve over a 20-model pool: forward passes only, no
          backward, plus fusion and scoring.

A workload has a setup, which builds its inputs from the seed, and an
iteration, the stages that are timed. Sizes holds every input size, so the
self-test runs the same code at the criterion-9 size. golden_pipeline is the
criterion-9 pipeline whose artifacts every run compares with golden.json.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

from harness import (
    GateError,
    StageRun,
    check_curve,
    check_evaluate,
    check_featurize,
    check_synth,
    check_train,
    file_digests,
    run_cli,
)


@dataclass(frozen=True)
class Sizes:
    corpus: dict  # synth keys of the corpus ingest times
    warmup: dict  # synth keys of ingest's warm-up corpus (its setup)
    train_corpus: dict  # synth keys of the corpus the train cache is cut from
    train_crops: int  # records in the train workload's cache
    train_run: dict  # machines and epochs of the timed train stage
    pool_corpus: dict  # synth and sampling keys of the ensemble's test corpus
    pool_train: dict  # machines and epochs of the ensemble's model pool
    curve: dict  # curve keys of the timed curve stage


def _synth_keys(train_spk: int, test_spk: int, duration_s: float) -> dict:
    return {
        "synth.speakers_per_class": train_spk,
        "synth.test_speakers_per_class": test_spk,
        "synth.duration_s": duration_s,
    }


# The acceptance reference corpus is 31 + 10 speakers per class of 24-48 s
# clips. Its balanced training set is 6 crops from each of 62 speakers. The
# train cache repeats the 12 training crops of a 1 + 1 speaker per class
# corpus up to that size:
# training time does not depend on the values, and building the full corpus
# several times per run would take 30 s. Every test speaker has at least 6
# crops, so an eval cap of 6 fixes the ensemble's test set at 60 crops for any
# seed.
REFERENCE = Sizes(
    corpus=_synth_keys(31, 10, 48.0),
    warmup=_synth_keys(1, 1, 9.0),
    train_corpus=_synth_keys(1, 1, 48.0),
    train_crops=372,
    train_run={"ensemble.machines": 2, "train.epochs": 3},
    pool_corpus={**_synth_keys(1, 5, 48.0), "sampling.eval_cap": 6},
    pool_train={"ensemble.machines": 20, "train.epochs": 1},
    curve={"curve.m_values": "1,5,10,20", "curve.n_combinations": 50},
)

# The criterion-9 size: 3 + 2 speakers per class, 9 s clips, 3 machines.
SMALL = Sizes(
    corpus=_synth_keys(3, 2, 9.0),
    warmup=_synth_keys(1, 1, 9.0),
    train_corpus=_synth_keys(3, 2, 9.0),
    train_crops=12,
    train_run={"ensemble.machines": 3, "train.epochs": 2},
    pool_corpus=_synth_keys(1, 2, 9.0),
    pool_train={"ensemble.machines": 3, "train.epochs": 1},
    curve={"curve.m_values": "1,2,3", "curve.n_combinations": 20},
)


class Runner:
    """Runs stages for one workload seed and counts attempted and failed invocations."""

    def __init__(self, seed: int, sizes: Sizes, spans_dir: Path | None = None):
        self.seed = seed
        self.sizes = sizes
        self.spans_dir = spans_dir  # set: stages run under the tracer
        self.attempted = 0
        self.failed = 0

    def stage(self, stage: str, out: Path, keys: dict, check, **paths) -> StageRun:
        """Run one stage, then `check(out)`, which returns (work, digests, info)."""
        args = [arg for flag, path in paths.items() for arg in (f"--{flag}", str(path))]
        args += ["--out", str(out), "--seed", str(self.seed), "--jobs", "1"]
        args += [arg for key, value in keys.items() for arg in ("--set", f"{key}={value}")]
        spans_path = None
        if self.spans_dir is not None:
            spans_path = self.spans_dir / f"{stage}-{self.attempted}.json"
        self.attempted += 1
        try:
            wall, usage, trace = run_cli(stage, args, out.parent / "logs", spans_path)
            work, digests, info = check(out)
        except GateError:
            self.failed += 1
            raise
        spans, bindings = (trace["spans"], trace["bindings"]) if trace else (None, None)
        return StageRun(stage, wall, usage.ru_maxrss / 1024.0, usage.ru_minflt, work, digests, spans, bindings, info)

    # --------------------------------------------------------- stages

    def synth(self, out: Path, keys: dict) -> StageRun:
        def check(out):
            info = check_synth(out)
            return info["audio_s"], {}, info

        return self.stage("synth", out, keys, check)

    def featurize(self, corpus: Path, out: Path, keys: dict) -> StageRun:
        def check(out):
            counts = check_featurize(out)
            digests = file_digests([out / "train.lspg", out / "test.lspg"], "featurize")
            return counts["train"] + counts["test"], digests, counts

        return self.stage("featurize", out, keys, check, manifest=corpus / "manifest.csv")

    def train(self, cache: Path, crops: int, out: Path, keys: dict) -> StageRun:
        machines, epochs = keys["ensemble.machines"], keys["train.epochs"]

        def check(out):
            models = check_train(out, machines)
            return machines * epochs * crops, file_digests(models, "train"), {}

        return self.stage("train", out, keys, check, cache=cache)

    def evaluate(self, models: Path, cache: Path, predictions: int, out: Path, keys: dict) -> StageRun:
        def check(out):
            check_evaluate(out, predictions)
            return predictions, file_digests([out / "metrics.csv", out / "predictions.csv"], "evaluate"), {}

        return self.stage("evaluate", out, keys, check, models=models, cache=cache)

    def curve(self, models: Path, cache: Path, out: Path, keys: dict) -> StageRun:
        m_count = len(str(keys["curve.m_values"]).split(","))
        fusions = 3 * m_count * keys["curve.n_combinations"]

        def check(out):
            check_curve(out, 3 * m_count * 2)
            return fusions, file_digests([out / "curve.csv"], "curve"), {}

        return self.stage("curve", out, keys, check, models=models, cache=cache)


# ------------------------------------------------------------- workloads

def _tile_cache(source: Path, dest: Path, count: int) -> None:
    """Write a cache of `count` records cycling through the source cache's records."""
    from speechdep.features import LogSpectrogram, read_feature_cache, write_feature_cache

    feats = read_feature_cache(source, normalize=False)
    tiled = [
        LogSpectrogram(f.values, f"{f.speaker_id}r{i // len(feats)}", f.crop_index, f.label)
        for i, f in ((i, feats[i % len(feats)]) for i in range(count))
    ]
    write_feature_cache(dest, tiled)


def setup_ingest(run: Runner, d: Path) -> dict:
    """Warm-up: a tiny synth + featurize, so imports and caches are warm before timing."""
    keys = run.sizes.warmup
    run.synth(d / "corpus", keys)
    feats = run.featurize(d / "corpus", d / "feats", keys)
    return {"digests": feats.digests}


def iterate_ingest(run: Runner, d: Path, inputs: dict) -> list[StageRun]:
    keys = run.sizes.corpus
    synth = run.synth(d / "corpus", keys)
    feats = run.featurize(d / "corpus", d / "feats", keys)
    feats.info["clips"] = synth.info["clips"]
    return [synth, feats]


def setup_train(run: Runner, d: Path) -> dict:
    keys = run.sizes.train_corpus
    run.synth(d / "corpus", keys)
    run.featurize(d / "corpus", d / "feats", keys)
    cache = d / "train.lspg"
    _tile_cache(d / "feats" / "train.lspg", cache, run.sizes.train_crops)
    return {"cache": cache, "digests": file_digests([cache], "setup")}


def iterate_train(run: Runner, d: Path, inputs: dict) -> list[StageRun]:
    return [run.train(inputs["cache"], run.sizes.train_crops, d / "models", run.sizes.train_run)]


def setup_ensemble(run: Runner, d: Path) -> dict:
    keys = run.sizes.pool_corpus
    run.synth(d / "corpus", keys)
    feats = run.featurize(d / "corpus", d / "feats", keys)
    pool = run.train(d / "feats" / "train.lspg", feats.info["train"], d / "models", run.sizes.pool_train)
    return {
        "cache": d / "feats" / "test.lspg",
        "models": d / "models",
        "predictions": run.sizes.pool_train["ensemble.machines"] * feats.info["test"],
        "digests": {**feats.digests, **pool.digests},
    }


def iterate_ensemble(run: Runner, d: Path, inputs: dict) -> list[StageRun]:
    models, cache = inputs["models"], inputs["cache"]
    evaluate = run.evaluate(models, cache, inputs["predictions"], d / "eval", {})
    curve = run.curve(models, cache, d / "curve", run.sizes.curve)
    return [evaluate, curve]


GOLDEN_SEED = 21
# criterion 9's configuration, plus the curve stage it leaves out
CRITERION_9 = {
    "synth.speakers_per_class": 3,
    "synth.test_speakers_per_class": 2,
    "synth.duration_s": 9.0,
    "ensemble.machines": 3,
    "train.epochs": 50,
    "curve.m_values": "1,2,3",
    "curve.n_combinations": 200,
}


def golden_pipeline(run: Runner, d: Path) -> list[StageRun]:
    """Criterion-9 synth, featurize, train, evaluate and curve; run.seed must be GOLDEN_SEED."""
    keys = CRITERION_9
    synth = run.synth(d / "corpus", keys)
    feats = run.featurize(d / "corpus", d / "feats", keys)
    train = run.train(d / "feats" / "train.lspg", feats.info["train"], d / "models", keys)
    predictions = keys["ensemble.machines"] * feats.info["test"]
    test = d / "feats" / "test.lspg"
    evaluate = run.evaluate(d / "models", test, predictions, d / "eval", keys)
    curve = run.curve(d / "models", test, d / "curve", keys)
    return [synth, feats, train, evaluate, curve]


WORKLOADS = {
    "ingest": (setup_ingest, iterate_ingest),
    "train": (setup_train, iterate_train),
    "ensemble": (setup_ensemble, iterate_ensemble),
}


def remove(d: Path) -> None:
    shutil.rmtree(d, ignore_errors=True)
