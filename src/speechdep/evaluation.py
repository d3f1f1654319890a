"""Speaker-level scoring: confusion counts, per-class precision/recall/F1,
speaker-disjoint stratified k-fold splits, and a cross-validation harness
that pools every fold's test predictions into one concatenated list before
computing the headline metrics.

Class 1 is the positive class for its own metrics and class 0 for its own,
so each class gets a precision, recall and F1 with itself as the target.
A zero denominator yields 0.0 and the metric name is recorded in the
`undefined` field instead of raising.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ensemble import EnsembleConfig, PredictionSet, fuse
from .features import FeatureSet
from .network import NetworkConfig, NetworkParams, forward_batch
from .trainer import TrainConfig, TrainHistory, train


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    undefined: tuple[str, ...] = ()


@dataclass
class MetricsReport:
    accuracy: float
    per_class: dict[int, ClassMetrics]
    n_scored: int


def confusion(truth, predicted) -> ConfusionCounts:
    """Counts with class 1 as positive; both mappings must share one key set."""
    if set(truth) != set(predicted):
        missing = sorted(set(truth) ^ set(predicted))
        raise ValueError(f"truth and prediction keys differ: {missing[:5]}")
    if not truth:
        raise ValueError("no speakers to score")
    tp = fp = tn = fn = 0
    for key, actual in truth.items():
        pred = predicted[key]
        if actual not in (0, 1) or pred not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {actual!r}/{pred!r} for {key!r}")
        if actual == 1:
            tp, fn = (tp + 1, fn) if pred == 1 else (tp, fn + 1)
        else:
            tn, fp = (tn + 1, fp) if pred == 0 else (tn, fp + 1)
    return ConfusionCounts(tp, fp, tn, fn)


def _ratio(num: int, den: int, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def _class_metrics(tp: int, fp: int, fn: int) -> ClassMetrics:
    flags: list[str] = []
    precision = _ratio(tp, tp + fp, "precision", flags)
    recall = _ratio(tp, tp + fn, "recall", flags)
    if precision + recall == 0.0:
        flags.append("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ClassMetrics(precision, recall, f1, tuple(flags))


def metrics(conf: ConfusionCounts) -> MetricsReport:
    if conf.total == 0:
        raise ValueError("cannot score an empty confusion table")
    return MetricsReport(
        accuracy=(conf.tp + conf.tn) / conf.total,
        per_class={
            # class 0 metrics treat label 0 as the positive class
            0: _class_metrics(conf.tn, conf.fn, conf.fp),
            1: _class_metrics(conf.tp, conf.fp, conf.fn),
        },
        n_scored=conf.total,
    )


def kfold_split(labels, k: int, seed: int = 0) -> list[list[str]]:
    """The k validation folds, each sorted: a class-stratified partition by seeded shuffle within class, round-robin."""
    if k < 2:
        raise ValueError("k must be >= 2 for a fold plan")
    bad = {s: y for s, y in labels.items() if y not in (0, 1)}
    if bad:
        raise ValueError(f"labels must be 0 or 1: {sorted(bad)[:5]}")
    members = {label: sorted(s for s, y in labels.items() if y == label) for label in (0, 1)}
    for label in (0, 1):
        if k > len(members[label]):
            raise ValueError(f"k={k} exceeds the {len(members[label])} speakers of class {label}")
    rng = np.random.default_rng(seed)
    folds: list[list[str]] = [[] for _ in range(k)]
    for label in (0, 1):
        for i, idx in enumerate(rng.permutation(len(members[label]))):
            folds[i % k].append(members[label][idx])
    return [sorted(f) for f in folds]


def predict_speaker_probs(
    pool: Sequence[NetworkParams], net_cfg: NetworkConfig, features: FeatureSet, batch_size: int = 64
) -> np.ndarray:
    """Class-1 probabilities of every machine: (machines, crops), crops in feature order.

    Batches are the outer loop and machines the inner one, so the pool is
    indexed once per machine per batch: a pool that reads each machine from
    its file when indexed holds one machine's parameters at a time.

    Each batch is normalized straight into a new (freq_bins, batch*time_steps)
    conv operand and handed to every machine as a (batch, freq_bins,
    time_steps) view, so forward_batch's own operand is that same buffer
    rather than a copy. A 64-crop operand is 33 MB at 513x125, and its
    probabilities are byte-equal to a 256-crop batch's.
    """
    probs = np.empty((len(pool), len(features)))
    for lo in range(0, len(features), batch_size):
        xs = features.batch(range(lo, min(lo + batch_size, len(features))))
        for m in range(len(pool)):  # pool[m] is dropped once its batch is predicted
            probs[m, lo : lo + len(xs)] = forward_batch(pool[m], xs, net_cfg).probs
        del xs  # free this batch's operand before the next one is allocated
    return probs


def speaker_labels(features: FeatureSet) -> dict[str, int]:
    out: dict[str, int] = {}
    for speaker_id, label in zip(features.speaker_ids, features.labels):
        prior = out.setdefault(speaker_id, label)
        if prior != label:
            raise ValueError(f"speaker {speaker_id} carries conflicting labels")
    return out


def prediction_set_for(
    pool: Sequence[NetworkParams], net_cfg: NetworkConfig, features: FeatureSet, threshold: float = 0.5
) -> PredictionSet:
    """The pool's predictions on features as one PredictionSet; machine m is row m."""
    probs = predict_speaker_probs(pool, net_cfg, features)
    return PredictionSet.from_pool(features.speaker_ids, features.crop_indices, probs, threshold)


@dataclass
class CrossValResult:
    fold_reports: list[MetricsReport]
    pooled_report: MetricsReport
    fold_validation: list[list[str]]
    fold_predictions: list[dict[str, int]]
    histories: list[list[TrainHistory]] = field(default_factory=list)


def cross_validate(
    train_features: FeatureSet,
    test_features: FeatureSet,
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig,
    ens_cfg: EnsembleConfig,
    k: int = 5,
    seed: int = 0,
) -> CrossValResult:
    """Train per fold on the non-held-out speakers, score the fixed test set.

    Every fold's test-speaker predictions are concatenated, each test speaker
    contributing k rows, and the pooled list is scored against duplicated
    truth labels. k=1 degenerates to a single train-on-everything pass with
    no validation subset.
    """
    if not train_features or not test_features:
        raise ValueError("need non-empty train and test feature sets")
    train_labels = speaker_labels(train_features)
    test_truth = speaker_labels(test_features)

    val_sets = [[]] if k == 1 else kfold_split(train_labels, k, seed)

    fold_reports = []
    fold_predictions = []
    histories = []
    pooled_truth: dict[tuple[int, str], int] = {}
    pooled_pred: dict[tuple[int, str], int] = {}

    for fold, held_out in enumerate(val_sets):
        held = set(held_out)
        in_val = np.array([s in held for s in train_features.speaker_ids], dtype=bool)
        fold_train = train_features.take(np.flatnonzero(~in_val))
        fold_val = train_features.take(np.flatnonzero(in_val)) if held else None
        seeds = range(train_cfg.seed, train_cfg.seed + ens_cfg.machines)
        params_list, hist_list = train(fold_train, net_cfg, train_cfg, init_seeds=seeds, val_features=fold_val)
        fused = fuse(prediction_set_for(params_list, net_cfg, test_features, ens_cfg.threshold), ens_cfg)
        fold_reports.append(metrics(confusion(test_truth, fused)))
        fold_predictions.append(fused)
        histories.append(hist_list)
        for speaker, label in test_truth.items():
            pooled_truth[(fold, speaker)] = label
            pooled_pred[(fold, speaker)] = fused[speaker]

    pooled_report = metrics(confusion(pooled_truth, pooled_pred))
    return CrossValResult(fold_reports, pooled_report, val_sets, fold_predictions, histories)


def write_metrics_csv(path, fold_reports, pooled_report) -> None:
    """Rows `scope,class,accuracy,precision,recall,f1`, scope fold_<i> or pooled."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "class", "accuracy", "precision", "recall", "f1"])
        scoped = [(f"fold_{i}", r) for i, r in enumerate(fold_reports)]
        scoped.append(("pooled", pooled_report))
        for scope, report in scoped:
            for cls in (0, 1):
                cm = report.per_class[cls]
                writer.writerow(
                    [
                        scope,
                        cls,
                        format(report.accuracy, ".10g"),
                        format(cm.precision, ".10g"),
                        format(cm.recall, ".10g"),
                        format(cm.f1, ".10g"),
                    ]
                )
