"""Speaker-level scoring: confusion counts, per-class precision/recall/F1,
speaker-disjoint stratified k-fold splits, and a cross-validation harness
that pools every fold's test predictions into one concatenated array before
computing the headline metrics. Per-speaker labels, true or fused, are int
arrays in PredictionSet.speakers (sorted) order.

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

from .ensemble import EnsembleConfig, PredictionSet, fuse, speaker_order
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
    """Counts with class 1 as positive over two aligned 0/1 label arrays, one entry per speaker."""
    truth, predicted = np.asarray(truth), np.asarray(predicted)
    if truth.shape != predicted.shape:
        raise ValueError(f"truth of shape {truth.shape} does not align with prediction of shape {predicted.shape}")
    if not truth.size:
        raise ValueError("no speakers to score")
    binary = ((truth == 0) | (truth == 1)) & ((predicted == 0) | (predicted == 1))
    if not binary.all():
        i = int(np.argmin(binary))
        raise ValueError(f"labels must be 0 or 1, got {truth[i]}/{predicted[i]} at speaker {i}")
    tn, fp, fn, tp = np.bincount(2 * truth.astype(np.intp) + predicted.astype(np.intp), minlength=4).tolist()
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


def kfold_split(labels, k: int, seed: int = 0) -> list[list[int]]:
    """The k validation folds of a speaker-ordered label array as sorted positions: classes shuffled, dealt in turn."""
    if k < 2:
        raise ValueError("k must be >= 2 for a fold plan")
    labels = np.asarray(labels)
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, but are not at speaker positions {bad[:5].tolist()}")
    members = [np.flatnonzero(labels == label) for label in (0, 1)]
    for label in (0, 1):
        if k > len(members[label]):
            raise ValueError(f"k={k} exceeds the {len(members[label])} speakers of class {label}")
    rng = np.random.default_rng(seed)
    dealt = [m[rng.permutation(len(m))] for m in members]
    return [np.sort(np.concatenate([d[f::k] for d in dealt])).tolist() for f in range(k)]


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


def _speaker_truth(features: FeatureSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """speaker_order of the crops' speaker ids, and each speaker's label in that order; a conflict raises."""
    speakers, inverse = speaker_order(features.speaker_ids)
    labels = np.asarray(features.labels, dtype=np.int64)
    truth = labels[np.unique(inverse, return_index=True)[1]]  # each speaker's first crop's label
    conflicts = np.flatnonzero(labels != truth[inverse])
    if conflicts.size:
        raise ValueError(f"speaker {features.speaker_ids[conflicts[0]]} carries conflicting labels")
    return speakers, inverse, truth


def speaker_labels(features: FeatureSet) -> np.ndarray:
    """Each speaker's label in sorted speaker order, the order of PredictionSet.speakers; a conflict raises."""
    return _speaker_truth(features)[2]


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
    fold_predictions: list[np.ndarray]  # per fold, the fused test labels in sorted speaker order
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

    Every fold's fused test labels are concatenated, each test speaker
    contributing k entries, and the pooled array is scored against the truth
    tiled k times. k=1 degenerates to a single train-on-everything pass with
    no validation subset.
    """
    if not train_features or not test_features:
        raise ValueError("need non-empty train and test feature sets")
    speakers, speaker_of, train_truth = _speaker_truth(train_features)
    test_truth = speaker_labels(test_features)
    val_sets = [[]] if k == 1 else kfold_split(train_truth, k, seed)

    fold_reports, fold_predictions, histories = [], [], []
    for held_out in val_sets:
        in_val = np.isin(speaker_of, held_out)
        fold_train = train_features.take(np.flatnonzero(~in_val))
        fold_val = train_features.take(np.flatnonzero(in_val)) if held_out else None
        seeds = range(train_cfg.seed, train_cfg.seed + ens_cfg.machines)
        params_list, hist_list = train(fold_train, net_cfg, train_cfg, init_seeds=seeds, val_features=fold_val)
        fused = fuse(prediction_set_for(params_list, net_cfg, test_features, ens_cfg.threshold), ens_cfg)
        fold_reports.append(metrics(confusion(test_truth, fused)))
        fold_predictions.append(fused)
        histories.append(hist_list)

    pooled_report = metrics(confusion(np.tile(test_truth, len(val_sets)), np.concatenate(fold_predictions)))
    fold_validation = [speakers[held_out].tolist() for held_out in val_sets]
    return CrossValResult(fold_reports, pooled_report, fold_validation, fold_predictions, histories)


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
