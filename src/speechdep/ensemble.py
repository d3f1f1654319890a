"""Fusing per-sample probabilities from several networks into speaker labels.

Three fusion methods over M machines, each machine holding a probability
vector per speaker (one entry per sample crop):

1. average probabilities per sample across machines, then threshold the
   per-speaker mean probability;
2. pool all M*L_i sample labels of a speaker and take the majority;
3. take each machine's per-speaker majority label, then the majority of
   those M votes.

A probability at or above the threshold maps to label 1. Exact majority
ties are settled by a seeded generator so reruns reproduce the same draws.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class PredictionSet:
    """One machine's sample-level predictions, grouped by speaker."""

    machine: int
    probs: dict[str, np.ndarray]  # speaker -> (L_i,) probabilities
    crops: dict[str, np.ndarray]  # speaker -> (L_i,) crop indices
    labels: dict[str, np.ndarray]  # speaker -> (L_i,) thresholded labels

    def __post_init__(self):
        if not self.probs:
            raise ValueError("prediction set has no speakers")
        for speaker, p in self.probs.items():
            if p.size < 1:
                raise ValueError(f"speaker {speaker} has no samples")
            if np.any((p < 0.0) | (p > 1.0)):
                raise ValueError(f"speaker {speaker} has probabilities outside [0, 1]")

    @classmethod
    def from_pool(cls, speaker_ids, crop_indices, probs, threshold=0.5) -> list["PredictionSet"]:
        """One set per row of a (machines, samples) probability array, grouped by speaker.

        Machine m is row m. All sets share one crops dict, which lets the
        fusion consistency check skip comparing their crop indices.
        """
        probs = np.asarray(probs, dtype=np.float64)
        crop_indices = np.asarray(crop_indices, dtype=np.int64)
        if probs.ndim != 2 or probs.shape[1] != len(speaker_ids) or crop_indices.shape != (len(speaker_ids),):
            raise ValueError(f"{len(speaker_ids)} speaker ids do not align with probabilities {probs.shape}")
        rows: dict[str, list[int]] = {}
        for i, speaker in enumerate(speaker_ids):
            rows.setdefault(speaker, []).append(i)
        crops_d = {s: crop_indices[idx] for s, idx in rows.items()}
        sets = []
        for machine, machine_probs in enumerate(probs):
            probs_d = {s: machine_probs[idx] for s, idx in rows.items()}
            labels_d = {s: sample_labels(p, threshold) for s, p in probs_d.items()}
            sets.append(cls(machine, probs_d, crops_d, labels_d))
        return sets

    @classmethod
    def from_samples(cls, machine, speaker_ids, crop_indices, probs, threshold=0.5):
        """Group aligned (speaker, crop, probability) triples of one machine by speaker."""
        [ps] = cls.from_pool(list(speaker_ids), list(crop_indices), [list(probs)], threshold)
        ps.machine = machine
        return ps

    @property
    def speakers(self) -> list[str]:
        return sorted(self.probs)


@dataclass
class EnsembleConfig:
    machines: int = 50
    method: int = 1
    threshold: float = 0.5
    tie_seed: int = 0

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError("need at least one machine")
        if self.method not in (1, 2, 3):
            raise ValueError(f"unknown fusion method {self.method}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")


def sample_labels(probs, threshold: float = 0.5) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    return (probs >= threshold).astype(np.int64)


def speaker_label_mean(probs, threshold: float = 0.5) -> int:
    probs = np.asarray(probs, dtype=np.float64)
    return int(probs.mean() >= threshold)


def _mode(labels, rng) -> int:
    """Majority label; an exact tie is a uniform draw from rng."""
    labels = np.asarray(labels)
    ones = int(np.sum(labels == 1))
    zeros = labels.size - ones
    if ones == zeros:
        return int(rng.integers(0, 2))
    return int(ones > zeros)


def _check_consistent(sets: list[PredictionSet]) -> list[str]:
    if not sets:
        raise ValueError("no prediction sets")
    first = sets[0]
    speakers = first.speakers
    for ps in sets[1:]:
        if ps.speakers != speakers:
            raise ValueError(f"machine {ps.machine} covers different speakers than machine {first.machine}")
        for s in speakers:
            # sets predicted from one pool share their crop arrays; only sizes can differ
            same_crops = ps.crops[s] is first.crops[s] or np.array_equal(ps.crops[s], first.crops[s])
            if ps.probs[s].size != first.probs[s].size or not same_crops:
                raise ValueError(f"machine {ps.machine} has inconsistent samples for speaker {s}")
    return speakers


def fuse_method1(sets: list[PredictionSet], threshold: float = 0.5) -> dict[str, int]:
    """Average sample probabilities across machines, then threshold the speaker mean."""
    speakers = _check_consistent(sets)
    out = {}
    for s in speakers:
        mean_probs = np.mean([ps.probs[s] for ps in sets], axis=0)
        out[s] = speaker_label_mean(mean_probs, threshold)
    return out


def fuse_method2(sets: list[PredictionSet], rng) -> dict[str, int]:
    """Majority over the pooled M*L_i sample labels of each speaker."""
    speakers = _check_consistent(sets)
    return {s: _mode(np.concatenate([ps.labels[s] for ps in sets]), rng) for s in speakers}


def fuse_method3(sets: list[PredictionSet], rng) -> dict[str, int]:
    """Per-machine speaker majority, then majority across the machine votes."""
    speakers = _check_consistent(sets)
    out = {}
    for s in speakers:
        votes = [_mode(ps.labels[s], rng) for ps in sets]
        out[s] = _mode(votes, rng)
    return out


def fuse(sets: list[PredictionSet], cfg: EnsembleConfig, rng=None) -> dict[str, int]:
    """Dispatch on cfg.method; rng defaults to a generator seeded with cfg.tie_seed."""
    if len(sets) != cfg.machines:
        raise ValueError(f"expected {cfg.machines} prediction sets, got {len(sets)}")
    if rng is None:
        rng = np.random.default_rng(cfg.tie_seed)
    if cfg.method == 1:
        return fuse_method1(sets, cfg.threshold)
    if cfg.method == 2:
        return fuse_method2(sets, rng)
    return fuse_method3(sets, rng)


@dataclass
class F1CurvePoint:
    m: int
    f1_mean: dict[int, float]  # class -> mean F1 over combinations
    f1_std: dict[int, float]


def f1_vs_m_experiment(
    pool: list[PredictionSet],
    truth: dict[str, int],
    m_values,
    n_combinations: int = 200,
    method: int = 1,
    threshold: float = 0.5,
    seed: int = 0,
) -> list[F1CurvePoint]:
    """F1 mean/std per class as the ensemble grows, over seeded machine subsets.

    For each M, n_combinations subsets of the pool are drawn without
    replacement; each combination uses an rng stream derived from
    (seed, M, combination index) for both the draw and any tie-breaks.
    """
    from .evaluation import confusion, metrics  # deferred: evaluation imports this module

    m_values = [int(m) for m in m_values]
    for m in m_values:
        if not 1 <= m <= len(pool):
            raise ValueError(f"M={m} outside pool of {len(pool)} machines")
    if n_combinations < 1:
        raise ValueError("need at least one combination")

    curve = []
    for m in m_values:
        scores = {0: [], 1: []}
        for j in range(n_combinations):
            rng = np.random.default_rng([seed, m, j])
            picks = rng.choice(len(pool), size=m, replace=False)
            subset = [pool[i] for i in picks]
            cfg = EnsembleConfig(machines=m, method=method, threshold=threshold)
            fused = fuse(subset, cfg, rng=rng)
            report = metrics(confusion(truth, fused))
            for cls in (0, 1):
                scores[cls].append(report.per_class[cls].f1)
        curve.append(
            F1CurvePoint(
                m,
                {cls: float(np.mean(scores[cls])) for cls in (0, 1)},
                {cls: float(np.std(scores[cls])) for cls in (0, 1)},
            )
        )
    return curve


def write_predictions_csv(path, sets: list[PredictionSet]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["machine", "speaker_id", "crop_index", "probability", "label"])
        for ps in sorted(sets, key=lambda p: p.machine):
            for s in ps.speakers:
                for crop_index, p, y in zip(ps.crops[s], ps.probs[s], ps.labels[s]):
                    writer.writerow([ps.machine, s, int(crop_index), format(float(p), ".17g"), int(y)])


def read_predictions_csv(path) -> list[PredictionSet]:
    by_machine: dict[int, list[tuple[str, int, float]]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["machine", "speaker_id", "crop_index", "probability", "label"]
        if reader.fieldnames != expected:
            raise ValueError(f"{path}: expected header {expected}, got {reader.fieldnames}")
        for row in reader:
            by_machine.setdefault(int(row["machine"]), []).append(
                (row["speaker_id"], int(row["crop_index"]), float(row["probability"]), int(row["label"]))
            )
    if not by_machine:
        raise ValueError(f"{path}: no prediction rows")
    sets = []
    for machine in sorted(by_machine):
        probs_d: dict[str, list[float]] = {}
        crops_d: dict[str, list[int]] = {}
        labels_d: dict[str, list[int]] = {}
        for speaker, crop_index, p, y in by_machine[machine]:
            probs_d.setdefault(speaker, []).append(p)
            crops_d.setdefault(speaker, []).append(crop_index)
            labels_d.setdefault(speaker, []).append(y)
        sets.append(
            PredictionSet(
                machine,
                {s: np.asarray(v, dtype=np.float64) for s, v in probs_d.items()},
                {s: np.asarray(v, dtype=np.int64) for s, v in crops_d.items()},
                {s: np.asarray(v, dtype=np.int64) for s, v in labels_d.items()},
            )
        )
    return sets
