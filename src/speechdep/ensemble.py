"""Fusing per-sample probabilities from several networks into speaker labels.

Three fusion methods over M machines, the picked rows of one (machines,
crops) probability matrix whose columns group by speaker:

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class PredictionSet:
    """Every machine's sample-level predictions as one (machines, crops) matrix.

    Crops are speaker-contiguous in sorted speaker order: speaker i owns the
    columns offsets[i]:offsets[i+1] (the last one runs to the end), in the
    order its crops were predicted. Machine m is row m.
    """

    speakers: list[str]  # sorted, distinct
    offsets: np.ndarray  # (speakers,) first column of each speaker
    crop_indices: np.ndarray  # (crops,)
    probs: np.ndarray  # (machines, crops) probabilities
    labels: np.ndarray  # (machines, crops) thresholded labels
    sizes: np.ndarray = field(init=False, repr=False)  # (speakers,) crops per speaker
    ones: np.ndarray = field(init=False, repr=False)  # (machines, speakers) label-1 counts
    by_size: list = field(init=False, repr=False)  # (speaker positions, (k, n) columns) per crop count n

    def __post_init__(self):
        if not self.speakers:
            raise ValueError("prediction set has no speakers")
        if np.any((self.probs < 0.0) | (self.probs > 1.0)):
            raise ValueError("prediction set has probabilities outside [0, 1]")
        self.sizes = np.diff(self.offsets, append=self.probs.shape[1])
        self.ones = np.add.reduceat(self.labels, self.offsets, axis=1)
        self.by_size = [
            (np.flatnonzero(self.sizes == n), self.offsets[self.sizes == n, None] + np.arange(n))
            for n in sorted(set(self.sizes.tolist()))  # not np.unique, whose first call on ints takes milliseconds
        ]

    @classmethod
    def from_pool(cls, speaker_ids, crop_indices, probs, threshold=0.5, labels=None) -> "PredictionSet":
        """The set of a (machines, samples) probability array whose columns carry speaker_ids.

        One stable gather by speaker puts the columns in speaker-contiguous
        order, so interleaved speakers keep their crops' relative order.
        labels defaults to the probabilities thresholded.
        """
        probs = np.asarray(probs, dtype=np.float64)
        crop_indices = np.asarray(crop_indices, dtype=np.int64)
        if probs.ndim != 2 or probs.shape[1] != len(speaker_ids) or crop_indices.shape != (len(speaker_ids),):
            raise ValueError(f"{len(speaker_ids)} speaker ids do not align with probabilities {probs.shape}")
        speakers, inverse = np.unique(np.asarray(speaker_ids, dtype=str), return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        offsets = np.searchsorted(inverse[order], np.arange(len(speakers)))
        labels = sample_labels(probs, threshold) if labels is None else np.asarray(labels, dtype=np.int64)
        return cls(speakers.tolist(), offsets, crop_indices[order], probs[:, order], labels[:, order])

    @property
    def machines(self) -> int:
        return self.probs.shape[0]


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


def _by_speaker(preds: PredictionSet, labels) -> dict[str, int]:
    return dict(zip(preds.speakers, np.asarray(labels, dtype=np.int64).tolist()))


def _picked(preds: PredictionSet, picks) -> np.ndarray:
    return np.arange(preds.machines) if picks is None else np.asarray(picks, dtype=np.intp)


def fuse_method1(preds: PredictionSet, threshold: float = 0.5, picks=None) -> dict[str, int]:
    """Average sample probabilities across the picked machines, then threshold each speaker's mean.

    Rounding follows a per-speaker (machines, crops) stack: machines add in
    pick order, and each speaker's crop means reduce as a 1-d array of their
    own. A one-crop speaker's stack is a 1-d reduction over the machines.
    """
    rows = preds.probs[_picked(preds, picks)]
    crop_means = rows.mean(axis=0)
    speaker_means = np.empty(len(preds.speakers))
    for where, cols in preds.by_size:
        if cols.shape[1] == 1:
            speaker_means[where] = np.ascontiguousarray(rows[:, cols[:, 0]].T).mean(axis=1)
        else:
            speaker_means[where] = crop_means[cols].mean(axis=1)
    return _by_speaker(preds, speaker_means >= threshold)


def fuse_method2(preds: PredictionSet, rng, picks=None) -> dict[str, int]:
    """Majority over the pooled M*L_i sample labels of each speaker; ties draw in speaker order."""
    picks = _picked(preds, picks)
    ones = preds.ones[picks].sum(axis=0)
    total = len(picks) * preds.sizes
    out = (2 * ones > total).astype(np.int64)
    for s in np.flatnonzero(2 * ones == total):
        out[s] = rng.integers(0, 2)
    return _by_speaker(preds, out)


def fuse_method3(preds: PredictionSet, rng, picks=None) -> dict[str, int]:
    """Per-machine speaker majority, then majority across the machine votes.

    Ties draw speaker by speaker: first the speaker's machine ties in pick
    order, then its vote tie. A speaker with neither draws nothing.
    """
    ones = preds.ones[_picked(preds, picks)]  # (picked machines, speakers)
    m = len(ones)
    votes = (2 * ones > preds.sizes).astype(np.int64)
    machine_ties = 2 * ones == preds.sizes
    tallies = votes.sum(axis=0)
    out = (2 * tallies > m).astype(np.int64)
    for s in np.flatnonzero(machine_ties.any(axis=0) | (2 * tallies == m)):
        for machine in np.flatnonzero(machine_ties[:, s]):
            votes[machine, s] = rng.integers(0, 2)
        tally = votes[:, s].sum()
        out[s] = rng.integers(0, 2) if 2 * tally == m else int(2 * tally > m)
    return _by_speaker(preds, out)


def fuse(preds: PredictionSet, cfg: EnsembleConfig, rng=None, picks=None) -> dict[str, int]:
    """Fuse the picked machines (default all) by cfg.method; rng defaults to a generator seeded with cfg.tie_seed."""
    n_picked = preds.machines if picks is None else len(picks)
    if n_picked != cfg.machines:
        raise ValueError(f"expected {cfg.machines} machines, got {n_picked}")
    if rng is None:
        rng = np.random.default_rng(cfg.tie_seed)
    if cfg.method == 1:
        return fuse_method1(preds, cfg.threshold, picks)
    if cfg.method == 2:
        return fuse_method2(preds, rng, picks)
    return fuse_method3(preds, rng, picks)


@dataclass
class F1CurvePoint:
    m: int
    f1_mean: dict[int, float]  # class -> mean F1 over combinations
    f1_std: dict[int, float]


def f1_vs_m_experiment(
    preds: PredictionSet,
    truth: dict[str, int],
    m_values,
    n_combinations: int = 200,
    method: int = 1,
    threshold: float = 0.5,
    seed: int = 0,
) -> list[F1CurvePoint]:
    """F1 mean/std per class as the ensemble grows, over seeded machine subsets of preds.

    For each M, n_combinations subsets of the machines are drawn without
    replacement; each combination uses an rng stream derived from
    (seed, M, combination index) for both the draw and any tie-breaks.
    """
    from .evaluation import confusion, metrics  # deferred: evaluation imports this module

    m_values = [int(m) for m in m_values]
    for m in m_values:
        if not 1 <= m <= preds.machines:
            raise ValueError(f"M={m} outside pool of {preds.machines} machines")
    if n_combinations < 1:
        raise ValueError("need at least one combination")

    curve = []
    for m in m_values:
        cfg = EnsembleConfig(machines=m, method=method, threshold=threshold)
        scores = {0: [], 1: []}
        for j in range(n_combinations):
            rng = np.random.default_rng([seed, m, j])
            picks = rng.choice(preds.machines, size=m, replace=False)
            report = metrics(confusion(truth, fuse(preds, cfg, rng=rng, picks=picks)))
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


_CSV_HEADER = ["machine", "speaker_id", "crop_index", "probability", "label"]


def write_predictions_csv(path, preds: PredictionSet) -> None:
    """One row per (machine, crop), machine by machine, each in speaker order."""
    speaker_ids = np.repeat(preds.speakers, preds.sizes).tolist()
    crop_indices = preds.crop_indices.tolist()
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for machine, (probs, labels) in enumerate(zip(preds.probs.tolist(), preds.labels.tolist())):
            for s, crop_index, p, y in zip(speaker_ids, crop_indices, probs, labels):
                writer.writerow([machine, s, crop_index, format(p, ".17g"), y])


def read_predictions_csv(path) -> PredictionSet:
    """The PredictionSet that write_predictions_csv wrote; every machine must cover the same crops."""
    rows: dict[int, list[tuple[str, int, float, int]]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _CSV_HEADER:
            raise ValueError(f"{path}: expected header {_CSV_HEADER}, got {reader.fieldnames}")
        for row in reader:
            rows.setdefault(int(row["machine"]), []).append(
                (row["speaker_id"], int(row["crop_index"]), float(row["probability"]), int(row["label"]))
            )
    if not rows:
        raise ValueError(f"{path}: no prediction rows")
    first, *_ = columns = [[r[:2] for r in rows[m]] for m in sorted(rows)]
    if any(c != first for c in columns):
        raise ValueError(f"{path}: machines cover different crops")
    speaker_ids, crop_indices = zip(*first)
    by_machine = [rows[m] for m in sorted(rows)]
    return PredictionSet.from_pool(
        speaker_ids,
        crop_indices,
        [[r[2] for r in m_rows] for m_rows in by_machine],
        labels=[[r[3] for r in m_rows] for m_rows in by_machine],
    )
