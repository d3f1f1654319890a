"""Fixed-length cropping and class/speaker-balanced sample selection.

Crops are consecutive non-overlapping windows from offset 0; the trailing
remainder is discarded. The balanced planner maximizes the total number of
training samples 2*K*c over the crops-per-speaker count c and the number of
speakers per class K, subject to every selected speaker owning at least c
crops and both classes contributing exactly K speakers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .audio_io import AudioClip, samples


@dataclass
class SampleCrop:
    speaker_id: str
    crop_index: int
    samples: np.ndarray
    label: int | None = None


@dataclass
class BalancedPlan:
    crops_per_speaker: int
    speakers_per_class: int
    selected_speakers: dict[int, list[str]]  # class -> speaker ids

    @property
    def total_samples(self) -> int:
        return 2 * self.speakers_per_class * self.crops_per_speaker


def crop(clip: AudioClip, crop_s: float) -> list[SampleCrop]:
    """Split a clip into consecutive crops of exactly crop_s seconds."""
    crop_len = samples(crop_s, clip.sample_rate)
    if crop_len < 1:
        raise ValueError(
            f"at {clip.sample_rate} Hz the {crop_s} s crop is {crop_len} samples; it must be at least 1"
        )
    n = clip.samples.size // crop_len
    return [
        SampleCrop(clip.speaker_id, i, clip.samples[i * crop_len : (i + 1) * crop_len], clip.label)
        for i in range(n)
    ]


def plan_balanced(
    crop_counts: Mapping[str, int],
    labels: Mapping[str, int],
    seed: int = 0,
) -> BalancedPlan:
    """Pick (c, K) maximizing 2*K*c; ties broken toward larger c.

    For a candidate c, a speaker is eligible iff it owns >= c crops and K is
    the smaller of the two per-class eligible pool sizes. When a pool exceeds
    K, its K speakers are drawn uniformly without replacement (seeded).
    """
    by_class: dict[int, list[str]] = {0: [], 1: []}
    for spk in sorted(crop_counts):
        by_class[labels[spk]].append(spk)
    for cls in (0, 1):
        if not by_class[cls]:
            raise ValueError(f"class {cls} has no speakers")

    best = None  # (total, c, K)
    for c in sorted(set(crop_counts.values())):
        eligible = {cls: [s for s in by_class[cls] if crop_counts[s] >= c] for cls in (0, 1)}
        k = min(len(eligible[0]), len(eligible[1]))
        if k == 0:
            continue
        total = 2 * k * c
        if best is None or (total, c) > (best[0], best[1]):
            best = (total, c, k)
    total, c, k = best

    rng = np.random.default_rng(seed)
    selected: dict[int, list[str]] = {}
    for cls in (0, 1):
        pool = [s for s in by_class[cls] if crop_counts[s] >= c]
        if len(pool) > k:
            pool = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
        selected[cls] = sorted(pool)
    return BalancedPlan(crops_per_speaker=c, speakers_per_class=k, selected_speakers=selected)


def materialize_training_set(
    plan: BalancedPlan, crop_counts: Mapping[str, int], seed: int = 0
) -> list[tuple[str, int]]:
    """Draw exactly c of each selected speaker's crops 0..count-1 (seeded) and shuffle
    the (speaker_id, crop_index) keys."""
    rng = np.random.default_rng(seed)
    c = plan.crops_per_speaker
    chosen: list[tuple[str, int]] = []
    for cls in (0, 1):
        for spk in plan.selected_speakers[cls]:
            count = crop_counts.get(spk, 0)
            if count < c:
                raise ValueError(f"speaker {spk} has {count} crops, plan needs {c}")
            picked = range(c) if count == c else rng.choice(count, size=c, replace=False).tolist()
            chosen.extend((spk, i) for i in picked)
    order = rng.permutation(len(chosen))
    return [chosen[i] for i in order]


def materialize_eval_set(crop_counts: Mapping[str, int], cap: int) -> list[tuple[str, int]]:
    """The (speaker_id, crop_index) keys of every speaker's first min(cap, count) crops."""
    return [(spk, i) for spk in sorted(crop_counts) for i in range(crop_counts[spk])[:cap]]
