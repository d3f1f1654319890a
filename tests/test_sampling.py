from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from speechdep.audio_io import AudioClip
from speechdep.sampling import crop, materialize_eval_set, materialize_training_set, plan_balanced


def _subset_optimum(counts, labels):
    """Literal optimum: try every equal-size pair of per-class speaker subsets."""
    class0 = [s for s in counts if labels[s] == 0]
    class1 = [s for s in counts if labels[s] == 1]
    best = 0
    for k in range(1, min(len(class0), len(class1)) + 1):
        for sub0 in combinations(class0, k):
            for sub1 in combinations(class1, k):
                c = min(counts[s] for s in sub0 + sub1)
                best = max(best, 2 * k * c)
    return best


def _topk_optimum(counts, labels):
    """Faster oracle: for each K take the K speakers with the most crops."""
    per_class = {
        cls: sorted((counts[s] for s in counts if labels[s] == cls), reverse=True)
        for cls in (0, 1)
    }
    best = 0
    for k in range(1, min(len(per_class[0]), len(per_class[1])) + 1):
        c = min(per_class[0][k - 1], per_class[1][k - 1])
        best = max(best, 2 * k * c)
    return best


def _corpora(max_speakers, max_count):
    """Canonical corpora: one count multiset per class."""
    for n0 in range(1, max_speakers):
        for n1 in range(1, max_speakers - n0 + 1):
            for c0 in combinations_with_replacement(range(1, max_count + 1), n0):
                for c1 in combinations_with_replacement(range(1, max_count + 1), n1):
                    counts = {}
                    labels = {}
                    for i, c in enumerate(c0):
                        counts[f"a{i}"] = c
                        labels[f"a{i}"] = 0
                    for i, c in enumerate(c1):
                        counts[f"b{i}"] = c
                        labels[f"b{i}"] = 1
                    yield counts, labels


def test_topk_oracle_matches_subset_enumeration():
    for counts, labels in _corpora(max_speakers=5, max_count=4):
        assert _topk_optimum(counts, labels) == _subset_optimum(counts, labels)


def test_planner_is_optimal_on_small_corpora():
    for counts, labels in _corpora(max_speakers=6, max_count=5):
        plan = plan_balanced(counts, labels, seed=0)
        assert plan.total_samples == _topk_optimum(counts, labels)


def test_planner_prefers_larger_crop_count_on_ties():
    counts = {"a0": 2, "a1": 2, "b0": 2, "b1": 1}
    labels = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
    # c=1 gives K=2 and c=2 gives K=1, both total 4
    plan = plan_balanced(counts, labels, seed=0)
    assert plan.total_samples == 4
    assert plan.crops_per_speaker == 2
    assert plan.speakers_per_class == 1


def test_planner_eligibility_is_at_least():
    counts = {"a0": 3, "b0": 3}
    labels = {"a0": 0, "b0": 1}
    plan = plan_balanced(counts, labels, seed=0)
    assert plan.crops_per_speaker == 3 and plan.total_samples == 6


def test_planner_selection_is_seeded():
    counts = {f"a{i}": 5 for i in range(6)} | {f"b{i}": 5 for i in range(3)}
    labels = {s: 0 if s.startswith("a") else 1 for s in counts}
    first = plan_balanced(counts, labels, seed=42)
    again = plan_balanced(counts, labels, seed=42)
    assert first.selected_speakers == again.selected_speakers
    assert len(first.selected_speakers[0]) == 3


def test_planner_requires_both_classes():
    with pytest.raises(ValueError, match="class 1"):
        plan_balanced({"a": 3}, {"a": 0})


def test_crop_arithmetic():
    rate = 16000
    clip = AudioClip(np.arange(10 * rate, dtype=np.float64) / (20 * rate), rate, "s1", 1)
    crops = crop(clip, 4.0)
    assert [c.crop_index for c in crops] == [0, 1]
    assert all(c.samples.size == 4 * rate for c in crops)
    assert all(c.speaker_id == "s1" and c.label == 1 for c in crops)
    np.testing.assert_array_equal(crops[1].samples, clip.samples[4 * rate : 8 * rate])
    assert crop(AudioClip(np.zeros(rate), rate), 4.0) == []


def test_crop_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        crop(AudioClip(np.zeros(16000), 16000), 0.0)


def test_crop_rejects_a_length_past_max_seconds():
    with pytest.raises(ValueError, match="span of seconds"):  # not an OverflowError
        crop(AudioClip(np.zeros(16000), 16000), 1e308)


def test_materialize_training_set_honors_plan():
    counts = {"a0": 5, "a1": 3, "b0": 4, "b1": 6}
    labels = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
    plan = plan_balanced(counts, labels, seed=1)
    chosen = materialize_training_set(plan, counts, seed=1)
    assert len(chosen) == plan.total_samples
    per_speaker = {}
    for speaker_id, crop_index in chosen:
        per_speaker.setdefault(speaker_id, set()).add(crop_index)
    selected = set(plan.selected_speakers[0]) | set(plan.selected_speakers[1])
    assert set(per_speaker) == selected
    assert all(len(v) == plan.crops_per_speaker for v in per_speaker.values())
    again = materialize_training_set(plan, counts, seed=1)
    assert chosen == again


def test_materialize_training_set_keys_are_pinned():
    """c = 3, so a0, b0 and b1 draw with rng.choice; the list was recorded with the
    earlier selection over SampleCrop lists."""
    counts = {"a0": 5, "a1": 3, "b0": 4, "b1": 6}
    labels = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
    plan = plan_balanced(counts, labels, seed=1)
    assert plan.crops_per_speaker == 3
    chosen = materialize_training_set(plan, counts, seed=1)
    assert chosen == [
        ("a0", 1), ("a1", 0), ("b0", 3), ("a0", 2), ("b0", 0), ("a1", 1),
        ("b0", 2), ("a1", 2), ("b1", 2), ("b1", 1), ("a0", 3), ("b1", 3),
    ]
    assert all(type(i) is int for _, i in chosen)


def test_materialize_training_set_rejects_short_speakers():
    plan = plan_balanced({"a0": 4, "b0": 4}, {"a0": 0, "b0": 1}, seed=0)
    with pytest.raises(ValueError, match="a0"):
        materialize_training_set(plan, {"a0": 2, "b0": 4}, seed=0)


def test_materialize_eval_set_caps_per_speaker():
    out = materialize_eval_set({"t0": 7, "t1": 2}, cap=4)
    by_speaker = {}
    for speaker_id, crop_index in out:
        by_speaker.setdefault(speaker_id, []).append(crop_index)
    assert by_speaker == {"t0": [0, 1, 2, 3], "t1": [0, 1]}


def test_full_scale_geometry_yields_5518():
    counts = {f"a{i}": 89 + i for i in range(31)} | {f"b{i}": 89 + i for i in range(31)}
    labels = {s: 0 if s.startswith("a") else 1 for s in counts}
    plan = plan_balanced(counts, labels, seed=0)
    assert plan.crops_per_speaker == 89
    assert plan.speakers_per_class == 31
    assert plan.total_samples == 5518
