import itertools

import numpy as np
import pytest

from speechdep.ensemble import (
    EnsembleConfig,
    PredictionSet,
    _mode,
    f1_vs_m_experiment,
    fuse,
    fuse_method1,
    fuse_method2,
    fuse_method3,
    read_predictions_csv,
    sample_labels,
    speaker_label_mean,
    write_predictions_csv,
)


class StubRng:
    """Deterministic tie policy: always returns the configured value."""

    def __init__(self, value):
        self.value = value

    def integers(self, lo, hi):
        assert (lo, hi) == (0, 2)
        return self.value


class RaisingRng:
    def integers(self, *args, **kwargs):
        raise AssertionError("tie rule must not be invoked")


def _set_from_probs(machine, probs, threshold=0.5):
    """Single-speaker prediction set for enumeration tests."""
    return PredictionSet.from_samples(
        machine, ["spk"] * len(probs), range(len(probs)), probs, threshold
    )


def _sets_from_labels(label_rows):
    """One machine per row; probabilities chosen to reproduce the labels."""
    return [
        _set_from_probs(m, [0.8 if y else 0.2 for y in row])
        for m, row in enumerate(label_rows)
    ]


# independent single-speaker oracles, straight from the defining formulas
def _oracle_method1(prob_rows, threshold=0.5):
    mean_per_sample = [sum(col) / len(col) for col in zip(*prob_rows)]
    return int(sum(mean_per_sample) / len(mean_per_sample) >= threshold)


def _oracle_majority(labels, tie_value):
    ones = sum(labels)
    zeros = len(labels) - ones
    if ones == zeros:
        return tie_value
    return int(ones > zeros)


def _oracle_method2(label_rows, tie_value):
    pooled = [y for row in label_rows for y in row]
    return _oracle_majority(pooled, tie_value)


def _oracle_method3(label_rows, tie_value):
    votes = [_oracle_majority(row, tie_value) for row in label_rows]
    return _oracle_majority(votes, tie_value)


def test_sample_labels_threshold_boundary():
    np.testing.assert_array_equal(sample_labels([0.2, 0.8]), [0, 1])
    np.testing.assert_array_equal(sample_labels([0.5]), [1])
    np.testing.assert_array_equal(sample_labels([0.1, 0.2, 0.49]), [0, 0, 0])
    np.testing.assert_array_equal(sample_labels([0.5, 0.7], threshold=0.6), [0, 1])


def test_speaker_label_mean_hand_cases():
    assert speaker_label_mean([0.9, 0.2, 0.8]) == 1  # mean 0.6333
    assert speaker_label_mean([0.4, 0.4]) == 0
    assert speaker_label_mean([0.5]) == 1
    assert speaker_label_mean([0.7]) == sample_labels([0.7])[0]


def test_speaker_label_mode_majority_and_ties():
    assert _mode([1, 1, 0], RaisingRng()) == 1
    assert _mode([0, 0, 0, 0], RaisingRng()) == 0
    assert _mode([0, 1], StubRng(0)) == 0
    assert _mode([0, 1], StubRng(1)) == 1
    draws = [_mode([0, 1], np.random.default_rng(123)) for _ in range(3)]
    again = [_mode([0, 1], np.random.default_rng(123)) for _ in range(3)]
    assert draws == again


def test_method1_matches_oracle_on_probability_grid():
    grid = [i / 10 for i in range(11)]
    for n_machines, n_samples in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
        total = n_machines * n_samples
        for flat in itertools.product(grid, repeat=total):
            rows = [list(flat[m * n_samples : (m + 1) * n_samples]) for m in range(n_machines)]
            sets = [_set_from_probs(m, row) for m, row in enumerate(rows)]
            assert fuse_method1(sets)["spk"] == _oracle_method1(rows)


def test_method1_matches_oracle_on_sampled_grid_large_shapes():
    rng = np.random.default_rng(0)
    for n_machines, n_samples in [(2, 3), (3, 2), (3, 3)]:
        for _ in range(400):
            rows = (rng.integers(0, 11, size=(n_machines, n_samples)) / 10).tolist()
            sets = [_set_from_probs(m, row) for m, row in enumerate(rows)]
            assert fuse_method1(sets)["spk"] == _oracle_method1(rows)


def test_methods_2_and_3_match_oracles_exhaustively():
    for n_machines in (1, 2, 3):
        for n_samples in (1, 2, 3):
            total = n_machines * n_samples
            for flat in itertools.product((0, 1), repeat=total):
                rows = [list(flat[m * n_samples : (m + 1) * n_samples]) for m in range(n_machines)]
                sets = _sets_from_labels(rows)
                for tie in (0, 1):
                    assert fuse_method2(sets, StubRng(tie))["spk"] == _oracle_method2(rows, tie)
                    assert fuse_method3(sets, StubRng(tie))["spk"] == _oracle_method3(rows, tie)


def test_m_equals_one_reductions():
    rng = np.random.default_rng(4)
    probs = rng.uniform(size=5).tolist()
    ps = _set_from_probs(0, probs)
    assert fuse_method1([ps])["spk"] == speaker_label_mean(probs)
    assert fuse_method2([ps], RaisingRng())["spk"] == _mode(ps.labels["spk"], RaisingRng())
    assert fuse_method3([ps], RaisingRng())["spk"] == _mode(ps.labels["spk"], RaisingRng())


def test_machine_permutation_invariance():
    rng = np.random.default_rng(5)
    sets = []
    for m in range(3):
        speakers, crops, probs = [], [], []
        for s in range(4):
            for i in range(3):
                speakers.append(f"s{s}")
                crops.append(i)
                probs.append(float(rng.uniform()))
        sets.append(PredictionSet.from_samples(m, speakers, crops, probs))
    base1 = fuse_method1(sets)
    base2 = fuse_method2(sets, RaisingRng())
    base3 = fuse_method3(sets, RaisingRng())
    for perm in itertools.permutations(sets):
        perm = list(perm)
        assert fuse_method1(perm) == base1
        assert fuse_method2(perm, RaisingRng()) == base2
        assert fuse_method3(perm, RaisingRng()) == base3


def test_odd_machines_odd_samples_never_tie():
    rng = np.random.default_rng(6)
    for _ in range(50):
        rows = rng.integers(0, 2, size=(3, 3)).tolist()
        sets = _sets_from_labels(rows)
        fuse_method2(sets, RaisingRng())
        fuse_method3(sets, RaisingRng())


def test_method2_and_method3_can_disagree():
    # pooled counts 4 ones vs 6 zeros, but per-machine votes split 1-1
    rows = [[1, 0, 0, 0, 0], [1, 1, 1, 0, 0]]
    sets = _sets_from_labels(rows)
    assert fuse_method2(sets, StubRng(0))["spk"] == 0
    assert fuse_method2(sets, StubRng(1))["spk"] == 0  # no tie: decisive majority
    assert fuse_method3(sets, StubRng(0))["spk"] == 0
    assert fuse_method3(sets, StubRng(1))["spk"] == 1  # machine votes tie 1-1


def test_inconsistent_sets_are_rejected():
    a = _set_from_probs(0, [0.1, 0.9])
    b = _set_from_probs(1, [0.1, 0.9, 0.5])
    with pytest.raises(ValueError, match="inconsistent"):
        fuse_method1([a, b])
    c = PredictionSet.from_samples(2, ["other"] * 2, [0, 1], [0.3, 0.4])
    with pytest.raises(ValueError, match="different speakers"):
        fuse_method2([a, c], RaisingRng())


def _set_with_crops(machine, probs, crops):
    probs = {"spk": np.asarray(probs, dtype=np.float64)}
    return PredictionSet(machine, probs, crops, {"spk": sample_labels(probs["spk"])})


def test_shared_crops_still_check_probs_sizes():
    crops = {"spk": np.arange(2)}
    a = _set_with_crops(0, [0.1, 0.9], crops)
    b = _set_with_crops(1, [0.1, 0.9, 0.5], crops)
    assert a.crops is b.crops
    for fusion in (lambda sets: fuse_method1(sets), lambda sets: fuse_method2(sets, RaisingRng())):
        with pytest.raises(ValueError, match="inconsistent"):
            fusion([a, b])
    assert fuse_method1([a, _set_with_crops(2, [0.2, 0.6], crops)]) == {"spk": 0}


def test_distinct_crop_arrays_are_compared_by_value():
    a = _set_with_crops(0, [0.1, 0.9], {"spk": np.array([0, 1])})
    b = _set_with_crops(1, [0.1, 0.9], {"spk": np.array([0, 2])})
    with pytest.raises(ValueError, match="inconsistent"):
        fuse_method3([a, b], RaisingRng())
    short = _set_with_crops(2, [0.1, 0.9], {"spk": np.array([0])})
    with pytest.raises(ValueError, match="inconsistent"):
        fuse_method1([a, short])
    equal = _set_with_crops(3, [0.3, 0.6], {"spk": np.array([0, 1])})
    assert fuse_method1([a, equal]) == {"spk": 0}


def test_fuse_dispatcher_counts_and_seeding():
    sets = _sets_from_labels([[1, 0], [0, 1]])
    cfg = EnsembleConfig(machines=2, method=2, tie_seed=77)
    first = fuse(sets, cfg)
    again = fuse(sets, cfg)
    assert first == again  # tie resolved identically per seed
    with pytest.raises(ValueError, match="expected 3"):
        fuse(sets, EnsembleConfig(machines=3, method=1))


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(machines=0)
    with pytest.raises(ValueError):
        EnsembleConfig(method=4)
    with pytest.raises(ValueError):
        EnsembleConfig(threshold=1.0)


def _pool_with_truth(seed=0, n_machines=4, n_speakers=6, n_samples=3):
    rng = np.random.default_rng(seed)
    truth = {f"s{i}": int(i % 2) for i in range(n_speakers)}
    sets = []
    for m in range(n_machines):
        speakers, crops, probs = [], [], []
        for s, label in truth.items():
            for i in range(n_samples):
                speakers.append(s)
                crops.append(i)
                center = 0.7 if label else 0.3
                probs.append(float(np.clip(center + rng.normal(scale=0.25), 0, 1)))
        sets.append(PredictionSet.from_samples(m, speakers, crops, probs))
    return sets, truth


def test_f1_vs_m_experiment_shape_and_determinism():
    pool, truth = _pool_with_truth()
    curve = f1_vs_m_experiment(pool, truth, [1, 2, 4], n_combinations=16, seed=3)
    assert [pt.m for pt in curve] == [1, 2, 4]
    for pt in curve:
        for cls in (0, 1):
            assert 0.0 <= pt.f1_mean[cls] <= 1.0
            assert pt.f1_std[cls] >= 0.0
    again = f1_vs_m_experiment(pool, truth, [1, 2, 4], n_combinations=16, seed=3)
    assert [(pt.f1_mean, pt.f1_std) for pt in again] == [(pt.f1_mean, pt.f1_std) for pt in curve]


def test_f1_vs_m_full_pool_and_single_combination_have_zero_std():
    pool, truth = _pool_with_truth(seed=1)
    [full] = f1_vs_m_experiment(pool, truth, [len(pool)], n_combinations=8, seed=0)
    assert full.f1_std == {0: 0.0, 1: 0.0}
    [single] = f1_vs_m_experiment(pool, truth, [2], n_combinations=1, seed=0)
    assert single.f1_std == {0: 0.0, 1: 0.0}


def test_f1_vs_m_rejects_oversized_m():
    pool, truth = _pool_with_truth()
    with pytest.raises(ValueError, match="outside pool"):
        f1_vs_m_experiment(pool, truth, [5], n_combinations=2)


def test_predictions_csv_round_trip(tmp_path):
    pool, _ = _pool_with_truth(seed=9, n_machines=2)
    path = tmp_path / "p.csv"
    write_predictions_csv(path, pool)
    loaded = read_predictions_csv(path)
    assert len(loaded) == 2
    for orig, back in zip(pool, loaded):
        assert back.machine == orig.machine
        assert back.speakers == orig.speakers
        for s in orig.speakers:
            np.testing.assert_array_equal(back.probs[s], orig.probs[s])
            np.testing.assert_array_equal(back.crops[s], orig.crops[s])
            np.testing.assert_array_equal(back.labels[s], orig.labels[s])


def test_predictions_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("speaker,probability\na,0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_predictions_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("machine,speaker_id,crop_index,probability,label\n")
    with pytest.raises(ValueError, match="no prediction rows"):
        read_predictions_csv(empty)
