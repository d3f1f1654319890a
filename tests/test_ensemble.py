import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechdep.ensemble import (
    EnsembleConfig,
    PredictionSet,
    f1_vs_m_experiment,
    fuse,
    fuse_method1,
    fuse_method2,
    fuse_method3,
    read_predictions_csv,
    sample_labels,
    speaker_order,
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


def _pool(rows, speaker_ids=None, threshold=0.5):
    """One machine per row of probabilities; every column is speaker "spk" unless speaker_ids says otherwise."""
    rows = np.asarray(rows, dtype=np.float64)
    speaker_ids = ["spk"] * rows.shape[1] if speaker_ids is None else speaker_ids
    return PredictionSet.from_pool(speaker_ids, range(rows.shape[1]), rows, threshold)


def _pool_from_labels(label_rows):
    """One machine per row; probabilities chosen to reproduce the labels."""
    return _pool([[0.8 if y else 0.2 for y in row] for row in label_rows])


# ------------------------------------------------ the dict-based fusion as first written
#
# Each machine held speaker -> array dicts and every method walked them
# speaker by speaker, drawing from rng at each exact tie. The dense fusion
# must give the same labels and leave the generator in the same state.


class _DictSet:
    def __init__(self, speaker_ids, probs, threshold=0.5):
        rows: dict[str, list[int]] = {}
        for i, speaker in enumerate(speaker_ids):
            rows.setdefault(speaker, []).append(i)
        probs = np.asarray(probs, dtype=np.float64)
        self.probs = {s: probs[idx] for s, idx in rows.items()}
        self.labels = {s: sample_labels(p, threshold) for s, p in self.probs.items()}
        self.speakers = sorted(self.probs)


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


def _dict_method1(sets, threshold=0.5):
    out = {}
    for s in sets[0].speakers:
        mean_probs = np.mean([ps.probs[s] for ps in sets], axis=0)
        out[s] = speaker_label_mean(mean_probs, threshold)
    return out


def _dict_method2(sets, rng):
    return {s: _mode(np.concatenate([ps.labels[s] for ps in sets]), rng) for s in sets[0].speakers}


def _dict_method3(sets, rng):
    out = {}
    for s in sets[0].speakers:
        votes = [_mode(ps.labels[s], rng) for ps in sets]
        out[s] = _mode(votes, rng)
    return out


def _in_speaker_order(preds, by_speaker):
    """An oracle's {speaker: label} as the list fusion returns, in preds.speakers order."""
    assert sorted(by_speaker) == preds.speakers
    return [by_speaker[s] for s in preds.speakers]


@st.composite
def _tie_heavy_pools(draw):
    """Probabilities on a 0.1 grid over 1-9 machines and 1-6 speakers of 1-7 crops each, interleaved."""
    machines = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    speaker_ids = [f"s{i}" for i, n in enumerate(sizes) for _ in range(n)]
    speaker_ids = draw(st.permutations(speaker_ids))
    grid = draw(st.lists(st.integers(0, 10), min_size=machines * len(speaker_ids), max_size=machines * len(speaker_ids)))
    probs = np.asarray(grid, dtype=np.float64).reshape(machines, len(speaker_ids)) / 10
    picks = draw(st.permutations(range(machines)))[: draw(st.integers(1, machines))]
    return speaker_ids, probs, picks


@settings(max_examples=400, deadline=None, database=None)
@given(pool=_tie_heavy_pools(), seed=st.integers(0, 2**32 - 1))
def test_dense_fusion_equals_the_dict_fusion(pool, seed):
    speaker_ids, probs, picks = pool
    preds = PredictionSet.from_pool(speaker_ids, range(len(speaker_ids)), probs)
    np.testing.assert_array_equal(preds.labels, sample_labels(preds.probs, preds.threshold))
    picked = [_DictSet(speaker_ids, probs[m]) for m in picks]
    assert fuse_method1(preds, picks=picks).tolist() == _in_speaker_order(preds, _dict_method1(picked))
    for dense, oracle in ((fuse_method2, _dict_method2), (fuse_method3, _dict_method3)):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert dense(preds, rng, picks).tolist() == _in_speaker_order(preds, oracle(picked, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state



def test_one_crop_speaker_mean_rounds_as_a_1d_mean_over_machines():
    # over 9 machines, a 1-d mean and a row-by-row sum round these to opposite sides of 0.5
    column = [0.5, 0.2, 0.8, 0.5, 1.0, 0.3, 0.3, 0.8, 0.1]
    speaker_ids = ["one", "two", "two"]
    rows = [[p, 0.9, 0.9] for p in column]
    preds = _pool(rows, speaker_ids)
    fused = fuse_method1(preds)
    assert fused.tolist() == _in_speaker_order(preds, _dict_method1([_DictSet(speaker_ids, row) for row in rows]))
    assert preds.speakers[0] == "one" and fused[0] == 1

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


def test_speaker_label_mean_hand_cases():  # method 1 over one machine
    assert fuse_method1(_pool([[0.9, 0.2, 0.8]])).tolist() == [1]  # mean 0.6333
    assert fuse_method1(_pool([[0.4, 0.4]])).tolist() == [0]
    assert fuse_method1(_pool([[0.5]])).tolist() == [1]
    assert fuse_method1(_pool([[0.7]])).tolist() == [sample_labels([0.7])[0]]


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
            assert fuse_method1(_pool(rows)).tolist() == [_oracle_method1(rows)]


def test_method1_matches_oracle_on_sampled_grid_large_shapes():
    rng = np.random.default_rng(0)
    for n_machines, n_samples in [(2, 3), (3, 2), (3, 3)]:
        for _ in range(400):
            rows = (rng.integers(0, 11, size=(n_machines, n_samples)) / 10).tolist()
            assert fuse_method1(_pool(rows)).tolist() == [_oracle_method1(rows)]


def test_methods_2_and_3_match_oracles_exhaustively():
    for n_machines in (1, 2, 3):
        for n_samples in (1, 2, 3):
            total = n_machines * n_samples
            for flat in itertools.product((0, 1), repeat=total):
                rows = [list(flat[m * n_samples : (m + 1) * n_samples]) for m in range(n_machines)]
                sets = _pool_from_labels(rows)
                for tie in (0, 1):
                    assert fuse_method2(sets, StubRng(tie)).tolist() == [_oracle_method2(rows, tie)]
                    assert fuse_method3(sets, StubRng(tie)).tolist() == [_oracle_method3(rows, tie)]


def test_m_equals_one_reductions():
    rng = np.random.default_rng(4)
    probs = rng.uniform(size=5).tolist()
    ps = _pool([probs])
    assert fuse_method1(ps).tolist() == [speaker_label_mean(probs)]
    assert fuse_method2(ps, RaisingRng()).tolist() == [_mode(ps.labels[0], RaisingRng())]
    assert fuse_method3(ps, RaisingRng()).tolist() == [_mode(ps.labels[0], RaisingRng())]


def test_machine_permutation_invariance():
    rng = np.random.default_rng(5)
    speakers = [f"s{s}" for s in range(4) for _ in range(3)]
    sets = _pool(rng.uniform(size=(3, 12)), speakers)
    base1 = fuse_method1(sets)
    base2 = fuse_method2(sets, RaisingRng())
    base3 = fuse_method3(sets, RaisingRng())
    for perm in itertools.permutations(range(3)):
        perm = list(perm)
        np.testing.assert_array_equal(fuse_method1(sets, picks=perm), base1)
        np.testing.assert_array_equal(fuse_method2(sets, RaisingRng(), perm), base2)
        np.testing.assert_array_equal(fuse_method3(sets, RaisingRng(), perm), base3)


def test_odd_machines_odd_samples_never_tie():
    rng = np.random.default_rng(6)
    for _ in range(50):
        rows = rng.integers(0, 2, size=(3, 3)).tolist()
        sets = _pool_from_labels(rows)
        fuse_method2(sets, RaisingRng())
        fuse_method3(sets, RaisingRng())


def test_method2_and_method3_can_disagree():
    # pooled counts 4 ones vs 6 zeros, but per-machine votes split 1-1
    rows = [[1, 0, 0, 0, 0], [1, 1, 1, 0, 0]]
    sets = _pool_from_labels(rows)
    assert fuse_method2(sets, StubRng(0)).tolist() == [0]
    assert fuse_method2(sets, StubRng(1)).tolist() == [0]  # no tie: decisive majority
    assert fuse_method3(sets, StubRng(0)).tolist() == [0]
    assert fuse_method3(sets, StubRng(1)).tolist() == [1]  # machine votes tie 1-1


def test_speaker_order_rejects_ids_that_numpy_strings_merge():
    speakers, inverse = speaker_order(["b", "a", "b", "c"])
    assert speakers.tolist() == ["a", "b", "c"] and inverse.tolist() == [1, 0, 1, 2]
    with pytest.raises(ValueError, match="2 distinct speaker ids are 1 once trailing NULs drop"):
        speaker_order(["a", "a\0"])
    with pytest.raises(ValueError, match="distinct speaker ids"):
        PredictionSet.from_pool(["a", "a\0"], [0, 1], [[0.1, 0.9]])


def test_inconsistent_sets_are_rejected():
    with pytest.raises(ValueError, match="do not align"):
        PredictionSet.from_pool(["spk"] * 2, [0, 1], [[0.1, 0.9, 0.5]])
    with pytest.raises(ValueError, match="do not align"):
        PredictionSet.from_pool(["spk"] * 2, [0, 1, 2], [[0.1, 0.9]])
    with pytest.raises(ValueError, match="no speakers"):
        PredictionSet.from_pool([], [], np.empty((2, 0)))
    with pytest.raises(ValueError, match="outside"):
        _pool([[0.1, 1.5]])


@pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf, -0.25, 1.25])
def test_a_probability_outside_0_1_or_nan_is_rejected(bad):
    """A nan fails every comparison, so it must fail the range check, not pass it and be thresholded as 0."""
    with pytest.raises(ValueError, match=r"outside \[0, 1\] or nan"):
        _pool([[0.1, 0.9], [bad, 0.5]])
    assert _pool([[0.0, 1.0]]).machines == 1  # both ends lie inside


def test_interleaved_speakers_keep_their_crop_order():
    preds = PredictionSet.from_pool(["b", "a", "b", "c", "a"], [7, 3, 2, 9, 0], [[0.1, 0.2, 0.3, 0.4, 0.5]])
    assert preds.speakers == ["a", "b", "c"]
    np.testing.assert_array_equal(preds.offsets, [0, 2, 4])
    np.testing.assert_array_equal(preds.sizes, [2, 2, 1])
    np.testing.assert_array_equal(preds.crop_indices, [3, 0, 7, 2, 9])
    np.testing.assert_array_equal(preds.probs, [[0.2, 0.5, 0.1, 0.3, 0.4]])
    np.testing.assert_array_equal(preds.labels, [[0, 1, 0, 0, 0]])


def test_fuse_dispatcher_counts_and_seeding():
    sets = _pool_from_labels([[1, 0], [0, 1]])
    cfg = EnsembleConfig(machines=2, method=2, tie_seed=77)
    first = fuse(sets, cfg)
    again = fuse(sets, cfg)
    assert first.dtype == np.int64 and first.shape == (1,)
    np.testing.assert_array_equal(first, again)  # tie resolved identically per seed


@pytest.mark.parametrize("method", [1, 2, 3])
def test_every_method_fuses_at_the_sets_threshold(method):
    """A set built at 0.3 thresholds there under every method, whatever the config's threshold says."""
    preds = _pool([[0.4, 0.4, 0.4]] * 3, threshold=0.3)
    np.testing.assert_array_equal(preds.labels, np.ones((3, 3), dtype=np.int64))
    cfg = EnsembleConfig(machines=3, method=method, threshold=0.5)
    assert fuse(preds, cfg, rng=RaisingRng()).tolist() == [1]
    assert fuse(_pool([[0.4, 0.4, 0.4]] * 3), cfg, rng=RaisingRng()).tolist() == [0]  # at 0.5, 0 under every method


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(machines=0)
    with pytest.raises(ValueError):
        EnsembleConfig(method=4)
    with pytest.raises(ValueError):
        EnsembleConfig(threshold=1.0)


def _pool_with_truth(seed=0, n_machines=4, n_speakers=6, n_samples=3):
    rng = np.random.default_rng(seed)
    truth = np.arange(n_speakers) % 2  # speakers s0, s1, ... sort in index order
    speakers = [f"s{i}" for i in range(n_speakers) for _ in range(n_samples)]
    centers = np.repeat(np.where(truth == 1, 0.7, 0.3), n_samples)
    probs = np.clip(centers + rng.normal(scale=0.25, size=(n_machines, len(speakers))), 0, 1)
    return PredictionSet.from_pool(speakers, np.tile(np.arange(n_samples), n_speakers), probs), truth


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
    [full] = f1_vs_m_experiment(pool, truth, [pool.machines], n_combinations=8, seed=0)
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
    header, *rows = path.read_text().splitlines()
    # the label column is not read: with every label inverted, the labels still come from the probabilities
    path.write_text("\n".join([header, *(row[:-1] + str(1 - int(row[-1])) for row in rows)]) + "\n")
    loaded = read_predictions_csv(path)
    assert loaded.machines == 2
    assert loaded.speakers == pool.speakers
    for name in ("offsets", "crop_indices", "probs", "labels", "threshold"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(pool, name))
    at_03 = read_predictions_csv(path, 0.3)
    assert at_03.threshold == 0.3
    np.testing.assert_array_equal(at_03.labels, sample_labels(pool.probs, 0.3))


def test_predictions_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("speaker,probability\na,0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_predictions_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("machine,speaker_id,crop_index,probability,label\n")
    with pytest.raises(ValueError, match="no prediction rows"):
        read_predictions_csv(empty)
    other_crops = tmp_path / "other.csv"
    other_crops.write_text(
        "machine,speaker_id,crop_index,probability,label\n0,a,0,0.5,1\n1,a,1,0.5,1\n"
    )
    with pytest.raises(ValueError, match="different crops"):
        read_predictions_csv(other_crops)
