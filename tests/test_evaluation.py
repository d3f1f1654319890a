import numpy as np
import pytest

from speechdep import evaluation
from speechdep.ensemble import EnsembleConfig
from speechdep.evaluation import (
    ConfusionCounts,
    confusion,
    cross_validate,
    kfold_split,
    metrics,
    predict_speaker_probs,
    prediction_set_for,
    speaker_labels,
    write_metrics_csv,
)
from speechdep import network
from speechdep.features import LogSpectrogram, open_feature_cache, read_feature_cache
from speechdep.network import NetworkConfig, backward_batch, forward_batch, init_params
from speechdep.trainer import TrainConfig

from feature_sets import cached_set, feature_set


def test_confusion_hand_case():
    counts = confusion({"a": 1, "b": 0, "c": 1}, {"a": 1, "b": 1, "c": 0})
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 0, 1)
    assert counts.total == 3


def test_confusion_perfect_and_all_positive():
    truth = {"a": 1, "b": 0, "c": 1, "d": 0}
    perfect = confusion(truth, truth)
    assert perfect.fp == 0 and perfect.fn == 0
    all_ones = confusion(truth, {k: 1 for k in truth})
    assert all_ones.fp == 2  # one per true negative


def test_confusion_rejects_mismatched_keys_and_bad_labels():
    with pytest.raises(ValueError, match="keys differ"):
        confusion({"a": 1}, {"b": 1})
    with pytest.raises(ValueError, match="labels"):
        confusion({"a": 2}, {"a": 1})
    with pytest.raises(ValueError, match="no speakers"):
        confusion({}, {})


def test_metrics_perfect_classifier():
    report = metrics(ConfusionCounts(tp=3, fp=0, tn=4, fn=0))
    assert report.accuracy == 1.0
    for cls in (0, 1):
        cm = report.per_class[cls]
        assert cm.precision == cm.recall == cm.f1 == 1.0
        assert cm.undefined == ()


def test_metrics_baseline_row_arithmetic():
    # counts engineered for precision 27/100 and recall 89/100 exactly
    report = metrics(ConfusionCounts(tp=2403, fp=6497, tn=50, fn=297))
    cm = report.per_class[1]
    assert cm.precision == pytest.approx(0.27)
    assert cm.recall == pytest.approx(0.89)
    expected_f1 = 2 * 0.27 * 0.89 / (0.27 + 0.89)
    assert cm.f1 == pytest.approx(expected_f1, abs=1e-12)
    assert round(cm.f1, 2) == 0.41


def test_metrics_zero_denominators_flagged():
    report = metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
    cm1 = report.per_class[1]
    assert cm1.precision == 0.0 and "precision" in cm1.undefined
    assert cm1.recall == 0.0 and "recall" not in cm1.undefined
    assert cm1.f1 == 0.0 and "f1" in cm1.undefined
    no_negatives = metrics(ConfusionCounts(tp=2, fp=0, tn=0, fn=0))
    cm0 = no_negatives.per_class[0]
    assert cm0.undefined and cm0.f1 == 0.0


def test_metrics_class_symmetry_under_label_flip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        truth = {f"s{i}": int(rng.integers(0, 2)) for i in range(12)}
        pred = {k: int(rng.integers(0, 2)) for k in truth}
        if len(set(truth.values())) < 2:
            continue
        direct = metrics(confusion(truth, pred))
        flipped = metrics(confusion({k: 1 - v for k, v in truth.items()}, {k: 1 - v for k, v in pred.items()}))
        assert direct.per_class[0] == flipped.per_class[1]
        assert direct.per_class[1] == flipped.per_class[0]
        assert direct.accuracy == flipped.accuracy


def test_metrics_rejects_empty():
    with pytest.raises(ValueError):
        metrics(ConfusionCounts(0, 0, 0, 0))


def test_kfold_balanced_case():
    labels = {f"s{i}": i % 2 for i in range(10)}
    folds = kfold_split(labels, k=5, seed=0)
    assert len(folds) == 5
    for fold in range(5):
        val = folds[fold]
        train = [s for s in labels if s not in val]  # the speakers cross_validate trains the fold on
        assert len(val) == 2 and val == sorted(val)
        assert sorted(labels[s] for s in val) == [0, 1]
        assert set(val).isdisjoint(train)
        assert sorted(val + train) == sorted(labels)
    everything = [s for f in folds for s in f]
    assert sorted(everything) == sorted(labels)
    assert len(everything) == len(set(everything))


def test_kfold_stratification_deviation_at_most_one():
    rng = np.random.default_rng(1)
    labels = {f"a{i}": 0 for i in range(11)} | {f"b{i}": 1 for i in range(7)}
    folds = kfold_split(labels, k=3, seed=int(rng.integers(1000)))
    for fold in folds:
        zeros = sum(1 for s in fold if labels[s] == 0)
        ones = len(fold) - zeros
        assert abs(zeros - 11 / 3) <= 1
        assert abs(ones - 7 / 3) <= 1


def test_kfold_determinism_and_errors():
    labels = {f"s{i}": i % 2 for i in range(8)}
    assert kfold_split(labels, 4, seed=9) == kfold_split(labels, 4, seed=9)
    assert kfold_split(labels, 4, seed=9) != kfold_split(labels, 4, seed=10)
    with pytest.raises(ValueError, match="exceeds"):
        kfold_split(labels, 5)
    with pytest.raises(ValueError, match="k must be"):
        kfold_split(labels, 1)
    with pytest.raises(ValueError, match="labels"):
        kfold_split({"a": 0, "b": 2}, 2)


def _toy_records(speakers, crops_per_speaker=4, shape=(4, 6), seed=0):
    """Separable per-speaker raw records: energy rows depend on the label."""
    rng = np.random.default_rng(seed)
    feats = []
    for speaker, label in speakers.items():
        for i in range(crops_per_speaker):
            base = np.zeros(shape)
            rows = slice(0, shape[0] // 2) if label == 0 else slice(shape[0] // 2, shape[0])
            base[rows] = 1.0
            base += rng.normal(scale=0.05, size=shape)
            feats.append(LogSpectrogram(base, speaker, i, label))
    return feats


def _toy_features(speakers, crops_per_speaker=4, shape=(4, 6), seed=0):
    """Separable per-speaker features: energy rows depend on the label."""
    return feature_set(_toy_records(speakers, crops_per_speaker, shape, seed))


def test_speaker_labels_helper():
    feats = _toy_features({"a": 0, "b": 1})
    assert speaker_labels(feats) == {"a": 0, "b": 1}
    feats.labels[0] = 1
    with pytest.raises(ValueError, match="conflicting"):
        speaker_labels(feats)


def test_predict_speaker_probs_matches_single_forward():
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=2, pool_kernel=2, pool_stride=2, hidden=3)
    params = init_params(net, 3)
    feats = _toy_features({"a": 0, "b": 1}, crops_per_speaker=3)
    [probs] = predict_speaker_probs([params], net, feats, batch_size=2)
    singles = [forward_batch(params, f.values[None], net).probs[0] for f in feats]
    np.testing.assert_allclose(probs, singles, rtol=1e-10)


def test_prediction_set_groups_by_speaker():
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=2, pool_kernel=2, pool_stride=2, hidden=3)
    params = init_params(net, 3)
    feats = _toy_features({"a": 0, "b": 1}, crops_per_speaker=2)
    preds = prediction_set_for([params], net, feats)
    assert preds.machines == 1
    assert preds.speakers == ["a", "b"]
    assert preds.sizes[0] == 2


def _per_machine_probs(params, net, features, batch_size):
    """The per-machine path pool prediction replaced: stack each chunk, then forward_batch."""
    probs = []
    for lo in range(0, len(features), batch_size):
        rows = range(lo, min(lo + batch_size, len(features)))
        chunk = np.stack([np.asarray(features[i].values, dtype=np.float64) for i in rows])
        probs.append(forward_batch(params, chunk, net).probs)
    return np.concatenate(probs)


def test_pool_prediction_is_bitwise_the_per_machine_path(monkeypatch):
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=3, pool_kernel=3, pool_stride=2, hidden=4)
    pool = [init_params(net, seed) for seed in (11, 12, 13)]
    feats = _toy_features({"a": 0, "b": 1, "c": 1}, crops_per_speaker=2, seed=7).take(range(5))
    calls = []

    def spy(params, xs, cfg):
        cache = forward_batch(params, xs, cfg)
        calls.append((len(xs), cache.operand))
        return cache

    monkeypatch.setattr(evaluation, "forward_batch", spy)
    probs = predict_speaker_probs(pool, net, feats, batch_size=2)
    monkeypatch.undo()

    expected = np.stack([_per_machine_probs(params, net, feats, 2) for params in pool])
    assert probs.shape == (3, 5)
    assert np.array_equal(probs, expected)
    assert len(set(probs[:, 0])) == 3  # the machines really differ

    # batch outer, machine inner: chunks of 2, 2 and 1, each scored by all three machines
    assert [n for n, _ in calls] == [2, 2, 2, 2, 2, 2, 1, 1, 1]
    operands = [op for _, op in calls]
    for chunk in range(3):
        first, *rest = operands[3 * chunk : 3 * chunk + 3]
        assert all(np.shares_memory(first, op) for op in rest)
        assert chunk == 0 or not np.shares_memory(first, operands[3 * chunk - 1])


def test_64_crop_batches_give_the_256_crop_bytes_at_reference_geometry():
    """75 crops: batches of 64 and 11, or one batch of 75."""
    net = NetworkConfig(freq_bins=513, time_steps=125)
    rng = np.random.default_rng(31)
    pool = [init_params(net, seed) for seed in (5, 6)]
    for params in pool:
        params.b_conv += rng.normal(scale=0.05, size=net.filters)
    feats = _toy_features({f"s{i}": i % 2 for i in range(15)}, crops_per_speaker=5, shape=(513, 125), seed=8)
    probs = predict_speaker_probs(pool, net, feats, batch_size=64)
    assert probs.shape == (2, 75)
    assert np.array_equal(probs, predict_speaker_probs(pool, net, feats, batch_size=256))


def test_prediction_set_rows_are_machines_in_speaker_order():
    net = _toy_net()
    pool = [init_params(net, seed) for seed in (1, 2)]
    feats = _toy_features({"b": 1, "a": 0}, crops_per_speaker=3)
    preds = prediction_set_for(pool, net, feats, threshold=0.5)
    assert preds.machines == 2 and preds.speakers == ["a", "b"]
    probs = predict_speaker_probs(pool, net, feats)
    for m in range(2):
        assert np.array_equal(preds.probs[m, 3:], probs[m, :3]) and np.array_equal(preds.probs[m, :3], probs[m, 3:])
        assert np.array_equal(preds.labels[m, :3], (probs[m, 3:] >= 0.5).astype(np.int64))
    assert np.array_equal(preds.crop_indices[:3], [0, 1, 2])


def test_prediction_computes_no_pool_argmax(monkeypatch):
    net = _toy_net()
    pool = [init_params(net, seed) for seed in (1, 2)]
    feats = _toy_features({"a": 0, "b": 1}, crops_per_speaker=3)
    calls = []
    argmax = network._pool_argmax
    monkeypatch.setattr(network, "_pool_argmax", lambda *args: calls.append(1) or argmax(*args))
    predict_speaker_probs(pool, net, feats)
    assert calls == []
    xs = feats.batch(range(2))
    backward_batch(pool[0], forward_batch(pool[0], xs, net), xs, [0, 1], net)
    assert calls == [1]  # the spy sees backward's argmax


def test_predict_rejects_features_of_another_shape():
    net = _toy_net()
    feats = _toy_features({"a": 0}, crops_per_speaker=2, shape=(4, 7))
    with pytest.raises(ValueError, match=r"expected batch of \(4, 6\), got \(2, 4, 7\)"):
        predict_speaker_probs([init_params(net, 0)], net, feats)


def _toy_net():
    return NetworkConfig(freq_bins=4, time_steps=6, filters=3, pool_kernel=2, pool_stride=2, hidden=4)


def test_cross_validate_pools_fold_predictions():
    train_speakers = {f"tr{i}": i % 2 for i in range(8)}
    test_speakers = {f"te{i}": i % 2 for i in range(4)}
    train_feats = _toy_features(train_speakers, seed=1)
    test_feats = _toy_features(test_speakers, seed=2)
    result = cross_validate(
        train_feats,
        test_feats,
        _toy_net(),
        TrainConfig(epochs=40, batch_size=4, lr_start=1.0, lr_end=0.1, seed=4),
        EnsembleConfig(machines=1, method=1),
        k=2,
        seed=0,
    )
    assert len(result.fold_reports) == 2
    assert result.pooled_report.n_scored == 2 * len(test_speakers)
    assert len(result.fold_validation) == 2
    assert len(result.histories) == 2 and len(result.histories[0]) == 1

    # pooled metrics equal metrics over the concatenated per-fold predictions
    pooled_truth, pooled_pred = {}, {}
    for fold, fused in enumerate(result.fold_predictions):
        for speaker, label in test_speakers.items():
            pooled_truth[(fold, speaker)] = label
            pooled_pred[(fold, speaker)] = fused[speaker]
    recomputed = metrics(confusion(pooled_truth, pooled_pred))
    assert recomputed == result.pooled_report
    # the separable toy task should be solved through every fold
    assert result.pooled_report.accuracy == 1.0


def test_cross_validate_k1_trains_on_everything():
    train_feats = _toy_features({f"tr{i}": i % 2 for i in range(4)}, seed=5)
    test_feats = _toy_features({"te0": 0, "te1": 1}, seed=6)
    result = cross_validate(
        train_feats,
        test_feats,
        _toy_net(),
        TrainConfig(epochs=10, batch_size=8, lr_start=1.0, lr_end=0.1, seed=0),
        EnsembleConfig(machines=1, method=1),
        k=1,
    )
    assert len(result.fold_reports) == 1
    assert result.fold_validation == [[]]
    assert result.pooled_report == result.fold_reports[0]


def test_cross_validate_is_the_same_on_both_backings(tmp_path):
    train_records = _toy_records({f"tr{i}": i % 2 for i in range(6)}, seed=7)
    test_records = _toy_records({f"te{i}": i % 2 for i in range(4)}, seed=8)
    read, opened = (
        cross_validate(
            cached_set(train_records, tmp_path, reader),
            cached_set(test_records, tmp_path, reader),
            _toy_net(),
            TrainConfig(epochs=3, batch_size=4, lr_start=1.0, lr_end=0.1, seed=2),
            EnsembleConfig(machines=2, method=1),
            k=3,
            seed=1,
        )
        for reader in (read_feature_cache, open_feature_cache)
    )
    assert all(history.val_loss for fold in opened.histories for history in fold)  # every fold validated
    assert opened.pooled_report == read.pooled_report
    assert opened.fold_predictions == read.fold_predictions
    assert opened.histories == read.histories


def test_cross_validate_rejects_empty_inputs():
    feats = _toy_features({"a": 0, "b": 1})
    with pytest.raises(ValueError):
        cross_validate(feats.take([]), feats, _toy_net(), TrainConfig(epochs=1), EnsembleConfig(machines=1))


def test_write_metrics_csv(tmp_path):
    report = metrics(ConfusionCounts(tp=2, fp=1, tn=3, fn=0))
    path = tmp_path / "m.csv"
    write_metrics_csv(path, [report, report], report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scope,class,accuracy,precision,recall,f1"
    assert len(lines) == 1 + 2 * 3  # two folds + pooled, two classes each
    scopes = {line.split(",")[0] for line in lines[1:]}
    assert scopes == {"fold_0", "fold_1", "pooled"}
    first = lines[1].split(",")
    assert first[:2] == ["fold_0", "0"]
    assert float(first[2]) == pytest.approx(report.accuracy)
