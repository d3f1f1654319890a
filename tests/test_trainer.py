import math
import tracemalloc

import numpy as np
import pytest

from speechdep import evaluation, trainer
from speechdep.features import FeatureSet, LogSpectrogram, read_feature_cache, write_feature_cache
from speechdep.network import NetworkConfig, NetworkParams, batch_loss, forward_batch, init_params
from speechdep.trainer import (
    AdadeltaState,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    adadelta_step,
    lr_schedule,
    planned_bytes,
    train,
    write_history_csv,
)

from feature_sets import feature_set

PARAM_FIELDS = ("w_conv", "b_conv", "w_hidden", "b_hidden", "w_out", "b_out")


_SCALAR_NET = NetworkConfig(freq_bins=1, time_steps=1, filters=1, pool_kernel=1, pool_stride=1, hidden=1)


def _scalar_params(value=0.0):
    """One value per block."""
    return NetworkParams(_SCALAR_NET, np.full(_SCALAR_NET.n_params, float(value)))


def test_adadelta_first_step_closed_form():
    params = _scalar_params(0.0)
    grads = _scalar_params(1.0)
    grads.b_out = 1.0
    state = AdadeltaState.zeros(params)
    adadelta_step(params, grads, state, lr=1.0, rho=0.95, eps=1e-6)
    new_eg2, new_edx2 = NetworkParams(_SCALAR_NET, state.eg2), NetworkParams(_SCALAR_NET, state.edx2)
    expected_delta = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
    for name in PARAM_FIELDS:
        value = np.asarray(getattr(params, name)).reshape(-1)[0]
        assert value == pytest.approx(expected_delta, abs=1e-12)
        eg2 = np.asarray(getattr(new_eg2, name)).reshape(-1)[0]
        assert eg2 == pytest.approx(0.05, abs=1e-15)
        edx2 = np.asarray(getattr(new_edx2, name)).reshape(-1)[0]
        assert edx2 == pytest.approx(0.05 * expected_delta**2, abs=1e-15)


def test_adadelta_matches_scalar_recurrence_over_steps():
    # independent scalar re-implementation of the update equations
    rho, eps, lr = 0.9, 1e-6, 0.7
    gs = [1.0, -0.5, 0.25, 2.0, -1.0]
    theta, eg2, edx2 = 0.3, 0.0, 0.0
    expected = []
    for g in gs:
        eg2 = rho * eg2 + (1 - rho) * g * g
        delta = -g * math.sqrt(edx2 + eps) / math.sqrt(eg2 + eps)
        edx2 = rho * edx2 + (1 - rho) * delta * delta
        theta = theta + lr * delta
        expected.append(theta)

    params = _scalar_params(0.3)
    state = AdadeltaState.zeros(params)
    for g, want in zip(gs, expected):
        grads = _scalar_params(g)
        grads.b_out = g
        adadelta_step(params, grads, state, lr=lr, rho=rho, eps=eps)
        assert params.w_conv[0, 0] == pytest.approx(want, abs=1e-15)
        assert params.b_out == pytest.approx(want, abs=1e-15)


def test_adadelta_step_is_in_place_and_allocates_no_vector():
    net = NetworkConfig(freq_bins=257, time_steps=125, filters=64, hidden=128)  # 278,913 values
    params = init_params(net, seed=4)
    grads = NetworkParams(net, np.random.default_rng(4).normal(size=net.n_params))
    state = AdadeltaState.zeros(params)
    adadelta_step(params, grads, state, lr=1.0, rho=0.95, eps=1e-6)  # warm up, and leave the state non-zero
    vectors = (params.vector, state.eg2, state.edx2)
    before = [v.copy() for v in vectors]
    tracemalloc.start()
    try:
        adadelta_step(params, grads, state, lr=1.0, rho=0.95, eps=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(now is held for now, held in zip((params.vector, state.eg2, state.edx2), vectors))
    assert all(not np.array_equal(v, old) for v, old in zip(vectors, before))
    assert peak < 8 * net.n_params, peak / (8 * net.n_params)


def test_assigning_a_block_writes_into_the_vector():
    params = _scalar_params(0.0)
    vector = params.vector
    params.b_out = 2.5
    params.w_conv = [[1.5]]
    assert vector.tolist() == [1.5, 0.0, 0.0, 0.0, 0.0, 2.5]
    assert params.vector is vector and np.shares_memory(params.b_out, vector)
    with pytest.raises(AttributeError):
        params.b_outt = 1.0


def test_lr_schedule_geometric_endpoints_and_ratio():
    cfg = TrainConfig(epochs=50, lr_start=1.0, lr_end=0.01)
    assert lr_schedule(cfg, 0) == pytest.approx(1.0)
    assert lr_schedule(cfg, 49) == pytest.approx(0.01)
    ratios = [lr_schedule(cfg, e + 1) / lr_schedule(cfg, e) for e in range(49)]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(ValueError):
        lr_schedule(cfg, 50)
    assert lr_schedule(TrainConfig(epochs=1), 0) == 1.0
    frozen = TrainConfig(epochs=3, lr_start=0.0, lr_end=0.0)
    assert lr_schedule(frozen, 1) == 0.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_start=0.5, lr_end=0.6)
    with pytest.raises(ValueError):
        TrainConfig(rho=1.0)
    with pytest.raises(ValueError):
        TrainConfig(eps=0.0)
    for bad in (dict(lr_start=math.inf), dict(lr_start=math.inf, lr_end=math.inf), dict(eps=math.inf)):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**bad)


def _toy_features(n_per_class, shape=(4, 6), seed=0, scale=1.0):
    """Linearly separable features: class puts its energy in distinct rows."""
    rng = np.random.default_rng(seed)
    feats = []
    for label in (0, 1):
        for i in range(n_per_class):
            base = np.zeros(shape)
            rows = slice(0, shape[0] // 2) if label == 0 else slice(shape[0] // 2, shape[0])
            base[rows] = 1.0
            base += rng.normal(scale=0.05, size=shape) * scale
            feats.append(LogSpectrogram(base, f"s{label}{i}", i, label))
    return feature_set(feats)


def _toy_net():
    return NetworkConfig(freq_bins=4, time_steps=6, filters=3, pool_kernel=2, pool_stride=2, hidden=4)


def test_train_reduces_loss_and_is_deterministic():
    feats = _toy_features(8)
    cfg = TrainConfig(epochs=12, batch_size=4, lr_start=1.0, lr_end=0.1, seed=3)
    [params1], [hist1] = train(feats, _toy_net(), cfg)
    [params2], [hist2] = train(feats, _toy_net(), cfg)
    assert hist1.train_loss[-1] < hist1.train_loss[0]
    assert hist1.train_loss == hist2.train_loss
    for name in PARAM_FIELDS[:-1]:
        np.testing.assert_array_equal(getattr(params1, name), getattr(params2, name))
    assert params1.b_out == params2.b_out
    assert len(hist1.lr) == len(hist1.train_loss) == cfg.epochs


def test_train_validation_history():
    feats = _toy_features(6)
    val = _toy_features(3, seed=9)
    cfg = TrainConfig(epochs=5, batch_size=6, lr_start=0.5, lr_end=0.1, seed=0)
    _, [hist] = train(feats, _toy_net(), cfg, val_features=val)
    assert all(np.isfinite(hist.val_loss))
    assert all(0.0 <= a <= 1.0 for a in hist.val_acc)
    _, [bare] = train(feats, _toy_net(), cfg)
    assert all(math.isnan(v) for v in bare.val_loss)


def test_train_learns_separable_toy_task():
    feats = _toy_features(10)
    cfg = TrainConfig(epochs=30, batch_size=5, lr_start=1.0, lr_end=0.1, seed=1)
    net = _toy_net()
    [params], _ = train(feats, net, cfg)
    correct = sum(
        (forward_batch(params, f.values[None], net).probs[0] >= 0.5) == bool(f.label) for f in feats
    )
    assert correct == len(feats)


def test_train_init_seed_changes_outcome_but_not_order():
    feats = _toy_features(6)
    cfg = TrainConfig(epochs=3, batch_size=4, lr_start=0.5, lr_end=0.1, seed=5)
    [params_a], [hist_a] = train(feats, _toy_net(), cfg, init_seeds=[100])
    [params_b], [hist_b] = train(feats, _toy_net(), cfg, init_seeds=[101])
    assert not np.array_equal(params_a.w_conv, params_b.w_conv)
    assert hist_a.lr == hist_b.lr


def test_train_rejects_bad_inputs():
    with pytest.raises(ValueError, match="no training samples"):
        train(_toy_features(1).take([]), _toy_net(), TrainConfig(epochs=1))
    feats = _toy_features(2, shape=(3, 6))
    with pytest.raises(ValueError, match="does not fit model"):
        train(feats, _toy_net(), TrainConfig(epochs=1))


def test_train_aborts_on_non_finite_loss():
    feats = _toy_features(4)
    feats.block[0, 0, 0] = np.nan
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train(feats, _toy_net(), TrainConfig(epochs=1, batch_size=8, seed=0))


def _raw_features(n, shape=(4, 6), seed=0, normalized=True):
    """Pre-normalization float32 records, one of them constant."""
    toy = _toy_features(n // 2, shape=shape, seed=seed)
    block = (toy.block * 30.0 - 80.0).astype(np.float32)
    block[1] = np.float32(-12.5)
    return FeatureSet(block, toy.speaker_ids, toy.crop_indices, toy.labels, normalized)


def _assert_same_params(a, b):
    for name in PARAM_FIELDS[:-1]:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.b_out == b.b_out


def test_raw_and_pre_normalized_features_train_the_same_params(tmp_path):
    raw = _raw_features(10)
    path = tmp_path / "raw.lspg"
    write_feature_cache(path, _raw_features(10, normalized=False))
    cfg = TrainConfig(epochs=3, batch_size=4, lr_start=1.0, lr_end=0.1, seed=6)
    [expected], [hist] = train(feature_set(list(raw)), _toy_net(), cfg)
    for features in (raw, read_feature_cache(path), read_feature_cache(path, normalize=False)):
        [params], [again] = train(features, _toy_net(), cfg)
        _assert_same_params(params, expected)
        assert again.train_loss == hist.train_loss


def test_non_finite_raw_record_still_aborts(tmp_path):
    raw = _raw_features(8, normalized=False)
    raw.block[3, 1, 2] = np.nan
    path = tmp_path / "nan.lspg"
    write_feature_cache(path, raw)
    for features in (raw, read_feature_cache(path)):
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(features, _toy_net(), TrainConfig(epochs=1, batch_size=8, seed=0))


def test_every_step_builds_its_operand_in_one_buffer(monkeypatch):
    operands = []

    def spy(params, xs, cfg):
        cache = forward_batch(params, xs, cfg)
        operands.append(cache.operand)
        return cache

    monkeypatch.setattr(trainer, "forward_batch", spy)
    # 10 records in batches of 4: two full steps and a partial one of 2, per epoch
    train(_raw_features(10), _toy_net(), TrainConfig(epochs=2, batch_size=4, seed=1))
    assert [op.shape[1] for op in operands] == [24, 24, 12] * 2
    first = operands[0]
    assert all(np.shares_memory(first, op) for op in operands)
    assert all(op.flags.c_contiguous for op in operands)  # a prefix, not a strided slice


def test_train_memory_is_the_block_plus_a_batch(tmp_path):
    shape, n, batch = (16, 40), 240, 6
    net = NetworkConfig(freq_bins=16, time_steps=40, filters=2, pool_kernel=4, pool_stride=4, hidden=3)
    rng = np.random.default_rng(12)
    path = tmp_path / "many.lspg"
    write_feature_cache(
        path, [LogSpectrogram(rng.normal(size=shape).astype(np.float32), f"s{i}", i, i % 2) for i in range(n)]
    )
    features = read_feature_cache(path)
    cfg = TrainConfig(epochs=1, batch_size=batch, seed=0)
    train(features, net, cfg)  # warm up: first-call allocations are not the data path's
    tracemalloc.start()
    try:
        train(features, net, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_values = n * shape[0] * shape[1]
    assert features.block.nbytes == 4 * n_values
    # an N-sized float64 copy would be 8 B per value; one float64 batch is 8 * batch / n of that
    assert peak < 0.5 * features.block.nbytes, peak / n_values


def test_train_ensemble_shares_order_and_varies_init():
    feats = _toy_features(6)
    cfg = TrainConfig(epochs=4, batch_size=6, lr_start=0.5, lr_end=0.1, seed=2)
    params_list, hist_list = train(feats, _toy_net(), cfg, init_seeds=range(cfg.seed, cfg.seed + 3))
    assert len(params_list) == 3
    assert not np.array_equal(params_list[0].w_conv, params_list[1].w_conv)
    assert hist_list[0].lr == hist_list[1].lr == hist_list[2].lr
    # machine m is reproducible standalone via init seed = seed + m
    [solo], _ = train(feats, _toy_net(), cfg, init_seeds=[cfg.seed + 1])
    np.testing.assert_array_equal(solo.w_conv, params_list[1].w_conv)


def test_lockstep_machines_equal_single_seed_runs():
    feats = _raw_features(14)
    val = _toy_features(3, seed=9)
    cfg = TrainConfig(epochs=3, batch_size=4, lr_start=1.0, lr_end=0.1, seed=7)
    seeds = [21, 5, 13]
    params_list, hist_list = train(feats, _toy_net(), cfg, init_seeds=seeds, val_features=val)
    assert len(params_list) == len(hist_list) == 3
    for seed, params, hist in zip(seeds, params_list, hist_list):
        [solo], [solo_hist] = train(feats, _toy_net(), cfg, init_seeds=[seed], val_features=val)
        for name in PARAM_FIELDS:
            assert np.asarray(getattr(params, name)).tobytes() == np.asarray(getattr(solo, name)).tobytes(), name
        for column in ("lr", "train_loss", "val_loss", "val_acc"):
            assert np.array(getattr(hist, column)).tobytes() == np.array(getattr(solo_hist, column)).tobytes(), column


def test_validation_of_one_half_everywhere_reads_log_2(monkeypatch):
    """p = 0.5 maps to label 1, so only the label-1 crops are right."""
    monkeypatch.setattr(
        evaluation, "predict_speaker_probs", lambda pool, net_cfg, features: np.full((len(pool), len(features)), 0.5)
    )
    val = _toy_features(2).take([0, 2, 3])  # one label-0 crop, two label-1 crops
    cfg = TrainConfig(epochs=2, batch_size=4, seed=1)
    _, histories = train(_toy_features(3), _toy_net(), cfg, init_seeds=[4, 5], val_features=val)
    for history in histories:
        assert history.val_loss == [pytest.approx(math.log(2.0))] * 2
        assert history.val_acc == [2 / 3] * 2


@pytest.mark.parametrize("seeds", [[21, 5, 13], [5]], ids=["lockstep", "single-seed"])
def test_validation_is_one_pool_prediction_per_epoch(monkeypatch, seeds):
    """Each machine's val_loss and val_acc are, bitwise, batch_loss and the accuracy of its row of the epoch's call."""
    features, val = _raw_features(14), _raw_features(6, seed=9)
    predict, calls = evaluation.predict_speaker_probs, []

    def spy(pool, net_cfg, features):
        probs = predict(pool, net_cfg, features)
        calls.append((len(pool), probs))
        return probs

    monkeypatch.setattr(evaluation, "predict_speaker_probs", spy)
    cfg = TrainConfig(epochs=3, batch_size=4, lr_start=1.0, lr_end=0.1, seed=7)
    params_list, histories = train(features, _toy_net(), cfg, init_seeds=seeds, val_features=val)
    assert [n for n, _ in calls] == [len(seeds)] * cfg.epochs
    ys = np.asarray(val.labels, dtype=np.float64)
    for epoch, (_, probs) in enumerate(calls):
        for m, history in enumerate(histories):
            want_loss = batch_loss(probs[m], ys)
            want_acc = np.count_nonzero((probs[m] >= 0.5) == (ys == 1.0)) / len(ys)
            assert np.float64(history.val_loss[epoch]).tobytes() == np.float64(want_loss).tobytes()
            assert np.float64(history.val_acc[epoch]).tobytes() == np.float64(want_acc).tobytes()
    assert len(set(calls[-1][1][:, 0].tolist())) == len(seeds)  # the machines really differ
    np.testing.assert_array_equal(calls[-1][1], predict(params_list, _toy_net(), val))  # the trained pool's rows


def test_train_plan_counts_each_concurrent_groups_step():
    """At the reference geometry a second group adds its gradient vector, batch operand, conv activation and pooled
    maxima with their gradient."""
    net = NetworkConfig(freq_bins=513, time_steps=125)
    one, two = (planned_bytes(net, 80, 372, 4, groups) for groups in (1, 2))
    activation, pooled = 8 * net.filters * 80 * net.time_steps, 2 * 8 * 80 * net.flat_size
    assert activation == 10_240_000
    assert two - one >= 8 * net.n_params + 8 * 513 * 80 * 125 + activation + pooled
    assert planned_bytes(net, 80, 5, 1, 1) < planned_bytes(net, 80, 80, 1, 1)  # a step holds at most the records


def test_history_csv(tmp_path):
    hist = TrainHistory(lr=[1.0, 0.5], train_loss=[0.7, 0.6], val_loss=[0.8, 0.7], val_acc=[0.5, 0.75])
    path = tmp_path / "h.csv"
    write_history_csv(path, hist)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_loss,val_acc"
    assert lines[1].split(",") == ["0", "1", "0.7", "0.8", "0.5"]
    assert len(lines) == 3
