import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from speechdep.network import (
    NetworkConfig,
    NetworkParams,
    backward_batch,
    batch_loss,
    forward_batch,
    init_params,
    load_model,
    save_model,
)
from speechdep import network
from speechdep.network import _pool_argmax, _pool_max, _sigmoid  # the oracle scores logits with the network's own sigmoid

from gradient_check import numerical_gradient

PARAM_FIELDS = ("w_conv", "b_conv", "w_hidden", "b_hidden", "w_out", "b_out")


def _random_instance(seed):
    """Small random net + input; biases jittered so pre-activations avoid 0."""
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(
        freq_bins=int(rng.integers(2, 9)),
        time_steps=int(rng.integers(2, 11)),
        filters=int(rng.integers(1, 5)),
        pool_kernel=int(rng.integers(1, 5)),
        pool_stride=int(rng.integers(1, 5)),
        hidden=int(rng.integers(1, 6)),
    )
    params = init_params(cfg, seed=seed)
    params.b_conv += rng.normal(scale=0.2, size=params.b_conv.shape)
    params.b_hidden += rng.normal(scale=0.2, size=params.b_hidden.shape)
    params.b_out = float(rng.normal(scale=0.2))
    x = rng.uniform(0.0, 1.0, size=(cfg.freq_bins, cfg.time_steps))
    y = int(rng.integers(0, 2))
    return cfg, params, x, y


def _kink_margin(params, x, cfg):
    """Distance of the forward pass from any ReLU kink or pooling argmax flip."""
    conv_pre = params.w_conv @ x + params.b_conv[:, None]
    hidden_pre = forward_batch(params, x[None], cfg).hidden_pre[0]
    margins = [np.min(np.abs(conv_pre)), np.min(np.abs(hidden_pre))]
    act = np.maximum(conv_pre, 0.0)
    for j in range(cfg.pooled_steps):
        lo = j * cfg.pool_stride
        window = list(act[:, lo : lo + cfg.pool_kernel].T)
        window = np.asarray(window)
        if lo + cfg.pool_kernel > cfg.time_steps:  # implicit zero pad competes
            window = np.vstack([window, np.zeros((1, window.shape[1]))])
        if window.shape[0] > 1:
            top2 = np.sort(window, axis=0)[-2:, :]
            margins.append(np.min(top2[1] - top2[0]))
    return min(margins)


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for name in PARAM_FIELDS:
        a = np.atleast_1d(np.asarray(getattr(analytic, name), dtype=float))
        n = np.atleast_1d(np.asarray(getattr(numeric, name), dtype=float))
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def collect_gradient_instances(n_instances=20, h=1e-5):
    """Seeded instances whose loss is smooth within +-h of every parameter."""
    picked = []
    seed = 0
    while len(picked) < n_instances:
        assert seed < 400, "could not find enough kink-free instances"
        cfg, params, x, y = _random_instance(seed)
        seed += 1
        if _kink_margin(params, x, cfg) > 100 * h:
            picked.append((cfg, params, x, y))
    return picked


def test_gradients_match_finite_differences():
    worst = 0.0
    for cfg, params, x, y in collect_gradient_instances(20):
        analytic = backward_batch(params, forward_batch(params, x[None], cfg), x[None], [y], cfg)
        numeric = numerical_gradient(params, x, y, cfg, h=1e-5)
        worst = max(worst, _max_rel_err(analytic, numeric))
    assert worst < 1e-4, worst


def test_parameter_count_for_reference_architecture():
    cfg = NetworkConfig(freq_bins=513, time_steps=125)
    assert cfg.pooled_steps == 32
    assert cfg.flat_size == 4096
    manual = 128 * 513 + 128 + 128 * 4096 + 128 + 128 + 1
    assert cfg.n_params == manual == 590337


def _pool_cfg(act, kernel, stride):
    return NetworkConfig(
        freq_bins=1, time_steps=act.shape[-1], filters=act.shape[0], pool_kernel=kernel, pool_stride=stride
    )


def _pooled(act, cfg):
    return _pool_max(act, cfg, np.empty(act.shape[:-1] + (cfg.pooled_steps,)))


def test_maxpool_hand_case():
    row = np.array([[1.0, 3.0, 2.0, 0.0, 5.0, 4.0]])
    cfg = _pool_cfg(row, kernel=3, stride=2)
    values = _pooled(row, cfg)
    argmax = _pool_argmax(row, values, cfg)
    np.testing.assert_array_equal(values, [[3.0, 5.0, 5.0]])
    np.testing.assert_array_equal(argmax, [[1, 4, 4]])


def test_maxpool_tie_takes_smallest_index():
    row = np.array([[5.0, 5.0, 1.0]])
    cfg = _pool_cfg(row, kernel=3, stride=3)
    argmax = _pool_argmax(row, _pooled(row, cfg), cfg)
    assert argmax[0, 0] == 0


def test_maxpool_kernel_one_is_strided_copy():
    rng = np.random.default_rng(7)
    act = rng.uniform(size=(3, 9))
    cfg = _pool_cfg(act, kernel=1, stride=2)
    values = _pooled(act, cfg)
    argmax = _pool_argmax(act, values, cfg)
    np.testing.assert_array_equal(values, act[:, ::2])
    np.testing.assert_array_equal(argmax, np.tile(np.arange(0, 9, 2), (3, 1)))


def test_forward_validates_shape():
    cfg = NetworkConfig(freq_bins=4, time_steps=6, filters=2, hidden=3)
    params = init_params(cfg, 0)
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((1, 4, 7)), cfg)
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((1, 5, 6)), cfg)


def test_forward_extreme_logits_stay_finite():
    cfg = NetworkConfig(freq_bins=2, time_steps=2, filters=1, pool_kernel=1, pool_stride=1, hidden=1)
    params = init_params(cfg, 0)
    params.w_conv[:] = 100.0
    params.w_hidden[:] = 100.0
    params.w_out[:] = 100.0
    with np.errstate(over="raise", invalid="raise"):  # harmless underflow-to-zero allowed
        [p_hi] = forward_batch(params, np.ones((1, 2, 2)), cfg).probs
        params.w_out[:] = -100.0
        [p_lo] = forward_batch(params, np.ones((1, 2, 2)), cfg).probs
    assert 0.0 <= p_lo < 1e-12 and 1.0 - 1e-12 < p_hi <= 1.0
    assert np.isfinite(batch_loss([p_hi], [0])) and np.isfinite(batch_loss([p_lo], [1]))


def test_batch_loss_hand_values():
    assert batch_loss([0.5], [1]) == pytest.approx(np.log(2.0))
    assert batch_loss([0.9], [1]) == pytest.approx(-np.log(0.9))
    assert batch_loss([0.9], [0]) == pytest.approx(-np.log(0.1))
    assert batch_loss([0.9, 0.9], [1, 0]) == pytest.approx(-(np.log(0.9) + np.log(0.1)) / 2)


def test_init_params_is_seeded_and_bounded():
    cfg = NetworkConfig(freq_bins=10, time_steps=8, filters=3, hidden=4)
    a = init_params(cfg, seed=5)
    b = init_params(cfg, seed=5)
    c = init_params(cfg, seed=6)
    for name in ("w_conv", "w_hidden", "w_out"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(getattr(a, name), getattr(c, name))
    assert np.abs(a.w_conv).max() <= np.sqrt(6.0 / (cfg.freq_bins + cfg.filters))
    assert np.abs(a.w_hidden).max() <= np.sqrt(6.0 / (cfg.flat_size + cfg.hidden))
    assert not a.b_conv.any() and not a.b_hidden.any() and a.b_out == 0.0


def test_batched_forward_matches_per_sample():
    rng = np.random.default_rng(11)
    cfg = NetworkConfig(freq_bins=6, time_steps=9, filters=3, pool_kernel=4, pool_stride=3, hidden=4)
    params = init_params(cfg, 1)
    params.b_conv += rng.normal(scale=0.1, size=params.b_conv.shape)
    xs = rng.uniform(size=(5, 6, 9))
    batch = forward_batch(params, xs, cfg)
    singles = [forward_batch(params, x[None], cfg).probs[0] for x in xs]
    np.testing.assert_allclose(batch.probs, singles, rtol=1e-10, atol=1e-12)


def test_batched_backward_matches_mean_of_per_sample():
    rng = np.random.default_rng(12)
    cfg = NetworkConfig(freq_bins=5, time_steps=7, filters=2, pool_kernel=3, pool_stride=2, hidden=3)
    params = init_params(cfg, 2)
    params.b_hidden += rng.normal(scale=0.1, size=params.b_hidden.shape)
    xs = rng.uniform(size=(4, 5, 7))
    ys = np.array([0, 1, 1, 0])
    cache = forward_batch(params, xs, cfg)
    batched = backward_batch(params, cache, xs, ys, cfg)

    acc = NetworkParams(cfg)
    for x, y in zip(xs, ys):
        g = backward_batch(params, forward_batch(params, x[None], cfg), x[None], [y], cfg)
        for name in PARAM_FIELDS[:-1]:
            getattr(acc, name)[:] += getattr(g, name) / len(xs)
        acc.b_out += g.b_out / len(xs)
    for name in PARAM_FIELDS:
        np.testing.assert_allclose(
            np.asarray(getattr(batched, name)), np.asarray(getattr(acc, name)), rtol=1e-9, atol=1e-12
        )


def test_model_file_round_trip(tmp_path):
    cfg = NetworkConfig(freq_bins=12, time_steps=10, filters=3, hidden=4)
    params = init_params(cfg, 9)
    path = tmp_path / "m.sdm"
    save_model(path, cfg, params)
    cfg2, params2 = load_model(path)
    assert cfg2 == cfg
    for name in PARAM_FIELDS[:-1]:
        np.testing.assert_array_equal(getattr(params, name), getattr(params2, name))
    assert params2.b_out == params.b_out


def test_model_file_detects_corruption(tmp_path):
    cfg = NetworkConfig(freq_bins=4, time_steps=4, filters=2, hidden=2)
    path = tmp_path / "m.sdm"
    save_model(path, cfg, init_params(cfg, 0))
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    (tmp_path / "flip.sdm").write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="CRC"):
        load_model(tmp_path / "flip.sdm")
    (tmp_path / "magic.sdm").write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="not a model"):
        load_model(tmp_path / "magic.sdm")


def _load_peak(path):
    """tracemalloc peak of one load_model call, and its result or the ValueError it raised."""
    tracemalloc.start()
    try:
        try:
            loaded = load_model(path)
        except ValueError as exc:
            loaded = exc
        return tracemalloc.get_traced_memory()[1], loaded
    finally:
        tracemalloc.stop()


def test_model_load_holds_one_copy_of_the_vector(tmp_path):
    """The file is read straight into the buffer the vector views: no second copy of the parameters."""
    cfg = NetworkConfig(freq_bins=8, time_steps=8, filters=64, pool_kernel=1, pool_stride=1, hidden=256)
    path = tmp_path / "m.sdm"
    save_model(path, cfg, init_params(cfg, 4))
    load_model(path)  # first-call allocations are not the load's
    peak, (_, params) = _load_peak(path)
    assert peak < 1.2 * params.vector.nbytes, peak / params.vector.nbytes
    assert params.vector.flags.aligned and params.vector.flags.writeable
    np.testing.assert_array_equal(params.vector, init_params(cfg, 4).vector)
    # a header whose hidden size no longer fits the file, under a valid CRC: sized by the file, not the header
    body = bytearray(path.read_bytes()[:-4])
    body[4 + 2 + 6 * 4 + 3] = 0x7F  # the top byte of the u32 hidden field
    crafted = tmp_path / "crafted.sdm"
    crafted.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    peak, error = _load_peak(crafted)
    assert isinstance(error, ValueError) and "describes a" in str(error), error
    assert peak < 1.2 * crafted.stat().st_size, peak


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(freq_bins=0, time_steps=5)
    with pytest.raises(ValueError):
        NetworkConfig(freq_bins=5, time_steps=5, pool_stride=0)
    with pytest.raises(ValueError, match="pool_pad"):
        NetworkConfig(freq_bins=5, time_steps=5, pool_pad=-1)
    fields = ("freq_bins", "time_steps", "filters", "pool_kernel", "pool_stride", "pool_pad", "hidden")
    for name in fields:  # each field is a u32 of the model file header
        with pytest.raises(ValueError, match=f"{name} must be <= 4294967295"):
            NetworkConfig(**{"freq_bins": 5, "time_steps": 5, name: 2**32})
    NetworkConfig(freq_bins=5, time_steps=5, pool_pad=2**32 - 1)  # the largest u32 fits
    assert NetworkConfig(freq_bins=5, time_steps=5, pool_stride=2).pool_pad == 4  # defaulted, whatever the stride


# ---------------------------------------------------------------- batched path vs loop oracle
#
# The oracle is the batched forward/backward as first written: a Python loop
# over pooled steps for the pool forward and one np.add.at per pooled step for
# the pool scatter. The vectorised code must match it bit for bit.


def _oracle_forward_batch(params, xs, cfg):
    batch = xs.shape[0]
    x2 = xs.transpose(1, 0, 2).reshape(cfg.freq_bins, batch * cfg.time_steps)
    conv_pre = (params.w_conv @ x2).reshape(cfg.filters, batch, cfg.time_steps)
    conv_pre = conv_pre.transpose(1, 0, 2) + params.b_conv[None, :, None]
    conv_act = np.maximum(conv_pre, 0.0)
    t_out = cfg.pooled_steps
    pool_values = np.empty((batch, cfg.filters, t_out))
    pool_argmax = np.empty((batch, cfg.filters, t_out), dtype=np.int64)
    for j in range(t_out):
        lo = j * cfg.pool_stride
        window = conv_act[:, :, lo : lo + cfg.pool_kernel]
        pool_values[:, :, j] = window.max(axis=2)
        pool_argmax[:, :, j] = lo + window.argmax(axis=2)
    flat = pool_values.reshape(batch, cfg.flat_size)
    hidden_pre = flat @ params.w_hidden.T + params.b_hidden
    hidden_act = np.maximum(hidden_pre, 0.0)
    logits = hidden_act @ params.w_out + params.b_out
    return dict(
        operand=x2, conv_pre=conv_pre, conv_act=conv_act, pool_values=pool_values, pool_argmax=pool_argmax,
        flat=flat, hidden_pre=hidden_pre, hidden_act=hidden_act, probs=_sigmoid(logits),
    )


def _oracle_backward_batch(params, cache, xs, ys, cfg):
    batch = xs.shape[0]
    d_logits = (cache["probs"] - ys) / batch
    g_w_out = cache["hidden_act"].T @ d_logits
    g_b_out = float(d_logits.sum())
    d_hidden_pre = np.outer(d_logits, params.w_out) * (cache["hidden_pre"] > 0.0)
    g_w_hidden = d_hidden_pre.T @ cache["flat"]
    g_b_hidden = d_hidden_pre.sum(axis=0)
    d_pool = (d_hidden_pre @ params.w_hidden).reshape(cache["pool_values"].shape)
    d_act = np.zeros_like(cache["conv_pre"])
    b_idx, f_idx = np.indices((batch, cfg.filters))
    for j in range(cfg.pooled_steps):
        np.add.at(d_act, (b_idx, f_idx, cache["pool_argmax"][:, :, j]), d_pool[:, :, j])
    d_conv_pre = d_act * (cache["conv_pre"] > 0.0)
    dz2 = d_conv_pre.transpose(1, 0, 2).reshape(cfg.filters, batch * cfg.time_steps)
    g_w_conv = dz2 @ cache["operand"].T
    g_b_conv = d_conv_pre.sum(axis=(0, 2))
    return dict(zip(PARAM_FIELDS, (g_w_conv, g_b_conv, g_w_hidden, g_b_hidden, g_w_out, g_b_out)))


BATCH_CACHE_FIELDS = ("operand", "conv_act", "pool_values", "flat", "hidden_pre", "hidden_act", "probs")

POOL_GEOMETRIES = {
    "reference 5/4": dict(time_steps=33, pool_kernel=5, pool_stride=4),
    "4/3": dict(time_steps=31, pool_kernel=4, pool_stride=3),
    "kernel = stride": dict(time_steps=30, pool_kernel=3, pool_stride=3),
    "kernel < stride": dict(time_steps=29, pool_kernel=2, pool_stride=5),
    "kernel >= 2 stride": dict(time_steps=34, pool_kernel=9, pool_stride=4),
    "kernel past the end": dict(time_steps=6, pool_kernel=8, pool_stride=4),
    "kernel 1 stride 1": dict(time_steps=17, pool_kernel=1, pool_stride=1),
}


def _argmax_spy(monkeypatch):
    """Route network._pool_argmax through a wrapper that keeps every result it returns."""
    results = []

    def spy(act, values, cfg):
        results.append(_pool_argmax(act, values, cfg))
        return results[-1]

    monkeypatch.setattr(network, "_pool_argmax", spy)
    return results


def _assert_batch_matches_oracle(params, xs, ys, cfg, monkeypatch):
    cache = forward_batch(params, xs, cfg)
    oracle = _oracle_forward_batch(params, xs, cfg)
    for name in BATCH_CACHE_FIELDS:
        got, want = getattr(cache, name), oracle[name]
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    argmaxes = _argmax_spy(monkeypatch)
    grads = backward_batch(params, cache, xs, ys, cfg)
    monkeypatch.undo()
    assert len(argmaxes) == -(-cfg.filters // network._SLAB)  # one per slab
    argmax = np.concatenate(argmaxes)  # backward's slabs in filter order: (filters, batch, pooled)
    assert np.array_equal(argmax.transpose(1, 0, 2), oracle["pool_argmax"])
    want = _oracle_backward_batch(params, oracle, xs, ys, cfg)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(grads, name), want[name]), name
    return grads


def _tie_heavy_instance(cfg, batch, seed):
    """Inputs with repeated time columns and filters biased dead, so windows tie and go all-zero."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    params.b_conv += rng.normal(scale=0.3, size=cfg.filters)
    params.b_conv[: cfg.filters // 3] = -50.0  # these filters are zero after ReLU everywhere
    params.b_hidden += rng.normal(scale=0.1, size=cfg.hidden)
    xs = rng.uniform(size=(batch, cfg.freq_bins, cfg.time_steps))
    xs[:, :, 1::2] = xs[:, :, : cfg.time_steps // 2 * 2 : 2]  # pairs of equal columns
    ys = rng.integers(0, 2, size=batch).astype(np.float64)
    return params, xs, ys


@pytest.mark.parametrize("filters", [7, 13])  # one partial slab; a full slab and a partial one
@pytest.mark.parametrize("geometry", sorted(POOL_GEOMETRIES))
def test_batched_path_is_bitwise_equal_to_loop_oracle(geometry, filters, monkeypatch):
    cfg = NetworkConfig(freq_bins=19, filters=filters, hidden=6, **POOL_GEOMETRIES[geometry])
    params, xs, ys = _tie_heavy_instance(cfg, batch=11, seed=len(geometry))
    cache = forward_batch(params, xs, cfg)
    assert (cache.pool_values == 0.0).any()  # all-zero windows are exercised
    for _ in range(3):  # a few Adadelta steps, re-checked from each new point
        grads = _assert_batch_matches_oracle(params, xs, ys, cfg, monkeypatch)
        params = NetworkParams(cfg, params.vector - 0.5 * grads.vector)


def test_batched_path_is_bitwise_equal_to_loop_oracle_at_reference_geometry(monkeypatch):
    cfg = NetworkConfig(freq_bins=513, time_steps=125)
    params, xs, ys = _tie_heavy_instance(cfg, batch=6, seed=3)
    _assert_batch_matches_oracle(params, xs, ys, cfg, monkeypatch)


def test_backward_holds_the_gradient_vector_and_less_than_one_activation():
    """The scatter and its mask are slab-sized, and the conv gradient goes over the spent activations."""
    cfg = NetworkConfig(freq_bins=513, time_steps=125)
    batch = 80
    params, xs, ys = _tie_heavy_instance(cfg, batch=batch, seed=5)
    backward_batch(params, forward_batch(params, xs, cfg), xs, ys, cfg)  # first-call allocations are not the pass's
    cache = forward_batch(params, xs, cfg)
    tracemalloc.start()
    try:
        grads = backward_batch(params, cache, xs, ys, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    activation = 8 * cfg.filters * batch * cfg.time_steps
    assert peak < grads.vector.nbytes + activation, (peak, grads.vector.nbytes, activation)
