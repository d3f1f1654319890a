"""The 1d-CNN: frequency-spanning convolution, temporal max-pooling, one
hidden dense layer and a sigmoid output, with hand-derived gradients.

Each convolution filter spans the whole frequency axis and a single time
slot, so the convolution output is one value per (filter, time step). Pooling
slides a kernel along time with right zero-padding, which is safe because the
pooled input is post-ReLU non-negative. All math is float64.

Model file layout (little-endian): magic ``SDM1``, version u16, seven u32
config fields (freq_bins, time_steps, filters, pool_kernel, pool_stride,
pool_pad, hidden), the parameter blocks w_conv, b_conv, w_hidden, b_hidden,
w_out, b_out as float64, and a trailing CRC32 of everything before it.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODEL_MAGIC = b"SDM1"
MODEL_VERSION = 1

PARAM_FIELDS = ("w_conv", "b_conv", "w_hidden", "b_hidden", "w_out", "b_out")


@dataclass
class NetworkConfig:
    freq_bins: int
    time_steps: int
    filters: int = 128
    pool_kernel: int = 5
    pool_stride: int = 4
    pool_pad: int | None = None  # recorded for provenance; padding is implied by ceil
    hidden: int = 128

    def __post_init__(self):
        if self.pool_pad is None:
            self.pool_pad = self.pool_stride
        if min(self.freq_bins, self.time_steps, self.filters, self.hidden) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.pool_kernel < 1 or self.pool_stride < 1:
            raise ValueError("pool kernel and stride must be >= 1")

    @property
    def pooled_steps(self) -> int:
        return -(-self.time_steps // self.pool_stride)  # ceil

    @property
    def flat_size(self) -> int:
        return self.pooled_steps * self.filters

    @property
    def n_params(self) -> int:
        return (
            self.filters * self.freq_bins
            + self.filters
            + self.hidden * self.flat_size
            + self.hidden
            + self.hidden
            + 1
        )


@dataclass
class NetworkParams:
    w_conv: np.ndarray  # (filters, freq_bins)
    b_conv: np.ndarray  # (filters,)
    w_hidden: np.ndarray  # (hidden, flat_size)
    b_hidden: np.ndarray  # (hidden,)
    w_out: np.ndarray  # (hidden,)
    b_out: float

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            self.w_conv.copy(),
            self.b_conv.copy(),
            self.w_hidden.copy(),
            self.b_hidden.copy(),
            self.w_out.copy(),
            float(self.b_out),
        )


@dataclass
class ForwardCache:
    conv_pre: np.ndarray  # (filters, time_steps)
    conv_act: np.ndarray
    pool_values: np.ndarray  # (filters, pooled_steps)
    pool_argmax: np.ndarray  # (filters, pooled_steps), -1 where a padded zero won
    hidden_pre: np.ndarray  # (hidden,)
    hidden_act: np.ndarray
    prob: float


def zeros_like_params(params: NetworkParams) -> NetworkParams:
    return NetworkParams(
        np.zeros_like(params.w_conv),
        np.zeros_like(params.b_conv),
        np.zeros_like(params.w_hidden),
        np.zeros_like(params.b_hidden),
        np.zeros_like(params.w_out),
        0.0,
    )


def init_params(cfg: NetworkConfig, seed: int = 0) -> NetworkParams:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    return NetworkParams(
        w_conv=glorot((cfg.filters, cfg.freq_bins), cfg.freq_bins, cfg.filters),
        b_conv=np.zeros(cfg.filters),
        w_hidden=glorot((cfg.hidden, cfg.flat_size), cfg.flat_size, cfg.hidden),
        b_hidden=np.zeros(cfg.hidden),
        w_out=glorot((cfg.hidden,), cfg.hidden, 1),
        b_out=0.0,
    )


def _sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def conv_freq(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """ReLU of the frequency-spanning convolution: (filters, time_steps)."""
    return np.maximum(_conv_pre(params, x), 0.0)


def _conv_pre(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != params.w_conv.shape[1]:
        raise ValueError(f"input shape {x.shape} incompatible with {params.w_conv.shape[1]} frequency rows")
    return params.w_conv @ x + params.b_conv[:, None]


def maxpool_time(act: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Max over windows [j*stride, j*stride + kernel) along time, right-padded with zeros.

    Returns (values, argmax) of shape (filters, ceil(T/stride)). Ties go to the
    smallest index; argmax is -1 when the padded zero beats every in-range
    value (cannot happen for post-ReLU input).
    """
    if kernel < 1 or stride < 1:
        raise ValueError("kernel and stride must be >= 1")
    act = np.asarray(act, dtype=np.float64)
    n, t = act.shape
    t_out = -(-t // stride)
    values = np.empty((n, t_out))
    argmax = np.empty((n, t_out), dtype=np.int64)
    for j in range(t_out):
        lo = j * stride
        window = act[:, lo : lo + kernel]
        vals = window.max(axis=1)
        idx = lo + window.argmax(axis=1)
        if lo + kernel > t:  # padded zeros participate in this window
            padded_wins = vals < 0.0
            vals = np.where(padded_wins, 0.0, vals)
            idx = np.where(padded_wins, -1, idx)
        values[:, j] = vals
        argmax[:, j] = idx
    return values, argmax


def forward(params: NetworkParams, x: np.ndarray, cfg: NetworkConfig) -> tuple[float, ForwardCache]:
    """Probability of class 1 for one input, plus everything backward needs."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cfg.freq_bins, cfg.time_steps):
        raise ValueError(f"expected input {(cfg.freq_bins, cfg.time_steps)}, got {x.shape}")
    conv_pre = _conv_pre(params, x)
    conv_act = np.maximum(conv_pre, 0.0)
    pool_values, pool_argmax = maxpool_time(conv_act, cfg.pool_kernel, cfg.pool_stride)
    flat = pool_values.reshape(-1)  # filter-major
    hidden_pre = params.w_hidden @ flat + params.b_hidden
    hidden_act = np.maximum(hidden_pre, 0.0)
    logit = float(params.w_out @ hidden_act + params.b_out)
    prob = float(_sigmoid(logit))
    return prob, ForwardCache(conv_pre, conv_act, pool_values, pool_argmax, hidden_pre, hidden_act, prob)


def loss_bce(p: float, y: int) -> float:
    """Binary cross-entropy with the probability clamped to [1e-12, 1-1e-12]."""
    p = min(max(float(p), 1e-12), 1.0 - 1e-12)
    return -(y * math.log(p) + (1 - y) * math.log(1.0 - p))


def backward(params: NetworkParams, cache: ForwardCache, x: np.ndarray, y: int) -> NetworkParams:
    """Exact gradients of loss_bce(forward(x), y) w.r.t. every parameter."""
    x = np.asarray(x, dtype=np.float64)
    n_filters, t_steps = cache.conv_pre.shape
    if x.shape != (params.w_conv.shape[1], t_steps):
        raise ValueError(f"input shape {x.shape} does not match cache")

    d_logit = cache.prob - y  # sigmoid + BCE
    g_w_out = d_logit * cache.hidden_act
    g_b_out = d_logit

    d_hidden = d_logit * params.w_out
    d_hidden_pre = d_hidden * (cache.hidden_pre > 0.0)
    flat = cache.pool_values.reshape(-1)
    g_w_hidden = np.outer(d_hidden_pre, flat)
    g_b_hidden = d_hidden_pre

    d_flat = params.w_hidden.T @ d_hidden_pre
    d_pool = d_flat.reshape(cache.pool_values.shape)
    d_act = np.zeros_like(cache.conv_act)
    rows, cols = np.nonzero(cache.pool_argmax >= 0)
    np.add.at(d_act, (rows, cache.pool_argmax[rows, cols]), d_pool[rows, cols])

    d_conv_pre = d_act * (cache.conv_pre > 0.0)
    g_w_conv = d_conv_pre @ x.T
    g_b_conv = d_conv_pre.sum(axis=1)

    return NetworkParams(g_w_conv, g_b_conv, g_w_hidden, g_b_hidden, g_w_out, float(g_b_out))


def numerical_gradient(
    params: NetworkParams, x: np.ndarray, y: int, cfg: NetworkConfig, h: float = 1e-5
) -> NetworkParams:
    """Central finite differences of the loss over every single parameter."""

    def loss_at(p: NetworkParams) -> float:
        prob, _ = forward(p, x, cfg)
        return loss_bce(prob, y)

    work = params.copy()
    grads = zeros_like_params(params)
    for name in PARAM_FIELDS:
        value = getattr(work, name)
        if name == "b_out":
            setattr(work, name, value + h)
            up = loss_at(work)
            setattr(work, name, value - h)
            down = loss_at(work)
            setattr(work, name, value)
            grads.b_out = (up - down) / (2.0 * h)
            continue
        grad = getattr(grads, name)
        flat = value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_at(work)
            flat[i] = orig - h
            down = loss_at(work)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
    return grads


# Batched variants used by the trainer: same math as forward/backward applied
# over a (batch, freq_bins, time_steps) stack with a fixed reduction order.
#
# Layout invariant: the conv GEMM yields (filters, batch*time_steps), so every
# per-time-step array (conv_pre, the pool scatter target, d_conv_pre) lives in
# (filters, batch, time) memory order and is exposed as a (batch, filters, time)
# view. The g_b_conv reduction sums in memory order, so a copy into C-contiguous
# (batch, filters, time) order would change b_conv in its last bits.

@dataclass
class BatchCache:
    operand: np.ndarray  # (freq_bins, batch*time_steps): the conv GEMM input, reused by backward
    conv_pre: np.ndarray  # (batch, filters, time_steps), (filters, batch, time) in memory
    pool_values: np.ndarray  # (batch, filters, pooled_steps)
    pool_argmax: np.ndarray
    flat: np.ndarray  # (batch, flat_size)
    hidden_pre: np.ndarray  # (batch, hidden)
    hidden_act: np.ndarray
    probs: np.ndarray  # (batch,)


def _pool_batch(act: np.ndarray, cfg: NetworkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Max and first argmax of every pooling window of a (..., time_steps) stack.

    One strided view per window offset; offset o holds the o-th element of
    every window that reaches that far. Windows that run past the end simply
    lack their last offsets, which for post-ReLU input equals zero padding.
    """
    t_out, stride = cfg.pooled_steps, cfg.pool_stride
    offsets = [act[..., o::stride] for o in range(min(cfg.pool_kernel, cfg.time_steps))]
    values = offsets[0].copy()
    for view in offsets[1:]:
        head = values[..., : view.shape[-1]]
        np.maximum(head, view, out=head)
    # argmax = how many leading offsets fall short of the max (ties: first wins)
    argmax = np.zeros(values.shape, dtype=np.int64)
    searching = np.ones(values.shape, dtype=bool)
    for view in offsets:
        head = searching[..., : view.shape[-1]]
        head &= view < values[..., : view.shape[-1]]
        argmax += searching
    argmax += np.arange(0, t_out * stride, stride)
    return values, argmax


def forward_batch(params: NetworkParams, xs: np.ndarray, cfg: NetworkConfig) -> BatchCache:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[1:] != (cfg.freq_bins, cfg.time_steps):
        raise ValueError(f"expected batch of {(cfg.freq_bins, cfg.time_steps)}, got {xs.shape}")
    batch = xs.shape[0]
    operand = xs.transpose(1, 0, 2).reshape(cfg.freq_bins, batch * cfg.time_steps)
    conv_pre = (params.w_conv @ operand).reshape(cfg.filters, batch, cfg.time_steps)
    conv_pre += params.b_conv[:, None, None]
    values, argmax = _pool_batch(np.maximum(conv_pre, 0.0), cfg)

    flat = values.transpose(1, 0, 2).reshape(batch, cfg.flat_size)
    hidden_pre = flat @ params.w_hidden.T + params.b_hidden
    hidden_act = np.maximum(hidden_pre, 0.0)
    logits = hidden_act @ params.w_out + params.b_out
    return BatchCache(
        operand,
        conv_pre.transpose(1, 0, 2),
        flat.reshape(batch, cfg.filters, cfg.pooled_steps),
        argmax.transpose(1, 0, 2),
        flat,
        hidden_pre,
        hidden_act,
        _sigmoid(logits),
    )


def backward_batch(
    params: NetworkParams, cache: BatchCache, xs: np.ndarray, ys: np.ndarray, cfg: NetworkConfig
) -> NetworkParams:
    """Gradients of the mean per-sample loss over the batch.

    xs must be the batch that built cache; its conv operand comes from the cache.
    """
    ys = np.asarray(ys, dtype=np.float64)
    batch = len(xs)

    d_logits = (cache.probs - ys) / batch
    g_w_out = cache.hidden_act.T @ d_logits
    g_b_out = float(d_logits.sum())

    d_hidden_pre = np.outer(d_logits, params.w_out) * (cache.hidden_pre > 0.0)
    g_w_hidden = d_hidden_pre.T @ cache.flat
    g_b_hidden = d_hidden_pre.sum(axis=0)

    # Pool scatter as one bincount over (filters, batch, time) flat indices,
    # pooled step outermost: a time step in several windows sums in window order.
    d_pool = (d_hidden_pre @ params.w_hidden).reshape(cache.pool_values.shape)
    rows = np.arange(cfg.filters * batch).reshape(cfg.filters, batch) * cfg.time_steps
    index = cache.pool_argmax.transpose(2, 1, 0) + rows
    d_conv_pre = np.bincount(
        index.ravel(), weights=d_pool.transpose(2, 1, 0).ravel(), minlength=rows.size * cfg.time_steps
    ).reshape(cfg.filters, batch, cfg.time_steps)
    d_conv_pre *= cache.conv_pre.transpose(1, 0, 2) > 0.0

    g_w_conv = d_conv_pre.reshape(cfg.filters, batch * cfg.time_steps) @ cache.operand.T
    g_b_conv = d_conv_pre.sum(axis=(1, 2))

    return NetworkParams(g_w_conv, g_b_conv, g_w_hidden, g_b_hidden, g_w_out, g_b_out)


def batch_loss(probs: np.ndarray, ys: np.ndarray) -> float:
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    ys = np.asarray(ys, dtype=np.float64)
    return float(np.mean(-(ys * np.log(p) + (1.0 - ys) * np.log(1.0 - p))))


def save_model(path, cfg: NetworkConfig, params: NetworkParams) -> None:
    blob = bytearray()
    blob += MODEL_MAGIC
    blob += struct.pack(
        "<HIIIIIII",
        MODEL_VERSION,
        cfg.freq_bins,
        cfg.time_steps,
        cfg.filters,
        cfg.pool_kernel,
        cfg.pool_stride,
        cfg.pool_pad,
        cfg.hidden,
    )
    for name in PARAM_FIELDS:
        value = getattr(params, name)
        arr = np.atleast_1d(np.asarray(value, dtype="<f8"))
        blob += arr.tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


def load_model(path) -> tuple[NetworkConfig, NetworkParams]:
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise ValueError(f"{path}: CRC mismatch, file corrupt")
    version, fb, ts, nf, pk, ps, pp, nh = struct.unpack_from("<HIIIIIII", raw, 4)
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    cfg = NetworkConfig(fb, ts, nf, pk, ps, pp, nh)
    pos = 4 + struct.calcsize("<HIIIIIII")
    shapes = {
        "w_conv": (nf, fb),
        "b_conv": (nf,),
        "w_hidden": (nh, cfg.flat_size),
        "b_hidden": (nh,),
        "w_out": (nh,),
        "b_out": (1,),
    }
    values = {}
    for name in PARAM_FIELDS:
        shape = shapes[name]
        count = int(np.prod(shape))
        values[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(shape).copy()
        pos += 8 * count
    if pos != len(raw) - 4:
        raise ValueError(f"{path}: unexpected payload size")
    params = NetworkParams(
        values["w_conv"],
        values["b_conv"],
        values["w_hidden"],
        values["b_hidden"],
        values["w_out"],
        float(values["b_out"][0]),
    )
    return cfg, params


def map_params(fn, *param_sets: NetworkParams) -> NetworkParams:
    """Apply fn elementwise across parallel parameter containers."""
    out = {}
    for name in PARAM_FIELDS:
        out[name] = fn(*(getattr(p, name) for p in param_sets))
    out["b_out"] = float(out["b_out"])
    return NetworkParams(**out)
