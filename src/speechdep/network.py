"""The 1d-CNN: frequency-spanning convolution, temporal max-pooling, one
hidden dense layer and a sigmoid output, with hand-derived gradients.

Each convolution filter spans the whole frequency axis and a single time
slot, so the convolution output is one value per (filter, time step). Pooling
takes the max over the windows [j*stride, j*stride + kernel) along time, one
per j < ceil(time_steps / stride); a window that runs past the end covers only
the steps that exist, which equals zero padding because the pooled input is
post-ReLU non-negative. There is one pass: forward_batch and backward_batch
over a (batch, freq_bins, time_steps) stack, scored by batch_loss, serve
training, prediction and the tests' finite-difference check alike. All math is float64.
forward_batch computes only what prediction needs: the ReLU runs in place in
the conv GEMM's buffer and pooling keeps the window maxima but not their
argmax, which backward_batch derives from the cached activation and maxima.
Both passes walk the filters in slabs of _SLAB rows, so every temporary is
slab-sized. backward_batch spends the cache's conv_act: slab by slab, it
writes the conv gradient over the activations it has just read, so a cache
serves exactly one backward pass.

A model's parameters are one float64 vector of n_params values; NetworkParams
names six views into it, the blocks w_conv, b_conv, w_hidden, b_hidden, w_out
and b_out in that order. Model file layout (little-endian): magic ``SDM1``,
version u16, seven u32 config fields (freq_bins, time_steps, filters,
pool_kernel, pool_stride, pool_pad, hidden), the parameter vector as float64,
and a trailing CRC32 of everything before it.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODEL_MAGIC = b"SDM1"
MODEL_VERSION = 1

PARAM_FIELDS = ("w_conv", "b_conv", "w_hidden", "b_hidden", "w_out", "b_out")

_HEADER = struct.Struct("<HIIIIIII")  # version, then the seven config fields
_HEADER_FIELDS = ("freq_bins", "time_steps", "filters", "pool_kernel", "pool_stride", "pool_pad", "hidden")
_U32_MAX = 2**32 - 1
_SLAB = 8  # filters per slab of the pool and scatter loops: their temporaries stay slab-sized


@dataclass
class NetworkConfig:
    freq_bins: int
    time_steps: int
    filters: int = 128
    pool_kernel: int = 5
    pool_stride: int = 4
    pool_pad: int = 4  # recorded for provenance; padding is implied by ceil
    hidden: int = 128

    def __post_init__(self):
        if min(self.freq_bins, self.time_steps, self.filters, self.hidden) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.pool_kernel < 1 or self.pool_stride < 1:
            raise ValueError("pool kernel and stride must be >= 1")
        if self.pool_pad < 0:
            raise ValueError(f"pool_pad must be >= 0, got {self.pool_pad}")
        for name in _HEADER_FIELDS:  # each is a u32 of the model file header
            if getattr(self, name) > _U32_MAX:
                raise ValueError(f"{name} must be <= {_U32_MAX}, got {getattr(self, name)}")

    @property
    def pooled_steps(self) -> int:
        return -(-self.time_steps // self.pool_stride)  # ceil

    @property
    def flat_size(self) -> int:
        return self.pooled_steps * self.filters

    @property
    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shapes of the parameter blocks, in PARAM_FIELDS order."""
        f, h = self.filters, self.hidden
        return ((f, self.freq_bins), (f,), (h, self.flat_size), (h,), (h,), ())

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes)


class NetworkParams:
    """The parameter blocks as named views, in PARAM_FIELDS order, into one float64 vector.

    vector defaults to zeros; b_out is a 0-d view. Assigning to a block or to
    vector writes into the vector, so no block can come unbound from it.
    """

    w_conv: np.ndarray  # (filters, freq_bins)
    b_conv: np.ndarray  # (filters,)
    w_hidden: np.ndarray  # (hidden, flat_size)
    b_hidden: np.ndarray  # (hidden,)
    w_out: np.ndarray  # (hidden,)
    b_out: np.ndarray  # ()

    def __init__(self, cfg: NetworkConfig, vector: np.ndarray | None = None):
        shapes = cfg.param_shapes
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        vector = np.zeros(cfg.n_params) if vector is None else vector
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "vector", vector)
        for name, shape, block in zip(PARAM_FIELDS, shapes, np.split(vector, ends[:-1])):
            object.__setattr__(self, name, block.reshape(shape))

    def __setattr__(self, name, value):
        getattr(self, name)[...] = value


def init_params(cfg: NetworkConfig, seed: int = 0) -> NetworkParams:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    params = NetworkParams(cfg)
    params.w_conv = glorot((cfg.filters, cfg.freq_bins), cfg.freq_bins, cfg.filters)
    params.w_hidden = glorot((cfg.hidden, cfg.flat_size), cfg.flat_size, cfg.hidden)
    params.w_out = glorot((cfg.hidden,), cfg.hidden, 1)
    return params


def _sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# Layout invariant: the conv GEMM yields (filters, batch*time_steps), so every
# per-time-step array (conv_act, and the conv gradient written over it) lives
# in (filters, batch, time) memory order and is exposed as a (batch, filters,
# time) view. The b_conv gradient sums in memory order, so a copy into
# C-contiguous (batch, filters, time) order would change b_conv in its last
# bits. A slab is _SLAB consecutive filter rows of that order. The pooled
# maxima are written in (batch, filters, pooled) order, so flat is a view of them.

@dataclass
class BatchCache:
    operand: np.ndarray  # (freq_bins, batch*time_steps): the conv GEMM input, reused by backward
    conv_act: np.ndarray  # (batch, filters, time_steps) post-ReLU, (filters, batch, time) in memory; backward spends it
    pool_values: np.ndarray  # (batch, filters, pooled_steps)
    flat: np.ndarray  # (batch, flat_size), a view of pool_values
    hidden_pre: np.ndarray  # (batch, hidden)
    hidden_act: np.ndarray
    probs: np.ndarray  # (batch,)


def _pool_offsets(act: np.ndarray, cfg: NetworkConfig) -> list[np.ndarray]:
    """One strided view per window offset; offset o holds the o-th element of
    every window that reaches that far. Windows that run past the end simply
    lack their last offsets, which for post-ReLU input equals zero padding.
    """
    return [act[..., o :: cfg.pool_stride] for o in range(min(cfg.pool_kernel, cfg.time_steps))]


def _pool_max(act: np.ndarray, cfg: NetworkConfig, out: np.ndarray) -> np.ndarray:
    """Max of every pooling window of a (..., time_steps) stack, written into out (..., pooled_steps)."""
    first, *rest = _pool_offsets(act, cfg)
    out[...] = first
    for view in rest:
        head = out[..., : view.shape[-1]]
        np.maximum(head, view, out=head)
    return out


def _pool_argmax(act: np.ndarray, values: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """Time index of every window's max in act, given the maxima; ties: first wins.

    A max's offset in its window is how many leading offsets fall short of
    it. No window gets past its last offset without meeting its max, so that
    offset is never compared, and the count fits the smallest unsigned type.
    """
    count = np.zeros(values.shape, dtype=np.min_scalar_type(cfg.pool_kernel))
    searching = np.ones(values.shape, dtype=bool)
    for view in _pool_offsets(act, cfg)[:-1]:
        head = searching[..., : view.shape[-1]]
        head &= view < values[..., : view.shape[-1]]
        count += searching
    return count + np.arange(0, cfg.pooled_steps * cfg.pool_stride, cfg.pool_stride)


def forward_batch(params: NetworkParams, xs: np.ndarray, cfg: NetworkConfig) -> BatchCache:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[1:] != (cfg.freq_bins, cfg.time_steps):
        raise ValueError(f"expected batch of {(cfg.freq_bins, cfg.time_steps)}, got {xs.shape}")
    batch = xs.shape[0]
    operand = xs.transpose(1, 0, 2).reshape(cfg.freq_bins, batch * cfg.time_steps)
    conv_act = (params.w_conv @ operand).reshape(cfg.filters, batch, cfg.time_steps)
    values = np.empty((batch, cfg.filters, cfg.pooled_steps))  # flat's order, so flat is a view
    for lo in range(0, cfg.filters, _SLAB):
        act = conv_act[lo : lo + _SLAB]
        act += params.b_conv[lo : lo + _SLAB, None, None]
        np.maximum(act, 0.0, out=act)
        _pool_max(act, cfg, out=values[:, lo : lo + _SLAB].transpose(1, 0, 2))

    flat = values.reshape(batch, cfg.flat_size)
    hidden_pre = flat @ params.w_hidden.T + params.b_hidden
    hidden_act = np.maximum(hidden_pre, 0.0)
    logits = hidden_act @ params.w_out + params.b_out
    return BatchCache(
        operand,
        conv_act.transpose(1, 0, 2),
        values,
        flat,
        hidden_pre,
        hidden_act,
        _sigmoid(logits),
    )


def backward_batch(
    params: NetworkParams, cache: BatchCache, xs: np.ndarray, ys: np.ndarray, cfg: NetworkConfig
) -> NetworkParams:
    """Gradients of the mean per-sample loss over the batch, in a new parameter vector.

    xs must be the batch that built cache; its conv operand comes from the
    cache. The conv gradient is written over cache.conv_act, so the cache
    serves this one pass.
    """
    ys = np.asarray(ys, dtype=np.float64)
    batch = len(xs)
    grads = NetworkParams(cfg, np.empty(cfg.n_params))  # every block is written below

    d_logits = (cache.probs - ys) / batch
    np.matmul(cache.hidden_act.T, d_logits, out=grads.w_out)
    d_logits.sum(out=grads.b_out)

    d_hidden_pre = np.outer(d_logits, params.w_out) * (cache.hidden_pre > 0.0)
    np.matmul(d_hidden_pre.T, cache.flat, out=grads.w_hidden)
    d_hidden_pre.sum(axis=0, out=grads.b_hidden)

    # Pool scatter, one slab at a time: one bincount over the slab's (filters,
    # batch, time) flat indices, pooled step outermost, so a time step in
    # several windows sums in window order. Each slab's conv gradient goes
    # over its spent activations, which then hold d_conv_pre.
    act = cache.conv_act.transpose(1, 0, 2)  # (filters, batch, time) memory order
    values = cache.pool_values.transpose(1, 0, 2)
    d_pool = (d_hidden_pre @ params.w_hidden).reshape(batch, cfg.filters, cfg.pooled_steps)
    rows = np.arange(_SLAB * batch).reshape(_SLAB, batch) * cfg.time_steps
    for lo in range(0, cfg.filters, _SLAB):
        slab = act[lo : lo + _SLAB]
        argmax = _pool_argmax(slab, values[lo : lo + _SLAB], cfg)
        index = np.empty((cfg.pooled_steps, len(slab), batch), dtype=np.int64)  # C order: ravel is a view
        np.add(argmax.transpose(2, 0, 1), rows[: len(slab)], out=index)
        weights = d_pool[:, lo : lo + _SLAB].transpose(2, 1, 0).ravel()
        d = np.bincount(index.ravel(), weights=weights, minlength=slab.size).reshape(slab.shape)
        np.multiply(d, slab > 0.0, out=slab)  # the same mask as conv_pre > 0

    np.matmul(act.reshape(cfg.filters, batch * cfg.time_steps), cache.operand.T, out=grads.w_conv)
    act.sum(axis=(1, 2), out=grads.b_conv)
    return grads


def batch_loss(probs: np.ndarray, ys: np.ndarray) -> float:
    """Mean binary cross-entropy, each probability clamped to [1e-12, 1-1e-12]."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    ys = np.asarray(ys, dtype=np.float64)
    return float(np.mean(-(ys * np.log(p) + (1.0 - ys) * np.log(1.0 - p))))


def save_model(path, cfg: NetworkConfig, params: NetworkParams) -> None:
    header = _HEADER.pack(MODEL_VERSION, *(getattr(cfg, name) for name in _HEADER_FIELDS))
    blob = MODEL_MAGIC + header + np.asarray(params.vector, dtype="<f8").tobytes()
    Path(path).write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


def load_model(path) -> tuple[NetworkConfig, NetworkParams]:
    """The config and parameters of a model file; the vector is a view of the one buffer the file is read into."""
    pos = len(MODEL_MAGIC) + _HEADER.size
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(pos)
        if head[:4] != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file")
        if size < pos + 4:
            raise ValueError(f"{path}: {size} bytes cannot hold the {pos}-byte header and its CRC")
        rest = np.empty(size - pos, dtype=np.uint8)  # sized by the file, never by its unchecked header
        complete = fh.readinto(rest) == rest.size
    if not complete or zlib.crc32(rest[:-4], zlib.crc32(head)) != int.from_bytes(rest[-4:], "little"):
        raise ValueError(f"{path}: CRC mismatch, file corrupt")
    version, fb, ts, nf, pk, ps, pp, nh = _HEADER.unpack_from(head, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    try:
        cfg = NetworkConfig(fb, ts, nf, pk, ps, pp, nh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = pos + 8 * cfg.n_params + 4
    if size != expected:
        raise ValueError(f"{path}: {size} bytes, but its header describes a {expected}-byte model")
    return cfg, NetworkParams(cfg, rest[:-4].view("<f8"))
