"""Mini-batch training with Adadelta and a geometric learning-rate decay.

Adadelta keeps running averages of squared gradients and squared updates,
as flat vectors laid out like NetworkParams.vector. Per step, with decay rho
and stabiliser eps, in place on the params and state vectors:

    eg2   <- rho*eg2 + (1-rho)*g^2
    delta  = -g * sqrt(edx2 + eps) / sqrt(eg2 + eps)   (edx2 from the prior step)
    edx2  <- rho*edx2 + (1-rho)*delta^2
    theta <- theta + lr*delta

The global learning rate decays geometrically from lr_start to lr_end across
epochs. Shuffling and initialisation are fully seeded, so a rerun with the
same config is bitwise identical.

An ensemble trains in lockstep: every machine draws its shuffle order from
cfg.seed alone, so each step normalizes its batch once and every machine, in
seed order, takes its forward, backward and Adadelta step on that operand.
Each machine does exactly the arithmetic it would do alone. Memory is per
batch, not per training set: a FeatureSet that reads its records from a
cache file when batched holds one batch of values at a time. All of the
machines' params and Adadelta state (eg2, edx2) stay alive together, about
3 x n_params x 8 B per machine (14.2 MB at the reference geometry). A step
adds one gradient vector; the in-place update allocates only two
slice-sized scratch arrays. planned_bytes sums these. The CLI's `train
--jobs N` splits the machines into at most N contiguous groups and trains
each group this way on a thread of its own.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import FeatureSet
from .network import (
    NetworkConfig,
    NetworkParams,
    backward_batch,
    batch_loss,
    forward_batch,
    init_params,
)

_STEP_CHUNK = 1 << 15  # values per slice of an Adadelta step: its temporaries stay small and in cache


class TrainingDivergedError(RuntimeError):
    """Raised when a batch loss stops being finite."""


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 80
    lr_start: float = 1.0
    lr_end: float = 0.01
    rho: float = 0.95
    eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_start", "lr_end", "eps"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.lr_end <= self.lr_start:
            raise ValueError(f"need 0 <= lr_end <= lr_start, got lr_end {self.lr_end} and lr_start {self.lr_start}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")


@dataclass
class AdadeltaState:
    eg2: np.ndarray  # running mean of squared gradients, laid out like params.vector
    edx2: np.ndarray  # running mean of squared updates

    @classmethod
    def zeros(cls, params: NetworkParams) -> "AdadeltaState":
        return cls(np.zeros_like(params.vector), np.zeros_like(params.vector))


@dataclass
class TrainHistory:
    lr: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)


def lr_schedule(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a zero-based epoch index, geometric in the epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if cfg.epochs == 1 or cfg.lr_start == 0.0:
        return cfg.lr_start
    ratio = cfg.lr_end / cfg.lr_start
    return cfg.lr_start * ratio ** (epoch / (cfg.epochs - 1))


def adadelta_step(
    params: NetworkParams, grads: NetworkParams, state: AdadeltaState, lr: float, rho: float, eps: float
) -> None:
    """One Adadelta update of params and state, in place; grads is only read.

    Each slice runs the operations of the module docstring's formulas, in
    their order, through two scratch slices, so a step allocates only those.
    """
    scratch = np.empty((2, min(_STEP_CHUNK, params.vector.size)))
    for lo in range(0, params.vector.size, _STEP_CHUNK):
        chunk = slice(lo, lo + _STEP_CHUNK)
        g, eg2, edx2 = grads.vector[chunk], state.eg2[chunk], state.edx2[chunk]
        a, delta = scratch[:, : len(g)]
        np.multiply(g, 1.0 - rho, out=a)  # eg2 <- rho*eg2 + (1-rho)*g*g
        np.multiply(a, g, out=a)
        np.multiply(eg2, rho, out=eg2)
        np.add(eg2, a, out=eg2)
        np.add(edx2, eps, out=a)  # delta = -g * sqrt(edx2 + eps) / sqrt(eg2 + eps)
        np.sqrt(a, out=a)
        np.negative(g, out=delta)
        np.multiply(delta, a, out=delta)
        np.add(eg2, eps, out=a)
        np.sqrt(a, out=a)
        np.divide(delta, a, out=delta)
        np.multiply(delta, 1.0 - rho, out=a)  # edx2 <- rho*edx2 + (1-rho)*delta*delta
        np.multiply(a, delta, out=a)
        np.multiply(edx2, rho, out=edx2)
        np.add(edx2, a, out=edx2)
        np.multiply(delta, lr, out=delta)  # theta <- theta + lr*delta
        params.vector[chunk] += delta


def planned_bytes(net_cfg: NetworkConfig, batch_size: int, n_records: int, machines: int, groups: int) -> int:
    """Bytes that training `machines` machines in `groups` concurrent lockstep groups holds at once.

    Params and Adadelta state per machine; one gradient vector and one float64
    batch operand per group. A step's activations and the records are left out.
    """
    vector = 8 * net_cfg.n_params
    operand = 8 * net_cfg.freq_bins * min(batch_size, n_records) * net_cfg.time_steps
    return machines * 3 * vector + groups * (vector + operand)


def evaluate_loss(params: NetworkParams, cfg: NetworkConfig, features: FeatureSet, batch_size: int = 256):
    """(mean BCE, accuracy at threshold 0.5) over a feature set; the BCE weighs each batch's mean by its size."""
    from .evaluation import predict_speaker_probs  # deferred: evaluation imports this module

    probs = predict_speaker_probs([params], cfg, features, batch_size)[0]
    ys = np.asarray(features.labels, dtype=np.float64)
    chunks = [slice(lo, lo + batch_size) for lo in range(0, len(ys), batch_size)]
    loss = sum(batch_loss(probs[c], ys[c]) * len(ys[c]) for c in chunks)
    correct = int(np.sum((probs >= 0.5).astype(np.int64) == ys.astype(np.int64)))
    return loss / len(ys), correct / len(ys)


def train(
    features: FeatureSet,
    net_cfg: NetworkConfig,
    cfg: TrainConfig,
    init_seeds=None,
    val_features: FeatureSet | None = None,
) -> tuple[list[NetworkParams], list[TrainHistory]]:
    """Train one network per init seed on a labelled FeatureSet; val_features, if given, is scored each epoch.

    init_seeds defaults to [cfg.seed]; the shuffle order always derives from
    cfg.seed alone, so the machines share every batch and differ only in
    initialisation. Returns params and histories in init_seeds order.
    """
    if not features:
        raise ValueError("no training samples")
    seeds = [cfg.seed] if init_seeds is None else list(init_seeds)
    if not seeds:
        raise ValueError("need at least one machine")
    shape = (net_cfg.freq_bins, net_cfg.time_steps)
    for data in filter(None, (features, val_features)):
        if data.record_shape != shape:
            raise ValueError(f"feature shape {data.record_shape} does not fit model {shape}")
    ys = np.asarray(features.labels, dtype=np.float64)
    n = len(features)
    operand = np.empty(shape[0] * min(cfg.batch_size, n) * shape[1])  # every step's conv operand

    all_params = [init_params(net_cfg, seed=seed) for seed in seeds]
    states = [AdadeltaState.zeros(params) for params in all_params]
    order_rng = np.random.default_rng(cfg.seed)
    histories = [TrainHistory() for _ in seeds]

    for epoch in range(cfg.epochs):
        lr = lr_schedule(cfg, epoch)
        order = order_rng.permutation(n)
        epoch_losses = [0.0] * len(seeds)
        for batch_index, lo in enumerate(range(0, n, cfg.batch_size)):
            take = order[lo : lo + cfg.batch_size]
            bx, by = features.batch(take, operand), ys[take]
            for m, (seed, params, state) in enumerate(zip(seeds, all_params, states)):
                cache = forward_batch(params, bx, net_cfg)
                loss = batch_loss(cache.probs, by)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {batch_index}, machine seed {seed}"
                    )
                grads = backward_batch(params, cache, bx, by, net_cfg)
                del cache  # free its per-step activations before the next forward
                adadelta_step(params, grads, state, lr, cfg.rho, cfg.eps)
                del grads  # and its gradients, before the next machine's pass
                epoch_losses[m] += loss * bx.shape[0]

        for params, history, epoch_loss in zip(all_params, histories, epoch_losses):
            history.lr.append(lr)
            history.train_loss.append(epoch_loss / n)
            if val_features:
                val_loss, val_acc = evaluate_loss(params, net_cfg, val_features)
                history.val_loss.append(val_loss)
                history.val_acc.append(val_acc)
            else:
                history.val_loss.append(float("nan"))
                history.val_acc.append(float("nan"))

    return all_params, histories


def write_history_csv(path, history: TrainHistory) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "val_loss", "val_acc"])
        for epoch, row in enumerate(
            zip(history.lr, history.train_loss, history.val_loss, history.val_acc)
        ):
            writer.writerow([epoch, *(format(v, ".10g") for v in row)])
