"""The finite-difference oracle that the analytic gradients are checked against."""

import numpy as np

from speechdep.network import NetworkConfig, NetworkParams, batch_loss, forward_batch


def numerical_gradient(
    params: NetworkParams, x: np.ndarray, y: int, cfg: NetworkConfig, h: float = 1e-5
) -> NetworkParams:
    """Central finite differences of batch_loss on the batch of one (x, y), over every parameter."""
    xs, ys = np.asarray(x, dtype=np.float64)[None], [y]

    def loss_at(p: NetworkParams) -> float:
        return batch_loss(forward_batch(p, xs, cfg).probs, ys)

    work, grads = NetworkParams(params.cfg, params.vector.copy()), NetworkParams(cfg)
    flat = work.vector
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_at(work)
        flat[i] = orig - h
        down = loss_at(work)
        flat[i] = orig
        grads.vector[i] = (up - down) / (2.0 * h)
    return grads
