"""Independent numeric oracles shared across the suite.

These stay deliberately dumb (elementwise central differences, explicit
loops) so they cannot share a bug with the analytic code they check.
"""

from __future__ import annotations

import numpy as np

from ltreflect import data, losses, nn, trainer


def baseline_run(cfg, train, test, split):
    """Plain CE/BSCE loop sharing the seed streams; the reflective trainer
    with every component off must reproduce this bit for bit."""
    init_rng, shuffle_rng, augment_rng = trainer.rng_streams(cfg.seed)
    params = nn.init_params(train.dim, train.num_classes, cfg.hidden_dim, init_rng)
    velocity = np.zeros(params.num_params)
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (1.0 - epoch / cfg.epochs)
        order = shuffle_rng.permutation(train.num_samples)
        loss_sum, batches = 0.0, 0
        for start in range(0, train.num_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = data.augment(train.features[idx], cfg.sigma_aug, augment_rng)
            y = train.labels[idx]
            rec = nn.forward(params, x)
            if cfg.ltr_loss == "bsce":
                out = losses.bsce_loss(rec.logits, y, train.class_counts)
            else:
                out = losses.ce_loss(rec.logits, y)
            g = nn.backward(params, rec, out.dlogits)
            nn.sgd_step(params, g, lr, cfg.momentum, velocity)
            loss_sum += out.value
            batches += 1
        history.append((loss_sum / batches, trainer.evaluate(params, test, split)[0]))
    return history


def fd_grad_logits(loss_value_fn, logits, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. a logits array."""
    base = np.asarray(logits, dtype=np.float64)
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus = base.copy()
            minus = base.copy()
            plus[i, j] += step
            minus[i, j] -= step
            grad[i, j] = (loss_value_fn(plus) - loss_value_fn(minus)) / (2 * step)
    return grad


def fd_grad_params(params, loss_of_model, step: float = 1e-5) -> np.ndarray:
    """Central finite differences through the flat model parameters."""
    theta = params.flat.copy()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        params.flat[i] += step
        up = loss_of_model(params)
        params.flat[i] -= 2 * step
        down = loss_of_model(params)
        params.flat[i] = theta[i]
        grad[i] = (up - down) / (2 * step)
    return grad


def max_rel_err(analytic, numeric, floor: float = 1e-6) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
