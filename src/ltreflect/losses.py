"""Scalar losses with analytic logit-gradients.

Every loss returns a LossOutput holding the batch-mean value and the
gradient of that value with respect to the current logits. Distillation
losses (kl_distill, mse_logits) treat the previous-epoch logits as
constants: no gradient flows to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass
class LossOutput:
    value: float
    dlogits: np.ndarray  # [B, C], gradient w.r.t. the current logits


def _as_logits(logits) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"logits must be 2-D [B, C], got shape {arr.shape}")
    return arr


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_labels(labels, num_classes: int) -> np.ndarray:
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got shape {lab.shape}")
    if lab.size == 0:
        raise ParameterError("empty batch")
    if lab.min() < 0 or lab.max() >= num_classes:
        raise ParameterError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{lab.min()}, {lab.max()}]"
        )
    return lab.astype(np.intp)


def ce_loss(logits, labels) -> LossOutput:
    """Mean cross-entropy at temperature 1."""
    arr = _as_logits(logits)
    lab = _check_labels(labels, arr.shape[1])
    if lab.shape[0] != arr.shape[0]:
        raise DimensionError("labels length must match batch size")
    batch = arr.shape[0]
    logp = _log_softmax(arr)
    value = -logp[np.arange(batch), lab].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(batch), lab] -= 1.0
    dlogits /= batch
    return LossOutput(float(value), dlogits)


def bsce_loss(logits, labels, class_counts) -> LossOutput:
    """Balanced-softmax cross-entropy: logits shifted by log class frequency.

    The log-prior is centred on its maximum so that uniform counts reduce
    to plain ce_loss bit-for-bit.
    """
    arr = _as_logits(logits)
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.shape != (arr.shape[1],):
        raise DimensionError(
            f"class_counts must have length {arr.shape[1]}, got shape {counts.shape}"
        )
    if (counts <= 0).any():
        raise ParameterError("all class counts must be positive")
    log_prior = np.log(counts)
    adjusted = arr + (log_prior - log_prior.max())
    return ce_loss(adjusted, labels)


def kl_distill(prev_logits, cur_logits, tau: float = 1.0) -> LossOutput:
    """Temperature-scaled KL(prev || cur), batch mean, with the tau^2 prefactor.

    prev_logits is a constant soft target; the gradient (tau * (p_cur -
    p_prev) / B) flows only to cur_logits.
    """
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    prev = _as_logits(prev_logits)
    cur = _as_logits(cur_logits)
    if prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {prev.shape} vs {cur.shape}")
    batch = cur.shape[0]
    logp_prev = _log_softmax(prev / tau)
    logp_cur = _log_softmax(cur / tau)
    p_prev = np.exp(logp_prev)
    # 0 * log 0 := 0 (p_prev underflows to 0 before logp_prev hits -inf)
    per_row = tau * tau * np.where(
        p_prev > 0, p_prev * (logp_prev - logp_cur), 0.0
    ).sum(axis=1)
    dlogits = tau * (np.exp(logp_cur) - p_prev) / batch
    return LossOutput(float(per_row.mean()), dlogits)


def soft_ce(logits, soft_labels) -> LossOutput:
    """Cross-entropy against (possibly unnormalized) non-negative soft targets."""
    arr = _as_logits(logits)
    targets = np.asarray(soft_labels, dtype=np.float64)
    if targets.shape != arr.shape:
        raise DimensionError(
            f"soft label shape {targets.shape} must match logits {arr.shape}"
        )
    if (targets < 0).any():
        raise ParameterError("soft labels must be non-negative")
    batch = arr.shape[0]
    logp = _log_softmax(arr)
    value = -(targets * logp).sum(axis=1).mean()
    row_mass = targets.sum(axis=1, keepdims=True)
    dlogits = (row_mass * np.exp(logp) - targets) / batch
    return LossOutput(float(value), dlogits)


def mse_logits(prev_logits, cur_logits) -> LossOutput:
    """Half squared distance between logit rows, batch mean; gradient to cur only."""
    prev = _as_logits(prev_logits)
    cur = _as_logits(cur_logits)
    if prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {prev.shape} vs {cur.shape}")
    batch = cur.shape[0]
    diff = cur - prev
    value = 0.5 * (diff * diff).sum(axis=1).mean()
    return LossOutput(float(value), diff / batch)
