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


def log_softmax(logits) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-probabilities of a [B, C] logits batch, and their exp.
    Each row depends on that row alone, so the bits of a row do not depend
    on which batch it is taken in."""
    logp = _log_softmax(_as_logits(logits))
    return logp, np.exp(logp)


def _check_log_probs(log_probs, shape) -> tuple[np.ndarray, np.ndarray]:
    logp, probs = log_probs
    if logp.shape != shape or probs.shape != shape:
        raise DimensionError(f"log-probabilities {logp.shape} must match logits {shape}")
    return logp, probs


def ce_loss(logits, labels, log_probs=None) -> LossOutput:
    """Mean cross-entropy at temperature 1. `log_probs` is the batch's
    log_softmax(logits) when the caller has taken it already; it is read,
    not written."""
    arr = _as_logits(logits)
    lab = _check_labels(labels, arr.shape[1])
    if lab.shape[0] != arr.shape[0]:
        raise DimensionError("labels length must match batch size")
    batch = arr.shape[0]
    if log_probs is None:
        logp = _log_softmax(arr)
        dlogits = np.exp(logp)
    else:
        logp, probs = _check_log_probs(log_probs, arr.shape)
        dlogits = probs.copy()
    value = -(logp[np.arange(batch), lab].sum() / batch)
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


def tempered_targets(prev_logits, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """kl_distill's soft targets: log_softmax(prev_logits / tau) and its exp."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    return log_softmax(_as_logits(prev_logits) / tau)


def kl_distill(prev_logits, cur_logits, tau: float = 1.0) -> LossOutput:
    """Temperature-scaled KL(prev || cur), batch mean, with the tau^2 prefactor.

    prev_logits is a constant soft target; the gradient (tau * (p_cur -
    p_prev) / B) flows only to cur_logits.
    """
    return kl_to_targets(tempered_targets(prev_logits, tau), cur_logits, tau)


def kl_to_targets(targets, cur_logits, tau: float) -> LossOutput:
    """kl_distill from targets = tempered_targets(prev_logits, tau) taken
    beforehand, bit for bit."""
    cur = _as_logits(cur_logits)
    logp_prev, p_prev = targets
    if logp_prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {logp_prev.shape} vs {cur.shape}")
    batch = cur.shape[0]
    logp_cur = _log_softmax(cur / tau)
    # 0 * log 0 := 0 (p_prev underflows to 0 before logp_prev hits -inf)
    per_row = tau * tau * np.where(
        p_prev > 0, p_prev * (logp_prev - logp_cur), 0.0
    ).sum(axis=1)
    dlogits = tau * (np.exp(logp_cur) - p_prev) / batch
    return LossOutput(float(per_row.sum() / batch), dlogits)


def soft_ce(logits, soft_labels, log_probs=None) -> LossOutput:
    """Cross-entropy against (possibly unnormalized) non-negative soft
    targets. `log_probs` as in ce_loss."""
    arr = _as_logits(logits)
    targets = np.asarray(soft_labels, dtype=np.float64)
    if targets.shape != arr.shape:
        raise DimensionError(
            f"soft label shape {targets.shape} must match logits {arr.shape}"
        )
    if (targets < 0).any():
        raise ParameterError("soft labels must be non-negative")
    batch = arr.shape[0]
    if log_probs is None:
        logp = _log_softmax(arr)
        probs = np.exp(logp)
    else:
        logp, probs = _check_log_probs(log_probs, arr.shape)
    value = -((targets * logp).sum(axis=1).sum() / batch)
    row_mass = targets.sum(axis=1, keepdims=True)
    dlogits = (row_mass * probs - targets) / batch
    return LossOutput(float(value), dlogits)


def mse_logits(prev_logits, cur_logits) -> LossOutput:
    """Half squared distance between logit rows, batch mean; gradient to cur only."""
    prev = _as_logits(prev_logits)
    cur = _as_logits(cur_logits)
    if prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {prev.shape} vs {cur.shape}")
    batch = cur.shape[0]
    diff = cur - prev
    value = 0.5 * ((diff * diff).sum(axis=1).sum() / batch)
    return LossOutput(float(value), diff / batch)
