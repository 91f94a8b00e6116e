"""Scalar losses with analytic logit-gradients.

Every loss returns a LossOutput holding the batch-mean value and the
gradient of that value with respect to the current logits. kl_distill
treats the previous-epoch logits as constants: no gradient flows to them.

bsce_loss is ce_loss on logits shifted by `log_prior_shift`. ce_loss,
bsce_loss and soft_ce also take a stack of S batches [S, B, C] (labels
[S, B]) and then return one value per batch; kl_to_targets takes the rows
of several batches one after another with their row `counts`. Either way each
batch's value and gradient are bitwise those of its own call.

They check shapes only: labels in [0, C) (`data.Dataset`), tau >= 1
(`trainer.TrainConfig`) and non-negative soft targets (cosines of ReLU
features) are checked where they enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass
class LossOutput:
    value: float | np.ndarray  # one value per batch of a stack
    dlogits: np.ndarray  # [..., B, C], gradient w.r.t. the current logits


def _as_logits(logits, stacked: bool = False) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2 and not (stacked and arr.ndim == 3):
        want = "[B, C] or [S, B, C]" if stacked else "2-D [B, C]"
        raise DimensionError(f"logits must be {want}, got shape {arr.shape}")
    return arr


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _check_labels(labels, logits_shape) -> np.ndarray:
    lab = np.asarray(labels)
    if lab.shape != logits_shape[:-1]:
        raise DimensionError(f"labels shape {lab.shape} must match logits {logits_shape[:-1]}")
    return lab.astype(np.intp)


def _batch_means(per_row: np.ndarray, grad: np.ndarray, counts):
    """(value, dlogits) of a batch mean: per_row.sum() / B and grad / B. With
    `counts`, the rows are len(counts) batches one after another, and each
    batch's value is the .sum() of its own rows; an empty batch's is 0.0."""
    if counts is None:
        batch = grad.shape[0]
        return float(per_row.sum() / batch), grad / batch
    ends = np.cumsum(counts).tolist()
    values = [per_row[end - n : end].sum() / n if n else 0.0 for n, end in zip(counts.tolist(), ends)]
    return np.array(values), grad / np.repeat(counts, counts)[:, None]


def log_softmax(logits) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-probabilities of a [B, C] (or [S, B, C]) logits batch, and their exp.
    Each row depends on that row alone, so the bits of a row do not depend
    on which batch it is taken in."""
    logp = _log_softmax(_as_logits(logits, stacked=True))
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
    arr = _as_logits(logits, stacked=True)
    lab = _check_labels(labels, arr.shape)
    batch = arr.shape[-2]
    if log_probs is None:
        logp = _log_softmax(arr)
        dlogits = np.exp(logp)
    else:
        logp, probs = _check_log_probs(log_probs, arr.shape)
        dlogits = probs.copy()
    # the label index takes rows; writes go to this function's own `dlogits` rows
    dlogits = dlogits.reshape(-1, arr.shape[-1])
    at_label = (np.arange(lab.size), lab.ravel())
    value = -(logp.reshape(dlogits.shape)[at_label].reshape(lab.shape).sum(axis=-1) / batch)
    dlogits[at_label] -= 1.0
    dlogits /= batch
    return LossOutput(float(value) if arr.ndim == 2 else value, dlogits.reshape(arr.shape))


def log_prior_shift(class_counts, num_classes: int) -> np.ndarray:
    """The [C] log class frequency centred on its maximum, which balanced
    softmax adds to the logits: uniform counts reduce it to ce_loss."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.shape != (num_classes,):
        raise DimensionError(f"class_counts must have length {num_classes}, got shape {counts.shape}")
    if (counts <= 0).any():
        raise ParameterError("all class counts must be positive")
    log_prior = np.log(counts)
    return log_prior - log_prior.max()


def bsce_loss(logits, labels, class_counts) -> LossOutput:
    """Balanced-softmax cross-entropy: ce_loss on the logits shifted by
    `log_prior_shift`."""
    arr = _as_logits(logits, stacked=True)
    return ce_loss(arr + log_prior_shift(class_counts, arr.shape[-1]), labels)


def kl_distill(prev_logits, cur_logits, tau=1.0) -> LossOutput:
    """Temperature-scaled KL(prev || cur), batch mean, with the tau^2 prefactor.

    prev_logits is a constant soft target; the gradient (tau * (p_cur -
    p_prev) / B) flows only to cur_logits.
    """
    return kl_to_targets(tempered_log_probs(prev_logits, tau), cur_logits, tau)


def tempered_log_probs(prev_logits, tau) -> np.ndarray:
    """kl_distill's targets log_softmax(prev_logits / tau), row by row."""
    return _log_softmax(_as_logits(prev_logits) / tau)


def kl_to_targets(logp_prev, cur_logits, tau, counts=None) -> LossOutput:
    """kl_distill from logp_prev = tempered_log_probs(prev_logits, tau)
    taken beforehand, bit for bit. With `counts` (one row count per batch),
    the rows are several batches one after another."""
    cur = _as_logits(cur_logits)
    if logp_prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {logp_prev.shape} vs {cur.shape}")
    logp_cur = _log_softmax(cur / tau)
    p_prev = np.exp(logp_prev)
    # 0 * log 0 := 0 (p_prev underflows to 0 before logp_prev hits -inf)
    per_row = tau * tau * np.where(
        p_prev > 0, p_prev * (logp_prev - logp_cur), 0.0
    ).sum(axis=1)
    value, dlogits = _batch_means(per_row, tau * (np.exp(logp_cur) - p_prev), counts)
    return LossOutput(value, dlogits)


def soft_ce(logits, soft_labels, log_probs=None) -> LossOutput:
    """Cross-entropy against (possibly unnormalized) non-negative soft
    targets. `log_probs` as in ce_loss."""
    arr = _as_logits(logits, stacked=True)
    targets = np.asarray(soft_labels, dtype=np.float64)
    if targets.shape != arr.shape:
        raise DimensionError(
            f"soft label shape {targets.shape} must match logits {arr.shape}"
        )
    batch = arr.shape[-2]
    if log_probs is None:
        logp = _log_softmax(arr)
        probs = np.exp(logp)
    else:
        logp, probs = _check_log_probs(log_probs, arr.shape)
    value = -((targets * logp).sum(axis=-1).sum(axis=-1) / batch)
    row_mass = targets.sum(axis=-1, keepdims=True)
    dlogits = (row_mass * probs - targets) / batch
    return LossOutput(float(value) if arr.ndim == 2 else value, dlogits)
