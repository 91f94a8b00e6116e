"""Epoch-to-epoch training memory: prediction cache with a correctness
filter, median class centers, the class-similarity soft labels, and the
per-class divergence diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import DimensionError
from .losses import LossOutput, kl_to_targets, tempered_log_probs
from .losses import _as_logits, _log_softmax

_ZERO_NORM = 1e-12


@dataclass
class EpochCache:
    """Rows indexed by dataset position; the runs of a lockstep group keep
    theirs run-major, run r's row i at r * N + i."""

    prev_logits: np.ndarray  # [N, C]; rows `temper` took hold review targets instead
    correct_mask: np.ndarray  # bool [N]: argmax(prev_logits) == label when cached


def temper(cache: EpochCache, tau: float) -> None:
    """Turns the cached logits into their review targets
    tempered_log_probs(logits, tau) in place, all at once instead of batch
    by batch in kr_batch_loss, which must then be given the same tau.
    cache_update writes logits over them again: a lockstep epoch tempers the
    previous epoch's rows and reads each one before its step rewrites it."""
    cache.prev_logits[:] = tempered_log_probs(cache.prev_logits, tau)


def empty_cache(num_samples: int, num_classes: int) -> EpochCache:
    return EpochCache(
        prev_logits=np.zeros((num_samples, num_classes)),
        correct_mask=np.zeros(num_samples, dtype=bool),
    )


def cache_update(cache: EpochCache, indices, logits, labels) -> None:
    """Store logits rows at their cache rows and refresh their correctness:
    the lockstep stack kr_batch_loss reads, [S, B] rows (`trainer._rows`)
    and [S, B, C] logits; rows of any other index shape are written alike.

    Argmax ties resolve to the lowest class index, so the correctness mask
    is reproducible.
    """
    cache.prev_logits[indices] = logits
    cache.correct_mask[indices] = logits.argmax(axis=-1) == labels


def kr_batch_loss(cache: EpochCache, indices, cur_logits, tau) -> LossOutput:
    """Distillation toward the cached predictions for a lockstep stack of S
    batches: [S, B] cache rows (`trainer._rows`) and [S, B, C] logits. Each
    batch keeps the rows the previous epoch classified correctly, and its
    value in the [S] values is the .sum() of exactly its kept rows over
    their count, 0.0 with none kept. Rows outside the filter get
    exactly-zero gradient. The cache must hold review targets:
    `temper(cache, tau)` ran this epoch with the same tau, as `train_epoch`
    does before the first read. Tempering is row-wise, so each batch's bits
    equal kl_distill's on its kept raw rows.
    """
    # the batches' rows end to end, as one batch's would be
    rows, cur = indices.ravel(), cur_logits.reshape(-1, cur_logits.shape[-1])
    mask = cache.correct_mask[rows]
    dlogits = np.zeros_like(cur)
    counts = mask.reshape(indices.shape).sum(axis=1) if len(indices) > 1 else None
    if mask.any():
        out = kl_to_targets(cache.prev_logits[rows[mask]], cur[mask], tau, counts)
        dlogits[mask] = out.dlogits
        value = out.value if counts is not None else np.array([out.value])  # a stack of one
    else:
        value = np.zeros(len(indices))
    return LossOutput(value, dlogits.reshape(cur_logits.shape))


class FeatureStore:
    """One epoch's feature rows in one [N, H] buffer, each batch written at
    its dataset positions the way cache_update writes logits (run-major for
    a lockstep group)."""

    def __init__(self, num_samples: int, dim: int):
        self.features = np.zeros((num_samples, dim))

    def add(self, indices, features) -> None:
        self.features[indices] = features


@dataclass
class SoftLabels:
    M: np.ndarray  # [C, C] cosine similarity of class centers
    y_hat: np.ndarray  # [C, C] reconstructed soft targets, row r for class r


def class_centers_median(
    features: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """[C, H] per-class, per-dimension median of the rows labelled with each
    class (even counts average the middle two). The median does not depend
    on row order, so these are the medians of the rows in arrival order.
    Every class has a row: a `data.Dataset` invariant."""
    return np.stack([np.median(features[labels == c], axis=0) for c in range(num_classes)])


def similarity_matrix(centers: np.ndarray) -> np.ndarray:
    """Cosine similarity between the [C, H] class centers: symmetric, unit
    diagonal, entries clipped to [-1, 1]; zero-norm centers get zero
    off-diagonals."""
    norms = np.linalg.norm(centers, axis=1)
    nonzero = norms > _ZERO_NORM
    unit = np.zeros_like(centers)
    unit[nonzero] = centers[nonzero] / norms[nonzero, None]
    m = unit @ unit.T
    m = np.clip((m + m.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(m, 1.0)
    return m


def reconstruct_labels(similarity, alpha: float) -> np.ndarray:
    """Soft targets alpha * I + (1 - alpha) * M; row r supervises class r.

    The affine combination is kept as written: row sums exceed 1 whenever
    M has positive off-diagonal mass.
    """
    m = np.asarray(similarity, dtype=np.float64)
    return alpha * np.eye(m.shape[0]) + (1.0 - alpha) * m


def build_soft_labels(centers: np.ndarray, alpha: float) -> SoftLabels:
    m = similarity_matrix(centers)
    return SoftLabels(M=m, y_hat=reconstruct_labels(m, alpha))


def per_class_adjacent_kl(prev_logits, cur_logits, labels, num_classes: int) -> np.ndarray:
    """Mean KL(prev || cur) per ground-truth class: bit for bit
    kl_distill(prev[labels == c], cur[labels == c]).value, taken in one pass
    over all rows. Every step of a row's KL is row-wise, so its bits do not
    depend on the rows beside it, and a class's mean is the `.sum()` of its
    rows' values in their order over its row count (np.add.reduceat or
    np.bincount weights would sum them differently). Labels in [0, C) and
    a row for every class are `data.Dataset` invariants, so only shapes
    are checked here."""
    prev = _as_logits(prev_logits)
    cur = _as_logits(cur_logits)
    lab = np.asarray(labels)
    if prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {prev.shape} vs {cur.shape}")
    if lab.shape != prev.shape[:1]:
        raise DimensionError(f"labels shape {lab.shape} must match {prev.shape[0]} logit rows")
    counts = np.bincount(lab, minlength=num_classes)
    logp_prev, logp_cur = _log_softmax(prev), _log_softmax(cur)
    kl = np.exp(logp_prev)  # p_prev
    # 0 * log 0 := 0 (p_prev underflows to 0 before logp_prev hits -inf)
    dead = ~(kl > 0)
    logp_prev -= logp_cur
    kl *= logp_prev
    kl[dead] = 0.0
    per_row = kl.sum(axis=1)
    return np.array([per_row[lab == c].sum() / n for c, n in enumerate(counts.tolist())])


def write_matrix_csv(path, matrix) -> None:
    """Square matrix dump; header row is the class indices."""
    artifacts.write_csv(path, [str(i) for i in range(np.shape(matrix)[1])], matrix)


def write_class_kl_series(path, rows) -> None:
    """rows = iterable of (epoch, per-class KL vector)."""
    rows = [[epoch, *vec] for epoch, vec in rows]
    header = ["epoch"] + [str(i) for i in range(len(rows[0]) - 1 if rows else 0)]
    artifacts.write_csv(path, header, rows)
