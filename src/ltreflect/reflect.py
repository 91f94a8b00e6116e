"""Epoch-to-epoch training memory: prediction cache with a correctness
filter, median class centers, the class-similarity soft labels, and the
per-class divergence diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import DimensionError, ParameterError, StateError
from .losses import LossOutput, kl_distill, kl_to_targets, mse_logits, tempered_targets

_ZERO_NORM = 1e-12


@dataclass
class EpochCache:
    prev_logits: np.ndarray  # [N, C], rows indexed by dataset position
    correct_mask: np.ndarray  # bool [N]: argmax(prev_logits) == label when cached
    # (tau, tempered_targets(prev_logits, tau)) as kr_batch_loss last took
    # them over all N rows; cache_update drops it
    tempered: tuple | None = field(default=None, repr=False)


def empty_cache(num_samples: int, num_classes: int) -> EpochCache:
    return EpochCache(
        prev_logits=np.zeros((num_samples, num_classes)),
        correct_mask=np.zeros(num_samples, dtype=bool),
    )


def cache_update(cache: EpochCache, indices, logits, labels) -> None:
    """Store logits rows at dataset positions and refresh their correctness.

    Argmax ties resolve to the lowest class index, so the correctness mask
    is reproducible.
    """
    idx = np.asarray(indices, dtype=np.intp)
    arr = np.asarray(logits, dtype=np.float64)
    lab = np.asarray(labels)
    if arr.shape != (idx.size, cache.prev_logits.shape[1]):
        raise DimensionError(
            f"logits shape {arr.shape} does not match {idx.size} indices x "
            f"{cache.prev_logits.shape[1]} classes"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= cache.prev_logits.shape[0]):
        raise ParameterError(
            f"dataset index out of range [0, {cache.prev_logits.shape[0]})"
        )
    cache.prev_logits[idx] = arr
    cache.correct_mask[idx] = arr.argmax(axis=1) == lab
    cache.tempered = None


def _masked_batch_loss(cache, indices, cur_logits, loss_fn) -> LossOutput:
    if cache is None:
        raise StateError("no previous-epoch cache; run the warm-up epoch first")
    idx = np.asarray(indices, dtype=np.intp)
    cur = np.asarray(cur_logits, dtype=np.float64)
    mask = cache.correct_mask[idx]
    dlogits = np.zeros_like(cur)
    if not mask.any():
        return LossOutput(0.0, dlogits)
    out = loss_fn(idx[mask], cur[mask])
    dlogits[mask] = out.dlogits
    return LossOutput(out.value, dlogits)


def kr_batch_loss(cache: EpochCache, indices, cur_logits, tau: float) -> LossOutput:
    """Distillation toward the cached predictions, restricted to rows the
    previous epoch classified correctly; the mean is over qualifying rows.
    Rows outside the filter get exactly-zero gradient.

    The tempered targets are taken once per cache state and tau, over all
    rows: row-wise, so each row's bits equal kl_distill's on the batch.
    """
    if cache is not None and (cache.tempered is None or cache.tempered[0] != tau):
        cache.tempered = (tau, tempered_targets(cache.prev_logits, tau))

    def review(rows, cur):
        logp, probs = cache.tempered[1]
        return kl_to_targets((logp[rows], probs[rows]), cur, tau)

    return _masked_batch_loss(cache, indices, cur_logits, review)


def mse_batch_loss(cache: EpochCache, indices, cur_logits) -> LossOutput:
    """Direct logit matching under the same correctness filter as kr_batch_loss."""
    return _masked_batch_loss(
        cache, indices, cur_logits, lambda rows, cur: mse_logits(cache.prev_logits[rows], cur)
    )


class FeatureStore:
    """One epoch's feature rows in one [N, H] buffer, each batch written at
    its dataset positions the way cache_update writes logits."""

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
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    m = np.asarray(similarity, dtype=np.float64)
    return alpha * np.eye(m.shape[0]) + (1.0 - alpha) * m


def build_soft_labels(centers: np.ndarray, alpha: float) -> SoftLabels:
    m = similarity_matrix(centers)
    return SoftLabels(M=m, y_hat=reconstruct_labels(m, alpha))


def per_class_adjacent_kl(prev_logits, cur_logits, labels, num_classes: int) -> np.ndarray:
    """Mean KL(prev || cur) per ground-truth class. Every class has a row:
    a `data.Dataset` invariant."""
    prev = np.asarray(prev_logits, dtype=np.float64)
    cur = np.asarray(cur_logits, dtype=np.float64)
    lab = np.asarray(labels)
    if prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {prev.shape} vs {cur.shape}")
    return np.array([kl_distill(prev[lab == c], cur[lab == c]).value for c in range(num_classes)])


def write_matrix_csv(path, matrix) -> None:
    """Square matrix dump; header row is the class indices."""
    artifacts.write_csv(path, [str(i) for i in range(np.shape(matrix)[1])], matrix)


def write_class_kl_series(path, rows) -> None:
    """rows = iterable of (epoch, per-class KL vector)."""
    rows = [[epoch, *vec] for epoch, vec in rows]
    header = ["epoch"] + [str(i) for i in range(len(rows[0]) - 1 if rows else 0)]
    artifacts.write_csv(path, header, rows)
