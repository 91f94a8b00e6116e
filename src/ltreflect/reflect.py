"""Epoch-to-epoch training memory: prediction cache with a correctness
filter, median class centers, the class-similarity soft labels, and the
per-class divergence diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import DimensionError, ParameterError, StateError
from .losses import LossOutput, kl_distill, mse_logits

_ZERO_NORM = 1e-12


@dataclass
class EpochCache:
    prev_logits: np.ndarray  # [N, C], rows indexed by dataset position
    correct_mask: np.ndarray  # bool [N]: argmax(prev_logits) == label when cached


def empty_cache(num_samples: int, num_classes: int) -> EpochCache:
    return EpochCache(
        prev_logits=np.zeros((num_samples, num_classes)),
        correct_mask=np.zeros(num_samples, dtype=bool),
    )


def cache_update(cache: EpochCache, indices, logits, labels) -> EpochCache:
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
    return cache


def _masked_batch_loss(cache, indices, cur_logits, loss_fn) -> LossOutput:
    if cache is None:
        raise StateError("no previous-epoch cache; run the warm-up epoch first")
    idx = np.asarray(indices, dtype=np.intp)
    cur = np.asarray(cur_logits, dtype=np.float64)
    mask = cache.correct_mask[idx]
    dlogits = np.zeros_like(cur)
    if not mask.any():
        return LossOutput(0.0, dlogits)
    out = loss_fn(cache.prev_logits[idx[mask]], cur[mask])
    dlogits[mask] = out.dlogits
    return LossOutput(out.value, dlogits)


def kr_batch_loss(cache: EpochCache, indices, cur_logits, tau: float) -> LossOutput:
    """Distillation toward the cached predictions, restricted to rows the
    previous epoch classified correctly; the mean is over qualifying rows.
    Rows outside the filter get exactly-zero gradient.
    """
    return _masked_batch_loss(
        cache, indices, cur_logits, lambda p, c: kl_distill(p, c, tau)
    )


def mse_batch_loss(cache: EpochCache, indices, cur_logits) -> LossOutput:
    """Direct logit matching under the same correctness filter as kr_batch_loss."""
    return _masked_batch_loss(cache, indices, cur_logits, mse_logits)


class FeatureStore:
    """Per-class feature rows collected over one epoch; drained once the
    medians are taken so memory stays bounded at a single epoch."""

    def __init__(self, num_classes: int):
        self._rows: list[list[np.ndarray]] = [[] for _ in range(num_classes)]

    def add(self, labels, features) -> None:
        lab = np.asarray(labels)
        feats = np.asarray(features, dtype=np.float64)
        for c in np.unique(lab):
            self._rows[int(c)].append(feats[lab == c])

    def drain(self) -> list[np.ndarray | None]:
        out = [
            np.concatenate(chunks) if chunks else None for chunks in self._rows
        ]
        self._rows = [[] for _ in self._rows]
        return out


@dataclass
class ClassCenters:
    centers: np.ndarray  # [C, H]
    valid: np.ndarray  # bool [C]; False = class never seen, center must not be read


@dataclass
class SoftLabels:
    M: np.ndarray  # [C, C] cosine similarity of class centers
    y_hat: np.ndarray  # [C, C] reconstructed soft targets, row r for class r


def class_centers_median(features_by_class) -> ClassCenters:
    """Per-class, per-dimension median (even counts average the middle two)."""
    num_classes = len(features_by_class)
    dim = next(
        (f.shape[1] for f in features_by_class if f is not None and len(f)), 0
    )
    centers = np.zeros((num_classes, dim))
    valid = np.zeros(num_classes, dtype=bool)
    for c, feats in enumerate(features_by_class):
        if feats is None or len(feats) == 0:
            continue
        centers[c] = np.median(np.asarray(feats, dtype=np.float64), axis=0)
        valid[c] = True
    return ClassCenters(centers=centers, valid=valid)


def similarity_matrix(centers: ClassCenters) -> np.ndarray:
    """Cosine similarity between class centers: symmetric, unit diagonal,
    entries clipped to [-1, 1]; zero-norm centers get zero off-diagonals."""
    if not centers.valid.all():
        bad = np.flatnonzero(~centers.valid).tolist()
        raise StateError(f"classes without centers: {bad}")
    norms = np.linalg.norm(centers.centers, axis=1)
    nonzero = norms > _ZERO_NORM
    unit = np.zeros_like(centers.centers)
    unit[nonzero] = centers.centers[nonzero] / norms[nonzero, None]
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


def build_soft_labels(centers: ClassCenters, alpha: float) -> SoftLabels:
    m = similarity_matrix(centers)
    return SoftLabels(M=m, y_hat=reconstruct_labels(m, alpha))


def per_class_adjacent_kl(prev_logits, cur_logits, labels, num_classes: int) -> np.ndarray:
    """Mean KL(prev || cur) per ground-truth class; NaN for absent classes."""
    prev = np.asarray(prev_logits, dtype=np.float64)
    cur = np.asarray(cur_logits, dtype=np.float64)
    lab = np.asarray(labels)
    if prev.shape != cur.shape:
        raise DimensionError(f"logit shapes differ: {prev.shape} vs {cur.shape}")
    out = np.full(num_classes, np.nan)
    for cls in range(num_classes):
        rows = lab == cls
        if rows.any():
            out[cls] = kl_distill(prev[rows], cur[rows]).value
    return out


def write_matrix_csv(path, matrix) -> None:
    """Square matrix dump; header row is the class indices."""
    artifacts.write_csv(path, [str(i) for i in range(np.shape(matrix)[1])], matrix)


def write_class_kl_series(path, rows) -> None:
    """rows = iterable of (epoch, per-class KL vector)."""
    rows = [[epoch, *vec] for epoch, vec in rows]
    header = ["epoch"] + [str(i) for i in range(len(rows[0]) - 1 if rows else 0)]
    artifacts.write_csv(path, header, rows)
