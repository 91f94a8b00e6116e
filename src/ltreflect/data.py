"""Long-tail dataset synthesis, binary persistence, and class-split accounting.

File format (little-endian):

    offset 0   magic   b"LTDS"
    offset 4   u32     version (1)
    offset 8   u32     N   (sample count)
    offset 12  u32     D   (feature dim)
    offset 16  u32     C   (class count)
    offset 20  f32     N*D features, row-major
    ...        u32     N labels
    ...        u32     C class counts (each >= 1, non-increasing)

Features are held as float32 in memory so that a save/load round trip is
bit-exact; training code promotes to float64 at the batch level.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError

MAGIC = b"LTDS"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")

# Evaluation buckets by training count: many > 100, few < 20, medium otherwise.
MANY_THRESHOLD = 100
FEW_THRESHOLD = 20


@dataclass
class Dataset:
    features: np.ndarray  # float32 [N, D]
    labels: np.ndarray  # int64 [N], values in [0, C)
    class_counts: np.ndarray  # int64 [C], non-increasing

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_counts = np.asarray(self.class_counts, dtype=np.int64)
        n, c = self.features.shape[0], self.class_counts.shape[0]
        if self.labels.shape != (n,):
            raise ParameterError("labels length must equal feature row count")
        if self.class_counts.sum() != n:
            raise ParameterError("class counts must sum to the sample count")
        if n and (self.labels.min() < 0 or self.labels.max() >= c):
            raise ParameterError(f"labels must lie in [0, {c})")
        actual = np.bincount(self.labels, minlength=c)
        if not np.array_equal(actual, self.class_counts):
            raise ParameterError("class counts must match actual label frequencies")
        if np.any(np.diff(self.class_counts) > 0):
            raise ParameterError("classes must be ordered by non-increasing count")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_counts.shape[0]


def longtail_counts(num_classes: int, n_max: int, imbalance_factor: float) -> np.ndarray:
    """Exponential count profile n_j = round(n_max * IF^(-(j-1)/(C-1))), min 1."""
    if num_classes < 2:
        raise ParameterError(f"need at least 2 classes, got {num_classes}")
    if not imbalance_factor >= 1:
        raise ParameterError(f"imbalance factor must be >= 1, got {imbalance_factor}")
    if n_max < imbalance_factor:
        raise ParameterError("n_max must be >= the imbalance factor so n_min >= 1")
    exponents = -np.arange(num_classes) / (num_classes - 1)
    raw = n_max * np.power(imbalance_factor, exponents)
    return np.maximum(1, np.floor(raw + 0.5).astype(np.int64))


def split_classes(class_counts) -> dict[str, np.ndarray]:
    """Partition class indices into many (> MANY_THRESHOLD), few (< FEW_THRESHOLD), medium."""
    counts = np.asarray(class_counts)
    if counts.size == 0:
        raise ParameterError("class counts must be non-empty")
    idx = np.arange(counts.size)
    many = counts > MANY_THRESHOLD
    few = counts < FEW_THRESHOLD
    return {
        "many": idx[many],
        "medium": idx[~many & ~few],
        "few": idx[few],
    }


def _unit_centers(
    num_classes: int,
    dim: int,
    class_sep: float,
    similarity_pairs,
    rng: np.random.Generator,
) -> np.ndarray:
    centers = rng.normal(size=(num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= class_sep
    for head, tail, overlap in similarity_pairs:
        if not (0.0 <= overlap <= 1.0):
            raise ParameterError(f"overlap must be in [0, 1], got {overlap}")
        centers[tail] = (1.0 - overlap) * centers[tail] + overlap * centers[head]
    return centers


def synth_gaussians(
    num_classes: int,
    dim: int,
    counts,
    class_sep: float = 3.0,
    noise_sigma: float = 1.0,
    similarity_pairs=(),
    seed: int = 0,
    noise_seed: int | None = None,
) -> Dataset:
    """Per-class Gaussian blobs at seeded unit-norm centers scaled by class_sep.

    Each (head, tail, overlap) pair moves the tail center toward the head
    center by the overlap fraction. Centers depend only on the seed (and
    the geometry arguments), so a second call with a different noise_seed
    draws fresh samples from the same class distributions — that is how
    the balanced test split is produced.
    """
    if dim < 2:
        raise ParameterError(f"feature dim must be >= 2, got {dim}")
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (num_classes,):
        raise ParameterError(f"counts must have length {num_classes}")
    center_seed, default_noise = np.random.SeedSequence(seed).spawn(2)
    centers = _unit_centers(
        num_classes, dim, class_sep, similarity_pairs, np.random.default_rng(center_seed)
    )
    noise_rng = np.random.default_rng(
        default_noise if noise_seed is None else noise_seed
    )
    labels = np.repeat(np.arange(num_classes), counts)
    feats = centers[labels].copy()
    if noise_sigma > 0:
        feats += noise_rng.normal(scale=noise_sigma, size=(labels.size, dim))
    return Dataset(features=feats.astype(np.float32), labels=labels, class_counts=counts)


def augment(batch, sigma_aug: float, seed) -> np.ndarray:
    """Seeded isotropic Gaussian jitter; sigma_aug = 0 is the identity."""
    x = np.asarray(batch, dtype=np.float64)
    if sigma_aug == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + rng.normal(scale=sigma_aug, size=x.shape)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC,
                VERSION,
                dataset.num_samples,
                dataset.dim,
                dataset.num_classes,
            )
        )
        fh.write(dataset.features.astype("<f4").tobytes())
        fh.write(dataset.labels.astype("<u4").tobytes())
        fh.write(dataset.class_counts.astype("<u4").tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("truncated header", len(blob))
    magic, version, n, d, c = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    feat_off = _HEADER.size
    label_off = feat_off + 4 * n * d
    count_off = label_off + 4 * n
    end = count_off + 4 * c
    if len(blob) < end:
        raise FormatError(f"truncated payload: need {end} bytes, have {len(blob)}", len(blob))
    if len(blob) > end:
        raise FormatError("trailing bytes after payload", end)
    feats = np.frombuffer(blob, dtype="<f4", count=n * d, offset=feat_off).reshape(n, d)
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=label_off).astype(np.int64)
    counts = np.frombuffer(blob, dtype="<u4", count=c, offset=count_off).astype(np.int64)
    if counts.sum() != n:
        raise FormatError(
            f"class counts sum to {counts.sum()}, header says N={n}", count_off
        )
    if n and labels.max() >= c:
        raise FormatError(f"label {labels.max()} out of range [0, {c})", label_off)
    if not np.array_equal(np.bincount(labels, minlength=c), counts):
        raise FormatError("class counts disagree with label frequencies", count_off)
    if np.any(np.diff(counts) > 0):
        raise FormatError("class counts are not non-increasing", count_off)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # a class with no samples has no median center, which KS and BSCE need
        raise FormatError(f"class {empty[0]} has count 0", count_off + 4 * int(empty[0]))
    return Dataset(features=feats.copy(), labels=labels, class_counts=counts)
