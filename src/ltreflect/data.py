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

# synth_gaussians builds its features this many rows at a time, so its float64
# temporary is one block, not the whole set: a 21,785 x 64 synth peaks 17 MB
# lower than in one block, and blocks of 1,024 to 4,096 rows time alike
SYNTH_BLOCK_ROWS = 4096

# Evaluation buckets by training count: many > 100, few < 20, medium otherwise.
MANY_THRESHOLD = 100
FEW_THRESHOLD = 20


@dataclass
class Dataset:
    """Every class has at least one sample, so every class has a median
    center and a BSCE prior, and no set is empty."""

    features: np.ndarray  # float32 [N, D]
    labels: np.ndarray  # int64 [N], values in [0, C)
    class_counts: np.ndarray  # int64 [C], non-increasing, each >= 1

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_counts = np.asarray(self.class_counts, dtype=np.int64)
        n, c = self.features.shape[0], self.class_counts.shape[0]
        if c == 0:
            raise ParameterError("class count C must be >= 1")
        if self.class_counts.min() < 1:
            raise ParameterError("every class count must be >= 1")
        if self.labels.shape != (n,):
            raise ParameterError("labels length must equal feature row count")
        if self.class_counts.sum() != n:
            raise ParameterError("class counts must sum to the sample count")
        if self.labels.min() < 0 or self.labels.max() >= c:
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
    """Exponential count profile n_j = round(n_max * IF^(-(j-1)/(C-1))), min 1,
    for C >= 2 and 1 <= IF <= n_max (the `synth` command checks them)."""
    exponents = -np.arange(num_classes) / (num_classes - 1)
    raw = n_max * np.power(imbalance_factor, exponents)
    return np.maximum(1, np.floor(raw + 0.5).astype(np.int64))


def split_classes(class_counts) -> dict[str, np.ndarray]:
    """Partition class indices into many (> MANY_THRESHOLD), few (< FEW_THRESHOLD), medium."""
    counts = np.asarray(class_counts)
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
    feats = np.empty((labels.size, dim), dtype=np.float32)
    with np.errstate(over="ignore"):  # the float32 values are checked below
        for start in range(0, labels.size, SYNTH_BLOCK_ROWS):
            # consecutive draws of one Generator concatenate to the one-shot draw
            block = centers[labels[start : start + SYNTH_BLOCK_ROWS]]
            if noise_sigma > 0:
                block += noise_rng.normal(scale=noise_sigma, size=block.shape)
            feats[start : start + SYNTH_BLOCK_ROWS] = block
    if not np.isfinite(feats).all():
        raise ParameterError(
            f"class_sep {class_sep} and noise_sigma {noise_sigma} give features beyond float32"
        )
    return Dataset(features=feats, labels=labels, class_counts=counts)


def augment(batch, sigma_aug: float, seed) -> np.ndarray:
    """Seeded isotropic Gaussian jitter; sigma_aug = 0 is the identity."""
    if sigma_aug == 0:
        return np.array(batch, dtype=np.float64)
    x = np.asarray(batch, dtype=np.float64)
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
        fh.write(np.ascontiguousarray(dataset.features, dtype="<f4").data)
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
    if d == 0:
        raise FormatError("feature dim D is 0", 12)
    if c == 0:
        raise FormatError("class count C is 0", 16)
    feat_off = _HEADER.size
    label_off = feat_off + 4 * n * d
    count_off = label_off + 4 * n
    end = count_off + 4 * c
    if len(blob) < end:
        raise FormatError(f"truncated payload: need {end} bytes, have {len(blob)}", len(blob))
    if len(blob) > end:
        raise FormatError("trailing bytes after payload", end)
    feats = np.frombuffer(blob, dtype="<f4", count=n * d, offset=feat_off).reshape(n, d)
    finite = np.isfinite(feats)
    if not finite.all():
        bad = int(np.argmin(finite))  # the first non-finite value, row-major
        raise FormatError(f"feature {bad % d} of row {bad // d} is not finite", feat_off + 4 * bad)
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
