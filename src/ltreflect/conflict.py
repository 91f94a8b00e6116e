"""Gradient conflict detection and one-directional projection.

When the auxiliary gradient points against the task gradient (negative
cosine), the auxiliary part is projected onto the plane orthogonal to the
task gradient before the two are summed. The task gradient itself is
never altered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_ZERO_NORM = 1e-12


@dataclass
class GradPair:
    g_ltr: np.ndarray  # flat task gradient [P]
    g_aux: np.ndarray  # flat auxiliary gradient [P]
    layer_spans: list[tuple[str, int, int]]  # (name, start, len), tiling [0, P)

    def __post_init__(self):
        self.g_ltr = np.asarray(self.g_ltr, dtype=np.float64)
        self.g_aux = np.asarray(self.g_aux, dtype=np.float64)
        if self.g_ltr.shape != self.g_aux.shape or self.g_ltr.ndim != 1:
            raise ParameterError(
                f"gradients must be flat vectors of equal length, got "
                f"{self.g_ltr.shape} and {self.g_aux.shape}"
            )
        covered = 0
        for _, start, length in self.layer_spans:
            if start != covered or length <= 0:
                raise ParameterError("layer spans must tile [0, P) without overlap")
            covered += length
        if covered != self.g_ltr.size:
            raise ParameterError(
                f"layer spans cover {covered} entries, gradients have {self.g_ltr.size}"
            )


@dataclass
class ConflictStats:
    layer_names: list[str]
    conflicted: np.ndarray  # bool per layer span
    fraction: float  # conflicted layers / total layers


def cos_angle(a, b) -> float:
    """Cosine of the angle between two vectors; 0 when either is near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < _ZERO_NORM or nb < _ZERO_NORM:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def project_away(g_aux: np.ndarray, g_ltr: np.ndarray) -> np.ndarray:
    """Remove from g_aux its component along g_ltr: the plane projection
    with coefficient (g_aux . g_ltr) / ||g_ltr||^2."""
    coef = float(g_aux @ g_ltr) / float(g_ltr @ g_ltr)
    return g_aux - coef * g_ltr


def project_if_conflict(pair: GradPair) -> tuple[np.ndarray, bool]:
    """Combined update: project g_aux off g_ltr when their cosine is
    negative, then add g_ltr; otherwise the plain sum, bit-for-bit.
    A near-zero g_ltr never triggers projection (cos is defined as 0)."""
    if cos_angle(pair.g_aux, pair.g_ltr) < 0:
        corrected = project_away(pair.g_aux, pair.g_ltr)
        return corrected + pair.g_ltr, True
    return pair.g_aux + pair.g_ltr, False


def conflict_stats(pair: GradPair) -> ConflictStats:
    """Per-layer conflict flags (negative cosine of the layer sub-vectors)
    and the fraction of flagged layers."""
    names = [name for name, _, _ in pair.layer_spans]
    flags = np.zeros(len(names), dtype=bool)
    for i, (_, start, length) in enumerate(pair.layer_spans):
        sl = slice(start, start + length)
        flags[i] = cos_angle(pair.g_aux[sl], pair.g_ltr[sl]) < 0
    return ConflictStats(
        layer_names=names,
        conflicted=flags,
        fraction=float(flags.mean()) if len(names) else 0.0,
    )
