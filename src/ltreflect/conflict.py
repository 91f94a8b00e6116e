"""Gradient conflict detection and one-directional projection.

When the auxiliary gradient points against the task gradient (negative
cosine), the auxiliary part is projected onto the plane orthogonal to the
task gradient before the two are summed. The task gradient itself is
never altered.
"""

from __future__ import annotations

import numpy as np

_ZERO_NORM = 1e-12


def _conflicted(dot, aux_sq, ltr_sq):
    """cos < 0, where cos := 0 when either norm is below _ZERO_NORM,
    decided from the dot product and squared norms."""
    return (dot < 0) & (np.sqrt(aux_sq) >= _ZERO_NORM) & (np.sqrt(ltr_sq) >= _ZERO_NORM)


def project_if_conflict(g_ltr: np.ndarray, g_aux: np.ndarray) -> tuple[np.ndarray, bool]:
    """Combined update: when the flat gradients conflict, remove from g_aux
    its component along g_ltr (coefficient (g_aux . g_ltr) / ||g_ltr||^2),
    then add g_ltr; otherwise the plain sum, bit-for-bit. A near-zero
    g_ltr or g_aux never triggers projection."""
    dot = float(g_aux @ g_ltr)
    ltr_sq = float(g_ltr @ g_ltr)
    if _conflicted(dot, float(g_aux @ g_aux), ltr_sq):
        return g_aux - (dot / ltr_sq) * g_ltr + g_ltr, True
    return g_aux + g_ltr, False


def conflict_stats(g_ltr: np.ndarray, g_aux: np.ndarray, starts) -> np.ndarray:
    """Per-layer conflict flags (bool per layer) under the same rule;
    starts[i] is layer i's first flat index, and every layer is non-empty."""
    products = (g_aux * g_ltr, g_aux * g_aux, g_ltr * g_ltr)
    return _conflicted(*(np.add.reduceat(p, starts) for p in products))
