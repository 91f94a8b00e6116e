import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltreflect.conflict import GradPair, conflict_stats, cos_angle, project_if_conflict
from ltreflect.errors import ParameterError


def pair_of(g_ltr, g_aux, spans=None):
    g_ltr = np.asarray(g_ltr, dtype=float)
    if spans is None:
        spans = [("all", 0, g_ltr.size)]
    return GradPair(g_ltr=g_ltr, g_aux=np.asarray(g_aux, dtype=float), layer_spans=spans)


# --- cosine ---------------------------------------------------------------------


def test_cos_parallel_antiparallel_orthogonal():
    v = np.array([2.0, 1.0, -3.0])
    assert cos_angle(v, 3.0 * v) == pytest.approx(1.0)
    assert cos_angle(v, -v) == pytest.approx(-1.0)
    assert cos_angle([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cos_zero_norm_convention():
    assert cos_angle(np.zeros(3), np.ones(3)) == 0.0
    assert cos_angle(np.full(3, 1e-13), np.ones(3)) == 0.0


# --- projection --------------------------------------------------------------------


def test_projection_hand_example():
    pair = pair_of(g_ltr=[-1.0, 1.0], g_aux=[1.0, 0.0])
    g_rl, conflicted = project_if_conflict(pair)
    assert conflicted
    corrected = g_rl - pair.g_ltr
    assert np.allclose(corrected, [0.5, 0.5], atol=1e-15)
    assert np.allclose(g_rl, [-0.5, 1.5], atol=1e-15)
    assert abs(corrected @ pair.g_ltr) < 1e-15


def test_projection_full_cancellation():
    g = np.array([0.3, -0.7, 2.0])
    g_rl, conflicted = project_if_conflict(pair_of(g_ltr=g, g_aux=-g))
    assert conflicted
    assert np.allclose(g_rl, g, atol=1e-12)


def test_no_conflict_is_bitwise_pass_through():
    rng = np.random.default_rng(0)
    a = rng.normal(size=20)
    b = a + rng.normal(scale=0.1, size=20)  # strongly aligned
    pair = pair_of(g_ltr=a, g_aux=b)
    assert cos_angle(a, b) > 0
    g_rl, conflicted = project_if_conflict(pair)
    assert not conflicted
    assert np.array_equal(g_rl, b + a)


def test_degenerate_task_gradient_skips_projection():
    g_rl, conflicted = project_if_conflict(pair_of(g_ltr=np.zeros(3), g_aux=[1.0, 2.0, 3.0]))
    assert not conflicted
    assert np.array_equal(g_rl, [1.0, 2.0, 3.0])


def random_conflicting_pair(rng, size=30):
    a = rng.normal(size=size)
    b = rng.normal(size=size)
    if a @ b >= 0:
        b = b - 2.0 * (a @ b) / (a @ a) * a  # reflect to force conflict
    return pair_of(g_ltr=a, g_aux=b)


@given(st.integers(0, 500))
@settings(max_examples=100)
def test_projection_invariants(seed):
    rng = np.random.default_rng(seed)
    pair = random_conflicting_pair(rng)
    g_rl, conflicted = project_if_conflict(pair)
    assert conflicted
    corrected = g_rl - pair.g_ltr
    n_corr = np.linalg.norm(corrected)
    n_ltr = np.linalg.norm(pair.g_ltr)
    # orthogonality of the corrected auxiliary direction
    assert abs(corrected @ pair.g_ltr) <= 1e-9 * max(n_corr * n_ltr, 1e-30)
    # projection never lengthens
    assert n_corr <= np.linalg.norm(pair.g_aux) * (1 + 1e-12)
    # corrected update never opposes the task gradient
    assert cos_angle(g_rl - pair.g_ltr, pair.g_ltr) >= -1e-9
    # idempotence up to the orthogonality residual
    again, _ = project_if_conflict(pair_of(pair.g_ltr, corrected))
    assert np.linalg.norm((again - pair.g_ltr) - corrected) <= 1e-9 * max(n_corr, 1e-30)


# --- per-layer statistics -------------------------------------------------------------


def test_stats_aligned_and_flipped():
    g = np.arange(1.0, 9.0)
    spans = [("a", 0, 4), ("b", 4, 4)]
    assert conflict_stats(pair_of(g, g, spans)).fraction == 0.0
    assert conflict_stats(pair_of(g, -g, spans)).fraction == 1.0


def test_stats_blockwise_half():
    g_ltr = np.ones(8)
    g_aux = np.concatenate([np.ones(4), -np.ones(4)])
    stats = conflict_stats(pair_of(g_ltr, g_aux, [("w", 0, 4), ("b", 4, 4)]))
    assert stats.fraction == 0.5
    assert stats.conflicted.tolist() == [False, True]
    assert stats.layer_names == ["w", "b"]


def test_grad_pair_rejects_bad_spans():
    with pytest.raises(ParameterError):
        GradPair(np.ones(4), np.ones(4), layer_spans=[("a", 0, 2), ("b", 3, 1)])
    with pytest.raises(ParameterError):
        GradPair(np.ones(4), np.ones(3), layer_spans=[("a", 0, 4)])
