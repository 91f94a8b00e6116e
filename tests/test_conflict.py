import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltreflect.conflict import conflict_stats, cos_angle, project_if_conflict


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
    g_ltr = np.array([-1.0, 1.0])
    g_rl, conflicted = project_if_conflict(g_ltr, np.array([1.0, 0.0]))
    assert conflicted
    corrected = g_rl - g_ltr
    assert np.allclose(corrected, [0.5, 0.5], atol=1e-15)
    assert np.allclose(g_rl, [-0.5, 1.5], atol=1e-15)
    assert abs(corrected @ g_ltr) < 1e-15


def test_projection_full_cancellation():
    g = np.array([0.3, -0.7, 2.0])
    g_rl, conflicted = project_if_conflict(g, -g)
    assert conflicted
    assert np.allclose(g_rl, g, atol=1e-12)


def test_no_conflict_is_bitwise_pass_through():
    rng = np.random.default_rng(0)
    a = rng.normal(size=20)
    b = a + rng.normal(scale=0.1, size=20)  # strongly aligned
    assert cos_angle(a, b) > 0
    g_rl, conflicted = project_if_conflict(a, b)
    assert not conflicted
    assert np.array_equal(g_rl, b + a)


def test_degenerate_task_gradient_skips_projection():
    g_rl, conflicted = project_if_conflict(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert not conflicted
    assert np.array_equal(g_rl, [1.0, 2.0, 3.0])


def random_conflicting_pair(rng, size=30):
    a = rng.normal(size=size)
    b = rng.normal(size=size)
    if a @ b >= 0:
        b = b - 2.0 * (a @ b) / (a @ a) * a  # reflect to force conflict
    return a, b


@given(st.integers(0, 500))
@settings(max_examples=100)
def test_projection_invariants(seed):
    rng = np.random.default_rng(seed)
    g_ltr, g_aux = random_conflicting_pair(rng)
    g_rl, conflicted = project_if_conflict(g_ltr, g_aux)
    assert conflicted
    corrected = g_rl - g_ltr
    n_corr = np.linalg.norm(corrected)
    n_ltr = np.linalg.norm(g_ltr)
    # orthogonality of the corrected auxiliary direction
    assert abs(corrected @ g_ltr) <= 1e-9 * max(n_corr * n_ltr, 1e-30)
    # projection never lengthens
    assert n_corr <= np.linalg.norm(g_aux) * (1 + 1e-12)
    # corrected update never opposes the task gradient
    assert cos_angle(g_rl - g_ltr, g_ltr) >= -1e-9
    # idempotence up to the orthogonality residual
    again, _ = project_if_conflict(g_ltr, corrected)
    assert np.linalg.norm((again - g_ltr) - corrected) <= 1e-9 * max(n_corr, 1e-30)


# --- per-layer statistics -------------------------------------------------------------


def test_stats_aligned_and_flipped():
    g = np.arange(1.0, 9.0)
    starts = [0, 4]
    assert conflict_stats(g, g, starts).mean() == 0.0
    assert conflict_stats(g, -g, starts).mean() == 1.0


def test_stats_blockwise_half():
    g_ltr = np.ones(8)
    g_aux = np.concatenate([np.ones(4), -np.ones(4)])
    flags = conflict_stats(g_ltr, g_aux, [0, 4])
    assert flags.mean() == 0.5
    assert flags.tolist() == [False, True]


# (size, aux scale, ltr scale): scales 1e-13 and 0 exercise the zero-norm rule
scale_st = st.sampled_from([1.0, 1e-13, 0.0])
layer_st = st.tuples(st.integers(1, 6), scale_st, scale_st)


@given(st.integers(0, 10_000), st.lists(layer_st, min_size=1, max_size=4))
@settings(max_examples=200)
def test_stats_match_the_per_layer_cosine_loop(seed, layers):
    rng = np.random.default_rng(seed)
    sizes = [size for size, _, _ in layers]
    g_ltr = np.concatenate([ltr * rng.normal(size=size) for size, _, ltr in layers])
    g_aux = np.concatenate([aux * rng.normal(size=size) for size, aux, _ in layers])
    starts = np.cumsum([0, *sizes[:-1]])
    expected = [
        cos_angle(g_aux[start : start + size], g_ltr[start : start + size]) < 0
        for start, size in zip(starts, sizes)
    ]
    assert conflict_stats(g_ltr, g_aux, starts).tolist() == expected


def test_stats_zero_layer_is_not_flagged():
    g_aux = np.array([0.0, 0.0, 0.0, -1.0, -1.0, -1.0])
    assert conflict_stats(np.ones(6), g_aux, [0, 3]).tolist() == [False, True]


def test_stats_exactly_orthogonal_layer_is_not_flagged():
    g_ltr = np.array([1.0, 0.0, 1.0, 1.0])
    g_aux = np.array([0.0, -1.0, -1.0, -1.0])
    assert conflict_stats(g_ltr, g_aux, [0, 2]).tolist() == [False, True]


def test_near_zero_aux_gradient_is_plain_sum():
    g_ltr = np.array([1.0, 2.0, 3.0])
    g_aux = -1e-13 * g_ltr
    assert g_aux @ g_ltr < 0 and np.linalg.norm(g_aux) < 1e-12
    g_rl, conflicted = project_if_conflict(g_ltr, g_aux)
    assert not conflicted
    assert np.array_equal(g_rl, g_aux + g_ltr)
