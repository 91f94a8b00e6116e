import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltreflect import losses
from ltreflect.errors import DimensionError, ParameterError

from oracles import fd_grad_logits, max_rel_err, mse_logits


def random_logits(seed, batch=5, classes=4, scale=2.0):
    return np.random.default_rng(seed).normal(scale=scale, size=(batch, classes))


# --- cross-entropy ----------------------------------------------------------


def test_ce_uniform_logits():
    out = losses.ce_loss(np.zeros((3, 4)), np.array([0, 1, 3]))
    assert abs(out.value - math.log(4)) < 1e-12


def test_ce_perfect_margin_goes_to_zero():
    logits = np.array([[60.0, 0.0, 0.0]])
    assert losses.ce_loss(logits, np.array([0])).value < 1e-12


def test_ce_known_value():
    out = losses.ce_loss(np.array([[2.0, 0.0]]), np.array([0]))
    assert abs(out.value - math.log(1.0 + math.exp(-2.0))) < 1e-12


def test_ce_gradient_matches_finite_differences():
    logits = random_logits(1)
    labels = np.array([0, 1, 2, 3, 0])
    out = losses.ce_loss(logits, labels)
    fd = fd_grad_logits(lambda v: losses.ce_loss(v, labels).value, logits)
    assert max_rel_err(out.dlogits, fd) < 1e-4


# --- balanced softmax -------------------------------------------------------


@given(st.integers(0, 200), st.integers(1, 1000))
def test_bsce_uniform_counts_is_ce_bit_for_bit(seed, count):
    logits = random_logits(seed)
    labels = np.array([0, 1, 2, 3, 0])
    counts = np.full(4, count)
    a = losses.bsce_loss(logits, labels, counts)
    b = losses.ce_loss(logits, labels)
    assert a.value == b.value
    assert np.array_equal(a.dlogits, b.dlogits)


def test_bsce_known_values():
    logits = np.array([[1.3, 1.3]])
    counts = np.array([100, 1])
    tail = losses.bsce_loss(logits, np.array([1]), counts)
    head = losses.bsce_loss(logits, np.array([0]), counts)
    assert abs(tail.value - math.log(101.0)) < 1e-12
    assert abs(head.value - math.log(101.0 / 100.0)) < 1e-12


def test_bsce_rejects_zero_count():
    with pytest.raises(ParameterError):
        losses.bsce_loss(np.zeros((1, 2)), np.array([0]), np.array([5, 0]))


def test_bsce_gradient_matches_finite_differences():
    logits = random_logits(2)
    labels = np.array([3, 1, 0, 2, 1])
    counts = np.array([100, 40, 9, 2])
    out = losses.bsce_loss(logits, labels, counts)
    fd = fd_grad_logits(lambda v: losses.bsce_loss(v, labels, counts).value, logits)
    assert max_rel_err(out.dlogits, fd) < 1e-4


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 16), st.integers(2, 20),
       st.sampled_from([1e-3, 1.0, 30.0]))
@settings(derandomize=True, max_examples=200, database=None)
def test_one_ce_of_shifted_logits_is_each_runs_own_ce_or_bsce(seed, runs, batch, classes, scale):
    """A lockstep group's LTR loss: one stacked ce_loss of the logits plus a
    [S, 1, C] shift (BSCE's log-prior, zero for CE) gives every run the
    bytes of its own call, also with logits that are exactly -0.0."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=(runs, batch, classes))
    logits[rng.random(logits.shape) < 0.1] = -0.0
    labels = rng.integers(0, classes, size=(runs, batch))
    counts = rng.integers(1, 500, size=classes)
    bsce = rng.random(runs) < 0.5
    shift = np.zeros((runs, 1, classes))
    shift[bsce] = losses.log_prior_shift(counts, classes)
    out = losses.ce_loss(logits + shift, labels)
    for s in range(runs):
        own = (losses.bsce_loss(logits[s], labels[s], counts) if bsce[s]
               else losses.ce_loss(logits[s], labels[s]))
        assert out.value[s].tobytes() == np.float64(own.value).tobytes()
        assert out.dlogits[s].tobytes() == own.dlogits.tobytes()


# --- distillation KL --------------------------------------------------------


def test_kl_zero_for_identical_inputs():
    logits = random_logits(3)
    for tau in (1.0, 2.0, 5.0):
        out = losses.kl_distill(logits, logits, tau)
        assert abs(out.value) < 1e-12
        assert np.max(np.abs(out.dlogits)) < 1e-15


def test_kl_known_value():
    # prev is (numerically) deterministic on class 0, cur is uniform
    prev = np.array([[80.0, 0.0]])
    cur = np.array([[0.0, 0.0]])
    out = losses.kl_distill(prev, cur, tau=1.0)
    assert abs(out.value - math.log(2)) < 1e-12


@given(st.integers(0, 300))
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    prev = rng.normal(scale=3.0, size=(4, 5))
    cur = rng.normal(scale=3.0, size=(4, 5))
    assert losses.kl_distill(prev, cur, tau=2.0).value >= -1e-12


def test_kl_zero_iff_equal_distributions():
    prev = np.array([[1.0, 2.0, 3.0]])
    cur = prev + 0.5  # shifted logits, same distribution
    assert abs(losses.kl_distill(prev, cur).value) < 1e-9
    assert losses.kl_distill(prev, prev + np.array([0.1, 0.0, 0.0])).value > 1e-9


def test_kl_shape_mismatch():
    with pytest.raises(DimensionError):
        losses.kl_distill(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("tau", [1.0, 2.0, 4.0])
def test_kl_gradient_matches_finite_differences(tau):
    prev = random_logits(4)
    cur = random_logits(5)
    out = losses.kl_distill(prev, cur, tau)
    fd = fd_grad_logits(lambda v: losses.kl_distill(prev, v, tau).value, cur)
    assert max_rel_err(out.dlogits, fd) < 1e-4


def test_high_temperature_gradient_matches_mse_direction():
    rng = np.random.default_rng(42)
    for _ in range(10):
        prev = rng.normal(size=(6, 8))
        cur = rng.normal(size=(6, 8))
        prev -= prev.mean(axis=1, keepdims=True)
        cur -= cur.mean(axis=1, keepdims=True)
        g_kl = losses.kl_distill(prev, cur, tau=100.0).dlogits.ravel()
        g_mse = mse_logits(prev, cur).dlogits.ravel()
        cos = g_kl @ g_mse / (np.linalg.norm(g_kl) * np.linalg.norm(g_mse))
        assert cos > 0.999


# --- soft-target cross-entropy ----------------------------------------------


def test_soft_ce_one_hot_reduces_to_ce():
    logits = random_logits(6)
    labels = np.array([0, 2, 1, 3, 2])
    onehot = np.eye(4)[labels]
    a = losses.soft_ce(logits, onehot)
    b = losses.ce_loss(logits, labels)
    assert abs(a.value - b.value) < 1e-12
    assert np.allclose(a.dlogits, b.dlogits, atol=1e-15)


def test_soft_ce_uniform_probs_scale_with_row_mass():
    logits = np.zeros((2, 5))
    targets = np.array([[0.2, 0.2, 0.2, 0.2, 0.2], [1.0, 0.5, 0.0, 0.0, 0.0]])
    out = losses.soft_ce(logits, targets)
    expected = np.mean(targets.sum(axis=1)) * math.log(5)
    assert abs(out.value - expected) < 1e-12


def test_soft_ce_zero_targets_zero_loss():
    out = losses.soft_ce(random_logits(7), np.zeros((5, 4)))
    assert out.value == 0.0


def test_soft_ce_gradient_matches_finite_differences():
    logits = random_logits(8)
    targets = np.abs(random_logits(9))
    out = losses.soft_ce(logits, targets)
    fd = fd_grad_logits(lambda v: losses.soft_ce(v, targets).value, logits)
    assert max_rel_err(out.dlogits, fd) < 1e-4


def test_soft_ce_is_linear_in_the_targets():
    # soft_ce(a*onehot + (1-a)*T) decomposes into a*ce + (1-a)*soft_ce(T):
    # the one-hot part of a reconstructed label always carries full CE weight
    logits = random_logits(15)
    labels = np.array([0, 1, 2, 3, 1])
    onehot = np.eye(4)[labels]
    targets = np.abs(random_logits(17))
    alpha = 0.7
    combined = losses.soft_ce(logits, alpha * onehot + (1 - alpha) * targets)
    ce_part = losses.ce_loss(logits, labels)
    soft_part = losses.soft_ce(logits, targets)
    assert abs(combined.value - (alpha * ce_part.value + (1 - alpha) * soft_part.value)) < 1e-12
    assert np.allclose(
        combined.dlogits,
        alpha * ce_part.dlogits + (1 - alpha) * soft_part.dlogits,
        atol=1e-15,
    )


# --- logit MSE ----------------------------------------------------------------


def test_mse_zero_for_equal_logits():
    logits = random_logits(10)
    assert mse_logits(logits, logits).value == 0.0


def test_mse_known_value():
    out = mse_logits(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
    assert out.value == 0.5


def test_mse_symmetric_in_sign_of_difference():
    prev = random_logits(11)
    cur = random_logits(12)
    a = mse_logits(prev, cur).value
    b = mse_logits(cur, prev).value
    assert a == b


def test_mse_gradient_matches_finite_differences():
    prev = random_logits(13)
    cur = random_logits(14)
    out = mse_logits(prev, cur)
    fd = fd_grad_logits(lambda v: mse_logits(prev, v).value, cur)
    assert max_rel_err(out.dlogits, fd) < 1e-4
