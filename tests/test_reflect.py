import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltreflect import losses, nn, reflect
from ltreflect.errors import DimensionError, ParameterError

from oracles import per_class_kl


# --- cache + correctness filter -------------------------------------------------


def test_cache_marks_correct_rows():
    cache = reflect.empty_cache(4, 3)
    logits = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 5.0]])
    reflect.cache_update(cache, [0, 2], logits, np.array([0, 2]))
    assert cache.correct_mask[0] and cache.correct_mask[2]
    assert not cache.correct_mask[1] and not cache.correct_mask[3]
    assert np.array_equal(cache.prev_logits[2], logits[1])


def test_cache_all_wrong_batch():
    cache = reflect.empty_cache(2, 2)
    reflect.cache_update(cache, [0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 0]))
    assert not cache.correct_mask.any()


def test_cache_argmax_tie_breaks_low():
    cache = reflect.empty_cache(2, 3)
    tied = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 0.0]])
    reflect.cache_update(cache, [0, 1], tied, np.array([0, 1]))
    assert cache.correct_mask[0]  # class 0 wins the tie
    assert not cache.correct_mask[1]


# --- filtered distillation --------------------------------------------------------


def test_kr_empty_filter_returns_zero():
    cache = reflect.empty_cache(3, 2)  # mask all False
    out = reflect.kr_batch_loss(cache, [0, 1, 2], np.ones((3, 2)), tau=2.0)
    assert out.value == 0.0
    assert np.array_equal(out.dlogits, np.zeros((3, 2)))


def test_kr_zero_when_current_matches_cache():
    cache = reflect.empty_cache(2, 2)
    logits = np.array([[4.0, 0.0], [0.0, 4.0]])
    reflect.cache_update(cache, [0, 1], logits, np.array([0, 1]))
    reflect.temper(cache, 2.0)
    out = reflect.kr_batch_loss(cache, [0, 1], logits, tau=2.0)
    assert abs(out.value) < 1e-12


def test_kr_averages_over_qualifying_rows_only():
    cache = reflect.empty_cache(2, 2)
    prev = np.array([[80.0, 0.0], [0.0, 80.0]])
    reflect.cache_update(cache, [0, 1], prev, np.array([0, 0]))  # row 1 wrong
    reflect.temper(cache, 1.0)
    cur = np.zeros((2, 2))  # uniform
    out = reflect.kr_batch_loss(cache, [0, 1], cur, tau=1.0)
    assert abs(out.value - math.log(2)) < 1e-12
    assert np.array_equal(out.dlogits[1], np.zeros(2))  # non-filtered row untouched


@given(st.integers(0, 100))
def test_kr_gradient_rows_exactly_zero_outside_filter(seed):
    rng = np.random.default_rng(seed)
    n, c = 12, 4
    cache = reflect.empty_cache(n, c)
    logits = rng.normal(size=(n, c))
    labels = rng.integers(0, c, size=n)
    reflect.cache_update(cache, np.arange(n), logits, labels)
    idx = rng.permutation(n)[:8]
    out = reflect.kr_batch_loss(cache, idx, rng.normal(size=(8, c)), tau=2.0)
    for row, ds_index in enumerate(idx):
        if not cache.correct_mask[ds_index]:
            assert np.array_equal(out.dlogits[row], np.zeros(c))


def test_kr_targets_follow_cache_updates_and_tau():
    rng = np.random.default_rng(23)
    n, c = 12, 4
    labels = rng.integers(0, c, size=n)
    cache = reflect.empty_cache(n, c)
    reflect.cache_update(cache, np.arange(n), rng.normal(size=(n, c)), labels)
    idx = rng.permutation(n)[:8]
    cur = rng.normal(size=(8, c))
    # rewrite the batch's rows with new logits that the filter passes
    fresh = rng.normal(size=(8, c))
    fresh[np.arange(8), labels[idx]] = fresh.max(axis=1) + 1.0
    reflect.cache_update(cache, idx, fresh, labels[idx])
    raw = cache.prev_logits.copy()
    for tau in (2.0, 3.0):  # the rows tempered at tau read as kl_distill of the raw rows
        cache.prev_logits[:] = raw
        reflect.temper(cache, tau)
        out = reflect.kr_batch_loss(cache, idx, cur, tau)
        ref = losses.kl_distill(raw[idx], cur, tau)
        assert out.value == ref.value
        assert out.dlogits.tobytes() == ref.dlogits.tobytes()


# --- feature store + median class centers ---------------------------------------------


def one_class_median(feats):
    return reflect.class_centers_median(feats, np.zeros(len(feats), dtype=np.int64), 1)[0]


def test_median_single_sample_is_itself():
    assert np.array_equal(one_class_median(np.array([[1.0, 2.0, 3.0]])), [1.0, 2.0, 3.0])


def test_median_ignores_outlier():
    feats = np.array([[1.0], [100.0], [2.0]])
    assert one_class_median(feats)[0] == 2.0  # the mean would be 34.33


def test_median_even_count_uses_midpoint():
    feats = np.array([[1.0, 10.0], [3.0, 20.0]])
    assert np.array_equal(one_class_median(feats), [2.0, 15.0])


@given(st.integers(0, 50))
def test_median_order_and_pairing_invariance(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(9, 4))
    base = one_class_median(feats)
    shuffled = one_class_median(feats[rng.permutation(9)])
    assert np.array_equal(base, shuffled)
    # replicating the sample set (every sample paired with its own copy)
    # cannot move a per-dimension median
    doubled = np.concatenate([feats, feats])
    assert np.array_equal(one_class_median(doubled), base)


def test_feature_store_keeps_arrival_order():
    # each batch lands at its dataset positions, so the arrival sequence
    # reads back through the indices it came with
    rng = np.random.default_rng(8)
    batches = [np.array([7, 0, 3, 10, 5]), np.array([1, 11, 2]), np.array([9, 4, 6, 8])]
    store = reflect.FeatureStore(12, 3)
    arrived = []
    for idx in batches:
        feats = rng.normal(size=(idx.size, 3))
        store.add(idx, feats)
        arrived.append(feats)
    assert np.array_equal(store.features[np.concatenate(batches)], np.concatenate(arrived))


@given(st.integers(0, 10_000), st.integers(1, 9))
@settings(max_examples=80)
def test_store_medians_equal_arrival_order_medians_bitwise(seed, batch_size):
    """Random batchings of a shuffled epoch, odd and even class counts, and
    features tied within a class (the rectifier's exact zeros among them)."""
    rng = np.random.default_rng(seed)
    num_classes = 4
    labels = rng.permutation(np.repeat(np.arange(num_classes), rng.integers(1, 7, num_classes)))
    n = labels.size
    feats = np.column_stack(
        [rng.normal(size=n), rng.integers(0, 3, size=n) / 2.0, np.zeros(n)]
    )
    store = reflect.FeatureStore(n, 3)
    arrived = [[] for _ in range(num_classes)]
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        store.add(idx, feats[idx])
        for i in idx:
            arrived[labels[i]].append(feats[i])
    centers = reflect.class_centers_median(store.features, labels, num_classes)
    expected = np.array([np.median(rows, axis=0) for rows in arrived])
    assert centers.tobytes() == expected.tobytes()


# --- similarity matrix + soft labels -----------------------------------------------


def test_similarity_identical_and_orthogonal():
    m = reflect.similarity_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert abs(m[0, 1] - 1.0) < 1e-12
    assert abs(m[0, 2]) < 1e-12


def test_similarity_hand_value():
    m = reflect.similarity_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert abs(m[0, 1] - 1.0 / math.sqrt(2)) < 1e-12


def test_similarity_zero_norm_center():
    m = reflect.similarity_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert m[0, 0] == 1.0
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0


@given(st.integers(0, 200))
@settings(max_examples=60)
def test_similarity_matrix_properties(seed):
    rng = np.random.default_rng(seed)
    m = reflect.similarity_matrix(rng.normal(size=(6, 5)))
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    assert m.min() >= -1.0 and m.max() <= 1.0


def test_similarity_nonnegative_under_rectifier_features():
    rng = np.random.default_rng(5)
    params = nn.init_params(6, 4, 8, rng)
    feats = nn.forward(params, rng.normal(size=(40, 6))).features  # relu outputs
    labels = rng.integers(0, 4, size=40)
    store = reflect.FeatureStore(40, 8)
    store.add(np.arange(40), feats)
    m = reflect.similarity_matrix(reflect.class_centers_median(store.features, labels, 4))
    assert m.min() >= 0.0


def test_reconstruct_alpha_extremes_and_midpoint():
    m = np.array([[1.0, 0.6], [0.6, 1.0]])
    assert np.array_equal(reflect.reconstruct_labels(m, 1.0), np.eye(2))
    assert np.array_equal(reflect.reconstruct_labels(m, 0.0), m)
    mid = reflect.reconstruct_labels(m, 0.5)
    assert np.allclose(mid[0], [1.0, 0.3], atol=1e-15)


# --- per-class divergence diagnostic -------------------------------------------------


def test_per_class_kl_zero_for_identical_epochs():
    logits = np.random.default_rng(0).normal(size=(10, 3))
    labels = np.random.default_rng(1).integers(0, 3, size=10)
    out = reflect.per_class_adjacent_kl(logits, logits, labels, num_classes=3)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_per_class_kl_hand_computed():
    prev = np.array([[80.0, 0.0], [0.0, 0.0]])
    cur = np.array([[0.0, 0.0], [0.0, 0.0]])
    labels = np.array([0, 1])
    out = reflect.per_class_adjacent_kl(prev, cur, labels, num_classes=2)
    assert abs(out[0] - math.log(2)) < 1e-12
    assert abs(out[1]) < 1e-12


def test_per_class_kl_is_order_free():
    rng = np.random.default_rng(2)
    prev, cur = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    labels = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    base = reflect.per_class_adjacent_kl(prev, cur, labels, num_classes=2)
    perm = rng.permutation(8)
    again = reflect.per_class_adjacent_kl(prev[perm], cur[perm], labels[perm], num_classes=2)
    assert np.allclose(base, again, atol=1e-12)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 100),
    st.integers(1, 300),
    st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
)
@settings(derandomize=True, deadline=None)
def test_per_class_kl_one_pass_equals_kl_distill_per_class_bitwise(seed, num_classes, big, scale):
    """Shuffled labels, unequal class counts (1-row classes, and one class
    long enough for numpy's blocked pairwise sum), and logit scales up to
    1e3, where some prev probabilities underflow to exactly 0."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 9, size=num_classes)
    counts[rng.integers(num_classes)] = big
    labels = rng.permutation(np.repeat(np.arange(num_classes), counts))
    prev = rng.normal(size=(labels.size, num_classes)) * scale
    cur = rng.normal(size=prev.shape) * scale
    inputs = [arr.copy() for arr in (prev, cur, labels)]
    out = reflect.per_class_adjacent_kl(prev, cur, labels, num_classes)
    assert out.tobytes() == per_class_kl(prev, cur, labels, num_classes).tobytes()
    assert [arr.tobytes() for arr in (prev, cur, labels)] == [arr.tobytes() for arr in inputs]


@pytest.mark.parametrize(
    "labels, error",
    [
        ([0, 1, 2], ParameterError),  # a label >= num_classes
        ([0, 1, -1], ParameterError),
        ([0, 0, 0], ParameterError),  # class 1 has no row
        ([0, 1], DimensionError),
        ([[0, 1, 1]], DimensionError),
    ],
    ids=["too-large", "negative", "empty-class", "short", "2-d"],
)
def test_per_class_kl_rejects_bad_labels(labels, error):
    logits = np.zeros((3, 2))
    with pytest.raises(error):
        reflect.per_class_adjacent_kl(logits, logits, np.array(labels), num_classes=2)


# --- CSV dumps -------------------------------------------------------------------------


def test_matrix_csv_header_is_class_indices(tmp_path):
    path = tmp_path / "m.csv"
    reflect.write_matrix_csv(path, np.eye(3))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "0,1,2"
    assert len(lines) == 4


def test_class_kl_series_layout(tmp_path):
    path = tmp_path / "kl.csv"
    reflect.write_class_kl_series(path, [(1, [0.5, 0.25]), (2, [0.1, 0.2])])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,0,1"
    assert lines[1].startswith("1,")
