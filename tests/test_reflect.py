import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltreflect import losses, nn, reflect
from ltreflect.errors import ParameterError, StateError


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


def test_cache_rejects_out_of_range_index():
    cache = reflect.empty_cache(2, 2)
    with pytest.raises(ParameterError):
        reflect.cache_update(cache, [5], np.zeros((1, 2)), np.array([0]))


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
    out = reflect.kr_batch_loss(cache, [0, 1], logits, tau=2.0)
    assert abs(out.value) < 1e-12


def test_kr_averages_over_qualifying_rows_only():
    cache = reflect.empty_cache(2, 2)
    prev = np.array([[80.0, 0.0], [0.0, 80.0]])
    reflect.cache_update(cache, [0, 1], prev, np.array([0, 0]))  # row 1 wrong
    cur = np.zeros((2, 2))  # uniform
    out = reflect.kr_batch_loss(cache, [0, 1], cur, tau=1.0)
    assert abs(out.value - math.log(2)) < 1e-12
    assert np.array_equal(out.dlogits[1], np.zeros(2))  # non-filtered row untouched


def test_kr_requires_cache():
    with pytest.raises(StateError):
        reflect.kr_batch_loss(None, [0], np.zeros((1, 2)), tau=1.0)


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
    reflect.kr_batch_loss(cache, idx, cur, tau=2.0)  # takes the tempered targets
    # rewrite the batch's rows with new logits that the filter passes
    fresh = rng.normal(size=(8, c))
    fresh[np.arange(8), labels[idx]] = fresh.max(axis=1) + 1.0
    reflect.cache_update(cache, idx, fresh, labels[idx])
    for tau in (2.0, 3.0):
        out = reflect.kr_batch_loss(cache, idx, cur, tau)
        ref = losses.kl_distill(cache.prev_logits[idx], cur, tau)
        assert out.value == ref.value
        assert out.dlogits.tobytes() == ref.dlogits.tobytes()


def test_mse_batch_loss_same_filter():
    cache = reflect.empty_cache(2, 2)
    prev = np.array([[1.0, 0.0], [0.0, 1.0]])
    reflect.cache_update(cache, [0, 1], prev, np.array([0, 0]))
    out = reflect.mse_batch_loss(cache, [0, 1], np.zeros((2, 2)))
    assert out.value == 0.5  # only row 0 qualifies
    assert np.array_equal(out.dlogits[1], np.zeros(2))


# --- median class centers ----------------------------------------------------------


def test_median_single_sample_is_itself():
    centers = reflect.class_centers_median([np.array([[1.0, 2.0, 3.0]])])
    assert np.array_equal(centers.centers[0], [1.0, 2.0, 3.0])
    assert centers.valid[0]


def test_median_ignores_outlier():
    feats = np.array([[1.0], [100.0], [2.0]])
    centers = reflect.class_centers_median([feats])
    assert centers.centers[0, 0] == 2.0  # the mean would be 34.33


def test_median_even_count_uses_midpoint():
    feats = np.array([[1.0, 10.0], [3.0, 20.0]])
    centers = reflect.class_centers_median([feats])
    assert np.array_equal(centers.centers[0], [2.0, 15.0])


def test_median_empty_class_marked_invalid():
    centers = reflect.class_centers_median([np.ones((2, 3)), None])
    assert centers.valid[0] and not centers.valid[1]


@given(st.integers(0, 50))
def test_median_order_and_pairing_invariance(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(9, 4))
    base = reflect.class_centers_median([feats]).centers[0]
    shuffled = reflect.class_centers_median([feats[rng.permutation(9)]]).centers[0]
    assert np.array_equal(base, shuffled)
    # replicating the sample set (every sample paired with its own copy)
    # cannot move a per-dimension median
    doubled = np.concatenate([feats, feats])
    assert np.array_equal(reflect.class_centers_median([doubled]).centers[0], base)


# --- similarity matrix + soft labels -----------------------------------------------


def centers_of(rows):
    arr = np.asarray(rows, dtype=float)
    return reflect.ClassCenters(centers=arr, valid=np.ones(len(arr), dtype=bool))


def test_similarity_identical_and_orthogonal():
    m = reflect.similarity_matrix(centers_of([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert abs(m[0, 1] - 1.0) < 1e-12
    assert abs(m[0, 2]) < 1e-12


def test_similarity_hand_value():
    m = reflect.similarity_matrix(centers_of([[1.0, 0.0], [1.0, 1.0]]))
    assert abs(m[0, 1] - 1.0 / math.sqrt(2)) < 1e-12


def test_similarity_zero_norm_center():
    m = reflect.similarity_matrix(centers_of([[0.0, 0.0], [1.0, 0.0]]))
    assert m[0, 0] == 1.0
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_similarity_rejects_invalid_centers():
    centers = reflect.ClassCenters(
        centers=np.zeros((3, 2)), valid=np.array([True, False, False])
    )
    with pytest.raises(StateError, match=r"\[1, 2\]"):
        reflect.similarity_matrix(centers)


@given(st.integers(0, 200))
@settings(max_examples=60)
def test_similarity_matrix_properties(seed):
    rng = np.random.default_rng(seed)
    m = reflect.similarity_matrix(centers_of(rng.normal(size=(6, 5))))
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    assert m.min() >= -1.0 and m.max() <= 1.0


def test_similarity_nonnegative_under_rectifier_features():
    rng = np.random.default_rng(5)
    params = nn.init_params(6, 4, 8, rng)
    feats = nn.forward(params, rng.normal(size=(40, 6))).features  # relu outputs
    labels = rng.integers(0, 4, size=40)
    store = reflect.FeatureStore(4)
    store.add(labels, feats)
    centers = reflect.class_centers_median(store.drain())
    m = reflect.similarity_matrix(centers)
    assert m.min() >= 0.0


def test_reconstruct_alpha_extremes_and_midpoint():
    m = np.array([[1.0, 0.6], [0.6, 1.0]])
    assert np.array_equal(reflect.reconstruct_labels(m, 1.0), np.eye(2))
    assert np.array_equal(reflect.reconstruct_labels(m, 0.0), m)
    mid = reflect.reconstruct_labels(m, 0.5)
    assert np.allclose(mid[0], [1.0, 0.3], atol=1e-15)


def test_reconstruct_rejects_bad_alpha():
    with pytest.raises(ParameterError):
        reflect.reconstruct_labels(np.eye(2), 1.5)


def test_feature_store_drains_and_resets():
    store = reflect.FeatureStore(2)
    store.add(np.array([0, 1, 0]), np.arange(6.0).reshape(3, 2))
    first = store.drain()
    assert first[0].shape == (2, 2) and first[1].shape == (1, 2)
    assert all(chunk is None for chunk in store.drain())


def test_feature_store_keeps_arrival_order():
    # class 2 is missing from the second batch, class 3 never arrives
    rng = np.random.default_rng(8)
    batches = [np.array([2, 0, 1, 2, 0]), np.array([1, 0, 0]), np.array([0, 2, 1, 1])]
    store = reflect.FeatureStore(4)
    expected = [[] for _ in range(4)]
    for labels in batches:
        feats = rng.normal(size=(labels.size, 3))
        store.add(labels, feats)
        for c in range(4):
            expected[c].append(feats[labels == c])
    drained = store.drain()
    for c in range(3):
        assert np.array_equal(drained[c], np.concatenate(expected[c]))
    assert drained[3] is None
    assert all(chunk is None for chunk in store.drain())


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


def test_per_class_kl_order_free_and_flags_absent():
    rng = np.random.default_rng(2)
    prev, cur = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    labels = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    base = reflect.per_class_adjacent_kl(prev, cur, labels, num_classes=3)
    perm = rng.permutation(8)
    again = reflect.per_class_adjacent_kl(prev[perm], cur[perm], labels[perm], num_classes=3)
    assert np.allclose(base[:2], again[:2], atol=1e-12)
    assert np.isnan(base[2])  # class 2 absent


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
