import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltreflect import data
from ltreflect.errors import FormatError, ParameterError


# --- count profile -----------------------------------------------------------


def test_counts_balanced_when_if_is_one():
    counts = data.longtail_counts(10, 200, 1.0)
    assert np.array_equal(counts, np.full(10, 200))


def test_counts_two_class_closed_form():
    assert np.array_equal(data.longtail_counts(2, 100, 100.0), [100, 1])


def test_counts_cifar_style_profile():
    counts = data.longtail_counts(100, 500, 100.0)
    assert counts[0] == 500
    assert counts[-1] == 5


@given(
    st.integers(2, 60),
    st.integers(10, 2000),
    st.floats(1.0, 500.0, allow_nan=False),
)
def test_counts_non_increasing_with_matching_extremes(classes, n_max, factor):
    if n_max < factor:
        n_max = int(factor) + 1
    counts = data.longtail_counts(classes, n_max, factor)
    assert (np.diff(counts) <= 0).all()
    assert counts[0] == n_max
    # the smallest count is the ideal n_max/IF up to one rounding unit
    assert counts[-1] == max(1, int(np.floor(n_max / factor + 0.5)))


# --- synthesis -----------------------------------------------------------------


def test_synth_separable_limit_is_perfectly_classifiable():
    counts = np.full(5, 30)
    ds = data.synth_gaussians(5, 8, counts, class_sep=50.0, noise_sigma=1e-6, seed=3)
    # independent oracle: nearest estimated class mean
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(5)])
    dists = ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2)
    assert (dists.argmin(axis=1) == ds.labels).mean() == 1.0


def test_synth_full_overlap_collapses_pair_centers():
    counts = np.full(4, 50)
    ds = data.synth_gaussians(
        4, 6, counts, class_sep=5.0, noise_sigma=1e-9, similarity_pairs=[(0, 3, 1.0)], seed=4
    )
    head = ds.features[ds.labels == 0].mean(axis=0)
    tail = ds.features[ds.labels == 3].mean(axis=0)
    assert np.allclose(head, tail, atol=1e-6)


def test_synth_default_config_is_seed_deterministic():
    counts = data.longtail_counts(20, 500, 100.0)
    pairs = [(i, 19 - i, 0.8) for i in range(4)]
    a = data.synth_gaussians(20, 32, counts, 3.0, 1.0, pairs, seed=7)
    b = data.synth_gaussians(20, 32, counts, 3.0, 1.0, pairs, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_independent_noise_seed_shares_centers_only():
    counts = np.full(3, 40)
    a = data.synth_gaussians(3, 4, counts, 10.0, 0.5, seed=5)
    b = data.synth_gaussians(3, 4, counts, 10.0, 0.5, seed=5, noise_seed=6)
    assert not np.array_equal(a.features, b.features)
    for c in range(3):
        assert np.allclose(
            a.features[a.labels == c].mean(axis=0),
            b.features[b.labels == c].mean(axis=0),
            atol=0.5,
        )


@pytest.mark.parametrize("geometry", [{"class_sep": 1e308}, {"noise_sigma": 1e308}, {"noise_sigma": 1e39}])
def test_synth_rejects_features_beyond_float32(geometry):
    """Geometry whose float32 features would overflow is an argument error,
    raised without a numpy overflow warning (pytest makes one a failure)."""
    with pytest.raises(ParameterError, match="beyond float32"):
        data.synth_gaussians(3, 4, np.full(3, 5), **geometry)


# --- class splits ----------------------------------------------------------------


def test_split_all_many():
    part = data.split_classes(np.full(6, 500))
    assert np.array_equal(part["many"], np.arange(6))
    assert part["medium"].size == 0 and part["few"].size == 0


def test_split_threshold_edges():
    part = data.split_classes([101, 100, 20, 19])
    assert np.array_equal(part["many"], [0])
    assert np.array_equal(part["medium"], [1, 2])
    assert np.array_equal(part["few"], [3])


def test_split_single_few_class():
    part = data.split_classes([5])
    assert np.array_equal(part["few"], [0])


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=40))
def test_split_is_a_partition(counts):
    part = data.split_classes(sorted(counts, reverse=True))
    merged = np.concatenate([part["many"], part["medium"], part["few"]])
    assert sorted(merged.tolist()) == list(range(len(counts)))


# --- augmentation ------------------------------------------------------------------


def test_augment_zero_sigma_is_identity():
    batch = np.random.default_rng(0).normal(size=(8, 3))
    # float32 is how datasets store features
    for source in (batch, batch.astype(np.float32)):
        out = data.augment(source, 0.0, seed=1)
        assert out.dtype == np.float64
        assert np.array_equal(out, source)
        assert not np.shares_memory(out, source)


def test_augment_fixed_seed_reproduces():
    batch = np.zeros((4, 4))
    a = data.augment(batch, 0.3, seed=9)
    b = data.augment(batch, 0.3, seed=9)
    assert np.array_equal(a, b)


def test_augment_noise_scale_monte_carlo():
    batch = np.zeros((10_000, 8))
    out = data.augment(batch, 0.1, seed=10)
    stds = (out - batch).std(axis=0)
    assert np.all(np.abs(stds - 0.1) < 0.005)  # within 5% of 0.1


# --- persistence ---------------------------------------------------------------------


def make_dataset(seed=0, classes=4):
    counts = data.longtail_counts(classes, 40, 10.0)
    return data.synth_gaussians(classes, 5, counts, 4.0, 1.0, seed=seed)


def test_save_load_round_trip(tmp_path):
    ds = make_dataset()
    path = tmp_path / "ds.ltds"
    data.save_dataset(ds, path)
    loaded = data.load_dataset(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.class_counts, ds.class_counts)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_save_load_round_trip_property(tmp_path_factory, seed):
    ds = make_dataset(seed=seed, classes=3)
    path = tmp_path_factory.mktemp("rt") / "ds.ltds"
    data.save_dataset(ds, path)
    loaded = data.load_dataset(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)


def test_load_rejects_bad_magic(tmp_path):
    ds = make_dataset()
    path = tmp_path / "ds.ltds"
    data.save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"XXXX"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        data.load_dataset(path)
    assert err.value.offset == 0


def test_load_rejects_truncation(tmp_path):
    ds = make_dataset()
    path = tmp_path / "ds.ltds"
    data.save_dataset(ds, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        data.load_dataset(path)


def test_load_rejects_count_mismatch(tmp_path):
    ds = make_dataset()
    path = tmp_path / "ds.ltds"
    data.save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    # bump the last class count so sum(counts) != N
    count_off = 20 + 4 * ds.num_samples * ds.dim + 4 * ds.num_samples
    last_off = count_off + 4 * (ds.num_classes - 1)
    old = int.from_bytes(blob[last_off : last_off + 4], "little")
    blob[last_off : last_off + 4] = (old + 1).to_bytes(4, "little")
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        data.load_dataset(path)
    assert err.value.offset == count_off


def test_load_rejects_zero_count_class(tmp_path):
    path = tmp_path / "ds.ltds"
    path.write_bytes(ltds_blob(5, 2, [3, 2, 0, 0]))
    with pytest.raises(FormatError) as err:
        data.load_dataset(path)
    count_off = 20 + 4 * 5 * 2 + 4 * 5
    assert err.value.offset == count_off + 4 * 2
    assert "class 2 has count 0" in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_a_non_finite_feature_at_its_offset(tmp_path, value):
    ds = make_dataset()
    path = tmp_path / "ds.ltds"
    data.save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    row, col = 7, 3
    offset = 20 + 4 * (row * ds.dim + col)
    blob[offset : offset + 4] = np.array(value, dtype="<f4").tobytes()
    blob[offset + 8 : offset + 12] = np.array(np.nan, dtype="<f4").tobytes()  # a later one
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=f"feature {col} of row {row} is not finite") as err:
        data.load_dataset(path)
    assert err.value.offset == offset


def ltds_blob(n, d, counts):
    """A file whose header and payload sizes agree: zero features, labels by count."""
    labels = np.repeat(np.arange(len(counts)), counts)
    return (
        struct.pack("<4sIIII", b"LTDS", 1, n, d, len(counts))
        + np.zeros(n * d, dtype="<f4").tobytes()
        + labels.astype("<u4").tobytes()
        + np.asarray(counts, dtype="<u4").tobytes()
    )


@pytest.mark.parametrize(
    "blob, offset",
    [(ltds_blob(30, 0, [20, 10]), 12), (ltds_blob(0, 0, []), 12), (ltds_blob(0, 4, []), 16)],
)
def test_load_rejects_zero_dim_or_zero_classes(tmp_path, blob, offset):
    path = tmp_path / "ds.ltds"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        data.load_dataset(path)
    assert err.value.offset == offset


def _valid_blob():
    counts = data.longtail_counts(3, 6, 3.0)
    ds = data.synth_gaussians(3, 2, counts, 4.0, 1.0, seed=1)
    header = struct.pack("<4sIIII", b"LTDS", 1, ds.num_samples, ds.dim, ds.num_classes)
    return (
        header
        + ds.features.astype("<f4").tobytes()
        + ds.labels.astype("<u4").tobytes()
        + ds.class_counts.astype("<u4").tobytes()
    )


VALID_BLOB = _valid_blob()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, len(VALID_BLOB) - 1), st.integers(0, 255)), max_size=6),
    st.integers(0, len(VALID_BLOB)),
)
def test_load_fuzzed_bytes_loads_or_raises_format_error(tmp_path_factory, edits, keep):
    """Byte edits plus truncation of a valid file: the loader either returns
    a dataset that holds the format's invariants or raises FormatError."""
    blob = bytearray(VALID_BLOB)
    for offset, value in edits:
        blob[offset] = value
    path = tmp_path_factory.mktemp("fuzz") / "ds.ltds"
    path.write_bytes(bytes(blob[:keep]))
    try:
        ds = data.load_dataset(path)
    except FormatError:
        return
    assert (ds.class_counts > 0).all()
    assert ds.class_counts.sum() == ds.num_samples
    assert np.isfinite(ds.features).all()


def test_dataset_invariants_rejected_in_memory():
    cases = [
        (3, [0, 0, 1], [1, 2]),  # ascending counts + frequency mismatch
        (5, [0, 0, 0, 1, 1], [3, 2, 0]),  # a class with no samples
        (0, [], []),  # no classes, no samples
    ]
    for n, labels, counts in cases:
        with pytest.raises(ParameterError):
            data.Dataset(
                features=np.zeros((n, 2), dtype=np.float32),
                labels=np.array(labels, dtype=np.int64),
                class_counts=np.array(counts, dtype=np.int64),
            )
